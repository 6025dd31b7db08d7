"""Record the output digests the benchmark checks against.

Usage (from the root of a checkout)::

    python3 perfbench/record_digests.py [paper-repro|cluster-place ...]

For every input seed slot it runs the workload's unit of work once and
writes its digest to ``perfbench/digests.json``:

- ``cluster-place``: the campaign's merge digest on the **scalar**
  backend (the golden reference; the merge digest is backend-invariant,
  so the benchmark's vectorized runs must reproduce it);
- ``paper-repro``: the digest of the simulated outputs on the vectorized
  backend at the commit that recorded them.

A slot whose outputs fail any check is reported and not recorded.
"""

from __future__ import annotations

import json
import sys

import common
import inputs

PATH = common.BENCH_DIR / "digests.json"


def record_paper(seed: int) -> str:
    import paper

    inp = inputs.paper_inputs(seed)
    _, digest, failures = paper.run_unit(inp)
    if failures:
        raise RuntimeError(f"paper-repro slot {seed}: {failures}")
    return digest


def record_cluster(seed: int) -> str:
    import cluster

    bench = cluster.ClusterBench()
    bench.setup()
    try:
        _, _, report = bench.run_unit(
            cluster.config(inputs.cluster_inputs(seed), backend="scalar"))
    finally:
        bench.close()
    failures = cluster.check(report, None)
    if failures:
        raise RuntimeError(f"cluster-place slot {seed}: {failures}")
    return report.merge_digest


RECORDERS = {"paper-repro": record_paper, "cluster-place": record_cluster}


def main(argv: list[str]) -> int:
    common.use_program()
    doc = json.loads(PATH.read_text()) if PATH.exists() else {}
    for workload in argv or list(RECORDERS):
        digests = doc.setdefault(workload, {})
        for seed in range(inputs.SEED_SLOTS):
            digests[str(seed)] = RECORDERS[workload](seed)
            print(f"{workload} slot {seed}: {digests[str(seed)]}", flush=True)
            PATH.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
