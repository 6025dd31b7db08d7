"""Fleet trajectory points: parallel scaling and cluster scale.

Two recorded entries in ``BENCH_fleet.json`` at the repo root:

- ``fleet_campaign`` — the same small campaign at ``workers=1`` vs
  ``workers=N``; merged reports must be **bit-identical** (per-host
  seeds derive from host ids, never pool order) and the ≥2× speedup
  target is enforced when the machine can express it.
- ``fleet_cluster`` — the cluster-scale campaign (1000 hosts / 100k VM
  arrivals through sharded admission over logical capacity twins) at
  ``workers=1`` scalar, ``workers=N`` scalar, and ``workers=N``
  vectorized, each repeated :data:`CLUSTER_REPEATS` times; every merge
  digest must be bit-identical, and each leg records its median, min
  and max wall time (spread = (max - min) / median) plus driver peak
  RSS.  The best leg's median hosts/sec is the gated trajectory metric
  (``check_trajectory.py --key fleet_cluster --field hosts_per_sec``).

The ≥2× speedup target only makes sense with cores to scale onto, so
the assertion is gated on ``os.cpu_count() >= WORKERS``: a 1-core dev
box records its honest (≈1×) measurement without failing, while CI's
multi-core runners enforce the target.  The identical-results assertion
is unconditional — it is the half of the contract that must hold
everywhere.

``REPRO_BENCH_CLUSTER_HOSTS`` / ``REPRO_BENCH_CLUSTER_VMS`` shrink the
cluster leg for local iteration; the committed point and the nightly
run use the full 1000 / 100000 defaults.
"""

from __future__ import annotations

import os
import pathlib
import time

from conftest import record

from repro.fleet import (
    CampaignConfig,
    ClusterConfig,
    run_campaign,
    run_cluster_campaign,
)

REPO_ROOT = pathlib.Path(__file__).resolve().parents[1]
BENCH_JSON = REPO_ROOT / "BENCH_fleet.json"

#: Scaling target: parallel workers the bench compares against serial.
WORKERS = 4
#: Minimum acceptable scaling speedup when the machine can express it.
SCALING_TARGET = 2.0
#: Campaign sized so per-host work dominates placement + pool overhead.
HOSTS = 8
VMS = 24
BUDGET = 8

#: Cluster-scale leg (overridable for local iteration only — the
#: recorded trajectory point must stay at full scale to be comparable).
CLUSTER_HOSTS = int(os.environ.get("REPRO_BENCH_CLUSTER_HOSTS", "1000"))
CLUSTER_VMS = int(os.environ.get("REPRO_BENCH_CLUSTER_VMS", "100000"))
CLUSTER_SHARDS = 16
CLUSTER_BUDGET = 2
#: Timed runs per cluster leg; the recorded figures are their median.
CLUSTER_REPEATS = 3

_RESULTS: dict = {
    "bench": "fleet",
    "note": "parallel fleet campaign (workers=N) vs serial (workers=1); "
    "merged reports must be bit-identical",
}


def _banner(title: str) -> str:
    rule = "=" * len(title)
    return f"\n{rule}\n{title}\n{rule}"


def _campaign(workers: int):
    config = CampaignConfig(
        hosts=HOSTS, vms=VMS, budget=BUDGET, workers=workers, seed=7
    )
    t0 = time.perf_counter()
    report = run_campaign(config)
    return time.perf_counter() - t0, report


def _cluster(workers: int, backend: str):
    config = ClusterConfig(
        hosts=CLUSTER_HOSTS,
        vms=CLUSTER_VMS,
        shards=CLUSTER_SHARDS,
        budget=CLUSTER_BUDGET,
        workers=workers,
        backend=backend,
        seed=7,
        policy="first-fit",
    )
    return run_cluster_campaign(config)


def test_fleet_scaling() -> None:
    cpus = os.cpu_count() or 1
    serial_s, serial = _campaign(1)
    parallel_s, parallel = _campaign(WORKERS)

    assert serial.digest() == parallel.digest(), (
        "workers=1 and workers=%d merged reports diverged" % WORKERS
    )
    assert serial.hosts_failed == 0, "campaign had host failures"

    speedup = serial_s / parallel_s
    enforced = cpus >= WORKERS
    print(_banner(f"Fleet: {HOSTS}-host campaign, workers=1 vs workers={WORKERS}"))
    print(
        f"serial {serial_s * 1e3:8.1f} ms   parallel {parallel_s * 1e3:8.1f} ms"
        f"   speedup {speedup:.2f}x "
        f"(target >= {SCALING_TARGET}x, "
        f"{'enforced' if enforced else f'not enforced: only {cpus} CPU(s)'})"
    )
    payload = {
        "serial_seconds": round(serial_s, 6),
        "parallel_seconds": round(parallel_s, 6),
        "workers": WORKERS,
        "cpu_count": cpus,
        "target": SCALING_TARGET,
        "target_enforced": enforced,
        "identical_results": True,
        "hosts": HOSTS,
        "vms": VMS,
        "merge_digest": serial.digest(),
    }
    if cpus > 1:
        payload["speedup"] = round(speedup, 3)
    else:
        # A 1-core box cannot measure scaling at all — its ~1x "speedup"
        # is pure pool overhead, and recording it would poison the
        # trajectory baseline for real runners.  Write a loud skip
        # marker instead; check_trajectory --key passes it through
        # without gating.
        payload["skipped"] = f"single-core runner ({cpus} cpu)"
    record(BENCH_JSON, _RESULTS, "fleet_campaign", payload)
    if enforced:
        assert speedup >= SCALING_TARGET, (
            f"fleet scaling below target ({speedup:.2f}x < {SCALING_TARGET}x "
            f"at {WORKERS} workers on {cpus} CPUs); see BENCH_fleet.json"
        )
    else:
        # One loud, grep-able line: the CI fleet-smoke job lifts it into
        # the job summary so a skipped target never passes silently.
        print(
            f"WARNING: fleet scaling target SKIPPED — only {cpus} CPU(s) "
            f"(< {WORKERS} workers); speedup {speedup:.2f}x was NOT enforced "
            f"against the {SCALING_TARGET}x target (target_enforced: false)"
        )


def test_fleet_cluster() -> None:
    """Cluster scale: sharded admission over logical twins + streaming
    merge, digest-identical across worker counts AND backends, with the
    best leg's median hosts/sec recorded as the gated trajectory metric."""
    cpus = os.cpu_count() or 1
    legs = (("serial_scalar", 1, "scalar"),
            (f"w{WORKERS}_scalar", WORKERS, "scalar"),
            (f"w{WORKERS}_vectorized", WORKERS, "vectorized"))
    runs = {
        name: [_cluster(workers, backend) for _ in range(CLUSTER_REPEATS)]
        for name, workers, backend in legs
    }
    digests = {r.merge_digest for reps in runs.values() for r in reps}
    assert len(digests) == 1, (
        f"cluster merge digests diverged across runs/worker counts/backends: {digests}"
    )
    for name, reps in runs.items():
        assert all(r.hosts_failed == 0 for r in reps), (
            f"cluster run {name} had host failures"
        )

    stats = {}
    for name, reps in runs.items():
        times = sorted(r.elapsed_s for r in reps)
        median = times[len(times) // 2]
        stats[name] = {
            "elapsed_seconds": round(median, 3),
            "min_seconds": round(times[0], 3),
            "max_seconds": round(times[-1], 3),
            "spread": round((times[-1] - times[0]) / median, 3),
            "hosts_per_sec": round(CLUSTER_HOSTS / median, 3),
            "peak_rss_mib": round(max(r.peak_rss_mib for r in reps), 1),
        }
    best = max(stats.values(), key=lambda s: s["hosts_per_sec"])
    first = runs["serial_scalar"][0]
    full_scale = CLUSTER_HOSTS >= 1000 and CLUSTER_VMS >= 100_000
    print(_banner(
        f"Fleet: cluster campaign, {CLUSTER_HOSTS} hosts / "
        f"{CLUSTER_VMS} VM arrivals, {CLUSTER_SHARDS} shards, "
        f"median of {CLUSTER_REPEATS}"
    ))
    for name, s in stats.items():
        print(
            f"{name:16s} {s['elapsed_seconds']:7.1f} s (spread {s['spread']:.0%})"
            f"   {s['hosts_per_sec']:7.1f} hosts/s"
            f"   peak rss {s['peak_rss_mib']:6.0f} MiB"
        )
    payload = {
        "hosts": CLUSTER_HOSTS,
        "vms": CLUSTER_VMS,
        "shards": CLUSTER_SHARDS,
        "budget": CLUSTER_BUDGET,
        "workers": WORKERS,
        "cpu_count": cpus,
        "repeats": CLUSTER_REPEATS,
        "runs": stats,
        "admitted": first.summary["admitted"],
        "pruned_arrivals": first.pruned_arrivals,
        "identical_results": True,
        "merge_digest": first.merge_digest,
    }
    if full_scale:
        payload["hosts_per_sec"] = best["hosts_per_sec"]
    else:
        # A scaled-down local run records its shape but must not poison
        # the full-scale trajectory baseline with incomparable numbers.
        payload["skipped"] = (
            f"reduced scale ({CLUSTER_HOSTS} hosts / {CLUSTER_VMS} vms); "
            "hosts_per_sec only comparable at 1000/100000"
        )
    record(BENCH_JSON, _RESULTS, "fleet_cluster", payload)


if __name__ == "__main__":
    test_fleet_scaling()
    test_fleet_cluster()
