"""The Siloz stack benchmark.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads: ``paper-repro``, ``cluster-place``, ``serve-churn``,
``serve-reads`` (see ``BENCHMARK.json`` for why each exists).  Every
workload runs on the ``vectorized`` backend, checks its outputs, and
prints as its last stdout line one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``.  The lines before
it give the provenance (cpu count, Python, git sha, seed, backend) and the
workload's headline numbers; the full record is also written to
``.perfbench/results/``.
"""

import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402

import common  # noqa: E402
import hostspeed  # noqa: E402
import inputs  # noqa: E402
from common import BENCH_DIR, median, percentile, vm_hwm_mib  # noqa: E402
from metrics import END_TO_END, PER_LAYER, layer_metrics, wait_ms  # noqa: E402

WORKLOADS = ("paper-repro", "cluster-place", "serve-churn", "serve-reads")
#: Set-ups measured per run (this process plus fresh child processes).
SETUP_SAMPLES = 5
#: Output checks made per paper regeneration.
PAPER_CHECKS = 13


class Outcome:
    """What one workload run measured and checked."""

    def __init__(self) -> None:
        self.metrics: dict = {}
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.info: dict = {}

    def check(self, attempted: int, failures: list[str]) -> None:
        self.attempted += attempted
        self.failed += min(attempted, len(failures))
        self.failures.extend(failures)


def _elapsed() -> float:
    return time.perf_counter() - T_START


def _setup_s(*kernels: float) -> float:
    """Set-up time so far, in reference seconds: the kernel is timed right
    after set-up ends (plus *kernels* timed in child processes)."""
    return hostspeed.scale(_elapsed(), hostspeed.kernel_s(runs=5), *kernels)


def recorded_digest(workload: str, seed: int) -> str:
    doc = json.loads((BENCH_DIR / "digests.json").read_text())
    return doc[workload][str(inputs.input_seed(seed))]


def child_setup_samples(args) -> list[float]:
    """Set up the workload in fresh processes (imports included)."""
    samples = []
    for _ in range(SETUP_SAMPLES - 1):
        proc = subprocess.run(
            [sys.executable, str(BENCH_DIR / "run.py"), "--setup-only",
             "--workload", args.workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds)],
            capture_output=True, text=True, timeout=120, cwd=common.ROOT,
        )
        if proc.returncode != 0:
            raise RuntimeError(f"set-up child failed: {proc.stderr[-2000:]}")
        samples.append(json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"])
    return samples


def _until(seconds: float, minimum: int, unit) -> list:
    """Call ``unit(k)`` for k = 0, 1, ... at least *minimum* times and
    while another call still fits in *seconds*; each returns
    ``(duration, payload)``.  Unit k runs on input seed ``--seed + k``,
    so a run's median spans several inputs."""
    results = []
    t0 = time.perf_counter()
    while True:
        results.append(unit(len(results)))
        elapsed = time.perf_counter() - t0
        if len(results) >= minimum and elapsed + results[-1][0] > seconds:
            return results


# ----------------------------------------------------------------------
# paper-repro
# ----------------------------------------------------------------------


def run_paper(args, out: Outcome) -> None:
    import paper

    paper.setup(inputs.paper_inputs(args.seed))
    setup_s = _setup_s()

    clock = hostspeed.Clock()

    def unit(k):
        seed = args.seed + k
        wall = clock.wall_s
        seconds, digest, failures = paper.run_unit(inputs.paper_inputs(seed), clock)
        expected = recorded_digest("paper-repro", seed)
        if digest != expected:
            failures.append(f"paper: output digest {digest[:16]} != recorded {expected[:16]}")
        out.check(PAPER_CHECKS, failures)
        return clock.wall_s - wall, seconds

    if not args.trace:
        runs = _until(args.seconds, 3, unit)
        units = [seconds for _, seconds in runs]
        # Each experiment cell's median over the run's regenerations.
        out.metrics = {
            "setup_s": median([setup_s, *child_setup_samples(args)]),
            "work_s": sum(median([u[name] for u in units]) for name in units[0]),
            "peak_rss_mib": vm_hwm_mib(),
        }
        out.info = {"regenerations": units, "wall_s": [w for w, _ in runs]}
        return
    import spans

    # The first full-size regeneration still warms caches: time the second.
    unit(0)
    untraced = sum(unit(0)[1].values())
    tracer = spans.install()
    tracer.reset()
    traced = sum(unit(0)[1].values())
    out.metrics = layer_metrics(tracer.summary(), _trace_extra(out, untraced, traced))


def _trace_extra(out: Outcome, untraced: float, traced: float) -> dict:
    return {
        "trace.overhead_s": traced - untraced,
        "trace.overhead_ratio": (traced - untraced) / untraced,
        "error_ratio": out.failed / max(1, out.attempted),
    }


# ----------------------------------------------------------------------
# cluster-place
# ----------------------------------------------------------------------


def _cluster_setup():
    from cluster import ClusterBench

    bench = ClusterBench()
    bench.setup()
    return bench


def run_cluster(args, out: Outcome) -> None:
    import cluster

    bench = _cluster_setup()
    setup_s = _setup_s()

    def unit(k, b):
        seed = args.seed + k
        inp = inputs.cluster_inputs(seed)
        wall, reference, campaign, report = b.run_unit(cluster.config(inp))
        expected = recorded_digest("cluster-place", seed)
        out.check(inp.hosts + 1, cluster.check(report, expected))
        return wall, (reference, inp, campaign)

    try:
        if not args.trace:
            runs = _until(args.seconds, 5, lambda k: unit(k, bench))
            walls = [w for w, _ in runs]
            work = [r for _, (r, _, _) in runs]
            peak = bench.peak_rss_mib()
            bench.close()
            hosts = inputs.cluster_inputs(args.seed).hosts
            out.metrics = {
                "setup_s": median([setup_s, *child_setup_samples(args)]),
                "work_s": median(work),
                "peak_rss_mib": peak,
            }
            out.info = {"campaigns": len(walls), "wall_s": walls, "work_s": work,
                        "hosts_per_s": hosts / median(walls)}
            return
        import spans

        untraced, _ = unit(0, bench)
        bench.close()
        tracer = spans.install()
        bench = cluster.ClusterBench(traced=True)
        bench.setup()
        bench.reset_workers()
        tracer.reset()
        traced, (_, inp, campaign) = unit(0, bench)
        merged = spans.merge_summaries([tracer.summary(), *bench.worker_summaries()])
        extra = _trace_extra(out, untraced, traced)
        extra["fleet.cluster.pruned_ratio"] = campaign.pruned_arrivals / inp.vms
        extra["fleet.cluster.hosts_per_s"] = inp.hosts / untraced
        out.metrics = layer_metrics(merged, extra, workers=cluster.WORKERS)
    finally:
        bench.close()


# ----------------------------------------------------------------------
# serve-churn / serve-reads
# ----------------------------------------------------------------------


def _serve_setup(args, *, trace: bool = False):
    import serve

    inp = inputs.serve_inputs(args.workload, args.seed, args.seconds)
    daemon = serve.Daemon(inp, common.work_dir(args.workload), trace=trace)
    try:
        placed = serve.prefill(daemon, inp)
    except BaseException:
        daemon.stop()
        raise
    return inp, (daemon, placed)


def _serve_pass(args, out: Outcome, *, trace: bool):
    """Set up a daemon, drive the schedule, replay-check its log."""
    import serve

    inp, (daemon, placed) = _serve_setup(args, trace=trace)
    setup_s = _setup_s(daemon.kernel_s)
    try:
        run = serve.drive(daemon, inp, placed)
    finally:
        daemon.stop()
    loadgen_hwm = vm_hwm_mib()
    sent = sum(s.sent for s in run.steps)
    out.check(sent, [f for s in run.steps for f in s.failures])
    out.check(1, serve.replay_check(serve.service_config(inp), run))
    return inp, run, setup_s, max(run.daemon_hwm_mib, loadgen_hwm)


def _serve_info(inp, run) -> dict:
    import serve

    limit = inp.shape.p99_limit_ms
    ref = run.steps[0]
    rate, invalid = serve.max_rate(run, limit)
    sent = sum(s.sent for s in run.steps)
    late = [x for s in run.steps for x in s.late_ms]
    answered = list(ref.by_id.values()) or [0.0]
    return {
        "reference_rps": ref.rate,
        # Latency of the answered requests; refusals and failures are in
        # refused_ratio and the failed count (and fail ladder steps).
        "p50_ms": percentile(answered, 50),
        "p99_ms": percentile(answered, 99),
        "samples": ref.sent,
        "p99_limit_ms": limit,
        "max_rate_rps": rate,
        "invalid_steps": invalid,
        "refused_ratio": sum(s.refused for s in run.steps) / max(1, sent),
        "late_ms_p99": percentile(late, 99) if late else 0.0,
        "backlog": ref.backlog,
        "window_cpu_s": ref.window_cpu_s,
        "daemon_cpu_per_s": run.cpu_per_s,
        "steps": [
            {"rate": s.rate, "sent": s.sent, "p50_ms": s.p(50), "p99_ms": s.p(99),
             "late_ms_p99": s.late_p99(), "backlog": s.backlog, "refused": s.refused,
             "failed": s.failed, "valid": s.valid(limit), "passed": s.passed(limit)}
            for s in run.steps
        ],
    }


def run_serve(args, out: Outcome) -> None:
    inp, run, setup_s, peak = _serve_pass(args, out, trace=False)
    info = _serve_info(inp, run)
    out.info = info
    if not args.trace:
        out.metrics = {
            "setup_s": median([setup_s, *child_setup_samples(args)]),
            "work_s": run.cpu_per_s,
            "peak_rss_mib": peak,
        }
        return
    _, traced, _, _ = _serve_pass(args, out, trace=True)
    summary = traced.spans["summary"]
    ref = traced.steps[0]
    wait_p50, wait_p99 = wait_ms(ref.by_id, traced.spans["requests"])
    extra = _trace_extra(out, run.cpu_per_s, traced.cpu_per_s)
    extra.update({
        "serve.wait_ms.p50": wait_p50,
        "serve.wait_ms.p99": wait_p99,
        "serve.busy": sum(s.refused_by_code.get("busy", 0) for s in traced.steps),
        "serve.capacity": sum(s.refused_by_code.get("capacity", 0) for s in traced.steps),
        "serve.p50_ms": info["p50_ms"],
        "serve.p99_ms": info["p99_ms"],
        "serve.samples": info["samples"],
        "serve.max_rate_rps": info["max_rate_rps"],
        "serve.refused_ratio": info["refused_ratio"],
        "loadgen.late_ms.p99": info["late_ms_p99"],
        "loadgen.backlog": info["backlog"],
    })
    out.metrics = layer_metrics(summary, extra)


# ----------------------------------------------------------------------
# Entry point
# ----------------------------------------------------------------------

RUNNERS = {
    "paper-repro": run_paper,
    "cluster-place": run_cluster,
    "serve-churn": run_serve,
    "serve-reads": run_serve,
}


def setup_only(args) -> int:
    """Child mode: set up once, report the time, tear down."""
    if args.workload == "paper-repro":
        import paper

        paper.setup(inputs.paper_inputs(args.seed))
        print(json.dumps({"setup_s": _setup_s()}))
    elif args.workload == "cluster-place":
        bench = _cluster_setup()
        print(json.dumps({"setup_s": _setup_s()}))
        bench.close()
    else:
        _, (daemon, _) = _serve_setup(args)
        print(json.dumps({"setup_s": _setup_s(daemon.kernel_s)}))
        daemon.stop()
    return 0


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def main(argv) -> int:
    args = parse_args(argv)
    try:
        common.use_program()
    except common.BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    if args.setup_only:
        return setup_only(args)
    out = Outcome()
    try:
        RUNNERS[args.workload](args, out)
    except Exception:  # noqa: BLE001 — report and exit without a result
        traceback.print_exc()
        return 1
    missing = set(PER_LAYER if args.trace else END_TO_END) - set(out.metrics)
    if missing:
        print(f"perfbench: metrics not produced: {sorted(missing)}", file=sys.stderr)
        return 1
    bad = sorted(k for k, v in out.metrics.items() if not math.isfinite(v))
    if bad:
        print(f"perfbench: non-finite metrics: {bad}", file=sys.stderr)
        return 1
    record = {
        "provenance": common.provenance(
            args.workload, args.seed, inputs.input_seed(args.seed), bool(args.trace)),
        "info": out.info,
        "failures": out.failures,
    }
    print("perfbench: provenance " + json.dumps(record["provenance"], sort_keys=True))
    print("perfbench: " + json.dumps(out.info, sort_keys=True, default=str))
    for failure in out.failures[:20]:
        print(f"perfbench: FAILED {failure}")
    units = PER_LAYER if args.trace else END_TO_END
    result = {
        "correct": out.failed == 0 and not out.failures,
        "attempted": max(1, out.attempted),
        "failed": out.failed,
        "metrics": {
            name: {"value": float(out.metrics[name]), "unit": unit}
            for name, unit in units.items()
        },
    }
    results = common.WORK_DIR / "results"
    results.mkdir(parents=True, exist_ok=True)
    (results / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps({**record, "result": result}, indent=1, default=str))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
