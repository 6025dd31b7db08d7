"""cluster-place: a reduced ClusterCampaign on the persistent worker pool.

Set-up starts and warms the pool at ``nproc`` workers and runs the
host-shape probe.  One unit of work is ``ClusterCampaign.run()``; the
shape probe it repeats inside ``place()`` is timed and subtracted, so the
unit measures admission, pool execution and the streaming merge only.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass

from common import BACKEND, vm_hwm_mib
from hostspeed import kernel_s, scale
from inputs import ClusterInputs

#: Pool size: nproc, capped at 2 so runs on larger hosts stay comparable.
WORKERS = max(1, min(2, os.cpu_count() or 1))


def config(inputs: ClusterInputs, backend: str = BACKEND):
    from repro.fleet.cluster import ClusterConfig

    return ClusterConfig(
        hosts=inputs.hosts,
        vms=inputs.vms,
        shards=inputs.shards,
        budget=inputs.budget,
        seed=inputs.seed,
        backend=backend,
        workers=WORKERS,
        scenario="attack",
    )


# ----------------------------------------------------------------------
# Pool task function used while tracing: it times each host task in the
# worker and answers control messages that reset or return the worker's
# spans.  Module-level so the pool can hand it to forked workers.
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class _ControlSpec:
    host_id: int


@dataclass(frozen=True)
class Control:
    """A pseudo task carrying a command for one pool worker."""

    command: str  # "reset" or "dump"
    spec: _ControlSpec


def traced_host_task(task, attempt: int = 1) -> dict:
    from repro.fleet.driver import run_host_task
    from spans import TRACER

    if isinstance(task, Control):
        result = {"host_id": task.spec.host_id, "pid": os.getpid()}
        if task.command == "dump":
            result["summary"] = TRACER.summary()
        TRACER.reset()
        return result
    idx = TRACER.open("chaos.task")
    try:
        return run_host_task(task, attempt)
    finally:
        TRACER.close(idx)


def _control(pool, command: str) -> list[dict]:
    """Send *command* to every worker (an idle pool hands one task to
    each worker)."""
    from repro.chaos.supervisor import SupervisorPolicy

    tasks = [Control(command, _ControlSpec(-1 - i)) for i in range(pool.workers)]
    results, _ = pool.run(tasks, SupervisorPolicy())
    if len({r["pid"] for r in results}) != pool.workers:
        raise RuntimeError(f"pool control {command!r} did not reach every worker")
    return results


class ClusterBench:
    """The driver side: pool, probe, and timed campaigns."""

    def __init__(self, *, traced: bool = False):
        self.traced = traced
        self.probe_s = 0.0
        self.pool = None
        self.worker_hwm: dict[int, float] = {}

    def setup(self) -> None:
        import repro.fleet.cluster as cluster
        from repro.chaos.pool import shared_pool
        from repro.chaos.supervisor import SupervisorPolicy
        from repro.fleet.driver import HostTask, run_host_task, warm_worker
        from repro.fleet.host import HostSpec

        if self.traced:
            cluster.run_host_task = traced_host_task
            self.pool = shared_pool(traced_host_task, WORKERS, warmup=warm_worker)
        else:
            cluster.run_host_task = run_host_task
            self.pool = shared_pool(run_host_task, WORKERS, warmup=warm_worker)
        # One real host task per worker: returns once every worker has
        # warmed up and served a task.
        warm = [
            HostTask(spec=HostSpec(host_id=i, seed=i, backend=BACKEND), vm_specs=(),
                     scenario="attack", budget=1, storm_errors=0)
            for i in range(WORKERS)
        ]
        self.pool.run(warm, SupervisorPolicy())
        cluster.measure_host_shape(backend=BACKEND)
        self._time_probe(cluster)

    def _time_probe(self, cluster) -> None:
        """Time the shape probe ``place()`` runs, to subtract it."""
        probe = cluster.measure_host_shape
        if getattr(probe, "_bench_timed", False):
            return

        def timed_probe(*args, **kwargs):
            t0 = time.perf_counter()
            try:
                return probe(*args, **kwargs)
            finally:
                self.probe_s += time.perf_counter() - t0

        timed_probe._bench_timed = True
        cluster.measure_host_shape = timed_probe

    def run_unit(self, cfg):
        """One campaign: (wall seconds and reference seconds, both
        excluding the probe; campaign; report)."""
        from repro.fleet.cluster import ClusterCampaign

        campaign = ClusterCampaign(cfg)
        self.probe_s = 0.0
        before = kernel_s()
        t0 = time.perf_counter()
        report = campaign.run()
        elapsed = time.perf_counter() - t0 - self.probe_s
        reference = scale(elapsed, before, kernel_s())
        self._note_hwm()
        return elapsed, reference, campaign, report

    def _note_hwm(self) -> None:
        for pid in self.pool.worker_pids():
            self.worker_hwm[pid] = max(self.worker_hwm.get(pid, 0.0), vm_hwm_mib(pid))

    def reset_workers(self) -> None:
        _control(self.pool, "reset")

    def worker_summaries(self) -> list[dict]:
        return [r["summary"] for r in _control(self.pool, "dump")]

    def peak_rss_mib(self) -> float:
        self._note_hwm()
        return max([vm_hwm_mib(), *self.worker_hwm.values()])

    def close(self) -> None:
        from repro.chaos.pool import shutdown_shared_pools

        shutdown_shared_pools()
        self.pool = None


def check(report, expected_digest: str | None) -> list[str]:
    failures = []
    if report.hosts_failed:
        failures.append(f"cluster: {report.hosts_failed} host task(s) failed")
    gave_up = sum(1 for o in report.supervision["outcomes"] if o["gave_up"])
    if gave_up:
        failures.append(f"cluster: the pool gave up on {gave_up} host task(s)")
    escaped = report.summary.get("escaped", 0)
    if escaped:
        failures.append(f"cluster: {escaped} flip(s) escaped an attacker's group")
    if expected_digest is not None and report.merge_digest != expected_digest:
        failures.append(
            f"cluster: merge digest {report.merge_digest[:16]} != recorded "
            f"scalar digest {expected_digest[:16]}"
        )
    return failures
