"""Persistent worker pool lifecycle edges (``repro.chaos.pool``).

The pool is the parallel engine behind ``CampaignSupervisor``;
its contracts are already exercised wholesale by ``test_chaos.py``.
This file pins the *pool-specific* edges: worker death mid-task
respawns + requeues with the digest unchanged, and one pool serves two
campaigns in the same process (same worker PIDs).
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass

import pytest

from repro.chaos import (
    PersistentWorkerPool,
    SupervisorPolicy,
    WorkerDeathError,
    shared_pool,
    shutdown_shared_pools,
)
from repro.errors import ChaosError
from repro.fleet import CampaignConfig, FleetCampaign


# ---------------------------------------------------------------------------
# Mini harness (module-level + picklable for fork workers)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class _Spec:
    host_id: int


@dataclass(frozen=True)
class _Task:
    spec: _Spec
    vm_specs: tuple = ()
    die_attempts: int = 0
    hard_exit_attempts: int = 0
    hang_attempts: int = 0


def _run(task: _Task, attempt: int = 1) -> dict:
    if attempt <= task.hard_exit_attempts:
        os._exit(3)
    if attempt <= task.die_attempts:
        raise WorkerDeathError(f"planned death on attempt {attempt}")
    if attempt <= task.hang_attempts:
        time.sleep(60.0)
    return {"host_id": task.spec.host_id, "ok": True, "attempt": attempt}


def _policy(**kw) -> SupervisorPolicy:
    defaults = dict(task_timeout_s=30.0, max_attempts=3, backoff_s=0.0)
    defaults.update(kw)
    return SupervisorPolicy(**defaults)


@pytest.fixture
def pool():
    p = PersistentWorkerPool(_run, 2)
    yield p
    p.close()


# ---------------------------------------------------------------------------
# Pool mechanics
# ---------------------------------------------------------------------------


class TestPoolLifecycle:
    def test_results_in_task_order(self, pool):
        tasks = [_Task(_Spec(i)) for i in (5, 1, 3, 0)]
        results, report = pool.run(tasks, _policy())
        assert [r["host_id"] for r in results] == [5, 1, 3, 0]
        assert report.retried == 0
        assert pool.respawns == 0

    def test_workers_survive_across_runs(self, pool):
        pool.run([_Task(_Spec(0))], _policy())
        pids_first = pool.worker_pids()
        pool.run([_Task(_Spec(i)) for i in range(4)], _policy())
        assert pool.worker_pids() == pids_first, (
            "healthy workers must be reused across campaigns, not respawned"
        )

    def test_worker_death_mid_task_respawns_and_requeues(self, pool):
        tasks = [_Task(_Spec(0), die_attempts=1), _Task(_Spec(1))]
        results, report = pool.run(tasks, _policy())
        assert [r["host_id"] for r in results] == [0, 1]
        assert results[0]["attempt"] == 2, "task must retry after the death"
        assert results[1]["attempt"] == 1
        assert report.worker_deaths == 1 and report.retried == 1
        assert pool.respawns == 1, "the dead worker must be replaced"
        assert len(pool.worker_pids()) == 2

    def test_raw_hard_exit_is_detected_and_retried(self, pool):
        results, report = pool.run(
            [_Task(_Spec(0), hard_exit_attempts=1)], _policy()
        )
        assert results[0]["ok"] and results[0]["attempt"] == 2
        assert report.worker_deaths == 1

    def test_hang_times_out_kills_and_requeues(self, pool):
        results, report = pool.run(
            [_Task(_Spec(0), hang_attempts=1), _Task(_Spec(1))],
            _policy(task_timeout_s=0.5),
        )
        assert [r["host_id"] for r in results] == [0, 1]
        assert results[0]["attempt"] == 2
        assert report.timeouts == 1
        assert pool.respawns >= 1

    def test_exhausted_attempts_give_typed_result(self, pool):
        results, report = pool.run(
            [_Task(_Spec(7), die_attempts=99)], _policy(max_attempts=2)
        )
        assert results[0]["ok"] is False
        assert results[0]["host_id"] == 7
        assert results[0]["gave_up"] is True
        assert report.outcomes[0].gave_up

    def test_collect_false_streams_via_on_result(self, pool):
        seen: list[int] = []
        results, _ = pool.run(
            [_Task(_Spec(i)) for i in range(3)],
            _policy(),
            on_result=lambda r: seen.append(r["host_id"]),
            collect=False,
        )
        assert results == []
        assert sorted(seen) == [0, 1, 2]

    def test_closed_pool_refuses_work(self, pool):
        pool.close()
        with pytest.raises(ChaosError):
            pool.run([_Task(_Spec(0))], _policy())

    def test_close_is_idempotent(self, pool):
        pool.close()
        pool.close()


class TestSharedPools:
    def test_shared_pool_is_reused_across_campaigns(self):
        try:
            a = shared_pool(_run, 2)
            a.run([_Task(_Spec(0))], _policy())
            pids = a.worker_pids()
            b = shared_pool(_run, 2)
            assert b is a
            b.run([_Task(_Spec(1))], _policy())
            assert b.worker_pids() == pids
        finally:
            shutdown_shared_pools()

    def test_closed_shared_pool_is_recreated(self):
        try:
            a = shared_pool(_run, 2)
            a.close()
            b = shared_pool(_run, 2)
            assert b is not a
            results, _ = b.run([_Task(_Spec(0))], _policy())
            assert results[0]["ok"]
        finally:
            shutdown_shared_pools()

    def test_worker_count_keys_distinct_pools(self):
        try:
            assert shared_pool(_run, 2) is not shared_pool(_run, 3)
        finally:
            shutdown_shared_pools()


# ---------------------------------------------------------------------------
# Supervisor integration: pool modes on a real campaign
# ---------------------------------------------------------------------------


def _small_config(**kw) -> CampaignConfig:
    defaults = dict(hosts=2, vms=6, budget=1, seed=7)
    defaults.update(kw)
    return CampaignConfig(**defaults)


class TestPoolModes:
    def test_worker_death_under_pool_keeps_digest(self):
        # A seed whose chaos plan includes worker deaths: the pool must
        # respawn + requeue and still merge bit-identically with the
        # serial path (which simulates the same deaths in-process).
        from repro.chaos import ChaosKind, ChaosPlan

        seed = next(
            s
            for s in range(64)
            if any(
                spec.kind is ChaosKind.WORKER_DEATH
                for spec in ChaosPlan.generate(s, 2, events=4, arrivals=6).specs
            )
        )
        cfg_parallel = _small_config(workers=2, chaos_seed=seed)
        cfg_serial = _small_config(workers=1, chaos_seed=seed)
        parallel = FleetCampaign(cfg_parallel).run()
        serial = FleetCampaign(cfg_serial).run()
        assert parallel.digest() == serial.digest()
        assert parallel.supervision.get("worker_deaths", 0) >= 1, (
            "the chaos plan's worker death must actually have fired"
        )


# ---------------------------------------------------------------------------
# Orphaned workers: a SIGKILLed driver must not leave its pool behind
# ---------------------------------------------------------------------------


def _children_of(pid: int) -> set[int]:
    """PIDs whose parent is *pid* (from /proc)."""
    out = set()
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as fh:
                stat = fh.read()
        except OSError:
            continue
        # Fields after the parenthesised command: state, ppid, ...
        fields = stat.rsplit(")", 1)[1].split()
        if int(fields[1]) == pid:
            out.add(int(entry))
    return out


def _alive(pid: int) -> bool:
    """True while *pid* exists and is not a zombie awaiting its reaper."""
    try:
        with open(f"/proc/{pid}/stat") as fh:
            state = fh.read().rsplit(")", 1)[1].split()[0]
    except OSError:
        return False
    return state != "Z"


@pytest.mark.skipif(not os.path.isdir("/proc"), reason="needs /proc")
def test_sigkilled_driver_leaves_no_pool_workers():
    """SIGKILL a ``repro fleet --workers 2`` driver while its pool is
    busy; both workers must notice and exit within a few seconds."""
    import signal
    import subprocess
    import sys

    env = dict(os.environ, PYTHONPATH="src")
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro", "fleet", "--hosts", "32", "--vms", "96",
         "--budget", "2", "--workers", "2"],
        stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL, env=env,
    )
    workers: set[int] = set()
    try:
        deadline = time.monotonic() + 120
        while time.monotonic() < deadline and proc.poll() is None:
            workers = _children_of(proc.pid)
            if len(workers) >= 2:
                break
            time.sleep(0.02)
        assert proc.poll() is None, "the campaign finished before the kill"
        assert len(workers) >= 2, f"pool workers never appeared: {workers}"
        proc.send_signal(signal.SIGKILL)
    finally:
        if proc.poll() is None:
            proc.kill()
        proc.wait(timeout=60)
    deadline = time.monotonic() + 10
    while time.monotonic() < deadline and any(_alive(p) for p in workers):
        time.sleep(0.05)
    survivors = [p for p in workers if _alive(p)]
    for pid in survivors:  # do not leak them into the rest of the run
        os.kill(pid, signal.SIGKILL)
    assert not survivors, f"pool workers outlived their driver: {survivors}"
