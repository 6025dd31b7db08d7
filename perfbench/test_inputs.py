"""Checks on the benchmark itself: seeded inputs, the layer map, spans.

Run from the root of a checkout: ``python3 -m pytest perfbench -q``.
"""

import asyncio
import collections
import json
import time

import pytest

import inputs
import metrics
import run
import spans
from common import BENCH_DIR, ROOT, percentile

SEEDS = (0, 1, 7)


def _all_inputs(seed):
    return (
        inputs.paper_inputs(seed),
        inputs.cluster_inputs(seed),
        inputs.serve_inputs("serve-churn", seed, 12),
        inputs.serve_inputs("serve-reads", seed, 12),
    )


@pytest.mark.parametrize("seed", SEEDS)
def test_same_seed_gives_identical_inputs(seed):
    assert _all_inputs(seed) == _all_inputs(seed)
    assert _all_inputs(seed) == _all_inputs(seed + inputs.SEED_SLOTS)


def test_different_seeds_give_different_inputs():
    for a, b in zip(_all_inputs(0), _all_inputs(1)):
        assert a != b
    churn = [inputs.serve_inputs("serve-churn", s, 12) for s in SEEDS]
    assert len({tuple(s.op for s in i.slots) for i in churn}) == len(SEEDS)
    assert len({i.service_seed for i in churn}) == len(SEEDS)


@pytest.mark.parametrize("workload", sorted(inputs.SERVE_SHAPES))
def test_serve_schedule_is_open_loop_with_fixed_proportions(workload):
    shape = inputs.SERVE_SHAPES[workload]
    mixes = []
    for seed in SEEDS:
        inp = inputs.serve_inputs(workload, seed, 12)
        assert inp.steps[0].reference and inp.steps[0].rate == shape.reference_rps
        assert [s.rate for s in inp.steps[1:]] == list(shape.ladder_rps)
        for index, step in enumerate(inp.steps):
            slots = [s for s in inp.slots if s.step == index]
            assert len(slots) == int(step.rate * step.duration_s)
            assert [s.due_s for s in slots] == sorted(s.due_s for s in slots)
            assert slots[-1].due_s < step.duration_s
        ref = [s for s in inp.slots if s.step == 0]
        mixes.append(collections.Counter(s.op for s in ref))
        assert all(s.size_mib in shape.sizes_mib for s in ref if s.op == "place")
    assert all(mix == mixes[0] for mix in mixes)


def test_layer_map_names_real_metrics_and_workloads():
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert doc["command"] == ["python3", "perfbench/run.py"]
    assert [w["name"] for w in doc["workloads"]] == list(run.WORKLOADS)
    setup = [m for m in doc["end_to_end"] if m["name"] == "setup_s"][0]
    assert setup["bound"] == max(m["bound"] for m in doc["end_to_end"])
    layers = json.loads((BENCH_DIR / "layers.json").read_text())
    known = set(metrics.END_TO_END) | set(metrics.PER_LAYER)
    assert set(layers["moves"]) <= set(metrics.PER_LAYER)
    for moves in layers["moves"].values():
        for metric, workload in moves:
            assert metric in known and workload in run.WORKLOADS
    assert set(layers["workloads"]) == set(run.WORKLOADS)


def test_digests_cover_every_seed_slot():
    doc = json.loads((BENCH_DIR / "digests.json").read_text())
    for workload in ("paper-repro", "cluster-place"):
        assert sorted(doc[workload], key=int) == [str(s) for s in range(inputs.SEED_SLOTS)]


def test_self_time_subtracts_children():
    tracer = spans.Tracer()
    outer = tracer.open("a")
    inner = tracer.open("b")
    time.sleep(0.01)
    tracer.close(inner)
    tracer.close(outer)
    summary = tracer.summary()
    a, b = tracer.spans
    assert b[3] == 0  # b's parent is a
    assert summary["self_s"]["a"] == pytest.approx((a[2] - a[1] - (b[2] - b[1])) / 1e9)
    assert summary["total_s"]["a"] >= summary["total_s"]["b"] >= 0.01
    assert summary["calls"] == {"a": 1, "b": 1}


def test_handler_segments_exclude_suspended_time():
    async def handler():
        await asyncio.sleep(0.05)
        return "done"

    tracer = spans.TRACER
    tracer.reset()
    tracer.enabled = True
    try:
        assert asyncio.run(_await(spans._Segmented(handler(), 42))) == "done"
    finally:
        tracer.enabled = False
    summary = tracer.summary()
    start, end = tracer.requests[42]
    assert (end - start) / 1e9 >= 0.05
    assert summary["calls"][spans.HANDLE] == 2  # before and after the sleep
    assert summary["self_s"][spans.HANDLE] < 0.05
    tracer.reset()


async def _await(awaitable):
    return await awaitable


def test_percentile_is_nearest_rank():
    values = list(range(1, 101))
    assert percentile(values, 50) == 50
    assert percentile(values, 99) == 99
    assert percentile([3.0], 99) == 3.0


class _FakeDaemon:
    def __init__(self, sock):
        self.socks = [sock]

    def cpu_s(self):
        return 0.0


def _reply(rid):
    return b'{"v":1,"id":%d,"ok":true,"result":{}}\n' % rid


def test_late_replies_to_timed_out_requests_count_once(monkeypatch):
    import socket
    import threading

    import serve

    monkeypatch.setattr(serve, "RESPONSE_TIMEOUT_S", 0.1)
    client, server = socket.socketpair()
    loop = serve.OpenLoop(_FakeDaemon(client), [])
    step = inputs.Step(rate=100, windows=1, window_s=0.05, reference=False)
    slots = [inputs.Slot(due_s=0.0, step=0, op="health", size_mib=0, host=0)] * 2

    first = loop.run_step(step, slots)  # nobody answers
    assert (first.failed, first.ok) == (2, 0)
    stale = [int(line.split(b'"id":')[1].split(b",")[0])
             for line in server.recv(1 << 16).splitlines()]

    def answer():
        server.sendall(b"".join(_reply(rid) for rid in stale))  # late replies
        buf = b""
        while buf.count(b"\n") < 2:
            buf += server.recv(1 << 16)
        for line in buf.splitlines():
            server.sendall(_reply(int(line.split(b'"id":')[1].split(b",")[0])))

    thread = threading.Thread(target=answer)
    thread.start()
    second = loop.run_step(step, slots)
    thread.join()
    client.close()
    server.close()
    assert (second.failed, second.ok, second.failures) == (0, 2, [])
    assert loop.timed_out == set()
