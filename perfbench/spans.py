"""Span tracing from outside the program.

:func:`install` wraps the public entry points of each layer (hypervisor,
EPT, buddy allocator, ACT engine, attack, memctrl, trace synthesis,
admission, merge, worker pool, serve codec and request handler) with
timing shims.  Each call becomes a span ``[name, start, end, parent,
request id]`` held in memory; :meth:`Tracer.summary` turns the spans into
per-layer self time (a span's duration minus what its child spans cover),
call counts and work counts.

Two things are deliberately *not* done here:

- ``repro.obs`` is never enabled: it moves the vectorized engine onto the
  batched loop, so a traced run would time a different program;
- DRAM reads, writes and ACTs are not wrapped per call (that stretches a
  cluster campaign by a quarter).  They come from ``SimulatedDram.counters``
  deltas, which the program keeps anyway.
"""

from __future__ import annotations

import functools
import time
from collections import defaultdict
from typing import Any, Callable, Optional

now_ns = time.perf_counter_ns

#: Request-handler span name; its running segments are separate spans.
HANDLE = "serve.handle"


class Tracer:
    """In-memory span store for one process."""

    def __init__(self) -> None:
        self.enabled = False
        self.installed = False
        #: DramCounters of every module built since install, with the
        #: counter values at the last reset.
        self.drams: list[tuple[Any, tuple[int, int, int]]] = []
        self.reset()

    def reset(self) -> None:
        """Drop recorded spans and counts; re-baseline the DRAM counters."""
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.counts: dict[str, float] = defaultdict(float)
        #: request id -> [first handler start, last handler end] (ns).
        self.requests: dict[int, list[int]] = {}
        self.request_id: Optional[int] = None
        self.drams = [(c, _dram_values(c)) for c, _ in self.drams]

    def open(self, name: str) -> int:
        idx = len(self.spans)
        parent = self.stack[-1] if self.stack else -1
        self.spans.append([name, now_ns(), 0, parent, self.request_id])
        self.stack.append(idx)
        return idx

    def close(self, idx: int) -> None:
        self.spans[idx][2] = now_ns()
        self.stack.pop()

    def summary(self) -> dict:
        """Per-name self time, total time and calls, plus counts."""
        child_ns = [0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if end and parent >= 0:
                child_ns[parent] += end - start
        self_ns: dict[str, int] = defaultdict(int)
        total_ns: dict[str, int] = defaultdict(int)
        calls: dict[str, int] = defaultdict(int)
        for i, (name, start, end, _, _) in enumerate(self.spans):
            if not end:
                continue
            self_ns[name] += end - start - child_ns[i]
            total_ns[name] += end - start
            calls[name] += 1
        counts = dict(self.counts)
        acts = reads = writes = 0
        for counters, (a0, r0, w0) in self.drams:
            a, r, w = _dram_values(counters)
            acts, reads, writes = acts + a - a0, reads + r - r0, writes + w - w0
        counts["dram.acts"] = acts
        counts["dram.reads"] = reads
        counts["dram.writes"] = writes
        return {
            "self_s": {k: v / 1e9 for k, v in self_ns.items()},
            "total_s": {k: v / 1e9 for k, v in total_ns.items()},
            "calls": dict(calls),
            "counts": counts,
            "spans": len(self.spans),
        }


def _dram_values(counters) -> tuple[int, int, int]:
    return (counters.activations, counters.reads, counters.writes)


TRACER = Tracer()


def merge_summaries(parts: list[dict]) -> dict:
    """Sum per-process summaries (driver plus workers)."""
    out: dict = {"self_s": defaultdict(float), "total_s": defaultdict(float),
                 "calls": defaultdict(int), "counts": defaultdict(float),
                 "spans": 0}
    for part in parts:
        for key in ("self_s", "total_s", "calls", "counts"):
            for name, value in part[key].items():
                out[key][name] += value
        out["spans"] += part["spans"]
    return out


# ----------------------------------------------------------------------
# Wrappers
# ----------------------------------------------------------------------


def _span_wrapper(fn: Callable, name: str, before=None, after=None) -> Callable:
    """Time *fn* as span *name*.  A call nested directly in a span of the
    same name (a subclass override calling ``super()``) is not split."""
    tracer = TRACER

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if not tracer.enabled or (
            tracer.stack and tracer.spans[tracer.stack[-1]][0] == name
        ):
            return fn(*args, **kwargs)
        token = before(args, kwargs) if before is not None else None
        idx = tracer.open(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.close(idx)
        if after is not None:
            after(tracer.counts, args, kwargs, result, token)
        return result

    return wrapper


def wrap_method(cls: type, attr: str, name: str, before=None, after=None) -> None:
    """Replace ``cls.attr`` (plain, static or class method) with a span."""
    raw = cls.__dict__[attr]
    if isinstance(raw, (staticmethod, classmethod)):
        setattr(cls, attr, type(raw)(_span_wrapper(raw.__func__, name, before, after)))
    else:
        setattr(cls, attr, _span_wrapper(raw, name, before, after))


def wrap_function(modules: list, attr: str, name: str, before=None, after=None) -> None:
    """Replace a module-level function in its home module and in every
    module that imported it by name."""
    wrapped = _span_wrapper(getattr(modules[0], attr), name, before, after)
    for module in modules:
        setattr(module, attr, wrapped)


class _Segmented:
    """Awaitable that times each running step of a coroutine as its own
    span, so time spent suspended (other requests running) is not
    counted as the handler's own."""

    __slots__ = ("coro", "rid")

    def __init__(self, coro, rid: int):
        self.coro = coro
        self.rid = rid

    def __await__(self):
        tracer = TRACER
        coro, rid = self.coro, self.rid
        value: Any = None
        error: Optional[BaseException] = None
        while True:
            outer, tracer.request_id = tracer.request_id, rid
            idx = tracer.open(HANDLE)
            try:
                step = coro.throw(error) if error is not None else coro.send(value)
            except StopIteration as stop:
                self._finish(tracer, idx, outer)
                return stop.value
            except BaseException:
                self._finish(tracer, idx, outer)
                raise
            self._finish(tracer, idx, outer)
            try:
                value, error = (yield step), None
            except BaseException as exc:  # delivered into the coroutine
                value, error = None, exc

    def _finish(self, tracer: Tracer, idx: int, outer) -> None:
        tracer.close(idx)
        tracer.request_id = outer
        span = tracer.spans[idx]
        interval = tracer.requests.get(self.rid)
        if interval is None:
            tracer.requests[self.rid] = [span[1], span[2]]
        else:
            interval[1] = span[2]


# ----------------------------------------------------------------------
# Count hooks
# ----------------------------------------------------------------------


def _count_table_pages_before(args, kwargs):
    return len(args[0].table_pages)


def _count_table_pages(counts, args, kwargs, result, before):
    counts["ept.table_pages"] += len(args[0].table_pages) - before


def _count_acts(counts, args, kwargs, result, token):
    counts["engine.acts"] += token


def _rows_len(args, kwargs):
    rows = kwargs.get("rows", args[3] if len(args) > 3 else ())
    return len(rows)


def _count_attack(counts, args, kwargs, outcome, token):
    counts["attack.patterns"] += outcome.report.patterns_tried
    counts["attack.flips_inside"] += len(outcome.flips_inside)
    counts["attack.escaped"] += len(outcome.flips_escaped)


def _count_pipeline(counts, args, kwargs, result, token):
    counts["memctrl.accesses"] += result.accesses
    counts["memctrl.row_hits"] += result.row_hits


def _count_drain(counts, args, kwargs, decisions, token):
    counts["fleet.admission.decisions"] += len(decisions)
    counts["fleet.admission.admitted"] += sum(1 for d in decisions if d.admitted)
    counts["fleet.admission.retries"] += sum(d.attempts - 1 for d in decisions)


def _count_submit(counts, args, kwargs, accepted, token):
    if not accepted:  # a QUEUE_FULL decision was made at the door
        counts["fleet.admission.decisions"] += 1


def _count_recorded(counts, args, kwargs, decision, token):
    counts["fleet.admission.decisions"] += 1
    counts["fleet.admission.admitted"] += 1 if decision.admitted else 0


def _count_pool(counts, args, kwargs, result, token):
    report = result[1]
    counts["chaos.pool.retries"] += report.retried
    counts["chaos.pool.gave_up"] += sum(1 for o in report.outcomes if o.gave_up)


def _track_dram(counts, args, kwargs, result, token):
    dram = args[0]
    TRACER.drams.append((dram.counters, (0, 0, 0)))


def _all_subclasses(cls: type) -> list[type]:
    out = [cls]
    for sub in cls.__subclasses__():
        out.extend(_all_subclasses(sub))
    return out


def install() -> Tracer:
    """Wrap every layer's public entry points; idempotent per process."""
    if TRACER.installed:
        TRACER.enabled = True
        return TRACER
    import repro.attack
    import repro.attack.runner
    import repro.mitigations  # noqa: F401 — registers Hypervisor subclasses
    import repro.serve.server
    import repro.workloads.runner
    import repro.workloads.trace
    from repro.chaos.pool import PersistentWorkerPool
    from repro.core.siloz import SilozHypervisor  # noqa: F401
    from repro.dram.module import SimulatedDram
    from repro.ept.table import ExtendedPageTable
    from repro.fleet.admission import AdmissionController
    from repro.fleet.host import Host
    from repro.fleet.report import StreamingMerge
    from repro.hv.hypervisor import Hypervisor
    from repro.memctrl.controller import MemoryController
    from repro.mm.buddy import BuddyAllocator
    from repro.serve import protocol
    from repro.serve.core import ServeCore

    for cls in _all_subclasses(Hypervisor):
        for attr, name in (
            ("create_vm", "hv.create_vm"),
            ("destroy_vm", "hv.destroy_vm"),
            ("capacity", "hv.capacity"),
        ):
            if attr in cls.__dict__:
                wrap_method(cls, attr, name)
    wrap_method(ExtendedPageTable, "map", "ept.map",
                _count_table_pages_before, _count_table_pages)
    wrap_method(BuddyAllocator, "alloc", "mm.buddy")
    wrap_method(BuddyAllocator, "free", "mm.buddy")
    wrap_method(SimulatedDram, "__init__", "dram.init", after=_track_dram)
    wrap_method(SimulatedDram, "activate_batch", "engine.activate_batch",
                _rows_len, _count_acts)
    wrap_function([repro.attack.runner, repro.attack], "attack_from_vm",
                  "attack", after=_count_attack)
    wrap_method(MemoryController, "run_batch", "memctrl.pipeline",
                after=_count_pipeline)
    wrap_function([repro.workloads.trace, repro.workloads.runner],
                  "generate_trace_batch", "workloads.trace")
    wrap_method(AdmissionController, "submit", "fleet.admission",
                after=_count_submit)
    wrap_method(AdmissionController, "drain", "fleet.admission",
                after=_count_drain)
    wrap_method(AdmissionController, "record_decision", "fleet.admission",
                after=_count_recorded)
    wrap_method(StreamingMerge, "add_decision", "fleet.merge")
    wrap_method(StreamingMerge, "add_host_result", "fleet.merge")
    wrap_method(Host, "boot", "fleet.host_boot")
    wrap_method(PersistentWorkerPool, "run", "chaos.pool", after=_count_pool)
    wrap_function([protocol, repro.serve.server], "decode_request", "serve.codec")
    wrap_function([protocol, repro.serve.server], "encode_response", "serve.codec")

    handle = ServeCore.handle

    def traced_handle(self, request):
        if not TRACER.enabled:
            return handle(self, request)
        return _Segmented(handle(self, request), request.id)

    ServeCore.handle = traced_handle
    TRACER.installed = True
    TRACER.enabled = True
    return TRACER
