"""Metric names and units, and the per-layer figures derived from spans.

The names and units are those of ``BENCHMARK.json``; ``layers.json`` maps
each per-layer metric to the end-to-end metric and workload it should
move.
"""

from __future__ import annotations

import json

from common import ROOT, percentile

_BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
#: name -> unit
END_TO_END = {m["name"]: m["unit"] for m in _BENCHMARK["end_to_end"]}
PER_LAYER = {m["name"]: m["unit"] for m in _BENCHMARK["per_layer"]}

#: Spans whose self time is reported as ``<span>.self_s``.
_SELF_TIME = (
    "serve.codec", "serve.handle", "fleet.admission", "fleet.merge",
    "fleet.host_boot", "hv.create_vm", "hv.destroy_vm", "hv.capacity",
    "ept.map", "mm.buddy", "engine.activate_batch", "attack",
    "memctrl.pipeline", "workloads.trace",
)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(summary: dict, extra: dict, workers: int = 0) -> dict:
    """Every per-layer metric from a merged span summary; *extra* supplies
    the ones measured outside the spans (load generator, pool, trace
    overhead).  Layers a workload does not reach report 0."""
    self_s, total_s = summary["self_s"], summary["total_s"]
    calls, counts = summary["calls"], summary["counts"]
    out = {name: 0.0 for name in PER_LAYER}
    for span in _SELF_TIME:
        out[f"{span}.self_s"] = self_s.get(span, 0.0)
    for span in ("serve.codec", "hv.create_vm", "hv.capacity", "ept.map", "mm.buddy"):
        out[f"{span}.calls"] = calls.get(span, 0)
    decisions = counts.get("fleet.admission.decisions", 0)
    out["fleet.admission.decisions"] = decisions
    out["fleet.admission.accept_ratio"] = _ratio(
        counts.get("fleet.admission.admitted", 0), decisions)
    out["fleet.admission.retries"] = counts.get("fleet.admission.retries", 0)
    # The driver's time inside pool.run() not spent folding results.
    out["chaos.pool.wait_s"] = self_s.get("chaos.pool", 0.0)
    busy = total_s.get("chaos.task", 0.0)
    out["chaos.pool.worker_busy_s"] = busy
    out["chaos.pool.utilization"] = _ratio(busy, workers * total_s.get("chaos.pool", 0.0))
    out["chaos.pool.retries"] = counts.get("chaos.pool.retries", 0)
    out["chaos.pool.gave_up"] = counts.get("chaos.pool.gave_up", 0)
    for name in ("ept.table_pages", "dram.acts", "dram.reads", "dram.writes",
                 "attack.patterns", "attack.flips_inside", "attack.escaped",
                 "memctrl.accesses"):
        out[name] = counts.get(name, 0)
    out["engine.acts_per_s"] = _ratio(
        counts.get("engine.acts", 0), total_s.get("engine.activate_batch", 0.0))
    out["memctrl.row_hit_ratio"] = _ratio(
        counts.get("memctrl.row_hits", 0), counts.get("memctrl.accesses", 0))
    for name, value in extra.items():
        if name not in out:
            raise KeyError(f"unknown per-layer metric {name}")
        out[name] = value
    return out


def wait_ms(latency_by_id: dict, handler_intervals: dict) -> tuple[float, float]:
    """p50/p99 of client latency minus the daemon's handler span."""
    waits = []
    for rid, latency in latency_by_id.items():
        interval = handler_intervals.get(str(rid))
        if interval is not None:
            waits.append(latency - (interval[1] - interval[0]) / 1e6)
    if not waits:
        return 0.0, 0.0
    return percentile(waits, 50), percentile(waits, 99)
