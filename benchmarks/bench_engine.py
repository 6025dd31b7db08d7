"""Engine trajectory point: the vectorized backend vs the scalar reference.

Times the benchmark workloads the fast paths were built for:

- a Table 3-style containment campaign (attack stack dominated by row
  activations — exercises the numpy kernels in ``repro.engine.vector``
  and their ``repro.engine.batch`` fallback loop), vectorized backend vs
  the scalar golden reference;
- a Figure 5-style throughput sweep on the scalar controller (traces
  dominated by physical→media decode — exercises the memoized flat
  decode in ``repro.dram.mapping``), flat decode vs the MediaAddress
  reference;
- the same Figure 5 campaign *end-to-end* on the vectorized pipeline
  (numpy trace synthesis in ``repro.workloads.trace`` feeding the
  segmented closed forms in ``repro.memctrl.pipeline``) vs the scalar
  reference path;
- EPT construction: VMs booted with ``Hypervisor.create_vm``, whose
  entry reads/writes and table-page zeroing issue one plain ACT per
  cache line (recorded as build ACTs/s; not yet a gated trajectory
  metric).

Both comparisons first assert the outputs are *identical* — a speedup
that changes results is a bug, not a win — then record wall times and
speedups to ``BENCH_engine.json`` at the repo root.  CI runs this file
as the perf regression guard: the campaign must hold its ≥9× target,
the end-to-end Figure 5 pipeline its ≥20× target, and the decode path
must never be slower than the reference.
"""

from __future__ import annotations

import os
import pathlib
import statistics
import time

from conftest import banner, record

from repro.attack import attack_from_vm
from repro.core import SilozHypervisor
from repro.hv import Machine, VmSpec
from repro.units import MiB

REPO_ROOT = pathlib.Path(__file__).resolve().parents[1]
BENCH_JSON = REPO_ROOT / "BENCH_engine.json"

#: Minimum acceptable speedups (CI fails below these).
VECTOR_SCALAR_TARGET = 9.0  # vectorized over scalar (attack hot path)
DECODE_TARGET = 1.0  # regression guard: never slower than reference
FIG5_E2E_TARGET = 20.0  # vectorized workload→memctrl pipeline over scalar

_RESULTS: dict = {
    "bench": "engine",
    "note": "vectorized SimBackend vs scalar golden reference; "
    "see README Performance",
}


def _time_best(fn, repeats: int = 3, warmup: int = 0):
    """(best wall seconds, last result) over *repeats* timed runs.

    *warmup* extra untimed runs precede the timed ones: the first run
    of a backend pays one-off costs (numpy import, lazy decode tables,
    allocator growth) that best-of-N would otherwise fold into the
    measurement on short campaigns.
    """
    best = float("inf")
    result = None
    for _ in range(warmup):
        fn()
    for _ in range(repeats):
        t0 = time.perf_counter()
        result = fn()
        best = min(best, time.perf_counter() - t0)
    return best, result


def _campaign(backend: str, *, seed: int = 300, budget: int = 25):
    """One Table 3-style containment campaign on the small machine."""
    hv = SilozHypervisor.boot(Machine.small(seed=seed, backend=backend))
    attacker = hv.create_vm(VmSpec(name="attacker", memory_bytes=2 * MiB))
    hv.create_vm(VmSpec(name="victim", memory_bytes=2 * MiB))
    outcome = attack_from_vm(hv, attacker, seed=seed, pattern_budget=budget)
    return outcome.summary(), list(hv.machine.dram.flips_log)


def test_engine_campaign_speedup(benchmark):
    """bench_table3-style campaign, scalar vs vectorized.

    Gate: vectorized ≥9× over scalar with identical campaign outcomes
    and flip logs, or the speedup is void."""

    def _measure():
        scalar_s, scalar_out = _time_best(lambda: _campaign("scalar"), warmup=1)
        vector_s, vector_out = _time_best(
            lambda: _campaign("vectorized"), repeats=5, warmup=1
        )
        return scalar_s, scalar_out, vector_s, vector_out

    scalar_s, scalar_out, vector_s, vector_out = benchmark.pedantic(
        _measure, rounds=1, iterations=1
    )
    assert scalar_out == vector_out, "vectorized diverged: speedup is void"
    speedup = scalar_s / vector_s
    print(banner("Engine: Table 3-style campaign, scalar vs vectorized"))
    print(
        f"scalar {scalar_s * 1e3:8.1f} ms   vectorized {vector_s * 1e3:8.1f} ms"
        f"   vectorized/scalar {speedup:.2f}x (target >= {VECTOR_SCALAR_TARGET}x)"
    )
    record(
        BENCH_JSON,
        _RESULTS,
        "table3_containment",
        {
            "scalar_seconds": round(scalar_s, 6),
            "vectorized_seconds": round(vector_s, 6),
            "vectorized_scalar_speedup": round(speedup, 3),
            "vectorized_scalar_target": VECTOR_SCALAR_TARGET,
            "identical_results": True,
        },
    )
    assert speedup >= VECTOR_SCALAR_TARGET, (
        f"vectorized engine only {speedup:.2f}x over scalar "
        f"(target {VECTOR_SCALAR_TARGET}x); see BENCH_engine.json"
    )


def test_engine_tracing_overhead(benchmark):
    """Observability must be free when off and harmless when on.

    - tracing enabled must not change campaign results (events are
      derived from the simulation, never fed back into it — in
      particular, no RNG draws);
    - with tracing *disabled*, the instrumented hot path must stay
      within 2 % of the same campaign measured earlier in this session
      (the ``ENABLED``-branch-only contract of ``repro.obs``).
    """
    from repro import obs

    TOLERANCE_PCT = 2.0

    def _measure():
        obs.disable(reset=True)
        off_s, off_out = _time_best(
            lambda: _campaign("vectorized"), repeats=5, warmup=1
        )
        obs.enable(reset=True)
        on_s, on_out = _time_best(lambda: _campaign("vectorized"), repeats=5)
        emitted = obs.tracer().emitted
        obs.disable(reset=True)
        return off_s, off_out, on_s, on_out, emitted

    off_s, off_out, on_s, on_out, emitted = benchmark.pedantic(
        _measure, rounds=1, iterations=1
    )
    assert off_out == on_out, "tracing perturbed simulation results"
    assert emitted > 0, "enabled tracing recorded no events"
    # Baseline: the vectorized campaign time already measured in this
    # pytest run (same code, same machine); fall back to the disabled
    # run itself when this test runs alone.
    base_s = _RESULTS.get("table3_containment", {}).get("vectorized_seconds", off_s)
    disabled_overhead_pct = (off_s / base_s - 1.0) * 100.0
    enabled_overhead_pct = (on_s / off_s - 1.0) * 100.0
    print(banner("Engine: campaign with observability off/on"))
    print(
        f"disabled {off_s * 1e3:8.1f} ms ({disabled_overhead_pct:+.2f}% vs "
        f"baseline)   enabled {on_s * 1e3:8.1f} ms "
        f"({enabled_overhead_pct:+.2f}%)   {emitted} event(s)/run"
    )
    record(
        BENCH_JSON,
        _RESULTS,
        "tracing",
        {
            "disabled_seconds": round(off_s, 6),
            "enabled_seconds": round(on_s, 6),
            "disabled_overhead_pct": round(disabled_overhead_pct, 3),
            "enabled_overhead_pct": round(enabled_overhead_pct, 3),
            "events_per_run": emitted,
            "tolerance_pct": TOLERANCE_PCT,
            "identical_results": True,
        },
    )
    assert disabled_overhead_pct < TOLERANCE_PCT, (
        f"disabled tracing costs {disabled_overhead_pct:+.2f}% on the "
        f"campaign hot path (tolerance {TOLERANCE_PCT}%); see BENCH_engine.json"
    )


def test_engine_decode_speedup(benchmark):
    """bench_fig5-style trace sweep on the scalar controller: flat
    decode vs the MediaAddress path."""
    from repro.eval.experiments import siloz_system
    from repro.memctrl.controller import MemoryController
    from repro.workloads import THROUGHPUT_SUITES
    from repro.workloads.runner import run_in_vm

    def _reference_controller(mapping, timings=None):
        controller = MemoryController(mapping, timings)
        controller._decode_flat = None  # pre-engine MediaAddress decode
        return controller

    system = siloz_system(seed=50, backend="scalar")
    workloads = list(THROUGHPUT_SUITES)

    def _sweep(factory):
        return [
            vars(
                run_in_vm(
                    system.hv,
                    system.vm,
                    workload,
                    accesses=12_000,
                    trial=trial,
                    controller_factory=factory,
                ).trace
            )
            for workload in workloads
            for trial in range(2)
        ]

    def _measure():
        ref_s, ref = _time_best(lambda: _sweep(_reference_controller))
        fast_s, fast = _time_best(lambda: _sweep(MemoryController))
        return ref_s, ref, fast_s, fast

    ref_s, ref, fast_s, fast = benchmark.pedantic(_measure, rounds=1, iterations=1)
    assert fast == ref, "flat decode changed trace results"
    speedup = ref_s / fast_s
    print(banner("Engine: Figure 5-style traces, reference vs flat decode"))
    print(
        f"reference {ref_s * 1e3:8.1f} ms   flat {fast_s * 1e3:8.1f} ms"
        f"   speedup {speedup:.2f}x (guard >= {DECODE_TARGET}x)"
    )
    record(
        BENCH_JSON,
        _RESULTS,
        "fig5_throughput",
        {
            "reference_seconds": round(ref_s, 6),
            "flat_decode_seconds": round(fast_s, 6),
            "speedup": round(speedup, 3),
            "target": DECODE_TARGET,
            "identical_results": True,
        },
    )
    assert speedup >= DECODE_TARGET, (
        f"flat decode slower than reference ({speedup:.2f}x); "
        "see BENCH_engine.json"
    )


def test_engine_fig5_e2e_speedup(benchmark):
    """End-to-end Figure 5 campaign: scalar vs vectorized pipeline.

    Unlike the decode micro-comparison above, this times the *whole*
    workload→memctrl path per backend — trace synthesis
    (``generate_trace`` vs the one-transplant numpy batch), decode, and
    controller scheduling (scalar fold vs segmented closed forms) — over
    the full Figure 5 workload sweep on both systems.  Gate: vectorized
    ≥20× over scalar with bit-identical TraceResults, or the speedup is
    void."""
    from repro.eval.experiments import baseline_system, siloz_system
    from repro.workloads import THROUGHPUT_SUITES
    from repro.workloads.runner import run_in_vm

    workloads = list(THROUGHPUT_SUITES)

    def _systems(backend: str):
        return [
            baseline_system(seed=51, backend=backend),
            siloz_system(seed=51, backend=backend),
        ]

    def _sweep(systems):
        return [
            vars(
                run_in_vm(
                    system.hv, system.vm, workload, accesses=12_000, trial=trial
                ).trace
            )
            for system in systems
            for workload in workloads
            for trial in range(2)
        ]

    def _measure():
        scalar_systems = _systems("scalar")
        vector_systems = _systems("vectorized")
        scalar_s, scalar_out = _time_best(
            lambda: _sweep(scalar_systems), repeats=2, warmup=1
        )
        vector_s, vector_out = _time_best(
            lambda: _sweep(vector_systems), repeats=5, warmup=1
        )
        return scalar_s, scalar_out, vector_s, vector_out

    scalar_s, scalar_out, vector_s, vector_out = benchmark.pedantic(
        _measure, rounds=1, iterations=1
    )
    assert scalar_out == vector_out, "vectorized pipeline diverged: speedup is void"
    speedup = scalar_s / vector_s
    print(banner("Engine: Figure 5 campaign end-to-end, scalar vs vectorized"))
    print(
        f"scalar {scalar_s * 1e3:8.1f} ms   vectorized {vector_s * 1e3:8.1f} ms"
        f"   speedup {speedup:.2f}x (target >= {FIG5_E2E_TARGET}x)"
    )
    record(
        BENCH_JSON,
        _RESULTS,
        "fig5_e2e",
        {
            "scalar_seconds": round(scalar_s, 6),
            "vectorized_seconds": round(vector_s, 6),
            "speedup": round(speedup, 3),
            "target": FIG5_E2E_TARGET,
            "identical_results": True,
        },
    )
    assert speedup >= FIG5_E2E_TARGET, (
        f"end-to-end fig5 pipeline only {speedup:.2f}x over scalar "
        f"(target {FIG5_E2E_TARGET}x); see BENCH_engine.json"
    )


#: The ept_build leg's fixed VM set: every guest-reserved group of a
#: two-socket small machine, one 2 MiB VM each.
EPT_BUILD_VMS = 14
EPT_BUILD_REPEATS = 9


def _ept_build(backend: str):
    """Boot a fresh small machine, then build :data:`EPT_BUILD_VMS` VMs.
    Returns (build wall seconds, build ACTs, the DRAM state left)."""
    hv = SilozHypervisor.boot(Machine.small(sockets=2, seed=11, backend=backend))
    dram = hv.machine.dram
    acts = dram.counters.activations
    t0 = time.perf_counter()
    for i in range(EPT_BUILD_VMS):
        hv.create_vm(VmSpec(name=f"vm{i}", memory_bytes=2 * MiB))
    elapsed = time.perf_counter() - t0
    state = {
        "data": {k: bytes(v) for k, v in dram._data.items()},
        "flips": {k: sorted(v) for k, v in dram._flips.items()},
        "flips_log": list(dram.flips_log),
        "ecc": list(dram.ecc.stats.events),
        "counters": vars(dram.counters).copy(),
        "clock": dram.clock,
    }
    return elapsed, dram.counters.activations - acts, state


def test_engine_ept_build(benchmark):
    """EPT construction on the vectorized backend: identical DRAM state
    to the scalar reference, then the median build ACTs/s over
    :data:`EPT_BUILD_REPEATS` fresh builds (one untimed warm-up)."""

    def _measure():
        _, scalar_acts, scalar_state = _ept_build("scalar")
        _ept_build("vectorized")
        runs = [_ept_build("vectorized") for _ in range(EPT_BUILD_REPEATS)]
        return scalar_acts, scalar_state, runs

    scalar_acts, scalar_state, runs = benchmark.pedantic(
        _measure, rounds=1, iterations=1
    )
    for _, acts, state in runs:
        assert (acts, state) == (scalar_acts, scalar_state), (
            "vectorized EPT build diverged from scalar: the figure is void"
        )
    times = sorted(elapsed for elapsed, _, _ in runs)
    median = statistics.median(times)
    acts_per_s = scalar_acts / median
    print(banner("Engine: EPT construction (create_vm), vectorized"))
    print(
        f"{EPT_BUILD_VMS} VMs, {scalar_acts} ACTs per build: median "
        f"{median * 1e3:7.2f} ms (min {times[0] * 1e3:.2f}, max "
        f"{times[-1] * 1e3:.2f})   {acts_per_s:,.0f} build ACTs/s"
    )
    record(
        BENCH_JSON,
        _RESULTS,
        "ept_build",
        {
            "vms": EPT_BUILD_VMS,
            "acts_per_build": scalar_acts,
            "repeats": EPT_BUILD_REPEATS,
            "median_seconds": round(median, 6),
            "min_seconds": round(times[0], 6),
            "max_seconds": round(times[-1], 6),
            "spread": round((times[-1] - times[0]) / median, 3),
            "acts_per_s": round(acts_per_s, 1),
            "cpu_count": os.cpu_count() or 1,
            "identical_results": True,
        },
    )
