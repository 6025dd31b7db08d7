"""Unit tests for workload traces, suites, and the perf runner."""

import pytest

from repro.errors import ReproError, WorkloadError
from repro.eval import (
    baseline_system,
    perf_experiment,
    render_figure,
    render_table,
    siloz_system,
)
from repro.eval.stats import (
    confidence_interval_95,
    geometric_mean,
    mean,
    normalized_overhead_percent,
    stdev,
)
from repro.hv import BaselineHypervisor, Machine, VmSpec
from repro.memctrl.controller import AccessKind
from repro.units import KiB, MiB
from repro.workloads import (
    EXEC_TIME_SUITES,
    THROUGHPUT_SUITES,
    GpaTranslator,
    TraceSpec,
    generate_trace,
    run_in_vm,
    suite,
    suite_names,
)


@pytest.fixture(scope="module")
def vm_env():
    hv = BaselineHypervisor(Machine.small(), backing_page_bytes=64 * KiB)
    vm = hv.create_vm(VmSpec(name="w", memory_bytes=2 * MiB))
    return hv, vm


class TestTraceSpec:
    def test_validation(self):
        with pytest.raises(WorkloadError):
            TraceSpec(name="x", footprint_bytes=1)
        with pytest.raises(WorkloadError):
            TraceSpec(name="x", footprint_bytes=1024, read_ratio=1.5)
        with pytest.raises(WorkloadError):
            TraceSpec(name="x", footprint_bytes=1024, cpu_gap_ns=-1)


class TestSuites:
    def test_all_figure_suites_defined(self):
        for name in EXEC_TIME_SUITES + THROUGHPUT_SUITES:
            assert suite(name).name == name

    def test_exec_suites_match_fig4(self):
        assert EXEC_TIME_SUITES[:6] == (
            "redis-a",
            "redis-b",
            "redis-c",
            "redis-d",
            "redis-e",
            "redis-f",
        )
        assert "spec17" in EXEC_TIME_SUITES and "parsec" in EXEC_TIME_SUITES

    def test_throughput_suites_match_fig5(self):
        assert set(THROUGHPUT_SUITES) == {
            "memcached",
            "mysql",
            "mlc-reads",
            "mlc-3:1",
            "mlc-2:1",
            "mlc-1:1",
            "mlc-stream",
        }

    def test_unknown_suite_rejected(self):
        with pytest.raises(WorkloadError):
            suite("quake3")

    def test_footprint_override(self):
        assert suite("redis-a", footprint_bytes=1 * MiB).footprint_bytes == 1 * MiB

    def test_ycsb_characters(self):
        assert suite("redis-c").read_ratio == 1.0  # read-only
        assert suite("redis-a").read_ratio == 0.5  # update-heavy
        assert suite("redis-e").locality > suite("redis-a").locality  # scans

    def test_mlc_ratios(self):
        assert suite("mlc-reads").read_ratio == 1.0
        assert suite("mlc-1:1").read_ratio == 0.5

    def test_suite_names_nonempty(self):
        assert len(suite_names()) >= 16


class TestGpaTranslator:
    def test_matches_ept_walk(self, vm_env):
        """The fast path must agree with the honest EPT walk."""
        _, vm = vm_env
        translator = GpaTranslator(vm)
        for gpa in range(0, translator.limit, 97 * KiB):
            assert translator.translate(gpa) == vm.ept.translate(gpa)

    def test_bounds(self, vm_env):
        _, vm = vm_env
        translator = GpaTranslator(vm)
        with pytest.raises(WorkloadError):
            translator.translate(translator.limit)
        with pytest.raises(WorkloadError):
            translator.translate(-1)

    def test_fingerprint_depends_on_layout(self, vm_env):
        hv, vm = vm_env
        vm2 = hv.create_vm(VmSpec(name="w2", memory_bytes=2 * MiB))
        assert GpaTranslator(vm).fingerprint != GpaTranslator(vm2).fingerprint


class TestGenerateTrace:
    def _trace(self, vm_env, spec, n=2000, seed=0):
        _, vm = vm_env
        return list(
            generate_trace(spec, GpaTranslator(vm), accesses=n, seed=seed)
        )

    def test_deterministic_per_seed(self, vm_env):
        spec = suite("redis-a", footprint_bytes=1 * MiB)
        a = self._trace(vm_env, spec, seed=3)
        b = self._trace(vm_env, spec, seed=3)
        assert [x.hpa for x in a] == [x.hpa for x in b]

    def test_seeds_differ(self, vm_env):
        spec = suite("redis-a", footprint_bytes=1 * MiB)
        a = self._trace(vm_env, spec, seed=1)
        b = self._trace(vm_env, spec, seed=2)
        assert [x.hpa for x in a] != [x.hpa for x in b]

    def test_read_ratio_respected(self, vm_env):
        spec = suite("mlc-1:1", footprint_bytes=1 * MiB)
        trace = self._trace(vm_env, spec, n=4000)
        reads = sum(1 for a in trace if a.kind is AccessKind.READ)
        assert 0.45 < reads / len(trace) < 0.55

    def test_read_only_suite(self, vm_env):
        spec = suite("redis-c", footprint_bytes=1 * MiB)
        trace = self._trace(vm_env, spec)
        assert all(a.kind is AccessKind.READ for a in trace)

    def test_streaming_suite_is_sequential(self, vm_env):
        spec = suite("mlc-reads", footprint_bytes=1 * MiB)
        trace = self._trace(vm_env, spec)
        seq = sum(
            1
            for prev, cur in zip(trace, trace[1:])
            if 0 <= cur.hpa - prev.hpa <= 4096
        )
        assert seq / len(trace) > 0.8

    def test_addresses_within_vm(self, vm_env):
        _, vm = vm_env
        spec = suite("mysql", footprint_bytes=1 * MiB)
        for access in self._trace(vm_env, spec):
            assert vm.owns_hpa(access.hpa)

    def test_rejects_zero_accesses(self, vm_env):
        _, vm = vm_env
        with pytest.raises(WorkloadError):
            list(
                generate_trace(
                    suite("mysql", footprint_bytes=1 * MiB),
                    GpaTranslator(vm),
                    accesses=0,
                )
            )


class TestStats:
    def test_mean_and_stdev(self):
        assert mean([1.0, 2.0, 3.0]) == 2.0
        assert stdev([1.0, 2.0, 3.0]) == pytest.approx(1.0)
        assert stdev([5.0]) == 0.0

    def test_geometric_mean(self):
        assert geometric_mean([1.0, 4.0]) == pytest.approx(2.0)
        with pytest.raises(ReproError):
            geometric_mean([1.0, 0.0])

    def test_confidence_interval(self):
        m, ci = confidence_interval_95([10.0, 12.0, 11.0, 13.0, 9.0])
        assert m == pytest.approx(11.0)
        assert ci > 0

    def test_single_value_ci(self):
        assert confidence_interval_95([5.0]) == (5.0, 0.0)

    def test_empty_rejected(self):
        with pytest.raises(ReproError):
            mean([])

    def test_normalized_overhead(self):
        assert normalized_overhead_percent(1.05, 1.0) == pytest.approx(5.0)
        assert normalized_overhead_percent(0.95, 1.0) == pytest.approx(-5.0)
        with pytest.raises(ReproError):
            normalized_overhead_percent(1.0, 0.0)


class TestRunInVm:
    def test_basic_run(self, vm_env):
        hv, vm = vm_env
        result = run_in_vm(hv, vm, "redis-a", accesses=2000)
        assert result.execution_seconds > 0
        assert result.bandwidth_gib_s > 0
        assert result.workload == "redis-a"

    def test_trials_vary(self, vm_env):
        hv, vm = vm_env
        a = run_in_vm(hv, vm, "redis-a", accesses=2000, trial=0)
        b = run_in_vm(hv, vm, "redis-a", accesses=2000, trial=1)
        assert a.execution_seconds != b.execution_seconds

    def test_memory_bound_slower_than_compute_bound(self, vm_env):
        hv, vm = vm_env
        fast = run_in_vm(hv, vm, "mlc-reads", accesses=4000)
        slow = run_in_vm(hv, vm, "spec17", accesses=4000)
        # spec17 has large CPU gaps: longer wall clock, lower bandwidth.
        assert slow.execution_seconds > fast.execution_seconds
        assert slow.bandwidth_gib_s < fast.bandwidth_gib_s


class TestPerfExperimentIntegration:
    @pytest.fixture(scope="class")
    def comparison(self):
        systems = [baseline_system(seed=2), siloz_system(seed=2)]
        return perf_experiment(
            systems, ["redis-b", "mlc-stream"], trials=3, accesses=4000
        )

    def test_shape(self, comparison):
        assert comparison.workloads() == ["redis-b", "mlc-stream"]
        assert set(comparison.systems()) == {"baseline", "siloz"}
        assert len(comparison.trials("redis-b", "siloz")) == 3

    def test_siloz_overhead_small(self, comparison):
        """The headline claim at test scale: overhead within noise."""
        for workload in comparison.workloads():
            mean_pct, _ = comparison.overhead_percent(workload, "siloz")
            assert abs(mean_pct) < 5.0
        assert abs(comparison.geomean_ratio("siloz") - 1.0) < 0.03

    def test_render_figure(self, comparison):
        text = render_figure(comparison, title="Fig test")
        assert "Fig test" in text
        assert "geomean" in text
        assert "redis-b" in text

    def test_render_table(self):
        out = render_table(["a", "b"], [[1, 2], [30, 40]], title="T")
        assert "T" in out and "30" in out

    def test_unknown_cell_rejected(self, comparison):
        with pytest.raises(ReproError):
            comparison.trials("nope", "siloz")

    @pytest.mark.parametrize("metric", ["time", "bandwidth"])
    def test_shared_patterns_equal_one_run_per_system_and_trial(
        self, metric, monkeypatch
    ):
        # perf_experiment draws each trial's access pattern once and
        # shares it across systems; every value must still be exactly
        # that of an independent run_in_vm call.
        import repro.workloads.trace as trace

        systems = [
            baseline_system(seed=3, backend="vectorized"),
            siloz_system(seed=3, backend="vectorized"),
            siloz_system(name="siloz-64", rows_per_subarray=64, seed=3, backend="vectorized"),
        ]
        workloads = ["redis-b", "mlc-stream"]
        draws = []
        draw = trace._draw_pattern
        monkeypatch.setattr(
            trace, "_draw_pattern", lambda *a, **k: draws.append(a) or draw(*a, **k)
        )
        got = perf_experiment(systems, workloads, metric=metric, trials=2, accesses=3000)
        assert len(draws) == len(workloads) * 2  # once per (workload, trial)
        for workload in workloads:
            for system in systems:
                runs = [
                    run_in_vm(system.hv, system.vm, workload, accesses=3000, trial=t)
                    for t in range(2)
                ]
                expect = [
                    r.execution_seconds if metric == "time" else r.bandwidth_gib_s
                    for r in runs
                ]
                assert got.trials(workload, system.name) == expect, (workload, system.name)
