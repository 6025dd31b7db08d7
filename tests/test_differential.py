"""Differential harness: the fast engine vs the scalar golden reference.

The ``SimBackend.VECTORIZED`` fast path (:mod:`repro.engine`) is only
admissible because it is *observationally identical* to the scalar
path: same flip sets, same TRR decisions, same ECC events, same
health-monitor escalations, same clocks and counters.  DRAM-level tests
run every leg of :data:`conftest.ENGINE_LEGS`, so the per-ACT fallback
loop the vectorized engine keeps for hooks, tracing and short batches
is pinned to scalar on its own.  These tests enforce that contract on
three levels:

1. seeded mixed programs (hammer shapes + fault plans + scrubs + guest
   I/O) through :func:`conftest.replay_program`, compared pairwise
   across all engine legs — a handful of seeds in tier1, ~50 seeds
   in the tier2 fuzz job (every failure names the seed to replay);
2. the end-to-end CE-storm scenario, whose transcript/replay key must
   be backend-independent;
3. the attack stack (fuzzer campaigns) and the memory controllers,
   whose flat-decode fast path must match the MediaAddress reference.
"""

from __future__ import annotations

import pytest

from conftest import ENGINE_LEGS, diff_transcripts, on_each_leg, replay_program

from repro.units import MiB


#: Memory-controller backends (the DRAM fallback leg does not apply).
BACKENDS = ("scalar", "vectorized")


def _assert_equivalent(seed: int) -> None:
    transcripts = {leg: replay_program(leg, seed) for leg in ENGINE_LEGS}
    problems = []
    for i, a in enumerate(ENGINE_LEGS):
        for b in ENGINE_LEGS[i + 1 :]:
            problems += diff_transcripts(
                seed, transcripts[a], transcripts[b], labels=(a, b)
            )
    assert not problems, (
        f"engine legs diverged; replay with replay_program(<leg>, {seed}):\n"
        + "\n".join(problems)
    )


class TestMixedPrograms:
    @pytest.mark.parametrize("seed", range(8))
    def test_equivalent_small_seeds(self, seed):
        _assert_equivalent(seed)

    def test_flips_actually_happen(self):
        # Guard against vacuous equivalence: at least one of the tier1
        # seeds must produce disturbance flips on both backends.
        assert any(
            replay_program("scalar", seed)["flips"] for seed in range(8)
        ), "differential seeds never flip a bit; raise pressure"


@pytest.mark.tier2
class TestDifferentialFuzz:
    """Satellite: ~50-seed fuzz sweep (separate CI job)."""

    @pytest.mark.parametrize("seed", range(100, 150))
    def test_equivalent_fuzz_seed(self, seed):
        _assert_equivalent(seed)


class TestScenarioTranscripts:
    @pytest.mark.parametrize("seed", (0, 3))
    def test_ce_storm_replay_key_backend_independent(self, seed):
        from repro.faults.scenario import run_ce_storm_scenario

        runs = on_each_leg(lambda b: run_ce_storm_scenario(seed=seed, backend=b))
        scalar = runs["scalar"]
        for backend in ENGINE_LEGS[1:]:
            other = runs[backend]
            assert scalar.transcript == other.transcript, f"seed={seed} {backend}"
            assert scalar.replay_key() == other.replay_key(), backend
        assert all(r.success for r in runs.values())


class TestAttackStack:
    def test_fuzzer_campaign_identical(self):
        from repro.attack import attack_from_vm
        from repro.core import SilozHypervisor
        from repro.hv import Machine, VmSpec

        def campaign(backend):
            hv = SilozHypervisor.boot(Machine.small(seed=7, backend=backend))
            attacker = hv.create_vm(VmSpec(name="attacker", memory_bytes=2 * MiB))
            hv.create_vm(VmSpec(name="victim", memory_bytes=2 * MiB))
            outcome = attack_from_vm(hv, attacker, seed=7, pattern_budget=12)
            return outcome, hv.machine.dram.flips_log

        runs = on_each_leg(campaign)
        outcomes = {leg: outcome for leg, (outcome, _) in runs.items()}
        logs = {leg: log for leg, (_, log) in runs.items()}
        for backend in ENGINE_LEGS[1:]:
            assert logs["scalar"] == logs[backend], backend
            assert outcomes["scalar"].summary() == outcomes[backend].summary()
            assert (
                outcomes["scalar"].report.activations
                == outcomes[backend].report.activations
            )

    def test_blast_radius_identical(self):
        from repro.attack.blaster import measure_blast_radius
        from repro.dram.disturbance import DisturbanceProfile
        from repro.dram.geometry import DRAMGeometry
        from repro.dram.module import SimulatedDram

        geom = DRAMGeometry.small(rows_per_bank=128, rows_per_subarray=16)
        def blast(backend):
            dram = SimulatedDram(
                geom,
                profile=DisturbanceProfile.test_scale(threshold_mean=80.0),
                trr_config=None,
                seed=9,
                backend=backend,
            )
            return measure_blast_radius(dram, activations=4000).flips_by_distance

        profiles = on_each_leg(blast)
        for backend in ENGINE_LEGS[1:]:
            assert profiles["scalar"] == profiles[backend], backend
        assert profiles["scalar"], "blast measurement produced no flips"


class TestMitigationDifferential:
    """Every registered mitigation must keep the bit-identity contract:
    one micro fleet campaign per mitigation, same merged
    :class:`BakeoffReport` digest on every engine leg."""

    def _micro(self, mitigation: str, backend: str, seed: int = 0):
        from repro.mitigations.bakeoff import BakeoffConfig, run_bakeoff

        return run_bakeoff(
            BakeoffConfig(
                mitigations=(mitigation,),
                hosts=2,
                vms=4,
                seed=seed,
                budget=2,
                backend=backend,
            )
        )

    @pytest.mark.parametrize("mitigation", (
        "none", "siloz", "para", "catt", "domain-buddy", "guard-rows",
    ))
    def test_bakeoff_digest_backend_independent(self, mitigation):
        reports = on_each_leg(lambda b: self._micro(mitigation, b))
        for backend in ENGINE_LEGS[1:]:
            assert (
                reports["scalar"].mitigation_digest(mitigation)
                == reports[backend].mitigation_digest(mitigation)
            ), f"{mitigation} diverged on {backend}"
            assert reports["scalar"].digest() == reports[backend].digest()


@pytest.mark.tier2
class TestMitigationDifferentialFuzz:
    """Satellite: seed-swept mitigation bit-identity (separate CI job).

    Each seed exercises one mitigation (round-robin) on scalar vs
    vectorized — the pair that actually shares no hot-path code."""

    @pytest.mark.parametrize("seed", range(200, 250))
    def test_bakeoff_digest_fuzz_seed(self, seed):
        from repro.mitigations import mitigation_names
        from repro.mitigations.bakeoff import BakeoffConfig, run_bakeoff

        names = mitigation_names()
        mitigation = names[seed % len(names)]
        digests = {}
        for backend in ("scalar", "vectorized"):
            report = run_bakeoff(
                BakeoffConfig(
                    mitigations=(mitigation,),
                    hosts=2,
                    vms=4,
                    seed=seed,
                    budget=3,
                    backend=backend,
                )
            )
            digests[backend] = report.digest()
        assert digests["scalar"] == digests["vectorized"], (
            f"{mitigation} diverged at seed {seed}"
        )


class TestControllerDecode:
    """The controllers' flat-decode fast path vs the MediaAddress path."""

    @pytest.mark.parametrize("cls_name", ("MemoryController", "FrFcfsController"))
    def test_trace_results_identical(self, cls_name):
        import random

        from repro.dram.geometry import DRAMGeometry
        from repro.dram.mapping import SkylakeMapping
        from repro.memctrl.controller import MemoryAccess, MemoryController
        from repro.memctrl.frfcfs import FrFcfsController

        cls = {"MemoryController": MemoryController, "FrFcfsController": FrFcfsController}[cls_name]
        geom = DRAMGeometry.small()
        mapping = SkylakeMapping.for_small_geometry(geom)
        rng = random.Random(11)
        trace = [
            MemoryAccess(
                hpa=rng.randrange(geom.total_bytes // 64) * 64,
                cpu_gap_ns=rng.choice((0.0, 2.0, 10.0)),
            )
            for _ in range(800)
        ]
        fast = cls(mapping)
        assert fast._decode_flat is not None
        slow = cls(mapping)
        slow._decode_flat = None  # force the MediaAddress reference path
        a, b = fast.run_trace(list(trace)), slow.run_trace(list(trace))
        assert vars(a) == vars(b)


@pytest.fixture(scope="module")
def workload_env():
    from repro.hv import BaselineHypervisor, Machine, VmSpec
    from repro.units import KiB
    from repro.workloads import GpaTranslator

    hv = BaselineHypervisor(Machine.small(), backing_page_bytes=64 * KiB)
    vm = hv.create_vm(VmSpec(name="diff", memory_bytes=2 * MiB))
    return hv, vm, GpaTranslator(vm)


class TestWorkloadStreams:
    """Scalar trace generator vs the one-transplant numpy batch: the
    streams (addresses, kinds, quantized-exponential gaps) must be bit
    for bit the same — same MT19937 draws, same IEEE ops."""

    @pytest.mark.parametrize("workload", ("redis-a", "terasort", "mlc-reads", "mysql"))
    @pytest.mark.parametrize("seed", (0, 3))
    def test_batch_stream_bit_identical(self, workload_env, workload, seed):
        from repro.memctrl.controller import AccessKind
        from repro.workloads import generate_trace, generate_trace_batch, suite

        _, _, translator = workload_env
        spec = suite(workload, footprint_bytes=translator.limit)
        objs = list(
            generate_trace(
                spec, translator, accesses=600, seed=seed, home_socket=1
            )
        )
        batch = generate_trace_batch(
            spec, translator, accesses=600, seed=seed, home_socket=1
        )
        assert [a.hpa for a in objs] == batch.hpa.tolist()
        assert [a.kind is AccessKind.WRITE for a in objs] == batch.write.tolist()
        # Float equality must be exact, not approx: both paths index the
        # same gap table and scale with the same rounding.
        assert [a.cpu_gap_ns for a in objs] == batch.cpu_gap_ns.tolist()
        assert batch.home_socket.tolist() == [1] * 600
        rebuilt = batch.to_accesses()
        assert [vars(a) for a in objs] == [vars(a) for a in rebuilt]


class TestMemctrlBackends:
    """Controller timing on both backends: identical TraceResult (every
    counter and every float) per configuration."""

    def _trace(self, workload_env, accesses=700):
        from repro.workloads import generate_trace, suite

        _, vm, translator = workload_env
        spec = suite("redis-a", footprint_bytes=translator.limit)
        return list(
            generate_trace(spec, translator, accesses=accesses, seed=5)
        )

    @pytest.mark.parametrize(
        "kwargs",
        (
            {},
            {"page_policy": "closed"},
            {"max_outstanding": 1},
        ),
        ids=("open", "closed", "mlp1"),
    )
    def test_controller_backend_identical(self, workload_env, kwargs):
        from repro.memctrl import MemoryController

        hv, _, _ = workload_env
        trace = self._trace(workload_env)
        results = {
            b: MemoryController(
                hv.machine.mapping, backend=b, **kwargs
            ).run_trace(list(trace))
            for b in BACKENDS
        }
        for backend in BACKENDS[1:]:
            assert vars(results["scalar"]) == vars(results[backend]), backend

    @pytest.mark.parametrize("window", (1, 7, 16))
    def test_frfcfs_backend_identical(self, workload_env, window):
        from repro.memctrl import FrFcfsController

        hv, _, _ = workload_env
        trace = self._trace(workload_env)
        results = {
            b: FrFcfsController(
                hv.machine.mapping, window=window, backend=b
            ).run_trace(list(trace))
            for b in BACKENDS
        }
        for backend in BACKENDS[1:]:
            assert vars(results["scalar"]) == vars(results[backend]), backend

    def test_run_batch_equals_run_trace(self, workload_env):
        from repro.memctrl import MemoryController
        from repro.memctrl.pipeline import AccessBatch

        hv, _, _ = workload_env
        trace = self._trace(workload_env)
        batch = AccessBatch.from_accesses(trace)
        for backend in BACKENDS:
            mc = MemoryController(hv.machine.mapping, backend=backend)
            assert vars(mc.run_batch(batch)) == vars(
                MemoryController(hv.machine.mapping, backend=backend).run_trace(
                    list(trace)
                )
            ), backend

    def test_profile_batch_matches_profile_trace(self, workload_env):
        from repro.memctrl.pipeline import AccessBatch
        from repro.memctrl.stats import profile_batch, profile_trace

        hv, _, _ = workload_env
        trace = self._trace(workload_env)
        scalar = profile_trace(hv.machine.mapping, trace)
        batch = profile_batch(hv.machine.mapping, AccessBatch.from_accesses(trace))
        assert scalar.total == batch.total
        assert scalar.per_bank.keys() == batch.per_bank.keys()
        for key, activity in scalar.per_bank.items():
            assert activity.accesses == batch.per_bank[key].accesses
            assert activity.distinct_rows == batch.per_bank[key].distinct_rows


class TestEndToEndBackends:
    """The whole workload→memctrl pipeline through run_in_vm: a machine
    on the vectorized backend must reproduce the scalar machine's
    WorkloadResult exactly (same VM placement, same trace, same time)."""

    @pytest.mark.parametrize("workload", ("redis-a", "mlc-reads"))
    def test_run_in_vm_backend_identical(self, workload):
        from repro.hv import BaselineHypervisor, Machine, VmSpec
        from repro.units import KiB
        from repro.workloads import run_in_vm

        def run(backend):
            hv = BaselineHypervisor(
                Machine.small(backend=backend), backing_page_bytes=64 * KiB
            )
            vm = hv.create_vm(VmSpec(name="e2e", memory_bytes=2 * MiB))
            return run_in_vm(hv, vm, workload, accesses=900, trial=2)

        results = on_each_leg(run)
        for backend in ENGINE_LEGS[1:]:
            assert vars(results["scalar"].trace) == vars(
                results[backend].trace
            ), backend


#: ``_ept_build`` variants; see its docstring.
EPT_BUILD_VARIANTS = ("checker", "checker+injector", "trr", "late-repair", "remap")


def _ept_build(backend: str, variant: str) -> dict:
    """Build a four-level EPT on the default small machine, with a
    secure-EPT checker verifying every entry read, and return everything
    the build left behind.  Table pages sit one per row group, so the
    entry reads that hammer a table page's row disturb the rows holding
    the neighbouring table pages: the build flips its own table bits.

    *variant* adds one ingredient to that build:

    - ``"checker"``: nothing;
    - ``"checker+injector"``: a fault injector plants single-bit errors
      in the words holding entry 0 of the root, PDPT and PD pages, which
      every map call reads (and ECC corrects), while the build runs;
    - ``"trr"``: TRR is on, so every entry access also feeds the sampler
      and ticks towards a REF (whose refreshes keep the build's victims
      from flipping);
    - ``"late-repair"``: a late repair fires during the third map call
      and moves the root page's row onto spare cells; the injector is
      detached after that call, so the remaining calls run plain ACTs,
      which must see the bank's new repair;
    - ``"remap"``: after the build, one GPA range is unmapped and two
      host ranges are retargeted, one of them splitting a 2 MiB leaf."""
    from repro.dram.media import MediaAddress
    from repro.dram.trr import TrrConfig
    from repro.ept.integrity import SecureEptChecker
    from repro.ept.table import ExtendedPageTable
    from repro.errors import ReproError
    from repro.faults.injector import FaultInjector
    from repro.faults.plan import FaultKind, FaultPlan, FaultSpec
    from repro.hv import Machine
    from repro.units import KiB, PAGE_4K

    machine = Machine.small(
        seed=3,
        backend=backend,
        trr_config=TrrConfig() if variant == "trr" else None,
    )
    dram, geom = machine.dram, machine.geom
    page_addrs = range(0, geom.total_bytes // 2, geom.row_group_bytes)
    pages = iter(page_addrs)
    checker = SecureEptChecker()
    ept = ExtendedPageTable(dram, lambda: next(pages), checker=checker)
    injector = None
    if variant == "checker+injector":
        specs = []
        for level, page in enumerate(page_addrs[:3]):
            socket, bank, row, col = machine.mapping.decode_line(page)
            specs.append(FaultSpec(
                kind=FaultKind.ECC_WORD, socket=socket, bank=bank, row=row,
                at_clock=(1 + level) * 1e-4, word=col // 8, word_bits=(5 + level,),
            ))
        injector = FaultInjector(dram, FaultPlan(specs=specs, seed=3)).attach()
    error = None
    moved = None
    try:
        for i in range(6):
            late_repair = variant == "late-repair" and i == 2
            if late_repair:
                socket, bank, row, _col = machine.mapping.decode_line(ept.root)
                spec = FaultSpec(
                    kind=FaultKind.LATE_REPAIR, socket=socket, bank=bank, row=row,
                    at_clock=dram.clock + 5e-5, spare_row=row + 40,
                )
                injector = FaultInjector(dram, FaultPlan(specs=[spec], seed=3)).attach()
            # Host frames off 2 MiB alignment force 512 4 KiB leaves per map.
            ept.map(i * 2 * MiB, 16 * MiB + PAGE_4K * (1 + i % 7), 2 * MiB)
            if late_repair:
                injector.detach()
        if variant == "remap":
            ept.map(12 * MiB, 20 * MiB, 2 * MiB)  # one 2 MiB leaf
            ept.unmap(2 * MiB, 2 * MiB)
            moved = (
                ept.remap_range(16 * MiB + 64 * KiB, 64 * KiB, 24 * MiB),
                ept.remap_range(20 * MiB + 512 * KiB, 512 * KiB, 26 * MiB),
            )
    except ReproError as exc:
        error = (type(exc).__name__, str(exc))
    translations = []
    for gpa in range(0, 14 * MiB, 192 * KiB):
        try:
            translations.append(ept.translate(gpa))
        except ReproError as exc:
            translations.append(type(exc).__name__)
    if injector is not None:
        injector.detach()

    def in_table_page(flip) -> bool:
        hpa = machine.mapping.encode(
            MediaAddress.from_socket_bank(geom, flip.socket, flip.bank, flip.row, flip.bit // 8)
        )
        return any(p <= hpa < p + PAGE_4K for p in ept.table_pages)

    return {
        "error": error,
        "moved": moved,
        "translations": translations,
        "table_pages": list(ept.table_pages),
        "checker": (checker.checks, checker.failures),
        "flips": list(dram.flips_log),
        "table_flips": sum(map(in_table_page, dram.flips_log)),
        "stored_flips": {k: sorted(v) for k, v in dram._flips.items()},
        "data": {k: bytes(v) for k, v in dram._data.items()},
        "ecc": list(dram.ecc.stats.events),
        "counters": vars(dram.counters).copy(),
        "clock": dram.clock,
        "pressure": {
            (0, bank, row): dram.disturbance.pressure_on(0, bank, row)
            for bank in range(geom.banks_per_socket)
            for row in range(geom.rows_per_bank)
            if dram.disturbance.pressure_on(0, bank, row)
        },
        "repairs": {k: dict(v) for k, v in dram._repairs.items()},
        "trr": None if dram.trr is None else (
            dram.trr.neighbor_refreshes,
            {k: (dict(t._counters), t._acts_since_ref) for k, t in dram.trr._samplers.items()},
        ),
        "injected": None if injector is None else [str(e) for e in injector.events],
    }


class TestEptBuild:
    """EPT construction issues its ACTs one entry at a time through
    ``SimulatedDram.read``/``write``; every engine leg must leave the same
    DRAM, ECC and checker state, flips in the table pages included."""

    @pytest.mark.parametrize("variant", EPT_BUILD_VARIANTS)
    def test_build_identical_on_every_leg(self, variant):
        builds = on_each_leg(lambda backend: _ept_build(backend, variant))
        ref = builds["scalar"]
        assert ref["error"] is None, ref["error"]
        assert ref["checker"][0] > 0
        if variant == "trr":
            # TRR refreshes the build's victims before any of them flips.
            assert ref["counters"]["trr_refs"] > 0 and ref["trr"][0] > 0
        elif variant == "late-repair":
            ((_bank, repairs),) = ref["repairs"].items()
            ((_row, spare),) = repairs.items()
            assert ref["injected"], "the repair must fire mid-build"
            assert any(f.aggressor_row == spare for f in ref["flips"]), (
                "root-page ACTs after the repair must disturb the spare's neighbours"
            )
        else:
            assert ref["table_flips"] > 0, "the build must flip its own table bits"
        if variant == "checker+injector":
            assert ref["injected"], "the planted errors must fire during the build"
            assert ref["ecc"], "entry reads must correct the planted errors"
        if variant == "remap":
            assert all(ref["moved"]), "both remaps must retarget leaves"
        for leg in ENGINE_LEGS[1:]:
            problems = diff_transcripts(0, ref, builds[leg], labels=("scalar", leg))
            assert not problems, "\n".join(problems)
