"""Unit tests for the attack package (patterns, fuzzer, runner)."""

import random

import pytest

from repro.attack import (
    BlacksmithFuzzer,
    HammerPattern,
    attack_from_vm,
    hammer_double_sided,
    hammer_pattern_rows,
    run_pattern,
)
from repro.attack.runner import _runs, rows_owned_by_vm, victim_flips
from repro.dram.disturbance import BitFlip, DisturbanceProfile
from repro.dram.geometry import DRAMGeometry
from repro.dram.mapping import AddressRange
from repro.dram.media import MediaAddress
from repro.dram.module import SimulatedDram
from repro.dram.trr import TrrConfig
from repro.errors import AttackError
from repro.hv import BaselineHypervisor, Machine, VmSpec
from repro.core import SilozHypervisor
from repro.units import KiB, MiB

GEOM = DRAMGeometry.small()  # 64 rows, 8-row subarrays


def make_dram(threshold=48.0, trr=None, seed=0):
    return SimulatedDram(
        GEOM,
        profile=DisturbanceProfile.test_scale(threshold_mean=threshold),
        trr_config=trr,
        seed=seed,
    )


class TestPatterns:
    def test_double_sided_shape(self):
        p = HammerPattern.double_sided()
        assert p.aggressors == (-1, 1)
        assert p.n_sided == 2

    def test_many_sided(self):
        p = HammerPattern.many_sided(4)
        assert p.aggressors == (0, 2, 4, 6)

    def test_with_decoys_disjoint(self):
        p = HammerPattern.with_decoys(3, 2)
        assert not set(p.aggressors) & set(p.decoys)
        # Decoys come first in the default order (sampler slots).
        assert p.order[: len(p.decoys)] == p.decoys

    def test_rejects_empty(self):
        with pytest.raises(AttackError):
            HammerPattern(aggressors=())

    def test_rejects_overlapping_decoys(self):
        with pytest.raises(AttackError):
            HammerPattern(aggressors=(1,), decoys=(1,))

    def test_rejects_unknown_order(self):
        with pytest.raises(AttackError):
            HammerPattern(aggressors=(1,), order=(1, 99))

    def test_rejects_bad_rounds(self):
        with pytest.raises(AttackError):
            HammerPattern(aggressors=(1,), rounds=0)

    def test_random_patterns_valid(self):
        rng = random.Random(0)
        for _ in range(50):
            p = HammerPattern.random(rng)
            assert p.aggressors
            assert p.total_activations() > 0

    def test_shifted(self):
        p = HammerPattern.double_sided().shifted(10)
        assert p.aggressors == (9, 11)

    def test_describe(self):
        assert "2-sided" in HammerPattern.double_sided().describe()


class TestHammerPrimitives:
    def test_double_sided_flips_victim(self):
        dram = make_dram()
        flips = hammer_double_sided(dram, 0, 0, victim_row=4, activations=6000)
        assert flips
        assert any(f.row == 4 for f in flips)

    def test_pattern_rows_validated(self):
        dram = make_dram()
        with pytest.raises(Exception):
            hammer_pattern_rows(dram, 0, 0, [9999], rounds=1)
        with pytest.raises(AttackError):
            hammer_pattern_rows(dram, 0, 0, [], rounds=1)

    def test_run_pattern_clamps_to_bank(self):
        dram = make_dram()
        pattern = HammerPattern.double_sided()  # offsets -1, +1
        flips = run_pattern(dram, 0, 0, 0, pattern)  # -1 clamped away
        assert all(0 <= f.row < GEOM.rows_per_bank for f in flips)

    def test_run_pattern_rejects_fully_out_of_bank(self):
        dram = make_dram()
        pattern = HammerPattern(aggressors=(500,), rounds=1)
        with pytest.raises(AttackError):
            run_pattern(dram, 0, 0, 0, pattern)

    def test_flips_confined_to_subarray(self):
        dram = make_dram()
        pattern = HammerPattern.many_sided(3, rounds=3000)
        flips = run_pattern(dram, 0, 0, 2, pattern)  # aggressors 2,4,6
        assert flips
        assert all(f.row < 8 for f in flips)


class TestBlacksmithFuzzer:
    def test_finds_flips_without_trr(self):
        dram = make_dram()
        fuzzer = BlacksmithFuzzer(dram, [(0, 0, range(0, 32))], seed=1)
        report = fuzzer.run(pattern_budget=20)
        assert report.flip_count > 0
        assert report.effective_patterns

    def test_beats_trr(self):
        """The §7.1 premise: Blacksmith flips bits despite TRR."""
        dram = make_dram(trr=TrrConfig(), seed=2)
        fuzzer = BlacksmithFuzzer(dram, [(0, 0, range(0, 32))], seed=2)
        report = fuzzer.run_until_flips(min_flips=1, max_patterns=120)
        assert report.flip_count > 0

    def test_flips_stay_in_target_subarrays(self):
        dram = make_dram()
        fuzzer = BlacksmithFuzzer(dram, [(0, 0, range(8, 16))], seed=3)
        report = fuzzer.run(pattern_budget=30)
        if report.flips:  # row range = subarray 1 exactly
            assert all(8 <= f.row < 16 for f in report.flips)

    def test_requires_targets(self):
        with pytest.raises(AttackError):
            BlacksmithFuzzer(make_dram(), [])

    def test_report_accounting(self):
        dram = make_dram()
        fuzzer = BlacksmithFuzzer(dram, [(0, 0, range(0, 32))], seed=4)
        report = fuzzer.run(pattern_budget=5)
        assert report.patterns_tried == 5
        assert report.activations > 0
        by_sub = report.flips_by_subarray(GEOM)
        assert sum(by_sub.values()) == report.flip_count

    def test_small_target_ranges_skipped(self):
        dram = make_dram()
        fuzzer = BlacksmithFuzzer(dram, [(0, 0, range(0, 2))], seed=5)
        report = fuzzer.run(pattern_budget=5)  # most patterns won't fit
        assert report.patterns_tried == 5


class TestRunnerHelpers:
    def test_runs_splits_gaps(self):
        assert _runs([1, 2, 3, 7, 8]) == [range(1, 4), range(7, 9)]
        assert _runs([]) == []
        assert _runs([5]) == [range(5, 6)]

    def test_rows_owned_by_vm(self):
        hv = SilozHypervisor.boot(Machine.small())
        vm = hv.create_vm(VmSpec(name="a", memory_bytes=2 * MiB))
        owned = rows_owned_by_vm(hv, vm)
        geom = hv.machine.geom
        groups = {
            geom.subarray_of_row(r) for r in owned[0]
        }
        assert groups <= {g for _, g in vm.reserved_groups}


class TestAttackFromVm:
    def test_siloz_attack_contained(self):
        hv = SilozHypervisor.boot(Machine.small(seed=7))
        attacker = hv.create_vm(VmSpec(name="attacker", memory_bytes=2 * MiB))
        hv.create_vm(VmSpec(name="victim", memory_bytes=2 * MiB))
        outcome = attack_from_vm(hv, attacker, seed=7, pattern_budget=25)
        assert outcome.report.flip_count > 0  # the attack works...
        assert outcome.contained  # ...but never escapes (Table 3)
        assert outcome.victim_flips == {}

    def test_baseline_attack_corrupts_victim(self):
        """Flips always stay in the attacker's *physical* subarray — but
        the baseline shares subarrays between VMs, so the victim's data
        is corrupted anyway.  Siloz's fix is making the groups private,
        not changing the physics."""
        hv = BaselineHypervisor(Machine.small(seed=8), backing_page_bytes=64 * KiB)
        attacker = hv.create_vm(VmSpec(name="attacker", memory_bytes=2 * MiB))
        hv.create_vm(VmSpec(name="victim", memory_bytes=2 * MiB))
        outcome = attack_from_vm(hv, attacker, seed=8, pattern_budget=80)
        assert outcome.report.flip_count > 0
        assert outcome.victim_flips  # inter-VM corruption happened

    def test_summary_format(self):
        hv = SilozHypervisor.boot(Machine.small(seed=9))
        attacker = hv.create_vm(VmSpec(name="a", memory_bytes=2 * MiB))
        outcome = attack_from_vm(hv, attacker, seed=9, pattern_budget=5)
        assert "attacker=a" in outcome.summary()


def _owns_hpa_reference(hv, attacker, flips) -> dict[str, int]:
    """Per-flip attribution: one MediaAddress, one encode and an
    ``owns_hpa`` query on every other VM for each flip."""
    geom = hv.machine.geom
    out: dict[str, int] = {}
    for flip in flips:
        media = MediaAddress.from_socket_bank(
            geom, flip.socket, flip.bank, flip.row, (flip.bit // 8 // 64) * 64
        )
        hpa = hv.machine.mapping.encode(media)
        for name, vm in hv.vms.items():
            if name != attacker.name and vm.owns_hpa(hpa):
                out[name] = out.get(name, 0) + 1
    return out


class TestVictimFlips:
    """``victim_flips`` (one batched encode, per-VM range search) must
    equal the per-flip ``owns_hpa`` attribution, counts and order."""

    @pytest.mark.parametrize("seed", [8, 200])
    def test_equals_owns_hpa_reference(self, seed):
        hv = BaselineHypervisor(
            Machine.small(seed=seed, backend="vectorized"), backing_page_bytes=64 * KiB
        )
        attacker = hv.create_vm(VmSpec(name="attacker", memory_bytes=2 * MiB))
        victim = hv.create_vm(VmSpec(name="victim", memory_bytes=2 * MiB))
        outcome = attack_from_vm(hv, attacker, seed=seed, pattern_budget=80)
        reference = _owns_hpa_reference(hv, attacker, outcome.report.flips)
        assert reference, "the baseline contrast corrupted no victim"
        assert list(outcome.victim_flips.items()) == list(reference.items())

        # A third VM whose RAM is split into several backing ranges, out
        # of address order; the victim keeps its mediated (ROM/MMIO)
        # ranges.  Flips are planted in every range of every VM, plus
        # anywhere on the device.
        third = hv.create_vm(VmSpec(name="third", memory_bytes=2 * MiB))
        (ram,) = third.backing
        cut = [ram.start + k * ram.size // 4 for k in range(4)] + [ram.end]
        third.backing = [AddressRange(a, b) for a, b in zip(cut, cut[1:])][::-1]
        assert victim.mediated_backing
        rng = random.Random(seed)
        geom = hv.machine.geom
        hpas = [rng.randrange(geom.total_bytes) for _ in range(300)]
        for vm in hv.vms.values():
            for r in vm.backing + vm.mediated_backing:
                hpas += [rng.randrange(r.start, r.end) for _ in range(20)]
        rng.shuffle(hpas)
        flips = []
        for hpa in hpas:
            media = hv.machine.mapping.decode(hpa)
            flips.append(
                BitFlip(
                    socket=media.socket,
                    bank=media.socket_bank_index(geom),
                    row=media.row,
                    bit=media.col * 8 + rng.randrange(8),
                    aggressor_row=0,
                    when=0.0,
                )
            )
        flips += outcome.report.flips
        reference = _owns_hpa_reference(hv, attacker, flips)
        assert set(reference) == {"victim", "third"}
        assert list(victim_flips(hv, attacker, flips).items()) == list(reference.items())

    def test_no_flips(self):
        hv = BaselineHypervisor(Machine.small(seed=1))
        attacker = hv.create_vm(VmSpec(name="attacker", memory_bytes=2 * MiB))
        hv.create_vm(VmSpec(name="victim", memory_bytes=2 * MiB))
        assert victim_flips(hv, attacker, []) == {}
