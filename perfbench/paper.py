"""paper-repro: regenerate the paper's experiment set in one process.

One unit of work is Table 3 on the six DIMM profiles under Siloz plus the
baseline contrast, Figures 4-7, and the S-EPT guard-row check (§7.1).
Every unit is checked and reduced to a digest of its simulated outputs.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import replace

from common import BACKEND
from hostspeed import Clock
from inputs import PaperInputs


def setup(inputs: PaperInputs) -> None:
    """Run a reduced regeneration: it imports the program, builds its
    lazy tables and runs every experiment's code path once, so timed
    units start warm."""
    run_unit(replace(inputs, table3_budget=2, baseline_budget=2, trials=1,
                     accesses=2000, sept_rounds=200))


def _table3(inputs: PaperInputs, failures: list[str], cell) -> list:
    from repro.attack import attack_from_vm
    from repro.core import SilozHypervisor, audit_hypervisor
    from repro.dram.disturbance import DisturbanceProfile
    from repro.hv import Machine, VmSpec
    from repro.units import MiB

    rows = []
    for dimm, seed in zip(DisturbanceProfile.dimm_fleet(), inputs.table3_seeds):
        with cell(f"table3.{dimm.name}"):
            hv = SilozHypervisor.boot(
                Machine.small(seed=seed, profile=dimm, backend=BACKEND))
            attacker = hv.create_vm(VmSpec(name="attacker", memory_bytes=2 * MiB))
            hv.create_vm(VmSpec(name="victim", memory_bytes=2 * MiB))
            outcome = attack_from_vm(
                hv, attacker, seed=seed, pattern_budget=inputs.table3_budget
            )
        if audit_hypervisor(hv):
            failures.append(f"table3 {dimm.name}: isolation audit failed")
        if not outcome.contained or outcome.victim_flips:
            failures.append(f"table3 {dimm.name}: flips escaped the attacker's group")
        if not outcome.flips_inside:
            failures.append(f"table3 {dimm.name}: no flips inside the attacker's group")
        rows.append([dimm.name, len(outcome.flips_inside), len(outcome.flips_escaped),
                     outcome.report.activations])
    return rows


def _baseline(inputs: PaperInputs, failures: list[str], cell) -> list:
    from repro.attack import attack_from_vm
    from repro.hv import BaselineHypervisor, Machine, VmSpec
    from repro.units import KiB, MiB

    seed = inputs.baseline_seed
    with cell("baseline"):
        hv = BaselineHypervisor(Machine.small(seed=seed, backend=BACKEND),
                                backing_page_bytes=64 * KiB)
        attacker = hv.create_vm(VmSpec(name="attacker", memory_bytes=2 * MiB))
        hv.create_vm(VmSpec(name="victim", memory_bytes=2 * MiB))
        outcome = attack_from_vm(hv, attacker, seed=seed,
                                 pattern_budget=inputs.baseline_budget)
    if not outcome.victim_flips:
        failures.append("baseline contrast: the co-located victim was not corrupted")
    return [outcome.report.flip_count, sorted(outcome.victim_flips.items())]


def _figures(inputs: PaperInputs, failures: list[str], cell) -> dict:
    """Figures 4-7, one ``perf_experiment`` call per (figure, workload)
    cell; the cells' trials are exactly those of one call per figure."""
    from repro.eval import PerfComparison, baseline_system, perf_experiment, siloz_system
    from repro.workloads import EXEC_TIME_SUITES, THROUGHPUT_SUITES

    out = {}
    for figure, seed in zip((4, 5, 6, 7), inputs.figure_seeds):
        with cell(f"figure{figure}.systems"):
            if figure in (4, 5):
                systems = [baseline_system(seed=seed, backend=BACKEND),
                           siloz_system(seed=seed, backend=BACKEND)]
            else:
                systems = [
                    siloz_system(name=f"siloz-{r}", rows_per_subarray=r, seed=seed,
                                 backend=BACKEND)
                    for r in (128, 64, 256)
                ]
        metric = "time" if figure in (4, 6) else "bandwidth"
        comparison = PerfComparison(metric=metric)
        for workload in EXEC_TIME_SUITES if metric == "time" else THROUGHPUT_SUITES:
            with cell(f"figure{figure}.{workload}"):
                result = perf_experiment(systems, [workload], metric=metric,
                                         trials=inputs.trials, accesses=inputs.accesses)
            comparison.values.update(result.values)
        if figure in (4, 5):
            ratio = comparison.geomean_ratio("siloz")
            if not abs(ratio - 1.0) < 0.01:
                failures.append(f"figure {figure}: geomean ratio {ratio:.5f} not within 1%")
        out[str(figure)] = comparison.values
    return out


def _sept(inputs: PaperInputs, failures: list[str], cell) -> dict:
    with cell("sept"):
        return _sept_cell(inputs, failures)


def _sept_cell(inputs: PaperInputs, failures: list[str]) -> dict:
    from repro.attack.hammer import hammer_pattern_rows
    from repro.core import EptProtection, SilozConfig, SilozHypervisor
    from repro.core.groups import ept_block_rows, ept_rows
    from repro.hv import Machine, VmSpec
    from repro.units import MiB

    rounds = inputs.sept_rounds
    hv = SilozHypervisor.boot(Machine.small(seed=inputs.sept_seeds[0], backend=BACKEND))
    hv.create_vm(VmSpec(name="vm", memory_bytes=2 * MiB))
    geom, dram = hv.machine.geom, hv.machine.dram
    block = ept_block_rows(hv.config, geom)
    protected = set(ept_rows(hv.config, geom))
    hammer_pattern_rows(dram, 0, 0, [block.stop, block.stop + 2], rounds=rounds)
    control = geom.rows_per_subarray + 16
    hammer_pattern_rows(dram, 0, 0, [control, control + 2], rounds=rounds)
    flipped = {f.row for f in dram.flips_log}
    guarded_flips = sorted(flipped & protected)
    control_flips = sorted(r for r in flipped if control - 4 <= r <= control + 6)
    if guarded_flips:
        failures.append(f"S-EPT: guarded EPT rows flipped: {guarded_flips}")
    if not control_flips:
        failures.append("S-EPT: unguarded control rows did not flip")

    machine = Machine.small(seed=inputs.sept_seeds[1], backend=BACKEND)
    cfg = SilozConfig.scaled_for(machine.geom, ept_protection=EptProtection.NONE)
    hv = SilozHypervisor.boot(machine, cfg)
    vm = hv.create_vm(VmSpec(name="vm", memory_bytes=2 * MiB))
    media = hv.machine.dram.mapping.decode(vm.ept.table_pages[-1])
    bank = media.socket_bank_index(machine.geom)
    aggressors = [r for r in (media.row - 1, media.row + 1)
                  if 0 <= r < machine.geom.rows_per_bank]
    hammer_pattern_rows(hv.machine.dram, 0, bank, aggressors, rounds=rounds)
    unguarded_ept_bits = sorted(hv.machine.dram.flip_bits_at(0, bank, media.row))
    if not unguarded_ept_bits:
        failures.append("S-EPT: an EPT page without guard rows did not flip")
    return {"guarded": guarded_flips, "control": control_flips,
            "total": len(dram.flips_log), "unguarded_ept_bits": unguarded_ept_bits}


EXPERIMENTS = (("table3", _table3), ("baseline", _baseline),
               ("figures", _figures), ("sept", _sept))


def run_unit(inputs: PaperInputs, clock: Clock | None = None) -> tuple[dict, str, list[str]]:
    """Regenerate the experiment set once.

    Returns the reference seconds (see ``hostspeed``) each experiment
    cell took, the digest of all simulated outputs, and the failed
    checks."""
    clock = clock or Clock()
    failures: list[str] = []
    seconds: dict = {}

    def cell(name: str):
        return clock.interval(seconds, name)

    outputs = {name: experiment(inputs, failures, cell)
               for name, experiment in EXPERIMENTS}
    blob = json.dumps(outputs, sort_keys=True, separators=(",", ":"))
    return seconds, hashlib.sha256(blob.encode()).hexdigest(), failures
