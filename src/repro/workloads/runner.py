"""Replay workloads inside VMs through the timing model (§7.2, §7.3)."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from repro.engine.backend import SimBackend
from repro.hv.hypervisor import Hypervisor
from repro.hv.vm import VirtualMachine
from repro.memctrl.controller import (
    DecodesToMedia,
    MemoryController,
    TraceResult,
)
from repro.memctrl.timings import DDR4Timings
from repro.workloads.suites import suite
from repro.workloads.trace import GpaTranslator, generate_trace, generate_trace_batch

ControllerFactory = Callable[[DecodesToMedia, "DDR4Timings | None"], MemoryController]


@dataclass(frozen=True)
class WorkloadResult:
    """One (workload, VM, trial) measurement."""

    workload: str
    vm: str
    trial: int
    trace: TraceResult

    @property
    def execution_seconds(self) -> float:
        return self.trace.execution_seconds

    @property
    def bandwidth_gib_s(self) -> float:
        return self.trace.bandwidth_gib_s


def run_in_vm(
    hv: Hypervisor,
    vm: VirtualMachine,
    workload: str,
    *,
    accesses: int = 20_000,
    trial: int = 0,
    footprint_fraction: float = 0.8,
    timings: DDR4Timings | None = None,
    controller_factory: ControllerFactory | None = None,
    patterns: dict | None = None,
) -> WorkloadResult:
    """Run *workload* inside *vm*, returning timing aggregates.

    The trace covers ``footprint_fraction`` of the VM's RAM; trial index
    seeds the noise model, giving the run-to-run spread behind the
    paper's 95 % confidence intervals.  ``controller_factory(mapping,
    timings)`` overrides the memory-controller model (e.g. FR-FCFS or
    closed-page) for robustness studies.

    The machine's simulation backend flows through: a default-built
    controller inherits ``hv.machine.dram.backend``, and whenever the
    controller (however built) runs vectorized, the trace itself is
    synthesized as one numpy batch — the whole workload→memctrl pipeline
    stays on the fast path, with bit-identical results.  *patterns* is
    handed to :func:`generate_trace_batch`, so callers running one
    workload on several systems draw each trial's access pattern once.
    """
    translator = GpaTranslator(vm)
    footprint = max(64, int(translator.limit * footprint_fraction))
    spec = suite(workload, footprint_bytes=footprint)
    if controller_factory is not None:
        controller = controller_factory(hv.machine.mapping, timings)
    else:
        controller = MemoryController(
            hv.machine.mapping, timings, backend=hv.machine.dram.backend
        )
    if controller.backend is SimBackend.VECTORIZED:
        batch = generate_trace_batch(
            spec,
            translator,
            accesses=accesses,
            seed=trial,
            home_socket=vm.home_socket,
            patterns=patterns,
        )
        result = controller.run_batch(batch)
    else:
        trace = generate_trace(
            spec,
            translator,
            accesses=accesses,
            seed=trial,
            home_socket=vm.home_socket,
        )
        result = controller.run_trace(trace)
    return WorkloadResult(workload=workload, vm=vm.name, trial=trial, trace=result)
