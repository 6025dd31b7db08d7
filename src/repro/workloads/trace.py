"""Access-trace generation over a VM's guest-physical space.

A :class:`TraceSpec` describes a workload's memory signature; the
generator produces per-cache-line :class:`MemoryAccess` streams whose
guest-physical addresses are translated to host-physical through the
VM's RAM backing layout (a piecewise-linear table — walking the EPT in
DRAM for millions of accesses would be pointlessly slow and identical in
result, since the EPT encodes exactly this layout).

The recipe consumes a *fixed number of uniforms per access* (selector,
jump index, read/write, gap) plus one initial-line draw, never branching
on how many draws to take.  That is what lets
:func:`generate_trace_batch` reproduce the exact stream with one
:func:`~repro.engine.vector.bulk_uniforms` MT19937 state transplant and
pure numpy: the scalar generator and the batch generator emit
bit-identical traces (enforced by ``tests/test_differential.py``).
Inter-arrival gaps come from a quantized-exponential lookup table
(:data:`GAP_RESOLUTION` entries) rather than ``expovariate`` — numpy's
and CPython's ``log1p`` are *not* bit-identical, but indexing one shared
table with an exactly-computed ``int(u * N)`` is.
"""

from __future__ import annotations

import bisect
import math
import random
import zlib
from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterator

from repro.errors import WorkloadError
from repro.hv.vm import VirtualMachine
from repro.memctrl.controller import AccessKind, MemoryAccess
from repro.units import CACHE_LINE

if TYPE_CHECKING:  # pragma: no cover - typing-only import (numpy layer)
    import numpy as np

    from repro.memctrl.pipeline import AccessBatch

#: Entries in the quantized-exponential inter-arrival table.  4096 steps
#: keep the distribution's mean within 0.01 % of a true exponential
#: while making the draw a pure table lookup both paths compute alike.
GAP_RESOLUTION = 4096

_gap_table: tuple[float, ...] | None = None


def _exponential_table() -> tuple[float, ...]:
    """Midpoint-quantized unit-mean exponential: entry ``k`` is
    ``-log1p(-(k + 0.5) / N)``.  Computed once; both generators index
    the same values, so the transcendental never has to agree between
    numpy and libm."""
    global _gap_table
    if _gap_table is None:
        _gap_table = tuple(
            -math.log1p(-(k + 0.5) / GAP_RESOLUTION) for k in range(GAP_RESOLUTION)
        )
    return _gap_table


@dataclass(frozen=True)
class TraceSpec:
    """A workload's memory-access signature.

    ``locality`` is the probability the next access continues
    sequentially from the previous one (row-buffer-friendly streaming);
    the rest jump, either to a hot region (``hot_fraction`` of the
    footprint, chosen with ``hot_prob``) or uniformly.
    ``cpu_gap_ns`` is mean CPU think time between memory accesses —
    the compute-vs-memory-bound knob.
    """

    name: str
    footprint_bytes: int
    read_ratio: float = 0.8
    locality: float = 0.5
    hot_fraction: float = 0.1
    hot_prob: float = 0.6
    cpu_gap_ns: float = 20.0
    #: Relative run-time noise between trials (paper error bars).
    noise: float = 0.01

    def __post_init__(self) -> None:
        if self.footprint_bytes < CACHE_LINE:
            raise WorkloadError(f"{self.name}: footprint below one cache line")
        for field_name in ("read_ratio", "locality", "hot_fraction", "hot_prob"):
            value = getattr(self, field_name)
            if not 0.0 <= value <= 1.0:
                raise WorkloadError(f"{self.name}: {field_name} must be in [0, 1]")
        if self.cpu_gap_ns < 0 or self.noise < 0:
            raise WorkloadError(f"{self.name}: negative timing parameter")


class GpaTranslator:
    """Piecewise-linear GPA->HPA for a VM's RAM region.

    RAM at GPA 0 is mapped across the VM's backing ranges in order, so
    translation is an offset lookup — bit-identical to what the EPT walk
    would return (tests assert this equivalence)."""

    def __init__(self, vm: VirtualMachine):
        self._starts: list[int] = []
        self._bases: list[int] = []
        gpa = 0
        for r in vm.backing:
            self._starts.append(gpa)
            self._bases.append(r.start)
            gpa += r.size
        self.limit = gpa
        if not self._starts:
            raise WorkloadError(f"VM {vm.name} has no RAM backing")

    def translate(self, gpa: int) -> int:
        if not 0 <= gpa < self.limit:
            raise WorkloadError(f"GPA {gpa:#x} beyond backed RAM {self.limit:#x}")
        i = bisect.bisect_right(self._starts, gpa) - 1
        return self._bases[i] + (gpa - self._starts[i])

    def translate_batch(self, gpas: "np.ndarray") -> "np.ndarray":
        """Vectorized :meth:`translate` (``searchsorted`` over the same
        table ``bisect`` walks — integer-exact agreement)."""
        import numpy as np

        if gpas.size and (int(gpas.min()) < 0 or int(gpas.max()) >= self.limit):
            bad = int(gpas.min()) if int(gpas.min()) < 0 else int(gpas.max())
            raise WorkloadError(f"GPA {bad:#x} beyond backed RAM {self.limit:#x}")
        starts = np.asarray(self._starts, dtype=np.int64)
        bases = np.asarray(self._bases, dtype=np.int64)
        i = np.searchsorted(starts, gpas, side="right") - 1
        return bases[i] + (gpas - starts[i])

    @property
    def fingerprint(self) -> int:
        """Hash of the physical layout.  Mixed into the noise seed: the
        paper attributes residual run-to-run differences partly to
        address-dependent effects (cache slice/set indexing, §7.3), so
        two systems placing the same VM at different HPAs draw different
        noise."""
        return hash(tuple(zip(self._starts, self._bases))) & 0x7FFFFFFF


def _trace_rngs(
    spec: TraceSpec, translator: GpaTranslator, seed: int
) -> tuple[random.Random, random.Random]:
    # The access *pattern* is a property of the workload and trial only;
    # the noise draw additionally depends on where the VM physically
    # landed (see GpaTranslator.fingerprint).  zlib.crc32 rather than
    # hash(): str hashing is salted per process, and traces must be
    # reproducible across runs.
    name_tag = zlib.crc32(spec.name.encode())
    rng = random.Random((name_tag ^ (seed * 0x9E3779B1)) & 0xFFFFFFFF)
    noise_rng = random.Random(
        (name_tag ^ (seed * 0x85EBCA6B) ^ translator.fingerprint) & 0xFFFFFFFF
    )
    return rng, noise_rng


def _trace_params(
    spec: TraceSpec, translator: GpaTranslator, noise_rng: random.Random
) -> tuple[int, int, float, float]:
    """(lines, hot_lines, gap scale, hot selector cut) for one trace."""
    footprint = min(spec.footprint_bytes, translator.limit)
    lines = footprint // CACHE_LINE
    if lines == 0:
        raise WorkloadError("footprint smaller than a cache line")
    hot_lines = max(1, int(lines * spec.hot_fraction))
    gap_scale = 1.0 + noise_rng.gauss(0.0, spec.noise)
    # One selector uniform decides sequential/hot/uniform:
    # [0, locality) -> sequential, [locality, hot_cut) -> hot jump,
    # [hot_cut, 1) -> uniform jump; P(hot | jump) == hot_prob as before.
    hot_cut = spec.locality + (1.0 - spec.locality) * spec.hot_prob
    return lines, hot_lines, spec.cpu_gap_ns * gap_scale, hot_cut


def generate_trace(
    spec: TraceSpec,
    translator: GpaTranslator,
    *,
    accesses: int,
    seed: int = 0,
    home_socket: int = 0,
) -> Iterator[MemoryAccess]:
    """Yield *accesses* MemoryAccess objects following *spec*.

    Deterministic per (spec, seed).  The per-trial ``noise`` scales the
    CPU gaps, modelling run-to-run variance (scheduler, cache state) —
    the source of the paper's confidence intervals.
    """
    if accesses <= 0:
        raise WorkloadError("accesses must be positive")
    rng, noise_rng = _trace_rngs(spec, translator, seed)
    lines, hot_lines, scale, hot_cut = _trace_params(spec, translator, noise_rng)
    table = _exponential_table()
    timed = spec.cpu_gap_ns > 0.0
    line = min(int(rng.random() * lines), lines - 1)
    for _ in range(accesses):
        u_sel = rng.random()
        u_idx = rng.random()
        u_kind = rng.random()
        u_gap = rng.random()
        if u_sel < spec.locality:
            line = (line + 1) % lines
        elif u_sel < hot_cut:
            line = min(int(u_idx * hot_lines), hot_lines - 1)
        else:
            line = min(int(u_idx * lines), lines - 1)
        kind = AccessKind.READ if u_kind < spec.read_ratio else AccessKind.WRITE
        gap = table[min(int(u_gap * GAP_RESOLUTION), GAP_RESOLUTION - 1)] * scale if timed else 0.0
        yield MemoryAccess(
            hpa=translator.translate(line * CACHE_LINE),
            kind=kind,
            cpu_gap_ns=gap,
            home_socket=home_socket,
        )


#: One trace's access pattern: ``(line, write, unscaled gap)`` arrays.
#: Everything the system under test changes (the HPA translation and
#: the noise-scaled gap) is applied on top; the arrays are read-only so
#: one pattern can back several batches.
TracePattern = tuple["np.ndarray", "np.ndarray", "np.ndarray"]


def _draw_pattern(
    spec: TraceSpec,
    rng: random.Random,
    lines: int,
    hot_lines: int,
    hot_cut: float,
    accesses: int,
) -> TracePattern:
    """The numpy twin of :func:`generate_trace`'s per-access draws."""
    import numpy as np

    from repro.engine.vector import bulk_uniforms

    uniforms = bulk_uniforms(rng, 1 + 4 * accesses)
    line0 = min(int(uniforms[0] * lines), lines - 1)
    per_access = uniforms[1:].reshape(accesses, 4)
    u_sel = per_access[:, 0]
    u_idx = per_access[:, 1]
    u_kind = per_access[:, 2]
    u_gap = per_access[:, 3]

    seq = u_sel < spec.locality
    hot = ~seq & (u_sel < hot_cut)
    jump = np.where(
        hot,
        np.minimum((u_idx * hot_lines).astype(np.int64), hot_lines - 1),
        np.minimum((u_idx * lines).astype(np.int64), lines - 1),
    )
    # Sequential runs advance +1 per step from the last jump (anchor);
    # anchor -1 is the initial line draw, one step *behind* access 0.
    pos = np.arange(accesses, dtype=np.int64)
    anchor = np.maximum.accumulate(np.where(~seq, pos, np.int64(-1)))
    anchor_line = np.where(anchor >= 0, jump[np.maximum(anchor, 0)], np.int64(line0))
    line = (anchor_line + (pos - anchor)) % lines

    if spec.cpu_gap_ns > 0.0:
        table = np.asarray(_exponential_table(), dtype=np.float64)
        slot = np.minimum((u_gap * GAP_RESOLUTION).astype(np.int64), GAP_RESOLUTION - 1)
        gaps = table[slot]
    else:
        gaps = np.zeros(accesses, dtype=np.float64)
    pattern = (line, ~(u_kind < spec.read_ratio), gaps)
    for arr in pattern:
        arr.flags.writeable = False
    return pattern


def generate_trace_batch(
    spec: TraceSpec,
    translator: GpaTranslator,
    *,
    accesses: int,
    seed: int = 0,
    home_socket: int = 0,
    patterns: dict | None = None,
) -> "AccessBatch":
    """:func:`generate_trace` as one numpy batch — same stream, bit for
    bit: the MT19937 uniforms come from a single
    :func:`~repro.engine.vector.bulk_uniforms` transplant consumed in
    the same order, and every arithmetic step mirrors the scalar
    recipe's exactly-rounded IEEE ops.

    The access pattern depends only on *spec*, the footprint in lines,
    *accesses* and *seed*; only the HPA translation and the gap noise
    depend on the system.  A caller replaying one workload on several
    systems passes the same *patterns* dict to every call, and each
    pattern is drawn once (see :func:`repro.eval.perf_experiment`)."""
    import numpy as np

    from repro.memctrl.pipeline import AccessBatch

    if accesses <= 0:
        raise WorkloadError("accesses must be positive")
    rng, noise_rng = _trace_rngs(spec, translator, seed)
    lines, hot_lines, scale, hot_cut = _trace_params(spec, translator, noise_rng)
    key = (spec, lines, hot_lines, accesses, seed)
    pattern = patterns.get(key) if patterns is not None else None
    if pattern is None:
        pattern = _draw_pattern(spec, rng, lines, hot_lines, hot_cut, accesses)
        if patterns is not None:
            patterns[key] = pattern
    line, write, gaps = pattern

    return AccessBatch(
        hpa=translator.translate_batch(line * CACHE_LINE),
        write=write,
        cpu_gap_ns=gaps * scale if spec.cpu_gap_ns > 0.0 else gaps,
        home_socket=np.full(accesses, home_socket, dtype=np.int64),
        tag=np.zeros(accesses, dtype=np.int64),
    )
