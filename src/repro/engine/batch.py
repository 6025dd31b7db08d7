"""The vectorized engine's exact fallback: the per-ACT batch loop.

Hammer sweeps and CE-storm scenarios spend almost all of their time in
``SimulatedDram.activate`` → ``DisturbanceModel.on_activate``: per ACT
the scalar path recomputes the aggressor's neighbor list, walks three
dicts keyed by (socket, bank, row) tuples, and crosses half a dozen
Python call frames.  This module flattens that overhead without changing
a single observable bit, and :mod:`repro.engine.vector` runs every batch
it cannot vectorize (fault hooks, tracing, short batches) through it:

- :class:`BatchedDisturbanceModel` stores per-bank pressure and victim
  thresholds in flat ``array('d')`` tables (indexed by row) and caches
  each row's (victim, weight) spill list in a per-row memo table; the
  vectorized model extends it with numpy views of the same tables.
- :func:`run_activation_batch` executes a whole vector of same-bank row
  activations in one inlined loop: clock advance, refresh windows, fault
  hooks, TRR sampling, disturbance spill, flip emission and TRR REF
  ticks — the exact operation sequence of the scalar path with the
  per-ACT call frames flattened away.

**Equivalence contract.**  The scalar path is the golden reference.  The
fallback loop consumes the same RNG streams (disturbance and TRR) in the
same order, performs the same float arithmetic in the same order, and
mutates the same module-level structures (``flips_log``, counters,
stored data, ECC), so replaying any access sequence through either
path yields identical flip sets, TRR decisions, ECC events and
health escalations.  ``tests/test_differential.py`` enforces this over
seeded attack patterns, fault plans and workload traces, with the
vectorized backend forced onto this loop for every batch.
"""

from __future__ import annotations

from array import array
from typing import TYPE_CHECKING, Any, Sequence

from repro import obs
from repro.dram.disturbance import BitFlip, DisturbanceModel, DisturbanceProfile
from repro.dram.geometry import DRAMGeometry
from repro.errors import DramError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (module -> engine)
    from repro.dram.module import SimulatedDram

#: Per-geometry NaN row templates, keyed by rows_per_bank.  Building the
#: template costs O(rows) per call; every model instance (one per host in
#: fleet campaigns) used to pay it in ``__init__``.  The template is
#: read-only by convention — consumers copy before mutating.
_NAN_TEMPLATES: dict[int, array] = {}


def nan_row_template(rows: int) -> array:
    """Shared all-NaN ``array('d')`` of length *rows* (copy before use)."""
    got = _NAN_TEMPLATES.get(rows)
    if got is None:
        got = array("d", [float("nan")]) * rows
        _NAN_TEMPLATES[rows] = got
    return got


class BatchedDisturbanceModel(DisturbanceModel):
    """Array-backed disturbance state, RNG-compatible with the scalar model.

    Per touched (socket, bank) the model keeps two flat ``array('d')``
    tables indexed by bank-local row: accumulated pressure, and the
    lazily-drawn per-victim threshold (NaN = not drawn yet).  Thresholds
    are drawn through the same ``random.Random`` stream in the same
    first-touch order as the scalar model's dict, so both paths see
    identical threshold values and identical downstream flip randomness.
    """

    def __init__(
        self,
        geom: DRAMGeometry,
        profile: DisturbanceProfile | None = None,
        *,
        seed: int = 0,
    ):
        super().__init__(geom, profile, seed=seed)
        rows = geom.rows_per_bank
        self._zeros = array("d", bytes(8 * rows))
        self._nans = nan_row_template(rows)
        #: (socket, bank) -> (pressure array, threshold array).  The
        #: vectorized subclass reads and writes them through numpy views.
        self._banks: dict[tuple[int, int], tuple[Any, Any]] = {}
        #: row -> tuple[(victim, weight), ...]; lazily filled memo of
        #: the subarray-clipped spill targets (identical to _neighbors).
        self._neighbor_table: list = [None] * rows

    # ------------------------------------------------------------------
    # Flat state
    # ------------------------------------------------------------------

    def _bank_arrays(self, socket: int, bank: int) -> tuple[Any, Any]:
        key = (socket, bank)
        got = self._banks.get(key)
        if got is None:
            got = (array("d", self._zeros), array("d", self._nans))
            self._banks[key] = got
        return got

    def _neighbor_tuple(self, row: int) -> tuple:
        nb = self._neighbor_table[row]
        if nb is None:
            nb = tuple(self._neighbors(row))
            self._neighbor_table[row] = nb
        return nb

    def _draw_threshold(self) -> float:
        """A first-touched victim's threshold, drawn exactly like the
        scalar model's ``_victim_threshold``."""
        profile = self.profile
        return self._rng.lognormvariate(0.0, profile.threshold_sigma) * profile.threshold_mean

    def _spill_flips(
        self,
        socket: int,
        bank: int,
        victim: int,
        aggressor_row: int,
        pressure: float,
        threshold: float,
        when: float,
        out: list[BitFlip],
    ) -> float:
        """Threshold crossings on one victim: append each crossing's
        flipped bits to *out* (scalar RNG order); returns the pressure
        left after subtracting every crossed threshold."""
        rng = self._rng
        inv_bits_mean = 1.0 / self.profile.flip_bits_mean
        row_bits = self.geom.row_bytes * 8
        while pressure >= threshold:
            pressure -= threshold
            n_bits = max(1, round(rng.expovariate(inv_bits_mean)))
            for _ in range(n_bits):
                out.append(
                    BitFlip(
                        socket=socket,
                        bank=bank,
                        row=victim,
                        bit=rng.randrange(row_bits),
                        aggressor_row=aggressor_row,
                        when=when,
                    )
                )
        return pressure

    def _add_pressure_flat(
        self,
        socket: int,
        bank: int,
        aggressor_row: int,
        amount: float,
        when: float,
        press: Any,
        thresh: Any,
    ) -> list[BitFlip]:
        """Mirror of the scalar ``_add_pressure`` over the flat tables."""
        new_flips: list[BitFlip] = []
        for victim, weight in self._neighbor_tuple(aggressor_row):
            pressure = press[victim] + amount * weight
            threshold = thresh[victim]
            if threshold != threshold:  # NaN: first touch, draw like scalar
                threshold = thresh[victim] = self._draw_threshold()
            if pressure >= threshold:
                pressure = self._spill_flips(
                    socket, bank, victim, aggressor_row, pressure, threshold, when,
                    new_flips,
                )
            press[victim] = pressure
        self.flips.extend(new_flips)
        return new_flips

    # ------------------------------------------------------------------
    # DisturbanceModel interface (scalar-compatible overrides)
    # ------------------------------------------------------------------

    def on_activate(self, socket: int, bank: int, row: int, when: float) -> list[BitFlip]:
        """One ACT: self-refresh the aggressor, spill unit pressure."""
        self.geom.check_row(row)
        press, thresh = self._bank_arrays(socket, bank)
        press[row] = 0.0  # the ACT refreshes the activated row itself
        return self._add_pressure_flat(socket, bank, row, 1.0, when, press, thresh)

    def on_row_open_time(
        self, socket: int, bank: int, row: int, seconds: float, when: float
    ) -> list[BitFlip]:
        """RowPress: extra pressure proportional to row-open time."""
        if seconds < 0:
            raise DramError(f"open time must be non-negative, got {seconds}")
        amount = seconds * self.profile.effective_rowpress_rate
        if amount == 0.0:
            return []
        press, thresh = self._bank_arrays(socket, bank)
        return self._add_pressure_flat(socket, bank, row, amount, when, press, thresh)

    def on_refresh_row(self, socket: int, bank: int, row: int) -> None:
        """Targeted (TRR) refresh: drop the row's accumulated pressure."""
        got = self._banks.get((socket, bank))
        if got is not None:
            got[0][row] = 0.0

    def on_refresh_all(self) -> None:
        """Full refresh window: clear every bank's pressure table."""
        # In-place clear keeps any hoisted references to the pressure
        # arrays (run_activation_batch locals) valid across refreshes.
        for press, _ in self._banks.values():
            press[:] = self._zeros

    def pressure_on(self, socket: int, bank: int, row: int) -> float:
        """Accumulated pressure on one row (test observability)."""
        got = self._banks.get((socket, bank))
        return got[0][row] if got is not None else 0.0


def bank_state(dram: "SimulatedDram", socket: int, bank: int) -> tuple[Any, Any, Any]:
    """One bank's ``(pressure, threshold, repairs)`` for the flat body,
    cached in ``dram._act_banks``.

    The pressure and threshold tables are never replaced (a full
    refresh clears them in place) and a bank's repair dict, once it
    exists, is only mutated in place, so an entry can go stale only when
    :meth:`SimulatedDram.add_repair` gives the bank its first repair;
    ``add_repair`` therefore drops the bank's entry."""
    dist = dram.disturbance
    if not isinstance(dist, BatchedDisturbanceModel):
        raise DramError("run_activation_batch needs the vectorized backend")
    state = dram._act_banks[(socket, bank)] = (
        *dist._bank_arrays(socket, bank),
        dram._repairs.get((socket, bank)),
    )
    return state


def check_rows(dram: "SimulatedDram", rows: Sequence[int]) -> None:
    """Raise the canonical range error for the first out-of-bank row."""
    rows_per_bank = dram.geom.rows_per_bank
    for row in rows:
        if not 0 <= row < rows_per_bank:
            dram.geom.check_row(row)


def run_activation_batch(
    dram: "SimulatedDram", socket: int, bank: int, rows: Sequence[int]
) -> list[BitFlip]:
    """Issue *rows* as one batch of ACTs to (socket, bank).

    Requires the module's disturbance model to be a
    :class:`BatchedDisturbanceModel` (the vectorized model is one), and
    every row in range: callers check them (:func:`check_rows`, or the
    single row of a plain ACT), and rows decoded from an address are in
    range by construction.  This is the vectorized backend's one flat
    per-ACT body: :func:`repro.engine.vector.run_activation_batch_vectorized`
    calls it for every batch it does not vectorize, and
    :class:`SimulatedDram` calls it with a one-row batch for every plain
    ACT (``activate`` and each cache line of ``read``/``write``).  Every
    per-ACT side effect of the scalar ``activate`` happens here in the
    same order; fault hooks still fire per activation, so injected
    faults land mid-batch exactly as they would mid-loop.  One-row
    batches are the common case, so set-up is one cached per-bank lookup
    (:func:`bank_state`) plus a few attribute loads: TRR state is
    hoisted only when TRR is on, and RNG draws and flip emission load
    their state only when they happen.
    """
    state = dram._act_banks.get((socket, bank))
    press, thresh, repairs = state or bank_state(dram, socket, bank)
    dist = dram.disturbance
    table = dist._neighbor_table
    counters = dram.counters
    hooks = dram._hooks
    trr = dram.trr
    act_s = dram.act_seconds
    window = dram.refresh_window
    clock = dram.clock
    last_refresh = dram._last_full_refresh
    out: list[BitFlip] = []
    # Observability: one module-attribute read per batch, then a local
    # bool per ACT — the zero-cost-when-disabled contract of repro.obs.
    # Event payloads and ordering mirror the scalar path exactly, so
    # traces are backend-independent (tests/test_obs.py asserts this).
    trace_on = obs.ENABLED

    if trr is not None:
        sampler = trr._sampler(socket, bank)
        trr_random = trr._rng.random
        s_counters = sampler._counters
        cfg = trr.config
        sampled_after = cfg.sampled_acts_after_ref
        sample_prob = cfg.sample_prob
        slots = cfg.slots
        acts_since_ref = sampler._acts_since_ref
        trr_every = dram.trr_ref_every
        bank_acts = dram._acts_by_bank.get((socket, bank), 0)

    for row in rows:
        if hooks:
            counters.activations += 1
        clock += act_s
        if clock - last_refresh >= window:
            dist.on_refresh_all()
            last_refresh = clock
            counters.refresh_windows += 1
            if trace_on:
                obs.emit(obs.RefreshWindowEvent(when=clock))
        if hooks:
            dram.clock = clock
            dram._last_full_refresh = last_refresh
            for hook in hooks:
                hook.on_activate(dram, socket, bank, row)
            # A hook may advance time or plant a late repair; re-sync.
            clock = dram.clock
            last_refresh = dram._last_full_refresh
            repairs = dram._repairs.get((socket, bank))
        internal = repairs.get(row, row) if repairs else row

        if trr is not None:
            # Inlined TrrSampler.observe_maybe (same RNG short-circuit).
            acts_since_ref += 1
            if acts_since_ref <= sampled_after or trr_random() < sample_prob:
                c = s_counters.get(internal)
                if c is not None:
                    s_counters[internal] = c + 1
                elif len(s_counters) < slots:
                    s_counters[internal] = 1
                else:
                    for tracked in list(s_counters):
                        v = s_counters[tracked] - 1
                        if v <= 0:
                            del s_counters[tracked]
                        else:
                            s_counters[tracked] = v
                if trace_on:
                    obs.emit(
                        obs.TrrSampleEvent(
                            socket=socket, bank=bank, row=internal, when=clock
                        )
                    )

        # Inlined disturbance.on_activate: self-refresh, then spill.
        press[internal] = 0.0
        nb = table[internal]
        if nb is None:
            nb = dist._neighbor_tuple(internal)
        new_flips = None
        for victim, weight in nb:
            pressure = press[victim] + weight  # amount == 1.0
            threshold = thresh[victim]
            if threshold != threshold:  # NaN: draw in scalar first-touch order
                threshold = thresh[victim] = dist._draw_threshold()
            if pressure >= threshold:
                if new_flips is None:
                    new_flips = []
                pressure = dist._spill_flips(
                    socket, bank, victim, internal, pressure, threshold, clock,
                    new_flips,
                )
            press[victim] = pressure
        if new_flips:
            dist.flips.extend(new_flips)
            dram.clock = clock
            out.extend(dram._apply_internal_flips(socket, bank, new_flips))

        if trr is not None:
            bank_acts += 1
            if bank_acts % trr_every == 0:
                counters.trr_refs += 1
                sampler._acts_since_ref = acts_since_ref
                for victim in trr.on_ref(socket, bank, when=clock):
                    press[victim] = 0.0
                acts_since_ref = sampler._acts_since_ref  # 0 after take_targets

    dram.clock = clock
    dram._last_full_refresh = last_refresh
    if not hooks:
        counters.activations += len(rows)
    if trr is not None:
        sampler._acts_since_ref = acts_since_ref
        dram._acts_by_bank[(socket, bank)] = bank_acts
    return out
