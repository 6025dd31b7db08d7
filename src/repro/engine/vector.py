"""The vectorized (numpy) hot-path simulation engine.

The fast :class:`~repro.engine.backend.SimBackend`: the fallback loop of
:mod:`repro.engine.batch` already flattens the per-ACT call frames, but
it still walks Python bytecode once per activation.  This module moves
the RNG-free bulk math of a whole activation batch into numpy while
keeping the repo's golden equivalence contract — every flip set, TRR
decision, ECC event and health escalation is bit-identical to the scalar
reference.  The design splits each batch into:

1. **Deterministic bulk math (numpy).**  The clock trajectory, refresh
   window detection, TRR tick schedule, per-victim pressure trajectories
   and threshold-crossing detection are all RNG-free, so they vectorize.
   Exactness holds because ``np.cumsum`` on float64 is a sequential left
   fold (identical rounding to the scalar ``+=`` chain), zero terms obey
   ``p + 0.0 == p``, and the refresh-window check replicates the scalar
   subtraction form ``clock - last_refresh >= window`` elementwise.

2. **Rare RNG-consuming events (exact scalar code).**  First-touch
   threshold draws are handled by running the per-ACT fallback loop over
   a prefix of the batch until every victim has a drawn threshold;
   threshold-crossing flip emission replays the scalar draw sequence in
   global ``(ACT index, neighbor order)`` order.  Crucially the pressure
   trajectory itself is RNG-free (the crossing loop subtracts the
   threshold deterministically; randomness only picks flipped bits), so
   crossings never invalidate the bulk math of other victims.

3. **TRR sampling via MT19937 state transplant.**  CPython's ``random``
   and numpy's legacy ``RandomState`` share the Mersenne Twister core
   and the 53-bit double recipe, so :func:`bulk_uniforms` generates the
   exact per-ACT sampling stream in one call and resynchronizes the
   Python generator afterwards.  Sampler counter updates (a fraction of
   ACTs) and REF-tick target selection stay scalar, replayed in time
   order.

Attack batches are almost always ``rows * rounds`` tilings of a short
hammer pattern (:func:`repro.attack.hammer.run_pattern`), so the runner
first looks for an exact period.  A periodic batch does its per-ACT
victim math on the period only and folds all rounds with one small
tiled cumsum (:func:`_span_tiled`); everything else — non-periodic
batches, spans containing refresh windows or TRR victim refreshes —
takes the generic whole-batch matrix path (:func:`_finals_generic`).
Both produce identical state.

Victims the screen cannot clear are replayed by one exact scalar walk
(:func:`_walk_exact`) shared by both paths.  It visits only the
victim's real touches — the ACTs that add to its pressure or reset it
— because every other ACT adds ``0.0``, an exact no-op.  A periodic
victim's touches are compressed once per period on the cached tile
entry (:func:`_tile_walk`), so a pattern replayed at many base rows
builds them once.

Batches with registered fault hooks, with tracing enabled, or shorter
than :data:`MIN_VECTOR_BATCH` delegate to the (equivalent) fallback loop:
hooks mutate mid-batch state, traces must interleave per ACT, and short
vectors do not amortize the numpy set-up cost.
"""

from __future__ import annotations

import random
from typing import TYPE_CHECKING, Any, Callable, Sequence

import numpy as np

from repro import obs
from repro.dram.disturbance import BitFlip, DisturbanceProfile
from repro.dram.geometry import DRAMGeometry
from repro.engine.batch import BatchedDisturbanceModel, check_rows, run_activation_batch
from repro.errors import DramError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (module -> engine)
    from repro.dram.module import SimulatedDram

#: Batches shorter than this run through the per-ACT fallback loop (still
#: bit-identical, just not vectorized).  Patchable in tests: 0 forces the
#: vector path onto tiny batches, a huge value forces every batch onto
#: the fallback loop.
MIN_VECTOR_BATCH: int = 96

#: How far into a batch to look for a repeat of its first row when
#: detecting ``rows * rounds`` tilings; hammer patterns are far shorter.
_PERIOD_WINDOW: int = 128

#: Relative slack used when screening approximate trajectories against
#: thresholds.  The approximation (cumsum minus a segment baseline, or
#: the periodic-case count/gap bounds) can differ from the exact fold by
#: accumulated rounding of order ``n * eps * max|cumsum|``; the screen
#: widens the threshold test by a far larger slack so no exact crossing
#: is ever missed, and every screened victim is re-walked with exact
#: scalar arithmetic anyway.
_SCREEN_SLACK: float = 1e-9

_EMPTY_F64 = np.empty(0, dtype=np.float64)

#: The generator :func:`bulk_uniforms` transplants states into.  Built
#: once: ``RandomState()`` seeds itself from OS entropy, which every
#: call would pay only to have ``set_state`` overwrite it.
_BULK_RS = np.random.RandomState(0)


def bulk_uniforms(rng: random.Random, n: int) -> np.ndarray:
    """Draw *n* doubles bit-identical to ``[rng.random() for _ in range(n)]``.

    Transplants the 624-word MT19937 state into a legacy numpy
    ``RandomState``, bulk-generates, then resynchronizes *rng* from the
    final numpy state so subsequent scalar draws continue the stream
    exactly where the bulk draw left it.  Each call overwrites the whole
    state of the shared generator, so calls on different streams never
    leak into each other.
    """
    if n <= 0:
        return _EMPTY_F64
    version, internal, gauss_next = rng.getstate()
    rs = _BULK_RS
    rs.set_state(("MT19937", np.asarray(internal[:-1], dtype=np.uint32), internal[-1]))
    out = rs.random_sample(n)
    state: Any = rs.get_state()
    rng.setstate((version, tuple(state[1].tolist()) + (int(state[2]),), gauss_next))
    return out


class VectorizedDisturbanceModel(BatchedDisturbanceModel):
    """Numpy views over the flat disturbance state, RNG-compatible with
    the scalar model.

    The per-(socket, bank) pressure and threshold tables are the base
    model's ``array('d')`` tables: the per-ACT fallback loop (and every
    single ACT, see :meth:`SimulatedDram.activate`) indexes them
    element-wise, where ``array('d')`` returns plain Python floats at
    roughly half numpy's per-element cost.  :meth:`_np_bank_arrays`
    hands :func:`run_activation_batch_vectorized` ``np.float64`` views
    sharing the same memory for its bulk math.  IEEE-754 arithmetic on
    either side matches bit for bit.
    """

    def __init__(
        self,
        geom: DRAMGeometry,
        profile: DisturbanceProfile | None = None,
        *,
        seed: int = 0,
    ):
        super().__init__(geom, profile, seed=seed)
        #: (socket, bank) -> numpy views of that bank's ``_banks`` tables.
        self._np_banks: dict[tuple[int, int], tuple[np.ndarray, np.ndarray]] = {}
        # Periodic-batch structures keyed on (subarray alignment, edge
        # anchor, shifted period rows): campaigns replay the same hammer
        # pattern at many base rows, so the victim tables and fold
        # templates are reused wholesale across banks and base rows.
        self._tile_cache: dict[tuple[int, int, bytes], dict[str, Any]] = {}

    def _np_bank_arrays(self, socket: int, bank: int) -> tuple[np.ndarray, np.ndarray]:
        """Writable ``np.float64`` views of one bank's (pressure,
        threshold) tables; writes through them land in the flat tables."""
        key = (socket, bank)
        got = self._np_banks.get(key)
        if got is None:
            press, thresh = self._bank_arrays(socket, bank)
            got = (
                np.frombuffer(press, dtype=np.float64),
                np.frombuffer(thresh, dtype=np.float64),
            )
            self._np_banks[key] = got
        return got


def _find_period(arr: np.ndarray) -> int:
    """Smallest ``L`` with ``arr == tile(arr[:L])``, or 0 when none.

    Only periods up to :data:`_PERIOD_WINDOW` are considered (hammer
    patterns are short) and only true tilings qualify: ``n % L == 0``
    plus the full self-overlap check ``arr[L:] == arr[:-L]``.
    """
    n = int(arr.size)
    if n < 2:
        return 0
    win = min(n // 2, _PERIOD_WINDOW)
    cand = np.flatnonzero(arr[1 : win + 1] == arr[0]) + 1
    for L in cand.tolist():
        if n % L == 0 and bool((arr[L:] == arr[:-L]).all()):
            return int(L)
    return 0


def run_activation_batch_vectorized(
    dram: "SimulatedDram", socket: int, bank: int, rows: Sequence[int]
) -> list[BitFlip]:
    """Issue *rows* as one batch of ACTs through the vectorized engine.

    Requires the module's disturbance model to be a
    :class:`VectorizedDisturbanceModel`; callers go through
    :meth:`SimulatedDram.activate_batch`.  Produces bit-identical state
    and results to the scalar backend (enforced by
    ``tests/test_differential.py``).
    """
    dist = dram.disturbance
    if not isinstance(dist, VectorizedDisturbanceModel):
        raise DramError("run_activation_batch_vectorized needs the vectorized backend")
    rows = rows if isinstance(rows, list) else list(rows)
    if not rows or len(rows) < MIN_VECTOR_BATCH or dram._hooks or obs.ENABLED:
        # Fault hooks mutate mid-batch state, tracing must interleave
        # events per ACT, and short batches don't amortize the numpy
        # set-up; the fallback loop is exact for all three.
        check_rows(dram, rows)
        return run_activation_batch(dram, socket, bank, rows)

    geom = dram.geom
    try:
        rows_arr = np.asarray(rows, dtype=np.int64)
    except (OverflowError, TypeError):
        check_rows(dram, rows)
        return run_activation_batch(dram, socket, bank, rows)
    minrow = int(rows_arr.min())
    maxrow = int(rows_arr.max())
    if minrow < 0 or maxrow >= geom.rows_per_bank:
        bad = (rows_arr < 0) | (rows_arr >= geom.rows_per_bank)
        geom.check_row(int(rows_arr[np.argmax(bad)]))  # raises the canonical error

    repairs = dram._repairs.get((socket, bank))
    _, thresh = dist._np_bank_arrays(socket, bank)
    out: list[BitFlip] = []

    period = _find_period(rows_arr)
    if period:
        # Media -> internal rows (vendor repairs); static without hooks.
        base_media = rows_arr[:period]
        if repairs:
            media_distinct, base_inv = np.unique(base_media, return_inverse=True)
            internal_of = np.asarray(
                [repairs.get(int(r), int(r)) for r in media_distinct],
                dtype=np.int64,
            )
            base_internal = internal_of[base_inv]
        else:
            base_internal = base_media
        rounds = len(rows) // period
        if repairs:
            iminrow = int(base_internal.min())
            imaxrow = int(base_internal.max())
        else:
            iminrow, imaxrow = minrow, maxrow
        # The victim structure is translation-invariant: neighbor tables
        # depend only on row deltas, the subarray alignment of the rows,
        # and bank-edge clamping.  Key entries on the shifted pattern so
        # a pattern swept across base rows reuses one entry.
        radius = dist.profile.blast_radius
        lo, hi = iminrow - radius, imaxrow + radius
        if 0 <= lo and hi < geom.rows_per_bank and lo // geom.rows_per_subarray == hi // geom.rows_per_subarray:
            # Whole blast span interior to one subarray: no victim is
            # dropped at a subarray or bank edge, so the entry is fully
            # shift-invariant and every base row shares one key.
            align, anchor = -1, -1
        else:
            align = iminrow % geom.rows_per_subarray
            anchor = iminrow if (lo < 0 or hi >= geom.rows_per_bank) else -1
        key = (align, anchor, (base_internal - iminrow).tobytes())
        entry = dist._tile_cache.get(key)
        if entry is None:
            distinct, base_idx = np.unique(base_internal, return_inverse=True)
            entry = _build_tile_entry(dist, base_internal, base_idx, distinct, iminrow)
            if len(dist._tile_cache) >= 128:
                dist._tile_cache.clear()
            dist._tile_cache[key] = entry
        shift = iminrow - entry["minrow0"]
        if entry["V"]:
            vr = entry["vrows_arr"] + shift if shift else entry["vrows_arr"]
            if bool(np.isnan(thresh[vr]).any()):
                # First-touch threshold draws: run one whole period
                # through the exact per-ACT loop (every aggressor —
                # hence every victim — occurs in it, so every victim
                # threshold gets drawn), then vectorize the other rounds.
                out.extend(run_activation_batch(dram, socket, bank, rows[:period]))
                rounds -= 1
                if not rounds:
                    return out
        out.extend(_span_tiled(dram, dist, socket, bank, entry, rounds, shift))
        return out

    distinct_media, inv = np.unique(rows_arr, return_inverse=True)
    if repairs:
        internal_of = np.asarray(
            [repairs.get(int(r), int(r)) for r in distinct_media], dtype=np.int64
        )
        internal_arr = internal_of[inv]
        distinct, agg_idx = np.unique(internal_arr, return_inverse=True)
    else:
        internal_arr = rows_arr
        distinct, agg_idx = distinct_media, inv

    # First-touch prefix: run the exact per-ACT loop until every victim
    # of every aggressor in the batch has a drawn (non-NaN) threshold,
    # so the vector span below never consumes the disturbance RNG except
    # at crossings.
    k = 0
    for ai, r in enumerate(distinct.tolist()):
        if any(thresh[v] != thresh[v] for v, _w in dist._neighbor_tuple(int(r))):
            k = max(k, int(np.argmax(agg_idx == ai)) + 1)
    if k:
        out.extend(run_activation_batch(dram, socket, bank, rows[:k]))
        if k == len(rows):
            return out
        # Keep the full `distinct`: absent aggressors simply never match
        # in the sliced agg_idx, so their wlut rows go unused.
        internal_arr = internal_arr[k:]
        agg_idx = agg_idx[k:]
    out.extend(_span_generic(dram, dist, socket, bank, internal_arr, distinct, agg_idx))
    return out


def _span_clock(dram: "SimulatedDram", n: int) -> np.ndarray:
    """clk[t] = clock during ACT t; cumsum is a sequential left fold, so
    every partial sum matches the scalar ``clock += act_s`` chain bit
    for bit."""
    clk = np.empty(n + 1, dtype=np.float64)
    clk[0] = dram.clock
    clk[1:] = dram.act_seconds
    np.cumsum(clk, out=clk)
    return clk[1:]


def _span_head(
    dram: "SimulatedDram",
    socket: int,
    bank: int,
    n: int,
    clk: np.ndarray,
    row_at: Callable[[int], int],
) -> tuple[list[int], list[tuple[int, list[int]]], float]:
    """Per-span refresh-window scan and TRR pass, shared by both spans.

    Returns ``(window_pos, trr_victims, last_refresh)`` and mutates the
    TRR sampler/RNG/counter state exactly like the fallback loop would.
    Disturbance state never feeds back into TRR, so this whole pass is
    valid regardless of later crossing events.
    """
    counters = dram.counters

    # Refresh-window events (rare): exact subtraction-form scan.
    window = dram.refresh_window
    last_refresh = dram._last_full_refresh
    window_pos: list[int] = []
    t0 = 0
    while True:
        hit = np.nonzero(clk[t0:] - last_refresh >= window)[0]
        if hit.size == 0:
            break
        t = t0 + int(hit[0])
        window_pos.append(t)
        last_refresh = float(clk[t])
        t0 = t + 1

    # TRR pass: tick schedule, bulk sampling draws, scalar counter/REF
    # replay in time order.
    trr = dram.trr
    bank_key = (socket, bank)
    trr_victims: list[tuple[int, list[int]]] = []
    if trr is not None:
        sampler = trr._sampler(socket, bank)
        cfg = trr.config
        trr_every = dram.trr_ref_every
        bank_acts0 = dram._acts_by_bank.get(bank_key, 0)
        first_tick = trr_every - (bank_acts0 % trr_every) - 1
        ticks = (
            np.arange(first_tick, n, trr_every, dtype=np.int64)
            if first_tick < n
            else np.empty(0, dtype=np.int64)
        )
        tpos = np.arange(n, dtype=np.int64)
        s0 = sampler._acts_since_ref
        if ticks.size:
            prev = np.searchsorted(ticks, tpos, side="left")
            s_arr = np.where(
                prev == 0, s0 + tpos + 1, tpos - ticks[np.maximum(prev - 1, 0)]
            )
        else:
            s_arr = s0 + tpos + 1
        draw_mask = s_arr > cfg.sampled_acts_after_ref
        draws = bulk_uniforms(trr._rng, int(draw_mask.sum()))
        observed = ~draw_mask
        if draws.size:
            observed[draw_mask] = draws < cfg.sample_prob
        olist = np.nonzero(observed)[0].tolist()
        tlist = ticks.tolist()
        s_counters = sampler._counters
        slots = cfg.slots
        oi = ti = 0
        while oi < len(olist) or ti < len(tlist):
            # A sample and a REF tick on the same ACT: sample first.
            if ti >= len(tlist) or (oi < len(olist) and olist[oi] <= tlist[ti]):
                t = olist[oi]
                oi += 1
                row = row_at(t)
                c = s_counters.get(row)
                if c is not None:
                    s_counters[row] = c + 1
                elif len(s_counters) < slots:
                    s_counters[row] = 1
                else:
                    for tracked in list(s_counters):
                        v = s_counters[tracked] - 1
                        if v <= 0:
                            del s_counters[tracked]
                        else:
                            s_counters[tracked] = v
            else:
                t = tlist[ti]
                ti += 1
                counters.trr_refs += 1
                victims = trr.on_ref(socket, bank, when=float(clk[t]))
                if victims:
                    trr_victims.append((t, victims))
        sampler._acts_since_ref = (n - 1 - tlist[-1]) if tlist else s0 + n
        dram._acts_by_bank[bank_key] = bank_acts0 + n
    return window_pos, trr_victims, last_refresh


def _emit_events(
    dram: "SimulatedDram",
    dist: VectorizedDisturbanceModel,
    socket: int,
    bank: int,
    events: list[tuple[int, int, int, int]],
    clk: np.ndarray,
    row_at: Callable[[int], int],
    vrows: list[int],
) -> list[BitFlip]:
    """Replay threshold crossings in global (ACT, neighbor-order) order,
    consuming the disturbance RNG exactly like the scalar path."""
    events.sort()
    rng = dist._rng
    profile = dist.profile
    inv_bits_mean = 1.0 / profile.flip_bits_mean
    row_bits = dram.geom.row_bytes * 8
    flips_out: list[BitFlip] = []
    for t, _order, j, spills in events:
        when = float(clk[t])
        new_flips = []
        for _ in range(spills):
            n_bits = max(1, round(rng.expovariate(inv_bits_mean)))
            for _ in range(n_bits):
                new_flips.append(
                    BitFlip(
                        socket=socket,
                        bank=bank,
                        row=vrows[j],
                        bit=rng.randrange(row_bits),
                        aggressor_row=row_at(t),
                        when=when,
                    )
                )
        dist.flips.extend(new_flips)
        dram.clock = when
        flips_out.extend(dram._apply_internal_flips(socket, bank, new_flips))
    return flips_out


#: One victim's real touches in a span (or one period of it):
#: ``(t, weight, neighbor order, reset)`` in time order.  ``reset``
#: zeroes the pressure before the weight is added; a reset-only touch
#: carries weight ``0.0``.
Walk = list[tuple[int, float, int, bool]]


def _touches(weight: np.ndarray, order: np.ndarray, reset: np.ndarray) -> Walk:
    """The :data:`Walk` of one victim from its per-ACT weight, neighbor
    order and reset columns: only the ACTs that touch or reset it."""
    ts = np.flatnonzero(reset | (weight != 0.0))
    return list(
        zip(ts.tolist(), weight[ts].tolist(), order[ts].tolist(), reset[ts].tolist())
    )


def _walk_exact(
    walk: Walk,
    period: int,
    rounds: int,
    p: float,
    threshold: float,
    j: int,
    events: list[tuple[int, int, int, int]],
) -> float:
    """The authoritative exact walk of one screened victim.

    Folds *walk* ``rounds`` times (touch ``t`` of round ``r`` is ACT
    ``r * period + t``) with the scalar model's arithmetic, appends every
    threshold crossing to *events* as ``(ACT, order, j, spills)`` and
    returns the final pressure.  ACTs that neither touch nor reset the
    victim are exact no-ops (``p + 0.0 == p``), so they are skipped.
    """
    for toff in range(0, period * rounds, period):
        for t, w, order, reset in walk:
            if reset:
                p = 0.0
            if w != 0.0:
                p = p + w
                if p >= threshold:
                    spills = 0
                    while p >= threshold:
                        p -= threshold
                        spills += 1
                    events.append((toff + t, order, j, spills))
    return p


def _span_generic(
    dram: "SimulatedDram",
    dist: VectorizedDisturbanceModel,
    socket: int,
    bank: int,
    internal_arr: np.ndarray,
    distinct: np.ndarray,
    agg_idx: np.ndarray,
) -> list[BitFlip]:
    """Whole-batch matrix path for non-periodic spans."""
    n = int(internal_arr.size)
    clk = _span_clock(dram, n)
    window_pos, trr_victims, last_refresh = _span_head(
        dram, socket, bank, n, clk, lambda t: int(internal_arr[t])
    )
    return _finals_generic(
        dram,
        dist,
        socket,
        bank,
        internal_arr,
        distinct,
        agg_idx,
        clk,
        window_pos,
        trr_victims,
        last_refresh,
    )


def _finals_generic(
    dram: "SimulatedDram",
    dist: VectorizedDisturbanceModel,
    socket: int,
    bank: int,
    internal_arr: np.ndarray,
    distinct: np.ndarray,
    agg_idx: np.ndarray,
    clk: np.ndarray,
    window_pos: list[int],
    trr_victims: list[tuple[int, list[int]]],
    last_refresh: float,
) -> list[BitFlip]:
    """Generic finals: dense (ACT, victim) reset masks, screened cumsum
    trajectories, exact re-walk of screened victims."""
    n = int(internal_arr.size)
    counters = dram.counters
    press, thresh = dist._np_bank_arrays(socket, bank)

    # Victim structure: per-ACT contribution matrix Wt (n, V) and the
    # neighbor-order table used to sequence same-ACT crossing draws.
    nbs = [dist._neighbor_tuple(int(r)) for r in distinct.tolist()]
    vrows: list[int] = []
    vindex: dict[int, int] = {}
    for nb in nbs:
        for v, _w in nb:
            if v not in vindex:
                vindex[v] = len(vrows)
                vrows.append(v)
    V = len(vrows)
    A = len(nbs)
    wlut = np.zeros((A, max(V, 1)), dtype=np.float64)
    order_lut = np.zeros((A, max(V, 1)), dtype=np.int64)
    for ai, nb in enumerate(nbs):
        for no_, (v, w) in enumerate(nb):
            wlut[ai, vindex[v]] = w
            order_lut[ai, vindex[v]] = no_

    extra_refreshed: list[int] = []
    flips_out: list[BitFlip] = []
    if V:
        Wt = wlut[agg_idx]  # (n, V)
        vrows_arr = np.asarray(vrows, dtype=np.int64)

        # Reset masks.  Before ACT t's adds: the victim's own activation
        # (an ACT refreshes its row) and full refresh windows.  After
        # ACT t's adds: TRR neighbor refreshes at that tick.
        Rb = np.zeros((n, V), dtype=bool)
        for ai, r in enumerate(distinct.tolist()):
            j = vindex.get(int(r))
            if j is not None:
                Rb[:, j] = agg_idx == ai
        for t in window_pos:
            Rb[t, :] = True
        Ra = np.zeros((n, V), dtype=bool)
        for t, victims in trr_victims:
            for v in victims:
                j2 = vindex.get(v)
                if j2 is not None:
                    Ra[t, j2] = True
                else:
                    extra_refreshed.append(v)

        # Approximate trajectories (screening only).  C is nondecreasing
        # per column, so a running maximum over per-reset baselines picks
        # the most recent segment start.
        p0 = press[vrows_arr].copy()
        C = np.cumsum(Wt, axis=0)
        base = np.where(Rb, C - Wt, -np.inf)
        if n > 1:
            after = np.where(Ra[:-1], C[:-1], -np.inf)
            np.maximum(base[1:], after, out=base[1:])
        base[0] = np.maximum(base[0], -p0)
        np.maximum.accumulate(base, axis=0, out=base)
        approx = C - base
        T = thresh[vrows_arr]  # finite: first-touch prefix drew them all
        slack = _SCREEN_SLACK * (
            float(C[-1].max(initial=0.0)) + float(p0.max(initial=0.0)) + 1.0
        )
        suspect_cols = np.nonzero((approx >= T[None, :] - slack).any(axis=0))[0]

        # Exact final pressures for all victims: one padded cumsum over
        # each victim's final segment (crossing-free by screening; any
        # suspect victim is overridden by its exact walk below).
        any_b = Rb.any(axis=0)
        any_a = Ra.any(axis=0)
        last_b = np.where(any_b, n - 1 - np.argmax(Rb[::-1], axis=0), -1)
        last_a = np.where(any_a, n - 1 - np.argmax(Ra[::-1], axis=0), -1)
        seg_start = np.maximum(np.maximum(last_b, last_a + 1), 0)
        p_init = np.where(any_b | any_a, 0.0, p0)
        seg_len = n - seg_start
        max_len = int(seg_len.max())
        pad = np.zeros((V, max_len + 1), dtype=np.float64)
        pad[:, 0] = p_init
        if max_len:
            cols = seg_start[:, None] + np.arange(max_len)[None, :]
            valid = cols < n
            pad[:, 1:] = np.where(
                valid, Wt[np.minimum(cols, n - 1), np.arange(V)[:, None]], 0.0
            )
        np.cumsum(pad, axis=1, out=pad)
        finals = pad[np.arange(V), seg_len]

        # Authoritative exact walk for screened victims: the pressure
        # trajectory is RNG-free (crossings subtract the threshold
        # deterministically), so each column replays independently and
        # only the flip draws below need global ordering.  A reset after
        # ACT t is a reset before ACT t + 1 (nothing happens in between);
        # one after the last ACT leaves the victim at zero.
        events: list[tuple[int, int, int, int]] = []  # (t, order, j, spills)
        for j in suspect_cols.tolist():
            reset = Rb[:, j].copy()
            reset[1:] |= Ra[:-1, j]
            walk = _touches(Wt[:, j], order_lut[agg_idx, j], reset)
            p = _walk_exact(walk, n, 1, float(p0[j]), float(T[j]), j, events)
            finals[j] = 0.0 if Ra[-1, j] else p

        if events:
            flips_out.extend(
                _emit_events(
                    dram,
                    dist,
                    socket,
                    bank,
                    events,
                    clk,
                    lambda t: int(internal_arr[t]),
                    vrows,
                )
            )
    else:
        for _t, victims in trr_victims:
            extra_refreshed.extend(victims)

    # State write-back.  A refresh window clears *every* bank (matching
    # on_refresh_all); victim finals already account for the in-span
    # resets, and rows whose last touch was a self-activation or a TRR
    # refresh end at zero.
    if window_pos:
        dist.on_refresh_all()
        counters.refresh_windows += len(window_pos)
    if V:
        press[vrows_arr] = finals
    for r in distinct.tolist():
        if int(r) not in vindex:
            press[int(r)] = 0.0
    for v in extra_refreshed:
        if v not in vindex:
            press[v] = 0.0
    counters.activations += n
    dram.clock = float(clk[-1])
    dram._last_full_refresh = last_refresh
    return flips_out


def _build_tile_entry(
    dist: VectorizedDisturbanceModel,
    base_internal: np.ndarray,
    base_idx: np.ndarray,
    distinct: np.ndarray,
    minrow0: int,
) -> dict[str, Any]:
    """Precompute everything about one period pattern that is state-free.

    The entry depends only on the period's internal rows and the model's
    static neighbor table, so it is reused across every batch replaying
    the same pattern — on any bank and (via a row shift) at any base row
    with the same subarray alignment: victim tables, the compressed
    per-period touch matrix, self-reset gap statistics, tail folds and,
    built on first use, each screened victim's walk (:func:`_tile_walk`).
    Per-call state (pressures, thresholds, clock, TRR phase) stays out.
    """
    L = int(base_internal.size)
    A = int(distinct.size)
    nbs = [dist._neighbor_tuple(int(r)) for r in distinct.tolist()]
    vrows: list[int] = []
    vindex: dict[int, int] = {}
    for nb in nbs:
        for v, _w in nb:
            if v not in vindex:
                vindex[v] = len(vrows)
                vrows.append(v)
    V = len(vrows)
    entry: dict[str, Any] = {
        "L": L,
        "V": V,
        "minrow0": minrow0,
        "base_internal": base_internal,
        "base_idx": base_idx,
        "base_list": base_internal.tolist(),
        "distinct": distinct,
        "vrows": vrows,
        "nonvictims": [int(r) for r in distinct.tolist() if int(r) not in vindex],
        "walks": {},  # victim j -> its per-period Walk, built lazily
        "pads": {},  # rounds -> tiled fold template
    }
    if not V:
        return entry
    wlut = np.zeros((A, V), dtype=np.float64)
    order_lut = np.zeros((A, V), dtype=np.int64)
    for ai, nb in enumerate(nbs):
        for no_, (v, w) in enumerate(nb):
            wlut[ai, vindex[v]] = w
            order_lut[ai, vindex[v]] = no_
    base_W = wlut[base_idx]  # (L, V)
    counts = np.bincount(base_idx, minlength=A).astype(np.float64)
    total_add_base = counts @ wlut  # per-round added pressure (bound only)
    wmax = wlut.max(axis=0)
    self_ai = np.searchsorted(distinct, vrows_arr := np.asarray(vrows, dtype=np.int64))
    has_self = (self_ai < A) & (distinct[np.minimum(self_ai, A - 1)] == vrows_arr)

    # Per self-activating victim: (j, first ACT, largest reset-free gap,
    # max weight, tail weights after its last own ACT in a period).
    self_data: list[tuple[int, int, int, float, list[float]]] = []
    for j in np.nonzero(has_self)[0].tolist():
        pos = np.flatnonzero(base_idx == int(self_ai[j]))
        q0 = int(pos[0])
        gap_in = int(np.diff(pos).max()) if pos.size > 1 else 0
        gap_max = max(gap_in, L - int(pos[-1]) + q0)
        tail = [w for w in base_W[int(pos[-1]) + 1 :, j].tolist() if w != 0.0]
        self_data.append((j, q0, gap_max, float(wmax[j]), tail))

    # Compressed per-period touch matrix: each victim's nonzero weights
    # in time order, right-padded with exact-no-op zeros.
    nzj, nzt = np.nonzero(base_W.T)
    cnt = np.bincount(nzj, minlength=V)
    P = int(cnt.max()) if nzj.size else 0
    comp = np.zeros((V, max(P, 1)), dtype=np.float64)
    if P:
        offs = np.cumsum(cnt) - cnt
        rank = np.arange(nzj.size, dtype=np.int64) - offs[nzj]
        comp[nzj, rank] = base_W[nzt, nzj]
    entry.update(
        order_lut=order_lut,
        base_W=base_W,
        vrows_arr=vrows_arr,
        total_add_base=total_add_base,
        max_total_base=float(total_add_base.max(initial=0.0)),
        self_ai=self_ai,
        has_self=has_self,
        self_data=self_data,
        comp=comp,
        P=P,
    )
    return entry


def _tile_pad_template(entry: dict[str, Any], rounds: int) -> np.ndarray:
    """Fold template for *rounds*: ``[seed, comp, comp, ...]`` per row."""
    pads: dict[int, np.ndarray] = entry["pads"]
    tmpl = pads.get(rounds)
    if tmpl is None:
        V: int = entry["V"]
        P: int = entry["P"]
        tmpl = np.zeros((V, 1 + P * rounds), dtype=np.float64)
        if P:
            tmpl[:, 1:] = np.tile(entry["comp"], rounds)
        if len(pads) >= 8:
            pads.clear()
        pads[rounds] = tmpl
    return tmpl


def _tile_walk(entry: dict[str, Any], j: int) -> Walk:
    """Victim *j*'s real touches in one period of the entry's pattern:
    the ACTs that add its pressure or reset it (its own activations).
    Built on first use and kept on the entry, next to ``order_lut``."""
    walks: dict[int, Walk] = entry["walks"]
    walk = walks.get(j)
    if walk is None:
        base_idx: np.ndarray = entry["base_idx"]
        own = (base_idx == int(entry["self_ai"][j])) & bool(entry["has_self"][j])
        walk = walks[j] = _touches(
            entry["base_W"][:, j], entry["order_lut"][base_idx, j], own
        )
    return walk


def _span_tiled(
    dram: "SimulatedDram",
    dist: VectorizedDisturbanceModel,
    socket: int,
    bank: int,
    entry: dict[str, Any],
    rounds: int,
    shift: int,
) -> list[BitFlip]:
    """Periodic-batch fast path: per-ACT math on the period only.

    Exact finals come from one small cumsum over each victim's compact
    per-period touch sequence tiled ``rounds`` times (zero pads are
    rounding no-ops), seeded with the victim's entry pressure.  Victims
    reset by their own activations fold only the tail after the last
    self-ACT, and victims screened as possible threshold crossers are
    re-walked with exact scalar arithmetic over their real touches only
    (:func:`_tile_walk`, :func:`_walk_exact`): ``rounds`` passes over
    the period's touching ACTs, not ``rounds * L`` steps.  Spans that
    contain refresh windows or TRR victim refreshes fall back to the
    generic matrix path (same head state, so no RNG divergence).
    """
    L: int = entry["L"]
    n = L * rounds
    clk = _span_clock(dram, n)
    base_list: list[int] = entry["base_list"]
    window_pos, trr_victims, last_refresh = _span_head(
        dram, socket, bank, n, clk, lambda t: base_list[t % L] + shift
    )
    if window_pos or trr_victims:
        internal_arr = np.tile(entry["base_internal"], rounds)
        distinct: np.ndarray = entry["distinct"]
        if shift:
            internal_arr = internal_arr + shift
            distinct = distinct + shift
        agg_idx = np.tile(entry["base_idx"], rounds)
        return _finals_generic(
            dram,
            dist,
            socket,
            bank,
            internal_arr,
            distinct,
            agg_idx,
            clk,
            window_pos,
            trr_victims,
            last_refresh,
        )

    counters = dram.counters
    press, thresh = dist._np_bank_arrays(socket, bank)
    V: int = entry["V"]
    flips_out: list[BitFlip] = []
    if V:
        vrows_arr: np.ndarray = entry["vrows_arr"]
        if shift:
            vrows_arr = vrows_arr + shift
        p0 = press[vrows_arr]  # fancy indexing gathers a copy
        T = thresh[vrows_arr]  # finite: first-touch period drew them all

        # Screening bounds (upper bounds on the whole trajectory — resets
        # and crossings only ever lower it).  Pure victims: entry
        # pressure plus everything the span can add.  Self-activating
        # victims: their own ACTs reset them, so the largest reset-free
        # gap (in ACTs, each adding at most the victim's max weight)
        # bounds the peak much tighter.
        self_data: list[tuple[int, int, int, float, list[float]]] = entry["self_data"]
        bound = p0 + entry["total_add_base"] * rounds
        for j, q0, gap_max, wm, _tail in self_data:
            b = max(p0[j] + q0 * wm, gap_max * wm)
            if b < bound[j]:
                bound[j] = b
        slack = _SCREEN_SLACK * (
            entry["max_total_base"] * rounds + float(p0.max(initial=0.0)) + 1.0
        )
        suspect_js: list[int] = np.nonzero(bound >= T - slack)[0].tolist()

        # Exact finals for every victim at once: seed the cached tiled
        # touch template with p0, one sequential-fold cumsum.
        pad = _tile_pad_template(entry, rounds).copy()
        pad[:, 0] = p0
        np.cumsum(pad, axis=1, out=pad)
        finals = pad[:, -1]

        # Self-activating victims: reset-before semantics zero them at
        # their last own ACT; only the last period's tail contributes.
        suspect_set = set(suspect_js)
        for j, _q0, _gap, _wm, tail in self_data:
            if j in suspect_set:
                continue
            p = 0.0
            for w in tail:
                p += w
            finals[j] = p

        # Authoritative exact walk for screened victims (cf. the generic
        # path); crossings never invalidate other victims' bulk math.
        events: list[tuple[int, int, int, int]] = []  # (t, order, j, spills)
        for j in suspect_js:
            finals[j] = _walk_exact(
                _tile_walk(entry, j), L, rounds, float(p0[j]), float(T[j]), j, events
            )
        if events:
            vrows: list[int] = entry["vrows"]
            if shift:
                vrows = [v + shift for v in vrows]
            flips_out.extend(
                _emit_events(
                    dram,
                    dist,
                    socket,
                    bank,
                    events,
                    clk,
                    lambda t: base_list[t % L] + shift,
                    vrows,
                )
            )

        press[vrows_arr] = finals
    for r in entry["nonvictims"]:
        press[r + shift] = 0.0
    counters.activations += n
    dram.clock = float(clk[-1])
    dram._last_full_refresh = last_refresh
    return flips_out
