"""Unit + edge-case tests for the vectorized engine and its kernels.

The broad equivalence evidence lives in ``tests/test_differential.py``
(seeded mixed programs, every engine leg pairwise).  This module pins
the corners that random programs rarely hit — empty and single-element
batches, batches spanning a refresh-window boundary — plus the exactness
contracts of the individual numpy kernels: the MT19937 bulk-uniform
transplant, period detection, the vectorized address decode, the ECC
word-grouping paths, and the bulk ``read_region`` primitive.
"""

from __future__ import annotations

import random
import sys

import pytest

np = pytest.importorskip("numpy")

import repro.engine.vector as vec
from repro.dram.disturbance import DisturbanceProfile
from repro.dram.ecc import VECTOR_BITS_CUTOFF, WORD_BITS, EccEngine, _words_and_counts
from repro.dram.geometry import DRAMGeometry
from repro.dram.mapping import SkylakeMapping
from repro.dram.module import SimulatedDram
from repro.units import CACHE_LINE

from conftest import ENGINE_LEGS, on_each_leg


def _dram(backend: str, *, seed: int = 11, refresh_window: float | None = None):
    geom = DRAMGeometry.small(rows_per_bank=128, rows_per_subarray=16)
    kwargs = {} if refresh_window is None else {"refresh_window": refresh_window}
    return SimulatedDram(
        geom,
        profile=DisturbanceProfile.test_scale(threshold_mean=60.0),
        seed=seed,
        backend=backend,
        **kwargs,
    )


def _snapshot(dram) -> dict:
    return {
        "flips": list(dram.flips_log),
        "stored": {k: sorted(v) for k, v in dram._flips.items()},
        "counters": vars(dram.counters).copy(),
        "clock": dram.clock,
        "trr": None if dram.trr is None else dram.trr.neighbor_refreshes,
    }


#: Forced ``MIN_VECTOR_BATCH`` values: ``0`` makes even tiny batches
#: exercise the numpy kernels; ``sys.maxsize`` sends every batch
#: through the per-ACT fallback loop.
FORCED_MIN_VECTOR_BATCH = (0, sys.maxsize)


def _run_on_all_backends(ops, monkeypatch) -> None:
    """Apply *ops* to a scalar DRAM and to one vectorized DRAM per
    :data:`FORCED_MIN_VECTOR_BATCH`; assert identical snapshots."""

    def run(backend: str) -> dict:
        dram = _dram(backend, refresh_window=ops.get("refresh_window"))
        for bank, rows in ops["batches"]:
            dram.activate_batch(0, bank, rows)
        return _snapshot(dram)

    scalar = run("scalar")
    for limit in FORCED_MIN_VECTOR_BATCH:
        monkeypatch.setattr(vec, "MIN_VECTOR_BATCH", limit)
        assert run("vectorized") == scalar, f"MIN_VECTOR_BATCH={limit}"


class TestBulkUniforms:
    def test_matches_sequential_draws(self):
        a, b = random.Random(99), random.Random(99)
        assert vec.bulk_uniforms(a, 700).tolist() == [b.random() for _ in range(700)]

    def test_stream_continues_exactly(self):
        a, b = random.Random(5), random.Random(5)
        vec.bulk_uniforms(a, 123)
        for _ in range(123):
            b.random()
        assert [a.random() for _ in range(10)] == [b.random() for _ in range(10)]

    def test_empty_draw_is_a_no_op(self):
        a = random.Random(1)
        state = a.getstate()
        assert vec.bulk_uniforms(a, 0).size == 0
        assert a.getstate() == state

    def test_interleaved_streams_stay_independent(self):
        # Every call reuses one numpy generator; alternating bulk draws
        # on two streams must still reproduce each stream on its own.
        a, b = random.Random(3), random.Random(4)
        ref_a, ref_b = random.Random(3), random.Random(4)
        for n in (5, 700, 1, 64, 333):
            got_a = vec.bulk_uniforms(a, n).tolist()
            got_b = vec.bulk_uniforms(b, n + 7).tolist()
            assert got_a == [ref_a.random() for _ in range(n)]
            assert got_b == [ref_b.random() for _ in range(n + 7)]
        assert a.getstate() == ref_a.getstate()
        assert b.getstate() == ref_b.getstate()


class TestFindPeriod:
    def test_tiled_pattern(self):
        assert vec._find_period(np.array([3, 7] * 50)) == 2

    def test_constant_row(self):
        assert vec._find_period(np.array([5] * 10)) == 1

    def test_partial_tile_rejected(self):
        # ends mid-period: 5 % 2 != 0, and no longer period tiles either
        assert vec._find_period(np.array([1, 2, 1, 2, 1])) == 0

    def test_aperiodic(self):
        assert vec._find_period(np.array([1, 2, 3, 4, 5, 6])) == 0

    def test_single_element(self):
        assert vec._find_period(np.array([4])) == 0


class TestBatchEdgeCases:
    """Identical behavior on scalar, the numpy kernels and the fallback
    loop on corner batches."""

    def test_empty_batch(self, monkeypatch):
        _run_on_all_backends({"batches": [(0, [])]}, monkeypatch)

    def test_single_element_batch(self, monkeypatch):
        _run_on_all_backends({"batches": [(1, [40])]}, monkeypatch)

    def test_single_element_then_hammer(self, monkeypatch):
        _run_on_all_backends(
            {"batches": [(2, [61]), (2, [60, 62] * 400)]}, monkeypatch
        )

    def test_batch_spanning_refresh_window(self, monkeypatch):
        # 60 ns per ACT and a 12 µs window: a 600-ACT batch crosses the
        # refresh-window boundary twice mid-batch, forcing the
        # window-reset path inside the span.
        _run_on_all_backends(
            {
                "refresh_window": 200 * 60e-9,
                "batches": [(0, [30, 32] * 300), (3, [77] * 500)],
            },
            monkeypatch,
        )

    def test_empty_batch_returns_no_flips(self):
        dram = _dram("vectorized")
        assert dram.activate_batch(0, 0, []) == []
        assert dram.clock == 0.0


def _disturbance_tables(dram) -> dict:
    """``(socket, bank, row) -> (pressure, threshold or None)`` for every
    row with state, in one form for the dict and the flat-table models."""
    dist = dram.disturbance
    banks = getattr(dist, "_banks", None)
    if banks is None:
        return {
            key: (dist._pressure.get(key, 0.0), dist._threshold.get(key))
            for key in dist._pressure.keys() | dist._threshold.keys()
        }
    out = {}
    for (socket, bank), (press, thresh) in banks.items():
        for row, (p, t) in enumerate(zip(press, thresh)):
            if p != 0.0 or t == t:
                out[(socket, bank, row)] = (p, t if t == t else None)
    return out


#: Periodic programs aimed at the exact walk (``vec._walk_exact``):
#: name -> (threshold mean, TRR on, repairs, [(bank, rows), ...]).
#: Rows are in the 128-row / 16-row-subarray test geometry.
WALK_PROGRAMS = {
    # Thresholds far below the distance-1 weight (1.0): one ACT spills
    # several thresholds at once.
    "multi_spill": (0.3, False, [], [(0, [20, 22] * 150), (1, [37, 40, 43] * 120)]),
    # Row 41 sits between two aggressors and is activated once per
    # period: it crosses between its own resets, and so do 40 and 42.
    "self_crossing": (
        40.0,
        False,
        [],
        [(0, ([40, 42] * 30 + [41]) * 8), (2, ([72, 73, 74] * 20 + [70]) * 6)],
    ),
    # One pattern swept over base rows and banks: a shared tile entry
    # (and its cached walks) serves every replay.
    "shifted_replays": (
        30.0,
        False,
        [],
        [(bank, [base, base + 2, base + 4] * 100)
         for bank in (0, 3) for base in (18, 19, 21, 22, 50, 51)],
    ),
    # Repaired rows: an aggressor living in a spare row far away, and a
    # victim whose cells were abandoned by its repair.
    "repairs": (
        20.0,
        False,
        [(0, 30, 100), (0, 61, 90)],
        [(0, [29, 31] * 200), (0, [30, 32] * 200), (0, [60, 62] * 200),
         (0, [89, 91] * 200)],
    ),
    # TRR on: victim refreshes land mid-span and send periodic batches
    # through the generic walk, with reset-after semantics.
    "trr_generic": (
        25.0,
        True,
        [],
        [(0, ([40, 42] * 30 + [41]) * 8), (1, [20, 22] * 300)],
    ),
}


class TestExactWalkStress:
    """Scalar ≡ vectorized ≡ forced fallback on programs built to
    stress the exact walk: flips (per batch, in order), ``flips_log``,
    the pressure/threshold tables and the disturbance RNG state."""

    @staticmethod
    def _run(backend: str, name: str) -> dict:
        threshold, trr, repairs, batches = WALK_PROGRAMS[name]
        from repro.dram.trr import TrrConfig

        dram = SimulatedDram(
            DRAMGeometry.small(rows_per_bank=128, rows_per_subarray=16),
            profile=DisturbanceProfile.test_scale(threshold_mean=threshold),
            trr_config=TrrConfig() if trr else None,
            seed=5,
            backend=backend,
        )
        for socket_bank_repair in repairs:
            dram.add_repair(0, *socket_bank_repair)
        returned = [dram.activate_batch(0, bank, rows) for bank, rows in batches]
        return {
            "returned": returned,
            "flips_log": list(dram.flips_log),
            "tables": _disturbance_tables(dram),
            "rng": dram.disturbance._rng.getstate(),
            "snapshot": _snapshot(dram),
        }

    @pytest.mark.parametrize("name", list(WALK_PROGRAMS))
    def test_legs_agree(self, name):
        outs = on_each_leg(lambda backend: self._run(backend, name))
        assert outs["scalar"]["flips_log"], "program never flips: vacuous"
        for leg in ENGINE_LEGS[1:]:
            for part in outs["scalar"]:
                assert outs[leg][part] == outs["scalar"][part], (name, leg, part)

    @pytest.mark.parametrize("name", list(WALK_PROGRAMS))
    def test_program_reaches_the_walk(self, name, monkeypatch):
        # Guard against vacuous agreement: each program must drive the
        # vectorized exact walk to the case it is named for.
        walks = []
        walk_exact = vec._walk_exact

        def spy(walk, period, rounds, p, threshold, j, events):
            before = len(events)
            out = walk_exact(walk, period, rounds, p, threshold, j, events)
            walks.append((walk, rounds, events[before:]))
            return out

        built = []
        build = vec._build_tile_entry
        monkeypatch.setattr(vec, "_walk_exact", spy)
        monkeypatch.setattr(
            vec, "_build_tile_entry", lambda *a: built.append(a) or build(*a)
        )
        self._run("vectorized", name)
        events = [e for _w, _r, evs in walks for e in evs]
        assert events, "no crossing went through the exact walk"
        if name == "multi_spill":
            assert max(spills for *_e, spills in events) > 1
        elif name == "self_crossing":
            assert any(
                evs and any(reset for *_t, reset in w) for w, _r, evs in walks
            ), "no self-activating victim crossed in the walk"
        elif name == "shifted_replays":
            assert len(built) < len(WALK_PROGRAMS[name][3]) // 2
        elif name == "repairs":
            assert built and any(rounds > 1 for _w, rounds, _e in walks)
        elif name == "trr_generic":
            assert any(rounds == 1 and len(w) > 100 for w, rounds, _e in walks)


class TestVectorizedDecode:
    def setup_method(self):
        self.geom = DRAMGeometry.small(rows_per_bank=128, rows_per_subarray=16)
        self.mapping = SkylakeMapping.for_small_geometry(self.geom)
        rng = random.Random(17)
        self.hpas = [
            rng.randrange(self.geom.total_bytes // CACHE_LINE) * CACHE_LINE
            for _ in range(500)
        ]

    def test_decode_media_batch_matches_scalar(self):
        socket, bank, row, col = self.mapping.decode_media_batch(
            np.asarray(self.hpas, dtype=np.int64)
        )
        for i, hpa in enumerate(self.hpas):
            media = self.mapping.decode(hpa)
            assert (
                media.socket,
                media.socket_bank_index(self.geom),
                media.row,
                media.col,
            ) == (socket[i], bank[i], row[i], col[i]), hex(hpa)

    def test_decode_flat_batch_matches_scalar(self):
        flat = self.mapping.decode_flat_batch(np.asarray(self.hpas, dtype=np.int64))
        for i, hpa in enumerate(self.hpas):
            expect = self.mapping._decode_flat(hpa)
            assert expect == tuple(int(f[i]) for f in flat), hex(hpa)

    def test_decode_lines_batch_matches_scalar_fallback(self):
        dram = SimulatedDram(self.geom, self.mapping, backend="scalar")
        rng = random.Random(23)
        for _ in range(50):
            hpa = rng.randrange(self.geom.total_bytes - 4096)
            length = rng.randrange(1, 4096 - 1)
            fast = self.mapping.decode_lines_batch(hpa, length)
            dram._lines_fast = None
            assert fast == dram._lines(hpa, length), (hpa, length)
            dram._lines_fast = self.mapping.decode_lines_batch

    def test_decode_batch_range_check(self):
        with pytest.raises(Exception):
            self.mapping.decode_media_batch(
                np.asarray([self.geom.total_bytes], dtype=np.int64)
            )


class TestEccVectorKernels:
    def _reference(self, bits: set[int]) -> list[tuple[int, int]]:
        by_word: dict[int, int] = {}
        for b in bits:
            by_word[b // WORD_BITS] = by_word.get(b // WORD_BITS, 0) + 1
        return sorted(by_word.items())

    @pytest.mark.parametrize("n", [1, 5, VECTOR_BITS_CUTOFF, 200])
    def test_words_and_counts_both_paths(self, n):
        rng = random.Random(n)
        bits = {rng.randrange(8 * 1024 * 8) for _ in range(n)}
        assert list(_words_and_counts(bits)) == self._reference(bits)

    @pytest.mark.parametrize("n", [1, 5, VECTOR_BITS_CUTOFF, 200])
    def test_correctable_bits_both_paths(self, n):
        rng = random.Random(1000 + n)
        bits = {rng.randrange(8 * 1024 * 8) for _ in range(n)}
        expect = {
            b for b in bits if sum(1 for o in bits if o // WORD_BITS == b // WORD_BITS) == 1
        }
        assert EccEngine().correctable_bits(bits) == expect


class TestReadRegion:
    def _prepare(self, backend: str):
        dram = _dram(backend, seed=3)
        rng = random.Random(3)
        for _ in range(6):
            hpa = rng.randrange(dram.geom.total_bytes // 256) * 256
            dram.write(hpa, bytes([rng.randrange(256)]) * 256)
        # hammer to plant real flips (threshold_mean=60 flips quickly)
        for bank in range(4):
            dram.activate_batch(0, bank, [50, 52] * 400)
        return dram, rng

    def test_bytes_match_per_line_read(self):
        reader, rng_a = self._prepare("vectorized")
        liner, _rng_b = self._prepare("vectorized")
        assert reader.flips_log, "no flips planted — test would be vacuous"
        for _ in range(20):
            hpa = rng_a.randrange(reader.geom.total_bytes - 3000)
            length = _rng_b.randrange(1, 3000)
            assert reader.read_region(hpa, length) == liner.read(hpa, length), (
                hpa,
                length,
            )

    def test_backend_independent(self):
        def read(backend):
            dram, rng = self._prepare(backend)
            hpa = rng.randrange(dram.geom.total_bytes - 8192)
            return dram.read_region(hpa, 8192), _snapshot(dram)

        outs = on_each_leg(read)
        for backend in ENGINE_LEGS[1:]:
            assert outs[backend] == outs["scalar"], backend

    def test_one_act_per_touched_row(self):
        dram = _dram("scalar")
        row_bytes = dram.geom.row_bytes
        before = dram.counters.activations
        dram.read_region(0, 4 * row_bytes)
        spanned = {
            (s, b, r) for s, b, r, _c, _o, _t in dram._lines(0, 4 * row_bytes)
        }
        assert dram.counters.activations - before == len(spanned)
