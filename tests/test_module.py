"""Unit/integration tests for the simulated DRAM module."""

import pytest

from repro.dram.disturbance import DisturbanceProfile
from repro.dram.geometry import DRAMGeometry
from repro.dram.module import SimulatedDram
from repro.errors import DramError, UncorrectableError
from repro.units import CACHE_LINE, MS

GEOM = DRAMGeometry.small()


def make_dram(**kwargs):
    kwargs.setdefault("profile", DisturbanceProfile.test_scale(threshold_mean=32.0))
    kwargs.setdefault("trr_config", None)  # most tests isolate disturbance
    return SimulatedDram(GEOM, **kwargs)


class TestDataPath:
    def setup_method(self):
        self.dram = make_dram()

    def test_read_back_written_data(self):
        self.dram.write(0x1000, b"hello world")
        assert self.dram.read(0x1000, 11) == b"hello world"

    def test_unwritten_memory_reads_zero(self):
        assert self.dram.read(0x2000, 16) == bytes(16)

    def test_cross_line_write(self):
        data = bytes(range(200))
        self.dram.write(CACHE_LINE - 10, data)
        assert self.dram.read(CACHE_LINE - 10, 200) == data

    def test_write_counts_activations(self):
        before = self.dram.counters.activations
        self.dram.write(0, bytes(CACHE_LINE * 3))
        assert self.dram.counters.activations == before + 3

    def test_read_rejects_zero_length(self):
        with pytest.raises(DramError):
            self.dram.read(0, 0)

    def test_clock_advances_per_act(self):
        t0 = self.dram.clock
        self.dram.activate(0, 0, 0)
        assert self.dram.clock == pytest.approx(t0 + self.dram.act_seconds)


class TestHammeringThroughModule:
    def setup_method(self):
        self.dram = make_dram(seed=5)

    def hammer_row(self, row, count, bank=0):
        for _ in range(count):
            self.dram.activate(0, bank, row)

    def test_hammer_produces_flips(self):
        self.hammer_row(3, 500)
        assert self.dram.flips_log

    def test_flips_corrupt_read_data(self):
        # Write a pattern into the victim row's addresses, hammer, and
        # observe corruption with ECC off.
        self.hammer_row(3, 500)
        victims = {f.row for f in self.dram.flips_log}
        assert victims
        row = victims.pop()
        assert self.dram.flip_bits_at(0, 0, row)

    def test_rewrite_clears_flips(self):
        self.hammer_row(3, 500)
        flip = self.dram.flips_log[0]
        # Find the HPA for the flipped byte and rewrite the whole line.
        from repro.dram.media import MediaAddress

        media = MediaAddress.from_socket_bank(
            GEOM, flip.socket, flip.bank, flip.row, (flip.bit // 8 // 64) * 64
        )
        hpa = self.dram.mapping.encode(media)
        self.dram.write(hpa, bytes(CACHE_LINE))
        remaining = {
            b
            for b in self.dram.flip_bits_at(flip.socket, flip.bank, flip.row)
            if media.col * 8 <= b < (media.col + CACHE_LINE) * 8
        }
        assert remaining == set()

    def test_flips_by_group_accounting(self):
        self.hammer_row(3, 500)  # subarray 0 -> group 0
        by_group = self.dram.flips_by_group()
        assert set(by_group) == {(0, 0)}

    def test_flips_outside_groups(self):
        self.hammer_row(3, 500)
        assert self.dram.flips_outside_groups({(0, 0)}) == []
        assert self.dram.flips_outside_groups({(0, 1)})

    def test_refresh_window_resets_pressure(self):
        # Hammer below threshold, let 64 ms pass, hammer again below
        # threshold: no flips because pressure reset in between.
        self.hammer_row(3, 20)
        self.dram.advance_time(70 * MS)
        self.hammer_row(3, 20)
        assert self.dram.counters.refresh_windows >= 1
        assert self.dram.flips_log == []


class TestTrrIntegration:
    def test_trr_protects_uniform_hammer(self):
        from repro.dram.trr import TrrConfig

        protected = SimulatedDram(
            GEOM,
            profile=DisturbanceProfile.test_scale(threshold_mean=40.0),
            trr_config=TrrConfig(slots=4, sampled_acts_after_ref=2, sample_prob=0.05),
            trr_ref_every=16,
            seed=9,
        )
        unprotected = make_dram(seed=9, profile=DisturbanceProfile.test_scale(threshold_mean=40.0))
        for _ in range(600):
            protected.activate(0, 0, 3)
            unprotected.activate(0, 0, 3)
        assert len(protected.flips_log) < len(unprotected.flips_log)


class TestEccIntegration:
    def setup_method(self):
        self.dram = make_dram(seed=11)

    def _force_flip(self, bits, row=2):
        """Inject flips directly (test hook) into bank 0 row 2."""
        for bit in bits:
            self.dram._toggle_bit(0, 0, row, bit)

    def _hpa_of(self, row, col=0):
        from repro.dram.media import MediaAddress

        media = MediaAddress.from_socket_bank(GEOM, 0, 0, row, col)
        return self.dram.mapping.encode(media)

    def test_single_bit_corrected_on_read(self):
        self.dram.write(self._hpa_of(2), b"\x00" * CACHE_LINE)
        self._force_flip({5})
        data = self.dram.read(self._hpa_of(2), CACHE_LINE)
        assert data == b"\x00" * CACHE_LINE
        assert self.dram.ecc.stats.corrected == 1

    def test_double_bit_raises_machine_check(self):
        self._force_flip({5, 6})
        with pytest.raises(UncorrectableError):
            self.dram.read(self._hpa_of(2), CACHE_LINE)

    def test_ecc_off_returns_raw_corruption(self):
        self.dram.write(self._hpa_of(2), b"\x00" * CACHE_LINE)
        self._force_flip({0})
        data = self.dram.read(self._hpa_of(2), CACHE_LINE, ecc=False)
        assert data[0] == 1

    def test_patrol_scrub_heals_correctable(self):
        self._force_flip({5, 200})
        events = self.dram.patrol_scrub()
        assert len(events) == 2
        assert self.dram.flip_bits_at(0, 0, 2) == set()

    def test_patrol_scrub_reports_uncorrectable(self):
        from repro.dram.ecc import EccOutcome

        self._force_flip({5, 6})
        events = self.dram.patrol_scrub()
        assert events[0].outcome is EccOutcome.UNCORRECTABLE
        assert self.dram.flip_bits_at(0, 0, 2) == {5, 6}


class TestRowRepairs:
    """§6: repairs relocate cells; inter-subarray repairs break isolation
    until the affected pages are offlined."""

    def test_intra_subarray_repair_keeps_containment(self):
        dram = make_dram(seed=13)
        dram.add_repair(0, 0, defective_row=3, spare_row=6)
        for _ in range(500):
            dram.activate(0, 0, 3)  # physically activates row 6
        assert dram.flips_log
        assert all(GEOM.subarray_of_row(f.row) == 0 for f in dram.flips_log)

    def test_inter_subarray_repair_breaks_containment(self):
        dram = make_dram(seed=13)
        # Row 3's cells now live at internal row 12 (subarray 1):
        dram.add_repair(0, 0, defective_row=3, spare_row=12)
        for _ in range(800):
            dram.activate(0, 0, 3)
        # Hammering media row 3 disturbs internal rows 10-14, whose data
        # belongs to media rows in subarray 1: containment is broken.
        assert any(GEOM.subarray_of_row(f.row) == 1 for f in dram.flips_log)

    def test_spare_neighbors_map_back_to_defective_row(self):
        dram = make_dram(seed=13)
        dram.add_repair(0, 0, defective_row=3, spare_row=12)
        # Hammering media row 11 (internal 11) disturbs internal 12,
        # whose data is media row 3's.
        for _ in range(800):
            dram.activate(0, 0, 11)
        assert any(f.row == 3 for f in dram.flips_log)

    def test_abandoned_cells_absorb_flips(self):
        dram = make_dram(seed=13)
        dram.add_repair(0, 0, defective_row=12, spare_row=14)
        # Internal row 12's cells are disconnected; flips there vanish.
        for _ in range(800):
            dram.activate(0, 0, 11)
        assert all(f.row != 12 for f in dram.flips_log)

    def test_duplicate_repair_rejected(self):
        dram = make_dram()
        dram.add_repair(0, 0, 3, 6)
        with pytest.raises(DramError):
            dram.add_repair(0, 0, 3, 7)


class TestMisc:
    def test_mapping_geometry_must_match(self):
        from repro.dram.mapping import SkylakeMapping

        other = DRAMGeometry.small(sockets=2)
        with pytest.raises(DramError):
            SimulatedDram(GEOM, SkylakeMapping.for_small_geometry(other))

    def test_advance_time_rejects_negative(self):
        with pytest.raises(DramError):
            make_dram().advance_time(-1.0)

    def test_paper_scale_module_is_cheap_when_idle(self):
        dram = SimulatedDram(DRAMGeometry.paper_default())
        dram.write(0, b"x")
        assert dram.read(0, 1) == b"x"


# ---------------------------------------------------------------------------
# The cache-line data path against a whole-row oracle
# ---------------------------------------------------------------------------


def _oracle_lines(dram, hpa, length):
    """Reference line split: the uncached MediaAddress decode per line."""
    out = []
    offset = 0
    while offset < length:
        addr = hpa + offset
        take = min(CACHE_LINE - addr % CACHE_LINE, length - offset)
        media = dram.mapping.decode(addr)
        out.append(
            (media.socket, media.socket_bank_index(dram.geom), media.row,
             media.col, offset, take)
        )
        offset += take
    return out


def _oracle_read(dram, hpa, length, *, ecc):
    """Reference read: sense the whole row with every flip applied, slice
    out the touched bytes, then ECC-correct the slice."""
    dram.counters.reads += 1
    out = bytearray(length)
    for socket, bank, row, col, offset, take in _oracle_lines(dram, hpa, length):
        dram.activate(socket, bank, row)
        chunk = dram._effective_row(socket, bank, row)[col : col + take]
        if ecc:
            chunk = dram._ecc_correct_chunk(socket, bank, row, col, take, chunk)
        out[offset : offset + take] = chunk
    return bytes(out)


def _oracle_write(dram, hpa, data):
    """Reference write: store each line, clearing the flips it covers."""
    dram.counters.writes += 1
    for socket, bank, row, col, offset, take in _oracle_lines(dram, hpa, len(data)):
        dram.activate(socket, bank, row)
        dram._row_store(socket, bank, row)[col : col + take] = data[offset : offset + take]
        key = (socket, bank, row)
        flips = dram._flips.get(key)
        if flips:
            flips.difference_update(range(col * 8, (col + take) * 8))
            if not flips:
                del dram._flips[key]


class TestReadWriteOracle:
    """Seeded programs of line-straddling reads and writes, injected CE
    and UE bits, row repairs and disturbance flips: ``read``/``write``
    must return the same bytes, raise the same machine checks and leave
    the same ECC event log and module state as the whole-row oracle."""

    @staticmethod
    def _run(backend, seed, *, oracle):
        import random

        rng = random.Random(seed)
        dram = make_dram(
            backend=backend,
            seed=seed,
            profile=DisturbanceProfile.test_scale(threshold_mean=float(rng.choice((24, 40, 64)))),
        )
        base_row = rng.randrange(GEOM.rows_per_bank - 4)
        window = (base_row * GEOM.row_group_bytes, 4 * GEOM.row_group_bytes)
        for _ in range(rng.randrange(3)):
            bank = rng.randrange(GEOM.banks_per_socket)
            defective = base_row + rng.randrange(4)
            spare = rng.randrange(GEOM.rows_per_bank)
            try:
                dram.add_repair(0, bank, defective, spare)
            except DramError:
                pass  # row already repaired in this bank

        def span():
            length = rng.choice((1, 8, 8, 16, 40, 64, 64, 100, 200))
            hpa = window[0] + rng.randrange(window[1] - length)
            roll = rng.random()
            if roll < 0.4:  # straddle a line boundary
                hpa = max(window[0], hpa - hpa % CACHE_LINE - rng.randrange(1, 8))
            elif roll < 0.7:  # whole ECC words: the span ends on a word edge
                hpa -= hpa % 8
            return hpa, length

        read = _oracle_read if oracle else (
            lambda d, hpa, length, ecc: d.read(hpa, length, ecc=ecc)
        )
        write = _oracle_write if oracle else (lambda d, hpa, data: d.write(hpa, data))
        log = []
        for _ in range(150):
            op = rng.random()
            if op < 0.3:
                hpa, length = span()
                write(dram, hpa, bytes(rng.randrange(256) for _ in range(length)))
            elif op < 0.7:
                hpa, length = span()
                ecc = rng.random() < 0.75
                try:
                    log.append(("read", read(dram, hpa, length, ecc=ecc)))
                except UncorrectableError as exc:
                    log.append(("ue", str(exc), exc.address))
            elif op < 0.8:  # hammer a row just outside the window
                aggressor = rng.choice((base_row - 1, base_row + 4)) % GEOM.rows_per_bank
                bank = rng.randrange(GEOM.banks_per_socket)
                dram.activate_batch(0, bank, [aggressor] * rng.randrange(20, 80))
            else:  # plant a CE (one bit) or a UE (two bits in one word)
                hpa = window[0] + rng.randrange(window[1])
                socket, bank, row, col = dram.mapping.decode_line(hpa)
                word = col // 8
                # Half the time favour word-edge bits: a span ending right
                # before a flipped byte must not sense it.
                pool = (0, 7, 8, 56, 63) if rng.random() < 0.5 else range(64)
                bits = rng.sample(pool, 2 if rng.random() < 0.3 else 1)
                for b in bits:
                    dram.inject_bit_error(socket, bank, row, word * 64 + b)
        return log, {
            "data": {k: bytes(v) for k, v in dram._data.items()},
            "flips": {k: sorted(v) for k, v in dram._flips.items()},
            "ecc": list(dram.ecc.stats.events),
            "flips_log": list(dram.flips_log),
            "counters": vars(dram.counters).copy(),
            "clock": dram.clock,
        }

    @pytest.mark.parametrize("backend", ("scalar", "vectorized"))
    @pytest.mark.parametrize("seed", range(24))
    def test_matches_whole_row_oracle(self, backend, seed):
        got_log, got_state = self._run(backend, seed, oracle=False)
        want_log, want_state = self._run(backend, seed, oracle=True)
        assert got_log == want_log, f"seed={seed}"
        for key in want_state:
            assert got_state[key] == want_state[key], f"seed={seed} field={key}"

    @pytest.mark.parametrize("ecc", (True, False))
    def test_flips_just_outside_the_span_are_not_sensed(self, ecc):
        dram = make_dram()
        hpa = 3 * CACHE_LINE + 16
        socket, bank, row, col = dram.mapping.decode_line(hpa)
        # Last bit of the byte before the span, first bit of the byte after.
        for bit in (col * 8 - 1, (col + 8) * 8):
            dram.inject_bit_error(socket, bank, row, bit)
        assert dram.read(hpa, 8, ecc=ecc) == bytes(8)
        assert dram.ecc.stats.events == []
        dram.inject_bit_error(socket, bank, row, col * 8 + 3)
        expected = bytes(8) if ecc else b"\x08" + bytes(7)
        assert dram.read(hpa, 8, ecc=ecc) == expected
        assert len(dram.ecc.stats.events) == (1 if ecc else 0)

    def test_programs_exercise_every_branch(self):
        """The seeds above cover corrected reads, machine checks, raw
        (ECC-off) corruption and disturbance flips."""
        logs = [self._run("scalar", seed, oracle=False) for seed in range(24)]
        assert any(state["flips_log"] for _log, state in logs)
        assert any(e.outcome.name == "CORRECTED" for _l, s in logs for e in s["ecc"])
        assert any(entry[0] == "ue" for log, _s in logs for entry in log)
