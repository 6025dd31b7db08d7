"""Four-level extended page tables stored in simulated DRAM (§2.1, §5.4).

The table's nodes are real 4 KiB pages inside a :class:`SimulatedDram`;
``translate`` performs an honest walk, reading each entry's 8 bytes from
DRAM, and ``map`` builds the table one entry read or write at a time.
Each entry access costs one ACT on the entry's row and senses only the
8 bytes it touches (the stored slice plus the flips inside it).  An
entry lies inside one cache line, so ``SimulatedDram.read``/``write``
decode it directly and, on the vectorized backend, issue its ACT as a
plain ACT with cached per-bank state: an entry access costs little more
than its ACT.  The walk tests the raw entry as an integer (R/W/X and
bit 7 by mask; :class:`~repro.ept.entry.EptEntry` stays the codec), and
zeroing a new table page is 64 line writes, one ACT each, each ACT
followed by its store.  Bit 7 marks a leaf only in a PD entry; a PML4
or PDPT entry with bit 7 set (a flip) is refused by ``map`` and walked
through by ``translate`` and ``unmap``.  Consequences, exactly as on
hardware:

- ECC corrects single-bit flips in entries transparently;
- a double-bit flip raises a machine check
  (:class:`~repro.errors.UncorrectableError`);
- a >= 3-bit flip silently yields a *different mapping* — the guest can
  now reach a frame outside its subarray groups.  This is the escape
  Siloz closes with guard rows or secure EPT.

Pass a :class:`~repro.ept.integrity.SecureEptChecker` to get TDX/SNP
detect-on-use behaviour instead.
"""

from __future__ import annotations

from typing import Callable

from repro.dram.module import SimulatedDram
from repro.ept.entry import (
    ADDR_MASK,
    ENTRIES_PER_PAGE,
    ENTRY_BYTES,
    EXECUTE,
    LARGE_PAGE,
    READ,
    WRITE,
    EptEntry,
)
from repro.ept.integrity import SecureEptChecker
from repro.errors import EptError, EptViolation
from repro.units import PAGE_2M, PAGE_4K

_LEVELS = 4
_GPA_BITS = 48
#: An entry is present when any of R/W/X is set (``EptEntry.present``).
_RWX = READ | WRITE | EXECUTE


def _entry_value(target_hpa: int, large: bool = False) -> int:
    """``EptEntry.make(target_hpa, large=large).value`` without the
    object; an unencodable target raises the codec's own error."""
    if target_hpa % PAGE_4K or target_hpa & ~ADDR_MASK:
        return EptEntry.make(target_hpa, large=large).value
    return target_hpa | _RWX | (LARGE_PAGE if large else 0)


def _entry_addr(table: int, gpa: int, level: int) -> int:
    """Address of *gpa*'s entry in the *level* table page at *table*
    (0 = root PML4, 3 = leaf PT)."""
    shift = 12 + 9 * (_LEVELS - 1 - level)
    return table + ((gpa >> shift) & (ENTRIES_PER_PAGE - 1)) * ENTRY_BYTES


def ept_page_count(vm_bytes: int, page_size: int = PAGE_2M, *, contiguous: bool = True) -> int:
    """EPT table pages needed to map a VM (paper §5.4 accounting).

    With 2 MiB guest pages, each last-level (PD) page maps 512 * 2 MiB
    = 1 GiB; higher levels add ~1/512 more.  ``contiguous`` backing is
    what makes the count this tight — scattered backing would spread
    entries across many more table pages.
    """
    if vm_bytes <= 0:
        raise EptError("vm_bytes must be positive")
    if page_size == PAGE_2M:
        leaves = -(-vm_bytes // (ENTRIES_PER_PAGE * PAGE_2M))  # PD pages
    elif page_size == PAGE_4K:
        pts = -(-vm_bytes // (ENTRIES_PER_PAGE * PAGE_4K))
        leaves = pts + -(-pts // ENTRIES_PER_PAGE)  # PTs + PDs
    else:
        raise EptError(f"unsupported guest page size {page_size}")
    if not contiguous:
        leaves *= 2  # pessimism for scattered backing
    pdpts = -(-vm_bytes // (512 * 2**30)) if vm_bytes else 1
    return leaves + max(1, pdpts) + 1  # + PDPT(s) + PML4


class ExtendedPageTable:
    """One VM's GPA -> HPA mapping, with its nodes living in DRAM."""

    def __init__(
        self,
        dram: SimulatedDram,
        alloc_table_page: Callable[[], int],
        *,
        checker: SecureEptChecker | None = None,
        ecc_reads: bool = True,
    ):
        self.dram = dram
        self._alloc = alloc_table_page
        self.checker = checker
        self.ecc_reads = ecc_reads
        self.table_pages: list[int] = []
        self.root = self._new_table_page()
        self.mapped_bytes = 0

    # ------------------------------------------------------------------

    def _new_table_page(self) -> int:
        addr = self._alloc()
        if addr % PAGE_4K != 0:
            raise EptError(f"table page {addr:#x} not 4 KiB aligned")
        self.dram.write(addr, bytes(PAGE_4K))
        self.table_pages.append(addr)
        return addr

    def _read_entry(self, addr: int) -> int:
        """The 8-byte entry at *addr* as an integer (checked first when a
        secure-EPT checker is attached)."""
        raw = self.dram.read(addr, ENTRY_BYTES, ecc=self.ecc_reads)
        if self.checker is not None:
            self.checker.verify(addr, raw)
        return int.from_bytes(raw, "little")

    def _write_entry(self, addr: int, value: int) -> None:
        raw = value.to_bytes(ENTRY_BYTES, "little")
        self.dram.write(addr, raw)
        if self.checker is not None:
            if value & _RWX:
                self.checker.record(addr, raw)
            else:
                self.checker.forget(addr)

    # ------------------------------------------------------------------

    def map(self, gpa: int, hpa: int, size: int) -> None:
        """Map [gpa, gpa+size) -> [hpa, hpa+size) using 2 MiB leaves
        where alignment allows, 4 KiB otherwise."""
        if size <= 0 or gpa % PAGE_4K or hpa % PAGE_4K or size % PAGE_4K:
            raise EptError(
                f"mapping must be page-aligned: gpa={gpa:#x} hpa={hpa:#x} size={size:#x}"
            )
        if gpa + size > 1 << _GPA_BITS:
            raise EptError(f"GPA range end {gpa + size:#x} exceeds {_GPA_BITS}-bit space")
        done = 0
        while done < size:
            g, h = gpa + done, hpa + done
            if g % PAGE_2M == 0 and h % PAGE_2M == 0 and size - done >= PAGE_2M:
                self._map_one(g, h, large=True)
                done += PAGE_2M
            else:
                self._map_one(g, h, large=False)
                done += PAGE_4K
        self.mapped_bytes += size

    def _map_one(self, gpa: int, hpa: int, *, large: bool) -> None:
        table = self.root
        leaf_level = 2 if large else 3
        for level in range(leaf_level):
            addr = _entry_addr(table, gpa, level)
            value = self._read_entry(addr)
            if not value & _RWX:
                table = self._new_table_page()
                self._write_entry(addr, _entry_value(table))
            elif value & LARGE_PAGE:
                raise EptError(f"GPA {gpa:#x} already covered by a large mapping")
            else:
                table = value & ADDR_MASK
        addr = _entry_addr(table, gpa, leaf_level)
        if self._read_entry(addr) & _RWX:
            raise EptError(f"GPA {gpa:#x} already mapped")
        self._write_entry(addr, _entry_value(hpa, large))

    def unmap(self, gpa: int, size: int) -> None:
        """Clear leaf entries covering [gpa, gpa+size)."""
        if size <= 0 or gpa % PAGE_4K or size % PAGE_4K:
            raise EptError("unmap must be page-aligned")
        done = 0
        while done < size:
            step = self._unmap_one(gpa + done)
            done += step
        self.mapped_bytes = max(0, self.mapped_bytes - size)

    def _unmap_one(self, gpa: int) -> int:
        """Clear the leaf mapping *gpa*; returns the bytes it mapped.

        Bit 7 marks a leaf only at the PD level, as in :meth:`translate`:
        a PML4 or PDPT entry with bit 7 set (a flip) still points at its
        next-level table, so only *gpa*'s own leaf is cleared."""
        table = self.root
        for level in range(_LEVELS):
            addr = _entry_addr(table, gpa, level)
            value = self._read_entry(addr)
            if not value & _RWX:
                raise EptViolation(f"GPA {gpa:#x} not mapped")
            large = level == 2 and value & LARGE_PAGE
            if large or level == _LEVELS - 1:
                self._write_entry(addr, 0)
                return PAGE_2M if large else PAGE_4K
            table = value & ADDR_MASK
        raise EptError("unreachable")

    # ------------------------------------------------------------------

    def remap_range(self, old_start: int, size: int, new_start: int) -> int:
        """Retarget every leaf pointing into [old_start, old_start+size)
        to ``new_start + offset`` — the EPT half of live page migration.

        The guest-physical layout is untouched: only the *host* frames
        behind the leaves change, exactly like Linux's memory-failure
        soft offlining rewrites PTEs after copying a page.  Large (2 MiB)
        leaves that only partially overlap the old range are split into
        4 KiB leaves so the overlapping pieces can be retargeted while
        the rest stays on its original frames.  Returns the number of
        mapped bytes that were retargeted (0 when no leaf points into
        the range).
        """
        if size <= 0 or old_start % PAGE_4K or new_start % PAGE_4K or size % PAGE_4K:
            raise EptError(
                f"remap must be page-aligned: old={old_start:#x} "
                f"new={new_start:#x} size={size:#x}"
            )
        old_end = old_start + size
        delta = new_start - old_start
        # Collect first, mutate after: splitting a leaf mid-walk would
        # invalidate the traversal.
        hits: list[tuple[int, int, int, int]] = []
        self._walk_leaves(self.root, 0, 0, old_start, old_end, hits)
        moved = 0
        for addr, value, gpa, lbytes in hits:
            tgt = value & ADDR_MASK
            if tgt >= old_start and tgt + lbytes <= old_end:
                self._write_entry(addr, _entry_value(tgt + delta, bool(value & LARGE_PAGE)))
                moved += lbytes
            else:  # large leaf straddling the range boundary: split to 4K
                self.unmap(gpa, lbytes)
                for off in range(0, lbytes, PAGE_4K):
                    piece = tgt + off
                    inside = old_start <= piece < old_end
                    self._map_one(gpa + off, piece + delta if inside else piece, large=False)
                    if inside:
                        moved += PAGE_4K
                self.mapped_bytes += lbytes
        return moved

    def _walk_leaves(
        self,
        table: int,
        level: int,
        gpa_base: int,
        old_start: int,
        old_end: int,
        hits: list[tuple[int, int, int, int]],
    ) -> None:
        """Depth-first leaf scan collecting ``(entry addr, entry value,
        gpa, leaf bytes)``; reads each table page with one DRAM access
        (not 512) so the walk itself barely disturbs the media."""
        page = self.dram.read(table, PAGE_4K, ecc=self.ecc_reads)
        shift = 12 + 9 * (_LEVELS - 1 - level)
        for index in range(ENTRIES_PER_PAGE):
            raw = page[index * ENTRY_BYTES : (index + 1) * ENTRY_BYTES]
            value = int.from_bytes(raw, "little")
            if not value & _RWX:
                continue
            addr = table + index * ENTRY_BYTES
            if self.checker is not None:
                self.checker.verify(addr, raw)
            gpa = gpa_base + (index << shift)
            tgt = value & ADDR_MASK
            if level == 2 and value & LARGE_PAGE:
                if tgt < old_end and tgt + PAGE_2M > old_start:
                    hits.append((addr, value, gpa, PAGE_2M))
            elif level == _LEVELS - 1:
                if old_start <= tgt < old_end:
                    hits.append((addr, value, gpa, PAGE_4K))
            else:
                self._walk_leaves(tgt, level + 1, gpa, old_start, old_end, hits)

    def translate(self, gpa: int) -> int:
        """Walk the table in DRAM; returns the HPA for *gpa*.

        Raises :class:`EptViolation` for unmapped GPAs (a VM exit),
        :class:`~repro.errors.UncorrectableError` on a double-bit-flipped
        entry (machine check), or
        :class:`~repro.errors.EptIntegrityError` when a secure entry
        fails its check.  A silently-corrupted entry returns a wrong —
        but usable — HPA, which is the attack."""
        if not 0 <= gpa < 1 << _GPA_BITS:
            raise EptViolation(f"GPA {gpa:#x} outside guest address space")
        table = self.root
        for level in range(_LEVELS):
            value = self._read_entry(_entry_addr(table, gpa, level))
            if not value & _RWX:
                raise EptViolation(f"GPA {gpa:#x} not mapped (level {level})")
            if level == 2 and value & LARGE_PAGE:
                return (value & ADDR_MASK) + (gpa & (PAGE_2M - 1))
            if level == _LEVELS - 1:
                return (value & ADDR_MASK) + (gpa & (PAGE_4K - 1))
            table = value & ADDR_MASK
        raise EptError("unreachable")

    def leaf_entry_addr(self, gpa: int) -> int:
        """HPA of the leaf entry mapping *gpa* (where a targeted flip
        would have to land) — used by the EPT-attack experiments."""
        table = self.root
        for level in range(_LEVELS):
            addr = _entry_addr(table, gpa, level)
            value = self._read_entry(addr)
            if not value & _RWX:
                raise EptViolation(f"GPA {gpa:#x} not mapped")
            if (level == 2 and value & LARGE_PAGE) or level == _LEVELS - 1:
                return addr
            table = value & ADDR_MASK
        raise EptError("unreachable")
