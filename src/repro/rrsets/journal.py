"""Packed unit journal: the RNG state before every generation unit.

A reusable :class:`~repro.rrsets.bank.RRBank` records, for each generation
*unit* (one sequential ``generate`` call or one ``generate_batch`` chunk),
the bit-generator state captured before the unit's draws.  Replaying a
unit from that state redraws it bit-identically, which is what lets
:meth:`~repro.rrsets.bank.RRBank.repair` resample exactly the sets a graph
delta touched (:func:`~repro.rrsets.bank.replay_units`).

In serving a unit is one set, so the journal has as many rows as the pool
has sets.  Rows are therefore packed fixed-width records in one NumPy
array, not one state dict per unit:

==============  ============  =============================================
field           type          meaning
==============  ============  =============================================
``start``       int64         id of the unit's first set
``count``       int32         sets the unit delivered
``requested``   int32         sets the unit was asked for
``mode``        uint8         ``0`` sequential ``generate``, ``1`` batch
``state``       4 x uint64    PCG64 ``state`` and ``inc`` (low, high words)
``has_uint32``  uint8         PCG64 buffered-half flag
``uinteger``    uint32        PCG64 buffered half
==============  ============  =============================================

That is 54 B per unit, in power-of-two capacity.  An append is one
``struct.pack_into`` of the row.  Banks draw only from PCG64 session
streams, so the journal stores nothing else: any other bit generator is
refused at :meth:`UnitJournal.append`.
"""

from __future__ import annotations

import struct
from typing import Any, Dict, Iterable, List, Tuple

import numpy as np

from repro.rrsets.collection import _pow2_capacity
from repro.utils.exceptions import ConfigurationError

#: the only bit generator a journal can record
BIT_GENERATOR = "PCG64"

MODE_SEQ = 0
MODE_BATCH = 1
_MODE_NAMES = ("seq", "batch")

_MASK64 = (1 << 64) - 1

#: one journal row; packed (no padding), so ``_ROW`` writes it in place
ROW_DTYPE = np.dtype([
    ("start", "<i8"),
    ("count", "<i4"),
    ("requested", "<i4"),
    ("mode", "u1"),
    ("state", "<u8", (4,)),
    ("has_uint32", "u1"),
    ("uinteger", "<u4"),
])
_ROW = struct.Struct("<qiiB4QBI")
assert _ROW.size == ROW_DTYPE.itemsize


class UnitJournal:
    """Append-only journal of generation units, one packed row each."""

    __slots__ = ("_len", "_rows")

    def __init__(self) -> None:
        self._len = 0
        self._rows = np.empty(0, dtype=ROW_DTYPE)

    def __len__(self) -> int:
        return self._len

    def append(
        self,
        start: int,
        count: int,
        requested: int,
        batch: bool,
        state: Dict[str, Any],
    ) -> None:
        """Record one unit; ``state`` is the PCG64 state before its draws."""
        if state["bit_generator"] != BIT_GENERATOR:
            raise ConfigurationError(
                f"the unit journal records {BIT_GENERATOR} states only, "
                f"got {state['bit_generator']!r}"
            )
        i = self._len
        if i == len(self._rows):
            grown = np.empty(_pow2_capacity(i + 1, 16), dtype=ROW_DTYPE)
            grown[:i] = self._rows
            self._rows = grown
        words = state["state"]
        s, inc = words["state"], words["inc"]
        _ROW.pack_into(
            self._rows,
            i * _ROW.size,
            start,
            count,
            requested,
            MODE_BATCH if batch else MODE_SEQ,
            s & _MASK64,
            s >> 64,
            inc & _MASK64,
            inc >> 64,
            state["has_uint32"],
            state["uinteger"],
        )
        self._len = i + 1

    # ------------------------------------------------------------------
    # column views (no per-row Python work)
    # ------------------------------------------------------------------
    @property
    def starts(self) -> np.ndarray:
        return self._rows["start"][: self._len]

    @property
    def counts(self) -> np.ndarray:
        return self._rows["count"][: self._len]

    @property
    def replayable(self) -> np.ndarray:
        """Units that delivered every set they asked for.

        An under-delivered chunk (a batch kernel stopping early) cannot be
        replayed to the same set count, so its sets are repaired from
        fresh seeds instead.
        """
        rows = self._rows[: self._len]
        return rows["count"] == rows["requested"]

    def unit(self, i: int) -> Tuple[int, int, int, bool, Dict[str, Any]]:
        """Row ``i`` as ``(start, count, requested, batch, state)``, with
        ``state`` the PCG64 state dict captured before the unit's draws.

        One ``struct.unpack_from`` of the row: a replay calls this once per
        dirty unit, and reading the row's fields through NumPy scalars
        cost four times as much.
        """
        if not 0 <= i < self._len:
            raise IndexError(f"journal unit {i} out of range [0, {self._len})")
        (start, count, requested, mode, s_lo, s_hi, inc_lo, inc_hi,
         has_uint32, uinteger) = _ROW.unpack_from(self._rows, i * _ROW.size)
        state = {
            "bit_generator": BIT_GENERATOR,
            "state": {"state": s_lo | s_hi << 64, "inc": inc_lo | inc_hi << 64},
            "has_uint32": has_uint32,
            "uinteger": uinteger,
        }
        return start, count, requested, mode == MODE_BATCH, state

    def nbytes(self) -> int:
        """Exact resident bytes of the row buffer."""
        return int(self._rows.nbytes)

    # ------------------------------------------------------------------
    # snapshot shape: one plain dict per unit
    # ------------------------------------------------------------------
    def to_entries(self) -> List[Dict[str, Any]]:
        """The journal as ``{"start", "count", "requested", "mode",
        "state"}`` dicts, the JSON shape session snapshots carry."""
        entries = []
        for i in range(self._len):
            start, count, requested, batch, state = self.unit(i)
            entries.append({
                "start": start,
                "count": count,
                "requested": requested,
                "mode": _MODE_NAMES[batch],
                "state": state,
            })
        return entries

    @classmethod
    def from_entries(cls, entries: Iterable[Dict[str, Any]]) -> "UnitJournal":
        """Rebuild a journal from :meth:`to_entries` dicts."""
        journal = cls()
        for entry in entries:
            mode = entry["mode"]
            if mode not in _MODE_NAMES:
                raise ConfigurationError(f"unknown journal unit mode {mode!r}")
            journal.append(
                entry["start"],
                entry["count"],
                entry["requested"],
                mode == "batch",
                entry["state"],
            )
        return journal
