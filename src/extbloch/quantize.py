"""Tolerance-aware identification of float vectors.

Formal sums key their terms by integers, and this index is where float
values get those integers: group elements (eight entry floats each) and,
in the value-keyed ``nu_hat`` oracle of tests and ``ccs selftest``, log
atoms (two floats each).  A value the
index has already keyed is answered from a dictionary with the id it got
the first time, so a repeated value always keeps its first id.  A new value
is rounded onto a grid of cell size ``tol``; plain rounding fails when two
nearly-equal values straddle a cell boundary, so the lookup also probes the
neighbouring cell whenever a coordinate sits within a guard band of the
boundary, in every coordinate that does.

The rounding rule: the cell of a coordinate ``x`` is ``round(x / tol)``,
ties to even, as a float, computed as ``s + _MAGIC - _MAGIC`` with
``s = x / tol``.  That sum is exact when ``s + _MAGIC`` lands in
``[2**52, 2**53)``, where floats are the integers: for ``-2**51 <= s <
2**51``.  Beyond that every float is a multiple of 1/2 and the sum may be
off: above ``2**51`` it is ``s`` or at least 1/2 away from it, and below
``-2**51`` it keeps a half-integer ``s`` as it is, so a result below
``-2**51`` counts as off.  A coordinate rounded off, or near a cell
boundary, takes the probe of all cells, which rounds it with ``round``
where the sum is off.  Float cells equal the integer ones as dictionary
keys.

The identity rule this gives: a new value gets a stored id only when the
first vector stored under it is within ``tol`` in every entry, so values
more than ``2 * tol`` apart never share an id.  A value within the guard
band (``tol * 1e-3``) of a stored vector always finds a stored id, so
floating-point copies of a stored value get no new id.  Between the two
nothing is promised: values closer than ``tol`` can land in adjacent cells
and get different ids.  A value with ``x / tol`` infinite raises OutOfGrid.
"""

from __future__ import annotations

from itertools import product
from operator import sub
from collections.abc import Iterable

from .errors import OutOfGrid

# guard band, as a fraction of the cell size: well above fp noise, well
# below the cell size
_GUARD = 1e-3
# a coordinate closer than this to its cell centre splits nothing, whatever
# the rounding of ``0.5 - off``
_CLEAR = 0.5 - 2 * _GUARD
# s + _MAGIC - _MAGIC is round(s), ties to even, for _LOW <= s < -_LOW
_MAGIC = 1.5 * 2.0 ** 52
_LOW = -2.0 ** 51


class FuzzyIndex:
    """Assigns stable integer ids to float vectors.

    A repeated value gets its first id.  A new value gets the id of the
    first stored vector within ``tol`` in every entry that sits in the
    vector's grid cell or in a probed neighbour; see the module docstring
    for what that does and does not identify, and for the rounding rule.
    ``key`` is the entry point.  It rounds a new value in one pass over its
    coordinates; when every coordinate rounds exactly (``_LOW <= r``) and
    lies within ``_CLEAR`` of its cell centre, nothing splits, so only the
    one cell is looked up, by one ``setdefault`` that also serves the
    store (an empty cell gives a new id at once).  Any
    other new value takes the probe of all cells (``_probe_all``), which
    splits every coordinate in the guard band, so at most ``2 ** dim``
    cells; both scan a cell with ``_first_within``."""

    def __init__(self, tol: float):
        self.tol = tol
        self._seen: dict[tuple[float, ...], int] = {}
        self._cells: dict[tuple[float, ...], list[int]] = {}
        self._reps: list[tuple[float, ...]] = []

    def __len__(self) -> int:
        return len(self._reps)

    def key(self, values: Iterable[float]) -> int:
        vals = tuple(values)
        ident = self._seen.get(vals)
        if ident is not None:
            return ident
        tol = self.tol
        cells = []
        for x in vals:
            s = x / tol
            r = s + _MAGIC - _MAGIC
            # fails for r off or near a cell boundary, and for the NaN
            # offset of an infinite or NaN x / tol
            if not (-_CLEAR < s - r < _CLEAR and _LOW <= r):
                ident = self._probe_all(vals)  # raises for inf and NaN
                break
            cells.append(r)
        else:
            # nothing splits: one setdefault looks the one cell up and
            # stores it, so an empty cell gives a new id at once
            bucket = self._cells.setdefault(tuple(cells), [])
            ident = self._first_within(bucket, vals) if bucket else None
            if ident is None:
                ident = self._store(bucket, vals)
        self._seen[vals] = ident
        return ident

    def _probe_all(self, vals: tuple[float, ...]) -> int:
        """The id of the new value ``vals``: the first stored vector within
        ``tol`` in the cells the guard band splits it into, in order, else
        a new id stored under its own cell."""
        tol = self.tol
        # per coordinate: its cell, then the neighbour when it sits in the
        # guard band of a cell boundary
        options: list[tuple[float, ...]] = []
        for x in vals:
            s = x / tol
            r = s + _MAGIC - _MAGIC
            # beyond 2**51 r may be off, and for x / tol infinite or NaN the
            # offset is NaN: round s itself, which raises for those
            if not (-0.5 <= s - r <= 0.5 and _LOW <= r):
                try:
                    r = float(round(s))  # a NaN raises ValueError
                except OverflowError:
                    raise OutOfGrid(f"value {x!r} is out of range at "
                                    f"comparison tolerance {tol!r}") from None
            off = s - r  # in [-1/2, 1/2], boundaries at +-1/2
            options.append((r, r + 1.0) if 0.5 - off < _GUARD
                           else (r, r - 1.0) if 0.5 + off < _GUARD
                           else (r,))
        for cell in product(*options):
            ident = self._first_within(self._cells.get(cell, ()), vals)
            if ident is not None:
                return ident
        return self._store(
            self._cells.setdefault(tuple(o[0] for o in options), []), vals)

    def _store(self, bucket: list[int], vals: tuple[float, ...]) -> int:
        """A new id for ``vals``, appended to ``bucket``, its cell's."""
        ident = len(self._reps)
        self._reps.append(vals)
        bucket.append(ident)
        return ident

    def _first_within(self, bucket: Iterable[int],
                      vals: tuple[float, ...]) -> int | None:
        """The first id in ``bucket`` whose vector is within ``tol`` of
        ``vals`` in every entry, else None.  Stored vectors are finite and
        a cell holds vectors of one length, that of ``vals``."""
        reps, tol = self._reps, self.tol
        for ident in bucket:
            if max(map(abs, map(sub, reps[ident], vals))) <= tol:
                return ident
        return None
