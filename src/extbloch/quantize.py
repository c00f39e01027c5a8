"""Tolerance-aware identification of float vectors.

Formal sums key their terms by integers, and this index is where float
values get those integers: group elements (eight entry floats each) and,
in the value-keyed ``nu_hat`` oracle of tests and ``ccs selftest``, log
atoms (two floats each).  A value the index has already keyed is
answered from a dictionary with the id it got the first time, so a
repeated value always keeps its first id.

The identity rule: a new value within ``tol`` in every entry of a stored
vector gets a stored id, that of the first such vector in probe order,
and values more than ``2 * tol`` apart never share an id, since each is
within ``tol`` of the vector stored with it.  A value with ``x / tol``
infinite raises OutOfGrid, naming the first such entry, and one with a
NaN entry ValueError.

How the rule is kept: a new value is rounded onto a grid of cells
``tol / _GUARD`` wide, so that the guard band, ``_GUARD`` of a cell on
either side of a cell boundary, is ``tol`` wide.  An entry within ``tol``
of a stored one lies in its cell or in the guard band of the neighbour,
so the lookup probes the neighbouring cell for every coordinate in the
guard band, and stores a new value under its own cell.  The band reaches
2 ulps of ``x / cell`` further, past what rounding ``x / cell`` moves,
so that a value exactly ``tol`` from a stored vector across a boundary
probes its cell.  Probe order is the ``product`` of each coordinate's
cells, its own cell first, and each cell's vectors in the order stored.

The rounding rule: the cell of a coordinate ``x`` is ``round(x / cell)``,
ties to even, as a float, computed as ``s + _MAGIC - _MAGIC`` with
``s = x / cell``.  That sum is exact when ``s + _MAGIC`` lands in
``[2**52, 2**53)``, where floats are the integers: for ``-2**51 <= s <
2**51``, and outside that range the result lies outside it too.  A
coordinate whose result is in range and within ``_CLEAR`` of ``s`` is
settled; any other is rounded with ``round``, after the ``x / tol`` check,
and is split when it lies in the guard band.  Float cells equal the
integer ones as dictionary keys.
"""

from __future__ import annotations

from itertools import product
from math import isinf, ulp
from operator import sub
from collections.abc import Iterable

from .errors import OutOfGrid

# guard band, as a fraction of the cell size: the cell is tol / _GUARD wide
_GUARD = 1e-3
# a coordinate closer than this to its cell centre splits nothing, whatever
# the rounding of ``0.5 - off``
_CLEAR = 0.5 - 2 * _GUARD
# s + _MAGIC - _MAGIC is round(s), ties to even, for _LOW <= s < _HIGH
_MAGIC = 1.5 * 2.0 ** 52
_LOW, _HIGH = -2.0 ** 51, 2.0 ** 51


class FuzzyIndex:
    """Assigns stable integer ids to float vectors.

    A repeated value gets its first id.  A new value within ``tol`` in
    every entry of a stored vector gets the id of the first such, in
    probe order, else a new id; values more than ``2 * tol`` apart never
    share an id.  See the module docstring for how the grid keeps this
    and for the rounding.  ``key`` rounds a new value in one pass over its
    coordinates.  A coordinate within ``_CLEAR`` of its cell centre
    splits nothing; any other is rounded exactly, refused when out of
    range, and adds its neighbour cell when it lies in the guard band.
    A value with no split coordinate looks up its one cell by one
    ``setdefault`` that also serves the store (an empty cell gives a new
    id at once); a split value scans the ``product`` of its cells, at
    most ``2 ** dim``, and is stored under its own cell.  Both scan a
    cell with ``_first_within``.  ``rewind`` to a ``mark`` forgets every
    value keyed since, so the index answers as it did at the mark."""

    def __init__(self, tol: float):
        self.tol = tol
        self.cell = tol / _GUARD
        self._seen: dict[tuple[float, ...], int] = {}
        self._cells: dict[tuple[float, ...], list[int]] = {}
        self._reps: list[tuple[float, ...]] = []
        self._buckets: list[list[int]] = []  # id -> its cell's bucket

    def __len__(self) -> int:
        return len(self._reps)

    def mark(self) -> tuple[int, int, int]:
        """The sizes of ids, keyed values and cells, for ``rewind``."""
        return len(self._reps), len(self._seen), len(self._cells)

    def rewind(self, mark: tuple[int, int, int]) -> None:
        """Forget every id, keyed value and cell added since ``mark``.
        The later ids are popped from the tails of their buckets, last id
        first; the keyed values and cells added since the mark are new
        keys, so they are the last in their dicts' insertion order."""
        ids, seen, cells = mark
        buckets = self._buckets
        for ident in range(len(buckets) - 1, ids - 1, -1):
            buckets[ident].pop()
        del buckets[ids:], self._reps[ids:]
        for _ in range(len(self._seen) - seen):
            self._seen.popitem()
        for _ in range(len(self._cells) - cells):
            self._cells.popitem()

    def key(self, values: Iterable[float]) -> int:
        vals = tuple(values)
        ident = self._seen.get(vals)
        if ident is not None:
            return ident
        cell = self.cell
        cells = []
        split = ()  # (coordinate, neighbour cell) per split coordinate
        for x in vals:
            s = x / cell
            r = s + _MAGIC - _MAGIC
            # fails for r off or near a cell boundary, and for the NaN
            # offset of an infinite or NaN x / cell
            if not (-_CLEAR < s - r < _CLEAR and _LOW <= r < _HIGH):
                if isinf(x / self.tol):
                    raise OutOfGrid(f"value {x!r} is out of range at "
                                    f"comparison tolerance {self.tol!r}")
                r = float(round(s))  # a NaN raises ValueError
                off = s - r  # in [-1/2, 1/2], boundaries at +-1/2
                band = _GUARD + 2 * ulp(s)  # slack for the rounding of s
                if 0.5 - off < band:
                    split += ((len(cells), r + 1.0),)
                elif 0.5 + off < band:
                    split += ((len(cells), r - 1.0),)
            cells.append(r)
        if split:
            options = [(r,) for r in cells]
            for i, n in split:
                options[i] += (n,)
            for c in product(*options):
                ident = self._first_within(self._cells.get(c, ()), vals)
                if ident is not None:
                    break
            else:
                ident = self._store(
                    self._cells.setdefault(tuple(cells), []), vals)
        else:
            # one setdefault looks the one cell up and stores it, so an
            # empty cell gives a new id at once
            bucket = self._cells.setdefault(tuple(cells), [])
            ident = self._first_within(bucket, vals) if bucket else None
            if ident is None:
                ident = self._store(bucket, vals)
        self._seen[vals] = ident
        return ident

    def _store(self, bucket: list[int], vals: tuple[float, ...]) -> int:
        """A new id for ``vals``, appended to ``bucket``, its cell's."""
        ident = len(self._reps)
        self._reps.append(vals)
        bucket.append(ident)
        self._buckets.append(bucket)
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
