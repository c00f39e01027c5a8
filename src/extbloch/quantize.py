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
boundary.

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
from typing import Iterable

from .errors import OutOfGrid

# guard band, as a fraction of the cell size: well above fp noise, well
# below the cell size
_GUARD = 1e-3


class FuzzyIndex:
    """Assigns stable integer ids to float vectors.

    A repeated value gets its first id.  A new value gets the id of the
    first stored vector within ``tol`` in every entry that sits in the
    vector's grid cell or in a probed neighbour; see the module docstring
    for what that does and does not identify."""

    def __init__(self, tol: float):
        self.tol = tol
        self._seen: dict[tuple[float, ...], int] = {}
        self._cells: dict[tuple[int, ...], list[int]] = {}
        self._reps: list[tuple[float, ...]] = []

    def __len__(self) -> int:
        return len(self._reps)

    def key(self, values: Iterable[float]) -> int:
        vals = tuple(values)
        ident = self._seen.get(vals)
        if ident is None:
            ident = self._seen[vals] = self._probe(vals)
        return ident

    def _probe(self, vals: tuple[float, ...]) -> int:
        tol = self.tol
        # per coordinate: its cell, then the neighbour when it sits in the
        # guard band of a cell boundary (at most 6 coordinates split)
        options: list[tuple[int, ...]] = []
        splits = 0
        for x in vals:
            scaled = x / tol
            try:
                cell = int(round(scaled))
            except OverflowError:  # x / tol is infinite
                raise OutOfGrid(f"value {x!r} is out of range at comparison "
                                f"tolerance {tol!r}") from None
            off = scaled - cell  # in [-1/2, 1/2], boundaries at +-1/2
            alt = (cell + 1 if 0.5 - off < _GUARD
                   else cell - 1 if 0.5 + off < _GUARD else None)
            if alt is not None and splits < 6:
                options.append((cell, alt))
                splits += 1
            else:
                options.append((cell,))
        for cell in product(*options):  # the primary cell comes first
            for ident in self._cells.get(cell, ()):
                rep = self._reps[ident]
                if len(rep) == len(vals) and all(
                    abs(a - b) <= tol for a, b in zip(rep, vals)
                ):
                    return ident
        ident = len(self._reps)
        self._reps.append(vals)
        self._cells.setdefault(tuple(o[0] for o in options), []).append(ident)
        return ident
