"""Tolerance-aware identification of float vectors.

Formal sums key their terms by integers, and this index is where float
values get those integers: new group elements (eight entry floats each),
covering-point cross-ratios and log atoms (two floats each).  Values are
rounded onto a grid of cell size ``tol``; plain rounding fails when two
nearly-equal values straddle a cell boundary, so lookups also probe the
neighbouring cell whenever a coordinate sits within a guard band of the
boundary.

The identity rule this gives: a lookup returns a stored id only when the
first vector stored under it is within ``tol`` in every entry, so values
more than ``2 * tol`` apart never share an id.  A value within the guard
band (``tol * 1e-3``) of a stored vector always finds a stored id, so
floating-point copies of a stored value get no new id.  Between the two
nothing is promised: values closer than ``tol`` can land in adjacent cells
and get different ids.
"""

from __future__ import annotations

from itertools import product
from typing import Iterable


class FuzzyIndex:
    """Assigns stable integer ids to float vectors.

    A lookup returns the id of the first stored vector within ``tol`` in
    every entry that sits in the vector's grid cell or in a probed
    neighbour; see the module docstring for what that does and does not
    identify."""

    def __init__(self, tol: float, guard: float | None = None):
        self.tol = tol
        # guard band: well above fp noise, well below the cell size
        self.guard = tol * 1e-3 if guard is None else guard
        self._cells: dict[tuple[int, ...], list[int]] = {}
        self._reps: list[tuple[float, ...]] = []

    def __len__(self) -> int:
        return len(self._reps)

    def key(self, values: Iterable[float]) -> int:
        vals = tuple(map(float, values))
        tol = self.tol
        guard_scaled = self.guard / tol
        primary = []
        split_at: list[tuple[int, int]] = []  # (position, alternative cell)
        for i, x in enumerate(vals):
            scaled = x / tol
            cell = int(round(scaled))
            primary.append(cell)
            off = scaled - cell  # in [-1/2, 1/2], boundaries at +-1/2
            if 0.5 - off < guard_scaled:
                split_at.append((i, cell + 1))
            elif 0.5 + off < guard_scaled:
                split_at.append((i, cell - 1))
        primary_key = tuple(primary)
        if not split_at:
            cands = [primary_key]
        else:
            split_at = split_at[:6]  # cap the probe fan-out
            cands = [primary_key]
            for choice in product(*(((i, None), (i, alt)) for i, alt in split_at)):
                cells = list(primary)
                changed = False
                for i, alt in choice:
                    if alt is not None:
                        cells[i] = alt
                        changed = True
                if changed:
                    cands.append(tuple(cells))
        for cell in cands:
            for ident in self._cells.get(cell, ()):
                rep = self._reps[ident]
                if len(rep) == len(vals) and all(
                    abs(a - b) <= tol for a, b in zip(rep, vals)
                ):
                    return ident
        ident = len(self._reps)
        self._reps.append(vals)
        self._cells.setdefault(primary_key, []).append(ident)
        return ident

