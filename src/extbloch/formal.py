"""Formal integer combinations of terms identified by exact keys.

Chains and wedges are both ``FormalSum`` objects.  Float
values are identified once, when a term is keyed through the sum's ``table``
(a symbol table of group elements, or a ``FuzzyIndex``); after that, sums
keyed through one table add by exact dictionary merging, and a sum keyed
through another table is re-keyed through the left operand's first.
"""

from __future__ import annotations

import copy
from numbers import Integral
from itertools import chain
from collections.abc import Hashable, Iterable

Keyed = Iterable[tuple[int, Hashable, object]]  # (coefficient, key, representative)


class FormalSum:
    """Integer combination of terms, kept merged: equal keys add their
    coefficients and keep the first-seen position and representative; zero
    coefficients are dropped.  ``+``, ``-``, negation and ``n *`` keep the
    ``table`` of the left operand."""

    __slots__ = ("_terms", "table")

    def __init__(self, terms: Iterable = (), table: object = None):
        self.table = table
        self._merge(self._keyed(terms))

    def _keyed(self, terms: Iterable) -> Keyed:
        """Terms in the form the constructor takes, keyed through
        ``self.table``; a bare sum takes keyed triples as they are."""
        return terms

    def _merge(self, keyed: Keyed) -> None:
        merged: dict[Hashable, list] = {}
        for coeff, key, rep in keyed:
            if type(coeff) is not int and not isinstance(coeff, Integral):
                raise TypeError(f"coefficients must be integers, got {coeff!r}")
            term = merged.get(key)
            if term is None:
                merged[key] = [coeff, rep]
            else:
                term[0] += coeff
        self._terms = {k: t for k, t in merged.items() if t[0] != 0}

    def _like(self, keyed: Keyed):
        out = copy.copy(self)
        out._merge(keyed)
        return out

    def items(self) -> Keyed:
        return ((t[0], k, t[1]) for k, t in self._terms.items())

    def __iter__(self):
        return ((t[0], t[1]) for t in self._terms.values())

    @property
    def terms(self) -> tuple:
        return tuple(self)

    def __len__(self) -> int:
        return len(self._terms)

    def is_zero(self) -> bool:
        return not self._terms

    def _aligned(self, other: "FormalSum") -> Keyed:
        if other.table is self.table:
            return other.items()
        return self._keyed(other)

    def __add__(self, other):
        return self._like(chain(self.items(), self._aligned(other)))

    def __neg__(self):
        return self._like((-c, k, r) for c, k, r in self.items())

    def __sub__(self, other):
        return self + (-other)

    def __rmul__(self, n: int):
        return self._like((n * c, k, r) for c, k, r in self.items())
