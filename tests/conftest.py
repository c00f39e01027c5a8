"""Fixtures, and the helpers more than one test module uses."""

import random
import sys
from pathlib import Path

import numpy as np
import pytest

from extbloch import chains
from extbloch.chains import BarChain, SymbolTable, conjugate_chain
from extbloch.core import GroupElement, random_sl2, random_vector, rotation
from extbloch.errors import DegenerateConfig
from extbloch.fixtures import torsion_cycle
from extbloch.pipeline import ConfigTuple

sys.path.insert(0, str(Path(__file__).parent))


@pytest.fixture
def rng():
    return np.random.default_rng(20240811)


def random_complex(rng, lo=-2.0, hi=2.0) -> complex:
    return complex(rng.uniform(lo, hi), rng.uniform(lo, hi))


def random_config(rng, n: int) -> ConfigTuple:
    """n random vectors, redrawn until no two are near parallel."""
    while True:
        try:
            return ConfigTuple(tuple(random_vector(rng) for _ in range(n)))
        except DegenerateConfig:
            continue


def mod1_dist(a: float, b: float = 0.0) -> float:
    """The distance of a - b from the nearest integer."""
    d = abs((a - b) % 1.0)
    return min(d, 1.0 - d)


def bits(*values) -> tuple[str, ...]:
    """``float.hex`` of each float, of both parts of each complex number
    and of every entry of each group element among ``values``."""
    out = []
    for x in values:
        if isinstance(x, GroupElement):
            out += bits(*x.entries())
        elif isinstance(x, complex):
            out += (x.real.hex(), x.imag.hex())
        else:
            out.append(x.hex())
    return tuple(out)


class Draws:
    """A generator with nothing but ``uniform``: it hands out the values
    ``planted`` first, then draws from ``rng``, and keeps in ``taken``
    every value it handed out."""

    def __init__(self, rng=None, planted=()):
        self.rng, self.planted, self.taken = rng, iter(planted), []

    def uniform(self, a: float, b: float) -> float:
        x = next(self.planted, None)
        self.taken.append(self.rng.uniform(a, b) if x is None else x)
        return self.taken[-1]


def entries_of(*elements: GroupElement) -> list[float]:
    """The values from which ``random_sl2`` rebuilds ``elements``, each
    within rounding: the parts of a, b, c, d in turn (det 1 is kept)."""
    return [x for g in elements for z in g.entries() for x in (z.real, z.imag)]


def apex_draws(monkeypatch) -> list:
    """(element, values taken) of every ``random_sl2`` draw from now on;
    the values are counted on a ``Draws`` only."""
    drawn, real = [], chains.random_sl2

    def draw(rng):
        before = len(getattr(rng, "taken", ()))
        drawn.append((real(rng), len(getattr(rng, "taken", ())) - before))
        return drawn[-1][0]

    monkeypatch.setattr(chains, "random_sl2", draw)
    return drawn


def holds(table, g) -> bool:
    """``table`` interned the element object ``g`` itself."""
    return any(e is g for e in table.elements)


def goodness_tests(monkeypatch) -> list:
    """The id tuples ``SymbolTable.good`` is asked about from now on, in
    order: a full repair tests every term for goodness, a replay none."""
    tests, good = [], SymbolTable.good
    monkeypatch.setattr(SymbolTable, "good",
                        lambda self, ids: tests.append(ids) or good(self, ids))
    return tests


def refused_apex() -> list[float]:
    """Values for ``Draws`` that plant the first two apexes of a repair of
    torsion 6: a random a, then -r a for r the rotation by 60 degrees.  The
    first cone of degree 2 does not hold r a and a later one does, so the
    second apex clears the cone it is drawn for, the reuse test refuses it
    at that later cone, and a fresh apex is drawn there."""
    a = random_sl2(random.Random(1))
    return entries_of(a, -(rotation(6, 1) @ a))


def small_conjugate(c: BarChain, rng, max_entry: float = 4.0) -> BarChain:
    """``c`` conjugated by ``random_sl2`` draws from ``rng`` until every
    entry is at most ``max_entry`` in modulus."""
    while True:
        out = conjugate_chain(random_sl2(rng), c)
        if max(g.max_abs() for _, sym in out for g in sym) <= max_entry:
            return out


def large_conjugate(n: int, s: float) -> BarChain:
    """``torsion_cycle(n)`` conjugated by (s, 0.3; 0, 1/s), whose entries
    grow with s."""
    return conjugate_chain(GroupElement(s, 0.3, 0, 1 / s), torsion_cycle(n))
