"""Relations a class value keeps, on seeded, generated cycles.

The classes here (``CLASSES``), ``value`` and ``distance`` are also those
of the relations in ``test_invariants.py``, and ``conjugation_keeps`` is
also run by ``test_spherical.py``.  The cycles: torsion cycles conjugated
by random elements until every entry is at most 4 (the bench's
``CONJ_MAX_ENTRY``), random 3-term boundaries and a five-term boundary at
a random point, all drawn from standard-library generators with fixed
seeds, and the binary polyhedral classes of Q8, T* and I*
(``spherical.py``).  Each relation respells the cycle in a way that keeps
its class, or maps the class by a known rule, and compares values mod 1;
one holds a class of a finite group to the group's order.
"""

import random

import pytest

from extbloch import config
from extbloch.chainio import chain_from_obj, chain_to_obj
from extbloch.chains import BarChain, conjugate_chain
from extbloch.core import GroupElement, random_sl2
from extbloch.fixtures import (five_term_boundary, random_boundary_cycle,
                               torsion_cycle)
from extbloch.pipeline import ccs_value

import spherical
from conftest import mod1_dist, small_conjugate
from oracles import finite_order

MAX_ENTRY = 4.0
BOUND = 1e-12  # mod 1, for every relation but the shear respelling
SHEAR_BOUND = 1e-9


def _cycles():
    """(name, cycle) for every generated cycle."""
    rng = random.Random(2024)
    for n in (3, 4, 5, 7, 9, 12):
        yield f"torsion {n} conjugated", small_conjugate(torsion_cycle(n),
                                                         rng, MAX_ENTRY)
    yield "boundary", random_boundary_cycle(rng, n_terms=3)
    x, y = (complex(rng.uniform(0.2, 0.8), rng.uniform(-0.4, 0.4))
            for _ in range(2))
    yield "five-term", five_term_boundary(x, y)


CYCLES = dict(_cycles())
# the binary polyhedral classes, by name: their group and its order
FORMS = {"Q8": ("Q8", 8), "T*": ("T", 24), "I*": ("I", 120)}
CLASSES = {**CYCLES, **{name: spherical.cycle(group)
                        for name, (group, _) in FORMS.items()}}


def value(c: BarChain, seed: int = 0) -> complex:
    return ccs_value(c, seed=seed, trials=3).value_mod1


def distance(v: complex, w: complex) -> float:
    """The larger of the mod-1 distance of the real parts and the gap of
    the imaginary parts."""
    return max(mod1_dist(v.real, w.real), abs(v.imag - w.imag))


def conjugation_keeps(c: BarChain, want: complex, count: int = 3) -> None:
    """Conjugation acts trivially on group homology: ``count`` conjugates
    of ``c``, by elements with entries at most ``MAX_ENTRY``, evaluate to
    ``want``."""
    rng = random.Random(5)
    for _ in range(count):
        h = random_sl2(rng)
        while h.max_abs() > MAX_ENTRY:
            h = random_sl2(rng)
        assert distance(value(conjugate_chain(h, c)), want) <= BOUND


def _mapped(c: BarChain, f) -> BarChain:
    return BarChain(3, [(coeff, tuple(map(f, sym))) for coeff, sym in c])


@pytest.mark.parametrize("name", list(CLASSES))
def test_complex_conjugation_keeps_the_real_part_and_negates_the_volume(name):
    # the complex-conjugate representation has the complex-conjugate
    # invariant
    c = CLASSES[name]
    rep = ccs_value(c, seed=0, trials=3)
    conj = ccs_value(_mapped(c, lambda g: GroupElement(
        *(z.conjugate() for z in g.entries()))), seed=0, trials=3)
    assert distance(conj.value_mod1, rep.value_mod1.conjugate()) <= BOUND
    assert abs(conj.volume + rep.volume) <= BOUND


@pytest.mark.parametrize("name", list(CLASSES))
def test_conjugation_keeps_the_value(name):
    conjugation_keeps(CLASSES[name], value(CLASSES[name]))


@pytest.mark.parametrize("name", list(CLASSES))
def test_the_seed_and_the_tolerance_keep_the_value(name):
    c = CLASSES[name]
    want = value(c)
    for seed in (0, 7, 11):
        assert distance(value(c, seed), want) <= BOUND
    obj = chain_to_obj(c)
    for tol in (1e-10, 1e-9, 1e-8, 1e-7, 1e-6):
        read = chain_from_obj(obj, tol)
        assert read.table.tol == tol
        assert distance(value(read), want) <= BOUND


@pytest.mark.parametrize("name", list(CYCLES))
def test_a_shear_respelling_within_cmp_keeps_the_value(name):
    # every occurrence of g = (a, b; c, d) becomes g (1, e; 0, 1), det 1
    # exactly, with its own e: b and d move by e a and e c, at most a tenth
    # of cmp, so the respelled occurrences key as g's
    c, rng = CYCLES[name], random.Random(3)
    step = 0.1 * config.CMP

    def sheared(g: GroupElement) -> GroupElement:
        e = rng.uniform(-1.0, 1.0) * step / max(abs(g.a), abs(g.c))
        assert abs(e) * max(abs(g.a), abs(g.c)) <= step
        return g @ GroupElement(1.0, e, 0.0, 1.0)

    respelled = _mapped(c, sheared)
    assert respelled.table.elements != c.table.elements
    assert distance(value(respelled), value(c)) <= SHEAR_BOUND


def _order(name: str) -> int:
    """The order of the finite group a class was generated over, 0 for a
    boundary."""
    return (int(name.split()[1]) if name.startswith("torsion")
            else FORMS.get(name, (None, 0))[1])


def test_the_cycles_are_what_they_were_generated_as():
    # torsion n evaluates to -2/n mod 1, a class of G to -2/|G| and a
    # boundary to 0
    assert len(CYCLES) == 8
    for name, c in CLASSES.items():
        n = _order(name)
        want = complex(-2.0 / n % 1.0 if n else 0.0, 0.0)
        assert distance(value(c), want) <= BOUND, name


def test_the_order_of_a_finite_group_annihilates_its_classes():
    # |G| annihilates H_3(G; Z) for a finite group G, so a cycle whose
    # elements generate G (``finite_order``: the conjugated torsion cycles
    # and the binary polyhedral classes) has |G| value = 0 mod 1 and no
    # volume, whatever its frame; the boundaries' elements generate
    # infinite groups and get no order
    for name, c in CLASSES.items():
        n = finite_order(c)
        assert n == (_order(name) or None), name
        if n:
            v = value(c)
            assert mod1_dist(n * v.real) <= BOUND and abs(v.imag) <= BOUND
