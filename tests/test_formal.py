"""Properties of FormalSum and of the sums built on it."""

from fractions import Fraction

import numpy as np
import pytest

from extbloch.core import GroupElement, random_sl2, rotation
from extbloch.chains import (BarChain, SymbolTable, _checked_cycle,
                             conjugate_chain)
from extbloch.covering import WedgeElement
from extbloch.fixtures import torsion_cycle
from extbloch.formal import FormalSum
from extbloch.quantize import FuzzyIndex


def _coefficients(s) -> dict:
    return {k: c for c, k, _ in s.items()}


def _random_sum(rng, size=6, keys=8) -> FormalSum:
    terms = []
    for _ in range(size):
        key = int(rng.integers(keys))
        terms.append((int(rng.integers(-3, 4)), key, f"rep{key}"))
    return FormalSum(terms)


def test_add_then_subtract_restores(rng):
    for _ in range(200):
        a, b = _random_sum(rng), _random_sum(rng)
        assert _coefficients((a + b) - b) == _coefficients(a)
        assert (a - a).is_zero()


def test_integer_multiples(rng):
    for _ in range(100):
        a = _random_sum(rng)
        for n in (-2, 0, 1, 3):
            assert _coefficients(n * a) == {k: n * c for k, c in
                                            _coefficients(a).items() if n}
        assert _coefficients(-a) == _coefficients(-1 * a)


def test_first_seen_order_and_representative():
    s = FormalSum([(1, "b", "first b"), (2, "a", "first a"),
                   (3, "b", "second b"), (1, "c", "c")])
    assert list(s.items()) == [(4, "b", "first b"), (2, "a", "first a"),
                               (1, "c", "c")]
    assert s.terms == ((4, "first b"), (2, "first a"), (1, "c"))


def test_zero_coefficients_are_dropped():
    s = FormalSum([(2, "a", None), (1, "b", None), (-2, "a", None),
                   (0, "c", None)])
    assert list(s.items()) == [(1, "b", None)]
    assert len(s) == 1 and not s.is_zero()
    assert (s - s).is_zero() and len(s - s) == 0


def test_coefficients_must_be_integers():
    for coeff in (0.5, 1.0, Fraction(1, 1), np.float64(1)):
        with pytest.raises(TypeError):
            FormalSum([(coeff, "a", None)])
    # integral types other than int still pass, bool included
    s = FormalSum([(np.int64(2), "a", None), (True, "b", None)])
    assert _coefficients(s) == {"a": 2, "b": 1}


def test_tolerance_kept_across_operations(rng):
    # a sum's tolerance is its table's, and sums keep the left table
    g, h = random_sl2(rng), random_sl2(rng)
    a = BarChain(1, [(1, (g,))]).interned(SymbolTable(1e-6))
    b = BarChain(1, [(2, (h,))])
    for s in (a + b, a - b, -a, 3 * a):
        assert s.table is a.table and s.table.tol == 1e-6
    w = WedgeElement([(1, 1j, 2.0 + 0j)])
    assert (w + w).table is w.table and (w - w).table is w.table


def test_sums_over_different_tables_rekey(rng):
    # the right operand's terms are re-keyed through the left operand's table
    g, h = random_sl2(rng), random_sl2(rng)
    a = BarChain(2, [(1, (g, h))])
    b = BarChain(2, [(-1, (g, h)), (1, (h, g))])
    assert a.table is not b.table
    total = a + b
    assert len(total) == 1
    ((coeff, sym),) = total.terms
    assert coeff == 1 and sym[0] is h and sym[1] is g


def test_symbol_table_identifies_within_guard_band():
    table = SymbolTable(1e-8)
    t = rotation(5, 1)
    noisy = rotation(5, 1) @ rotation(7, 1) @ rotation(7, -1)
    assert noisy != t  # differs by rounding only
    assert table.intern(t) == table.intern(noisy)
    assert table.intern(rotation(5, 2)) != table.intern(t)
    assert table.mul(table.intern(t), table.intern(t)) == \
        table.intern(rotation(5, 2))
    assert table.mul(table.intern(t), table.intern(t.inverse())) == \
        table.identity


def _bits(g: GroupElement) -> tuple[str, ...]:
    return tuple(x.hex() for e in g.entries() for x in (e.real, e.imag))


def _check_ldiv(table: SymbolTable, i: int, j: int) -> None:
    size = len(table.elements)
    q = table.ldiv(i, j)
    ref = table.elements[i].inverse() @ table.elements[j]
    if len(table.elements) > size:  # a new quotient is the product itself
        assert _bits(table.elements[q]) == _bits(ref)
    assert table.intern(ref) == q
    assert table.ldiv(i, j) == q


def test_ldiv_is_the_interned_left_quotient():
    # ldiv(i, j) is the id intern(g_i.inverse() @ g_j) gets, on random
    # elements and on the tuples of a torsion cycle conjugated by a
    # large-entry matrix
    rng = np.random.default_rng(5)
    table = SymbolTable()
    ids = [table.intern(random_sl2(rng)) for _ in range(8)]
    for i in ids:
        for j in ids:
            _check_ldiv(table, i, j)
    assert table.ldiv(table.identity, ids[3]) == ids[3]
    assert all(table.ldiv(i, i) == table.identity for i in ids)
    conj = GroupElement(30.0, 0.3, 0.0, 1.0 / 30.0)
    hom = _checked_cycle(conjugate_chain(conj, torsion_cycle(5)),
                         SymbolTable())
    for _, tup in hom.pairs():
        for i in tup:
            for j in tup:
                _check_ldiv(hom.table, i, j)


def test_fuzzy_index_repeat_keeps_first_id():
    # at tol 1, 0.4999 sits in the guard band and joins the key of 1.0 in
    # the next cell; -0.2 then opens a key in 0.4999's own cell, which a
    # fresh probe of 0.4999 would reach first
    idx = FuzzyIndex(1.0)
    ids = [idx.key([x]) for x in (1.0, 0.4999, -0.2, 0.4999)]
    assert ids == [0, 0, 1, 0]
    assert len(idx) == 2
