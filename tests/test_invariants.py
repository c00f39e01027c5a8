"""Cross-module invariants that do not fit a single module's test file."""

import ast
import math
import random
from itertools import combinations_with_replacement
from pathlib import Path

from extbloch import config
from extbloch.chains import BarChain, SymbolTable, conjugate_chain
from extbloch.core import GroupElement
from extbloch.fixtures import (five_term_boundary, random_boundary_cycle,
                               torsion_cycle)
from extbloch.pipeline import ccs_value

import pytest


def _mod1_dist(x: float) -> float:
    d = abs(x % 1.0)
    return min(d, 1.0 - d)


def test_boundary_annihilation_100(rng):
    # pipeline values of boundaries vanish mod 1 (single draw)
    worst = 0.0
    for k in range(100):
        c = random_boundary_cycle(rng, n_terms=1)
        val = ccs_value(c, seed=k, trials=1).value_mod1
        worst = max(worst, _mod1_dist(val.real), abs(val.imag))
    assert worst < 1e-7


# the conjugator of the tests below: entries up to 3, an upper triangle
_CONJ = GroupElement(3.0, 0.3, 0.0, 1.0 / 3.0)


def _value(c: BarChain) -> complex:
    return ccs_value(c, seed=0, trials=1).value_mod1


def _same_class_value(v: complex, w: complex) -> bool:
    return (_mod1_dist(v.real - w.real) <= 1e-12
            and abs(v.imag - w.imag) <= 1e-12)


_CHAINS = {
    "torsion 5": lambda: torsion_cycle(5),
    "torsion 12": lambda: torsion_cycle(12),
    "torsion 7 conjugated": lambda: conjugate_chain(_CONJ, torsion_cycle(7)),
    "five-term": lambda: five_term_boundary(0.5, 0.25),
}


@pytest.mark.parametrize("name", list(_CHAINS))
def test_term_order_keeps_the_value(name):
    # a permuted chain interns its elements in another order, so other
    # floats reach the fuzzy index first and ids are handed out anew
    c = _CHAINS[name]()
    want, terms = _value(c), list(c)
    for seed in range(5):
        order = list(range(len(terms)))
        random.Random(seed).shuffle(order)
        assert order != sorted(order)
        got = _value(BarChain(3, [terms[k] for k in order]))
        assert _same_class_value(got, want), (name, seed, got, want)


@pytest.mark.parametrize("name", list(_CHAINS))
def test_adding_a_boundary_keeps_the_value(name):
    # a sum keys its left operand's terms first, so c + b and b + c intern
    # and repair in other orders; a boundary b adds nothing to the class
    c = _CHAINS[name]()
    want = _value(c)
    for seed in range(5):
        b = random_boundary_cycle(seed, n_terms=3)
        for total in (c + b, b + c):
            got = _value(total)
            assert _same_class_value(got, want), (name, seed, got, want)


@pytest.mark.parametrize("name", list(_CHAINS))
def test_negating_the_chain_negates_the_value(name):
    c = _CHAINS[name]()
    got, want = _value(-c), _value(c)
    assert _same_class_value(got, -want), (name, got, want)


@pytest.mark.parametrize("a, b", list(combinations_with_replacement(_CHAINS,
                                                                    2)))
def test_the_value_is_additive(a, b):
    # c1 + c2 and c1 - c2 have the values v(c1) + v(c2) and v(c1) - v(c2);
    # c + c keys the doubled terms once, and c - c is the empty cycle
    c1, c2 = _CHAINS[a](), _CHAINS[b]()
    for seed in range(3):
        v1, v2 = (ccs_value(c, seed=seed, trials=1).value_mod1
                  for c in (c1, c2))
        for total, want in ((c1 + c2, v1 + v2), (c1 - c2, v1 - v2)):
            got = ccs_value(total, seed=seed, trials=1).value_mod1
            assert _same_class_value(got, want), (a, b, seed, got, want)


@pytest.mark.parametrize("n", [5, 7, 12])
@pytest.mark.parametrize("conjugated", [False, True])
def test_inversion_map_keeps_the_value(n, conjugated):
    # [g1|g2|g3] -> [g3^-1|g2^-1|g1^-1] reverses the homogeneous vertices,
    # with sign (-1)^(3*4/2) = +1
    c = torsion_cycle(n)
    if conjugated:
        c = conjugate_chain(_CONJ, c)
    inverted = BarChain(3, [(coef, (g3.inverse(), g2.inverse(), g1.inverse()))
                            for coef, (g1, g2, g3) in c])
    got, want = _value(inverted), _value(c)
    assert _same_class_value(got, want), (got, want)


def test_config_validation():
    # the one settable tolerance: positive, finite and below the apex margin
    for bad in (-1.0, 0.0, math.nan, math.inf, 0.3, config.APEX_MARGIN):
        for check in (config.check_cmp, SymbolTable):
            with pytest.raises(ValueError,
                               match="tolerance cmp must lie in"):
                check(bad)
    for good in (config.CMP, 1e-4):
        assert config.check_cmp(good) == good == SymbolTable(good).tol


def test_src_modules_use_every_import():
    # every name a module imports is referenced in it; __init__ re-exports
    src = Path(__file__).resolve().parent.parent / "src" / "extbloch"
    unused = []
    for path in sorted(src.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                unused += [f"{path.name}:{node.lineno} {a.asname or a.name}"
                           for a in node.names
                           if (a.asname or a.name.split(".")[0]) not in used]
    assert len(list(src.glob("*.py"))) > 10 and not unused, unused
