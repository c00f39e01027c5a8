"""Relations a class value keeps when its cycle is respelled, on torsion
5 and 12 as built and on the classes of ``test_relations.py`` (which holds
the other relations), and invariants that fit no single module's tests.
"""

import ast
import math
import random
from itertools import combinations_with_replacement
from pathlib import Path

from extbloch import config
from extbloch.chains import BarChain, SymbolTable
from extbloch.fixtures import random_boundary_cycle, torsion_cycle

import pytest

import faults
from conftest import large_conjugate
from test_relations import BOUND, CLASSES, distance, value

CHAINS = {"torsion 5": torsion_cycle(5), "torsion 12": torsion_cycle(12),
          **CLASSES}
# four chains pairwise, and every other chain with the next
_FIRST = ["torsion 5", "torsion 12", "torsion 7 conjugated", "five-term"]
_REST = [name for name in CHAINS if name not in _FIRST]
SUMMANDS = [*combinations_with_replacement(_FIRST, 2),
            *zip(_REST, _REST[1:] + _REST[:1])]


def test_boundary_annihilation_100(rng):
    # pipeline values of boundaries vanish mod 1
    assert max(distance(value(random_boundary_cycle(rng, n_terms=1), k), 0j)
               for k in range(100)) < 1e-7


@pytest.mark.parametrize("name", list(CHAINS))
def test_term_order_keeps_the_value(name):
    # a permuted chain interns its elements in another order, so other
    # floats reach the fuzzy index first and ids are handed out anew
    c = CHAINS[name]
    want, terms, shuffle = value(c), list(c), random.Random(0).shuffle
    for _ in range(3):
        order = list(range(len(terms)))
        while order == sorted(order):
            shuffle(order)
        got = value(BarChain(3, [terms[k] for k in order]))
        assert distance(got, want) <= BOUND, (name, order, got, want)


@pytest.mark.parametrize("name", list(CHAINS))
def test_adding_a_boundary_keeps_the_value(name):
    # a sum keys its left operand's terms first, so c + b and b + c intern
    # and repair in other orders; a boundary b adds nothing to the class
    c, b = CHAINS[name], random_boundary_cycle(0, n_terms=3)
    want = value(c)
    for total in (c + b, b + c):
        assert distance(value(total), want) <= BOUND, name


@pytest.mark.parametrize("name", list(CHAINS))
def test_negating_the_chain_negates_the_value(name):
    c = CHAINS[name]
    assert distance(value(-c), -value(c)) <= BOUND, name


@pytest.mark.parametrize("a, b", SUMMANDS)
def test_the_value_is_additive(a, b):
    # c1 + c2 and c1 - c2 have the values v(c1) + v(c2) and v(c1) - v(c2);
    # c + c keys the doubled terms once, and c - c is the empty cycle
    c1, c2 = CHAINS[a], CHAINS[b]
    v1, v2 = value(c1), value(c2)
    for total, want in ((c1 + c2, v1 + v2), (c1 - c2, v1 - v2)):
        assert distance(value(total), want) <= BOUND, (a, b)


# torsion n as built and conjugated by (3, 0.3; 0, 1/3), and the classes
INVERTED = {**{f"{conj}-{n}": large_conjugate(n, 3) if conj
               else torsion_cycle(n) for conj in (False, True)
               for n in (5, 7, 12)}, **CLASSES}


@pytest.mark.parametrize("name", list(INVERTED))
def test_inversion_map_keeps_the_value(name):
    # [g1|g2|g3] -> [g3^-1|g2^-1|g1^-1] reverses the homogeneous vertices,
    # with sign (-1)^(3*4/2) = +1
    c = INVERTED[name]
    inverted = BarChain(3, [(coef, (g3.inverse(), g2.inverse(), g1.inverse()))
                            for coef, (g1, g2, g3) in c])
    assert distance(value(inverted), value(c)) <= BOUND, name


def test_config_validation():
    # the one settable tolerance: positive, finite and below the apex margin
    for bad in (-1.0, 0.0, math.nan, math.inf, 0.3, config.APEX_MARGIN):
        for check in (config.check_cmp, SymbolTable):
            with pytest.raises(ValueError,
                               match="tolerance cmp must lie in"):
                check(bad)
    for good in (config.CMP, 1e-4):
        assert config.check_cmp(good) == good == SymbolTable(good).tol


def test_cover_stage_refusals_have_one_body():
    # each refusal of the stage from log-parameters to covering points is
    # raised from exactly one function of src/, and all from the same one:
    # the trial path calls that body instead of carrying a copy
    texts = ("log-parameters must sum to zero", "log-parameters overflow",
             "no logarithm of 1/(1 - z)", "w1 is not a logarithm",
             "is not an integer", "is odd")
    raisers = {text: set() for text in texts}

    def visit(node, where):
        for child in ast.iter_child_nodes(node):
            inner = where
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef,
                                  ast.ClassDef)):
                inner = f"{where}.{child.name}"
            elif isinstance(child, ast.Raise):
                words = "".join(n.value for n in ast.walk(child)
                                if isinstance(n, ast.Constant)
                                and isinstance(n.value, str))
                for text in texts:
                    if text in words:
                        raisers[text].add(where)
            visit(child, inner)

    src = Path(__file__).resolve().parent.parent / "src" / "extbloch"
    for path in sorted(src.glob("*.py")):
        visit(ast.parse(path.read_text(encoding="utf-8")), path.stem)
    bodies = set().union(*raisers.values())
    assert len(bodies) == 1 and all(
        len(where) == 1 for where in raisers.values()), raisers


def test_the_planted_faults_apply_to_the_tree():
    # each fault of tests/faults.py plants once: its old text occurs once
    # in its file and its new text differs; ids are unique, every stage has
    # a fault and every note names one.  A rename that breaks one fails here
    assert faults.check() == []


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


# the tests' couplings to src internals, each kept for a reason README.md
# gives: patches (setattr, or plain assignment through a name imported from
# src) of a private name or of a member of a private class, and every
# private name of src a module under tests/ imports or reads
PRIVATE_PATCHES = ["test_kernels.py: chains._replay",
                   "test_pipeline.py: _ConeRepairer.linear",
                   "test_pipeline.py: chains._Plan",
                   "test_pipeline.py: chains._check_good",
                   "test_pipeline.py: chains._replay"]
PRIVATE_NAMES = [
    "_BERN_COEFFS", "_CLEAR", "_ConeRepairer", "_GUARD", "_LDIV", "_MUL",
    "_Plan", "_REUSE", "_SERIES_MAX", "_cells", "_check_good", "_lambda_hat",
    "_lhat_sums", "_log1m", "_log_params", "_max_deviation", "_mod1",
    "_quotients", "_repair_core", "_repairs", "_replay", "_reps", "_sample_v",
    "_seen", "_v_pass", "_write_chain"]


def test_tests_reach_src_internals_only_as_listed():
    # coupling to internals grows back only by editing the two lists above
    root = Path(__file__).resolve().parent.parent
    defined = set()
    for path in (root / "src" / "extbloch").glob("*.py"):
        for n in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(n, (ast.FunctionDef, ast.ClassDef)):
                defined.add(n.name)
            elif isinstance(n, ast.Name) and isinstance(n.ctx, ast.Store):
                defined.add(n.id)
            elif isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Store):
                defined.add(n.attr)
            elif isinstance(n, ast.Constant) and isinstance(n.value, str):
                defined.add(n.value)  # as a __slots__ entry
    defined = {x for x in defined if x[:1] == "_" and x[-2:] != "__"}
    patches, reached = [], set()
    for path in sorted((root / "tests").glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        bound = {a.asname or a.name.split(".")[0] for n in ast.walk(tree)
                 if isinstance(n, (ast.Import, ast.ImportFrom))
                 for a in n.names
                 if (getattr(n, "module", None) or a.name).startswith(
                     "extbloch")}  # the names an import from src binds
        for n in ast.walk(tree):
            targets = []
            if isinstance(n, ast.ImportFrom) and n.module.startswith("extbloch"):
                reached |= {a.name for a in n.names} & defined
            elif isinstance(n, ast.Attribute) and n.attr in defined:
                reached.add(n.attr)
            elif (isinstance(n, ast.Call) and getattr(n.func, "attr", "")
                  == "setattr" and isinstance(n.args[1], ast.Constant)):
                targets = [f"{ast.unparse(n.args[0])}.{n.args[1].value}"]
            elif isinstance(n, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
                targets = [ast.unparse(t) for t in (
                    n.targets if isinstance(n, ast.Assign) else [n.target])
                    if isinstance(t, ast.Attribute)
                    and ast.unparse(t).split(".")[0] in bound]
            patches += [f"{path.name}: {target}" for target in targets
                        if "._" in f".{target}"]
    assert sorted(patches) == PRIVATE_PATCHES
    assert sorted(reached) == PRIVATE_NAMES
