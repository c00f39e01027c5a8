"""The package surface: what ``import extbloch`` loads, which names it
exports, and the value semantics of its plain record classes."""

import ast
import copy
import importlib
import math
import os
import pickle
import subprocess
import sys
from pathlib import Path

import pytest

import extbloch
from extbloch.chains import RepairResult, repair_with_certificate
from extbloch.core import GroupElement, ProjVector
from extbloch.covering import (CoveringPoint, FlatteningReport,
                               FlatteningTriple, from_covering_point)
from extbloch.errors import (DegenerateConfig, DeterminantError,
                             InvalidFlattening)
from extbloch.fixtures import torsion_cycle
from extbloch.path_lift import LiftedFiveTuple, ParamPath, start_lift
from extbloch.pipeline import CcsReport, ConfigTuple, LambdaResult, lambda_hat
from extbloch.real_sl2 import SmallPositiveReport

SRC = Path(__file__).resolve().parents[1] / "src"


def _loaded_after(statement: str) -> set[str]:
    """The modules a fresh ``python -S`` holds after ``statement``."""
    code = f"import sys\n{statement}\nprint('\\n'.join(sys.modules))"
    env = dict(os.environ, PYTHONPATH=str(SRC))
    r = subprocess.run([sys.executable, "-S", "-c", code], env=env,
                       capture_output=True, text=True, timeout=60, check=True)
    return set(r.stdout.split())


# ---------------------------------------------------------------------------
# what an import loads


def test_cli_import_loads_no_demo_or_heavy_modules():
    # dataclasses (with inspect), typing and fractions cost more start-up
    # than an evaluation of a small cycle; the demo modules are not needed
    loaded = _loaded_after("import extbloch.cli")
    assert "extbloch.pipeline" in loaded
    assert not loaded & {"dataclasses", "inspect", "typing", "fractions",
                         "extbloch.real_sl2", "extbloch.path_lift",
                         "extbloch.fixtures", "extbloch.selftest"}


def test_selftest_import_loads_no_heavy_modules():
    # selftest loads path_lift and real_sl2, whose records are Records too,
    # so no ccs command brings dataclasses (with inspect) back
    loaded = _loaded_after("import extbloch.selftest")
    assert {"extbloch.path_lift", "extbloch.real_sl2"} <= loaded
    assert not loaded & {"dataclasses", "inspect", "typing", "fractions"}


def test_package_import_loads_the_evaluation_modules():
    # eager, so a package made fully lazy would not make ``ccs eval`` faster
    loaded = _loaded_after("import extbloch")
    assert {"extbloch.chains", "extbloch.covering", "extbloch.dilog",
            "extbloch.pipeline", "extbloch.chainio"} <= loaded
    assert "extbloch.fixtures" not in loaded
    # a demo-module name loads its module, and only that one, on first use
    loaded = _loaded_after("import extbloch\nextbloch.torsion_cycle")
    assert "extbloch.fixtures" in loaded
    assert not loaded & {"extbloch.real_sl2", "extbloch.path_lift"}


# ---------------------------------------------------------------------------
# public names: every name ``extbloch`` exported when all its modules loaded
# eagerly, by home module

EXPORTED = {
    "core": ["GroupElement", "INF", "ProjVector", "cross_ratio",
             "cross_ratio_ext", "det_pair", "hopf", "is_inf", "moebius",
             "rotation"],
    "covering": ["CoveringPoint", "FlatteningTriple", "WedgeElement",
                 "check_flattening_condition", "chi_hat", "five_tuple",
                 "from_covering_point", "mu", "nu_hat", "to_covering_point"],
    "dilog": ["CutSide", "lhat", "li2", "lifted_rogers", "plog", "rogers",
              "rogers_real", "vol"],
    "chains": ["BarChain", "HomChain", "bar_boundary", "cone",
               "conjugate_chain", "hom_boundary", "hom_to_inhom",
               "inhom_to_hom", "is_cycle", "is_good", "is_v_good",
               "repair_with_certificate", "sample_generic_v"],
    "fixtures": ["five_term_boundary", "random_boundary_cycle",
                 "random_good_hom_chain", "torsion_cycle"],
    "pipeline": ["CcsReport", "ConfigTuple", "ccs_value", "lambda_hat", "psi_v",
                 "sigma_hat"],
    "real_sl2": ["RealGroupElement", "check_small_positive_agreement",
                 "is_nonzero", "is_positive", "less", "rogers_cocycle",
                 "sort_tuple"],
    "path_lift": ["LiftedFiveTuple", "ParamPath", "five_term_sum_along",
                  "lift_path", "start_lift", "verify_pq_pattern",
                  "winding_loop"],
    "chainio": ["chain_from_obj", "chain_to_obj", "emit_report",
                "parse_cycle_file"],
}
MODULES = ["chainio", "chains", "config", "core", "covering", "dilog", "errors",
           "fixtures", "formal", "path_lift", "pipeline", "quantize",
           "real_sl2"]


def test_public_names_resolve_to_their_home_objects():
    for home, names in EXPORTED.items():
        module = importlib.import_module(f"extbloch.{home}")
        for name in names:
            expected = getattr(module, name)
            assert getattr(extbloch, name) is expected, name
            namespace = {}
            exec(f"from extbloch import {name}", namespace)
            assert namespace[name] is expected, name
            assert name in dir(extbloch), name


def test_submodules_and_version_resolve():
    for name in MODULES:
        assert getattr(extbloch, name) is importlib.import_module(
            f"extbloch.{name}")
        assert name in dir(extbloch)
    assert extbloch.__version__ == "0.1.0"


def test_star_import_brings_every_public_name():
    namespace = {}
    exec("from extbloch import *", namespace)
    assert {n for names in EXPORTED.values() for n in names} <= set(namespace)


def test_unknown_name_raises_attribute_error_naming_it():
    with pytest.raises(AttributeError, match="no_such_name"):
        extbloch.no_such_name  # noqa: B018
    with pytest.raises(ImportError, match="no_such_name"):
        exec("from extbloch import no_such_name", {})


def _imported_names(tree: ast.Module) -> dict[str, int]:
    """Name bound -> line, for every import in ``tree`` but __future__'s."""
    names = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                names[alias.asname or alias.name.partition(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                names[alias.asname or alias.name] = node.lineno
    return names


def test_no_module_imports_a_name_it_never_uses():
    # a deleted helper can leave its import behind; ``__init__`` imports
    # names to export them, so it is not checked
    unused = []
    for path in sorted((SRC / "extbloch").glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
        used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
        unused += [f"{path.name}:{line}: {name}"
                   for name, line in _imported_names(tree).items()
                   if name not in used]
    assert unused == []


# ---------------------------------------------------------------------------
# every value type is a Record: filled in slot order, checks first


def test_record_constructors_check_in_order():
    with pytest.raises(DeterminantError, match="determinant 0j differs"):
        GroupElement(1, 1j, 1j, -1)
    with pytest.raises(DeterminantError):
        GroupElement(math.nan, 0, 0, 1)  # a NaN det fails too
    with pytest.raises(ValueError, match="projective vector must be nonzero"):
        ProjVector(0, 1e-13)
    with pytest.raises(ValueError, match="must avoid 0 and 1"):
        CoveringPoint(1.0, 1, 0)  # z is checked before the parity
    with pytest.raises(ValueError, match=r"must be even, got \(0, 3\)"):
        CoveringPoint(0.5, 0, 3)
    with pytest.raises(InvalidFlattening, match="sum to zero"):
        FlatteningTriple(0.1, 0.2, 0.3)
    with pytest.raises(ValueError, match="more than 5 vectors"):
        ConfigTuple((ProjVector(1, 0),) * 6)  # before the determinant check
    with pytest.raises(DegenerateConfig, match=r"det\(v0, v1\) too small"):
        ConfigTuple((ProjVector(1, 0), ProjVector(2, 0)))
    with pytest.raises(ValueError, match="at least one vertex"):
        ParamPath(())
    lift = start_lift(0.25 + 0.5j, 0.5 + 1.5j)
    with pytest.raises(ValueError, match="exactly five covering points"):
        LiftedFiveTuple((0.5, 0.1), lift.points[:4])  # before the base check
    with pytest.raises(ValueError, match="do not lie over the base"):
        LiftedFiveTuple((0.5, 0.1), lift.points)


def test_records_want_one_value_per_slot():
    for cls in (FlatteningReport, LambdaResult, RepairResult,
                SmallPositiveReport):
        k = len(cls.__slots__)
        for n in (k - 1, k + 1):
            with pytest.raises(TypeError,
                               match=f"^{cls.__name__} takes {k} values, "
                                     f"got {n}$"):
                cls(*range(n))


def _frozen_examples():
    pt = CoveringPoint(0.5 + 0.1j, 2, -4)
    return [
        (GroupElement(2, 1j, 1, (1 + 1j) / 2), "abcd"),
        (ProjVector(1, 2j), ("v1", "v2")),
        (pt, "zpq"),
        (from_covering_point(pt), ("w0", "w1", "w2", "ledger")),
        (FlatteningReport((("z0z1", 0.0),), None), ("residuals", "exact")),
        (ConfigTuple((ProjVector(1, 0), ProjVector(0, 1))), ("vectors",)),
        (ParamPath(((0.25 + 0.5j, 0.5 + 1.5j),)), ("vertices",)),
        (start_lift(0.25 + 0.5j, 0.5 + 1.5j), ("base", "points")),
        (SmallPositiveReport(0.5, 0, 0, (1.0,) * 6, (2.0, 1.0, 0.5, 0.0),
                             1e-17),
         ("cross_ratio", "covering_p", "covering_q", "det_values",
          "boundary_points", "agreement_error")),
    ]


@pytest.mark.parametrize("obj, fields", _frozen_examples(),
                         ids=lambda o: type(o).__name__)
def test_frozen_records_compare_hash_and_refuse_assignment(obj, fields):
    twin = copy.copy(obj)
    assert twin is not obj and twin == obj and hash(twin) == hash(obj)
    assert pickle.loads(pickle.dumps(obj)) == obj
    assert obj != tuple(getattr(obj, f) for f in fields)  # same class only
    for field in fields:
        with pytest.raises(AttributeError,
                           match=f"cannot assign to field '{field}'"):
            setattr(obj, field, getattr(obj, field))
        with pytest.raises(AttributeError,
                           match=f"cannot delete field '{field}'"):
            delattr(obj, field)
    with pytest.raises(AttributeError):
        obj.extra = 1


def test_flattening_triple_equality_ignores_the_ledger():
    t = from_covering_point(CoveringPoint(0.5 + 0.1j, 2, -4))
    bare = FlatteningTriple(t.w0, t.w1, t.w2)
    assert bare.ledger is None and t.ledger is not None
    assert bare == t and hash(bare) == hash(t)
    assert FlatteningTriple.from_w01(t.w0, t.w1) == t
    assert FlatteningTriple(t.w0, t.w1, t.w2 + 1e-12) != t


def test_group_element_repr():
    assert repr(GroupElement.identity()) == \
        "GroupElement(a=1.0, b=0.0, c=0.0, d=1.0)"
    assert repr(ProjVector(1, 2j)) == "ProjVector(v1=1, v2=2j)"


def test_mutable_records_compare_by_value_and_are_unhashable():
    rep = CcsReport(0.5, 1j, 2.0)
    assert repr(rep) == ("CcsReport(value_mod1=0.5, raw_lhat=1j, volume=2.0, "
                         "trials=[], max_trial_deviation=0.0, residuals={}, "
                         "seed=None)")
    other = CcsReport(0.5, 1j, 2.0)
    assert other == rep
    # each instance gets its own default list and dict
    assert other.trials is not rep.trials
    assert other.residuals is not rep.residuals
    other.trials.append(0.5)
    assert rep.trials == [] and other != rep
    lam = lambda_hat(torsion_cycle(3), seed=1)
    assert isinstance(lam, LambdaResult)
    assert lam == lambda_hat(torsion_cycle(3), seed=1)
    res = repair_with_certificate(torsion_cycle(3), seed=1)
    assert isinstance(res, RepairResult) and res == res
    assert res != RepairResult(res.phi_image, res.homotopy, res.phi_image)
    for obj in (rep, lam, res):
        with pytest.raises(TypeError, match="unhashable"):
            hash(obj)
    rep.seed = 3  # not frozen
    assert rep.as_dict()["seed"] == 3
