"""Cross-module invariants that do not fit a single module's test file."""

import ast
import math
from pathlib import Path

from extbloch.config import Tolerances
from extbloch.fixtures import random_boundary_cycle
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


def test_config_validation():
    for bad in (-1.0, 0.0, math.nan, math.inf):
        with pytest.raises(ValueError, match="positive and finite"):
            Tolerances(cmp=bad)


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
