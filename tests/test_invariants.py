"""Cross-module invariants that do not fit a single module's test file."""

import math

from extbloch.config import Tolerances
from extbloch.chainio import prebloch_to_obj
from extbloch.covering import CoveringPoint, PreBlochElement
from extbloch.dilog import TWO_PI_SQ
from extbloch.fixtures import random_boundary_cycle
from extbloch.pipeline import lambda_hat, lhat_sum

import pytest


def _mod1_dist(x: float) -> float:
    d = abs(x % 1.0)
    return min(d, 1.0 - d)


def test_boundary_annihilation_100(rng):
    # pipeline values of boundaries vanish mod 1 (single draw)
    worst = 0.0
    for k in range(100):
        c = random_boundary_cycle(rng, n_terms=1)
        lam = lambda_hat(c, seed=k)
        val = -lhat_sum(lam.element) / TWO_PI_SQ
        worst = max(worst, _mod1_dist(val.real), abs(val.imag))
    assert worst < 1e-7


def test_prebloch_serialization():
    e = PreBlochElement([(2, CoveringPoint(0.25 + 0.5j, 2, -4)),
                         (-1, CoveringPoint(0.5, 0, 0))])
    obj = prebloch_to_obj(e)
    assert {"coef", "z", "p", "q"} == set(obj[0])
    coefs = sorted(t["coef"] for t in obj)
    assert coefs == [-1, 2]
    for t in obj:
        assert t["p"] % 2 == 0 and t["q"] % 2 == 0


def test_config_validation():
    for bad in (-1.0, 0.0, math.nan, math.inf):
        with pytest.raises(ValueError, match="positive and finite"):
            Tolerances(cmp=bad)
