import math

import numpy as np
import pytest

from extbloch import real_sl2
from extbloch.cli import main
from extbloch.covering import FlatteningTriple
from extbloch.dilog import PI2_6
from extbloch.errors import Incomparable, PreconditionFailed
from extbloch.pipeline import sigma_hat
from extbloch.real_sl2 import (RealGroupElement, check_small_positive_agreement,
                               is_nonzero, is_positive, less, rogers_cocycle,
                               sample_agreement_suite, sample_small_positive,
                               sort_tuple)


def _random_real(rng, box=2.0):
    while True:
        a = rng.uniform(-box, box)
        if abs(a) < 0.25:
            continue
        b, c = rng.uniform(-box, box), rng.uniform(-box, box)
        d = (1.0 + b * c) / a
        if abs(d) <= 3 * box:
            try:
                return RealGroupElement(a, b, c, d)
            except ValueError:
                continue


def test_positivity_predicates():
    assert is_positive(RealGroupElement(1, 0, 1, 1))
    assert not is_nonzero(RealGroupElement(1, 1, 0, 1))
    g = RealGroupElement(1, 0, -1, 1)
    assert is_nonzero(g) and not is_positive(g)


def test_less_examples():
    g1 = RealGroupElement(1, 0, 1, 1)
    g2 = RealGroupElement(1, 0, 2, 1)
    assert less(g1, g2)
    assert not less(g2, g1)
    with pytest.raises(Incomparable):
        less(g1, g1)


def test_order_antisymmetry(rng):
    count = 0
    while count < 1000:
        g1, g2 = _random_real(rng), _random_real(rng)
        try:
            a, b = less(g1, g2), less(g2, g1)
        except Incomparable:
            continue
        count += 1
        assert a != b


def test_sort_tuple_sorted_and_reversed(rng):
    els = [sample_small_positive(rng) for _ in range(4)]
    prods = [els[0]]
    for e in els[1:]:
        prods.append(prods[-1] @ e)
    # g < g h for positive h, so the partial products ascend
    assert sort_tuple(tuple(prods)) == (0, 1, 2, 3)
    assert sort_tuple(tuple(reversed(prods))) == (3, 2, 1, 0)


def test_sort_tuple_random_small_products(rng):
    for _ in range(50):
        els = [sample_small_positive(rng) for _ in range(4)]
        prods = [els[0]]
        for e in els[1:]:
            prods.append(prods[-1] @ e)
        order = rng.permutation(4)
        shuffled = tuple(prods[i] for i in order)
        perm = sort_tuple(shuffled)
        sorted_els = [shuffled[i] for i in perm]
        for i in range(3):
            assert less(sorted_els[i], sorted_els[i + 1])
        # idempotence
        assert sort_tuple(tuple(sorted_els)) == (0, 1, 2, 3)


def test_rogers_cocycle_degenerate_tuple_is_zero():
    g = RealGroupElement(1, 0, 1, 1)
    h = RealGroupElement(1, 1, 1, 2)
    # g and h share the boundary point 1
    assert rogers_cocycle(g, h, RealGroupElement(2, 0, 1, 0.5),
                          RealGroupElement(1, 0, 3, 1)) == 0.0


def test_rogers_cocycle_mod_pi2_6(rng):
    for _ in range(200):
        gs = [_random_real(rng) for _ in range(5)]
        s = 0.0
        for i in range(5):
            face = gs[:i] + gs[i + 1:]
            s += (-1) ** i * rogers_cocycle(*face)
        ratio = s / PI2_6
        assert abs(ratio - round(ratio)) < 1e-8


def test_rogers_cocycle_small_positive_window(rng):
    for _ in range(50):
        g1, g2, g3 = (sample_small_positive(rng) for _ in range(3))
        e = RealGroupElement.identity()
        val = rogers_cocycle(e, g1, g1 @ g2, g1 @ g2 @ g3)
        # the associated cross-ratio lies in (0, 1), where rogers < 0
        assert -PI2_6 < val < 0


def test_agreement_report_fields(rng):
    g1, g2, g3 = (sample_small_positive(rng) for _ in range(3))
    rep = check_small_positive_agreement(g1, g2, g3)
    assert rep.covering_p == 0 and rep.covering_q == 0
    assert 0.0 < rep.cross_ratio < 1.0
    assert all(d > 0 for d in rep.det_values)
    pts = rep.boundary_points
    assert pts[0] == math.inf and pts[1] > pts[2] > pts[3]
    assert rep.agreement_error == 0.0


def test_agreement_nonpositive_rejected(rng):
    g1, g3 = sample_small_positive(rng), sample_small_positive(rng)
    bad = RealGroupElement(1.0, 0.1, -0.05, (1.0 - 0.005) / 1.0)
    with pytest.raises(PreconditionFailed):
        check_small_positive_agreement(g1, bad, g3)


def test_agreement_large_elements_fail_a_bullet(rng):
    # large positive entries break a product-positivity/determinant bullet
    raised = 0
    for _ in range(50):
        gs = []
        for _ in range(3):
            a = rng.uniform(0.3, 3.0) * rng.choice([-1.0, 1.0])
            b = rng.uniform(-3.0, 3.0)
            c = rng.uniform(0.5, 3.0)
            try:
                gs.append(RealGroupElement(a, b, c, (1 + b * c) / a))
            except ValueError:
                break
        if len(gs) < 3:
            continue
        try:
            check_small_positive_agreement(*gs)
        except PreconditionFailed:
            raised += 1
    assert raised > 0


def test_agreement_suite_500(rng):
    reports = sample_agreement_suite(seed=17, samples=500)
    assert len(reports) == 500
    assert max(r.agreement_error for r in reports) == 0.0
    assert all(r.covering_p == 0 and r.covering_q == 0 for r in reports)
    assert all(0.0 < r.cross_ratio < 1.0 for r in reports)
    assert all(p[0] > p[1] > p[2] > p[3]
               for p in (r.boundary_points for r in reports))


def test_a_flattening_off_the_principal_branch_is_reported(monkeypatch, rng,
                                                           capsys):
    # the branch and the cross-ratio are claims, not hypotheses: a
    # flattening shifted one branch is reported, not redrawn, so the suite
    # ends and real-check exits 3
    def shifted(cfg):
        t = sigma_hat(cfg)
        return FlatteningTriple(t.w0 + 2j * math.pi, t.w1, t.w2 - 2j * math.pi)

    monkeypatch.setattr(real_sl2, "sigma_hat", shifted)
    rep = check_small_positive_agreement(
        *(sample_small_positive(rng) for _ in range(3)))
    assert (rep.covering_p, rep.covering_q) == (2, 0)
    assert 0.0 < rep.cross_ratio < 1.0 and rep.agreement_error > 0.0
    assert main(["real-check", "--samples", "5"]) == 3
    assert '"all_principal_branch": false' in capsys.readouterr().out
