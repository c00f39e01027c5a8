import pytest

from extbloch.core import (INF, GroupElement, ProjVector, cross_ratio,
                           cross_ratio_ext, det_pair, hopf, is_inf, moebius,
                           random_sl2, random_vector, rotation)
from extbloch.errors import DegenerateTuple, DeterminantError


def test_det_pair_examples():
    assert det_pair(ProjVector(1, 0), ProjVector(0, 1)) == 1
    assert det_pair(ProjVector(1, 0), ProjVector(1, 2)) == 2
    assert det_pair(ProjVector(1, 1), ProjVector(1, 1)) == 0


def test_hopf_examples():
    assert is_inf(hopf(ProjVector(1, 0)))
    assert hopf(ProjVector(3, 1)) == 3
    assert hopf(ProjVector(2j, 2)) == 1j


def test_determinant_check_fails_loudly():
    with pytest.raises(DeterminantError):
        GroupElement(2, 0, 0, 1)


def test_nan_determinant_fails_the_check():
    nan, inf = float("nan"), float("inf")
    with pytest.raises(DeterminantError):
        GroupElement(nan, 0, 0, 1)
    with pytest.raises(DeterminantError):
        GroupElement(inf, 1, -1, 0)  # inf * 0 makes the determinant NaN


def test_moebius_identity_and_pole():
    g = GroupElement.identity()
    assert moebius(g, 0.3 + 0.1j) == 0.3 + 0.1j
    s = GroupElement(0, -1, 1, 0)
    assert is_inf(moebius(s, 0.0))
    assert moebius(s, INF) == 0


def test_moebius_hopf_equivariance(rng):
    for _ in range(300):
        g = random_sl2(rng)
        v = random_vector(rng)
        lhs = moebius(g, hopf(v))
        rhs = hopf(g.apply(v))
        if is_inf(lhs) or is_inf(rhs):
            assert is_inf(lhs) == is_inf(rhs)
        else:
            assert abs(lhs - rhs) <= 1e-8 * (1 + abs(rhs))


def test_cross_ratio_examples():
    assert abs(cross_ratio(0.0, INF, 1.0, 0.25 + 0.5j) - (0.25 + 0.5j)) < 1e-12
    assert abs(cross_ratio(1.0, 2.0, 3.0, 4.0) - 0.75) < 1e-12
    assert abs(cross_ratio(INF, 0.0, 1.0, 0.5) - 2.0) < 1e-12


def test_cross_ratio_degenerate():
    with pytest.raises(DegenerateTuple):
        cross_ratio(0.0, 0.0, 1.0, 5.0)


def test_cross_ratio_ext_zero_convention():
    assert cross_ratio_ext(0.0, 0.0, 1.0, 5.0) == 0
    assert abs(cross_ratio_ext(0.0, INF, 1.0, 7.0) - 7.0) < 1e-12
    assert cross_ratio_ext(INF, INF, 0.0, 1.0) == 0


def test_cross_ratio_moebius_invariance(rng):
    from conftest import random_complex
    for _ in range(1000):
        g = random_sl2(rng)
        pts = [random_complex(rng) for _ in range(4)]
        try:
            base = cross_ratio(*pts)
            moved = cross_ratio(*(moebius(g, z) for z in pts))
        except DegenerateTuple:
            continue
        assert abs(base - moved) <= 1e-9 * (1 + abs(base))


def test_cross_ratio_determinant_identity(rng):
    for _ in range(1000):
        vs = [random_vector(rng) for _ in range(4)]
        try:
            lhs = cross_ratio(*(hopf(v) for v in vs))
        except DegenerateTuple:
            continue
        num = det_pair(vs[0], vs[3]) * det_pair(vs[1], vs[2])
        den = det_pair(vs[0], vs[2]) * det_pair(vs[1], vs[3])
        if abs(den) < 1e-9:
            continue
        assert abs(lhs - num / den) <= 1e-9 * (1 + abs(lhs))


def test_cross_ratio_permutation_classes(rng):
    from conftest import random_complex
    for _ in range(200):
        pts = [random_complex(rng) for _ in range(4)]
        try:
            z = cross_ratio(*pts)
            # product of two disjoint transpositions fixes the value
            swapped = cross_ratio(pts[1], pts[0], pts[3], pts[2])
            # cyclic substitutions give z' and z''
            z1 = cross_ratio(pts[0], pts[2], pts[3], pts[1])
            z2 = cross_ratio(pts[0], pts[3], pts[1], pts[2])
        except DegenerateTuple:
            continue
        assert abs(z - swapped) <= 1e-9 * (1 + abs(z))
        opts = {abs(z1 - 1 / (1 - z)), abs(z1 - (1 - 1 / z))}
        assert min(opts) <= 1e-8 * (1 + abs(z1))
        assert abs(z * z1 * z2 - (-1)) <= 1e-8


def test_rotation_examples():
    r = rotation(4, 1)
    assert abs(r.a) < 1e-15 and abs(r.b + 1) < 1e-15
    assert abs(r.c - 1) < 1e-15 and abs(r.d) < 1e-15
    half = rotation(2, 1)
    assert abs(half.a + 1) < 1e-15 and abs(half.d + 1) < 1e-15
    full = rotation(7, 7)
    assert full.close_to(GroupElement.identity(), 1e-12)


def test_sign_equiv():
    g = rotation(6, 1)
    assert g.sign_equiv(-g)
    assert not g.sign_equiv(rotation(6, 2))


def test_sign_distance_matches_negated_element(rng):
    # x - y and x + y entrywise decide as close_to(h) or close_to(-h), and
    # the distance is the apex margin's min of the two entrywise maxima
    elements = [random_sl2(rng) for _ in range(12)]
    partners = [q for h in elements[:6] for q in (
        h, -h, GroupElement(h.a + 1e-10, h.b, h.c, h.d),
        GroupElement(-h.a, -h.b - 1e-10, -h.c, -h.d))]
    for g in elements:
        for h in partners:
            pairs = list(zip(g.entries(), h.entries()))
            ref = min(max(abs(x - y) for x, y in pairs),
                      max(abs(x - y) for x, y in zip(g.entries(),
                                                     (-h).entries())))
            assert g.sign_distance(h).hex() == ref.hex()
            for tol in (1e-8, 1e-3):
                assert g.sign_equiv(h, tol) == (
                    g.close_to(h, tol) or g.close_to(-h, tol))
