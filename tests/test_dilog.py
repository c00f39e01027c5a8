import cmath
import math
import random
from fractions import Fraction

import pytest

from extbloch import config
from extbloch.covering import CoveringPoint
from extbloch.dilog import (PI, PI2_6, PI_SQ, TWO_PI_SQ, CutSide,
                            _BERN_COEFFS, lhat, li2,
                            lifted_rogers, lifted_rogers_sided, plog, rogers,
                            rogers_real, vol)
from extbloch.errors import LogOfZero, OnCut

from oracles import li2_simpson, vol_simpson


def test_plog_examples():
    assert plog(1.0) == 0
    assert plog(-1.0) == 1j * PI
    assert abs(plog(math.e * 1j) - (1 + 1j * PI / 2)) < 1e-15
    # negative zero imaginary part still lands on the principal side
    assert plog(complex(-2.0, -0.0)).imag == PI


def test_plog_zero():
    with pytest.raises(LogOfZero):
        plog(0.0)
    # Log(1 - z) at z = 1: named, not a bare math domain error
    with pytest.raises(LogOfZero, match=r"Log\(1 - z\) at z = \(1\+0j\)"):
        lifted_rogers(1, 0, 0)


def test_li2_special_values():
    assert li2(0) == 0
    assert abs(li2(1) - PI_SQ / 6) < 1e-15
    expected_half = PI_SQ / 12 - math.log(2) ** 2 / 2
    assert abs(li2(0.5) - expected_half) < 1e-15


def test_li2_against_quadrature_disc(rng):
    worst = 0.0
    for _ in range(100):
        r = math.sqrt(rng.uniform(0, 1))
        t = rng.uniform(0, 2 * math.pi)
        z = r * cmath.exp(1j * t)
        if abs(1 - z) < 1e-2:
            continue
        worst = max(worst, abs(li2(z) - li2_simpson(z)))
    assert worst < 1e-10


def test_li2_against_quadrature_wide(rng):
    # larger arguments exercise the inversion branch
    for _ in range(25):
        z = complex(rng.uniform(-8, 8), rng.uniform(0.1, 8))
        assert abs(li2(z) - li2_simpson(z)) < 1e-10 * (1 + abs(li2(z)))


def test_li2_cut_needs_side():
    with pytest.raises(OnCut):
        li2(2.5)


def test_li2_cut_sides_match_limits():
    for x in (1.5, 2.5, 7.0):
        above = li2(x, CutSide.ABOVE)
        below = li2(x, CutSide.BELOW)
        assert abs(above - li2(x + 1e-10j)) < 1e-8
        assert abs(below - li2(x - 1e-10j)) < 1e-8
        assert abs(above - below.conjugate()) < 1e-14
        assert abs(above.imag - PI * math.log(x)) < 1e-12


def test_li2_against_mpmath():
    # every region of li2 (series in -Log(1-z), reflection, inversion, the
    # real axis and both edges of the cut) against 40-digit polylog
    mpmath = pytest.importorskip("mpmath")
    mpmath.mp.dps = 40
    rand = random.Random(15)
    angles = [rand.uniform(-PI, PI) for _ in range(60)]
    points = [complex(rand.uniform(-5, 5), rand.uniform(-5, 5))
              for _ in range(400)]
    points += [cmath.rect(10 ** rand.uniform(-3, 4), t) for t in angles]
    points += [f(t) for t in angles for f in (
        lambda t: cmath.rect(1.0, t), lambda t: complex(0.5, 5 * t / PI),
        lambda t: 1 + cmath.rect(1e-4, t), lambda t: cmath.rect(1e-3, t),
        lambda t: cmath.rect(1e4, t))]
    points += [cmath.exp(1j * PI / 3), cmath.exp(-1j * PI / 3),
               1 + 1e-13j, complex(1 - 1e-14, 0.0), -1e-17 + 1e-17j]
    points += [complex(rand.uniform(-20, 1), 0.0) for _ in range(60)]
    worst = 0.0
    for z in points:
        want = complex(mpmath.polylog(2, mpmath.mpc(z.real, z.imag)))
        worst = max(worst, abs(li2(z) - want) / abs(want))
    for x in (rand.uniform(1.0001, 50) for _ in range(30)):
        for side in CutSide:
            eps = side.value * mpmath.mpf(10) ** -35
            want = complex(mpmath.polylog(2, mpmath.mpc(x, eps)))
            worst = max(worst, abs(li2(x, side) - want) / abs(want))
    assert worst <= 1e-15


def test_li2_inverts_at_most_once():
    # min(|Log(1-z)|, |Log z|, |Log(1-1/z)|) <= pi/3 everywhere, so after
    # one inversion the series applies: at e^{+-i pi/3}, where all three
    # equal pi/3, and on the seams where one of them is the series bound.
    # Wherever neither Log(1 - z) nor Log z is a series variable, li2
    # inverts once, and -Log(1 - 1/z) lies within 0.7 (0.661 at most here)
    import extbloch.dilog as dilog

    bound = dilog._SERIES_MAX
    seams = [cmath.exp(1j * PI / 3), cmath.exp(-1j * PI / 3)]
    for k in range(64):
        w = cmath.exp(bound * cmath.exp(1j * PI * (k + 0.5) / 32))
        for scale in (1 - 1e-9, 1.0, 1 + 1e-9):
            seams += [1 - scale * w, scale * w, 1 / (1 - scale * w)]
    inverted = [z for z in seams
                if abs(dilog._log1m(z)) > bound and abs(plog(z)) > bound]
    assert inverted
    for z in inverted:
        assert abs(dilog._log1m(1 / z)) < 0.7, z
    try:
        import mpmath
    except ImportError:  # a test extra; the bound above needs no reference
        return
    with mpmath.workdps(40):
        for z in seams:
            want = complex(mpmath.polylog(2, mpmath.mpc(z.real, z.imag)))
            assert abs(li2(z) - want) <= 1e-15 * abs(want), z


def test_li2_and_lifted_rogers_at_tiny_z():
    # where 1 - z rounds to 1, Log(1 - z) is -z, not 0: li2(z) ~ z keeps
    # its sign and its relative error down to |z| = 1e-300, real and
    # complex.  lifted_rogers refuses |z| <= ZERO (1e-12) as a Log of 0
    mpmath = pytest.importorskip("mpmath")
    units = (1, -1, 1j, -1j, cmath.exp(0.7j), cmath.exp(-2.5j))
    worst = [0.0, 0.0]
    with mpmath.workdps(40):
        for e in range(-300, -7):
            for z in (complex(r * 10.0 ** e * u) for r in (1, 3.7)
                      for u in units):
                m = mpmath.mpc(z.real, z.imag)
                want = mpmath.polylog(2, m)
                worst[0] = max(worst[0], abs(li2(z) - want) / abs(want))
                if abs(z) <= config.ZERO:
                    continue
                log_z, log_1m = mpmath.log(m), mpmath.log(1 - m)
                for p, q in ((0, 0), (2, -4)):
                    want_r = (0.5 * log_z * log_1m + want - PI2_6
                              + 0.5j * PI * (q * log_z + p * log_1m))
                    got = lifted_rogers(z, p, q)
                    worst[1] = max(worst[1], abs(got - want_r) / abs(want_r))
    assert max(worst) <= 1e-15, worst
    with pytest.raises(LogOfZero):
        lifted_rogers(config.ZERO, 0, 0)


def test_rogers_value_at_half():
    assert abs(rogers(0.5) + PI_SQ / 12) < 1e-14


def test_rogers_reflection():
    x = 0.3
    assert abs(rogers(x) + rogers(1 - x) + PI2_6) < 1e-14


def test_rogers_five_term_named_instance():
    # x = 1/2, y = 1/4 gives the tuple (1/2, 1/4, 1/2, 1/3, 2/3)
    vals = [0.5, 0.25, 0.5, 1.0 / 3.0, 2.0 / 3.0]
    s = sum((-1) ** i * rogers_real(v) for i, v in enumerate(vals))
    assert abs(s) < 1e-14


def test_rogers_real_extension_values():
    assert rogers_real(1.0) == 0.0
    assert rogers_real(0.0) == -PI2_6
    assert abs(rogers_real(2.0) - PI_SQ / 12) < 1e-14
    # folding rules
    assert abs(rogers_real(3.0) + rogers_real(1.0 / 3.0)) < 1e-14
    assert abs(rogers_real(-2.0) + rogers_real(2.0 / 3.0)) < 1e-14


def test_vol_values():
    assert vol(0.5) == 0.0
    assert abs(vol(cmath.exp(1j * PI / 3)) - 1.0149416064096536) < 1e-12


def test_vol_conjugation_antisymmetry(rng):
    for _ in range(100):
        z = complex(rng.uniform(-2, 2), rng.uniform(0.05, 2))
        assert abs(vol(z) + vol(z.conjugate())) < 1e-12


def test_vol_against_quadrature(rng):
    for _ in range(20):
        z = complex(rng.uniform(-2, 2), rng.uniform(0.05, 2))
        assert abs(vol(z) - vol_simpson(z)) < 1e-9


def test_vol_shares_value_on_even_orbit(rng):
    for _ in range(1000):
        z = complex(rng.uniform(-3, 3), rng.uniform(-3, 3))
        if abs(z) < 0.02 or abs(z - 1) < 0.02:
            continue
        assert abs(vol(z) - vol(1 / (1 - z))) < 1e-9
        assert abs(vol(z) - vol(1 - 1 / z)) < 1e-9


def test_lifted_rogers_examples():
    assert lifted_rogers(0.5, 0, 0) == rogers(0.5)
    d = lifted_rogers(1j, 0, 2) - lifted_rogers(1j, 0, 0)
    assert abs(d - 1j * PI * plog(1j)) < 1e-14
    assert abs(d + PI_SQ / 2) < 1e-14
    z = 2 + 1j
    d2 = lifted_rogers(z, 2, 0) - lifted_rogers(z, 0, 0)
    assert abs(d2 + 1j * PI * plog(1 / (1 - z))) < 1e-14


def test_lhat_covering_point():
    pt = CoveringPoint(0.5, 0, 0)
    assert lhat(pt) == rogers(0.5)


def test_cut_identifications_differ_by_two_pi_squared():
    # (x+0i, p, q) ~ (x-0i, p+2, q) on the negative cut
    for x, p, q in ((-2.3, 0, 0), (-2.3, 2, -4), (-0.4, -2, 2)):
        a = lifted_rogers_sided(x, p, q, CutSide.ABOVE)
        b = lifted_rogers_sided(x, p + 2, q, CutSide.BELOW)
        d = (a - b) / TWO_PI_SQ
        assert abs(d.imag) < 1e-12
        assert abs(d.real - round(d.real)) < 1e-8
    # (x+0i, p, q) ~ (x-0i, p, q+2) on the cut beyond 1
    for x, p, q in ((3.7, 0, 0), (3.7, 2, 2), (1.5, -2, 0)):
        a = lifted_rogers_sided(x, p, q, CutSide.ABOVE)
        b = lifted_rogers_sided(x, p, q + 2, CutSide.BELOW)
        d = (a - b) / TWO_PI_SQ
        assert abs(d.imag) < 1e-12
        assert abs(d.real - round(d.real)) < 1e-8


def test_lifted_rogers_continuous_across_cuts_with_branch_bumps():
    # downward crossing of (-inf, 0) increments p
    z0 = -1.7
    up = lifted_rogers(z0 + 1e-10j, 0, 0)
    down = lifted_rogers(z0 - 1e-10j, 2, 0)
    assert abs(up - down) < 1e-8
    # downward crossing of (1, inf) increments q
    z1 = 2.6
    up = lifted_rogers(z1 + 1e-10j, 0, 0)
    down = lifted_rogers(z1 - 1e-10j, 0, 2)
    assert abs(up - down) < 1e-8


def test_rogers_sided_matches_limits():
    for x in (-3.0, -0.7, 1.4, 5.0):
        for side, eps in ((CutSide.ABOVE, 1e-10j), (CutSide.BELOW, -1e-10j)):
            assert abs(lifted_rogers_sided(x, 0, 0, side)
                       - rogers(x + eps)) < 1e-8


def test_bernoulli_coeffs_match_the_full_recurrence():
    # the literal table of B_k / (k+1)! holds, bit for bit, the floats
    # nearest the exact rationals of the Bernoulli recurrence
    bern = [Fraction(1)]
    for m in range(1, len(_BERN_COEFFS)):
        acc = Fraction(0)
        binom = 1
        for j in range(m):
            acc += binom * bern[j]
            binom = binom * (m + 1 - j) // (j + 1)
        bern.append(-acc / (m + 1))
    full = [float(b / math.factorial(k + 1)) for k, b in enumerate(bern)]
    assert [c.hex() for c in _BERN_COEFFS] == [c.hex() for c in full]
