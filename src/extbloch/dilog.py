"""Principal logarithm, dilogarithm, Rogers dilogarithm and branched lifts.

Branch conventions, fixed once for the whole library:

* Arg z lies in (-pi, pi]; negative reals get +pi exactly.
* li2 has its cut on (1, oo).  Arguments on the cut need an explicit side
  flag (the upper/lower edge of the cut), mirroring the two copies of each
  real r > 1 on the cut-open plane.
* rogers(z) = -1/2 Log(z) Log(1/(1-z)) + li2(z) - pi^2/6, normalized so
  rogers(1/2) = -pi^2/12 and the real extension has rogers_real(1) = 0.
* lifted_rogers(z, p, q) adds the branch correction
  pi*i/2 * (q Log z - p Log(1/(1-z))) for even integers p, q.

li2 sums one Bernoulli series, in u = -Log(1-z), or in u = -Log z after
reflection, whichever has |u| <= 1.3, or else after one inversion z -> 1/z
in u = -Log(1-1/z): the least of the three |u| never exceeds pi/3.  Every
evaluation takes Log z and Log(1-z) once and passes them in: li2, vol,
lifted_rogers and lhat share one body (``_point_values``), and so does the
per-point evaluation of :mod:`extbloch.covering`.
"""

from __future__ import annotations

import cmath
import math
from enum import Enum
from fractions import Fraction

from . import config
from .errors import LogOfZero, OnCut

PI = math.pi
PI_SQ = PI * PI
TWO_PI_SQ = 2.0 * PI_SQ
PI2_6 = PI_SQ / 6.0


class CutSide(Enum):
    """Which edge of a real cut an argument sits on."""

    ABOVE = 1
    BELOW = -1


def plog(z: complex) -> complex:
    """Principal logarithm, ln|z| + i Arg z with Arg in (-pi, pi].

    Negative reals (including ones carrying a negative-zero imaginary part)
    get +i*pi exactly.
    """
    z = complex(z)
    if abs(z) <= config.ZERO:
        raise LogOfZero(f"log of {z}")
    if z.imag == 0.0:
        z = complex(z.real, 0.0)  # normalize -0.0 onto the principal side
    return cmath.log(z)


def plog_sided(x: float, side: CutSide) -> complex:
    """Logarithm of a negative real approached from above or below the axis."""
    if x >= 0:
        return plog(complex(x, 0.0))
    return complex(math.log(-x), side.value * PI)


def _bernoulli_coeffs(count: int) -> list[float]:
    """B_k / (k+1)! for k = 0..count-1, B_1 = -1/2 convention."""
    bern = [Fraction(1)]
    for m in range(1, count):
        if m > 1 and m % 2:  # B_m = 0: neither computed nor summed
            bern.append(Fraction(0))
            continue
        acc = Fraction(0)
        binom = 1
        for j in range(m):
            if bern[j]:
                acc += binom * bern[j]
            binom = binom * (m + 1 - j) // (j + 1)
        bern.append(-acc / (m + 1))
    coeffs = []
    fact = 1
    for k in range(count):
        fact *= k + 1  # (k+1)!
        coeffs.append(float(bern[k] / fact))
    return coeffs


_BERN_COEFFS = _bernoulli_coeffs(28)
_ODD_DESC = _BERN_COEFFS[26:1:-2]  # B_2m / (2m+1)! for m = 13, ..., 1
_SERIES_MAX = 1.3  # |u| bound of the series; every z has a u within pi/3


def _li2_bernoulli(u: complex) -> complex:
    """li2(1 - e^-u) = sum_k B_k u^(k+1) / (k+1)!, by Horner in u^2 over
    the 13 odd terms: below 1e-20 relative for |u| <= 1.3."""
    w = u * u
    acc = 0.0
    for c in _ODD_DESC:
        acc = acc * w + c
    return u + u * w * acc - 0.25 * w


def li2(z: complex, side: CutSide | None = None) -> complex:
    """Principal-branch dilogarithm -int_0^z Log(1-t)/t dt.

    The cut runs along (1, oo); real arguments there require a side flag
    and evaluate to the limit from the corresponding half plane.
    """
    z = complex(z)
    if z.imag == 0.0:
        x = z.real
        if x > 1.0 and side is not None:
            lx = math.log(x)
            real = PI_SQ / 3.0 - 0.5 * lx * lx - li2(1.0 / x).real
            return complex(real, side.value * PI * lx)
        z = complex(x, 0.0)
    if z == 0.0:
        return 0j
    if z == 1.0:
        return complex(PI2_6, 0.0)
    return _li2(z, cmath.log(z), _log1m(z))  # z normalized: cmath.log is Log


def _log1m(z: complex) -> complex:
    """Log(1 - z) for z != 1, with the rounding of 1 - z divided out."""
    w = 1.0 - z
    if w == 0.0:
        raise LogOfZero(f"Log(1 - z) at z = {z}")
    return -z if w == 1.0 else cmath.log(w) * (z / (1.0 - w))


def _li2(z: complex, log_z: complex, l1: complex) -> complex:
    """li2(z) for z off {0, 1}, given log_z = Log z and l1 = Log(1 - z).
    Real z > 1 raises OnCut.  Where neither given logarithm is a series
    variable, |Log(1 - 1/z)| is below 0.7, so li2(1/z) is its first series
    and costs one more logarithm."""
    if z.imag == 0.0 and z.real > 1.0:
        raise OnCut(f"li2({z.real}) is on the cut; pass a side flag")
    if abs(l1) <= _SERIES_MAX:
        return _li2_bernoulli(-l1)
    if abs(log_z) <= _SERIES_MAX:  # reflection: li2(1 - z) in u = -Log z
        return PI2_6 - log_z * l1 - _li2_bernoulli(-log_z)
    # inversion, with Log(-z) = Log z -+ pi i
    lz = log_z - 1j * PI if log_z.imag > 0.0 else log_z + 1j * PI
    return -_li2_bernoulli(-_log1m(1.0 / z)) - PI2_6 - 0.5 * lz * lz


def _lifted_rogers(log_z: complex, log_inv: complex, li2_z: complex,
                   p: int, q: int) -> complex:
    """-1/2 Log z Log 1/(1-z) + li2(z) - pi^2/6, plus
    pi*i/2 * (q Log z - p Log 1/(1-z)) when p or q is nonzero."""
    value = -0.5 * log_z * log_inv + li2_z - PI2_6
    if p or q:
        value = value + 0.5j * PI * (q * log_z - p * log_inv)
    return value


def _point_values(z: complex, log_z: complex, l1: complex,
                  p: int, q: int) -> tuple[complex, float]:
    """The lifted Rogers value of (z; p, q) and the volume of z, from
    log_z = Log z and l1 = Log(1 - z): the one body behind lifted_rogers,
    lhat and vol.  Log(1/(1-z)) is -l1, as z off the cut is not real > 1.
    Real z > 1 raises OnCut."""
    li2_z = _li2(z, log_z, l1)
    value = _lifted_rogers(log_z, -l1, li2_z, p, q)
    # Bloch-Wigner: Arg(1-z) log|z| + Im li2(z), zero on the real line
    return value, 0.0 if z.imag == 0.0 else l1.imag * log_z.real + li2_z.imag


def rogers(z: complex) -> complex:
    """Rogers dilogarithm, normalized so the five-term sum vanishes.

    Defined off {0, 1}; real arguments outside (0, 1) sit on discontinuity
    cuts, use rogers_real (or the sided variant) there.
    """
    return lifted_rogers(z, 0, 0)


def rogers_sided(x: float, side: CutSide) -> complex:
    """Limit of rogers at a real argument outside [0, 1] from one side."""
    return lifted_rogers_sided(x, 0, 0, side)


def rogers_real(x: float) -> float:
    """Discontinuous extension of rogers to the whole real line.

    rogers_real(1) = 0, rogers_real(0) = -pi^2/6, and the values outside
    [0, 1] are folded back by x -> 1/x and x -> x/(x-1).
    """
    if x == 1.0:
        return 0.0
    if x == 0.0:
        return -PI2_6
    if 0.0 < x < 1.0:
        return rogers(complex(x, 0.0)).real
    if x > 1.0:
        return -rogers_real(1.0 / x)
    return -rogers_real(x / (x - 1.0))


def vol(z: complex) -> float:
    """Oriented volume of the ideal simplex with cross-ratio z
    (the Bloch-Wigner function).  Real arguments give 0."""
    z = complex(z)
    if z.imag == 0.0:
        return 0.0
    return _point_values(z, cmath.log(z), _log1m(z), 0, 0)[1]


def lifted_rogers(z: complex, p: int, q: int) -> complex:
    """Rogers dilogarithm on the branched cover: the base value plus
    pi*i/2 * (q Log z - p Log(1/(1-z))).

    Two labels identified across a cut (the side convention being the upper
    half plane limit) give values differing by an element of 2 pi^2 Z.
    """
    z = complex(z)
    return _point_values(z, plog(z), _log1m(z), p, q)[0]


def lifted_rogers_sided(x: float, p: int, q: int, side: CutSide) -> complex:
    """Lifted Rogers value at a real point on a cut, from a chosen side."""
    if 0.0 <= x <= 1.0:
        raise ValueError("sided evaluation is for arguments outside [0, 1]")
    if x < 0.0:
        # li2 is continuous here; only Log(x) is sided
        log_z = plog_sided(x, side)
        log_inv = plog(1.0 / (1.0 - x))
    else:
        # x > 1: 1 - x is negative and approached from the opposite side
        other = CutSide.BELOW if side is CutSide.ABOVE else CutSide.ABOVE
        log_z = complex(math.log(x), 0.0)
        log_inv = -plog_sided(1.0 - x, other)  # Log(1/(1-x)), matching side
    return _lifted_rogers(log_z, log_inv, li2(x, side), p, q)


def lhat(pt) -> complex:
    """Lifted Rogers evaluation of a covering point (duck-typed: needs
    .z, .p, .q).  Real z in (1, oo) raises OnCut; ``lifted_rogers_sided``
    evaluates real z outside [0, 1] from a chosen side."""
    return lifted_rogers(complex(pt.z), pt.p, pt.q)
