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
in u = -Log(1-1/z): the least of the three |u| never exceeds pi/3.  li2,
the lifted Rogers value and the volume have one body, ``_point``, which
takes Log z and Log(1-z) from its caller: li2, vol, lifted_rogers (so
rogers and lhat) and the trial path (``covering._lhat_sums``) all call
it; the first three refuse a non-finite z as ``CoveringPoint`` does.
"""

from __future__ import annotations

import cmath
import math
from enum import Enum

from . import config
from .errors import LogOfZero, OnCut, ZAtZeroOrOne

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


def _finite(z) -> complex:
    """complex(z), refused as ``CoveringPoint`` refuses it if not finite."""
    z = complex(z)
    if not cmath.isfinite(z):
        raise ZAtZeroOrOne(f"z = {z} is not finite")
    return z


def plog_sided(x: float, side: CutSide) -> complex:
    """Log of a negative real x, approached from above or below the axis."""
    return complex(math.log(-x), side.value * PI)


# B_k / (k+1)! for k = 0..27, B_1 = -1/2 convention: the floats nearest the
# exact rationals (tests rebuild them from the Bernoulli recurrence)
_BERN_COEFFS = [
    1.0, -0.25, 0.027777777777777776, 0.0, -0.0002777777777777778, 0.0,
    4.72411186696901e-06, 0.0, -9.185773074661964e-08, 0.0,
    1.8978869988971e-09, 0.0, -4.0647616451442256e-11, 0.0,
    8.921691020456452e-13, 0.0, -1.9939295860721074e-14, 0.0,
    4.518980029619918e-16, 0.0, -1.0356517612181247e-17, 0.0,
    2.395218621026187e-19, 0.0, -5.581785874325009e-21, 0.0,
    1.3091507554183213e-22, 0.0,
]
_ODD_DESC = _BERN_COEFFS[26:1:-2]  # B_2m / (2m+1)! for m = 13, ..., 1
_SERIES_MAX = 1.3  # |u| bound of the series; every z has a u within pi/3


def li2(z: complex, side: CutSide | None = None) -> complex:
    """Principal-branch dilogarithm -int_0^z Log(1-t)/t dt.

    The cut runs along (1, oo); real arguments there require a side flag
    and evaluate to the limit from the corresponding half plane.
    """
    z = _finite(z)
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
    # z normalized: cmath.log is Log
    return _point(z, cmath.log(z), _log1m(z), 0, 0)[0]


def _log1m(z: complex) -> complex:
    """Log(1 - z) for z != 1, with the rounding of 1 - z divided out."""
    w = 1.0 - z
    if w == 0.0:
        raise LogOfZero(f"Log(1 - z) at z = {z}")
    return -z if w == 1.0 else cmath.log(w) * (z / (1.0 - w))


def _lifted_rogers(log_z: complex, log_inv: complex, li2_z: complex,
                   p: int, q: int) -> complex:
    """-1/2 Log z Log 1/(1-z) + li2(z) - pi^2/6, plus
    pi*i/2 * (q Log z - p Log 1/(1-z)) when p or q is nonzero."""
    value = -0.5 * log_z * log_inv + li2_z - PI2_6
    if p or q:
        value = value + 0.5j * PI * (q * log_z - p * log_inv)
    return value


def _point(z: complex, log_z: complex, l1: complex, p: int,
           q: int) -> tuple[complex, complex, float]:
    """(li2(z), the lifted Rogers value of (z; p, q), the volume of z) for
    z off {0, 1}, given log_z = Log z and l1 = Log(1 - z).  Real z > 1
    raises OnCut, so Log(1/(1-z)) is -l1.  li2 sums the Bernoulli series
    li2(1 - e^-u) = sum_k B_k u^(k+1) / (k+1)!, by Horner in u^2 over the
    13 odd terms (below 1e-20 relative for |u| <= 1.3), in u = -Log(1 - z),
    or after reflection in u = -Log z; where neither is within
    _SERIES_MAX, |Log(1 - 1/z)| is below 0.7, so one inversion, in
    u = -Log(1 - 1/z), costs one more logarithm."""
    if z.imag == 0.0 and z.real > 1.0:
        raise OnCut(f"li2({z.real}) is on the cut; pass a side flag")
    reflect = abs(l1) > _SERIES_MAX
    invert = reflect and abs(log_z) > _SERIES_MAX
    u = -_log1m(1.0 / z) if invert else -log_z if reflect else -l1
    w = u * u
    acc = 0.0
    for c in _ODD_DESC:
        acc = acc * w + c
    li2_z = u + u * w * acc - 0.25 * w
    if invert:  # li2(z) from li2(1/z), with Log(-z) = Log z -+ pi i
        lz = log_z - 1j * PI if log_z.imag > 0.0 else log_z + 1j * PI
        li2_z = -li2_z - PI2_6 - 0.5 * lz * lz
    elif reflect:  # li2(z) from li2(1 - z)
        li2_z = PI2_6 - log_z * l1 - li2_z
    value = _lifted_rogers(log_z, -l1, li2_z, p, q)
    # Bloch-Wigner: Arg(1-z) log|z| + Im li2(z), zero on the real line
    return li2_z, value, (0.0 if z.imag == 0.0
                          else l1.imag * log_z.real + li2_z.imag)


def rogers(z: complex) -> complex:
    """Rogers dilogarithm, normalized so the five-term sum vanishes.

    Defined off {0, 1}; real arguments outside (0, 1) sit on discontinuity
    cuts, use rogers_real (or the sided variant) there.
    """
    return lifted_rogers(z, 0, 0)


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
    z = _finite(z)
    if z.imag == 0.0:
        return 0.0
    return _point(z, cmath.log(z), _log1m(z), 0, 0)[2]


def lifted_rogers(z: complex, p: int, q: int) -> complex:
    """Rogers dilogarithm on the branched cover: the base value plus
    pi*i/2 * (q Log z - p Log(1/(1-z))).

    Two labels identified across a cut (the side convention being the upper
    half plane limit) give values differing by an element of 2 pi^2 Z.
    """
    z = _finite(z)
    return _point(z, plog(z), _log1m(z), p, q)[1]


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
