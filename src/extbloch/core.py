"""SL(2,C) matrices, projective vectors, the Hopf map and cross-ratios.

Everything downstream consumes these: group elements act on the sphere by
Moebius transformations and on C^2 \\ {0} linearly, the two actions being
intertwined by the Hopf map (z, w) -> z/w.
"""

from __future__ import annotations

import math
import numbers
import random
from dataclasses import dataclass

from . import config
from .errors import DegenerateTuple, DeterminantError

DET_TOL = 1e-9  # allowed |ad - bc - 1| when constructing a group element


class _Infinity:
    """The point at infinity on the Riemann sphere (singleton INF)."""

    __slots__ = ()

    def __repr__(self) -> str:
        return "INF"


INF = _Infinity()

# A point of C u {inf}: either a finite complex value or the INF singleton.
ExtComplex = "complex | _Infinity"


def is_inf(z) -> bool:
    return isinstance(z, _Infinity)


def ext_close(z, w) -> bool:
    """Equality on C u {inf} within ``config.CMP``, absolute."""
    if is_inf(z) or is_inf(w):
        return is_inf(z) and is_inf(w)
    return abs(z - w) <= config.CMP


@dataclass(frozen=True)
class GroupElement:
    """A 2x2 complex matrix (a b; c d) with determinant 1.

    Construction fails loudly when |det - 1| exceeds the tolerance; silent
    renormalization would mask caller bugs.
    """

    a: complex
    b: complex
    c: complex
    d: complex

    def __post_init__(self):
        det = self.a * self.d - self.b * self.c
        if not abs(det - 1.0) <= DET_TOL:  # a NaN det fails too
            raise DeterminantError(f"determinant {det} differs from 1")

    @classmethod
    def identity(cls) -> "GroupElement":
        return cls(1.0, 0.0, 0.0, 1.0)

    def entries(self) -> tuple[complex, complex, complex, complex]:
        return (self.a, self.b, self.c, self.d)

    def __matmul__(self, other: "GroupElement") -> "GroupElement":
        return GroupElement(
            self.a * other.a + self.b * other.c,
            self.a * other.b + self.b * other.d,
            self.c * other.a + self.d * other.c,
            self.c * other.b + self.d * other.d,
        )

    def inverse(self) -> "GroupElement":
        return GroupElement(self.d, -self.b, -self.c, self.a)

    def __neg__(self) -> "GroupElement":
        return GroupElement(-self.a, -self.b, -self.c, -self.d)

    def conjugate_entries(self) -> "GroupElement":
        """Entrywise complex conjugate (again in SL(2,C))."""
        return GroupElement(
            self.a.conjugate(), self.b.conjugate(),
            self.c.conjugate(), self.d.conjugate(),
        )

    def apply(self, v: "ProjVector") -> "ProjVector":
        return ProjVector(self.a * v.v1 + self.b * v.v2,
                          self.c * v.v1 + self.d * v.v2)

    def close_to(self, other: "GroupElement", tol: float) -> bool:
        return max(abs(x - y) for x, y in zip(self.entries(), other.entries())) <= tol

    def sign_distance(self, other: "GroupElement") -> float:
        """Largest entrywise distance from g to the nearer of +h and -h,
        through x - y and x + y directly."""
        a, b, c, d = self.a, self.b, self.c, self.d
        e, f, g, h = other.a, other.b, other.c, other.d
        return min(max(abs(a - e), abs(b - f), abs(c - g), abs(d - h)),
                   max(abs(a + e), abs(b + f), abs(c + g), abs(d + h)))

    def sign_equiv(self, other: "GroupElement", tol: float) -> bool:
        """True when g is elementwise close to +h or to -h."""
        return self.sign_distance(other) <= tol

    def max_abs(self) -> float:
        return max(abs(x) for x in self.entries())


@dataclass(frozen=True)
class ProjVector:
    """A nonzero vector in C^2."""

    v1: complex
    v2: complex

    def __post_init__(self):
        if max(abs(self.v1), abs(self.v2)) <= config.ZERO:
            raise ValueError("projective vector must be nonzero")

    def entries(self) -> tuple[complex, complex]:
        return (self.v1, self.v2)

    def norm(self) -> float:
        return math.hypot(abs(self.v1), abs(self.v2))


def det_pair(v: ProjVector, w: ProjVector) -> complex:
    """Determinant of the 2x2 matrix with columns v, w."""
    return v.v1 * w.v2 - v.v2 * w.v1


def hopf(v: ProjVector):
    """Hopf map (v1, v2) -> v1/v2, sending (., 0) to infinity."""
    if abs(v.v2) <= config.ZERO:
        return INF
    return v.v1 / v.v2


def moebius(g: GroupElement, z):
    """Moebius action of g on C u {inf}, poles handled by limits."""
    tol_zero = config.ZERO
    if is_inf(z):
        if abs(g.c) <= tol_zero:
            return INF
        return g.a / g.c
    den = g.c * z + g.d
    if abs(den) <= tol_zero * (1.0 + abs(z)):
        return INF
    return (g.a * z + g.b) / den


def cross_ratio(z0, z1, z2, z3) -> complex:
    """(z0-z3)(z1-z2) / ((z0-z2)(z1-z3)), with infinite entries resolved by
    cancelling the dominant factors rather than by large-number substitution.

    Raises DegenerateTuple when two points coincide within ``config.CMP``.
    """
    pts = (z0, z1, z2, z3)
    for i in range(4):
        for j in range(i + 1, 4):
            if ext_close(pts[i], pts[j]):
                raise DegenerateTuple(f"points {i} and {j} coincide")
    if is_inf(z0):
        return (z1 - z2) / (z1 - z3)
    if is_inf(z1):
        return (z0 - z3) / (z0 - z2)
    if is_inf(z2):
        return (z0 - z3) / (z1 - z3)
    if is_inf(z3):
        return (z1 - z2) / (z0 - z2)
    return ((z0 - z3) * (z1 - z2)) / ((z0 - z2) * (z1 - z3))


def cross_ratio_ext(z0, z1, z2, z3) -> complex:
    """As cross_ratio but returning 0 when any two points coincide."""
    try:
        return cross_ratio(z0, z1, z2, z3)
    except DegenerateTuple:
        return 0j


def rotation(n: int, k: int) -> GroupElement:
    """Rotation matrix by angle 2*pi*k/n."""
    if n < 1:
        raise ValueError("n must be >= 1")
    theta = 2.0 * math.pi * k / n
    c, s = math.cos(theta), math.sin(theta)
    return GroupElement(c, -s, s, c)


def as_rng(seed):
    """A non-negative integer seeds a ``random.Random`` (a negative one is
    refused: ``Random(-s)`` is ``Random(s)``); anything else is taken as a
    generator already, with at least ``uniform``."""
    if not isinstance(seed, numbers.Integral):
        return seed
    if seed < 0:
        raise ValueError(f"seed must be non-negative, got {seed}")
    return random.Random(int(seed))


def random_sl2(rng) -> GroupElement:
    """Random element: entries uniform in the complex box |Re|, |Im| <= 1,
    redrawn while |det| < 0.05, then the first column scaled to normalize
    the determinant.  Any continuous full-support distribution works here;
    callers only need genericity."""
    while True:
        a, b, c, d = (
            complex(rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0))
            for _ in range(4)
        )
        det = a * d - b * c
        if abs(det) >= 0.05:
            return GroupElement(a / det, b, c / det, d)


def random_vector(rng) -> ProjVector:
    """Random vector with entries uniform in the complex box |Re|, |Im| <= 1,
    redrawn while its norm is below 0.05."""
    while True:
        v1 = complex(rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0))
        v2 = complex(rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0))
        if math.hypot(abs(v1), abs(v2)) >= 0.05:
            return ProjVector(v1, v2)
