"""SL(2,C) matrices, projective vectors, the Hopf map and cross-ratios.

Everything downstream consumes these: group elements act on the sphere by
Moebius transformations and on C^2 \\ {0} linearly, the two actions being
intertwined by the Hopf map (z, w) -> z/w.
"""

from __future__ import annotations

import math
import numbers
import random

from . import config
from .errors import DegenerateTuple, DeterminantError

DET_TOL = 1e-9  # allowed |ad - bc - 1| when constructing a group element


class _Infinity:
    """The point at infinity on the Riemann sphere (singleton INF)."""

    __slots__ = ()

    def __repr__(self) -> str:
        return "INF"


INF = _Infinity()


def is_inf(z) -> bool:
    return isinstance(z, _Infinity)


class Record:
    """The package's one kind of value type: ``Record(*values)`` fills the
    ``__slots__`` in order; a subclass with checks or defaults runs them in
    its own ``__init__``, then calls this one.  ``==`` compares the fields
    named by the class keyword ``compare`` (default: every slot) between
    instances of one class, ``repr`` lists every slot, no hash."""

    __slots__ = ()

    def __init_subclass__(cls, compare=None, **kw):
        super().__init_subclass__(**kw)
        cls._compare = cls.__slots__ if compare is None else compare

    def __init__(self, *values):
        names = self.__slots__
        if len(values) != len(names):
            raise TypeError(f"{type(self).__qualname__} takes {len(names)} "
                            f"values, got {len(values)}")
        for name, value in zip(names, values):
            object.__setattr__(self, name, value)

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self._compare)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values() == other._values()
        return NotImplemented

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}"
                           for name in self.__slots__)
        return f"{type(self).__qualname__}({fields})"


class FrozenRecord(Record):
    """A ``Record`` that refuses assignment and hashes its compared fields;
    copies and pickles are rebuilt through the constructor, checks
    included."""

    __slots__ = ()

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __hash__(self) -> int:
        return hash(self._values())

    def __reduce__(self):
        return type(self), tuple(getattr(self, name) for name in self.__slots__)


def ext_close(z, w) -> bool:
    """Equality on C u {inf} within ``config.CMP``, absolute."""
    if is_inf(z) or is_inf(w):
        return is_inf(z) and is_inf(w)
    return abs(z - w) <= config.CMP


def check_det(a: complex, b: complex, c: complex, d: complex) -> None:
    """DeterminantError unless |ad - bc - 1| <= ``DET_TOL`` (read per call)."""
    det = a * d - b * c
    if not abs(det - 1.0) <= DET_TOL:  # a NaN det fails too
        raise DeterminantError(f"determinant {det} differs from 1")


class GroupElement(FrozenRecord):
    """A 2x2 complex matrix (a b; c d) with determinant 1.

    Construction fails loudly when |det - 1| exceeds the tolerance; silent
    renormalization would mask caller bugs.
    """

    __slots__ = ("a", "b", "c", "d")

    def __init__(self, a: complex, b: complex, c: complex, d: complex):
        check_det(a, b, c, d)
        super().__init__(a, b, c, d)

    @classmethod
    def _unchecked(cls, a: complex, b: complex, c: complex,
                   d: complex) -> "GroupElement":
        """(a b; c d) with its slots filled directly and no det check, for
        a caller that ran ``check_det`` itself."""
        g, fill = object.__new__(cls), object.__setattr__
        fill(g, "a", a)
        fill(g, "b", b)
        fill(g, "c", c)
        fill(g, "d", d)
        return g

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
        """g = +-h: within ``tol`` of +h or of -h in every entry, which is
        ``sign_distance(h) <= tol`` when there is no NaN.  Each entry is read
        when compared, so a pair apart at ``a`` costs two comparisons."""
        a, e = self.a, other.a
        return ((abs(a - e) <= tol and abs(self.b - other.b) <= tol
                 and abs(self.c - other.c) <= tol
                 and abs(self.d - other.d) <= tol)
                or (abs(a + e) <= tol and abs(self.b + other.b) <= tol
                    and abs(self.c + other.c) <= tol
                    and abs(self.d + other.d) <= tol))

    def max_abs(self) -> float:
        return max(abs(self.a), abs(self.b), abs(self.c), abs(self.d))


class ProjVector(FrozenRecord):
    """A nonzero vector in C^2."""

    __slots__ = ("v1", "v2")

    def __init__(self, v1: complex, v2: complex):
        if max(abs(v1), abs(v2)) <= config.ZERO:
            raise ValueError("projective vector must be nonzero")
        super().__init__(v1, v2)

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
    generator already and must have a callable ``uniform``."""
    if not isinstance(seed, numbers.Integral):
        if not callable(getattr(seed, "uniform", None)):
            raise TypeError("seed must be a non-negative integer or a "
                            f"generator with uniform, got {seed!r}")
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
