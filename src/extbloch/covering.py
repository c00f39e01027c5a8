"""The branched cover of C minus {0,1} and its formal algebra.

A covering point is a pair of logarithm branch choices attached to a
cross-ratio: (z; p, q) with p, q even integers.  Equivalently it is a triple
(w0, w1, w2) of log-parameters summing to zero, with w0 a logarithm of z and
w1 a logarithm of 1/(1-z); the two descriptions are exchanged by
``to_covering_point`` / ``from_covering_point``.

A flattened term is evaluated as it is, never merged with others: its
value is the lifted Rogers dilogarithm of its covering point
(``_point_value``).  Formal integer combinations of wedges of logarithms
(``WedgeElement``) are the target of the map ``nu_hat``; they are
``FormalSum`` objects whose log atoms get integer ids from a ``FuzzyIndex``
at ``config.CMP``; see :mod:`extbloch.quantize` for which values that
identifies.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable, Sequence

from . import config
from .core import ProjVector, det_pair
from .dilog import PI, _log1m, _point_values, plog
from .errors import ChiAtZero, DegenerateConfig, DegenerateFT, InvalidFlattening, NotEven
from .formal import FormalSum
from .quantize import FuzzyIndex

# ---------------------------------------------------------------------------
# covering points and flattening triples

SUM_TOL = 1e-9  # |w0 + w1 + w2|, relative to 1 + |w0| + |w1|
EXP_TOL = 1e-6  # |e^{w1} - 1/(1-z)|, relative to |1/(1-z)|
INT_TOL = 1e-6  # distance of a branch integer from the nearest integer
REAL_TOL = 1e-12  # |Im z| read as 0, relative to 1 + |Re z|
PAIRING_TOL = 1e-9  # |pairing| of a wedge that ``zero_report`` reads as 0


def _avoid_01(z: complex) -> None:  # the CoveringPoint check
    if abs(z) <= config.ZERO or abs(z - 1.0) <= config.ZERO:
        raise ValueError(f"z = {z} must avoid 0 and 1")


@dataclass(frozen=True)
class CoveringPoint:
    """A point (z; p, q) of the cover: z off {0, 1}, p and q even."""

    z: complex
    p: int
    q: int

    def __post_init__(self):
        _avoid_01(self.z)
        if self.p % 2 or self.q % 2:
            raise ValueError(f"branch integers must be even, got ({self.p}, {self.q})")


# an atom ledger is, per log-parameter, a tuple of (integer coeff, log value)
Ledger = tuple[tuple[tuple[int, complex], ...], ...]


@dataclass(frozen=True)
class FlatteningTriple:
    """Log-parameters (w0, w1, w2) with w0 + w1 + w2 = 0.

    w0 is a logarithm of the cross-ratio z = e^{w0} and w1 a logarithm of
    1/(1-z); this is validated at construction.  ``ledger``, when present,
    expresses each w as an integer combination of log atoms and enables
    exact wedge cancellation downstream.
    """

    w0: complex
    w1: complex
    w2: complex
    ledger: Ledger | None = field(default=None, compare=False)

    def __post_init__(self):
        _checked_z(self.w0, self.w1, self.w2)

    @classmethod
    def from_w01(cls, w0: complex, w1: complex,
                 ledger: Ledger | None = None) -> "FlatteningTriple":
        return cls(w0, w1, -w0 - w1, ledger)

    def values(self) -> tuple[complex, complex, complex]:
        return (self.w0, self.w1, self.w2)


def snap_real(z: complex) -> complex:
    """Snap a numerically-real value onto the real axis.

    Real points on the cuts are read as their upper-half-plane limits
    throughout the library; exponentials of genuinely real log-parameters
    must not leak to the wrong side through fp noise in the branch shifts.
    """
    if z.imag != 0.0 and abs(z.imag) <= REAL_TOL * (1.0 + abs(z.real)):
        return complex(z.real, 0.0)
    return z


def _checked_z(w0: complex, w1: complex, w2: complex) -> complex:
    """Snapped z = e^{w0}, once w0 + w1 + w2 = 0 and e^{w1} = 1/(1-z)."""
    if abs(w0 + w1 + w2) > SUM_TOL * (1 + abs(w0) + abs(w1)):
        raise InvalidFlattening("log-parameters must sum to zero")
    z = snap_real(cmath.exp(w0))
    if z == 1.0:
        raise InvalidFlattening(f"z = {z}: no logarithm of 1/(1 - z)")
    target = 1.0 / (1.0 - z)
    if abs(cmath.exp(w1) - target) > EXP_TOL * abs(target):
        raise InvalidFlattening("w1 is not a logarithm of 1/(1 - e^{w0})")
    return z


def _branch(z: complex, w0: complex, w1: complex):
    """[Log z, Log(1-z), p, q], p and q the even integers with
    w0 = Log z + p pi i and w1 = Log(1/(1-z)) + q pi i; Log(1/(1-z)) is
    -Log(1-z), with imaginary part +pi where 1 - z is a negative real."""
    log_z, l1 = plog(z), _log1m(z)
    log_inv = complex(-l1.real, PI) if z.imag == 0.0 and z.real > 1.0 else -l1
    out = [log_z, l1]
    for name, raw in (("p", (w0 - log_z) / (1j * PI)),
                      ("q", (w1 - log_inv) / (1j * PI))):
        n = round(raw.real)
        if abs(raw - n) > INT_TOL:
            raise NotEven(f"{name} = {raw} is not an integer")
        if n % 2:
            raise NotEven(f"{name} = {n} is odd")
        out.append(n)
    return out


def to_covering_point(t: FlatteningTriple) -> CoveringPoint:
    """Recover (z; p, q) from log-parameters: z = e^{w0}, the branch
    integers measuring the offsets from the principal logarithms."""
    z = snap_real(cmath.exp(t.w0))
    return CoveringPoint(z, *_branch(z, t.w0, t.w1)[2:])


def _point_value(w0: complex, w1: complex,
                 w2: complex) -> tuple[complex, float]:
    """(lhat, vol) of the covering point of (w0, w1, w2), bit-equal to
    ``lhat(to_covering_point(t))`` and its ``vol``, with the checks of that
    path (``CoveringPoint``'s included) in order and no object built."""
    z = _checked_z(w0, w1, w2)
    log_z, l1, p, q = _branch(z, w0, w1)
    _avoid_01(z)
    return _point_values(z, log_z, l1, p, q)


def from_covering_point(pt: CoveringPoint) -> FlatteningTriple:
    """Principal logarithms shifted by the branch integers; inverse of
    ``to_covering_point``.  The ledger records the two log atoms and the
    i*pi corrections."""
    log_z = plog(pt.z)
    log_inv = plog(1.0 / (1.0 - pt.z))
    w0 = log_z + pt.p * 1j * PI
    w1 = log_inv + pt.q * 1j * PI
    ledger = (
        ((1, log_z), (pt.p, 1j * PI)),
        ((1, log_inv), (pt.q, 1j * PI)),
        ((-1, log_z), (-1, log_inv), (-pt.p - pt.q, 1j * PI)),
    )
    return FlatteningTriple.from_w01(w0, w1, ledger)


def coords(x: complex, y: complex) -> tuple[complex, ...]:
    """The tuple (x, y, y/x, (1-1/x)/(1-1/y), (1-x)/(1-y)) of cross-ratios
    of the five faces of a 5-point configuration, as functions of its two
    free parameters."""
    return (x, y, y / x,
            (1.0 - 1.0 / x) / (1.0 - 1.0 / y),
            (1.0 - x) / (1.0 - y))


def five_tuple(x: complex, y: complex) -> tuple[complex, ...]:
    """``coords(x, y)``, validated: raises DegenerateFT naming the first
    parameter that is not finite or the first coordinate that hits 0 or 1,
    at ``config.CMP``."""
    x, y, cmp = complex(x), complex(y), config.CMP
    for name, val in (("x", x), ("y", y)):
        if not cmath.isfinite(val):
            raise DegenerateFT(f"{name} = {val} is not finite")
        if abs(val) <= cmp or abs(val - 1.0) <= cmp:
            raise DegenerateFT(f"{name} = {val} hits 0 or 1")
    if abs(x - y) <= cmp:
        raise DegenerateFT("x = y makes coordinate 2 equal to 1")
    vals = coords(x, y)
    for i, val in enumerate(vals):
        if abs(val) <= cmp or abs(val - 1.0) <= cmp:
            raise DegenerateFT(f"coordinate {i} = {val} hits 0 or 1")
    return vals


# ---------------------------------------------------------------------------
# the ten edge equations

# Each entry: (edge label, [(sign, simplex index, log-parameter index), ...]).
# Edge [z_i z_j] lies in the three simplices not omitting i or j; the sign is
# + exactly when the omitted index is even.
EDGE_EQUATIONS: tuple[tuple[str, tuple[tuple[int, int, int], ...]], ...] = (
    ("z0z1", ((+1, 2, 0), (-1, 3, 0), (+1, 4, 0))),
    ("z0z2", ((-1, 1, 0), (-1, 3, 2), (+1, 4, 2))),
    ("z1z2", ((+1, 0, 0), (-1, 3, 1), (+1, 4, 1))),
    ("z1z3", ((+1, 0, 2), (+1, 2, 1), (+1, 4, 2))),
    ("z2z3", ((+1, 0, 1), (-1, 1, 1), (+1, 4, 0))),
    ("z2z4", ((+1, 0, 2), (-1, 1, 2), (-1, 3, 0))),
    ("z3z4", ((+1, 0, 0), (-1, 1, 0), (+1, 2, 0))),
    ("z3z0", ((-1, 1, 2), (+1, 2, 2), (+1, 4, 1))),
    ("z4z0", ((-1, 1, 1), (+1, 2, 1), (-1, 3, 1))),
    ("z4z1", ((+1, 0, 1), (+1, 2, 2), (-1, 3, 2))),
)


@dataclass(frozen=True)
class FlatteningReport:
    """Residuals of the ten signed edge sums, plus exact ledger cancellation
    when all five triples carry ledgers."""

    residuals: tuple[tuple[str, float], ...]
    exact: tuple[bool, ...] | None

    @property
    def max_residual(self) -> float:
        return max(r for _, r in self.residuals)


def check_flattening_condition(
        triples: Sequence[FlatteningTriple]) -> FlatteningReport:
    """Evaluate the ten signed log-parameter sums over five flattenings.

    Report-only: callers decide what residual magnitude is acceptable.
    When all five triples carry ledgers, each equation is additionally
    checked for exact integer cancellation of its atoms.
    """
    if len(triples) != 5:
        raise ValueError("need flattenings of all five simplices")
    residuals = []
    exact: list[bool] | None = (
        [] if all(t.ledger is not None for t in triples) else None)
    for label, parts in EDGE_EQUATIONS:
        acc = 0j
        atoms: list[tuple[int, complex]] = []
        for sign, simplex, param in parts:
            acc += sign * triples[simplex].values()[param]
            if exact is not None:
                atoms.extend((sign * c, v)
                             for c, v in triples[simplex].ledger[param])
        residuals.append((label, abs(acc)))
        if exact is not None:  # atoms identified by value
            idx = FuzzyIndex(config.CMP)
            exact.append(FormalSum((c, idx.key((v.real, v.imag)), v)
                                   for c, v in atoms).is_zero())
    return FlatteningReport(tuple(residuals),
                            tuple(exact) if exact is not None else None)


# ---------------------------------------------------------------------------
# the torsion element


def chi_hat(r) -> tuple[tuple[int, CoveringPoint], ...]:
    """The two-term combination [e^{2 pi i r}; 0, 2] - [e^{2 pi i r}; 0, 0]
    attached to a rational r in (0, 1), as (coefficient, point) pairs."""
    r = Fraction(r).limit_denominator(10**9) if not isinstance(r, Fraction) else r
    if r == 0:
        raise ChiAtZero("undefined at r = 0 (the exponential hits 1)")
    z = cmath.exp(2j * PI * float(r))
    return (1, CoveringPoint(z, 0, 2)), (-1, CoveringPoint(z, 0, 0))


# ---------------------------------------------------------------------------
# wedges of logarithms


class WedgeElement(FormalSum):
    """Formal integer combination of wedges a ^ b of log atoms.

    Atoms are identified by value, through a FuzzyIndex at ``config.CMP``: the
    exterior square of the additive group of C is a group of values, so two
    atoms carrying the same complex number are the same generator.
    Cancellation over the identified atoms is exact integer arithmetic; when
    it succeeds the element is genuinely zero.  When it does not, nothing
    follows: relations between distinct log values are invisible, so the
    numeric pairing below is only a heuristic and is never reported as
    equality.
    """

    __slots__ = ()

    def __init__(self, terms: Iterable[tuple[int, complex, complex]]):
        super().__init__(terms, FuzzyIndex(config.CMP))

    def _keyed(self, terms):
        key = self.table.key
        for coeff, a, b in terms:
            if coeff == 0:
                continue
            ka, kb = key((a.real, a.imag)), key((b.real, b.imag))
            if ka == kb:
                continue  # a ^ a = 0
            if ka > kb:
                ka, kb, a, b, coeff = kb, ka, b, a, -coeff
            yield coeff, (ka, kb), (a, b)

    def __iter__(self):
        return ((c, a, b) for c, (a, b) in super().__iter__())

    def pairing(self) -> float:
        """The continuous antisymmetric form Im(conj(a) * b), summed.
        A heuristic invariant only: zero pairing proves nothing."""
        return sum(c * ((a.conjugate() * b).imag) for c, a, b in self)

    def zero_report(self) -> str:
        """'zero' on formal cancellation, else 'inconclusive' or 'nonzero'
        as the heuristic pairing is within ``PAIRING_TOL`` of 0 or not.
        Only 'zero' is a proof."""
        if self.is_zero():
            return "zero"
        if abs(self.pairing()) <= PAIRING_TOL:
            return "inconclusive"
        return "nonzero"

    def __repr__(self) -> str:
        if self.is_zero():
            return "WedgeElement(0)"
        bits = [f"{c:+d}({a:.4g})^({b:.4g})" for c, a, b in self]
        return "WedgeElement(" + " ".join(bits) + ")"


def nu_hat(element: Iterable[tuple[int, FlatteningTriple]]) -> WedgeElement:
    """Map into wedges of logarithms: a flattening (w0, w1, w2) goes to
    w0 ^ w1, extended by linearity over (coeff, FlatteningTriple) pairs.
    For the triple of a covering point (z; p, q) (``from_covering_point``)
    that is (Log z + p pi i) ^ (Log 1/(1-z) + q pi i).

    Ledger-backed triples give exact cancellation; triples without a
    ledger give numeric atoms, so heuristic checks only.  Atoms are keyed
    by value at every occurrence; an evaluation keys its Log dets by edge
    element and runs no wedge check, and tests use this as the oracle on
    its images.
    """
    terms: list[tuple[int, complex, complex]] = []
    for coeff, triple in element:
        if triple.ledger is None:
            terms.append((coeff, triple.w0, triple.w1))
        else:
            terms.extend((coeff * ca * cb, va, vb)
                         for ca, va in triple.ledger[0]
                         for cb, vb in triple.ledger[1])
    return WedgeElement(terms)


def mu(v0: ProjVector, v1: ProjVector, v2: ProjVector) -> WedgeElement:
    """The three-term wedge of log-determinants attached to a vector triple:
    (01)^(02) - (01)^(12) + (02)^(12), writing (ij) for Log det(v_i, v_j)."""
    vs = (v0, v1, v2)
    logs = {}
    for i in range(3):
        for j in range(i + 1, 3):
            d = det_pair(vs[i], vs[j])
            if abs(d) <= config.ZERO * vs[i].norm() * vs[j].norm():
                raise DegenerateConfig(f"det(v{i}, v{j}) vanishes")
            logs[(i, j)] = plog(d)
    return WedgeElement([
        (+1, logs[(0, 1)], logs[(0, 2)]),
        (-1, logs[(0, 1)], logs[(1, 2)]),
        (+1, logs[(0, 2)], logs[(1, 2)]),
    ])
