"""The branched cover of C minus {0,1} and its formal algebra.

A covering point is a pair of logarithm branch choices attached to a
cross-ratio: (z; p, q) with p, q even integers.  Equivalently it is a triple
(w0, w1, w2) of log-parameters summing to zero, with w0 a logarithm of z and
w1 a logarithm of 1/(1-z); the two descriptions are exchanged by
``to_covering_point`` / ``from_covering_point``.

A flattened term is evaluated as it is, never merged with others: its
value is the lifted Rogers dilogarithm of its covering point.  The object
path (``FlatteningTriple``, ``to_covering_point``, ``CoveringPoint``, then
``lhat`` and ``vol``) is the public API and the reference; an evaluation
runs each trial's terms through ``_lhat_sums`` instead, from the edge Log
dets to the sums, building no object.  Both paths take the covering point
from one body, ``_cover``, and the values from lhat's and vol's body,
``dilog._point``, so the trial sums are bit-equal to the object path's.
Formal integer combinations of wedges of logarithms (``WedgeElement``) are the target of the map ``nu_hat``; they are
``FormalSum`` objects whose log atoms get integer ids from a ``FuzzyIndex``
at ``config.CMP``; see :mod:`extbloch.quantize` for which values that
identifies.
"""

from __future__ import annotations

import cmath
import math
from collections.abc import Iterable, Sequence

from . import config
from .core import FrozenRecord, ProjVector, det_pair
from .dilog import PI, _finite, _point, plog
from .errors import (ChiAtZero, DegenerateConfig, DegenerateFT,
                     InvalidFlattening, LogOfZero, NotEven, ZAtZeroOrOne)
from .formal import FormalSum
from .quantize import FuzzyIndex

# ---------------------------------------------------------------------------
# covering points and flattening triples

SUM_TOL = 1e-9  # |w0 + w1 + w2|, relative to 1 + |w0| + |w1|
EXP_TOL = 1e-6  # |e^{w1} - 1/(1-z)|, relative to |1/(1-z)|
INT_TOL = 1e-6  # distance of a branch integer from the nearest integer
REAL_TOL = 1e-12  # |Im z| read as 0, relative to 1 + |Re z|


class CoveringPoint(FrozenRecord):
    """A point (z; p, q) of the cover: z finite, off {0, 1}; p, q even."""

    __slots__ = ("z", "p", "q")

    def __init__(self, z: complex, p: int, q: int):
        _finite(z)
        if abs(z) <= config.ZERO or abs(z - 1.0) <= config.ZERO:
            raise ZAtZeroOrOne(f"z = {z} must avoid 0 and 1")
        if p % 2 or q % 2:
            raise ValueError(f"branch integers must be even, got ({p}, {q})")
        super().__init__(z, p, q)


# an atom ledger is, per log-parameter, a tuple of (integer coeff, log value)
Ledger = tuple[tuple[tuple[int, complex], ...], ...]


class FlatteningTriple(FrozenRecord, compare=("w0", "w1", "w2")):
    """Log-parameters (w0, w1, w2) with w0 + w1 + w2 = 0.

    w0 is a logarithm of the cross-ratio z = e^{w0} and w1 a logarithm of
    1/(1-z); construction refuses (``_cover``) exactly what
    ``to_covering_point`` refuses.  ``ledger``, when present,
    expresses each w as an integer combination of log atoms and enables
    exact wedge cancellation downstream; ``==`` and ``hash`` ignore it.
    """

    __slots__ = ("w0", "w1", "w2", "ledger")

    def __init__(self, w0: complex, w1: complex, w2: complex,
                 ledger: Ledger | None = None):
        _cover(w0, w1, w2)
        super().__init__(w0, w1, w2, ledger)

    @classmethod
    def from_w01(cls, w0: complex, w1: complex,
                 ledger: Ledger | None = None) -> "FlatteningTriple":
        return cls(w0, w1, -w0 - w1, ledger)

    def values(self) -> tuple[complex, complex, complex]:
        return (self.w0, self.w1, self.w2)


def _cover(w0: complex, w1: complex, w2: complex):
    """(z, Log z, Log(1 - z), p, q) of log-parameters (w0, w1, w2): the
    covering point (z; p, q), with z = e^{w0}, w0 = Log z + p pi i and
    w1 = Log(1/(1-z)) + q pi i, and the two Logs.  The one body of this
    stage, for ``FlatteningTriple``, ``to_covering_point`` and
    ``_lhat_sums``.  It refuses, in order: a sum off zero (a NaN or
    infinite part fails it), an OverflowError (of e^w, or of abs at a NaN
    while errno holds an earlier ERANGE), z = 1 and e^{w1} off 1/(1-z), as
    InvalidFlattening; |z| <= ZERO (LogOfZero); p, q (NotEven); and
    |z - 1| <= ZERO (ZAtZeroOrOne).  Real z on a cut is read from above:
    Im z within REAL_TOL of 0 snaps to 0, and Log(1/(1-z)) is -Log(1-z)
    but with imaginary part +pi where 1 - z < 0."""
    try:
        bound = SUM_TOL * (1 + abs(w0) + abs(w1))
        if not abs(w0 + w1 + w2) <= bound < math.inf:
            raise InvalidFlattening("log-parameters must sum to zero")
        z, e1 = cmath.exp(w0), cmath.exp(w1)
    except OverflowError:
        raise InvalidFlattening("log-parameters overflow") from None
    if z.imag != 0.0 and abs(z.imag) <= REAL_TOL * (1.0 + abs(z.real)):
        z = complex(z.real, 0.0)
    if z == 1.0:
        raise InvalidFlattening(f"z = {z}: no logarithm of 1/(1 - z)")
    w = 1.0 - z
    target = 1.0 / w
    if not abs(e1 - target) <= EXP_TOL * abs(target):
        raise InvalidFlattening("w1 is not a logarithm of 1/(1 - e^{w0})")
    if abs(z) <= config.ZERO:
        raise LogOfZero(f"log of {z}")
    # Log z as plog takes it, Log(1 - z) as _log1m does (w != 0 as z != 1):
    # inline, as calling plog and _log1m here adds about 6% per term
    log_z = cmath.log(z if z.imag != 0.0 else complex(z.real, 0.0))
    l1 = -z if w == 1.0 else cmath.log(w) * (z / (1.0 - w))
    i_pi = 1j * PI  # per call, so that a patched covering.PI holds
    raw = (w0 - log_z) / i_pi
    p = round(raw.real)
    if abs(raw - p) > INT_TOL:
        raise NotEven(f"p = {raw} is not an integer")
    if p % 2:
        raise NotEven(f"p = {p} is odd")
    on_cut = z.imag == 0.0 and z.real > 1.0
    raw = (w1 - (complex(-l1.real, PI) if on_cut else -l1)) / i_pi
    q = round(raw.real)
    if abs(raw - q) > INT_TOL:
        raise NotEven(f"q = {raw} is not an integer")
    if q % 2:
        raise NotEven(f"q = {q} is odd")
    if abs(z - 1.0) <= config.ZERO:
        raise ZAtZeroOrOne(f"z = {z} must avoid 0 and 1")
    return z, log_z, l1, p, q


def to_covering_point(t: FlatteningTriple) -> CoveringPoint:
    """Recover (z; p, q) from log-parameters (``_cover``): z = e^{w0}, the
    branch integers measuring the offsets from the principal logarithms."""
    z, _, _, p, q = _cover(t.w0, t.w1, t.w2)
    return CoveringPoint(z, p, q)


def _log_params(l01, l02, l03, l12, l13, l23) -> tuple[complex, complex, complex]:
    """(w0, w1, w2) of ``sigma_hat`` from the six Log dets (ij), i < j."""
    return l03 + l12 - l02 - l13, l02 + l13 - l01 - l23, l01 + l23 - l03 - l12


def _lhat_sums(rows, logs: list[complex]) -> tuple[float, float, float]:
    """(Re, Im) of sum_i c_i lhat(z_i; p_i, q_i), and sum_i c_i vol(z_i),
    each a ``math.fsum``, over ``rows``: per term its coefficient c_i and
    the indices in ``logs`` of its Log dets (01), (02), (03), (12), (13),
    (23) (the rows of a ``chains._Plan``).  The trial path's per-term body,
    through ``_cover`` and ``dilog._point`` with no object built: its sums
    are bit-equal to those over the object path, which tests hold it to."""
    re, im, vols = [], [], []
    for coeff, i01, i02, i03, i12, i13, i23 in rows:
        _, value, volume = _point(*_cover(*_log_params(
            logs[i01], logs[i02], logs[i03], logs[i12], logs[i13], logs[i23])))
        re.append(coeff * value.real)
        im.append(coeff * value.imag)
        vols.append(coeff * volume)
    return math.fsum(re), math.fsum(im), math.fsum(vols)


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


class FlatteningReport(FrozenRecord):
    """The ten signed edge sums over five flattenings: ``residuals``, their
    (label, |sum|) pairs, and ``exact``, whether each sum's atoms cancel
    exactly, or None unless all five triples carry ledgers."""

    __slots__ = ("residuals", "exact")

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
    from fractions import Fraction  # here: no evaluation calls chi_hat

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
    it succeeds (``is_zero``) the element is genuinely zero.  When it does
    not, nothing follows: relations between distinct log values are
    invisible, so an element that does not cancel may still be zero.
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

    Ledger-backed triples give exact cancellation; a triple without a
    ledger gives the single wedge w0 ^ w1, which cancels only against an
    equal wedge.  Atoms are keyed by value at every occurrence; an
    evaluation keys its Log dets by edge element and runs no wedge check,
    and tests use this as the oracle on its images.
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
