"""The evaluation pipeline: cycles of group elements to values in C/Z.

A cycle is repaired to a good representative, pushed into configurations of
vectors in C^2 \\ {0} by a generic vector, each 4-tuple of vectors is turned
into a flattening triple of log-determinants, and the covering point of
each triple is evaluated by the lifted Rogers dilogarithm.  The reported
quantity is

    value = -(1 / 2 pi^2) * sum_i coeff_i * L(z_i; p_i, q_i)

with the real part reduced into [0, 1); its imaginary part is the volume of
the class.  The real part of the unreduced sum is only defined up to 2 pi^2,
which is exactly why the reduction is legitimate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import combinations

from .chains import (BarChain, HomChain, SymbolTable, _checked_cycle,
                     _repair_core, _sample_v, is_v_good, near_pairs)
from .core import ProjVector, as_rng, det_pair
from .covering import FlatteningTriple, _point_value
from .dilog import TWO_PI_SQ, plog
from .errors import DegenerateConfig, NotVGood


@dataclass(frozen=True)
class ConfigTuple:
    """Vectors in C^2 \\ {0} with pairwise distinct images on the sphere,
    witnessed by scale-relative nonvanishing determinants."""

    vectors: tuple[ProjVector, ...]

    def __post_init__(self):
        if len(self.vectors) > 5:
            raise ValueError("tuples of more than 5 vectors are not used")
        if near := near_pairs(self.vectors):
            raise DegenerateConfig("det(v%d, v%d) too small" % near[0])

    def __len__(self) -> int:
        return len(self.vectors)

    def __getitem__(self, i: int) -> ProjVector:
        return self.vectors[i]

    def face(self, i: int) -> "ConfigTuple":
        return ConfigTuple(self.vectors[:i] + self.vectors[i + 1:])


def psi_v(c: HomChain, v: ProjVector) -> list[tuple[int, ConfigTuple]]:
    """Apply every group element to v, termwise: (g_0,...,g_n) becomes the
    configuration (g_0 v, ..., g_n v)."""
    ok, offending = is_v_good(c, v)
    if not ok:
        raise NotVGood(f"offending pairs {offending[:3]}")
    return [(coeff, ConfigTuple(tuple(g.apply(v) for g in tup)))
            for coeff, tup in c]


def sigma_hat(t: ConfigTuple) -> FlatteningTriple:
    """Log-determinant flattening of a 4-vector configuration:

        w0 = (03) + (12) - (02) - (13)
        w1 = (02) + (13) - (01) - (23)
        w2 = (01) + (23) - (03) - (12)

    writing (ij) for Log det(v_i, v_j).  Then e^{w0} is the cross-ratio of
    the four sphere images and w0 + w1 + w2 = 0 on the nose; the ledger
    records the eight signed atoms.  Over the five faces of a 5-vector
    configuration the ten edge equations (``covering.EDGE_EQUATIONS``)
    cancel atom by atom, so they hold identically and are checked by
    tests and ``ccs selftest``, not per evaluation.
    """
    return _flattening([plog(det_pair(t[i], t[j]))
                        for i, j in combinations(range(len(t)), 2)])


def _log_params(l01, l02, l03, l12, l13, l23) -> tuple[complex, complex, complex]:
    """(w0, w1, w2) of ``sigma_hat`` from the six Log dets (ij), i < j."""
    return l03 + l12 - l02 - l13, l02 + l13 - l01 - l23, l01 + l23 - l03 - l12


def _flattening(logs) -> FlatteningTriple:
    """``sigma_hat`` from the six Log dets ``logs``, in ``combinations``
    order: (01), (02), (03), (12), (13), (23)."""
    if len(logs) != 6:
        raise DegenerateConfig("flattening needs exactly four vectors")
    l01, l02, l03, l12, l13, l23 = logs
    return FlatteningTriple(
        *_log_params(*logs),
        (((1, l03), (1, l12), (-1, l02), (-1, l13)),
         ((1, l02), (1, l13), (-1, l01), (-1, l23)),
         ((1, l01), (1, l23), (-1, l03), (-1, l12))))


@dataclass
class LambdaResult:
    """Image of a cycle as ledger-backed flattening triples, one per
    repaired term with its coefficient, and the vector v."""

    triples: list[tuple[int, FlatteningTriple]]
    vector: ProjVector


def lambda_hat(c: BarChain, seed) -> LambdaResult:
    """Full composite on a cycle: repair to a good representative with a
    checked homotopy certificate, push to vector configurations by a
    generic v, flatten termwise.

    The image needs no wedge check: its Log dets are keyed by edge element
    (see ``_lambda_hat``), so its nu_hat is mu of the repaired cycle's
    boundary, which the certificate check proves zero.  ``seed`` is an
    integer or a generator (see ``as_rng``).  Raises NotACycle, a
    ValueError, when ``c`` is not a 3-cycle.
    """
    v, terms = _lambda_hat(_checked_cycle(c, SymbolTable()), as_rng(seed))
    return LambdaResult([(coeff, _flattening(logs)) for coeff, logs in terms], v)


def _lambda_hat(hom: HomChain, rng):
    """v and, per repaired term, its coefficient and six Log dets in
    ``_flattening`` order, for a homogeneous cycle checked and interned for
    this evaluation; the repair draws
    from ``rng`` first, then v.  det is SL(2, C) invariant, so every
    translate of an edge e = g_i^-1 g_j shares the Log det(g_i v, g_j v)
    of the first met, whose det the v-check's pass already computed."""
    phi, _ = _repair_core(hom, rng)
    table = hom.table
    v, _, dets = _sample_v(table.elements, phi, rng)
    edge_log: dict[int, complex] = {}

    def log(i, j):
        e = table.ldiv(i, j)
        if (x := edge_log.get(e)) is None:
            x = edge_log[e] = plog(dets[(i, j)])
        return x

    return v, [(coeff, [log(i, j) for i, j in combinations(ids, 2)])
               for coeff, ids in phi]


def _mod1(x: float) -> float:
    return x - math.floor(x)


def _circle_distance(a: float, b: float) -> float:
    d = abs(_mod1(a) - _mod1(b))
    return min(d, 1.0 - d)


@dataclass
class CcsReport:
    """Evaluation report for one cycle.

    value_mod1 carries the class value: real part in [0, 1), and
    Im(value_mod1) = -volume / (2 pi^2) exactly (never reduced; the integers
    form a real lattice).  The reported quantity is twice the degree-three
    characteristic value, the combination that is well defined in C/Z.
    volume equals Im(raw_lhat) by construction; residuals record the
    independent per-term volume sum.
    """

    value_mod1: complex
    raw_lhat: complex
    volume: float
    trials: list[complex] = field(default_factory=list)
    max_trial_deviation: float = 0.0
    residuals: dict = field(default_factory=dict)
    seed: int | None = None

    def as_dict(self) -> dict:
        return {
            "value": [self.value_mod1.real, self.value_mod1.imag],
            "raw_lhat": [self.raw_lhat.real, self.raw_lhat.imag],
            "volume": self.volume,
            "trials": [[t.real, t.imag] for t in self.trials],
            "max_trial_deviation": self.max_trial_deviation,
            "residuals": dict(sorted(self.residuals.items())),
            "seed": self.seed,
        }


def ccs_value(c: BarChain, seed=0, trials: int = 5,
              tol: float | None = None) -> CcsReport:
    """Evaluate a cycle over several independent repair/vector draws.

    One generator is made from ``seed`` (see ``as_rng``); the trials draw
    from it in turn, as successive ``lambda_hat`` calls on it do, checked
    certificate included.  Each repaired term is then evaluated once,
    straight from its log-parameters (``covering._point_value``: one
    e^{w0}, Log z, Log(1-z) and li2 series, with every check of the
    ``FlatteningTriple``, ``to_covering_point`` and ``lhat`` path), and
    nothing is merged.  ``volume_vs_im_lhat`` is
    the largest gap over the trials between the per-term volume sum and Im
    of the lifted Rogers sum; both are ``math.fsum`` sums, bit-equal to
    those of ``lhat`` and ``vol`` over the ``to_covering_point`` images of
    ``lambda_hat(...).triples``.
    Trials must agree (mod 1, within fp) by independence of the choices;
    the max pairwise deviation is reported as a health measure.  All
    trials share one symbol table at the comparison tolerance ``tol`` (see
    ``SymbolTable``).  Raises NotACycle, a ValueError, when ``c`` is not a
    3-cycle at ``tol``.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    rng = as_rng(seed)
    hom = _checked_cycle(c, SymbolTable(tol))
    values: list[complex] = []
    raws: list[complex] = []
    vol_res = 0.0
    for _ in range(trials):
        _, terms = _lambda_hat(hom, rng)
        points = [(coeff, *_point_value(*_log_params(*logs)))
                  for coeff, logs in terms]
        # correctly rounded sums, independent of the order of the terms
        raw = complex(math.fsum(c * lh.real for c, lh, _ in points),
                      math.fsum(c * lh.imag for c, lh, _ in points))
        volume = math.fsum(c * d for c, _, d in points)
        value = -raw / TWO_PI_SQ
        values.append(complex(_mod1(value.real), value.imag))
        raws.append(raw)
        vol_res = max(vol_res, abs(volume - raw.imag))
    dev = max((max(_circle_distance(a.real, b.real), abs(a.imag - b.imag))
               for a, b in combinations(values, 2)), default=0.0)
    return CcsReport(
        value_mod1=values[0],
        raw_lhat=raws[0],
        volume=raws[0].imag,
        trials=values,
        max_trial_deviation=dev,
        residuals={"volume_vs_im_lhat": vol_res},
        seed=seed if isinstance(seed, int) else None,
    )
