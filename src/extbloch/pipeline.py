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

Every trial runs one body on what ``chains._repairs`` yields for it: a
plan (``chains._Plan``) of slots, pairs and distinct Log-det edges, whose
rows index those edges' Logs, and the ids its slots hold.  A replayed
trial is one pass over the first trial's plan with its slot ids moved by
one offset, so a trial takes one Log (``plog``) per distinct edge, keys
nothing by edge id, and sums its terms from those Logs in one pass
(``covering._lhat_sums``) that calls, per term, the covering point's body
(``covering._cover``) and lhat's and vol's (``dilog._point``).
"""

from __future__ import annotations

import math
import numbers
from bisect import bisect_left
from itertools import combinations

from .chains import (MAX_DEGREE, BarChain, HomChain, _checked_cycle, _Plan,
                     _repairs, _sample_v, _v_pass, near_pairs)
from .core import FrozenRecord, ProjVector, Record, as_rng, det_pair
from .covering import FlatteningTriple, _lhat_sums, _log_params
from .dilog import TWO_PI_SQ, plog
from .errors import DegenerateConfig, NotVGood


class ConfigTuple(FrozenRecord):
    """Vectors in C^2 \\ {0} with pairwise distinct images on the sphere,
    witnessed by scale-relative nonvanishing determinants."""

    __slots__ = ("vectors",)

    def __init__(self, vectors: tuple[ProjVector, ...]):
        if len(vectors) > MAX_DEGREE + 1:
            raise ValueError("tuples of more than 5 vectors are not used")
        if near := near_pairs(vectors):
            raise DegenerateConfig("det(v%d, v%d) too small" % near[0])
        super().__init__(vectors)

    def __len__(self) -> int:
        return len(self.vectors)

    def __getitem__(self, i: int) -> ProjVector:
        return self.vectors[i]

    def face(self, i: int) -> "ConfigTuple":
        return ConfigTuple(self.vectors[:i] + self.vectors[i + 1:])


def psi_v(c: HomChain, v: ProjVector) -> list[tuple[int, ConfigTuple]]:
    """Apply every group element to v, termwise: (g_0,...,g_n) becomes the
    configuration (g_0 v, ..., g_n v).  Raises NotVGood naming the first
    term whose configuration ``ConfigTuple`` refuses."""
    configs = []
    for t_idx, (coeff, tup) in enumerate(c):
        try:
            configs.append((coeff, ConfigTuple(tuple(g.apply(v) for g in tup))))
        except DegenerateConfig as exc:
            raise NotVGood(f"term {t_idx}: {exc}") from None
    return configs


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


class LambdaResult(Record):
    """Image of a cycle: ``triples``, a (coefficient, ledger-backed
    FlatteningTriple) per repaired term, and ``vector``, the v drawn."""

    __slots__ = ("triples", "vector")


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
    rng = as_rng(seed)
    hom = _checked_cycle(c)
    plan, ids = next(_repairs(hom, rng, 1))
    v, logs = _lambda_hat(hom.table.elements, plan, ids, rng)
    return LambdaResult([(coeff, _flattening([logs[k] for k in row]))
                         for coeff, *row in plan.rows], v)


def _lambda_hat(elements: list, plan: _Plan, ids: list[int],
                rng) -> tuple[ProjVector, list[complex]]:
    """v drawn from ``rng`` and, for ``plan`` (see ``chains._Plan``) with
    its slots holding ``ids`` (ids of ``elements``), the Log det of each
    distinct edge: ``plog`` of its det at the edge's first pair
    (``plan.firsts``; the plan's rows index these Logs).  det is SL(2, C)
    invariant, so every translate of an edge e = g_i^-1 g_j shares the
    Log det(g_i v, g_j v) of the first met, whose det the v-check's pass
    (``chains._v_pass``) already computed."""
    v, _, dets = _sample_v(lambda v: _v_pass(elements, plan, ids, v), rng)
    return v, [plog(dets[k]) for k in plan.firsts]


def _mod1(x: float) -> float:
    """x reduced into [0, 1): +0.0, not -0.0, and not the 1.0 that
    x - floor(x) rounds to for x just below 0."""
    r = x - math.floor(x)
    return 0.0 if r == 1.0 or r == 0.0 else r


def _circle_distance(a: float, b: float) -> float:
    d = abs(_mod1(a) - _mod1(b))
    return min(d, 1.0 - d)


class CcsReport(Record):
    """Evaluation report for one cycle.

    value_mod1 carries the class value: real part in [0, 1), and
    Im(value_mod1) = -volume / (2 pi^2) exactly (never reduced; the integers
    form a real lattice).  The reported quantity is twice the degree-three
    characteristic value, the combination that is well defined in C/Z.
    volume equals Im(raw_lhat) by construction; residuals record the
    independent per-term volume sum.  ``trials`` and ``residuals`` default
    to a new empty list and dict.
    """

    __slots__ = ("value_mod1", "raw_lhat", "volume", "trials",
                 "max_trial_deviation", "residuals", "seed")

    def __init__(self, value_mod1: complex, raw_lhat: complex, volume: float,
                 trials: list[complex] | None = None,
                 max_trial_deviation: float = 0.0,
                 residuals: dict | None = None, seed: int | None = None):
        super().__init__(value_mod1, raw_lhat, volume,
                         [] if trials is None else trials, max_trial_deviation,
                         {} if residuals is None else residuals, seed)

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


def ccs_value(c: BarChain, seed=0, trials: int = 5) -> CcsReport:
    """Evaluate a cycle over several independent repair/vector draws.

    One generator is made from ``seed`` (see ``as_rng``); the trials draw
    from it in turn, as successive ``lambda_hat`` calls on it do, and give
    the same values.  Later trials replay the first trial's repair and
    Log-det edges at their own apexes (see ``chains._repairs``), and every
    trial runs one body on its plan and slot ids.  Each repaired term is
    evaluated once, straight from its edge Logs, by ``covering._lhat_sums``
    (its covering point from ``covering._cover`` and its value and volume
    from ``dilog._point``, the bodies of ``to_covering_point`` and
    ``lhat``), and nothing is merged.  ``volume_vs_im_lhat`` is the
    largest gap over the trials between the per-term volume sum and Im of
    the lifted Rogers sum; both are ``math.fsum`` sums, bit-equal to those
    of ``lhat`` and ``vol`` over the ``to_covering_point`` images of the
    same terms' triples (``lambda_hat(...).triples`` for the first trial),
    the object path that tests hold the trial path to.  Trials must agree
    (mod 1, within fp) by independence of the choices; the max pairwise
    deviation is reported as a health measure.  All trials share one
    symbol table at the comparison tolerance of ``c``'s own (see
    ``SymbolTable``).  The report's ``seed`` is ``int(seed)`` for an
    integer seed (``numbers.Integral``, bool and numpy integers included)
    and None for a generator.  ``trials`` must be such an integer, at
    least 1; anything else raises TypeError or ValueError before the cycle
    is checked or anything is drawn.  Raises NotACycle, a ValueError, when
    ``c`` is not a 3-cycle at that tolerance.
    """
    if not isinstance(trials, numbers.Integral):
        raise TypeError(f"trials must be an integer, got {trials!r}")
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials!r}")
    rng = as_rng(seed)
    return _trial_loop(_checked_cycle(c), rng, int(trials),
                       int(seed) if isinstance(seed, numbers.Integral) else None)


def _trial_loop(hom: HomChain, rng, trials: int, seed: int | None) -> CcsReport:
    """``ccs_value``'s report on the checked cycle ``hom`` (see
    ``_checked_cycle``), drawing from ``rng``, with ``seed`` as its seed:
    one body per trial on the (plan, slot ids) that ``chains._repairs``
    yields for it: v and the Log of each distinct edge (``_lambda_hat``),
    then the three sums of ``covering._lhat_sums`` over the plan's rows."""
    elements = hom.table.elements
    values: list[complex] = []
    raws: list[complex] = []
    vol_res = 0.0
    for plan, ids in _repairs(hom, rng, trials):
        _, logs = _lambda_hat(elements, plan, ids, rng)
        # correctly rounded sums, independent of the order of the terms
        re, im, vol = _lhat_sums(plan.rows, logs)
        raw = complex(re, im)
        value = -raw / TWO_PI_SQ
        values.append(complex(_mod1(value.real), value.imag))
        raws.append(raw)
        vol_res = max(vol_res, abs(vol - raw.imag))
    return CcsReport(
        value_mod1=values[0],
        raw_lhat=raws[0],
        volume=raws[0].imag,
        trials=values,
        max_trial_deviation=_max_deviation(values),
        residuals={"volume_vs_im_lhat": vol_res},
        seed=seed,
    )


def _max_deviation(values: list[complex]) -> float:
    """The largest, over pairs of ``values`` (real parts in [0, 1)), of
    the circle distance of the real parts and |difference| of the
    imaginary parts: the same float as the maximum over all pairs.  The
    largest imaginary gap is max - min (float subtraction is monotone).
    For x before y in the sorted real parts, d = y - x grows with y, so
    min(d, 1 - d) rises while d <= 1 - d and falls after: over the y after
    each x, one bisection finds the two candidates."""
    if len(values) < 2:
        return 0.0
    ims = [v.imag for v in values]
    res = sorted(v.real for v in values)
    best = max(ims) - min(ims)
    for k, x in enumerate(res):
        j = bisect_left(res, True, k, key=lambda y: y - x > 1.0 - (y - x))
        for y in res[j - 1:j + 1]:
            best = max(best, _circle_distance(x, y))
    return best
