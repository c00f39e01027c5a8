"""Positivity and ordering machinery over SL(2,R).

An element (a b; c d) is positive when c > 0, nonzero when c != 0; the
partial order g1 < g2 holds when g1^{-1} g2 is positive.  Near the identity
the order sorts tuples uniquely (bubble sort with post-hoc verification),
and small positive triples produce flat configurations whose evaluation
reduces termwise to the real Rogers cocycle.
"""

from __future__ import annotations

import math

from . import config
from .core import (INF, FrozenRecord, GroupElement, ProjVector, as_rng,
                   cross_ratio_ext, det_pair, is_inf, moebius)
from .covering import to_covering_point
from .dilog import lhat, rogers_real
from .errors import Incomparable, NotSortable, PreconditionFailed
from .pipeline import ConfigTuple, sigma_hat


# an element of SL(2,R): a GroupElement with real entries
RealGroupElement = GroupElement

SPREAD = 0.2  # ``sample_small_positive``'s entries lie this near the identity


def is_positive(g: RealGroupElement) -> bool:
    return g.c > config.ZERO


def is_nonzero(g: RealGroupElement) -> bool:
    return abs(g.c) > config.ZERO


def less(g1: RealGroupElement, g2: RealGroupElement) -> bool:
    """g1 < g2 iff g1^{-1} g2 is positive.  Raises Incomparable when the
    quotient has vanishing lower-left entry."""
    q = g1.inverse() @ g2
    if not is_nonzero(q):
        raise Incomparable("quotient has c = 0")
    return is_positive(q)


def sort_tuple(elements: tuple[RealGroupElement, ...]) -> tuple[int, ...]:
    """Permutation sigma with g_{sigma(0)} < ... < g_{sigma(n)}, found by
    bubble sort and then verified on all pairs.

    The order is not transitive in general; uniqueness needs the elements
    close enough to the identity.  Instead of constructing such
    neighbourhoods the result is checked post hoc, raising NotSortable if
    any pairwise comparison disagrees with the output.
    """
    n = len(elements)
    perm = list(range(n))
    for i in range(n):
        for j in range(n - 1 - i):
            if not less(elements[perm[j]], elements[perm[j + 1]]):
                perm[j], perm[j + 1] = perm[j + 1], perm[j]
    for i in range(n):
        for j in range(i + 1, n):
            if not less(elements[perm[i]], elements[perm[j]]):
                raise NotSortable(
                    f"positions {i}, {j} of the sorted output disagree")
    return tuple(perm)


def _boundary_key(pt) -> float:
    return math.inf if is_inf(pt) else pt


def rogers_cocycle(g0: RealGroupElement, g1: RealGroupElement,
                   g2: RealGroupElement, g3: RealGroupElement) -> float:
    """Real Rogers value of the cross-ratio of the four boundary points
    g_i(infinity).  Zero on tuples with coinciding boundary points (the
    degenerate symbol is the zero element, not an argument to the
    dilogarithm)."""
    pts = [moebius(g, INF) for g in (g0, g1, g2, g3)]
    cr = cross_ratio_ext(*pts)
    if cr == 0:
        return 0.0
    return rogers_real(cr.real)


class SmallPositiveReport(FrozenRecord):
    """Outcome of the termwise agreement check on one positive triple:
    ``cross_ratio`` (the real cross-ratio z, NaN when z is not real),
    ``covering_p`` and ``covering_q`` (its branch), ``det_values`` (the six
    pairwise determinants), ``boundary_points`` (the four boundary keys)
    and ``agreement_error`` (|L-hat - real Rogers at Re z|).  The claims
    hold when the branch is (0, 0), z lies in (0, 1), the boundary keys
    descend and the error is 0."""

    __slots__ = ("cross_ratio", "covering_p", "covering_q", "det_values",
                 "boundary_points", "agreement_error")


def check_small_positive_agreement(
        g1: RealGroupElement, g2: RealGroupElement,
        g3: RealGroupElement) -> SmallPositiveReport:
    """Verify the flat-configuration picture for a positive triple.

    With v = (1, 0) and the partial products applied to v:

    * the hypotheses: g1, g2, g3 and all pairwise determinants
      det(v_i, v_j), i < j, are positive (these are exactly the lower-left
      entries of the six products);
    * the claims, recorded in the report for the caller to check: the
      boundary points descend, inf > g1(inf) > g1g2(inf) > g1g2g3(inf);
      the log-determinant flattening lands on branch (z; 0, 0) with the
      cross-ratio z in (0, 1); and the lifted Rogers value there equals
      the real Rogers value.

    Raises PreconditionFailed naming the first failed hypothesis.
    """
    for name, g in (("g1", g1), ("g2", g2), ("g3", g3)):
        if not is_positive(g):
            raise PreconditionFailed(f"{name} is not positive")

    prods = (g1, g1 @ g2, g1 @ g2 @ g3)
    v = ProjVector(1.0, 0.0)
    vecs = [v] + [g.apply(v) for g in prods]

    dets = []
    for i in range(4):
        for j in range(i + 1, 4):
            dets.append(det_pair(vecs[i], vecs[j]).real)
    if min(dets) <= config.ZERO:
        raise PreconditionFailed(
            "determinant positivity: some det(v_i, v_j) <= 0 "
            "(a product of the triple is not positive)")

    bnd = [INF] + [moebius(g, INF) for g in prods]
    pt = to_covering_point(sigma_hat(ConfigTuple(tuple(vecs))))
    z = pt.z.real
    err = abs(lhat(pt) - rogers_real(z))
    return SmallPositiveReport(
        z if pt.z.imag == 0.0 else math.nan, pt.p, pt.q, tuple(dets),
        tuple(_boundary_key(b) for b in bnd), err)


def sample_small_positive(rng) -> RealGroupElement:
    """Random positive element with entries within ``SPREAD`` of the
    identity and lower-left entry in (0, SPREAD); the fourth entry is
    solved from the determinant."""
    while True:
        a = 1.0 + rng.uniform(-SPREAD, SPREAD)
        b = rng.uniform(-SPREAD, SPREAD)
        c = rng.uniform(1e-3, SPREAD)
        d = (1.0 + b * c) / a
        if abs(d - 1.0) <= SPREAD:
            return RealGroupElement(a, b, c, d)


def sample_agreement_suite(seed,
                           samples: int = 500) -> list[SmallPositiveReport]:
    """Draw small positive triples and run the agreement check on each.
    Triples whose products fail positivity are redrawn (the neighbourhood
    hypothesis); the claims of every returned report are for the caller
    to check."""
    rng = as_rng(seed)
    out = []
    while len(out) < samples:
        gs = [sample_small_positive(rng) for _ in range(3)]
        try:
            out.append(check_small_positive_agreement(*gs))
        except PreconditionFailed:
            continue
    return out
