"""Named chain fixtures: torsion cycles, five-term boundaries, random chains."""

from __future__ import annotations

from .core import INF, GroupElement, as_rng, is_inf, random_sl2, rotation
from .chains import BarChain, HomChain, hom_boundary, hom_to_inhom, is_good
from .covering import five_tuple


def torsion_cycle(n: int) -> BarChain:
    """The rotation cycle sum_{i=0}^{n-1} [t | t^i | t], t a rotation by
    2 pi / n.  A 3-cycle by telescoping; the only desk-scale family with a
    nonzero evaluation."""
    if n < 2:
        raise ValueError("n must be >= 2")
    t = rotation(n, 1)
    terms = []
    for i in range(n):
        terms.append((1, (t, rotation(n, i), t)))
    return BarChain(3, terms)


def _point_to_matrix(z) -> GroupElement:
    """A matrix sending infinity to the given boundary point."""
    if is_inf(z):
        return GroupElement.identity()
    return GroupElement(z, -1.0, 1.0, 0.0)


def five_term_boundary(x: complex, y: complex) -> BarChain:
    """Boundary 3-cycle whose (1,0)-configuration realizes the five-term
    tuple of (x, y).

    The five ideal points (0, inf, 1, A, B) with A = (1-x)/(1-y) and
    B = y(1-x)/(x(1-y)) have face cross-ratios exactly
    (x, y, y/x, (1-1/x)/(1-1/y), (1-x)/(1-y)); the matrices below move
    infinity to those points.  Raises DegenerateFT naming the first
    coordinate that hits 0 or 1 (``covering.five_tuple``).
    """
    x, y = complex(x), complex(y)
    five_tuple(x, y)
    a_pt = (1.0 - x) / (1.0 - y)
    b_pt = y * (1.0 - x) / (x * (1.0 - y))
    points = [0.0 + 0j, INF, 1.0 + 0j, a_pt, b_pt]
    mats = tuple(_point_to_matrix(z) for z in points)
    top = HomChain(4, [(1, mats)], coinvariant=True)
    return hom_to_inhom(hom_boundary(top))


def random_good_hom_chain(rng_or_seed, degree: int, n_terms: int) -> HomChain:
    """Random homogeneous chain with good tuples and nonzero coefficients
    in [-2, 2]."""
    rng = as_rng(rng_or_seed)
    terms = []
    while len(terms) < n_terms:
        tup = tuple(random_sl2(rng) for _ in range(degree + 1))
        if is_good(HomChain(degree, [(1, tup)]))[0]:
            terms.append((int(rng.choice((-2, -1, 1, 2))), tup))
    return HomChain(degree, terms, coinvariant=True)


def random_boundary_cycle(rng_or_seed, n_terms: int = 2) -> BarChain:
    """A random degree-3 cycle that is a boundary (evaluates to zero)."""
    top = random_good_hom_chain(as_rng(rng_or_seed), 4, n_terms)
    return hom_to_inhom(hom_boundary(top))
