"""Branch lifting of five-tuple paths over the doubly-cut plane.

A path moves the two free parameters (x0, x1); the five face cross-ratios
move with them.  Whenever a coordinate crosses the cut (-inf, 0) its first
branch integer jumps by +-2, and crossing (1, inf) jumps the second one,
the sign fixed by the crossing direction: downward (upper half plane to
lower) increments, upward decrements.  That convention is exactly what
keeps the lifted Rogers value continuous along the lift, and it reproduces
the closed-form endpoint pattern of composite winding loops, which
``verify_pq_pattern`` checks by exact integer comparison.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

from .config import DEFAULT_TOL, Tolerances
from .covering import CoveringPoint, coords
from .dilog import lhat
from .errors import PathDegenerate

# how far a cut crossing must stay from the cut endpoints 0 and 1
_ENDPOINT_MARGIN = 1e-9
# target parameter accuracy for crossing localization
_BISECT_TOL = 1e-12


@dataclass(frozen=True)
class ParamPath:
    """Piecewise-linear path t -> (x0(t), x1(t)), given by its vertices."""

    vertices: tuple[tuple[complex, complex], ...]

    def __post_init__(self):
        if len(self.vertices) < 1:
            raise ValueError("a path needs at least one vertex")

    @property
    def start(self) -> tuple[complex, complex]:
        return self.vertices[0]

    @property
    def end(self) -> tuple[complex, complex]:
        return self.vertices[-1]

    def concat(self, other: "ParamPath") -> "ParamPath":
        a, b = self.end, other.start
        if abs(a[0] - b[0]) > 1e-12 or abs(a[1] - b[1]) > 1e-12:
            raise ValueError("paths do not share an endpoint")
        return ParamPath(self.vertices + other.vertices[1:])

    def reversed(self) -> "ParamPath":
        return ParamPath(tuple(reversed(self.vertices)))


@dataclass(frozen=True)
class LiftedFiveTuple:
    """Five covering points lying over the five-tuple of a base (x0, x1)."""

    base: tuple[complex, complex]
    points: tuple[CoveringPoint, ...]

    def __post_init__(self):
        if len(self.points) != 5:
            raise ValueError("need exactly five covering points")
        vals = coords(*self.base)
        for pt, val in zip(self.points, vals):
            if abs(pt.z - val) > DEFAULT_TOL.cmp * (1.0 + abs(val)):
                raise ValueError("points do not lie over the base five-tuple")

    def branches(self) -> tuple[tuple[int, int], ...]:
        return tuple((pt.p, pt.q) for pt in self.points)


def start_lift(x0: complex, x1: complex) -> LiftedFiveTuple:
    """The all-zero-branch lift over (x0, x1)."""
    return LiftedFiveTuple(
        (x0, x1), tuple(CoveringPoint(z, 0, 0) for z in coords(x0, x1)))


def _check_sample(w: complex):
    if abs(w) <= DEFAULT_TOL.zero or abs(w - 1.0) <= DEFAULT_TOL.zero:
        raise PathDegenerate(f"coordinate hits {w}")


def _segment_crossings(f, w_a: complex, w_b: complex) -> list[tuple[str, int]]:
    """Cut crossings of one coordinate along one refined segment.

    f maps [0,1] to the coordinate values; endpoints are precomputed.
    Returns at most one crossing: ('p'|'q', +-2).
    """
    im_a, im_b = w_a.imag, w_b.imag
    if im_a == 0.0 or im_b == 0.0:
        if w_a.real < 0 or w_a.real > 1 or w_b.real < 0 or w_b.real > 1:
            raise PathDegenerate("sample point exactly on a cut")
        return []
    if (im_a > 0) == (im_b > 0):
        return []
    lo, hi = 0.0, 1.0
    sign_a = im_a > 0
    while hi - lo > _BISECT_TOL:
        mid = 0.5 * (lo + hi)
        im_mid = f(mid).imag
        if im_mid == 0.0:
            break
        if (im_mid > 0) == sign_a:
            lo = mid
        else:
            hi = mid
    x_cross = f(0.5 * (lo + hi)).real
    if abs(x_cross) <= _ENDPOINT_MARGIN or abs(x_cross - 1.0) <= _ENDPOINT_MARGIN:
        raise PathDegenerate(f"crossing at {x_cross}, too close to a cut endpoint")
    step = 2 if im_a > 0 else -2  # downward crossing increments
    if x_cross < 0.0:
        return [("p", step)]
    if x_cross > 1.0:
        return [("q", step)]
    return []  # passed between the cuts


def _advance(point_a, point_b, branches: list[list[int]], depth: int = 0):
    """Process one joint-space segment, refining until each coordinate's
    chord is small enough to isolate crossings, then update branches."""
    ca = coords(*point_a)
    cb = coords(*point_b)
    for w in ca:
        _check_sample(w)
    needs_split = False
    for wa, wb in zip(ca, cb):
        scale = 0.08 * (1.0 + min(abs(wa), abs(wb)))
        if abs(wb - wa) > scale:
            needs_split = True
            break
    if needs_split and depth < 40:
        mid = (0.5 * (point_a[0] + point_b[0]), 0.5 * (point_a[1] + point_b[1]))
        _advance(point_a, mid, branches, depth + 1)
        _advance(mid, point_b, branches, depth + 1)
        return
    d0 = point_b[0] - point_a[0]
    d1 = point_b[1] - point_a[1]
    for i, (wa, wb) in enumerate(zip(ca, cb)):
        if wa == wb:
            continue

        def f(t, i=i):
            return coords(point_a[0] + t * d0, point_a[1] + t * d1)[i]

        for kind, step in _segment_crossings(f, wa, wb):
            if kind == "p":
                branches[i][0] += step
            else:
                branches[i][1] += step


def lift_path(path: ParamPath, start: LiftedFiveTuple,
              tol: Tolerances = DEFAULT_TOL) -> LiftedFiveTuple:
    """Transport branch integers along the path from the given lift."""
    sx0, sx1 = path.start
    bx0, bx1 = start.base
    if abs(sx0 - bx0) > tol.cmp or abs(sx1 - bx1) > tol.cmp:
        raise ValueError("start lift does not lie over the path's start")
    branches = [[pt.p, pt.q] for pt in start.points]
    for a, b in zip(path.vertices, path.vertices[1:]):
        _advance(a, b, branches)
    end = path.end
    return LiftedFiveTuple(
        end, tuple(CoveringPoint(z, pq[0], pq[1])
                   for z, pq in zip(coords(*end), branches)))


# ---------------------------------------------------------------------------
# loop construction


def _loop_vertices(base: complex, center: complex, ccw_turns: int,
                   avoid: tuple[complex, ...], ngon: int = 64) -> list[complex]:
    """Closed circuit from ``base``: radial spoke to a small circle around
    ``center``, the required number of turns, and the spoke back.

    The circle radius is half the distance to the nearest other special
    point, so the turning part clears everything by construction; the spoke
    is rotated away from any special point it would pass near.
    """
    if ccw_turns == 0:
        return [base]
    others = [s for s in avoid if abs(s - center) > 1e-12]
    radius = 0.5 * min(abs(s - center) for s in others)
    radius = min(radius, 0.9 * abs(base - center))
    theta0 = cmath.phase(base - center)
    margin = 0.05 * radius

    def spoke_clear(theta: float) -> bool:
        entry = center + radius * cmath.exp(1j * theta)
        seg_a, seg_b = base, entry
        d = seg_b - seg_a
        L2 = abs(d) ** 2
        for s in others:
            t = max(0.0, min(1.0, ((s - seg_a) * d.conjugate()).real / L2))
            if abs(seg_a + t * d - s) < margin:
                return False
        return True

    theta = theta0
    for _ in range(32):
        if spoke_clear(theta):
            break
        theta += 0.3
    entry = center + radius * cmath.exp(1j * theta)

    pts = [base, entry]
    total = abs(ccw_turns) * ngon
    direction = 1.0 if ccw_turns > 0 else -1.0
    for k in range(1, total + 1):
        ang = theta + direction * 2.0 * math.pi * k / ngon
        pts.append(center + radius * cmath.exp(1j * ang))
    pts.append(base)
    return pts


def winding_loop(base: tuple[complex, complex], coord: int, center: complex,
                 ccw_turns: int, ngon: int = 64) -> ParamPath:
    """Loop moving one of the two parameters around a special point,
    the other parameter held fixed.  ``ccw_turns`` is signed."""
    x0, x1 = base
    if coord == 0:
        avoid = (0.0, 1.0, x1)
        verts = [(z, x1) for z in _loop_vertices(x0, center, ccw_turns, avoid, ngon)]
    elif coord == 1:
        avoid = (0.0, 1.0, x0)
        verts = [(x0, z) for z in _loop_vertices(x1, center, ccw_turns, avoid, ngon)]
    else:
        raise ValueError("coord must be 0 or 1")
    return ParamPath(tuple(verts))


DEFAULT_BASE_SEARCH_GRID = (
    [x / 4.0 for x in range(-8, 9)],  # real parts
    [y / 4.0 for y in range(1, 9)],   # imaginary parts (upper half plane)
)


def find_positive_base() -> tuple[complex, complex]:
    """Search a small grid for a base (x0, x1) whose five coordinates all
    have positive imaginary part, with margin at least 0.25 from the real
    axis and from 0 and 1.  The first grid point at the best margin is
    returned (deterministically (0.25+0.5j, 0.5+1.5j) on the default grid)."""
    res, ims = DEFAULT_BASE_SEARCH_GRID
    best: tuple[float, complex, complex] | None = None
    for ar in res:
        for ai in ims:
            for br in res:
                for bi in ims:
                    x, y = complex(ar, ai), complex(br, bi)
                    if min(abs(x), abs(x - 1), abs(y), abs(y - 1),
                           abs(x - y)) < 0.3:
                        continue
                    cs = coords(x, y)
                    margin = min(min(c.imag for c in cs),
                                 min(abs(c) for c in cs),
                                 min(abs(c - 1) for c in cs))
                    if margin <= 0:
                        continue
                    if best is None or margin > best[0]:
                        best = (margin, x, y)
    if best is None or best[0] < 0.25:
        raise PathDegenerate("no base point with margin 0.25")
    return best[1], best[2]


def composite_winding_path(base: tuple[complex, complex], p0: int, q0: int,
                           r: int, p1: int, q1: int) -> ParamPath:
    """The standard composite loop: x0 winds p0 times counterclockwise
    around 0, q0 times clockwise around 1, r times clockwise around x1;
    then x1 winds p1 times counterclockwise around 0 and q1 times
    clockwise around 1."""
    x0, x1 = base
    path = ParamPath(((x0, x1),))
    for coord, center, ccw in (
        (0, 0.0, p0), (0, 1.0, -q0), (0, x1, -r),
        (1, 0.0, p1), (1, 1.0, -q1),
    ):
        if ccw:
            path = path.concat(winding_loop(base, coord, center, ccw))
    return path


def expected_endpoint_branches(p0: int, q0: int, r: int, p1: int,
                               q1: int) -> tuple[tuple[int, int], ...]:
    """Closed-form branch pattern at the end of the composite loop."""
    return (
        (2 * p0, 2 * q0),
        (2 * p1, 2 * q1),
        (-2 * p0 + 2 * p1, 2 * p0 + 2 * r),
        (-2 * p0 - 2 * q0 + 2 * p1 + 2 * q1, 2 * p0 - 2 * q1 + 2 * r),
        (-2 * q0 + 2 * q1, -2 * q1 + 2 * r),
    )


def verify_pq_pattern(p0: int, q0: int, r: int, p1: int, q1: int,
                      base: tuple[complex, complex] | None = None
                      ) -> tuple[bool, dict]:
    """Lift the composite winding loop and compare the endpoint branches to
    the closed form, by exact integer equality.  Returns (ok, details)."""
    if base is None:
        base = find_positive_base()
    path = composite_winding_path(base, p0, q0, r, p1, q1)
    lifted = lift_path(path, start_lift(*base))
    got = lifted.branches()
    want = expected_endpoint_branches(p0, q0, r, p1, q1)
    details = {
        "base": base,
        "got": got,
        "expected": want,
        "five_term_sum": five_term_sum_along(lifted),
    }
    return got == want, details


def five_term_sum_along(lift: LiftedFiveTuple) -> complex:
    """Alternating lifted-Rogers sum over the five points.  Vanishes on
    every lift reachable from the all-zero base lifts; a branch integer off
    by 2 shows up as a pi-sized multiple of a logarithm."""
    return sum((-1) ** i * lhat(pt) for i, pt in enumerate(lift.points))
