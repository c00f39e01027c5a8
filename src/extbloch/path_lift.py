"""Branch lifting of five-tuple paths over the doubly-cut plane.

A path moves the two free parameters (x0, x1); the five face cross-ratios
move with them.  A covering point (z; p, q) stands for the logarithms
Log z + p*pi*i and Log 1/(1-z) + q*pi*i, so carrying it along a path means
continuing those two logarithms: the branch integers are the offsets of
the continued logarithms from the principal ones.  With ``plog``'s
convention (Arg in (-pi, pi], real points on a cut read from above),
crossing (-inf, 0) downward raises p by 2 and crossing (1, inf) downward
raises q by 2.  That keeps the lifted Rogers value continuous along the
lift, and it reproduces the closed-form endpoint pattern of composite
winding loops, which ``verify_pq_pattern`` checks by exact integer
comparison.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

from . import config
from .covering import CoveringPoint, coords
from .dilog import PI, lhat, plog
from .errors import PathDegenerate

NGON = 64  # vertices per turn of a winding loop's circle
FIVE_TERM_TOL = 1e-8  # |five-term sum| of a lift that lies on the relation


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
            if abs(pt.z - val) > config.CMP * (1.0 + abs(val)):
                raise ValueError("points do not lie over the base five-tuple")

    def branches(self) -> tuple[tuple[int, int], ...]:
        return tuple((pt.p, pt.q) for pt in self.points)


def start_lift(x0: complex, x1: complex) -> LiftedFiveTuple:
    """The all-zero-branch lift over (x0, x1)."""
    return LiftedFiveTuple(
        (x0, x1), tuple(CoveringPoint(z, 0, 0) for z in coords(x0, x1)))


def _lag(a: complex, b: complex) -> int:
    """The even integer by which the principal Log b falls behind Log a
    continued over a step from a to b that does not wind around 0."""
    return round((plog(b / a) - plog(b) + plog(a)).imag / PI)


def _advance(point_a, point_b, branches: list[list[int]], depth: int = 0):
    """Carry the branch integers over one joint-space segment.

    The segment is halved until every coordinate's chord is shorter than
    0.8 of its start's distance to 0 and to 1, so that no step winds
    around either point; a segment that still needs halving at depth 40
    is degenerate.  Each step
    then adds to p the lag of Log z and to q that of Log 1/(1-z); a step
    within one open half plane adds nothing.
    """
    ca, cb = coords(*point_a), coords(*point_b)
    if any(abs(wb - wa) >= 0.8 * min(abs(wa), abs(wa - 1.0))
           for wa, wb in zip(ca, cb)):
        if depth == 40:
            raise PathDegenerate(
                f"segment {point_a} -> {point_b} meets 0 or 1")
        mid = (0.5 * (point_a[0] + point_b[0]), 0.5 * (point_a[1] + point_b[1]))
        _advance(point_a, mid, branches, depth + 1)
        _advance(mid, point_b, branches, depth + 1)
        return
    for pq, wa, wb in zip(branches, ca, cb):
        if abs(wb) <= config.ZERO or abs(wb - 1.0) <= config.ZERO:
            raise PathDegenerate(f"coordinate hits {wb}")
        if wa.imag * wb.imag > 0.0:
            continue
        pq[0] += _lag(wa, wb)
        pq[1] += _lag(1.0 / (1.0 - wa), 1.0 / (1.0 - wb))


def lift_path(path: ParamPath, start: LiftedFiveTuple) -> LiftedFiveTuple:
    """Transport branch integers along the path from the given lift: at
    the end, each coordinate's Log z + p*pi*i and Log 1/(1-z) + q*pi*i are
    the start's logarithms continued along the path."""
    sx0, sx1 = path.start
    bx0, bx1 = start.base
    if abs(sx0 - bx0) > config.CMP or abs(sx1 - bx1) > config.CMP:
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
                   avoid: tuple[complex, ...]) -> list[complex]:
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
    total = abs(ccw_turns) * NGON
    direction = 1.0 if ccw_turns > 0 else -1.0
    for k in range(1, total + 1):
        ang = theta + direction * 2.0 * math.pi * k / NGON
        pts.append(center + radius * cmath.exp(1j * ang))
    pts.append(base)
    return pts


def winding_loop(base: tuple[complex, complex], coord: int, center: complex,
                 ccw_turns: int) -> ParamPath:
    """Loop moving one of the two parameters around a special point,
    the other parameter held fixed.  ``ccw_turns`` is signed."""
    x0, x1 = base
    if coord == 0:
        avoid = (0.0, 1.0, x1)
        verts = [(z, x1) for z in _loop_vertices(x0, center, ccw_turns, avoid)]
    elif coord == 1:
        avoid = (0.0, 1.0, x0)
        verts = [(x0, z) for z in _loop_vertices(x1, center, ccw_turns, avoid)]
    else:
        raise ValueError("coord must be 0 or 1")
    return ParamPath(tuple(verts))


def find_positive_base() -> tuple[complex, complex]:
    """The base (x0, x1) = (0.25+0.5j, 0.5+1.5j).  Its five coordinates
    have imaginary part, modulus and distance to 1 at least 0.35: the best
    such margin on the quarter-step grid of the upper half plane."""
    return 0.25 + 0.5j, 0.5 + 1.5j


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
    the closed form, by exact integer equality.  Returns (ok, details); ok
    also needs the lift's five-term sum within ``FIVE_TERM_TOL``, since off
    the positive region the all-zero start lift breaks the relation and
    matching branches alone prove nothing."""
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
    ok = got == want and abs(details["five_term_sum"]) < FIVE_TERM_TOL
    return ok, details


def five_term_sum_along(lift: LiftedFiveTuple) -> complex:
    """Alternating lifted-Rogers sum over the five points.  Vanishes on
    every lift reachable from the all-zero base lifts; a branch integer off
    by 2 shows up as a pi-sized multiple of a logarithm."""
    return sum((-1) ** i * lhat(pt) for i, pt in enumerate(lift.points))
