import pytest

from extbloch.covering import CoveringPoint
from extbloch.errors import PathDegenerate
from extbloch.path_lift import (LiftedFiveTuple, ParamPath, coords,
                                composite_winding_path,
                                expected_endpoint_branches, find_positive_base,
                                five_term_sum_along, lift_path, start_lift,
                                verify_pq_pattern, winding_loop)

BASE = find_positive_base()


def test_base_point_has_positive_imaginary_parts():
    # the margin from the real axis, 0 and 1 is 0.35
    for c in coords(*BASE):
        assert min(c.imag, abs(c), abs(c - 1)) >= 0.25


def test_constant_path():
    s = start_lift(*BASE)
    out = lift_path(ParamPath((BASE,)), s)
    assert out.branches() == s.branches()


def test_single_ccw_loop_matches_reference_pattern():
    s = start_lift(*BASE)
    out = lift_path(winding_loop(BASE, 0, 0.0, 1), s)
    assert out.branches() == ((2, 0), (0, 0), (-2, 2), (-2, 2), (0, 0))


def test_loop_then_reverse_is_identity():
    s = start_lift(*BASE)
    loop = winding_loop(BASE, 0, 0.0, 1)
    out = lift_path(loop.concat(loop.reversed()), s)
    assert out.branches() == s.branches()


def test_lift_additivity(rng):
    s = start_lift(*BASE)
    for _ in range(50):
        pick1 = (int(rng.integers(0, 2)), rng.choice([0.0, 1.0]),
                 int(rng.integers(-2, 3)))
        pick2 = (int(rng.integers(0, 2)), rng.choice([0.0, 1.0]),
                 int(rng.integers(-2, 3)))
        if pick1[2] == 0 or pick2[2] == 0:
            continue
        p1 = winding_loop(BASE, pick1[0], complex(pick1[1]), pick1[2])
        p2 = winding_loop(BASE, pick2[0], complex(pick2[1]), pick2[2])
        combined = lift_path(p1.concat(p2), s)
        step1 = lift_path(p1, s)
        step2 = lift_path(p2, step1)
        assert combined.branches() == step2.branches()


def test_refinement_invariance():
    # same geometric path, doubled vertex density: identical integer lift
    s = start_lift(*BASE)
    loop = winding_loop(BASE, 0, 0.0, 1, ngon=64)
    fine = winding_loop(BASE, 0, 0.0, 1, ngon=128)
    assert lift_path(loop, s).branches() == lift_path(fine, s).branches()


def test_start_must_lie_over_path():
    s = start_lift(*BASE)
    other = (BASE[0] + 0.5, BASE[1])
    with pytest.raises(ValueError):
        lift_path(ParamPath((other,)), s)


def test_verify_pq_pattern_zero_windings():
    ok, details = verify_pq_pattern(0, 0, 0, 0, 0, base=BASE)
    assert ok
    assert details["got"] == ((0, 0),) * 5


def test_verify_pq_pattern_reference_row():
    ok, details = verify_pq_pattern(1, 0, 0, 0, 0, base=BASE)
    assert ok
    assert details["got"] == ((2, 0), (0, 0), (-2, 2), (-2, 2), (0, 0))


def test_verify_pq_pattern_random(rng):
    for _ in range(12):
        vec = tuple(int(v) for v in rng.integers(-3, 4, 5))
        ok, details = verify_pq_pattern(*vec, base=BASE)
        assert ok, (vec, details)
        assert abs(details["five_term_sum"]) < 1e-8


def test_five_term_sum_vanishes_at_base_and_shifts_off_component():
    s = start_lift(*BASE)
    assert abs(five_term_sum_along(s)) < 1e-9
    # bumping one branch integer moves off the relation locus
    pts = list(s.points)
    pts[2] = CoveringPoint(pts[2].z, pts[2].p, pts[2].q + 2)
    shifted = LiftedFiveTuple(s.base, tuple(pts))
    assert abs(five_term_sum_along(shifted)) > 0.1


def _x0_loop(*x0_vertices):
    x0, x1 = BASE
    return ParamPath(tuple((z, x1) for z in (x0, *x0_vertices, x0)))


@pytest.mark.parametrize("x0_vertices, windings", [
    # a vertex exactly on (-inf, 0)
    ((-1, -1 - 0.5j, 0.5 - 0.5j), (1, 0, 0, 0, 0)),
    # crossing (-inf, 0) 1e-10 left of 0
    ((-1e-10 + 1.3e-10j, -1e-10 - 0.7e-10j, 0.5 - 0.5j), (1, 0, 0, 0, 0)),
    # clockwise around 1, crossing (1, inf) 1e-10 right of 1
    ((1 + 1e-10 + 1.3e-10j, 1 + 1e-10 - 0.7e-10j, 0.9 - 0.5j, 0.5 + 0.2j),
     (0, 1, 0, 0, 0)),
    # out to the cut and straight back
    ((-1,), (0, 0, 0, 0, 0)),
])
def test_loops_touching_cuts_lift_to_closed_form(x0_vertices, windings):
    out = lift_path(_x0_loop(*x0_vertices), start_lift(*BASE))
    assert out.branches() == expected_endpoint_branches(*windings)
    assert abs(five_term_sum_along(out)) < 1e-8


def test_path_degenerate_on_special_point():
    # a path passing straight through x1 degenerates coordinate 2
    x0, x1 = BASE
    path = ParamPath(((x0, x1), (x1, x1)))
    with pytest.raises(PathDegenerate):
        lift_path(path, start_lift(*BASE))
