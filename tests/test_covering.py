import cmath
import math
import re
from fractions import Fraction

import pytest

from extbloch import covering
from extbloch.core import ProjVector
from extbloch.covering import (CoveringPoint, FlatteningTriple, WedgeElement,
                               _lhat_sums, check_flattening_condition,
                               chi_hat, five_tuple,
                               from_covering_point, mu, nu_hat,
                               to_covering_point)
from extbloch.dilog import (_SERIES_MAX, PI, TWO_PI_SQ, _log1m, lhat,
                            li2, lifted_rogers, plog, rogers, rogers_real,
                            vol)
from extbloch.errors import (ChiAtZero, DegenerateConfig, DegenerateFT,
                             InvalidFlattening, LogOfZero, NotEven, OnCut,
                             ZAtZeroOrOne)
from extbloch.pipeline import _log_params, sigma_hat

from conftest import bits, random_complex, random_config
from oracles import dict_difference, mu_boundary_symbolic, nu_sigma_symbolic


def _random_point(rng):
    while True:
        z = random_complex(rng, -3, 3)
        if abs(z) > 0.1 and abs(z - 1) > 0.1:
            return z


def test_covering_point_invariants():
    with pytest.raises(ValueError):
        CoveringPoint(0.0, 0, 0)
    with pytest.raises(ValueError):
        CoveringPoint(2.0, 1, 0)


def test_non_finite_input_is_refused_at_construction():
    # a triple with a NaN or infinite part fails its sum check, one whose
    # e^{w0} overflows is refused, and a covering point names a non-finite
    # z: all CcsErrors.  abs of a NaN raises OverflowError in CPython 3.11
    # while errno holds an earlier ERANGE, as after the overflow here; the
    # triple is then refused as an overflow
    nan, inf = math.nan, math.inf
    refused = "^log-parameters (must sum to zero|overflow)$"
    for w in ((nan, 0, 0), (inf, -inf, 0), (-inf, 0, 0), (0, 0, 1j * inf)):
        with pytest.raises(InvalidFlattening, match=refused):
            FlatteningTriple(*w)
    with pytest.raises(InvalidFlattening, match="^log-parameters overflow$"):
        FlatteningTriple(1000, -1000, 0)
    with pytest.raises(InvalidFlattening, match=refused):
        FlatteningTriple(nan, 0, 0)
    for z in (complex(math.nan, 0), complex(math.inf, 1)):
        with pytest.raises(ZAtZeroOrOne, match=r"z = .* is not finite"):
            CoveringPoint(z, 0, 0)


def test_non_finite_z_is_refused_by_the_value_functions():
    # li2, vol and lifted_rogers (so rogers and lhat) refuse a non-finite z
    # as CoveringPoint does, and so does rogers_real (where NaN and -inf
    # once recursed without end, and +inf gave pi^2/6); a duck-typed
    # triple with a NaN w0 fails _cover's sum check (or, while errno holds
    # an earlier ERANGE, its overflow check, as in the test above)
    from types import SimpleNamespace
    nan, inf = math.nan, math.inf
    funcs = (li2, vol, rogers, lambda z: lifted_rogers(z, 2, 0),
             lambda z: lhat(SimpleNamespace(z=z, p=0, q=-2)))
    for z in (complex(nan, 0), complex(inf, 1), complex(1, -inf),
              complex(nan, 1), inf):
        for f in funcs:
            with pytest.raises(ZAtZeroOrOne, match=r"^z = .* is not finite$"):
                f(z)
    for x in (nan, inf, -inf):
        with pytest.raises(ZAtZeroOrOne, match=r"^z = .* is not finite$"):
            rogers_real(x)
    raw = SimpleNamespace(w0=complex(nan, 0), w1=0j, w2=0j)
    with pytest.raises(InvalidFlattening,
                       match="^log-parameters (must sum to zero|overflow)$"):
        to_covering_point(raw)


def test_triple_to_point_examples():
    t = FlatteningTriple.from_w01(math.log(2), 1j * PI)
    assert to_covering_point(t) == CoveringPoint(2 + 0j, 0, 0)
    t2 = FlatteningTriple.from_w01(math.log(2) + 2j * PI, 1j * PI)
    assert to_covering_point(t2) == CoveringPoint(2 + 0j, 2, 0)


def test_point_to_triple_examples():
    t = from_covering_point(CoveringPoint(2.0, 0, 0))
    assert abs(t.w0 - math.log(2)) < 1e-15
    assert abs(t.w1 - 1j * PI) < 1e-15
    assert abs(t.w2 + math.log(2) + 1j * PI) < 1e-15
    t2 = from_covering_point(CoveringPoint(0.5, 2, -2))
    assert abs(t2.w0 - (math.log(0.5) + 2j * PI)) < 1e-15
    assert abs(t2.w1 - (math.log(2) - 2j * PI)) < 1e-15
    assert abs(t2.w2) < 1e-15


def test_round_trip(rng):
    for _ in range(1000):
        z = _random_point(rng)
        p = 2 * int(rng.integers(-3, 4))
        q = 2 * int(rng.integers(-3, 4))
        pt = CoveringPoint(z, p, q)
        back = to_covering_point(from_covering_point(pt))
        assert back.p == p and back.q == q
        assert abs(back.z - z) <= 1e-9 * (1 + abs(z))


def test_invalid_flattening_rejected_at_construction():
    # w1 shifted by an odd multiple of i pi is not a log of 1/(1 - e^{w0})
    from extbloch.errors import InvalidFlattening
    with pytest.raises(InvalidFlattening):
        FlatteningTriple.from_w01(math.log(2), 2j * PI)


def test_not_even_on_raw_log_parameters(monkeypatch):
    # raw duck-typed parameters meet the same checks as a triple: an odd q
    # or a p off by 0.5i with w2 = 0 fails the sum check, and with
    # w2 = -w0 - w1 it fails the e^{w1} check, before any branch integer
    from types import SimpleNamespace
    z = 0.3 + 0.4j
    exp_text = "w1 is not a logarithm of 1/(1 - e^{w0})"
    for w0, w1 in ((plog(z), plog(1 / (1 - z)) + 1j * PI),
                   (plog(z) + 0.5j, plog(1 / (1 - z)))):
        for w2, text in ((0j, "log-parameters must sum to zero"),
                         (-w0 - w1, exp_text)):
            with pytest.raises(InvalidFlattening,
                               match=f"^{re.escape(text)}$"):
                to_covering_point(SimpleNamespace(w0=w0, w1=w1, w2=w2))
    # NotEven is reached once the branch unit is scaled: with covering.PI
    # doubled, p = 2 reads as 1
    t = from_covering_point(CoveringPoint(z, 2, 0))
    monkeypatch.setattr(covering, "PI", 2 * PI)
    with pytest.raises(NotEven, match="^p = 1 is odd$"):
        to_covering_point(SimpleNamespace(w0=t.w0, w1=t.w1, w2=t.w2))


def _term_logs(w0, w1):
    # Log dets (01), (02), (03), (12), (13), (23) whose sigma_hat
    # log-parameters are w0, w1 and -w1 - w0, bit for bit but for the
    # sign of a zero part
    return [-w1, 0j, w0, 0j, 0j, 0j]


def _fused(logs):
    # the trial path's per-term body on one term, coefficient 1
    return _lhat_sums([(1, 0, 1, 2, 3, 4, 5)], logs)


def _object_path(logs):
    # the same term through FlatteningTriple, to_covering_point, lhat and
    # vol, summed as _lhat_sums sums
    pt = to_covering_point(FlatteningTriple(*_log_params(*logs)))
    value = lhat(pt)
    return math.fsum([value.real]), math.fsum([value.imag]), \
        math.fsum([vol(pt.z)])


def _li2_branch(z):
    # which of li2's three series the fused body sums for z
    log_z, l1 = plog(z), _log1m(z)
    return ("series" if abs(l1) <= _SERIES_MAX
            else "reflection" if abs(log_z) <= _SERIES_MAX else "inversion")


def test_point_value_bit_equal_to_separate_calls():
    # the fused per-term body gives the sums of lhat and vol of the
    # covering point bit for bit, on each piece of code it writes inline:
    # li2's series in -Log(1 - z), its reflection in -Log z and its
    # inversion (z = 3 - 5i, 40 + 1e-3i); z whose imaginary part snaps by
    # REAL_TOL (e^{w0} off the real axis by fp noise, p = 2); real z in
    # (0, 1) and below 0 (vol 0); and an exact -0.0 imaginary part, which
    # Log z drops and Log(1 - z) keeps
    branches, snapped = set(), 0
    for z in (0.3 + 0.4j, -2.0 + 0.1j, 3.0 - 5.0j, 0.5, -1.5,
              cmath.exp(1j * PI / 3), 0.999 + 1e-9j, 40.0 + 1e-3j):
        for p, q in ((0, 0), (2, 0), (0, -2), (4, 6)):
            t = from_covering_point(CoveringPoint(z, p, q))
            logs = _term_logs(t.w0, t.w1)
            pt = to_covering_point(FlatteningTriple(*_log_params(*logs)))
            assert (pt.p, pt.q) == (p, q)
            assert bits(*_fused(logs)) == bits(*_object_path(logs))
            branches.add(_li2_branch(pt.z))
            snapped += pt.z.imag == 0.0 != cmath.exp(t.w0).imag
    assert branches == {"series", "reflection", "inversion"} and snapped
    for x in (0.5, 0.25):  # e^{w0} = x - 0.0i, exactly
        logs = [complex(math.log(1 - x), 0.0), 0j, complex(math.log(x), -0.0),
                complex(0.0, -0.0), 0j, 0j]
        pt = to_covering_point(FlatteningTriple(*_log_params(*logs)))
        assert pt.z == x and math.copysign(1.0, pt.z.imag) == -1.0
        assert bits(*_fused(logs)) == bits(*_object_path(logs))


def _raised(f, *args):
    with pytest.raises(Exception) as info:
        f(*args)
    return type(info.value), str(info.value)


def test_point_value_mutations_fail_as_the_triple_path_does(monkeypatch):
    # each broken term raises, in the fused body, the class and text of the
    # FlatteningTriple, to_covering_point, CoveringPoint and lhat path
    z = 0.3 + 0.4j
    w0, w1 = plog(z) + 2j * PI, plog(1 / (1 - z)) - 2j * PI
    near_1 = math.log(1 - 5e-14) + 0j  # e^{w0} within 1e-13 of 1
    w1_near = plog(1 / (1 - cmath.exp(near_1)))
    on_cut = math.log(3) + 1e-14j  # e^{w0} snaps to the real 3 > 1
    at_1 = plog(1 + 5e-14j)  # e^{w0} snaps to 1, where 1/(1 - z) is infinite
    w1_at_1 = plog(1 / -5e-14j)
    big = 1e10 + 0j  # (03) + (12) and (01) + (23) round off w0 and w2
    at_2 = from_covering_point(CoveringPoint(2.0, 0, 2))  # real z > 1
    cases = [
        # w1 shifted by pi i: e^{w1} changes sign
        (_term_logs(w0, w1 + 1j * PI), InvalidFlattening, "w1 is not"),
        # w0 shifted by pi i would carry an odd p, but z = e^{w0} turns to -z,
        # so e^{w1} = 1/(1 - z) fails first
        (_term_logs(w0 + 1j * PI, w1), InvalidFlattening, "w1 is not"),
        (_term_logs(w0, w1 + 1e-3), InvalidFlattening, "w1 is not"),
        ([big, big, big, w0, 0j, -w1], InvalidFlattening, "sum to zero"),
        # a CcsError, so ``ccs eval`` reports it with exit 2, and a ValueError
        (_term_logs(near_1, w1_near), ZAtZeroOrOne, "avoid 0 and 1"),
        (_term_logs(on_cut, plog(-0.5)), OnCut, "on the cut"),
        # lhat's OnCut, after the branch checks (q = 2 against the upper
        # side's Log(1/(1 - z)))
        (_term_logs(at_2.w0, at_2.w1), OnCut, "on the cut"),
        (_term_logs(at_1, w1_at_1), InvalidFlattening,
         "z = (1+0j): no logarithm of 1/(1 - z)"),
        # e^{w0} below ZERO, and e^{w1} = 1 = 1/(1 - z) within EXP_TOL
        (_term_logs(-30 + 0j, 0j), LogOfZero, "log of"),
        # finite Logs whose w0 (then w1) is 800: e^{w} overflows
        ([0j, 0j, 400 + 0j, 400 + 0j, 0j, 0j], InvalidFlattening,
         "overflow"),
        ([0j, 400 + 0j, 0j, 0j, 400 + 0j, 0j], InvalidFlattening,
         "overflow"),
        # a NaN Log fails the sum check, or, while errno holds the ERANGE
        # of the overflow above, abs raises OverflowError
        (_term_logs(complex(math.nan, 0.0), w1), InvalidFlattening,
         "log-parameters "),
    ]
    for logs, cls, text in cases:
        old = _raised(_object_path, logs)
        assert old[0] is cls and text in old[1], old
        assert _raised(_fused, logs) == old
        # a triple refuses at construction all that its covering point
        # refuses; only lhat's OnCut comes later
        if cls is not OnCut:
            assert _raised(FlatteningTriple, *_log_params(*logs)) == old
    # an odd or non-integral branch integer follows from no six Logs that
    # pass the e^{w1} check, so the branch unit is scaled (by 2 and by 0.8)
    # to give one; both paths read covering.PI
    for scale, p, q, text in ((2.0, 2, 0, "p = 1 is odd"),
                              (2.0, 0, 2, "q = 1 is odd"),
                              (0.8, 2, 0, "p = .* is not an integer"),
                              (0.8, 0, 2, "q = .* is not an integer")):
        t = from_covering_point(CoveringPoint(z, p, q))
        logs = _term_logs(t.w0, t.w1)
        with monkeypatch.context() as m:
            m.setattr(covering, "PI", PI * scale)
            old = _raised(_object_path, logs)
            assert old[0] is NotEven and re.fullmatch(text, old[1]), old
            assert _raised(_fused, logs) == old


def test_five_tuple_examples():
    vals = five_tuple(0.5, 0.25)
    expect = (0.5, 0.25, 0.5, 1 / 3, 2 / 3)
    assert all(abs(a - b) < 1e-12 for a, b in zip(vals, expect))
    vals = five_tuple(2.0, 3.0)
    expect = (2.0, 3.0, 1.5, 0.75, 0.5)
    assert all(abs(a - b) < 1e-12 for a, b in zip(vals, expect))
    with pytest.raises(DegenerateFT):
        five_tuple(0.5, 0.5)


def test_flattening_condition_on_faces(rng):
    for _ in range(50):
        cfg = random_config(rng, 5)
        faces = [sigma_hat(cfg.face(i)) for i in range(5)]
        rep = check_flattening_condition(faces)
        assert rep.max_residual < 1e-8
        assert rep.exact is not None and all(rep.exact)


def test_flattening_condition_detects_perturbation(rng):
    cfg = random_config(rng, 5)
    faces = [sigma_hat(cfg.face(i)) for i in range(5)]
    bad = FlatteningTriple.from_w01(faces[0].w0 + 2j * PI, faces[0].w1)
    rep = check_flattening_condition([bad] + faces[1:])
    assert rep.max_residual > 2 * PI - 1e-6


def test_principal_flattenings_of_real_tuple_satisfy_condition():
    # all five coordinates in (0, 1): principal logs flatten every face
    vals = five_tuple(0.5, 0.25)
    triples = [from_covering_point(CoveringPoint(v, 0, 0)) for v in vals]
    rep = check_flattening_condition(triples)
    assert rep.max_residual < 1e-12


def test_chi_hat_identity_mod_one():
    for m in range(2, 13):
        for k in range(1, m):
            r = Fraction(k, m)
            e = chi_hat(r)
            val = -sum(c * lhat(pt) for c, pt in e) / TWO_PI_SQ
            frac = val.real - math.floor(val.real)
            dist = min(abs(frac - float(r)), 1 - abs(frac - float(r)))
            assert dist < 1e-10
            assert abs(val.imag) < 1e-12


def test_chi_hat_rejects_zero():
    with pytest.raises(ChiAtZero):
        chi_hat(Fraction(0, 1))


def test_wedge_antisymmetry_and_cancellation():
    a, b = 1.0 + 0j, 2.0 + 0j
    w = WedgeElement([(1, a, b), (1, b, a)])
    assert w.is_zero()
    w2 = WedgeElement([(1, a, a)])
    assert w2.is_zero()


def test_nu_hat_branch_bump_is_two_atom_wedge():
    z = 0.3 + 0.7j
    e1 = nu_hat([(1, from_covering_point(CoveringPoint(z, 0, 0)))])
    e2 = nu_hat([(1, from_covering_point(CoveringPoint(z, 0, 2)))])
    diff = e1 - e2
    assert len(diff.terms) == 1
    coeff, a, b = diff.terms[0]
    vals = sorted((a, b), key=lambda w: abs(w - 1j * PI))
    assert abs(vals[0] - plog(z)) < 1e-12 or abs(vals[1] - plog(z)) < 1e-12


def test_nu_sigma_of_boundary_cancels_exactly(rng):
    for _ in range(25):
        cfg = random_config(rng, 5)
        triples = [((-1) ** i, sigma_hat(cfg.face(i))) for i in range(5)]
        w = nu_hat(triples)
        assert w.is_zero()


def test_nu_hat_of_triples_without_a_ledger():
    # a bare triple gives the one wedge w0 ^ w1: it cancels against the
    # same triple with the opposite coefficient, and alone it does not
    t = from_covering_point(CoveringPoint(0.3 + 0.7j, 0, 2))
    bare = FlatteningTriple(t.w0, t.w1, t.w2)
    assert bare.ledger is None
    assert nu_hat([(1, bare), (-1, bare)]).is_zero()
    alone = nu_hat([(1, bare)])
    assert not alone.is_zero() and alone.terms == ((1, t.w0, t.w1),)


@pytest.mark.parametrize("vectors, pair", [
    ((ProjVector(1, 0), ProjVector(2, 0), ProjVector(0, 1)), "v0, v1"),
    ((ProjVector(1, 1), ProjVector(1, 0), ProjVector(-3j, -3j)), "v0, v2"),
    ((ProjVector(1, 0), ProjVector(0, 1), ProjVector(0, 0.5)), "v1, v2"),
])
def test_mu_of_parallel_vectors_names_the_pair(vectors, pair):
    with pytest.raises(DegenerateConfig, match=rf"^det\({pair}\) vanishes$"):
        mu(*vectors)


def test_mu_example_unit_determinants():
    w = mu(ProjVector(1, 0), ProjVector(0, 1), ProjVector(1, 1))
    # all three determinants are 1, all atoms equal: everything cancels
    assert w.is_zero()


def test_wedge_square_against_symbolic_oracle():
    # the identity nu(sigma(v)) = mu(dv) holds at the formal-symbol level
    assert dict_difference(nu_sigma_symbolic(), mu_boundary_symbolic()) == {}


def test_wedge_square_numeric(rng):
    for _ in range(50):
        cfg = random_config(rng, 4)
        lhs = nu_hat([(1, sigma_hat(cfg))])
        rhs = (mu(cfg[1], cfg[2], cfg[3]) - mu(cfg[0], cfg[2], cfg[3])
               + mu(cfg[0], cfg[1], cfg[3]) - mu(cfg[0], cfg[1], cfg[2]))
        assert (lhs - rhs).is_zero()
