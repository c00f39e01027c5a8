import dataclasses
import math
import random
from itertools import combinations

import pytest

from extbloch.core import (GroupElement, ProjVector, det_pair, random_sl2,
                           random_vector, rotation)
from extbloch.chains import (BarChain, HomChain, _Chain, _ConeRepairer,
                             conjugate_chain, complex_conjugate_chain,
                             hom_boundary, inhom_to_hom, near_pairs,
                             repair_with_certificate, sample_generic_v)
from extbloch.covering import (check_flattening_condition, nu_hat,
                               to_covering_point)
from extbloch.dilog import TWO_PI_SQ, lhat, plog, vol
from extbloch.errors import DegenerateConfig, NotACycle, NotVGood, RepairFailed
from extbloch.fixtures import (five_term_boundary, random_boundary_cycle,
                               torsion_cycle)
from extbloch.pipeline import (ConfigTuple, ccs_value, lambda_hat, psi_v,
                               sigma_hat)


def _mod1_dist(a: float, b: float) -> float:
    d = abs((a - b) % 1.0)
    return min(d, 1.0 - d)


def _reference_sums(lam) -> tuple[complex, float]:
    # lhat and vol of every flattened term through the public path, unmerged
    # terms, each sum correctly rounded by math.fsum as in ccs_value
    points = [(coeff, to_covering_point(t)) for coeff, t in lam.triples]
    terms = [(coeff * lhat(pt), coeff * vol(pt.z)) for coeff, pt in points]
    return (complex(math.fsum(lh.real for lh, _ in terms),
                    math.fsum(lh.imag for lh, _ in terms)),
            math.fsum(d for _, d in terms))


def test_config_tuple_rejects_degenerate():
    v = ProjVector(1, 0)
    with pytest.raises(DegenerateConfig):
        ConfigTuple((v, ProjVector(2, 0)))


def test_psi_v_basic(rng):
    g = random_sl2(rng)
    c = HomChain(1, [(1, (rotation(1, 0), g))])
    v = ProjVector(1, 0)
    [(coeff, cfg)] = psi_v(c, v)
    assert coeff == 1
    assert cfg[0].entries() == (1, 0)
    assert abs(cfg[1].v1 - g.a) < 1e-15 and abs(cfg[1].v2 - g.c) < 1e-15


def test_psi_v_boundary_compatibility(rng):
    from extbloch.fixtures import random_good_hom_chain
    c = random_good_hom_chain(rng, 3, 2)
    plain = HomChain(3, c.terms)
    v, _ = __import__("extbloch.chains", fromlist=["sample_generic_v"]
                      ).sample_generic_v(plain, 3)
    lhs = psi_v(hom_boundary(plain), v)
    rhs = []
    for coeff, cfg in psi_v(plain, v):
        for i in range(4):
            rhs.append((coeff * (-1) ** i, cfg.face(i)))
    # compare multisets of (coeff, vector entries)
    def key(item):
        coeff, cfg = item
        return (coeff, tuple((round(w.v1.real, 9), round(w.v1.imag, 9),
                              round(w.v2.real, 9), round(w.v2.imag, 9))
                             for w in cfg.vectors))
    assert sorted(map(key, lhs)) == sorted(map(key, rhs))


def test_psi_v_conjugation_covariance(rng):
    from extbloch.chains import sample_generic_v
    from extbloch.fixtures import random_good_hom_chain
    c = random_good_hom_chain(rng, 3, 2)
    g = random_sl2(rng)
    v, _ = sample_generic_v(c, 5)
    conj_terms = [(coeff, tuple(g @ h @ g.inverse() for h in tup))
                  for coeff, tup in c]
    conj = HomChain(3, conj_terms)
    lhs = psi_v(conj, g.apply(v))
    rhs = psi_v(c, v)
    # the configurations differ by the linear action of g: same flattenings
    for (c1, t1), (c2, t2) in zip(lhs, rhs):
        assert c1 == c2
        p1, p2 = to_covering_point(sigma_hat(t1)), to_covering_point(sigma_hat(t2))
        assert abs(p1.z - p2.z) < 1e-9 * (1 + abs(p2.z))
        assert (p1.p, p1.q) == (p2.p, p2.q)


def test_psi_v_rejects_bad_vector():
    c = inhom_to_hom(torsion_cycle(2))
    with pytest.raises(NotVGood):
        psi_v(c, ProjVector(1, 1))


def test_sigma_hat_reference_configuration():
    cfg = ConfigTuple((ProjVector(1, 0), ProjVector(0, 1),
                       ProjVector(1, 1), ProjVector(1, 2)))
    t = sigma_hat(cfg)
    assert abs(t.w0 - math.log(2)) < 1e-15
    assert abs(t.w1 - 1j * math.pi) < 1e-15
    assert to_covering_point(t) == (__import__("extbloch.covering",
                                    fromlist=["CoveringPoint"])
                                    .CoveringPoint(2 + 0j, 0, 0))


def test_sigma_hat_complex_point():
    z = 0.3 + 0.4j
    cfg = ConfigTuple((ProjVector(1, 0), ProjVector(0, 1),
                       ProjVector(1, 1), ProjVector(1, z)))
    pt = to_covering_point(sigma_hat(cfg))
    assert abs(pt.z - z) < 1e-12 and pt.p == 0 and pt.q == 0


def test_sigma_hat_scaling_moves_within_fiber(rng):
    cfg = ConfigTuple((ProjVector(1, 0), ProjVector(0, 1),
                       ProjVector(1, 1), ProjVector(1, 2)))
    pt0 = to_covering_point(sigma_hat(cfg))
    scaled = ConfigTuple((ProjVector(1, 0), ProjVector(0, 1),
                          ProjVector(1, 1), ProjVector(5, 10)))
    pt1 = to_covering_point(sigma_hat(scaled))
    assert abs(pt0.z - pt1.z) < 1e-12
    assert pt0.p % 2 == 0 and pt1.p % 2 == 0
    assert (pt1.p - pt0.p) % 2 == 0 and (pt1.q - pt0.q) % 2 == 0


def test_lambda_hat_on_boundary_vanishes(rng):
    c = random_boundary_cycle(rng)
    val = _reference_sums(lambda_hat(c, seed=3))[0] / TWO_PI_SQ
    assert _mod1_dist(val.real, 0.0) < 1e-9
    assert abs(val.imag) < 1e-9


def _conj_torsion(n: int, s: float) -> BarChain:
    # torsion_cycle(n) conjugated by the large-entry matrix (s, 0.3; 0, 1/s)
    return conjugate_chain(GroupElement(s, 0.3, 0, 1 / s), torsion_cycle(n))


def test_nu_hat_sees_a_perturbed_atom():
    # the value-keyed oracle cancels on the evaluation's image, and is not
    # vacuous: one ledger atom moved by 1e-3 no longer cancels
    for c in (random_boundary_cycle(5, n_terms=2), torsion_cycle(4),
              torsion_cycle(5), torsion_cycle(6), _conj_torsion(7, 3),
              _conj_torsion(7, 30)):
        lam = lambda_hat(c, seed=3)
        assert nu_hat(lam.triples).zero_report() == "zero"
        coeff, t = lam.triples[0]
        (k, atom), *rest = t.ledger[0]
        ledger = (((k, atom + 1e-3), *rest),) + t.ledger[1:]
        bent = [(coeff, dataclasses.replace(t, ledger=ledger))]
        assert nu_hat(bent + lam.triples[1:]).zero_report() != "zero"


@pytest.mark.parametrize("mutation", ["drop", "flip"])
def test_certificate_catches_what_nu_hat_would(monkeypatch, mutation):
    # an evaluation runs no wedge check of its own: with one term of the
    # coned part phi(B) of repaired torsion 5 dropped or sign-flipped, the
    # certificate check fails first, and nu_hat of the mutated full image
    # hom - B + phi(B)' would have failed too.  phi(B) alone has a nonzero
    # nu_hat (3 of the 5 simplices are bad), so the control is that the
    # unmutated full image cancels exactly
    linear, seen = _ConeRepairer.linear, []

    def mutating(self, sums, canonical=False):
        out = linear(self, sums, canonical)
        if canonical and not seen:  # a repair's first canonical merge: phi(B)
            (coeff, ids), *rest = out
            kept = rest if mutation == "drop" else [(-coeff, ids), *rest]
            for image in (out, kept):
                seen.append(HomChain._on(self.table, 3, image, True))
            out = kept
        return out

    monkeypatch.setattr(_ConeRepairer, "linear", mutating)
    with pytest.raises(RepairFailed, match="homotopy certificate failed"):
        lambda_hat(torsion_cycle(5), seed=3)
    [phi_bad, mutated] = seen
    table = phi_bad.table
    hom = inhom_to_hom(torsion_cycle(5).interned(table))
    bad = HomChain._on(table, 3, [(c, ids) for c, ids in hom.pairs()
                                  if not table.good(ids)], True)
    assert len(hom) == 5 and len(hom - bad) == 2  # B is 3 terms of hom
    reports = []
    for image in (hom - bad + phi_bad, hom - bad + mutated):
        v, _ = sample_generic_v(image, random.Random(3))
        triples = [(coeff, sigma_hat(cfg)) for coeff, cfg in psi_v(image, v)]
        reports.append(nu_hat(triples).is_zero())
    assert reports == [True, False]


def test_trials_build_no_chain_objects(monkeypatch):
    # an evaluation builds its chains once, for the checked cycle: each
    # trial repairs, samples v and flattens over plain (coefficient, ids)
    # lists, so ten trials build as many chain objects as one
    built, on = [], _Chain._on.__func__

    def spy(cls, *args):
        built.append(cls)
        return on(cls, *args)

    monkeypatch.setattr(_Chain, "_on", classmethod(spy))
    counts = []
    for trials in (1, 10):
        built.clear()
        ccs_value(torsion_cycle(6), seed=0, trials=trials)
        counts.append(len(built))
    assert counts[0] == counts[1], counts


def _ledger(log, ids):
    # the atom ledger of sigma_hat (see its docstring) on the ids' vectors
    l01, l02, l03, l12, l13, l23 = (log(i, j) for i, j in combinations(ids, 2))
    return (((1, l03), (1, l12), (-1, l02), (-1, l13)),
            ((1, l02), (1, l13), (-1, l01), (-1, l23)),
            ((1, l01), (1, l23), (-1, l03), (-1, l12)))


def test_flattening_matches_face_path_and_edge_ledgers_cancel():
    # the evaluation reads one Log det per edge element e = g_i^-1 g_j, that
    # of the first translate met, Log det(g_i v, g_j v): its ledgers equal
    # those built by that rule exactly, and the public psi_v / sigma_hat
    # path (every translate's own Log det) agrees to 1e-12 relative.  The
    # ten edge equations cancel atom by atom over the faces of the
    # certificate's non-degenerate 5-vector configurations and of the
    # repaired 4-vector ones coned off an apex vector, each counted apart.
    # With one apex per degree every H term of torsion 4 repeats a vector,
    # so torsion 6 supplies the certificate's configurations
    apex = random_vector(random.Random(11))
    certified = 0
    for c, bad in ((torsion_cycle(4), True), (torsion_cycle(6), True),
                   (random_boundary_cycle(5, n_terms=2), False)):
        lam = lambda_hat(c, seed=3)
        rr = repair_with_certificate(c, random.Random(3))  # repair draws first
        table, v, first = rr.phi_image.table, lam.vector, {}

        def edge_log(i, j):
            e = table.mul(table.intern(table.elements[i].inverse()), j)
            if e not in first:
                first[e] = plog(det_pair(table.elements[i].apply(v),
                                         table.elements[j].apply(v)))
            return first[e]

        assert [t.ledger for _, t in lam.triples] == [
            _ledger(edge_log, ids) for _, ids in rr.phi_image.pairs()]
        configs = psi_v(rr.phi_image, v)
        assert [coeff for coeff, _ in lam.triples] == [
            coeff for coeff, _ in configs]
        for (_, t), (_, cfg) in zip(lam.triples, configs):
            ref = sigma_hat(cfg)
            got = t.values() + tuple(x for w in t.ledger for _, x in w)
            want = ref.values() + tuple(x for w in ref.ledger for _, x in w)
            scale = max(map(abs, want))
            assert max(abs(a - b) for a, b in zip(got, want)) <= 1e-12 * scale
        certificate = [tuple(g.apply(v) for g in tup)
                       for _, tup in rr.homotopy]
        coned = [(apex,) + tuple(g.apply(v) for g in tup)
                 for _, tup in rr.phi_image]
        tested = []
        for configs in (certificate, coned):
            tested.append(0)
            for vecs in configs:
                if near_pairs(vecs):
                    continue  # H's (1, 1, ...) tuples repeat a vector
                cfg = ConfigTuple(vecs)
                faces = [sigma_hat(cfg.face(i)) for i in range(5)]
                report = check_flattening_condition(faces)
                assert report.exact is not None and all(report.exact), report
                tested[-1] += 1
        # the boundary has no bad simplex, so its certificate is empty
        assert bad or rr.homotopy.is_empty() and tested[0] == 0, tested
        certified += tested[0]
        assert tested[1] > 0, tested
    assert certified > 0


def test_conjugated_torsion_stays_at_rounding_level():
    # torsion n conjugated by (s, 0.3; 0, 1/s) at s = 10 and 30: the value
    # is within 1e-13 of -2/n mod 1, with no volume, and the trials agree
    # within 1e-12 (translates of one edge share their Log det)
    for n in (5, 7):
        for s in (10, 30):
            rep = ccs_value(_conj_torsion(n, s), seed=0, trials=3)
            value = rep.value_mod1
            assert _mod1_dist(value.real, -2 / n) <= 1e-13, (n, s, value)
            assert abs(value.imag) <= 1e-13, (n, s, value)
            assert rep.max_trial_deviation <= 1e-12, (n, s, rep)


def test_boundary_trials_agree_at_rounding_level():
    # each edge's Log det comes from the vectors of its first translate, not
    # from its interned representative, whose rounding follows a chain of
    # products: on this 32-term boundary that put the trials 2.2e-13 apart
    rep = ccs_value(random_boundary_cycle(104, n_terms=32), seed=4, trials=3)
    assert rep.max_trial_deviation <= 5e-14, rep.max_trial_deviation


def test_lambda_hat_v_independence(rng):
    c = torsion_cycle(3)
    vals = []
    for seed in range(4):
        vals.append(-_reference_sums(lambda_hat(c, seed=seed))[0] / TWO_PI_SQ)
    for v in vals[1:]:
        assert _mod1_dist(v.real, vals[0].real) < 1e-7
        assert abs(v.imag - vals[0].imag) < 1e-7


def test_volume_matches_im_lhat(rng):
    for seed, chain in ((1, torsion_cycle(3)), (2, random_boundary_cycle(rng))):
        raw, volume = _reference_sums(lambda_hat(chain, seed=seed))
        assert abs(volume - raw.imag) < 1e-8


def _hex(z: complex) -> tuple[str, str]:
    return z.real.hex(), z.imag.hex()


def test_ccs_value_single_pass_matches_reference_sums():
    # ccs_value evaluates each flattened term once, straight from its
    # log-parameters; its raw L-hat and the volume residual are bit-equal to
    # the termwise sums of lhat and vol over lambda_hat's triples
    for c in (torsion_cycle(5), torsion_cycle(12),
              random_boundary_cycle(3, n_terms=16), _conj_torsion(7, 3)):
        for seed in (0, 1):
            rep = ccs_value(c, seed=seed, trials=1)
            raw, volume = _reference_sums(lambda_hat(c, seed=seed))
            assert _hex(rep.raw_lhat) == _hex(raw)
            residual = abs(volume - raw.imag)
            assert rep.residuals["volume_vs_im_lhat"].hex() == residual.hex()


def test_ccs_value_torsion_family():
    # pinned regression values: 2k/n mod 1 with the empirical unit k = -1
    expected = {2: 0.0, 3: 1 / 3, 4: 1 / 2, 5: 3 / 5}
    for n, want in expected.items():
        rep = ccs_value(torsion_cycle(n), seed=1, trials=3)
        assert _mod1_dist(rep.value_mod1.real, want) < 1e-6, (n, rep.value_mod1)
        assert abs(rep.value_mod1.imag) < 1e-6
        assert abs(n * rep.value_mod1.real - round(n * rep.value_mod1.real)) < 1e-5
        assert rep.max_trial_deviation < 1e-7


def test_ccs_value_boundary(rng):
    rep = ccs_value(random_boundary_cycle(rng), seed=2, trials=3)
    assert _mod1_dist(rep.value_mod1.real, 0.0) < 1e-7
    assert abs(rep.volume) < 1e-7


def test_ccs_value_five_term_fixture():
    rep = ccs_value(five_term_boundary(0.5, 0.25), seed=0, trials=2)
    assert _mod1_dist(rep.value_mod1.real, 0.0) < 1e-7
    assert abs(rep.volume) < 1e-7


def test_ccs_conjugation_invariance(rng):
    c = torsion_cycle(3)
    g = random_sl2(rng)
    r1 = ccs_value(c, seed=4, trials=2)
    r2 = ccs_value(conjugate_chain(g, c), seed=5, trials=2)
    assert _mod1_dist(r1.value_mod1.real, r2.value_mod1.real) < 1e-7
    assert abs(r1.value_mod1.imag - r2.value_mod1.imag) < 1e-7


def test_ccs_complex_conjugation_equivariance(rng):
    # conjugation on C/Z sends x + iy to x - iy: real parts agree mod 1,
    # imaginary parts flip sign
    c = random_boundary_cycle(rng) + torsion_cycle(5)
    r1 = ccs_value(c, seed=6, trials=2)
    r2 = ccs_value(complex_conjugate_chain(c), seed=7, trials=2)
    assert _mod1_dist(r2.value_mod1.real, r1.value_mod1.real) < 1e-7
    assert abs(r2.value_mod1.imag + r1.value_mod1.imag) < 1e-7


def test_ccs_report_fields(rng):
    rep = ccs_value(torsion_cycle(3), seed=1, trials=4)
    assert len(rep.trials) == 4
    assert rep.volume == rep.raw_lhat.imag
    d = rep.as_dict()
    assert set(d) >= {"value", "raw_lhat", "volume", "trials",
                      "max_trial_deviation", "residuals", "seed"}


def test_covering_points_take_two_logarithms_each(monkeypatch):
    # a covering point costs Log z and Log(1 - z), plus Log(1 - 1/z) where
    # li2 inverts; the edge Log dets are taken outside the per-point pass
    import cmath
    from extbloch import covering, dilog, pipeline
    count = {"logs": 0, "points": 0, "inversions": 0}
    inside = []
    real_log, real_point, real_log1m = cmath.log, pipeline._point_value, dilog._log1m

    def log(*args):
        count["logs"] += bool(inside)
        return real_log(*args)

    def point(*args):
        count["points"] += 1
        inside.append(True)
        try:
            return real_point(*args)
        finally:
            inside.pop()

    def inverted_log1m(z):  # li2's own; _branch holds covering's binding
        count["inversions"] += 1
        return real_log1m(z)

    monkeypatch.setattr(cmath, "log", log)
    monkeypatch.setattr(pipeline, "_point_value", point)
    monkeypatch.setattr(dilog, "_log1m", inverted_log1m)
    assert covering._log1m is real_log1m
    for c in (torsion_cycle(6), random_boundary_cycle(1, n_terms=16)):
        ccs_value(c, seed=0, trials=10)
    assert count["points"] > 0
    assert count["logs"] <= 2 * count["points"] + count["inversions"], count


def test_ccs_value_builds_no_triple_point_or_merged_sum(monkeypatch):
    # trials evaluate the flattened terms directly and sum numbers: no
    # FlatteningTriple and no CoveringPoint is built, so nothing is merged
    from extbloch import covering, pipeline

    def refuse(*args, **kwargs):
        raise AssertionError("built on the trial path")

    monkeypatch.setattr(pipeline, "FlatteningTriple", refuse)
    for name in ("FlatteningTriple", "to_covering_point", "CoveringPoint"):
        monkeypatch.setattr(covering, name, refuse)
    rep = ccs_value(torsion_cycle(6), seed=0, trials=3)
    assert _mod1_dist(rep.value_mod1.real, 2 / 3) < 1e-12


def test_trials_draw_in_turn_from_one_stream():
    # ccs_value makes one generator from the seed; each trial repairs, then
    # draws v, from it, exactly as successive lambda_hat calls on it do
    cases = (torsion_cycle(5), torsion_cycle(6),
             conjugate_chain(GroupElement(3, 0.3, 0, 1 / 3), torsion_cycle(7)),
             random_boundary_cycle(5, n_terms=2))
    for c in cases:
        for seed in (0, 1, 7):
            rng = random.Random(seed)
            expected = []
            for _ in range(3):
                value = -_reference_sums(lambda_hat(c, rng))[0] / TWO_PI_SQ
                expected.append(complex(value.real - math.floor(value.real),
                                        value.imag))
            assert ccs_value(c, seed=seed, trials=3).trials == expected
    for evaluate in (ccs_value, lambda_hat):
        with pytest.raises(ValueError, match="non-negative, got -1"):
            evaluate(torsion_cycle(5), seed=-1)


def _rotation_cycle(n: int, k: int) -> BarChain:
    # sum_i [t | t^i | t] for t = rotation(n, k); torsion_cycle(n) is k = 1
    t = rotation(n, k)
    return BarChain(3, [(1, (t, rotation(n, k * i % n), t)) for i in range(n)])


def test_closed_form_values():
    # rotation by 2 pi k / n gives -2k^2/n mod 1 (also after conjugation),
    # the value is additive over sums and multiples of cycles, boundaries
    # give 0; agreement is at rounding level, far inside 1e-12
    a, b, c = 1.2 + 0.3j, 0.5 - 0.2j, 0.4 + 0.1j
    g = GroupElement(a, b, c, (1 + b * c) / a)
    cases = [(torsion_cycle(5), -2 / 5), (torsion_cycle(12), -2 / 12),
             (conjugate_chain(g, torsion_cycle(7)), -2 / 7),
             (random_boundary_cycle(4, n_terms=4), 0.0),
             (torsion_cycle(5) + torsion_cycle(7), 11 / 35),
             (2 * torsion_cycle(5), -4 / 5), (3 * torsion_cycle(5), -6 / 5),
             (5 * torsion_cycle(5), 0.0), (7 * torsion_cycle(7), 0.0)]
    cases += [(_rotation_cycle(n, k), -2 * k * k / n)
              for n, k in ((5, 2), (7, 3), (8, 3), (12, 5))]
    for cycle, want in cases:
        rep = ccs_value(cycle, seed=1, trials=2)
        assert _mod1_dist(rep.value_mod1.real, want) < 1e-12, rep.value_mod1
        assert abs(rep.value_mod1.imag) < 1e-12
        assert rep.max_trial_deviation < 1e-12


def test_closed_form_grid():
    # -2k^2/n mod 1 for n = 2..60 with k = 1 and the smallest 1 < k < n
    # coprime to n (none for n = 2): 117 cases
    cases = []
    for n in range(2, 61):
        cases.append((n, 1))
        k = next((k for k in range(2, n) if math.gcd(k, n) == 1), None)
        if k:
            cases.append((n, k))
    assert len(cases) == 117
    for n, k in cases:
        rep = ccs_value(_rotation_cycle(n, k), seed=1, trials=2)
        want = -2 * k * k / n
        assert _mod1_dist(rep.value_mod1.real, want) < 1e-12, (n, k)
        assert abs(rep.value_mod1.imag) < 1e-12, (n, k)


def test_evaluations_reject_non_cycles():
    bad = BarChain(3, [torsion_cycle(3).terms[0]])
    with pytest.raises(ValueError, match="not a cycle"):
        ccs_value(bad, seed=0, trials=2)
    with pytest.raises(ValueError, match="not a cycle"):
        lambda_hat(bad, seed=0)
    for empty in (BarChain(2, []), BarChain(4, [])):  # cycles, but not 3-cycles
        with pytest.raises(NotACycle, match="3-cycle"):
            ccs_value(empty, seed=0, trials=2)
        with pytest.raises(NotACycle, match="3-cycle"):
            lambda_hat(empty, seed=0)
