import math
import random
import re
from itertools import combinations

import numpy as np
import pytest

from extbloch import chains, pipeline
from extbloch.chainio import chain_to_obj, dumps_canonical
from extbloch.core import (GroupElement, ProjVector, det_pair, random_sl2,
                           random_vector, rotation)
from extbloch.chains import (_LDIV, _MUL, _REUSE, BarChain, HomChain, _Chain,
                             _ConeRepairer, conjugate_chain, hom_boundary, inhom_to_hom, near_pairs,
                             repair_with_certificate, sample_generic_v)
from extbloch.covering import (FlatteningTriple, check_flattening_condition,
                               nu_hat, to_covering_point)
from extbloch.dilog import TWO_PI_SQ, lhat, plog, vol
from extbloch.errors import DegenerateConfig, NotACycle, NotVGood, RepairFailed
from extbloch.fixtures import (five_term_boundary, random_boundary_cycle,
                               torsion_cycle)
from extbloch.pipeline import (ConfigTuple, _log_params, ccs_value,
                               lambda_hat, psi_v, sigma_hat)

import report_digest
from oracles import check_edge_layout


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
    with pytest.raises(NotVGood, match=r"^term 0: det\(v0, v1\) too small$"):
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
        assert nu_hat(lam.triples).is_zero()
        coeff, t = lam.triples[0]
        (k, atom), *rest = t.ledger[0]
        ledger = (((k, atom + 1e-3), *rest),) + t.ledger[1:]
        bent = [(coeff, FlatteningTriple(t.w0, t.w1, t.w2, ledger))]
        assert not nu_hat(bent + lam.triples[1:]).is_zero()


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


def _object_sums(rows, logs) -> tuple[float, float, float]:
    # the three sums of covering._lhat_sums through the object path: per
    # row, the FlatteningTriple of sigma_hat's log-parameters of its six
    # Logs, its covering point, and lhat and vol of that, each sum taken by
    # math.fsum
    re, im, vols = [], [], []
    for coeff, *row in rows:
        pt = to_covering_point(
            FlatteningTriple(*_log_params(*[logs[k] for k in row])))
        value = lhat(pt)
        re.append(coeff * value.real)
        im.append(coeff * value.imag)
        vols.append(coeff * vol(pt.z))
    return math.fsum(re), math.fsum(im), math.fsum(vols)


def test_every_trial_sums_as_the_object_path_does(monkeypatch):
    # every trial's call of the fused per-term body, the first trial's, each
    # replay's and each fallback's to a full repair, gives sums bit-equal to
    # those over the object path on the same Logs.  Every term of torsion 6
    # is bad; torsion 48 is the largest; a five-term boundary has all its
    # terms good
    real_sums, real_replay, calls, shifts = pipeline._lhat_sums, \
        chains._replay, [], []

    def refereed(rows, logs):
        sums = real_sums(rows, logs)
        assert [x.hex() for x in sums] == \
            [x.hex() for x in _object_sums(rows, logs)]
        calls.append(len(rows))
        return sums

    def replay(*args):
        shifts.append(real_replay(*args))
        return shifts[-1]

    monkeypatch.setattr(pipeline, "_lhat_sums", refereed)
    monkeypatch.setattr(chains, "_replay", replay)
    cycles = (torsion_cycle(6), torsion_cycle(48),
              random_boundary_cycle(3, n_terms=16), _conj_torsion(7, 3),
              five_term_boundary(0.5, 0.25))
    for c in cycles:
        for seed in (0, 1, 2):
            ccs_value(c, seed=seed, trials=10)
    assert len(calls) == 10 * 3 * len(cycles) and all(calls)
    assert len(shifts) == 9 * 3 * len(cycles) and None not in shifts
    # every replay gives up: trials 2-10 repair in full on the same draws
    calls.clear()
    shifts.clear()

    def give_up(*args):
        shifts.append(report_digest.give_up(*args))
        return shifts[-1]

    monkeypatch.setattr(chains, "_replay", give_up)
    ccs_value(torsion_cycle(6), seed=0, trials=10)
    assert len(calls) == 10 and shifts == [None] * 9


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
    conj = BarChain(c.degree, [
        (coeff, tuple(GroupElement(*(x.conjugate() for x in h.entries()))
                      for h in sym))
        for coeff, sym in c])
    r2 = ccs_value(conj, seed=7, trials=2)
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
    # li2 inverts; the edge Log dets are taken outside the per-term body
    import cmath
    from extbloch import dilog
    count = {"logs": 0, "points": 0, "inversions": 0}
    inside = []
    real_log, real_sums = cmath.log, pipeline._lhat_sums
    real_log1m = dilog._log1m

    def log(*args):
        count["logs"] += bool(inside)
        return real_log(*args)

    def sums(rows, logs):
        count["points"] += len(rows)
        inside.append(True)
        try:
            return real_sums(rows, logs)
        finally:
            inside.pop()

    def log1m(z):  # in the per-term body, only li2's inversion calls it
        count["inversions"] += bool(inside)
        return real_log1m(z)

    monkeypatch.setattr(cmath, "log", log)
    monkeypatch.setattr(pipeline, "_lhat_sums", sums)
    monkeypatch.setattr(dilog, "_log1m", log1m)
    for c in (torsion_cycle(6), random_boundary_cycle(1, n_terms=16)):
        ccs_value(c, seed=0, trials=10)
    assert count["points"] > 0 and count["inversions"] > 0, count
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
    # draws v, from it, exactly as successive lambda_hat calls on it do.
    # Trials 2-10 replay the first trial's repair at their own apexes, and
    # their values are bit-identical to full repairs.  Torsion 5 conjugated
    # by (30, 0.3; 0, 1/30) has large entries, where the replay's
    # identifications are least robust; its seeds 0 and 3 raise
    # DeterminantError
    cases = [(c, (0, 1, 7)) for c in (
        torsion_cycle(5), torsion_cycle(6), torsion_cycle(12),
        torsion_cycle(48),
        conjugate_chain(GroupElement(3, 0.3, 0, 1 / 3), torsion_cycle(7)),
        random_boundary_cycle(5, n_terms=2), five_term_boundary(0.5, 0.25))]
    cases.append((conjugate_chain(GroupElement(30, 0.3, 0, 1 / 30),
                                  torsion_cycle(5)), (1, 2, 4, 5)))
    for c, seeds in cases:
        for seed in seeds:
            rng = random.Random(seed)
            expected = []
            for _ in range(10):
                value = -_reference_sums(lambda_hat(c, rng))[0] / TWO_PI_SQ
                real = value.real - math.floor(value.real)  # in [0, 1]
                real = 0.0 if real in (0.0, 1.0) else real  # +0.0, not 1
                expected.append(complex(real, value.imag))
            assert ccs_value(c, seed=seed, trials=10).trials == expected
    for evaluate in (ccs_value, lambda_hat):
        with pytest.raises(ValueError, match="non-negative, got -1"):
            evaluate(torsion_cycle(5), seed=-1)


def test_values_just_below_an_integer_reduce_to_plus_zero():
    # torsion 2, seed 1: two of three trials land within 1.1e-16 below 0,
    # where x - floor(x) rounds to 1.0; the report reduces into [0, 1)
    rep = ccs_value(torsion_cycle(2), seed=1, trials=3)
    assert rep.value_mod1.real == 0.0
    assert math.copysign(1.0, rep.value_mod1.real) == 1.0
    assert all(0.0 <= t.real < 1.0 for t in rep.trials), rep.trials
    assert rep.max_trial_deviation < 1e-15


def test_report_seed_is_the_integer_evaluated():
    # any integer as_rng takes evaluates as int(seed), and the report says
    # so: a numpy integer is not reported as null, nor True as true
    c = torsion_cycle(5)
    for seed, plain in ((np.int64(3), 3), (np.uint8(3), 3), (True, 1)):
        rep = ccs_value(c, seed=seed, trials=2)
        want = ccs_value(c, seed=plain, trials=2)
        assert type(rep.seed) is int and rep == want
        assert (dumps_canonical(rep.as_dict())
                == dumps_canonical(want.as_dict()))
    assert ccs_value(c, seed=random.Random(3), trials=2).seed is None


class _UniformOnly:
    """A generator with nothing but ``uniform``."""

    def __init__(self, seed):
        self.source = random.Random(seed)

    def uniform(self, a, b):
        return self.source.uniform(a, b)


@pytest.mark.parametrize("seed", [1.5, None, "3", np.float64(3)])
def test_a_seed_neither_integer_nor_generator_is_refused(seed):
    # refused up front with a TypeError naming it, not at the first draw
    for evaluate in (ccs_value, lambda_hat, repair_with_certificate):
        with pytest.raises(TypeError, match=re.escape(f"got {seed!r}") + "$"):
            evaluate(torsion_cycle(5), seed=seed)


@pytest.mark.parametrize("trials, error", [
    pytest.param(2.5, TypeError, id="float"),
    pytest.param("3", TypeError, id="str"),
    pytest.param(None, TypeError, id="None"),
    pytest.param(np.float64(3), TypeError, id="numpy-float"),
    pytest.param(0, ValueError, id="zero"),
    pytest.param(-1, ValueError, id="negative"),
    pytest.param(False, ValueError, id="False")])
def test_a_bad_trial_count_is_refused_before_any_draw(trials, error):
    # refused up front, naming the value: the caller's generator has drawn
    # nothing, and the cycle (here not even a cycle) is not checked
    rng = random.Random(3)
    state = rng.getstate()
    not_a_cycle = BarChain(3, [(1, (rotation(5, 1),) * 3)])
    with pytest.raises(error, match=re.escape(f"got {trials!r}") + "$"):
        ccs_value(not_a_cycle, seed=rng, trials=trials)
    assert rng.getstate() == state


def test_integer_trial_counts_of_any_integer_type_are_taken():
    c = torsion_cycle(5)
    want = ccs_value(c, seed=3, trials=3)
    assert ccs_value(c, seed=3, trials=np.int64(3)) == want
    assert ccs_value(c, seed=3, trials=np.uint8(3)) == want
    assert ccs_value(c, seed=3, trials=True) == ccs_value(c, seed=3, trials=1)


def test_a_generator_with_only_uniform_is_taken():
    c = torsion_cycle(5)
    assert ccs_value(c, _UniformOnly(3), trials=2) == ccs_value(
        c, random.Random(3), trials=2)
    a, b = (dumps_canonical(chain_to_obj(repair_with_certificate(c, g).chain))
            for g in (_UniformOnly(3), random.Random(3)))
    assert a == b
    assert lambda_hat(c, _UniformOnly(3)).vector == lambda_hat(
        c, random.Random(3)).vector


def _other_id(e):
    return e[:3] + (0 if e[3] else 1,)


def _older_id(e):
    return e[:3] + (e[3] - 1,)


def _flags(events, base):
    """Per event of a tape whose first trial started at table length
    ``base``: a reuse test's outcome, or whether the product, quotient or
    draw added an id (its result is the table's next id)."""
    fresh, flags = base, []
    for op, _, _, r in events:
        if op == _REUSE:
            flags.append(r)
        else:
            flags.append(r == fresh)
            fresh += r == fresh
    return flags


# one decision of a tape recorded otherwise: (kind, flag) of the last event
# changed (see ``_flags``), the part of the tape it is taken from (the
# repair's; the certificate residual's quotients, recorded after phi(B) is
# checked; or the edges' quotients, recorded after the residual's), and
# the change: a passed reuse test as failed, a product or quotient that
# added an id as landing on another, older id, a quotient that added none
# as landing on another old id.  Every quotient the residual needs is
# known from a product formed before it, so for the residual case the
# quotient memo is emptied when phi(B) is checked and the residual forms
# its quotients again, each landing on an old id.  Only a decision the
# replay takes is changed: a product or quotient whose operands and result
# are all older than the first trial is compiled out of the tape
_FORCED = {
    "reuse-failed": (_REUSE, True, "repair", lambda e: e[:3] + (False,)),
    "product-old": (_MUL, True, "repair", _older_id),
    "quotient-old": (_LDIV, True, "repair", _older_id),
    "residual-quotient-other-id": (_LDIV, False, "residual", _other_id),
    "edge-quotient-other-id": (_LDIV, False, "edges", _other_id),
}


@pytest.mark.parametrize("make", [random.Random, _UniformOnly])
@pytest.mark.parametrize("forced, at", [
    *(pytest.param(name, 2, id=name) for name in sorted(_FORCED)),
    *(pytest.param(name, 6, id=f"{name}-trial-6") for name in sorted(_FORCED))])
def test_a_decision_that_differs_falls_back_to_the_full_repair(
        monkeypatch, make, forced, at):
    # trial ``at`` replays a tape with one decision recorded otherwise,
    # changed before the tape is compiled.  The replay stops there, after
    # drawing apexes, and the trial repairs in full on those draws, on a
    # plan of its own; the trials after it replay trial 1's compiled tape
    # again, on the first trial's plan: the report and the generator's
    # final state equal those of a run whose replays all give up at once
    # (every later trial a full repair on the stream)
    kind, flag, part, change = _FORCED[forced]
    real_check, real_plan, starts = chains._check_good, chains._Plan, {}
    real_compiled, recorded = chains._compiled, []

    def check(table, phi_bad):
        if table.tape is not None:  # recording: the residual comes next
            starts["residual"] = len(table.tape)
            if part == "residual":
                table._quotients.clear()
        return real_check(table, phi_bad)

    def plan(table, phi):
        if table.tape is not None:  # recording: the edges come next
            starts["edges"] = len(table.tape)
        return real_plan(table, phi)

    def compiled(*args):
        recorded[:] = args
        return real_compiled(*args)

    def part_of(k):
        return ("repair" if k < starts["residual"] else
                "residual" if k < starts["edges"] else "edges")

    def mutate(events, base):
        flags = _flags(events, base)
        k = max(k for k, e in enumerate(events) if part_of(k) == part
                and e[0] == kind and flags[k] == flag
                and (kind == _REUSE or max(e[1:3]) >= base))
        events[k] = change(events[k])
        return events

    real_replay, real_core = chains._replay, chains._repair_core
    outcomes, cores = [], []

    def replay(table, rng, tape):
        if len(outcomes) == at - 2:  # the replay of trial ``at``
            events, phi_bad, base, size = recorded
            tape = real_compiled(mutate(list(events), base), phi_bad, base,
                                 size)
        outcomes.append(real_replay(table, rng, tape))
        if outcomes[-1] is None:
            assert rng.drawn  # the fallback re-reads these
        return outcomes[-1]

    def core(*args):
        cores.append(len(outcomes))
        return real_core(*args)

    monkeypatch.setattr(chains, "_repair_core", core)
    monkeypatch.setattr(chains, "_check_good", check)
    monkeypatch.setattr(chains, "_Plan", plan)
    monkeypatch.setattr(chains, "_compiled", compiled)
    for seed in (0, 1):
        runs = []
        for replay_on in (False, True):
            outcomes.clear()
            cores.clear()
            with monkeypatch.context() as m:
                m.setattr(chains, "_replay",
                          replay if replay_on else lambda *args: None)
                gen = make(seed)
                rep = ccs_value(torsion_cycle(6), seed=gen, trials=10)
            source = gen if isinstance(gen, random.Random) else gen.source
            runs.append((dumps_canonical(rep.as_dict()), source.getstate()))
        assert outcomes[at - 2] is None
        assert None not in outcomes[:at - 2] + outcomes[at - 1:]
        assert len(outcomes) == 9 and cores == [0, at - 1]  # trials 1, at
        assert runs[0] == runs[1]


def test_replayed_trials_check_their_cone_image(monkeypatch):
    # a replayed trial takes trial 1's phi(B) renamed and still tests the
    # pairs that touch a renamed id for goodness: a coincidence of renamed
    # ids put into trial 1's phi(B) before its tape is compiled is refused
    # by trial 2's replay
    real_compiled, real_replay, raised = chains._compiled, chains._replay, []

    def compiled(events, phi_bad, base, size):
        coeff, ids = phi_bad[0]
        assert ids[-2] >= base  # added by trial 1: renamed
        phi_bad[0] = (coeff, ids[:-1] + ids[-2:-1])  # g_3 = g_2
        return real_compiled(events, phi_bad, base, size)

    def replay(*args):
        try:
            return real_replay(*args)
        except RepairFailed:
            raised.append(args)
            raise

    monkeypatch.setattr(chains, "_compiled", compiled)
    monkeypatch.setattr(chains, "_replay", replay)
    with pytest.raises(RepairFailed, match="cone image not good"):
        ccs_value(torsion_cycle(6), seed=0, trials=10)
    assert len(raised) == 1


def test_only_the_first_trial_enters_the_cone_recursion(monkeypatch):
    # torsion 6, 10 trials: every later trial replays the first one's
    # repair, so _ConeRepairer.images is entered in exactly one trial, the
    # only one that records a tape; one trial records no tape and replays
    # nothing
    trial, entered, taped, replays = [0], set(), [], []
    images, sample = _ConeRepairer.images, pipeline._sample_v
    core, replay = chains._repair_core, chains._replay

    def spy_images(self, ids):
        entered.add(trial[0])
        return images(self, ids)

    def spy_sample(*args):
        trial[0] += 1
        return sample(*args)

    def spy_core(hom, rng):
        taped.append(hom.table.tape is not None)
        return core(hom, rng)

    def spy_replay(*args):
        replays.append(trial[0])
        return replay(*args)

    monkeypatch.setattr(_ConeRepairer, "images", spy_images)
    monkeypatch.setattr(pipeline, "_sample_v", spy_sample)
    monkeypatch.setattr(chains, "_repair_core", spy_core)
    monkeypatch.setattr(chains, "_replay", spy_replay)
    ccs_value(torsion_cycle(6), seed=0, trials=10)
    assert trial[0] == 10 and entered == {0} and taped == [True]
    assert replays == list(range(1, 10))
    taped.clear()
    replays.clear()
    ccs_value(torsion_cycle(6), seed=0, trials=1)
    assert taped == [False] and not replays


def _small_conjugate(n: int, rng) -> BarChain:
    # torsion n conjugated by a random element, all entries at most 4
    while True:
        cycle = conjugate_chain(random_sl2(rng), torsion_cycle(n))
        if max(h.max_abs() for _, sym in cycle for h in sym) <= 4:
            return cycle


def test_every_later_trial_replays_without_a_fallback(monkeypatch):
    # quotients of two translates by one factor are answered from the memo
    # (on these cycles, in every trial's Log-det edge loop) and stay
    # memoized for the trials after: no replay gives up, so each 10-trial
    # evaluation repairs in full once, and every trial agrees with the first
    core, cores = chains._repair_core, []

    def spy_core(hom, rng):
        cores.append(hom)
        return core(hom, rng)

    monkeypatch.setattr(chains, "_repair_core", spy_core)
    rng = random.Random(13)
    cycles = [_small_conjugate(n, rng) for n in range(4, 13)]
    cycles += [random_boundary_cycle(k, n_terms=k) for k in range(1, 5)]
    for cycle in cycles:
        for seed in range(5):
            cores.clear()
            rep = ccs_value(cycle, seed=seed, trials=10)
            assert len(cores) == 1
            first = rep.trials[0]
            assert len(rep.trials) == 10
            for value in rep.trials[1:]:
                assert _mod1_dist(value.real, first.real) <= 1e-12
                assert abs(value.imag - first.imag) <= 1e-12
    # the report digest's corpus at seed 0: every one of its 58 cycles
    # replays trial 1's repair and edges in each later trial, and each
    # trial's plan groups its pairs by edge as ldiv does, and as quotients
    # formed here from the entries do (see ``oracles.check_edge_layout``)
    real, shifts = chains._replay, []
    real_repairs, replayed = pipeline._repairs, []

    def replay(*args):
        shifts.append(real(*args))
        return shifts[-1]

    def repairs(hom, rng, trials):
        stream = real_repairs(hom, rng, trials)
        for k, (plan, ids) in enumerate(stream):
            check_edge_layout(hom.table, plan, ids)
            replayed.append(k and sum(ids[a] != plan.slots[a]
                                      for a in range(len(ids))))
            yield plan, ids

    monkeypatch.setattr(chains, "_replay", replay)
    monkeypatch.setattr(pipeline, "_repairs", repairs)
    for _, cycle in report_digest.corpus():
        ccs_value(cycle, seed=0, trials=10)
    assert len(shifts) == 9 * 58 and None not in shifts
    # not vacuous: the later trials of the 25 torsion cycles rename slots
    # (the boundaries' terms are good, so nothing of theirs is repaired)
    assert len(replayed) == 10 * 58 and sum(map(bool, replayed)) == 9 * 25


def _offset_cases():
    """(name, cycle, trial whose replay gives up or None) for the offset
    rule: the report digest's corpus, and torsion 6 with trial 6 forced to
    repair in full."""
    for name, cycle in report_digest.corpus():
        yield name, cycle, None
    yield "torsion 6, trial 6 in full", torsion_cycle(6), 6


def test_a_replay_moves_the_first_trials_ids_by_one_offset(monkeypatch):
    # ids are handed out in order and every id trial 1 adds (those from
    # ``base``, the table's length before it, on) comes from one step of
    # its tape, so a replay that matches every decision adds its own at the
    # same steps: its slot ids are trial 1's with those from ``base`` on
    # moved by the table's length at the replay's start less ``base``, it
    # appends exactly as many elements as trial 1 did, and ``_replay``
    # returns that offset.  After a trial repaired in full the offset
    # counts that trial's elements too
    real_replay, replays = chains._replay, []
    real_repairs, give_up_at, trials = pipeline._repairs, [None], []

    def replay(table, rng, tape):
        start = len(table.elements)
        if len(replays) + 2 == give_up_at[0]:
            shift = report_digest.give_up()
        else:
            shift = real_replay(table, rng, tape)
        replays.append((start, shift, len(table.elements)))
        return shift

    def repairs(hom, rng, k):
        table = hom.table
        base = len(table.elements)
        for plan, ids in real_repairs(hom, rng, k):
            trials.append((base, len(table.elements), plan, list(ids)))
            yield plan, ids

    monkeypatch.setattr(chains, "_replay", replay)
    monkeypatch.setattr(pipeline, "_repairs", repairs)
    checked = fell_back = 0
    for _, cycle, at in _offset_cases():
        give_up_at[0] = at
        replays.clear()
        trials.clear()
        ccs_value(cycle, seed=0, trials=10)
        assert len(replays) == 9 and len(trials) == 10
        base, size, first, slots = trials[0]
        for (start, shift, end), (_, _, plan, ids) in zip(replays, trials[1:]):
            if shift is None:
                assert plan is not first
                fell_back += 1
                continue
            assert plan is first and shift == start - base
            assert end - start == size - base
            assert ids == [i if i < base else i + shift for i in slots]
            checked += 1
    assert fell_back == 1 and checked == 9 * 58 + 8


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
