import random
from itertools import combinations

import pytest

from extbloch import config
from extbloch.core import (GroupElement, det_pair, random_sl2, random_vector,
                           rotation)
from extbloch.chains import (BarChain, HomChain, SymbolTable, _checked_cycle,
                             _ConeRepairer, _faces, _offending, _sample_v,
                             _v_pass, bar_boundary, cone, conjugate_chain,
                             hom_boundary,
                             hom_to_inhom, inhom_to_hom, is_cycle, is_good,
                             is_v_good, near_pairs, repair_to_good,
                             repair_with_certificate, sample_generic_v)
from extbloch.errors import SamplingExhausted
from extbloch.fixtures import (random_boundary_cycle, random_good_hom_chain,
                               torsion_cycle)


def _random_bar(rng, degree=3, terms=3):
    out = []
    for _ in range(terms):
        coeff = 0
        while coeff == 0:
            coeff = int(rng.integers(-2, 3))
        out.append((coeff, tuple(random_sl2(rng) for _ in range(degree))))
    return BarChain(degree, out)


def test_inhom_to_hom_examples(rng):
    g, h = random_sl2(rng), random_sl2(rng)
    c = BarChain(2, [(1, (g, h))])
    hom = inhom_to_hom(c)
    ((coeff, tup),) = hom.terms
    assert coeff == 1
    assert tup[0].close_to(GroupElement.identity(), config.CMP)
    assert tup[1].close_to(g, config.CMP)
    assert tup[2].close_to(g @ h, config.CMP)


def test_hom_to_inhom_left_invariance(rng):
    g, h, k = random_sl2(rng), random_sl2(rng), random_sl2(rng)
    c1 = HomChain(2, [(1, (GroupElement.identity(), g, g @ h))])
    c2 = HomChain(2, [(1, (k, k @ g, k @ g @ h))])
    assert (hom_to_inhom(c1) - hom_to_inhom(c2)).is_empty()


def test_conversions_inverse(rng):
    for _ in range(100):
        c = _random_bar(rng)
        assert (hom_to_inhom(inhom_to_hom(c)) - c).is_empty()


def test_bar_boundary_degree_two(rng):
    g, h = random_sl2(rng), random_sl2(rng)
    d = bar_boundary(BarChain(2, [(1, (g, h))]))
    expect = BarChain(1, [(1, (h,)), (-1, (g @ h,)), (1, (g,))])
    assert (d - expect).is_empty()


def test_boundary_squares_to_zero(rng):
    for k in range(1000):
        c = _random_bar(rng, terms=1 + k % 3)
        assert bar_boundary(bar_boundary(c)).is_empty()
        hc = inhom_to_hom(c)
        assert hom_boundary(hom_boundary(hc)).is_empty()


def test_boundary_compatibility(rng):
    for _ in range(100):
        c = _random_bar(rng)
        lhs = hom_to_inhom(hom_boundary(inhom_to_hom(c)))
        assert (lhs - bar_boundary(c)).is_empty()


def test_torsion_cycles(rng):
    for n in range(2, 8):
        c = torsion_cycle(n)
        ok, residual = is_cycle(c)
        assert ok, residual.terms
        good, _ = is_good(c)
        assert not good


def test_generic_symbol_not_cycle(rng):
    c = _random_bar(rng, terms=1)
    ok, _ = is_cycle(c)
    assert not ok


def test_boundary_of_degree4_is_cycle(rng):
    c = _random_bar(rng, degree=4, terms=2)
    ok, _ = is_cycle(bar_boundary(c))
    assert ok


def test_is_good_examples(rng):
    g, h = random_sl2(rng), random_sl2(rng)
    ok, _ = is_good(HomChain(2, [(1, (GroupElement.identity(), g, g @ h))]))
    assert ok
    bad = HomChain(1, [(1, (GroupElement.identity(), -GroupElement.identity()))])
    ok, offenders = is_good(bad)
    assert not ok and offenders
    # torsion tuples repeat elements up to sign; offenders come in the
    # order of a brute-force pairwise check over the tuples
    c = inhom_to_hom(torsion_cycle(4))
    v = random_vector(rng)
    coincide, near = [], []
    for t, (_, tup) in enumerate(list(c)):
        vecs = [g.apply(v) for g in tup]
        for i, j in combinations(range(len(tup)), 2):
            if tup[i].sign_equiv(tup[j], config.CMP):
                coincide.append((t, i, j))
            scale = vecs[i].norm() * vecs[j].norm()
            if abs(det_pair(vecs[i], vecs[j])) <= config.VGOOD * scale:
                near.append((t, i, j))
    assert coincide
    assert is_good(c) == (False, coincide)
    assert is_v_good(c, v) == (False, near)


def test_is_v_good_detects_sign_coincidence(rng):
    bad = HomChain(1, [(1, (GroupElement.identity(), -GroupElement.identity()))])
    for _ in range(10):
        from extbloch.core import random_vector
        ok, _ = is_v_good(bad, random_vector(rng))
        assert not ok


def test_sample_generic_v(rng):
    c = random_good_hom_chain(rng, 3, 2)
    v1, att1 = sample_generic_v(c, 7)
    v2, _ = sample_generic_v(c, 7)
    assert v1 == v2  # deterministic for equal seeds
    assert att1 <= 5
    bad = BarChain(3, [(1, (rotation(2, 1), rotation(2, 0), rotation(2, 1)))])
    with pytest.raises(SamplingExhausted):
        sample_generic_v(bad, 7)


def _near_by_tuple(hom, v):
    """is_v_good's verdict from ``near_pairs`` on every tuple apart."""
    return [(t, i, j) for t, (_, tup) in enumerate(hom)
            for i, j in near_pairs([g.apply(v) for g in tup])]


def test_v_pass_decides_as_near_pairs_per_tuple(monkeypatch):
    # one apply per element and one det per id pair give the verdicts of
    # near_pairs tuple by tuple, on chains with and without +- coincidences
    # and at a vgood loose enough to reject some draws
    draws = random.Random(4)
    chains = [inhom_to_hom(torsion_cycle(4)),
              _checked_cycle(random_boundary_cycle(2, 3), SymbolTable()),
              HomChain(1, [(1, (GroupElement.identity(),
                                -GroupElement.identity()))], True)]
    verdicts = set()
    for vgood in (config.VGOOD, 0.3):
        monkeypatch.setattr(config, "VGOOD", vgood)
        for hom in chains:
            for _ in range(5):
                v = random_vector(draws)
                offending, dets = _v_pass(hom.table.elements,
                                          list(hom.pairs()), v)
                want = _near_by_tuple(hom, v)
                assert offending == want
                assert is_v_good(hom, v) == (not want, want)
                verdicts.add(not want)
                elements = hom.table.elements
                for (i, j), d in dets.items():
                    ref = det_pair(elements[i].apply(v), elements[j].apply(v))
                    assert (d.real.hex(), d.imag.hex()) == \
                        (ref.real.hex(), ref.imag.hex())
    assert verdicts == {True, False}


def test_sample_v_shares_sample_generic_v_draws(monkeypatch):
    # from one seed the shared pass accepts the same v after the same
    # number of draws as sample_generic_v, and as a rejection loop over
    # near_pairs; the loose vgood makes it reject some draws first
    hom = _checked_cycle(random_boundary_cycle(2, 3), SymbolTable())
    elements, terms = hom.table.elements, list(hom.pairs())
    monkeypatch.setattr(config, "VGOOD", 0.2)
    attempts = set()
    for seed in range(6):
        v, n, dets = _sample_v(elements, terms, random.Random(seed))
        assert sample_generic_v(hom, seed) == (v, n)
        draws = random.Random(seed)
        for ref_n in range(1, 1001):
            ref = random_vector(draws)
            if not _near_by_tuple(hom, ref):
                break
        assert (ref, ref_n) == (v, n)
        assert dets == _v_pass(elements, terms, v)[1]
        attempts.add(n)
    assert max(attempts) > 1


def test_cone_identity(rng):
    c = random_good_hom_chain(rng, 3, 2)
    g = random_sl2(rng)
    plain = HomChain(3, c.terms)
    lhs = hom_boundary(cone(g, plain))
    rhs = plain - cone(g, hom_boundary(plain))
    assert (lhs - rhs).is_empty()
    empty = HomChain(2, [])
    assert cone(g, empty).is_empty()


def test_cone_recovers_cycles(rng):
    # the identity d(cone_g sigma) = sigma needs sigma to be a cycle at the
    # group-complex level (before passing to coinvariants)
    top = random_good_hom_chain(rng, 4, 2)
    raw_cycle = hom_boundary(HomChain(4, top.terms))
    g = random_sl2(rng)
    assert (hom_boundary(cone(g, raw_cycle)) - raw_cycle).is_empty()


def test_repair_already_good(rng):
    # a good cycle is kept as it is: phi(c) = c and the homotopy is empty
    c = random_boundary_cycle(rng)
    good, _ = is_good(c)
    assert good
    rr = repair_with_certificate(c, seed=5)
    assert (rr.phi_image - rr.original_hom).is_empty()
    assert rr.homotopy.is_empty()
    ok, _ = is_cycle(rr.chain)
    assert ok
    g2, _ = is_good(rr.chain)
    assert g2
    res = hom_boundary(rr.homotopy) - (rr.phi_image - rr.original_hom)
    assert res.is_empty()


def test_repair_cones_only_the_bad_part(monkeypatch):
    # phi = hom - B + phi(B) and H = H(B): the repairer sees only the part B
    # of the cycle with a +-coincidence.  A good cycle makes no images call;
    # on torsion 5 the top-level images calls (made with no images call
    # open) receive exactly the bad simplices, in order
    top, open_calls = [], []
    images = _ConeRepairer.images

    def spy(self, ids):
        if not open_calls:
            top.append(ids)
        open_calls.append(ids)
        out = images(self, ids)
        open_calls.pop()
        return out

    monkeypatch.setattr(_ConeRepairer, "images", spy)
    rr = repair_with_certificate(random_boundary_cycle(5, n_terms=2), seed=3)
    assert top == []
    assert list(rr.phi_image.pairs()) == list(rr.original_hom.pairs())
    assert rr.homotopy.is_empty()
    rr = repair_with_certificate(torsion_cycle(5), seed=3)
    hom = rr.original_hom
    bad = [ids for _, ids in hom.pairs() if not hom.table.good(ids)]
    assert len(bad) == 3 and top == bad


def test_repair_torsion_fixtures(rng):
    for n in (2, 3):
        rr = repair_with_certificate(torsion_cycle(n), seed=11)
        ok, _ = is_cycle(rr.chain)
        good, _ = is_good(rr.chain)
        assert ok and good
        assert not rr.homotopy.is_empty()
        res = hom_boundary(rr.homotopy) - (rr.phi_image - rr.original_hom)
        assert res.is_empty()


def test_certificate_draws_nothing(monkeypatch):
    # H is coned off the identity: the random stream holds phi's apexes
    # only, so replaying the apex draws alone leaves it where the repair did
    draw = _ConeRepairer._generic_avoiding
    drawn = _spy_draws(monkeypatch)
    g = GroupElement(3, 0.3, 0, 1 / 3)
    for seed, c in ((1, torsion_cycle(4)), (2, torsion_cycle(6)),
                    (3, conjugate_chain(g, torsion_cycle(7)))):
        drawn.clear()
        rng = random.Random(seed)
        rr = repair_with_certificate(c, rng)
        apexes = [apex for _, apex in drawn]
        alone = _ConeRepairer(random.Random(seed), rr.phi_image.table)
        assert [draw(alone, terms) for terms, _ in drawn] == apexes
        assert rng.getstate() == alone.rng.getstate()
        one = rr.homotopy.table.identity
        assert all(ids[0] == one for _, ids in rr.homotopy.pairs())
        assert not rr.homotopy.is_empty()
        res = hom_boundary(rr.homotopy) - (rr.phi_image - rr.original_hom)
        assert res.is_empty()


def _spy_draws(monkeypatch) -> list:
    """(face terms, apex) of every apex draw, in order."""
    drawn, real = [], _ConeRepairer._generic_avoiding

    def spy(self, terms):
        drawn.append((terms, real(self, terms)))
        return drawn[-1][1]

    monkeypatch.setattr(_ConeRepairer, "_generic_avoiding", spy)
    return drawn


def test_no_apex_for_a_cone_over_nothing(monkeypatch):
    # phi(s) = cone(a, phi(ds)) is 0 for every apex a once phi(ds) merges to
    # 0: torsion 6 has such bad simplices, and none of them draws an apex
    drawn = _spy_draws(monkeypatch)
    hom = _checked_cycle(torsion_cycle(6), SymbolTable())
    rep = _ConeRepairer(random.Random(0), hom.table)
    for _, ids in hom.pairs():
        rep.images(ids)
    assert [] in [phi for phi, _ in rep._memo.values()]
    assert drawn and [] not in [terms for terms, _ in drawn]


def test_one_apex_per_degree_per_trial(monkeypatch):
    # every term of torsion 6 is bad, down to 1-simplices; each degree's
    # apex is reused while it clears the margin, so a repair draws at most
    # one apex per degree (12 draws with one apex per bad simplex)
    drawn = _spy_draws(monkeypatch)
    for seed in range(5):
        drawn.clear()
        rr = repair_with_certificate(torsion_cycle(6), seed)
        lengths = [len(terms[0][1]) + 1 for terms, _ in drawn]  # cone tuples
        assert sorted(lengths) == [2, 3, 4], (seed, lengths)  # degrees 1-3
        assert is_good(rr.phi_image)[0]


def test_apex_too_close_to_a_face_is_redrawn(monkeypatch):
    # plant, as a degree's current apex, the negative of an element of
    # phi(ds): the reuse test must refuse it, draw a fresh apex and keep the
    # cone image good
    hom = _checked_cycle(torsion_cycle(6), SymbolTable())
    table = hom.table
    rep = _ConeRepairer(random.Random(0), table)
    for _, ids in hom.pairs():
        canon = table.canonical(ids)
        if faces := rep.linear((c, rep.images(f)[0])
                               for c, f in _faces(canon)):
            break
    planted = table.intern(-table.elements[faces[0][1][-1]])
    rep._apex[len(canon)] = planted
    drawn = _spy_draws(monkeypatch)
    img, _ = rep.images(canon)
    assert len(drawn) == 1 and rep._apex[len(canon)] != planted
    assert img and all(t[0] == rep._apex[len(canon)] for _, t in img)
    assert not _offending(table, img)


def test_repair_deterministic(rng):
    c = torsion_cycle(3)
    r1 = repair_to_good(c, seed=9)
    r2 = repair_to_good(c, seed=9)
    assert (r1 - r2).is_empty()


def test_conjugate_chain_is_cycle(rng):
    c = torsion_cycle(3)
    g = random_sl2(rng)
    cc = conjugate_chain(g, c)
    ok, _ = is_cycle(cc)
    assert ok
