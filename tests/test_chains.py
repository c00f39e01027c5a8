import random
from itertools import combinations

import pytest

from extbloch import chains, config
from extbloch.chainio import chain_from_obj, chain_to_obj, dumps_canonical
from extbloch.core import (GroupElement, det_pair, random_sl2, random_vector,
                           rotation)
from extbloch.chains import (APEX_ATTEMPTS, V_ATTEMPTS, BarChain, HomChain,
                             _Plan, _sample_v, _v_pass, bar_boundary, cone,
                             conjugate_chain, hom_boundary, hom_to_inhom,
                             inhom_to_hom, is_cycle, is_good, is_v_good,
                             near_pairs, repair_with_certificate,
                             sample_generic_v)
from extbloch.errors import RepairFailed, SamplingExhausted
from extbloch.fixtures import (random_boundary_cycle, random_good_hom_chain,
                               torsion_cycle)

from conftest import (Draws, apex_draws, entries_of, goodness_tests, holds,
                      large_conjugate, refused_apex)


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
    # a term whose tuple is not the chain's length is refused
    for chain, term in ((BarChain, (g, g)), (HomChain, (g, h, g))):
        with pytest.raises(ValueError,
                           match="terms of this chain have length"):
            chain(3, [(1, term)])


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
    # and at a vgood loose enough to reject some draws; an accepted v's
    # dets are det_pair's bit for bit
    draws = random.Random(4)
    chains = [inhom_to_hom(torsion_cycle(4)),
              inhom_to_hom(random_boundary_cycle(2, 3)),
              HomChain(1, [(1, (GroupElement.identity(),
                                -GroupElement.identity()))], True)]
    verdicts = set()
    for vgood in (config.VGOOD, 0.3):
        monkeypatch.setattr(config, "VGOOD", vgood)
        for hom in chains:
            for _ in range(5):
                v = random_vector(draws)
                plan = _Plan(hom.table, hom.pairs())
                dets = _v_pass(hom.table.elements, plan, plan.slots, v)
                want = _near_by_tuple(hom, v)
                assert (dets is None) == bool(want)
                assert is_v_good(hom, v) == (not want, want)
                verdicts.add(not want)
                if dets is None:
                    continue
                elements = hom.table.elements
                assert len(dets) == len(plan.pairs)
                for (a, b), d in zip(plan.pairs, dets):
                    i, j = plan.slots[a], plan.slots[b]
                    ref = det_pair(elements[i].apply(v), elements[j].apply(v))
                    assert (d.real.hex(), d.imag.hex()) == \
                        (ref.real.hex(), ref.imag.hex())
    assert verdicts == {True, False}


def test_sample_v_shares_sample_generic_v_draws(monkeypatch):
    # from one seed the rejection loop over the plan's pass accepts the
    # same v after the same number of draws as sample_generic_v, and as a
    # rejection loop over near_pairs; the loose vgood makes it reject some
    # draws first
    hom = inhom_to_hom(random_boundary_cycle(2, 3))
    elements, plan = hom.table.elements, _Plan(hom.table, hom.pairs())
    monkeypatch.setattr(config, "VGOOD", 0.2)
    attempts = set()
    for seed in range(6):
        v, n, dets = _sample_v(
            lambda v: _v_pass(elements, plan, plan.slots, v),
            random.Random(seed))
        assert sample_generic_v(hom, seed) == (v, n)
        draws = random.Random(seed)
        for ref_n in range(1, 1001):
            ref = random_vector(draws)
            if not _near_by_tuple(hom, ref):
                break
        assert (ref, ref_n) == (v, n)
        assert dets == _v_pass(elements, plan, plan.slots, v)
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
    # phi = hom - B + phi(B) and H = H(B): the repair keeps every good term
    # and cones only the part B with a +-coincidence.  A good cycle draws
    # nothing and comes back as it is; on torsion 5, once each term has
    # been sorted, the only terms tested for goodness again are the 3 bad
    # ones, in order, and phi keeps the 2 good ones
    tests = goodness_tests(monkeypatch)
    gen = Draws(random.Random(3))
    rr = repair_with_certificate(random_boundary_cycle(5, n_terms=2), gen)
    assert gen.taken == [] and rr.homotopy.is_empty()
    assert list(rr.phi_image.pairs()) == list(rr.original_hom.pairs())
    tests.clear()
    rr = repair_with_certificate(torsion_cycle(5), seed=3)
    hom = rr.original_hom
    terms = [ids for _, ids in hom.pairs()]
    again = [ids for ids in tests[len(terms):] if ids in terms]
    bad = [ids for ids in terms if not hom.table.good(ids)]
    assert len(bad) == 3 and again == bad
    phi = {ids: coeff for coeff, ids in rr.phi_image.pairs()}
    assert all(phi.get(ids) == coeff for coeff, ids in hom.pairs()
               if ids not in bad) and not set(bad) & set(phi)


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
    # H is coned off the identity: a repair takes from its generator only
    # the values of its apex draws, each an apex the table holds, and H
    # is its certificate, dH = phi(B) - B
    drawn = apex_draws(monkeypatch)
    for seed, c in ((1, torsion_cycle(4)), (2, torsion_cycle(6)),
                    (3, large_conjugate(7, 3))):
        drawn.clear()
        gen = Draws(random.Random(seed))
        rr = repair_with_certificate(c, gen)
        assert drawn and len(gen.taken) == sum(n for _, n in drawn)
        assert all(holds(rr.phi_image.table, g) for g, _ in drawn)
        assert not rr.homotopy.is_empty()
        res = hom_boundary(rr.homotopy) - (rr.phi_image - rr.original_hom)
        assert res.is_empty()


def test_no_apex_for_a_cone_over_nothing(monkeypatch):
    # phi(s) = cone(a, phi(ds)) is 0 for every apex a once phi(ds) merges
    # to 0, and torsion 6 has such bad simplices: an apex is drawn only to
    # clear a cone over something, so each draw is at once tested against
    # an element at the apex margin
    events, draw, equiv = [], chains.random_sl2, GroupElement.sign_equiv
    monkeypatch.setattr(chains, "random_sl2", lambda rng: (
        events.append((draw(rng),)) or events[-1][0]))
    monkeypatch.setattr(GroupElement, "sign_equiv", lambda g, h, tol: (
        events.append((g, tol)) or equiv(g, h, tol)))
    for seed in range(3):
        events.clear()
        repair_with_certificate(torsion_cycle(6), seed)
        drawn = [k for k, e in enumerate(events) if len(e) == 1]
        assert len(drawn) == 3 and all(
            events[k + 1][0] is events[k][0]
            and events[k + 1][1:] == (config.APEX_MARGIN,) for k in drawn)


def test_one_apex_per_degree_per_trial(monkeypatch):
    # every term of torsion 6 is bad, down to 1-simplices; each degree's
    # apex is reused while it clears the margin, so a repair draws one
    # apex for each of degrees 1-3 (12 draws with one apex per bad simplex)
    drawn = apex_draws(monkeypatch)
    for seed in range(5):
        drawn.clear()
        rr = repair_with_certificate(torsion_cycle(6),
                                     Draws(random.Random(seed)))
        assert len(drawn) == 3, seed
        assert is_good(rr.phi_image)[0]


def test_apex_too_close_to_a_face_is_redrawn(monkeypatch):
    # plant, as the second apex of a repair of torsion 6, the negative of
    # an element of a later cone of its degree (see ``refused_apex``): it
    # clears the cone it is drawn for, the reuse test refuses it at the
    # later one and draws a fresh apex, and the cone image stays good
    planted = refused_apex()
    drawn = apex_draws(monkeypatch)
    rr = repair_with_certificate(torsion_cycle(6),
                                 Draws(random.Random(2), planted))
    assert len(drawn) == 4 and holds(rr.phi_image.table, drawn[1][0])
    assert is_good(rr.phi_image)[0]


def test_a_cone_image_not_good_at_the_tolerance_is_refused():
    # apexes clear the apex margin, but a repair checks its cone image for
    # +- coincidences at the table's tolerance.  Torsion 6 read at 9e-4,
    # its degree-2 apex a2 and its top apex a2 (1, -8e-4; 0, 1), 5e-3 from
    # a2: a canonical tuple holds (1, 8e-4; 0, 1), and the repair is
    # refused.  At the default tolerance the same draws repair
    a2 = random_sl2(random.Random(101))
    planted = entries_of(random_sl2(random.Random(1)), a2,
                         a2 @ GroupElement(1, -8e-4, 0, 1))
    coarse = chain_from_obj(chain_to_obj(torsion_cycle(6)), 9e-4)
    with pytest.raises(RepairFailed, match="cone image not good"):
        repair_with_certificate(coarse, Draws(random.Random(2), planted))
    rr = repair_with_certificate(torsion_cycle(6),
                                 Draws(random.Random(2), planted))
    assert is_good(rr.phi_image)[0]


def test_apex_draws_stop_at_the_cap():
    # every draw is the identity, which each coinvariant tuple of phi(ds)
    # holds, so no apex clears: the repair gives up after exactly
    # APEX_ATTEMPTS draws, naming the count
    gen = Draws(planted=entries_of(GroupElement.identity()) * APEX_ATTEMPTS)
    with pytest.raises(RepairFailed,
                       match=f"no generic cone apex in {APEX_ATTEMPTS} "
                             "attempts"):
        repair_with_certificate(torsion_cycle(6), gen)
    assert len(gen.taken) == 8 * APEX_ATTEMPTS == 8000


def test_v_draws_stop_at_the_cap():
    # every draw is v = (1, i), an eigenvector of every rotation, so each
    # pair of a torsion cycle's tuples is parallel at it: v sampling gives
    # up after exactly V_ATTEMPTS draws of four values, naming the count
    gen = Draws(planted=[1.0, 0.0, 0.0, 1.0] * V_ATTEMPTS)
    with pytest.raises(SamplingExhausted,
                       match=f"no v-good vector in {V_ATTEMPTS} attempts"):
        sample_generic_v(torsion_cycle(5), gen)
    assert len(gen.taken) == 4 * V_ATTEMPTS == 4000


def test_repair_deterministic(rng):
    c = torsion_cycle(3)
    r1 = repair_with_certificate(c, seed=9).chain
    r2 = repair_with_certificate(c, seed=9).chain
    assert (r1 - r2).is_empty()


@pytest.mark.parametrize("n", range(5, 13))
def test_conjugate_chain_forms_each_distinct_conjugate_once(n):
    # one conjugate per distinct id gives the chain, and the canonical
    # text, of conjugating every occurrence
    rng = random.Random(n)
    for _ in range(3):
        g, c = random_sl2(rng), torsion_cycle(n)
        ginv = g.inverse()
        each = BarChain(c.degree, [(coeff, tuple(g @ h @ ginv for h in sym))
                                   for coeff, sym in c])
        once = conjugate_chain(g, c)
        assert (dumps_canonical(chain_to_obj(once))
                == dumps_canonical(chain_to_obj(each)))
        assert once.table.elements == each.table.elements


def test_conjugate_chain_is_cycle(rng):
    c = torsion_cycle(3)
    g = random_sl2(rng)
    cc = conjugate_chain(g, c)
    ok, _ = is_cycle(cc)
    assert ok
