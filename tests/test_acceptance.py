"""Acceptance suite: one test per criterion, at the stated tolerances.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one pass/fail
line per criterion (the prints are also visible in failure reports).
Criteria 7 and 8 cache their evaluation reports; criterion 9 audits the
volume consistency of every pipeline output they produced.
"""

import cmath
import math
import time

import numpy as np
import pytest

from extbloch.chains import (HomChain, bar_boundary, cone, conjugate_chain,
                             hom_boundary, hom_to_inhom, inhom_to_hom,
                             is_cycle, is_good, repair_with_certificate)
from extbloch.core import random_sl2
from extbloch.covering import (check_flattening_condition, chi_hat, mu, nu_hat,
                               to_covering_point)
from extbloch.dilog import (PI2_6, PI_SQ, TWO_PI_SQ, lhat, li2, rogers,
                            rogers_real)
from extbloch.fixtures import (five_term_boundary, random_boundary_cycle,
                               random_good_hom_chain, torsion_cycle)
from extbloch.pipeline import ccs_value, sigma_hat
from extbloch.path_lift import find_positive_base, verify_pq_pattern
from extbloch.real_sl2 import sample_agreement_suite

from conftest import mod1_dist, random_config
from oracles import li2_simpson

SEED = 20240811


def _report(num: int, label: str, ok: bool, elapsed: float, detail: str = ""):
    state = "PASS" if ok else "FAIL"
    extra = f"  {detail}" if detail else ""
    print(f"[acceptance] criterion {num:2d} ({label}): {state} "
          f"in {elapsed:.2f}s{extra}")
    assert ok, f"criterion {num} failed: {detail}"


def test_criterion_01_rogers_identities():
    t0 = time.time()
    rng = np.random.default_rng(SEED)
    worst = 0.0
    for _ in range(1000):
        x = rng.uniform(1e-6, 1 - 1e-6)
        worst = max(worst, abs(rogers(x) + rogers(1 - x) + PI2_6))
    for _ in range(1000):
        x = rng.uniform(0.02, 0.98)
        y = rng.uniform(0.005, x - 0.005)
        tup = (x, y, y / x, (1 - 1 / x) / (1 - 1 / y), (1 - x) / (1 - y))
        worst = max(worst, abs(sum((-1) ** i * rogers_real(v)
                                   for i, v in enumerate(tup))))
    elapsed = time.time() - t0
    _report(1, "rogers reflection + five-term", worst < 1e-9 and elapsed < 1.0,
            elapsed, f"max residual {worst:.2e}")


def test_criterion_02_dilogarithm_oracle():
    t0 = time.time()
    rng = np.random.default_rng(SEED + 1)
    worst = abs(rogers(0.5) + PI_SQ / 12)
    count = 0
    while count < 100:
        r = math.sqrt(rng.uniform(0, 1))
        t = rng.uniform(0, 2 * math.pi)
        z = r * cmath.exp(1j * t)
        if abs(1 - z) < 5e-3:
            continue
        count += 1
        worst = max(worst, abs(li2(z) - li2_simpson(z)))
    elapsed = time.time() - t0
    _report(2, "dilogarithm vs quadrature", worst < 1e-10 and elapsed < 5.0,
            elapsed, f"max deviation {worst:.2e}")


def test_criterion_03_torsion_injection_identity():
    t0 = time.time()
    from fractions import Fraction
    worst = 0.0
    for m in range(2, 13):
        for k in range(1, m):
            e = chi_hat(Fraction(k, m))
            val = -sum(c * lhat(pt) for c, pt in e) / TWO_PI_SQ
            worst = max(worst, mod1_dist(val.real, k / m), abs(val.imag))
    elapsed = time.time() - t0
    _report(3, "two-term torsion identity", worst < 1e-10 and elapsed < 1.0,
            elapsed, f"max deviation {worst:.2e}")


def test_criterion_04_flattening_condition():
    t0 = time.time()
    rng = np.random.default_rng(SEED + 2)
    worst = 0.0
    all_exact = True
    for _ in range(200):
        cfg = random_config(rng, 5)
        faces = [sigma_hat(cfg.face(i)) for i in range(5)]
        rep = check_flattening_condition(faces)
        worst = max(worst, rep.max_residual)
        all_exact = all_exact and rep.exact is not None and all(rep.exact)
    elapsed = time.time() - t0
    _report(4, "ten edge equations", worst < 1e-8 and all_exact and elapsed < 5.0,
            elapsed, f"max residual {worst:.2e}, exact ledger {all_exact}")


def test_criterion_05_extended_five_term_shadow():
    # the lifted sum over the five faces lands in 2 pi^2 Z: the lift is only
    # well defined modulo 2 pi^2, and configurations off the distinguished
    # relation component genuinely realize nonzero multiples (the raw sum
    # vanishes on that component; criterion 11 checks it there)
    t0 = time.time()
    rng = np.random.default_rng(SEED + 3)
    worst = 0.0
    multiples = set()
    for _ in range(200):
        cfg = random_config(rng, 5)
        s = sum((-1) ** i * lhat(to_covering_point(sigma_hat(cfg.face(i))))
                for i in range(5))
        k = round(s.real / TWO_PI_SQ)
        multiples.add(k)
        worst = max(worst, abs(s - k * TWO_PI_SQ))
    elapsed = time.time() - t0
    _report(5, "extended five-term shadow", worst < 1e-7 and elapsed < 5.0,
            elapsed, f"max |sum mod 2pi^2| {worst:.2e}, multiples {sorted(multiples)}")


def test_criterion_06_wedge_square():
    t0 = time.time()
    rng = np.random.default_rng(SEED + 4)
    failures = 0
    for _ in range(100):
        cfg = random_config(rng, 4)
        lhs = nu_hat([(1, sigma_hat(cfg))])
        rhs = (mu(cfg[1], cfg[2], cfg[3]) - mu(cfg[0], cfg[2], cfg[3])
               + mu(cfg[0], cfg[1], cfg[3]) - mu(cfg[0], cfg[1], cfg[2]))
        if not (lhs - rhs).is_zero():
            failures += 1
    elapsed = time.time() - t0
    _report(6, "wedge square exact", failures == 0 and elapsed < 5.0,
            elapsed, f"{failures} failures of 100")


_TORSION_REPORTS: dict = {}
_INVARIANCE_REPORTS: list = []


def _torsion_reports() -> dict:
    if not _TORSION_REPORTS:
        for n in (2, 3, 4, 5):
            _TORSION_REPORTS[n] = ccs_value(torsion_cycle(n),
                                            seed=SEED + n, trials=10)
    return _TORSION_REPORTS


def test_criterion_07_torsion_values():
    t0 = time.time()
    reports = _torsion_reports()
    ok = True
    details = []
    pinned = {2: 0.0, 3: 1 / 3, 4: 1 / 2, 5: 3 / 5}  # empirical unit k = -1
    for n, rep in reports.items():
        re_val = rep.value_mod1.real
        im_val = rep.value_mod1.imag
        ok &= abs(im_val) < 1e-6
        ok &= rep.max_trial_deviation < 1e-7
        ok &= abs(n * re_val - round(n * re_val)) < 1e-5
        if n == 2:
            ok &= mod1_dist(re_val) < 1e-6
        else:
            ok &= mod1_dist(re_val) > 0.1  # nonzero mod 1
            ok &= mod1_dist(re_val, pinned[n]) < 1e-6  # regression pin
        details.append(f"n={n}: {re_val:.6f}")
    elapsed = time.time() - t0
    _report(7, "torsion cycle values", ok and elapsed < 30.0, elapsed,
            "; ".join(details))


def _invariance_reports() -> list:
    if _INVARIANCE_REPORTS:
        return _INVARIANCE_REPORTS
    rng = np.random.default_rng(SEED + 5)
    cycles = []
    for k in range(14):
        cycles.append(random_boundary_cycle(rng, n_terms=1 + k % 2))
    for n in (2, 3, 4, 5):
        cycles.append(torsion_cycle(n))
    cycles.append(random_boundary_cycle(rng, n_terms=1) + torsion_cycle(3))
    cycles.append(random_boundary_cycle(rng, n_terms=1) + torsion_cycle(4))
    for i, c in enumerate(cycles):
        rep = ccs_value(c, seed=SEED + 100 + i, trials=10)
        g = random_sl2(rng)
        conj_rep = ccs_value(conjugate_chain(g, c), seed=SEED + 200 + i,
                             trials=2)
        _INVARIANCE_REPORTS.append((c, rep, conj_rep))
    return _INVARIANCE_REPORTS


def test_criterion_08_v_independence_and_conjugation():
    t0 = time.time()
    data = _invariance_reports()
    ok = len(data) == 20
    worst_dev = 0.0
    worst_conj = 0.0
    for _, rep, conj_rep in data:
        worst_dev = max(worst_dev, rep.max_trial_deviation)
        worst_conj = max(
            worst_conj,
            mod1_dist(rep.value_mod1.real, conj_rep.value_mod1.real),
            abs(rep.value_mod1.imag - conj_rep.value_mod1.imag))
    ok &= worst_dev < 1e-7 and worst_conj < 1e-7
    elapsed = time.time() - t0
    _report(8, "v-independence + conjugation", ok and elapsed < 60.0, elapsed,
            f"max spread {worst_dev:.2e}, max conj dev {worst_conj:.2e}")


def test_criterion_09_volume_consistency():
    t0 = time.time()
    worst = 0.0
    count = 0
    for rep in _torsion_reports().values():
        worst = max(worst, rep.residuals["volume_vs_im_lhat"])
        count += 1
    for _, rep, conj_rep in _invariance_reports():
        worst = max(worst, rep.residuals["volume_vs_im_lhat"],
                    conj_rep.residuals["volume_vs_im_lhat"])
        count += 2
    elapsed = time.time() - t0
    _report(9, "volume equals Im of lifted sum", worst < 1e-8, elapsed,
            f"max |vol - Im| {worst:.2e} over {count} evaluations")


def test_criterion_10_small_positive_agreement():
    t0 = time.time()
    reports = sample_agreement_suite(SEED + 6, samples=500)
    ok = (len(reports) == 500
          and all(r.covering_p == 0 and r.covering_q == 0 for r in reports)
          and all(0.0 < r.cross_ratio < 1.0 for r in reports)
          and all(min(r.det_values) > 0 for r in reports)
          and max(r.agreement_error for r in reports) == 0.0)
    elapsed = time.time() - t0
    _report(10, "small-positive termwise agreement", ok and elapsed < 5.0,
            elapsed, f"500 samples, worst error "
                     f"{max(r.agreement_error for r in reports):.1e}")


def test_criterion_11_winding_endpoint_pattern():
    t0 = time.time()
    rng = np.random.default_rng(SEED + 7)
    base = find_positive_base()
    ok = True
    worst_sum = 0.0
    for _ in range(50):
        vec = tuple(int(v) for v in rng.integers(-3, 4, 5))
        match, details = verify_pq_pattern(*vec, base=base)
        ok &= match
        worst_sum = max(worst_sum, abs(details["five_term_sum"]))
    ok &= worst_sum < 1e-8
    elapsed = time.time() - t0
    _report(11, "winding endpoint pattern", ok and elapsed < 30.0, elapsed,
            f"50 vectors, max five-term sum {worst_sum:.2e}")


def test_criterion_12_chain_algebra():
    t0 = time.time()
    rng = np.random.default_rng(SEED + 8)
    ok = True
    fixtures = [torsion_cycle(n) for n in (2, 3, 4, 5)]
    fixtures.append(five_term_boundary(0.5, 0.25))
    fixtures.append(five_term_boundary(0.3 + 0.2j, 0.7 + 0.4j))
    fixtures.append(random_boundary_cycle(rng, n_terms=2))
    for c in fixtures:
        ok &= (hom_to_inhom(inhom_to_hom(c)) - c).is_empty()  # inverses
        ok &= bar_boundary(bar_boundary(c)).is_empty()        # dd = 0
        okc, _ = is_cycle(c)
        ok &= okc
    top = random_good_hom_chain(rng, 4, 2)
    ok &= hom_boundary(hom_boundary(top)).is_empty()
    # cone identity on a raw cycle: d(cone_g sigma) = sigma
    g = random_sl2(rng)
    raw_cycle = hom_boundary(HomChain(4, top.terms))
    ok &= (hom_boundary(cone(g, raw_cycle)) - raw_cycle).is_empty()
    for c in fixtures:
        rr = repair_with_certificate(c, seed=SEED)
        good_ok, _ = is_good(rr.chain)
        cyc_ok, _ = is_cycle(rr.chain)
        res = hom_boundary(rr.homotopy) - (rr.phi_image - rr.original_hom)
        ok &= good_ok and cyc_ok and res.is_empty()
    elapsed = time.time() - t0
    _report(12, "chain algebra + repair certificates", ok and elapsed < 5.0,
            elapsed, f"{len(fixtures)} fixtures")
