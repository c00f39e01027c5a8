"""Built-in property suites behind ``ccs selftest``.

Each check prints one line; the runner returns the number of failures.
These are fast smoke versions of the full test suite's properties.
"""

from __future__ import annotations

import time

from .chains import hom_boundary, is_cycle, is_good, repair_with_certificate
from .core import as_rng, hopf, is_inf, moebius, random_sl2, random_vector
from .covering import check_flattening_condition, coords, mu, nu_hat
from .dilog import PI2_6, rogers, rogers_real, vol
from .errors import DegenerateConfig
from .fixtures import random_boundary_cycle, torsion_cycle
from .path_lift import find_positive_base, verify_pq_pattern
from .pipeline import ConfigTuple, ccs_value, sigma_hat
from .real_sl2 import sample_agreement_suite


def _random_config(rng, n: int) -> ConfigTuple:
    while True:
        try:
            return ConfigTuple(tuple(random_vector(rng) for _ in range(n)))
        except DegenerateConfig:
            continue


def run_selftest(seed: int = 0) -> int:
    rng = as_rng(seed)
    failures = 0

    def check(name: str, ok: bool, detail: str = ""):
        nonlocal failures
        line = f"[{'PASS' if ok else 'FAIL'}] {name}"
        if detail:
            line += f"  ({detail})"
        print(line)
        if not ok:
            failures += 1

    t0 = time.time()

    worst = 0.0
    for _ in range(200):
        x = rng.uniform(1e-3, 1 - 1e-3)
        worst = max(worst, abs(rogers(x) + rogers(1 - x) + PI2_6))
    check("rogers reflection", worst < 1e-10, f"max {worst:.2e}")

    worst = 0.0
    for _ in range(200):
        x = rng.uniform(0.05, 0.95)
        y = rng.uniform(0.01, x - 0.01)
        worst = max(worst, abs(sum((-1) ** i * rogers_real(v)
                                   for i, v in enumerate(coords(x, y)))))
    check("rogers five-term", worst < 1e-9, f"max {worst:.2e}")

    worst = 0.0
    for _ in range(200):
        z = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
        if abs(z) < 0.05 or abs(z - 1) < 0.05 or (z.imag == 0 and z.real > 1):
            continue
        worst = max(worst, abs(vol(z) - vol(1 / (1 - z))),
                    abs(vol(z) - vol(1 - 1 / z)))
    check("volume three-fold symmetry", worst < 1e-9, f"max {worst:.2e}")

    worst = 0.0
    for _ in range(200):
        g = random_sl2(rng)
        v = random_vector(rng)
        lhs = moebius(g, hopf(v))
        rhs = hopf(g.apply(v))
        if is_inf(lhs) or is_inf(rhs):
            continue
        worst = max(worst, abs(lhs - rhs))
    check("hopf equivariance", worst < 1e-9, f"max {worst:.2e}")

    worst, inexact = 0.0, 0
    for _ in range(100):
        cfg = _random_config(rng, 5)
        faces = [sigma_hat(cfg.face(i)) for i in range(5)]
        rep = check_flattening_condition(faces)
        worst = max(worst, rep.max_residual)
        inexact += not all(rep.exact)
    check("ten edge equations", worst < 1e-8 and inexact == 0,
          f"max {worst:.2e}, {inexact} without exact cancellation")

    bad = 0
    for _ in range(50):
        cfg = _random_config(rng, 4)
        w = nu_hat([(1, sigma_hat(cfg))])
        w_mu = (mu(cfg[1], cfg[2], cfg[3]) - mu(cfg[0], cfg[2], cfg[3])
                + mu(cfg[0], cfg[1], cfg[3]) - mu(cfg[0], cfg[1], cfg[2]))
        if not (w - w_mu).is_zero():
            bad += 1
    check("wedge square", bad == 0, f"{bad} failures")

    for _ in range(10):
        c = random_boundary_cycle(rng, n_terms=1)
        ok, _ = is_cycle(c)
        if not ok:
            break
    check("boundaries are cycles", ok)

    rr = repair_with_certificate(torsion_cycle(3), seed=seed)
    ok1, _ = is_cycle(rr.chain)
    ok2, _ = is_good(rr.chain)
    res = hom_boundary(rr.homotopy) - (rr.phi_image - rr.original_hom)
    check("repair certificate", ok1 and ok2 and res.is_empty())

    rep = ccs_value(torsion_cycle(3), seed=seed, trials=3)
    off = (rep.value_mod1.real - 1 / 3) % 1.0  # -2/3 mod 1 is 1/3
    dist = min(off, 1.0 - off)
    check("torsion n=3 value",
          dist <= 1e-6 and abs(rep.value_mod1.imag) < 1e-6,
          f"value {rep.value_mod1.real:.9f}")

    rep = ccs_value(random_boundary_cycle(rng, n_terms=1), seed=seed, trials=3)
    dist = min(rep.value_mod1.real, 1 - rep.value_mod1.real)
    check("boundary evaluates to zero", dist < 1e-7 and abs(rep.volume) < 1e-7,
          f"dist {dist:.2e}")

    reports = sample_agreement_suite(seed, samples=50)
    worst = max(r.agreement_error for r in reports)
    check("small-positive agreement", worst == 0.0, f"worst {worst:.2e}")

    base = find_positive_base()
    ok_all = True
    for _ in range(5):
        vec = tuple(rng.randint(-2, 2) for _ in range(5))
        ok_all = ok_all and verify_pq_pattern(*vec, base=base)[0]
    check("winding endpoint pattern", ok_all)

    status = "OK" if failures == 0 else f"{failures} FAILURES"
    print(f"selftest: {status} in {time.time() - t0:.1f}s")
    return failures
