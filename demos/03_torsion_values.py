"""End-to-end evaluation of cycles: torsion families and boundaries.

The rotation fixtures sum_i [t | t^i | t] (t a rotation by 2 pi / n) are
the desk-scale cycles with nonzero values: the evaluation detects the
order-n torsion class, returning a rational of denominator n (times 2).
Boundaries evaluate to zero, and the value is independent of every choice
made along the way (repair, generic vector), which the trials confirm.
"""

import random

from extbloch import (ccs_value, is_cycle, is_good, repair_with_certificate,
                      torsion_cycle)
from extbloch.chains import hom_boundary
from extbloch.fixtures import five_term_boundary, random_boundary_cycle

print("= the rotation cycles =")
for n in (2, 3, 4, 5):
    c = torsion_cycle(n)
    ok, _ = is_cycle(c)
    good, _ = is_good(c)
    print(f"n={n}: cycle={ok}, good={good} "
          "(the +-coincidences force a repair)")

print()
print("= repair with a homotopy certificate =")
rr = repair_with_certificate(torsion_cycle(3), seed=11)
print("repaired terms:", len(rr.chain), " certificate terms:", len(rr.homotopy))
residual = hom_boundary(rr.homotopy) - (rr.phi_image - rr.original_hom)
print("d(certificate) == repaired - original:", residual.is_empty())

print()
print("= evaluations =")
for n in (2, 3, 4, 5):
    rep = ccs_value(torsion_cycle(n), seed=1, trials=5)
    print(f"n={n}: value mod 1 = {rep.value_mod1.real:.9f}  "
          f"volume = {rep.volume:.1e}  trial spread = {rep.max_trial_deviation:.1e}")
print("(n=2 sits in the kernel: twice one half is zero mod 1)")

print()
print("= boundaries evaluate to zero =")
rng = random.Random(3)
for label, chain in (("random boundary", random_boundary_cycle(rng)),
                     ("five-term fixture", five_term_boundary(0.5, 0.25))):
    rep = ccs_value(chain, seed=2, trials=3)
    dist = min(rep.value_mod1.real, 1 - rep.value_mod1.real)
    print(f"{label}: distance from 0 mod 1 = {dist:.2e}, "
          f"volume = {rep.volume:.2e}")
