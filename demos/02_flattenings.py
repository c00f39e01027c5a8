"""Covering points, log-determinant flattenings, and the edge equations.

A 4-tuple of vectors in C^2 \\ {0} determines an ideal simplex through the
Hopf map; the logarithms of its pairwise determinants choose branches for
the cross-ratio, i.e. a point of the branched cover.  Five vectors give
five simplices whose flattenings satisfy ten signed edge equations, and
the wedge image of a boundary cancels exactly.
"""

import random

from extbloch import (ConfigTuple, ProjVector, check_flattening_condition,
                      cross_ratio, from_covering_point, hopf, mu, nu_hat,
                      sigma_hat, to_covering_point)
from extbloch.core import random_vector
from extbloch.errors import DegenerateConfig

print("= the reference configuration =")
cfg = ConfigTuple((ProjVector(1, 0), ProjVector(0, 1),
                   ProjVector(1, 1), ProjVector(1, 2)))
triple = sigma_hat(cfg)
print("log-parameters:", triple.values())
pt = to_covering_point(triple)
print("covering point:", pt)
print("sphere cross-ratio:",
      cross_ratio(*(hopf(v) for v in cfg.vectors)))

print()
print("= round trip between points and flattenings =")
back = from_covering_point(pt)
print("recovered w0, w1:", back.w0, back.w1)

print()
print("= ten edge equations on a random five-vector configuration =")
rng = random.Random(7)


def random_config(n):
    while True:
        try:
            return ConfigTuple(tuple(random_vector(rng) for _ in range(n)))
        except DegenerateConfig:
            continue


big = random_config(5)
faces = [sigma_hat(big.face(i)) for i in range(5)]
report = check_flattening_condition(faces)
for label, residual in report.residuals:
    print(f"  edge {label}: |signed sum| = {residual:.2e}")
print("exact ledger cancellation on every equation:", all(report.exact))

print()
print("= the wedge square: nu(sigma(v)) = mu(dv), exactly =")
small = random_config(4)
lhs = nu_hat([(1, sigma_hat(small))])
rhs = (mu(small[1], small[2], small[3]) - mu(small[0], small[2], small[3])
       + mu(small[0], small[1], small[3]) - mu(small[0], small[1], small[2]))
print("difference cancels to zero:", (lhs - rhs).is_zero())
print("and the wedge of a boundary is zero on the nose:")
boundary = [((-1) ** i, sigma_hat(big.face(i))) for i in range(5)]
print("  nu(sigma(d(v0..v4))) == 0:", nu_hat(boundary).is_zero())
