"""Positivity and ordering in SL(2,R), and the flat termwise picture.

Near the identity the c-entry order sorts tuples uniquely, and triples of
small positive elements produce configurations whose evaluation is the
plain real Rogers cocycle: principal branches, cross-ratio in (0, 1),
exact agreement.
"""

import random

from extbloch.real_sl2 import (RealGroupElement, check_small_positive_agreement,
                               is_positive, less, rogers_cocycle,
                               sample_small_positive, sort_tuple)

rng = random.Random(9)

print("= positivity and the partial order =")
g1 = RealGroupElement(1, 0, 1, 1)
g2 = RealGroupElement(1, 0, 2, 1)
print("lower-left entries decide:", is_positive(g1), is_positive(g2))
print("g1 < g2:", less(g1, g2), "  g2 < g1:", less(g2, g1))

print()
print("= sorting tuples of partial products =")
els = [sample_small_positive(rng) for _ in range(4)]
prods = [els[0]]
for e in els[1:]:
    prods.append(prods[-1] @ e)
shuffled = tuple(prods[i] for i in (2, 0, 3, 1))
perm = sort_tuple(shuffled)
print("recovering the ascending order from a shuffle:", perm)

print()
print("= the real Rogers cocycle on boundary points =")
e = RealGroupElement.identity()
g1, g2, g3 = (sample_small_positive(rng) for _ in range(3))
print("cocycle value:", rogers_cocycle(e, g1, g1 @ g2, g1 @ g2 @ g3))

print()
print("= termwise agreement on small positive triples =")
for k in range(3):
    gs = [sample_small_positive(rng) for _ in range(3)]
    rep = check_small_positive_agreement(*gs)
    print(f"triple {k}: cross-ratio {rep.cross_ratio:.6f} on branch "
          f"({rep.covering_p}, {rep.covering_q}), boundary points "
          f"descending, agreement error {rep.agreement_error}")
print("the branch integers vanish and the lifted value IS the real one")
