"""Branch bookkeeping along paths of five-tuples.

Moving the two free parameters of a five-tuple drags the five face
cross-ratios around the plane; every time one of them crosses a cut its
branch integers jump by 2.  Composite winding loops produce a closed-form
endpoint pattern, reproduced here by direct curve tracking, and the
alternating lifted-Rogers sum stays pinned at zero along the way.
"""

import random

from extbloch.path_lift import (composite_winding_path,
                                expected_endpoint_branches,
                                find_positive_base, five_term_sum_along,
                                lift_path, start_lift, winding_loop)

base = find_positive_base()
print("base point (all five coordinates in the upper half plane):", base)

start = start_lift(*base)
print("five-term sum at the base lift:", abs(five_term_sum_along(start)))

print()
print("= one counterclockwise loop of the first parameter around 0 =")
loop = winding_loop(base, 0, 0.0, 1)
end = lift_path(loop, start)
for i, pt in enumerate(end.points):
    print(f"  coordinate {i}: branches ({pt.p}, {pt.q})")
print("five-term sum after the loop:", abs(five_term_sum_along(end)))

print()
print("= composite loops against the closed form =")
rng = random.Random(5)
for _ in range(5):
    p0, q0, r, p1, q1 = (rng.randint(-3, 3) for _ in range(5))
    path = composite_winding_path(base, p0, q0, r, p1, q1)
    lifted = lift_path(path, start)
    want = expected_endpoint_branches(p0, q0, r, p1, q1)
    status = "match" if lifted.branches() == want else "MISMATCH"
    print(f"windings ({p0:+d},{q0:+d},{r:+d},{p1:+d},{q1:+d}): {status}, "
          f"sum {abs(five_term_sum_along(lifted)):.1e}")
    if status == "MISMATCH":
        print("   got     ", lifted.branches())
        print("   expected", want)
