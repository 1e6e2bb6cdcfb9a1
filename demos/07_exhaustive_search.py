"""
Exhaustive search and cross-validation over prime fields
========================================================

At tiny dimensions every candidate grid can be enumerated: entries are
base-p digits, most significant first, so lexicographic grid order equals
numeric index order.  Enumeration is deterministic, restartable from any
index, and splittable into contiguous ranges whose results merge in order.
Only the grids that pass a route's affine unit families (an exactly solved
coset) are evaluated; every other grid is rejected by that route.  The
cross-validation harness runs all three verification routes on the union of
their cosets and reports the first disagreement (there is none).
"""

import time

from twistkit import (
    GF,
    GammaFamily,
    SearchSpace,
    cross_validate,
    duplicate_algebra,
    enumerate_space,
    kn_algebra,
)

F2 = GF(2)

# The smallest space: one-dimensional A and carrier over F_2 holds exactly
# two candidates, and only the identity grid survives.
tiny = SearchSpace(kn_algebra(F2, 1), kn_algebra(F2, 1))
print("tiny space size:", tiny.total, "accepted:", enumerate_space(tiny, "all"))

# Two-dimensional A and carrier over F_2: 65536 candidates.
space = SearchSpace(kn_algebra(F2, 2), kn_algebra(F2, 2))
print("\nK^2 twisting K^2 over F_2:", space.total, "candidates")

started = time.monotonic()
accepted = enumerate_space(space, checker="direct")
print(f"accepted ({len(accepted)} in {time.monotonic() - started:.1f}s):", accepted)

flip_index = space.index_of_gamma(GammaFamily.flip(space.A, space.B).gamma)
print("flip grid index:", flip_index, "accepted:", flip_index in accepted)

started = time.monotonic()
report = cross_validate(space)
print(f"\nthree-route unanimity over all candidates: {report.ok} "
      f"({time.monotonic() - started:.1f}s)")

# Ranges partition the work deterministically.
lower = enumerate_space(space, "direct", start=0, stop=space.total // 2)
upper = enumerate_space(space, "direct", start=space.total // 2)
print("range split merges to the same list:", lower + upper == accepted)

# The duplicate carrier over F_2 accepts the same number of candidates as
# there are (f, delta) pairs passing the duplicate conditions.
dup_space = SearchSpace(kn_algebra(F2, 2), duplicate_algebra(F2))
dup_accepted = enumerate_space(dup_space, "direct")
print("\nduplicate carrier accepted count:", len(dup_accepted))
