"""
Three routes to the same verdict
================================

A candidate map chi: A (x) B -> B (x) A is a grid of endomorphisms of A,
one per pair of carrier basis vectors.  Whether it makes B (x) A into an
associative unital algebra with both factors embedded can be decided three
ways: the four structure-constant conditions on the grid, the two
matrix-representation criteria, or by brute force from the definition.
They always agree; each route's report names the first condition that fails.
"""

from twistkit import (
    QQ,
    GammaFamily,
    certify,
    chi_eval,
    duplicate_algebra,
    kn_algebra,
    make_ncd,
)
from twistkit.twisting import ROUTES, direct_ok, route_reports

A = kn_algebra(QQ, 2)
B = duplicate_algebra(QQ)

# The flip grid encodes the ordinary tensor product; it passes every route:
# the conditions (direct), the End-valued (rho) and A-valued (phi) criteria,
# both together (rep), and the definition-level oracle.
flip = GammaFamily.flip(A, B)
print("flip:")
for route, report in route_reports(flip, ROUTES).items():
    print(f"  {route}:", report.ok)

# A duplicate candidate built from an idempotent endomorphism f(x, y) = (x, x).
cand = make_ncd(A, [[1, 0], [1, 0]], [[0, 0], [0, 0]])
print("\nidempotent duplicate:", direct_ok(cand.family))

# chi itself is evaluated through the grid: chi(a (x) X) lands in B (x) A.
a = A.element([3, "1/2"])
x = B.basis_element(1)
print("chi(a (x) X) coordinates:", QQ.format_array(chi_eval(cand.family, a, x)))

# Certification stamps the candidate; downstream constructions insist on it.
verified = certify(cand)
print("verified:", verified.verified)

# A failing candidate names its first violated condition: f(1) must be 1.
bad = make_ncd(A, [[0, 1], [0, 0]], [[0, 0], [0, 0]])
reports = route_reports(bad.family, ["direct", "oracle"])
report = reports["direct"]
print("\nprojection endomorphism verdict:", report.ok)
for failure in report.failures:
    print("  ", failure.condition, "witness", failure.witness,
          "left", failure.left, "right", failure.right)
oracle = reports["oracle"]
print("oracle agrees:", oracle.ok, "first failing axiom:", oracle.failures[0].condition)
