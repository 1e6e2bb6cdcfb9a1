"""Over Q the route checks run on the cleared grid (Python-int numerators
over one denominator, ``Field.cleared``) instead of ``Fraction`` arrays.

The cleared path must give the reports of the ``Fraction`` path family by
family (tag, witness, left, right and count) on twisting maps and on
non-twisting grids alike, and the ``verify_faithful`` kernel of the
numerators must be the kernel of the ``Fraction`` images.  The ``Fraction``
path is a route generator called on the ``Fraction`` grid itself: without a
cleared operand, ``Field._contract`` and ``Field.mismatch`` build and
compare ``Fraction`` entries.  No cleared array may leave a public function.
"""

from fractions import Fraction

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from test_search import _tri_algebra
from twistkit import (
    QQ,
    GammaFamily,
    KMatrix,
    build_twisted_product,
    certify,
    chi_eval,
    duplicate_algebra,
    faithful_rep,
    kernel_basis,
    kn_algebra,
    lift_structure_matrix,
    make_ncd,
    make_quantum_duplicate,
    phi_hat,
    quadratic_algebra,
    rebase,
    rho_hat,
    truncated_poly_algebra,
)
from twistkit import twisting
from twistkit.fields import _Cleared
from twistkit.report import pairs_ok, pairs_report

GENERATORS = {
    "direct": twisting._direct_pairs,
    "rho": twisting._rho_pairs,
    "phi": twisting._phi_pairs,
    "oracle": twisting._oracle_pairs,
}

#: Algebras over Q up to dimension 3, two with non-integral structure constants.
ALGEBRAS = [
    kn_algebra(QQ, 2),
    duplicate_algebra(QQ),
    truncated_poly_algebra(QQ, 3),
    quadratic_algebra(QQ, Fraction(1, 2), Fraction(-2, 3)),
    quadratic_algebra(QQ, 3, Fraction(5, 7)),
    _tri_algebra(QQ),
]

#: Zeros, small integers and mixed (also large prime) denominators.
RATIONALS = st.builds(
    Fraction,
    st.sampled_from([0, 0, 1, -1]) | st.integers(-9, 9),
    st.sampled_from([1, 1, 2, 3, 4, 9, 10**9 + 7]),
)

_K2 = kn_algebra(QQ, 2)
#: Twisting maps with a 2-dimensional carrier, for rebasing.
_TWISTING = [
    certify(make_ncd(_K2, [[1, 0], [1, 0]], [[0, 0], [0, 0]])),
    certify(make_ncd(_K2, [[0, 1], [0, 1]], [[1, -1], [0, 0]])),
    certify(make_quantum_duplicate(_K2, 1, 0, [[1, 0], [1, 0]], [[0, 0], [0, 0]])),
    certify(GammaFamily.flip(quadratic_algebra(QQ, Fraction(1, 2), 1), truncated_poly_algebra(QQ, 2))),
]


@st.composite
def q_candidates(draw):
    """(A, B, G): a twisting map as built, rebased by a random rational carrier
    basis, or a random grid; then possibly perturbed in one entry."""
    kind = draw(st.sampled_from(["flip", "twisting", "rebased", "random"]))
    if kind in ("twisting", "rebased"):
        candidate = draw(st.sampled_from(_TWISTING))
        if kind == "rebased":  # P = U L: invertible upper times unipotent lower
            a, c = draw(RATIONALS.filter(bool)), draw(RATIONALS.filter(bool))
            b, e = draw(RATIONALS), draw(RATIONALS)
            p = QQ.asarray([[a + b * e, b], [c * e, c]])
            candidate = rebase(candidate, KMatrix(QQ, p)).candidate
        A, B, G = candidate.A, candidate.B, candidate.family.gamma.copy()
    else:
        A, B = draw(st.sampled_from(ALGEBRAS)), draw(st.sampled_from(ALGEBRAS))
        G = GammaFamily.flip(A, B).gamma.copy()
        if kind == "random":
            entries = draw(st.lists(RATIONALS, min_size=G.size, max_size=G.size))
            G = np.array(entries, dtype=object).reshape(G.shape)
    if draw(st.booleans()):
        index = tuple(draw(st.integers(0, k - 1)) for k in G.shape)
        G[index] += draw(RATIONALS.filter(bool))
    return A, B, G


def _kernel(field, A, B, images):
    n, d = B.dim, A.dim
    flat = field.numerators(images).reshape(n * d, n * n * d).T
    return [field.format_array(v) for v in kernel_basis(KMatrix(field, flat.copy()))]


@settings(max_examples=150, deadline=None)
@given(q_candidates())
def test_cleared_path_reports_equal_fraction_path_reports(candidate):
    A, B, G = candidate
    C = QQ.cleared(G)
    assert isinstance(C, _Cleared)
    for route, pairs in GENERATORS.items():
        cleared, fraction = list(pairs(A, B, C)), list(pairs(A, B, G))
        assert [t for t, _, _ in cleared] == [t for t, _, _ in fraction]
        for (tag, left, right), (_, f_left, f_right) in zip(cleared, fraction):
            assert all(isinstance(v, Fraction) for side in (f_left, f_right) for v in side.flat), tag
            assert QQ.equal(left, f_left) and QQ.equal(right, f_right), (route, tag)
        report = pairs_report(QQ, fraction)
        assert pairs_report(QQ, cleared) == report, route
        assert pairs_ok(QQ, pairs(A, B, C)) is report.ok
    images, f_images = twisting._faithful_tensor(A, B, C), twisting._faithful_tensor(A, B, G)
    assert QQ.equal(images, f_images)
    assert pairs_report(QQ, twisting._faithful_pairs(A, B, C, images)) == pairs_report(
        QQ, twisting._faithful_pairs(A, B, G, f_images)
    )
    assert _kernel(QQ, A, B, images) == _kernel(QQ, A, B, f_images)


def _fractions_only(arr) -> bool:
    return isinstance(arr, np.ndarray) and arr.dtype == object and all(type(v) is Fraction for v in arr.flat)


def _canonical(value) -> bool:
    if isinstance(value, list):
        return all(_canonical(v) for v in value)
    return isinstance(value, str) and QQ.format(QQ.parse(value)) == value


def test_no_cleared_array_leaves_a_public_function():
    p = KMatrix.from_rows(QQ, [["1/2", 1], ["1/3", "-3"]])
    c = rebase(_TWISTING[1], p).candidate
    assert c.verified and not all(v.denominator == 1 for v in c.family.gamma.flat)
    product = build_twisted_product(c)
    rep = faithful_rep(c)
    a, b = QQ.asarray(["1/3", -2]), QQ.asarray([1, "5/4"])
    arrays = {
        "product.lam": product.algebra.lam,
        "product.unit": product.algebra.unit,
        "include_A": product.include_A(a),
        "include_B": product.include_B(b),
        "faithful.apply": rep.apply(QQ.asarray([1, 0, "1/2", 2])).data,
        "rho_hat": rho_hat(c, 1).data,
        "phi_hat": phi_hat(c, a).data,
        "chi_eval": chi_eval(c, a, b),
        "lift_structure_matrix": lift_structure_matrix(c, 1).data,
    }
    arrays.update({f"faithful.on_basis[{k}]": m.data for k, m in enumerate(rep.on_basis)})
    assert all(c.verified for c in _TWISTING)
    for name, arr in arrays.items():
        assert _fractions_only(arr), name
    assert twisting.verify_faithful(c).ok

    G = c.family.gamma.copy()
    G[0, 1, 1, 0] += Fraction(1, 3)
    bad = GammaFamily(c.A, c.B, G)
    verdicts = [twisting.direct_ok(bad)] + [twisting.route_ok(route, bad) for route in twisting.ROUTES]
    assert all(type(v) is bool for v in verdicts + list(twisting.direct_condition_flags(bad)))
    assert not any(verdicts) and not certify(bad).verified
    for route, report in twisting.route_reports(bad, twisting.ROUTES).items():
        assert not report.ok, route
        for failure in report.failures:
            assert _canonical(failure.left) and _canonical(failure.right), (route, failure)
