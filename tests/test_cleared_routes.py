"""Over Q the route checks run on the image of the check (``A`` and ``B``
with cleared structure constants and units, and the cleared grid:
integer numerators over one denominator, ``twisting._check_image``) instead
of ``Fraction`` arrays.

The cleared path must give the reports of the ``Fraction`` path family by
family (tag, witness, left, right and count) on twisting maps and on
non-twisting grids alike, with ``int64`` numerators and, on grids with large
numerators, with Python ints where the bound does not allow ``int64``; the
``verify_faithful`` kernel of the numerators must be the kernel of the
``Fraction`` images.  The ``Fraction`` path is a route generator called on
the ``Fraction`` algebras and grid themselves: without a cleared operand,
``Field._contract`` and ``Field.mismatch`` build and compare ``Fraction``
entries.  No cleared array may leave a public function.
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
    truncated_from_first_row,
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

#: Numerators near 2**31 and 2**40: the bounds of the products built from a
#: grid of them cross 2**63, so its checks run partly on Python ints.
LARGE_RATIONALS = st.builds(
    Fraction,
    st.sampled_from([2**31, 2**40]).flatmap(lambda s: st.integers(-s - 9, -s + 9) | st.integers(s - 9, s + 9)),
    st.sampled_from([1, 2, 3]),
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
    basis, or a random grid of small or large entries; then possibly
    perturbed in one entry."""
    kind = draw(st.sampled_from(["flip", "twisting", "rebased", "random", "large"]))
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
        if kind in ("random", "large"):
            values = RATIONALS if kind == "random" else RATIONALS | LARGE_RATIONALS
            entries = draw(st.lists(values, min_size=G.size, max_size=G.size))
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
    image = twisting._check_image(GammaFamily(A, B, G))
    assert all(isinstance(a, _Cleared) for a in (image[0].lam, image[1].unit, image[2]))
    # the image of the check, and the cleared grid alone with Fraction algebras
    for cA, cB, C in (image, (A, B, image[2])):
        for route, pairs in GENERATORS.items():
            cleared, fraction = list(pairs(cA, cB, C)), list(pairs(A, B, G))
            assert [t for t, _, _ in cleared] == [t for t, _, _ in fraction]
            for (tag, left, right), (_, f_left, f_right) in zip(cleared, fraction):
                assert all(isinstance(v, Fraction) for side in (f_left, f_right) for v in side.flat), tag
                assert QQ.equal(left, f_left) and QQ.equal(right, f_right), (route, tag)
                for side in (left, right):
                    _check_numerators(side)
            report = pairs_report(QQ, fraction)
            assert pairs_report(QQ, cleared) == report, route
            assert pairs_ok(QQ, pairs(cA, cB, C)) is report.ok
        images, f_images = twisting._faithful_tensor(cA, cB, C), twisting._faithful_tensor(A, B, G)
        assert QQ.equal(images, f_images)
        assert pairs_report(QQ, twisting._faithful_pairs(cA, cB, C, images)) == pairs_report(
            QQ, twisting._faithful_pairs(A, B, G, f_images)
        )
        assert _kernel(QQ, A, B, images) == _kernel(QQ, A, B, f_images)


def _check_numerators(side) -> None:
    """A cleared side holds exact integers within its bound: ``int64`` only
    below 2**63, Python ints otherwise."""
    if isinstance(side, _Cleared):
        assert sum(abs(v) for v in side.num.ravel().tolist()) <= side.bound
        assert side.num.dtype == object or (side.num.dtype == np.int64 and side.bound < 2**63)
        assert side.num.dtype == np.int64 or all(type(v) is int for v in side.num.flat)


def test_large_grids_check_on_both_dtypes_and_report_like_fractions():
    """A grid with numerators near 2**40 puts the unit families on ``int64``
    and the product tensor's associativity on Python ints; the reports match
    the ``Fraction`` path."""
    A, B = ALGEBRAS[3], ALGEBRAS[2]
    G = GammaFamily.flip(A, B).gamma.copy()
    G[0, 0, 0, 0] += Fraction(2**40 + 3, 3)
    image = twisting._check_image(GammaFamily(A, B, G))
    pairs = twisting._oracle_pairs(*image)
    dtypes = {tag: {side.num.dtype for side in sides if isinstance(side, _Cleared)} for tag, *sides in pairs}
    assert dtypes["oracle.chi-left-unit"] == {np.dtype(np.int64)}
    assert dtypes["oracle.assoc"] == {np.dtype(object)}
    for route, pairs in GENERATORS.items():
        assert pairs_report(QQ, pairs(*image)) == pairs_report(QQ, pairs(A, B, G)), route


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
    assert all(type(v) is bool for v in verdicts)
    assert not any(verdicts) and not certify(bad).verified
    for route, report in twisting.route_reports(bad, twisting.ROUTES).items():
        assert not report.ok, route
        for failure in report.failures:
            assert _canonical(failure.left) and _canonical(failure.right), (route, failure)


def test_an_algebra_on_both_sides_of_a_check_is_cleared_once(monkeypatch):
    from twistkit.fields import Field

    calls, original = [], Field.cleared
    monkeypatch.setattr(Field, "cleared", lambda self, x: calls.append(x) or original(self, x))
    A = ALGEBRAS[3]
    family = GammaFamily.flip(A, A)
    A_image, B_image, _ = twisting._check_image(family)
    assert A_image is B_image
    assert [id(x) for x in calls] == [id(A.lam), id(A.unit), id(family.gamma)]


# -- every check of the table against the Fraction fold ------------------------------

#: The carrier of each catalog check.
CARRIERS = {
    "ncd": st.just(duplicate_algebra(QQ)),
    "qdup": st.builds(quadratic_algebra, st.just(QQ), RATIONALS, RATIONALS),
    "kn": st.integers(1, 3).map(lambda n: kn_algebra(QQ, n)),
    "trunc": st.integers(1, 4).map(lambda n: truncated_poly_algebra(QQ, n)),
}


@st.composite
def catalog_candidates(draw, key):
    """(A, B, G) on the carrier of a catalog check: the flip, a grid of the
    family's shape (a duplicate grid, or a truncated grid generated from a
    random exponent-1 row), or a random grid of small or large entries; then
    possibly perturbed in one entry."""
    A, B = draw(st.sampled_from(ALGEBRAS)), draw(CARRIERS[key])
    n, d = B.dim, A.dim
    G = GammaFamily.flip(A, B).gamma.copy()
    kind = draw(st.sampled_from(["flip", "family", "random", "large"]))
    if kind in ("random", "large"):
        values = RATIONALS if kind == "random" else RATIONALS | LARGE_RATIONALS
        G = np.array(draw(st.lists(values, min_size=G.size, max_size=G.size)), dtype=object).reshape(G.shape)
    elif kind == "family" and key in ("ncd", "qdup"):
        G[1] = np.array(draw(st.lists(RATIONALS, min_size=2 * d * d, max_size=2 * d * d)), dtype=object).reshape(2, d, d)
    elif kind == "family" and key == "trunc" and n >= 2:
        row = np.array(draw(st.lists(RATIONALS, min_size=n * d * d, max_size=n * d * d)), dtype=object)
        G = truncated_from_first_row(A, n, row.reshape(n, d, d)).family.gamma.copy()
    if draw(st.booleans()):
        index = tuple(draw(st.integers(0, k - 1)) for k in G.shape)
        G[index] += draw(RATIONALS.filter(bool))
    return A, B, G


def _checked(key):
    return st.tuples(st.just(key), q_candidates() if key in twisting.ROUTES else catalog_candidates(key))


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(list(twisting.CHECKS)).flatmap(_checked))
def test_every_check_reports_like_the_fraction_fold(case):
    """``route_reports`` of each key of ``CHECKS``, which runs on the image of
    the check, equals ``pairs_report`` of the key's generators on the raw
    ``Fraction`` arrays; every cleared side holds its bound."""
    key, (A, B, G) = case
    fraction = [family for pairs in twisting.CHECKS[key] for family in pairs(A, B, G)]
    assert not any(isinstance(side, _Cleared) for _, *sides in fraction for side in sides)
    family = GammaFamily(A, B, G)
    assert twisting.route_reports(family, [key])[key] == pairs_report(QQ, fraction)
    for tag, *sides in twisting.route_pairs(key, *twisting._check_image(family)):
        for side in sides:
            _check_numerators(side)
