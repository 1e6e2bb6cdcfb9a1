"""Over Q a check builds its constants cleared, and the twisted product leaves
the cleared form once.

The image of a check (``twisting._check_image``) carries a field whose
``zeros``, ``identity`` and ``unit_vector`` are cleared integer arrays, so
inside a check the only arrays ever cleared are its inputs: the structure
constants and units of A and B and the gamma grid.  ``build_twisted_product``
runs ``_product_tensor`` on that image and turns the cleared result into
``Fraction`` arrays once; it must equal the ``Fraction`` contraction of the
public arrays.  The public field keeps its ``Fraction`` constants, and F_p is
untouched.
"""

from fractions import Fraction

import numpy as np
import pytest

from test_cleared_routes import _TWISTING
from test_search import _tri_algebra
from twistkit import (
    GF,
    QQ,
    GammaFamily,
    KMatrix,
    build_twisted_product,
    certify,
    check_extension_given_theta,
    direct_sum,
    duplicate_algebra,
    kn_algebra,
    make_kn,
    make_ncd,
    make_quantum_duplicate,
    quadratic_algebra,
    rebase,
    truncated_from_first_row,
    truncated_poly_algebra,
    verify_faithful,
)
from twistkit import extension, fields, twisting
from twistkit.fields import _Cleared

_K1, _K2 = kn_algebra(QQ, 1), kn_algebra(QQ, 2)
_QUAD = quadratic_algebra(QQ, Fraction(1, 2), Fraction(-2, 3))
_TRI = _tri_algebra(QQ)


def _flip(A, B):
    return certify(GammaFamily.flip(A, B))


def _perturbed(c, row=0):
    G = c.family.gamma.copy()
    G[row, 0, 0, 0] += Fraction(1, 3)
    return GammaFamily(c.A, c.B, G)


#: Verified Q candidates with nd = 4, 6 and 9, rational entries among them.
_CHECKED = {
    4: rebase(_TWISTING[1], KMatrix.from_rows(QQ, [["1/2", 1], ["1/3", "-3"]])).candidate,
    6: _flip(_QUAD, truncated_poly_algebra(QQ, 3)),
    9: _flip(_TRI, truncated_poly_algebra(QQ, 3)),
}

#: Verified Q candidates on D = B x C (cut, candidate) with nd = 4, 6 and 9.
_EXTENDED = {
    4: (1, direct_sum(_flip(_K2, _K1), _flip(_K2, _K1))),
    6: (2, direct_sum(_TWISTING[1], _flip(_K2, _K1))),
    9: (1, direct_sum(_flip(_TRI, _K1), _flip(_TRI, truncated_poly_algebra(QQ, 2)))),
}


def _inputs(family) -> set[int]:
    return {id(x) for x in (family.A.lam, family.A.unit, family.B.lam, family.B.unit, family.gamma)}


def _uncleared_clears(monkeypatch, call) -> list[int]:
    """The ids of the arrays that are not in cleared form and that
    ``_clear_denominators`` clears while ``call()`` runs."""
    seen, original = [], fields._clear_denominators

    def recording(x):
        if not isinstance(x, _Cleared):
            seen.append(id(x))
        return original(x)

    with monkeypatch.context() as patch:
        patch.setattr(fields, "_clear_denominators", recording)
        call()
    return seen


@pytest.mark.parametrize("nd", sorted(_CHECKED))
def test_a_check_clears_only_its_inputs(monkeypatch, nd):
    c = _CHECKED[nd]
    assert c.verified and c.B.dim * c.A.dim == nd
    rejected = _perturbed(c)
    calls = [
        ("route_reports", c.family, lambda: twisting.route_reports(c, twisting.ROUTES)),
        ("route_reports.rejected", rejected, lambda: twisting.route_reports(rejected, twisting.ROUTES)),
        ("verify_faithful", c.family, lambda: verify_faithful(c)),
        ("build_twisted_product", c.family, lambda: build_twisted_product(c)),
    ]
    for name, family, call in calls:
        seen = _uncleared_clears(monkeypatch, call)
        assert seen and set(seen) <= _inputs(family), name


@pytest.mark.parametrize("strengthened", [True, False])
@pytest.mark.parametrize("nd", sorted(_EXTENDED))
def test_an_extension_check_clears_only_its_inputs(monkeypatch, nd, strengthened):
    """On a twisting map and on one with Gamma^0_1 = gamma[C][B] perturbed.
    The criterion checks the restriction to B first: the inputs of that
    corner family count as inputs too."""
    n, c = _EXTENDED[nd]
    assert c.verified and c.B.dim * c.A.dim == nd
    corners, corner_family = [], extension._corner_family
    monkeypatch.setattr(extension, "_corner_family", lambda *a: corners.append(corner_family(*a)) or corners[-1])
    for psi, ok in ((c.family, True), (_perturbed(c, row=n), False)):
        corners.clear()
        report = []
        seen = _uncleared_clears(
            monkeypatch, lambda: report.append(check_extension_given_theta(psi, n, require_gamma01_zero=strengthened))
        )
        assert report[0].ok is ok and len(corners) == 1
        assert seen and set(seen) <= _inputs(psi) | _inputs(corners[0])


def test_the_check_field_builds_cleared_constants():
    field = twisting._check_image(_CHECKED[6].family)[0].field
    assert field.kind == "Q" and field is not QQ
    for built, public in [
        (field.zeros((2, 3)), QQ.zeros((2, 3))),
        (field.identity(4), QQ.identity(4)),
        (field.unit_vector(5, 2), QQ.unit_vector(5, 2)),
    ]:
        assert isinstance(built, _Cleared) and built.num.dtype == np.int64 and built.den == 1
        assert built.bound == sum(abs(v) for v in built.num.ravel().tolist())
        assert QQ.equal(built, public) and all(type(v) is Fraction for v in public.flat)


def _large_rebased():
    """A twisting map rebased by P with an entry 2**40 + 1: the bounds of its
    product tensor cross 2**63, so the product runs on Python ints."""
    return rebase(_TWISTING[1], KMatrix(QQ, QQ.asarray([[2**40 + 1, 1], [1, 1]]))).candidate


def _product_candidates():
    ncd = make_ncd(_K2, [[0, 1], [0, 1]], [[1, -1], [0, 0]])
    qdup = make_quantum_duplicate(_K2, 1, 0, [[1, 0], [1, 0]], [[0, 0], [0, 0]])
    kn = make_kn(_K2, 2, [[[[1, 0], [0, 1]], [[0, 0], [0, 0]]], [[[0, 0], [0, 0]], [[1, 0], [0, 1]]]])
    trunc = truncated_from_first_row(duplicate_algebra(QQ), 3, [[[0, 0], [0, 0]], [[1, 0], [0, 1]], [[0, 0], [0, 0]]])
    return {
        "flip.quad.trunc3": _CHECKED[6],
        "flip.tri.trunc3": _CHECKED[9],
        "flip.quad.quad": _flip(_QUAD, _QUAD),
        "ncd": certify(ncd),
        "qdup": certify(qdup),
        "kn": certify(kn),
        "trunc": certify(trunc),
        "rebased": _CHECKED[4],
        "rebased.qdup": rebase(certify(qdup), KMatrix.from_rows(QQ, [[1, "2/5"], ["-1/7", 3]])).candidate,
        "rebased.large": _large_rebased(),
    }


@pytest.mark.parametrize("name", sorted(_product_candidates()))
def test_cleared_product_equals_the_fraction_contraction(name):
    c = _product_candidates()[name]
    assert c.verified
    # the reference: the contraction of the public Fraction arrays
    lam, unit = twisting._product_tensor(c.A, c.B, c.family.gamma)
    algebra = build_twisted_product(c).algebra
    for built, expected in ((algebra.lam, lam), (algebra.unit, unit)):
        assert built.dtype == object and built.shape == expected.shape
        assert all(type(v) is Fraction for v in built.flat)
        assert built.ravel().tolist() == expected.ravel().tolist()


def test_large_product_runs_on_python_ints():
    lam, _ = twisting._product_tensor(*twisting._check_image(_large_rebased().family))
    assert isinstance(lam, _Cleared) and lam.num.dtype == object and lam.bound >= 2**63


@pytest.mark.parametrize("p", [2, 3, 65521])
def test_prime_field_product_is_the_contraction_of_the_family(p):
    field = GF(p)
    A = kn_algebra(field, 2)
    for c in (
        certify(make_ncd(A, [[0, 1], [0, 1]], [[1, p - 1], [0, 0]])),
        certify(GammaFamily.flip(_tri_algebra(field), truncated_poly_algebra(field, 3))),
    ):
        assert c.verified
        lam, unit = twisting._product_tensor(c.A, c.B, c.family.gamma)
        algebra = build_twisted_product(c).algebra
        for built, expected in ((algebra.lam, lam), (algebra.unit, unit)):
            assert built.dtype == np.int64 and np.array_equal(built, expected)
