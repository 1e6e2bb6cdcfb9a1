"""Over Q a check builds its constants cleared, and the twisted product leaves
the cleared form once.

The image of a family (``GammaFamily._image``, built once per family)
carries a field whose ``zeros``, ``identity`` and ``unit_vector`` are cleared
integer arrays, so inside a check the only arrays ever cleared are its
inputs: the structure constants and units of A and B and the gamma grid,
each once per family, and the matrices of a base change.
``build_twisted_product`` runs ``_product_tensor`` on that image and turns
the cleared result into ``Fraction`` arrays once; it must equal the
``Fraction`` contraction of the public arrays.  The public field keeps its
``Fraction`` constants, and F_p is untouched.
"""

from collections import Counter
from fractions import Fraction
from functools import cached_property

import numpy as np
import pytest

from test_cleared_routes import _TWISTING
from test_search import _tri_algebra
from twistkit import (
    GF,
    QQ,
    GammaFamily,
    KMatrix,
    TwistingCandidate,
    build_twisted_product,
    certify,
    check_extension_given_theta,
    check_induced_morphism,
    direct_sum,
    duplicate_algebra,
    kn_algebra,
    kn_conditions,
    make_kn,
    make_morphism,
    make_ncd,
    make_quantum_duplicate,
    mat_inverse,
    ncd_conditions,
    qdup_conditions,
    quadratic_algebra,
    rebase,
    truncated_conditions,
    truncated_from_first_row,
    truncated_poly_algebra,
    verify_faithful,
)
from twistkit import extension, fields, twisting
from twistkit.fields import Field, _Cleared

_K1, _K2 = kn_algebra(QQ, 1), kn_algebra(QQ, 2)
_QUAD = quadratic_algebra(QQ, Fraction(1, 2), Fraction(-2, 3))
_TRUNC3 = truncated_poly_algebra(QQ, 3)
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


def _input_arrays(family) -> list:
    """The arrays the image of ``family`` clears: an algebra on both sides once."""
    algebras = (family.A,) if family.B is family.A else (family.A, family.B)
    return [x for algebra in algebras for x in (algebra.lam, algebra.unit)] + [family.gamma]


def _inputs(family) -> set[int]:
    return set(map(id, _input_arrays(family)))


def _fresh(c) -> TwistingCandidate:
    """``c`` on a new family of the same arrays, whose image is not built yet."""
    return TwistingCandidate(GammaFamily(c.A, c.B, c.family.gamma), c.verified)


def _recording_images(monkeypatch) -> list:
    """The families whose image is built while the patch holds, in order."""
    imaged, build = [], GammaFamily._image.func
    recording = cached_property(lambda family: imaged.append(family) or build(family))
    recording.__set_name__(GammaFamily, "_image")
    monkeypatch.setattr(GammaFamily, "_image", recording)
    return imaged


def _cleared_by_field(monkeypatch, call) -> list:
    """Every array that ``Field.cleared`` receives while ``call()`` runs; the
    list holds them, so no two live arrays share an id."""
    seen, original = [], Field.cleared
    with monkeypatch.context() as patch:
        patch.setattr(Field, "cleared", lambda self, x: seen.append(x) or original(self, x))
        call()
    return seen


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


def _rational_endos(count: int, d: int) -> list:
    """``count`` distinct d x d matrices with non-integral rational entries."""
    return [
        QQ.asarray([[Fraction(k + 2 * i - j, 3 + i + k) for j in range(d)] for i in range(d)]) for k in range(count)
    ]


def _family_conditions(A) -> dict:
    """The four ``*_conditions`` entries on rational data over A, each on a
    twisting map (the flip) and on data that is not one."""
    d = A.dim
    eye, zero = QQ.identity(d), QQ.zeros((d, d))
    f, delta, *grid = _rational_endos(12, d)
    kn = [grid[:2], grid[2:4]]
    trunc = [grid[4:7], [zero, eye, zero], grid[7:10]]
    return {
        "ncd_conditions": lambda: ncd_conditions(A, f, delta),
        "ncd_conditions.flip": lambda: ncd_conditions(A, eye, zero),
        "qdup_conditions": lambda: qdup_conditions(A, "1/2", "-2/3", f, delta),
        "qdup_conditions.flip": lambda: qdup_conditions(A, "1/2", "0", eye, zero),
        "kn_conditions": lambda: kn_conditions(A, 2, kn),
        "kn_conditions.flip": lambda: kn_conditions(A, 2, [[eye, zero], [zero, eye]]),
        "truncated_conditions": lambda: truncated_conditions(A, 3, trunc),
        "truncated_conditions.flip": lambda: truncated_conditions(A, 3, GammaFamily.flip(A, _TRUNC3).gamma),
    }


@pytest.mark.parametrize("nd", sorted(_CHECKED))
def test_a_check_clears_only_its_inputs(monkeypatch, nd):
    """The route checks, the product and the faithful form of a candidate
    (each on a fresh family of its arrays), and the four family conditions
    over its A, whose entries build the candidate they check: each check
    builds one image and clears only the inputs of its family."""
    c = _CHECKED[nd]
    assert c.verified and c.B.dim * c.A.dim == nd
    calls = {
        "route_reports": lambda: twisting.route_reports(_fresh(c), twisting.ROUTES),
        "route_reports.rejected": lambda: twisting.route_reports(_perturbed(c), twisting.ROUTES),
        "verify_faithful": lambda: verify_faithful(_fresh(c)),
        "build_twisted_product": lambda: build_twisted_product(_fresh(c)),
        **_family_conditions(c.A),
    }
    imaged = _recording_images(monkeypatch)
    for name, call in calls.items():
        imaged.clear()
        seen = _uncleared_clears(monkeypatch, call)
        assert len(imaged) == 1 and seen and set(seen) <= _inputs(imaged[0]), name


#: Q candidates for the chains below: with nd = 4, 6 and 9, and with A is B.
_CHAINED = {**{str(nd): c for nd, c in _CHECKED.items()}, "A is B": _flip(_QUAD, _QUAD)}


@pytest.mark.parametrize("name", sorted(_CHAINED))
def test_certify_product_and_faithful_form_clear_each_input_once(monkeypatch, name):
    """certify, then build_twisted_product and verify_faithful of the
    certified candidate, share one image: each input is cleared once in all,
    and nothing else is cleared.  They share one product tensor too:
    ``_product_tensor`` runs once in all."""
    c = _CHAINED[name]
    family = _fresh(c).family
    assert (family.A is family.B) is (name == "A is B")
    imaged = _recording_images(monkeypatch)
    products, product_tensor = [], twisting._product_tensor
    monkeypatch.setattr(twisting, "_product_tensor", lambda *args: products.append(args) or product_tensor(*args))

    def chain():
        checked = certify(family)
        assert checked.verified
        build_twisted_product(checked)
        assert verify_faithful(checked).ok

    cleared = _cleared_by_field(monkeypatch, chain)
    assert imaged == [family]
    assert sorted(map(id, cleared)) == sorted(map(id, _input_arrays(family)))
    assert family._image is family._image
    assert len(products) == 1 and all(x is y for x, y in zip(products[0], family._image, strict=True))
    assert family._product is family._product


@pytest.mark.parametrize("name", sorted(_CHAINED))
def test_rebase_and_induced_morphism_clear_each_input_once(monkeypatch, name):
    """rebase, then the induced-morphism criterion between the candidate and
    its rebased form: each family's image is built once and clears that
    family's inputs once (the two families share A, and each image clears
    it), and P, its inverse and the morphism's matrix are each cleared once."""
    c = _CHAINED[name]
    chi = _fresh(c)
    n = c.B.dim
    p = KMatrix(QQ, QQ.asarray([[Fraction(i + 1, j + 2) if i <= j else 0 for j in range(n)] for i in range(n)]))
    imaged = _recording_images(monkeypatch)
    out = {}

    def chain():
        out["rebased"] = rebase(chi, p)
        f = make_morphism(chi.B, out["rebased"].algebra, mat_inverse(p).data)
        out["f"] = f
        out["report"] = check_induced_morphism(chi, out["rebased"].candidate, f)

    cleared = _cleared_by_field(monkeypatch, chain)
    rebased = out["rebased"]
    assert rebased.conjugation.ok and out["report"].ok and rebased.candidate.verified
    new = rebased.candidate.family
    assert imaged == [new, chi.family]
    expected = Counter(map(id, _input_arrays(chi.family) + _input_arrays(new) + [p.data, out["f"].zeta]))
    counts = Counter(map(id, cleared))
    assert all(counts[key] == k for key, k in expected.items())
    # the one array left is P^-1, which rebase computes
    (extra,) = [x for x in cleared if id(x) not in expected]
    assert QQ.equal(extra, mat_inverse(p).data)


@pytest.mark.parametrize("p", [2, 65521])
def test_prime_field_image_is_the_family_itself(p):
    """Over F_p the image holds the family's own algebras and grid, no copies."""
    family = GammaFamily.flip(_tri_algebra(GF(p)), truncated_poly_algebra(GF(p), 3))
    A, B, G = family._image
    assert A is family.A and B is family.B and G is family.gamma
    assert family._image is family._image


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
    field = _CHECKED[6].family._image[0].field
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
    lam, _ = twisting._product_tensor(*_large_rebased().family._image)
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
