import ast
import random
from pathlib import Path

import numpy as np
import pytest

import twistkit
from twistkit import (
    DimensionMismatchError,
    EndoMatrix,
    GF,
    GammaFamily,
    KMatrix,
    QQ,
    TwistingCandidate,
    UnverifiedCandidateError,
    build_twisted_product,
    certify,
    chi_eval,
    duplicate_algebra,
    faithful_rep,
    kn_algebra,
    lift_structure_matrix,
    make_kn,
    make_ncd,
    make_quantum_duplicate,
    ncd_conditions,
    phi_hat,
    quadratic_algebra,
    rho_hat,
    truncated_poly_algebra,
    validate_algebra,
    verify_faithful,
)
from twistkit.report import Failure, VerificationReport
from twistkit.twisting import (
    CHECKS,
    ROUTES,
    UNIT_FAMILIES,
    direct_ok,
    route_ok,
    route_pairs,
    route_reports,
    unit_pairs,
)

F3 = GF(3)
F5 = GF(5)


def ncd_family(field, f, delta):
    return make_ncd(kn_algebra(field, 2), f, delta).family


def seeded_families(field, count, n=2, d=2, seed=20240817):
    """Deterministic pseudo-random gamma grids (mostly failing candidates)."""
    rng = random.Random(seed)
    a = kn_algebra(field, d)
    b = kn_algebra(field, n)
    out = []
    for _ in range(count):
        grid = field.asarray(
            [[[[rng.randrange(field.p) for _ in range(d)] for _ in range(d)] for _ in range(n)] for _ in range(n)]
        )
        out.append(GammaFamily(a, b, grid))
    return out


def seeded_ncd_pairs(field, count, seed=901):
    rng = random.Random(seed)
    a = kn_algebra(field, 2)
    out = []
    for _ in range(count):
        f = [[rng.randrange(field.p) for _ in range(2)] for _ in range(2)]
        delta = [[rng.randrange(field.p) for _ in range(2)] for _ in range(2)]
        out.append((a, f, delta))
    return out


# -- chi evaluation ------------------------------------------------------------


def test_chi_flip_swaps_factors(flip_22_f2, f2):
    a = f2.asarray([1, 0])
    b = f2.asarray([1, 1])
    out = chi_eval(flip_22_f2, a, b)
    # b (x) a in the (carrier, twisted) ordering
    expected = f2.tensordot(b, a, axes=0).reshape(4)
    assert f2.equal(out, expected)


def test_chi_duplicate_family_display(generic_markers_f5):
    f, delta = generic_markers_f5
    fam = ncd_family(F5, f, delta)
    a = F5.asarray([1, 2])
    x = F5.asarray([0, 1])
    out = chi_eval(fam, a, x)
    expected = F5.zeros((4,))
    expected[0:2] = delta.apply(a)   # coefficient of the unit basis vector
    expected[2:4] = f.apply(a)       # coefficient of X
    assert F5.equal(out, expected)


def test_chi_left_unit_forced_by_condition_one(ncd_idempotent_q):
    fam = ncd_idempotent_q.family
    one_a = fam.A.unit
    for i in range(fam.B.dim):
        out = chi_eval(fam, one_a, fam.B.basis_element(i))
        expected = QQ.zeros((4,))
        expected[2 * i : 2 * i + 2] = one_a
        assert QQ.equal(out, expected)


def test_chi_right_unit_for_verified(ncd_idempotent_q):
    fam = ncd_idempotent_q.family
    for p in range(fam.A.dim):
        a = fam.A.basis_element(p)
        out = chi_eval(fam, a, fam.B.unit)
        expected = QQ.zeros((4,))
        expected[0:2] = a  # 1_B (x) a, unit of the carrier is its first basis vector
        assert QQ.equal(out, expected)


@pytest.mark.parametrize(
    "a, b, message",
    [
        ([1, 0], [[1, 0], [0, 1]], r"^b: expected 2 coordinates, got shape \(2, 2\)$"),
        ([1, 0], [[1], [0]], r"^b: expected 2 coordinates, got shape \(2, 1\)$"),
        ([[1], [0]], [1, 0], r"^a: expected 2 coordinates, got shape \(2, 1\)$"),
    ],
    ids=["matrix-b", "column-b", "column-a"],
)
def test_chi_eval_refuses_a_wrong_shape_element(ncd_idempotent_q, a, b, message):
    """A matrix or a column is refused as an element, not reshaped or
    multiplied by numpy, and the refusal names the element."""
    with pytest.raises(DimensionMismatchError, match=message):
        chi_eval(ncd_idempotent_q, a, b)


# -- the direct checker ----------------------------------------------------------


def test_flip_passes_everywhere(flip_22_f2):
    assert all(report.ok for report in route_reports(flip_22_f2, ROUTES).values())


def test_idempotent_f_passes(ncd_idempotent_q):
    assert ncd_idempotent_q.verified


def test_projection_f_fails_on_unit():
    fam = ncd_family(QQ, [[0, 1], [0, 0]], [[0, 0], [0, 0]])  # f(x, y) = (y, 0)
    reports = route_reports(fam, ["direct", "oracle"])
    assert not reports["direct"].ok
    assert "direct.1" in reports["direct"].conditions()
    assert not reports["oracle"].ok


# -- displayed representation matrices ---------------------------------------------


def test_rho_hat_duplicate_display(generic_markers_f5):
    f, delta = generic_markers_f5
    fam = ncd_family(F5, f, delta)
    rho_x = rho_hat(fam, 1)
    expected = F5.zeros((2, 2, 2, 2))
    expected[0, 0] = delta.data
    expected[1, 0] = f.data
    expected[1, 1] = F5.add(delta.data, f.data)
    assert rho_x == EndoMatrix(F5, expected)
    rho_one = rho_hat(fam, 0)
    assert rho_one == EndoMatrix.identity(F5, 2, 2)


def test_rho_hat_quantum_display(generic_markers_f5):
    f, delta = generic_markers_f5
    alpha, beta = 2, 3
    fam = make_quantum_duplicate(kn_algebra(F5, 2), alpha, beta, f, delta).family
    rho_x = rho_hat(fam, 1)
    expected = F5.zeros((2, 2, 2, 2))
    expected[0, 0] = delta.data
    expected[0, 1] = F5.reduce(-beta * f.data)
    expected[1, 0] = f.data
    expected[1, 1] = F5.add(delta.data, F5.reduce(alpha * f.data))
    assert rho_x == EndoMatrix(F5, expected)


def test_rho_hat_kn_is_diagonal():
    grids = [[[[1, 2], [3, 4]], [[0, 1], [1, 1]]], [[[2, 0], [0, 2]], [[1, 1], [0, 1]]]]
    fam = make_kn(kn_algebra(F5, 2), 2, grids).family
    for i in range(2):
        rho = rho_hat(fam, i)
        for u in range(2):
            for v in range(2):
                entry = rho.entry(u, v)
                if u == v:
                    assert F5.equal(entry.data, fam.gamma[i, u])
                else:
                    assert entry.is_zero()


@pytest.mark.parametrize("field", [F3, QQ], ids=["F3", "Q"])
def test_rho_hat_is_one_slice_of_the_rho_tensor(field):
    """``rho_hat(c, k)`` contracts only ``gamma[k]``; it equals the k-th
    matrix of the whole tensor on random grids over K[X]/(X^2 - X + 2)."""
    from fractions import Fraction

    from twistkit.twisting import _rho_tensor

    rng = random.Random(f"rho_hat/{field}")
    A = kn_algebra(field, 2)
    B = quadratic_algebra(field, 1, 2)
    def draw():
        return rng.randrange(3) if field is F3 else Fraction(rng.randrange(-5, 6), rng.randrange(1, 4))

    grids = []
    for _ in range(5):
        grid = field.asarray([[[[draw() for _ in range(2)] for _ in range(2)] for _ in range(2)] for _ in range(2)])
        fam = GammaFamily(A, B, grid)
        whole = _rho_tensor(field, B.lam, fam.gamma)
        for k in range(B.dim):
            assert field.equal(rho_hat(fam, k).data, whole[k]), k
            # R_k[i][m] = sum_l lam[m, l, i] gamma[k][l], one entry at a time
            for i in range(B.dim):
                for m in range(B.dim):
                    expected = sum((B.lam[m, l, i] * grid[k, l] for l in range(B.dim)), field.zeros((2, 2)))
                    assert field.equal(whole[k, i, m], field.reduce(expected)), (k, i, m)
        grids.append(grid)
    stack = _rho_tensor(field, B.lam, np.stack(grids))
    assert all(field.equal(stack[s], _rho_tensor(field, B.lam, g)) for s, g in enumerate(grids))


def test_phi_hat_duplicate_display(generic_markers_f5):
    f, delta = generic_markers_f5
    fam = ncd_family(F5, f, delta)
    a = F5.asarray([2, 1])
    mat = phi_hat(fam, a)
    assert F5.equal(mat.data[0, 0], a)
    assert F5.equal(mat.data[0, 1], delta.apply(a))
    assert F5.is_zero(mat.data[1, 0])
    assert F5.equal(mat.data[1, 1], f.apply(a))


def test_phi_hat_of_unit_is_identity(ncd_idempotent_q):
    fam = ncd_idempotent_q.family
    from twistkit import AlgMatrix

    assert phi_hat(fam, fam.A.unit) == AlgMatrix.identity(fam.A, 2)


def test_phi_hat_names_a_wrong_shape_element(ncd_idempotent_q):
    """The refusal names the element a and its shape, not the matrix shape."""
    with pytest.raises(DimensionMismatchError, match=r"^a: expected 2 coordinates, got shape \(2, 2\)$"):
        phi_hat(ncd_idempotent_q, [[1, 0], [0, 1]])


def test_phi_hat_kn_full_grid():
    grids = [[[[1, 2], [3, 4]], [[0, 1], [1, 1]]], [[[2, 0], [0, 2]], [[1, 1], [0, 1]]]]
    fam = make_kn(kn_algebra(F5, 2), 2, grids).family
    a = F5.asarray([1, 1])
    mat = phi_hat(fam, a)
    for j in range(2):
        for k in range(2):
            assert F5.equal(mat.data[j, k], F5.matmul(fam.gamma[k, j], a))


# -- representation checkers against the family conditions ---------------------------


def test_rho_route_equals_duplicate_conditions_123():
    for a, f, delta in seeded_ncd_pairs(F3, 120):
        fam = ncd_family(F3, f, delta)
        report = ncd_conditions(a, f, delta)
        tags = report.conditions()
        first_three = not ({"ncd.1", "ncd.2", "ncd.3"} & tags)
        assert route_ok("rho", fam) == first_three


def test_phi_route_equals_duplicate_conditions_4567():
    for a, f, delta in seeded_ncd_pairs(F3, 120, seed=902):
        fam = ncd_family(F3, f, delta)
        report = ncd_conditions(a, f, delta)
        tags = report.conditions()
        last_four = not ({"ncd.4", "ncd.5", "ncd.6", "ncd.7"} & tags)
        assert route_ok("phi", fam) == last_four


def test_condition_partition_on_random_grids():
    for fam in seeded_families(F3, 150):
        failed = route_reports(fam, ["direct"])["direct"].conditions()
        c1, c2, c3, c4 = (f"direct.{k}" not in failed for k in range(1, 5))
        assert route_ok("phi", fam) == (c1 and c2)
        assert route_ok("rho", fam) == (c3 and c4)
        assert direct_ok(fam) == (c1 and c2 and c3 and c4)


def test_three_routes_agree_on_random_grids():
    for fam in seeded_families(F3, 120, seed=7):
        assert direct_ok(fam) == route_ok("rep", fam) == route_ok("oracle", fam)
    for fam in seeded_families(F5, 60, seed=8):
        assert direct_ok(fam) == route_ok("rep", fam) == route_ok("oracle", fam)


def test_three_routes_agree_on_structured_duplicates():
    for a, f, delta in seeded_ncd_pairs(F3, 150, seed=903):
        fam = ncd_family(F3, f, delta)
        assert direct_ok(fam) == route_ok("rep", fam) == route_ok("oracle", fam)


def test_three_routes_agree_over_the_rationals():
    rng = random.Random(6021)
    a = kn_algebra(QQ, 2)
    b = duplicate_algebra(QQ)
    fams = []
    for _ in range(40):
        grid = QQ.asarray(
            [[[[rng.randrange(-2, 3) for _ in range(2)] for _ in range(2)] for _ in range(2)] for _ in range(2)]
        )
        fams.append(GammaFamily(a, b, grid))
    for _ in range(40):
        f = [[rng.randrange(-1, 2) for _ in range(2)] for _ in range(2)]
        delta = [[rng.randrange(-1, 2) for _ in range(2)] for _ in range(2)]
        fams.append(make_ncd(a, f, delta).family)
    fams.append(GammaFamily.flip(a, b))
    fams.append(make_ncd(a, [[1, 0], [1, 0]], [[0, 0], [0, 0]]).family)
    accepted = 0
    for fam in fams:
        verdict = direct_ok(fam)
        assert verdict == route_ok("rep", fam) == route_ok("oracle", fam)
        accepted += verdict
    assert accepted > 0


# -- twisted product ------------------------------------------------------------------


def test_flip_product_is_componentwise_tensor():
    dup = duplicate_algebra(QQ)
    cand = certify(GammaFamily.flip(dup, dup))
    prod = build_twisted_product(cand)
    assert prod.algebra.dim == 4
    assert validate_algebra(prod.algebra).ok
    lam = prod.algebra.lam
    for i in range(2):
        for p in range(2):
            for j in range(2):
                for q in range(2):
                    expected = QQ.tensordot(dup.lam[i, j], dup.lam[p, q], axes=0).reshape(4)
                    assert QQ.equal(lam[i * 2 + p, j * 2 + q], expected)


def test_product_refuses_unverified(k2_q):
    fam = ncd_family(QQ, [[0, 1], [0, 0]], [[0, 0], [0, 0]])
    with pytest.raises(UnverifiedCandidateError):
        build_twisted_product(TwistingCandidate(fam))


@pytest.mark.parametrize("side", ["A", "B"])
@pytest.mark.parametrize("coords", [[1], [1, 0, 0], [[1, 0]]], ids=["short", "long", "2-D"])
def test_inclusion_refuses_a_wrong_length_element(ncd_idempotent_q, side, coords):
    """Both factors are 2-dimensional: an element of another shape is refused
    as bad input, not reshaped by numpy."""
    prod = build_twisted_product(ncd_idempotent_q)
    include = {"A": prod.include_A, "B": prod.include_B}[side]
    with pytest.raises(DimensionMismatchError, match=r"expected 2 coordinates"):
        include(QQ.asarray(coords))
    assert QQ.equal(include([1, 0]), include(QQ.asarray([1, 0])))


def test_product_commutation_rule(ncd_idempotent_q):
    """(1 (x) a)(X (x) 1) lands on X (x) f(a) when the derivation part vanishes."""
    prod = build_twisted_product(ncd_idempotent_q)
    fam = ncd_idempotent_q.family
    f = fam.gamma[1, 1]
    for p in range(2):
        a = fam.A.basis_element(p)
        left = prod.include_A(a)
        right = prod.include_B(fam.B.basis_element(1))
        out = prod.algebra.multiply(left, right)
        expected = QQ.zeros((4,))
        expected[2:4] = QQ.matmul(f, a)
        assert QQ.equal(out, expected)


def test_product_unit_is_tensor_unit(ncd_idempotent_q):
    prod = build_twisted_product(ncd_idempotent_q)
    fam = ncd_idempotent_q.family
    expected = QQ.tensordot(fam.B.unit, fam.A.unit, axes=0).reshape(4)
    assert QQ.equal(prod.algebra.unit, expected)


# -- basis indices ------------------------------------------------------------------------


def _basis_index_takers():
    """The four functions that take a basis index of the carrier B = K x dup."""
    carrier = duplicate_algebra(F3)
    fam = GammaFamily.flip(kn_algebra(F3, 2), carrier)
    return {
        "basis_element": carrier.basis_element,
        "structure_matrix": carrier.structure_matrix,
        "rho_hat": lambda k: rho_hat(fam, k),
        "lift_structure_matrix": lambda k: lift_structure_matrix(fam, k),
    }


@pytest.mark.parametrize("taker", ["basis_element", "structure_matrix", "rho_hat", "lift_structure_matrix"])
@pytest.mark.parametrize("k", [True, np.bool_(False), 1.0, "1"], ids=["bool", "np.bool_", "float", "str"])
def test_basis_index_must_be_an_integer(taker, k):
    """``True`` is no index 1: numpy would read it as a mask."""
    with pytest.raises(TypeError, match="basis index must be an integer"):
        _basis_index_takers()[taker](k)


@pytest.mark.parametrize("taker", ["basis_element", "structure_matrix", "rho_hat", "lift_structure_matrix"])
@pytest.mark.parametrize("k", [-1, 2, np.int64(-3)])
def test_basis_index_out_of_range(taker, k):
    """A negative index does not count from the end."""
    with pytest.raises(IndexError, match="out of range for dimension 2"):
        _basis_index_takers()[taker](k)


def test_numpy_integer_basis_index():
    takers = _basis_index_takers()
    assert F3.equal(takers["basis_element"](np.int64(1)), F3.asarray([0, 1]))
    assert takers["structure_matrix"](np.int64(1)) == takers["structure_matrix"](1)
    assert F3.equal(takers["rho_hat"](np.int64(1)).data, takers["rho_hat"](1).data)


# -- faithful representation ------------------------------------------------------------


def test_faithful_duplicate_scalar_matrix(ncd_idempotent_q):
    fam = ncd_idempotent_q.family
    phi_x = lift_structure_matrix(fam, 1)
    expected = QQ.zeros((2, 2, 2))
    expected[1, 0] = fam.A.unit
    expected[1, 1] = fam.A.unit
    assert QQ.equal(phi_x.data, expected)


def test_faithful_quantum_scalar_matrix(generic_markers_f5):
    alpha, beta = 2, 3
    swap = KMatrix.from_rows(F5, [[0, 1], [1, 0]])
    zero = KMatrix.zeros(F5, 2, 2)
    cand = make_quantum_duplicate(kn_algebra(F5, 2), 0, -1, swap, zero)
    fam = cand.family
    phi_x = lift_structure_matrix(fam, 1)
    a_unit = fam.A.unit
    assert F5.equal(phi_x.data[0, 0], F5.zeros((2,)))
    assert F5.equal(phi_x.data[0, 1], F5.reduce(-(-1) * a_unit))  # -beta = 1
    assert F5.equal(phi_x.data[1, 0], a_unit)
    assert F5.is_zero(phi_x.data[1, 1])  # alpha = 0


def test_faithful_unit_is_identity(ncd_idempotent_q):
    rep = faithful_rep(ncd_idempotent_q)
    prod = rep.product
    from twistkit import AlgMatrix

    assert rep.apply(prod.algebra.unit) == AlgMatrix.identity(ncd_idempotent_q.A, 2)


def test_verify_faithful_passes(ncd_idempotent_q):
    assert verify_faithful(ncd_idempotent_q).ok


def test_verify_faithful_reports_a_kernel(ncd_idempotent_q, monkeypatch):
    """A non-injective map is reported as ``faithful.kernel``: its first
    kernel vector on the left, no witness or right side, the count of kernel
    vectors.  The theorem makes the kernel empty, so it is forced here."""
    from twistkit import twisting

    matrices = []

    def kernel(x):
        matrices.append(x)
        return [QQ.asarray([1, -1, 0, "1/2"]), QQ.asarray([0, 0, 1, 0])]

    monkeypatch.setattr(twisting, "kernel_basis", kernel)
    report = verify_faithful(ncd_idempotent_q)
    assert [(x.rows, x.cols) for x in matrices] == [(8, 4)]
    assert report == VerificationReport(
        ok=False, failures=(Failure("faithful.kernel", left=["1", "-1", "0", "1/2"], count=2),)
    )


def test_verify_faithful_catches_forged_flag():
    fam = ncd_family(QQ, [[0, 1], [0, 0]], [[0, 0], [0, 0]])
    forged = TwistingCandidate(fam, verified=True)  # the flag is a lie
    report = verify_faithful(forged)
    assert not report.ok
    assert "faithful.mul" in report.conditions()


def test_candidates_compare_by_family_and_flag(ncd_idempotent_q):
    family = ncd_idempotent_q.family
    twin = GammaFamily(family.A, family.B, family.gamma.copy())
    assert TwistingCandidate(twin, verified=True) == ncd_idempotent_q
    assert TwistingCandidate(twin) == TwistingCandidate(family)
    assert TwistingCandidate(twin) != ncd_idempotent_q
    other = ncd_family(QQ, [[0, 1], [0, 0]], [[0, 0], [0, 0]])
    assert TwistingCandidate(other, verified=True) != ncd_idempotent_q
    assert ncd_idempotent_q != family


def test_faithful_rep_refuses_unverified():
    fam = ncd_family(QQ, [[0, 1], [0, 0]], [[0, 0], [0, 0]])
    with pytest.raises(UnverifiedCandidateError):
        faithful_rep(TwistingCandidate(fam))


def test_direct_failures_are_listed_in_condition_order():
    """``direct.1`` and ``direct.3`` come from their own unit-family generator;
    the report still lists the four families in the order 1, 2, 3, 4."""
    a2 = kn_algebra(QQ, 2)
    grid = [[[[1, 2], [0, 1]], [[0, 1], [1, 0]]], [[[0, 0], [1, 0]], [[2, 0], [0, 1]]]]
    fam = GammaFamily(a2, a2, QQ.asarray(grid))
    report = route_reports(fam, ["direct"])["direct"]
    assert [f.condition for f in report.failures] == ["direct.1", "direct.2", "direct.3", "direct.4"]


# -- the oracle --------------------------------------------------------------------------


def test_oracle_tags_unit_axiom_first():
    fam = ncd_family(QQ, [[0, 1], [0, 0]], [[0, 0], [0, 0]])
    report = route_reports(fam, ["oracle"])["oracle"]
    assert not report.ok
    assert report.failures[0].condition == "oracle.chi-left-unit"


def test_oracle_flip_truncated(trunc3_f2, k2_f2, f2):
    fam = GammaFamily.flip(k2_f2, trunc3_f2)
    assert route_reports(fam, ["oracle"])["oracle"].ok


# -- the intermediate left-multiplication identity ------------------------------------------


def _phi_endo_matrix(candidate, a):
    """phi as an endomorphism of the product space, on coordinate columns."""
    fam = candidate.family
    field = fam.field
    n, d = fam.B.dim, fam.A.dim
    mat = field.zeros((n * d, n * d))
    for k in range(n):
        for q in range(d):
            for j in range(n):
                x = field.matmul(fam.gamma[k, j], a)
                prod = fam.A.multiply(x, fam.A.basis_element(q))
                mat[j * d : (j + 1) * d, k * d + q] = prod
    return mat


@pytest.mark.parametrize("case", ["ncd", "kn"])
def test_intermediate_left_multiplication_identity(case, ncd_idempotent_q):
    if case == "ncd":
        cand = ncd_idempotent_q
    else:
        cand = certify(
            make_kn(kn_algebra(F3, 2), 2, [[[[1, 0], [0, 1]], [[0, 0], [0, 0]]],
                                           [[[0, 0], [0, 0]], [[1, 0], [0, 1]]]])
        )
        assert cand.verified
    fam = cand.family
    field = fam.field
    prod = build_twisted_product(cand)
    n, d = fam.B.dim, fam.A.dim
    for p in range(d):
        a = fam.A.basis_element(p)
        for i in range(n):
            li = prod.algebra.left_mul_matrix(prod.include_B(fam.B.basis_element(i))).data
            left = field.matmul(_phi_endo_matrix(cand, a), li)
            right = field.zeros((n * d, n * d))
            for j in range(n):
                lj = prod.algebra.left_mul_matrix(prod.include_B(fam.B.basis_element(j))).data
                gamma_ija = field.matmul(fam.gamma[i, j], a)
                right = field.add(right, field.matmul(lj, _phi_endo_matrix(cand, gamma_ija)))
            assert field.equal(left, right)


# -- laziness of the fast verdicts ---------------------------------------------------


_F2 = GF(2)
_UNIT_OK_NOT_MULT = [[[[0, 1], [0, 1]], [[1, 1], [0, 0]]], [[[1, 1], [0, 0]], [[0, 1], [0, 1]]]]


@pytest.mark.parametrize(
    "grid, counts",
    [
        ("zero", {"direct": 1, "rep": 2, "oracle": 1}),
        ("unit-ok", {"direct": 4, "rep": 8, "oracle": 7}),
        ("flip", {"direct": 8, "rep": 8, "oracle": 16}),
    ],
)
def test_fast_verdicts_stop_at_first_failing_family(monkeypatch, grid, counts):
    """The number of contractions each fast verdict performs on K^2 x K^2 over
    F_2: a candidate failing the first family costs one family's work, not
    the whole route's.  Exhaustive sweeps reject almost every candidate at
    the first family, so eager evaluation would multiply their cost.  The
    counter sits on the exactness wrapper shared by ``Field.tensordot`` and
    ``Field.einsum``, so it sees every contraction of either primitive."""
    from twistkit.fields import Field

    a2 = kn_algebra(_F2, 2)
    if grid == "zero":
        fam = GammaFamily(a2, a2, _F2.zeros((2, 2, 2, 2)))
    elif grid == "unit-ok":
        fam = GammaFamily(a2, a2, _F2.asarray(_UNIT_OK_NOT_MULT))
    else:
        fam = GammaFamily.flip(a2, a2)
    calls = []
    original = Field._contract

    def counted(self, contract, x, y):
        calls.append(contract)
        return original(self, contract, x, y)

    monkeypatch.setattr(Field, "_contract", counted)
    for route, expected in counts.items():
        calls.clear()
        assert route_ok(route, fam) == (grid == "flip")
        assert len(calls) == expected, route


# -- the route table ----------------------------------------------------------------


def test_rep_route_is_rho_then_phi():
    assert CHECKS["rep"].pairs == CHECKS["rho"].pairs + CHECKS["phi"].pairs
    assert ROUTES == ("direct", "rho", "phi", "rep", "oracle")
    assert list(CHECKS) == [*ROUTES, "ncd", "qdup", "kn", "trunc"]
    assert list(UNIT_FAMILIES) == ["direct", "rep", "oracle"]
    a2 = kn_algebra(_F2, 2)
    tags = [tag for tag, _, _ in route_pairs("rep", a2, a2, GammaFamily.flip(a2, a2).gamma)]
    assert tags == ["rho.unit", "rho.mul", "phi.unit", "phi.mul"]


def test_unit_families_select_the_unit_tags():
    """Each count of the table takes exactly the affine unit families of its
    generator, so a reordered generator fails here, not in a search."""
    a2, dup = kn_algebra(_F2, 2), duplicate_algebra(_F2)
    G = GammaFamily.flip(a2, dup).gamma
    selected = {route: [tag for tag, _, _ in unit_pairs(route, a2, dup, G)] for route in UNIT_FAMILIES}
    assert selected == {
        "direct": ["direct.1", "direct.3"],
        "rep": ["rho.unit", "phi.unit"],
        "oracle": ["oracle.chi-left-unit", "oracle.chi-right-unit"],
    }


def test_route_generators_are_named_only_in_twisting():
    """The route table is the one place that knows the generators: no other
    module of the package names them, not even in a docstring."""
    names = ("_direct_pairs", "_direct_unit_pairs", "_rho_pairs", "_phi_pairs", "_oracle_pairs")
    package = Path(twistkit.__file__).parent
    offenders = [
        (str(path.relative_to(package)), name)
        for path in sorted(package.rglob("*.py"))
        if path.name != "twisting.py"
        for name in names
        if name in path.read_text(encoding="utf-8")
    ]
    assert offenders == []


def test_extension_takes_no_twisting_kernel_but_rho_tensor():
    """The block criteria read their sides from the ``rep`` and ``phi``
    routes, on the image of the family (``GammaFamily._image``): of the
    private names of ``twisting``, ``extension`` imports the candidate
    helpers, the identity kernel ``_rho_tensor`` (for ``C1.zero``) and the
    layout view ``_phi_tensor`` (for the corner products) alone."""
    source = (Path(twistkit.__file__).parent / "extension.py").read_text(encoding="utf-8")
    imports = [node for node in ast.walk(ast.parse(source)) if isinstance(node, ast.ImportFrom)]
    private = {a.name for node in imports if node.module == "twisting" for a in node.names if a.name.startswith("_")}
    assert private == {"_family_of", "_phi_tensor", "_require_verified", "_rho_tensor"}
    assert all(a.name != "twisting" for node in imports for a in node.names)


def test_oracle_takes_no_condition_or_shared_kernel():
    """The oracle assembles the product and checks the definition with its
    own formulas: ``_oracle_pairs`` and ``_product_tensor`` name none of the
    kernels of the condition routes, nor the lift and transport kernels of
    ``linalg``.  Routed through one of them, a fault in that kernel would
    pass all three routes alike, and the cross-validation would show
    nothing."""
    shared = {
        "_unit_images", "_twisted_products", "_rule_compositions", "_rho_tensor", "_phi_tensor",
        "_alg_entry_product", "_endo_products", "_alg_lift", "_endo_lift", "_pull_back",
    }
    tree = ast.parse((Path(twistkit.__file__).parent / "twisting.py").read_text(encoding="utf-8"))
    bodies = {node.name: node for node in tree.body if isinstance(node, ast.FunctionDef)}
    for name in ("_oracle_pairs", "_product_tensor"):
        named = {
            node.id if isinstance(node, ast.Name) else node.attr
            for node in ast.walk(bodies[name])
            if isinstance(node, (ast.Name, ast.Attribute))
        }
        assert named & shared == set(), name
