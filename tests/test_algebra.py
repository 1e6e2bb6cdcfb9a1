import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from twistkit import (
    DimensionMismatchError,
    FieldMismatchError,
    FiniteDimAlgebra,
    GF,
    KMatrix,
    QQ,
    direct_product,
    duplicate_algebra,
    kn_algebra,
    quadratic_algebra,
    truncated_poly_algebra,
    validate_algebra,
)


def upper_triangular_2x2(field):
    """The 3-dim algebra of upper triangular 2x2 matrices: basis e11, e22, e12."""
    lam = field.zeros((3, 3, 3))
    lam[0, 0, 0] = field.one  # e11 e11 = e11
    lam[1, 1, 1] = field.one  # e22 e22 = e22
    lam[0, 2, 2] = field.one  # e11 e12 = e12
    lam[2, 1, 2] = field.one  # e12 e22 = e12
    return FiniteDimAlgebra(field, 3, ("e11", "e22", "e12"), lam, field.asarray([1, 1, 0]))


# -- validate_algebra ------------------------------------------------------------


def test_duplicate_algebra_validates(dup_q):
    assert validate_algebra(dup_q).ok


def test_kn_validates():
    for n in (1, 2, 4):
        assert validate_algebra(kn_algebra(QQ, n)).ok


def test_triangular_validates():
    assert validate_algebra(upper_triangular_2x2(QQ)).ok


def test_corrupted_k2_fails_with_assoc_witness(k2_q):
    lam = k2_q.lam.copy()
    lam[0, 1, 0] = QQ.one  # e1 e2 picks up a spurious e1 component
    broken = FiniteDimAlgebra(QQ, 2, k2_q.basis, lam, k2_q.unit.copy())
    report = validate_algebra(broken)
    assert not report.ok
    tags = report.conditions()
    assert "assoc" in tags
    first = report.failures[0]
    assert first.condition == "assoc"
    assert len(first.witness) == 4


def test_malformed_shapes_rejected(k2_q):
    with pytest.raises(DimensionMismatchError):
        FiniteDimAlgebra(QQ, 2, ("a", "b"), QQ.zeros((2, 2)), k2_q.unit)
    with pytest.raises(DimensionMismatchError):
        FiniteDimAlgebra(QQ, 2, ("a",), k2_q.lam, k2_q.unit)


# -- multiply ---------------------------------------------------------------------


@given(st.lists(st.integers(-3, 3), min_size=2, max_size=2))
@settings(max_examples=25, deadline=None)
def test_multiply_unital(coords):
    alg = duplicate_algebra(QQ)
    x = alg.element(coords)
    one = alg.unit
    assert QQ.equal(alg.multiply(x, one), x)
    assert QQ.equal(alg.multiply(one, x), x)


def test_x_squared_is_x(dup_q):
    x = dup_q.basis_element(1)
    assert QQ.equal(dup_q.multiply(x, x), x)


def test_truncated_y_times_y2_vanishes():
    alg = truncated_poly_algebra(QQ, 3)
    y = alg.basis_element(1)
    y2 = alg.basis_element(2)
    assert QQ.is_zero(alg.multiply(y, y2))


# -- structure matrices ---------------------------------------------------------------


def test_structure_matrix_duplicate(dup_q):
    assert dup_q.structure_matrix(1) == KMatrix.from_rows(QQ, [[0, 0], [1, 1]])
    assert dup_q.structure_matrix(0) == KMatrix.identity(QQ, 2)


def test_structure_matrix_quadratic():
    alg = quadratic_algebra(QQ, "3", "2")
    assert alg.structure_matrix(1) == KMatrix.from_rows(QQ, [[0, -2], [1, 3]])


def test_structure_matrix_truncated_shift():
    alg = truncated_poly_algebra(QQ, 4)
    shift = QQ.zeros((4, 4))
    for i in range(3):
        shift[i + 1, i] = QQ.one
    assert alg.structure_matrix(1) == KMatrix(QQ, shift)


def test_structure_matrix_out_of_range(dup_q):
    with pytest.raises(IndexError):
        dup_q.structure_matrix(2)


@pytest.mark.parametrize(
    "alg",
    [
        kn_algebra(QQ, 3),
        duplicate_algebra(QQ),
        quadratic_algebra(GF(5), 2, 3),
        upper_triangular_2x2(QQ),
    ],
    ids=["k3", "dup", "qdup-f5", "triangular"],
)
def test_left_multiplication_is_multiplicative(alg):
    field = alg.field
    for i in range(alg.dim):
        for j in range(alg.dim):
            li = alg.structure_matrix(i)
            lj = alg.structure_matrix(j)
            lij = alg.left_mul_matrix(alg.multiply(alg.basis_element(i), alg.basis_element(j)))
            assert (li @ lj) == lij


# -- opposite ----------------------------------------------------------------------------


def test_opposite_of_commutative_is_identity(dup_q):
    assert dup_q.opposite() == dup_q


def test_opposite_involution():
    tri = upper_triangular_2x2(QQ)
    assert tri.opposite().opposite() == tri


def test_opposite_of_triangular_differs_and_validates():
    tri = upper_triangular_2x2(QQ)
    op = tri.opposite()
    assert op != tri
    assert validate_algebra(op).ok


def test_opposite_preserves_validation_verdicts(k2_q):
    lam = k2_q.lam.copy()
    lam[0, 1, 0] = QQ.one
    broken = FiniteDimAlgebra(QQ, 2, k2_q.basis, lam, k2_q.unit.copy())
    assert validate_algebra(broken).ok == validate_algebra(broken.opposite()).ok


# -- direct products ------------------------------------------------------------------------


def test_k_times_k_is_k2():
    k1 = kn_algebra(QQ, 1)
    prod = direct_product(k1, k1)
    k2 = kn_algebra(QQ, 2)
    assert QQ.equal(prod.lam, k2.lam)
    assert QQ.equal(prod.unit, k2.unit)


def test_product_structure_matrices_are_blocks(dup_q, k2_q):
    prod = direct_product(dup_q, k2_q)
    for k in range(dup_q.dim):
        top = dup_q.structure_matrix(k).data
        full = prod.structure_matrix(k).data
        assert QQ.equal(full[:2, :2], top)
        assert QQ.is_zero(full[2:, :])
        assert QQ.is_zero(full[:, 2:])


def test_k2_times_duplicate_validates(k2_q, dup_q):
    prod = direct_product(k2_q, dup_q)
    assert validate_algebra(prod).ok
    assert prod.unit.tolist() == QQ.asarray([1, 1, 1, 0]).tolist()
    assert prod.dim == 4


def test_product_of_valid_factors_validates():
    tri = upper_triangular_2x2(GF(3))
    other = truncated_poly_algebra(GF(3), 3)
    assert validate_algebra(direct_product(tri, other)).ok


def test_product_field_mismatch(dup_q):
    with pytest.raises(FieldMismatchError):
        direct_product(dup_q, kn_algebra(GF(2), 2))
