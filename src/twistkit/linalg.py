"""Dense exact matrices over a base field, over End_K(A), and over an algebra.

Three matrix flavours appear throughout the package:

* ``KMatrix``    entries in the base field (structure matrices, transition
                 matrices, coordinate matrices of linear endomorphisms);
* ``EndoMatrix`` entries are linear endomorphisms of an ambient space, each
                 stored as its d x d coordinate matrix; entry products are
                 compositions;
* ``AlgMatrix``  entries are elements of a finite-dimensional algebra, stored
                 as coordinate vectors; entry products use the structure
                 constants.

Everything is immutable after construction and all operations are pure.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatchError, FieldMismatchError, SingularMatrixError
from .fields import Field


def _freeze(arr: np.ndarray) -> np.ndarray:
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True, eq=False)
class KMatrix:
    """A rows x cols matrix with exact entries in ``field``."""

    field: Field
    data: np.ndarray

    def __post_init__(self):
        if self.data.ndim != 2:
            raise DimensionMismatchError(f"expected a 2-D array, got shape {self.data.shape}")
        _freeze(self.data)

    @classmethod
    def from_rows(cls, field: Field, rows) -> "KMatrix":
        return cls(field, field.asarray(rows))

    @classmethod
    def identity(cls, field: Field, n: int) -> "KMatrix":
        return cls(field, field.identity(n))

    @classmethod
    def zeros(cls, field: Field, rows: int, cols: int | None = None) -> "KMatrix":
        return cls(field, field.zeros((rows, cols if cols is not None else rows)))

    @property
    def rows(self) -> int:
        return self.data.shape[0]

    @property
    def cols(self) -> int:
        return self.data.shape[1]

    @property
    def is_square(self) -> bool:
        return self.rows == self.cols

    def __eq__(self, other) -> bool:
        if not isinstance(other, KMatrix):
            return NotImplemented
        return self.field == other.field and self.field.equal(self.data, other.data)

    def __matmul__(self, other: "KMatrix") -> "KMatrix":
        return mat_mul(self, other)

    def apply(self, vec: np.ndarray) -> np.ndarray:
        """Matrix times coordinate column."""
        if self.cols != len(vec):
            raise DimensionMismatchError(f"cannot apply {self.rows}x{self.cols} to length {len(vec)}")
        return self.field.matmul(self.data, self.field.asarray(vec))

    def is_zero(self) -> bool:
        return self.field.is_zero(self.data)


def _check_same_field(x: KMatrix, y: KMatrix) -> None:
    if x.field != y.field:
        raise FieldMismatchError(f"operands over {x.field} and {y.field}")


def mat_mul(x: KMatrix, y: KMatrix) -> KMatrix:
    """Exact matrix product."""
    _check_same_field(x, y)
    if x.cols != y.rows:
        raise DimensionMismatchError(f"cannot multiply {x.rows}x{x.cols} by {y.rows}x{y.cols}")
    return KMatrix(x.field, x.field.tensordot(x.data, y.data, axes=([1], [0])))


def _rref(field: Field, mat: np.ndarray) -> tuple[np.ndarray, list[int]]:
    """Reduced row echelon form; returns (R, pivot column list)."""
    R = mat.copy()
    rows, cols = R.shape
    pivots: list[int] = []
    r = 0
    for c in range(cols):
        pivot_row = None
        for i in range(r, rows):
            if R[i, c] != 0:
                pivot_row = i
                break
        if pivot_row is None:
            continue
        if pivot_row != r:
            R[[r, pivot_row]] = R[[pivot_row, r]]
        R[r] = field.reduce(R[r] * field.inv(R[r, c]))
        for i in range(rows):
            if i != r and R[i, c] != 0:
                R[i] = field.reduce(R[i] - R[i, c] * R[r])
        pivots.append(c)
        r += 1
        if r == rows:
            break
    return R, pivots


def rank(x: KMatrix) -> int:
    return len(_rref(x.field, x.data)[1])


def mat_inverse(x: KMatrix) -> KMatrix:
    """Exact inverse; raises ``SingularMatrixError`` (carrying the rank) otherwise."""
    if not x.is_square:
        raise DimensionMismatchError(f"cannot invert a {x.rows}x{x.cols} matrix")
    n = x.rows
    aug = np.concatenate([x.data, x.field.identity(n)], axis=1)
    R, pivots = _rref(x.field, aug)
    left_rank = len([c for c in pivots if c < n])
    if left_rank < n:
        raise SingularMatrixError("matrix is singular", rank=left_rank)
    return KMatrix(x.field, R[:, n:])


def kernel_basis(x: KMatrix) -> list[np.ndarray]:
    """Echelonized basis of the right null space; empty iff injective.

    One vector per free column, in ascending column order, with a 1 in the
    free coordinate.
    """
    field = x.field
    R, pivots = _rref(field, x.data)
    free = [c for c in range(x.cols) if c not in pivots]
    basis = field.zeros((len(free), x.cols))
    basis[:, free] = field.identity(len(free))
    basis[:, pivots] = field.reduce(-R[: len(pivots), free].T)
    return list(_freeze(basis))


# -- matrices over End_K(A) ---------------------------------------------------


@dataclass(frozen=True, eq=False)
class EndoMatrix:
    """A rows x cols matrix whose entries are endomorphisms of a d-dim space.

    Stored as a 4-D array ``data[i, j]`` = d x d coordinate matrix of the
    (i, j) entry.  Entry products in matrix multiplication are compositions.
    """

    field: Field
    data: np.ndarray

    def __post_init__(self):
        if self.data.ndim != 4 or self.data.shape[2] != self.data.shape[3]:
            raise DimensionMismatchError(f"expected (rows, cols, d, d), got {self.data.shape}")
        _freeze(self.data)

    @classmethod
    def identity(cls, field: Field, n: int, d: int) -> "EndoMatrix":
        return cls(field, _endo_identity(field, n, d))

    @property
    def rows(self) -> int:
        return self.data.shape[0]

    @property
    def cols(self) -> int:
        return self.data.shape[1]

    def entry(self, i: int, j: int) -> KMatrix:
        return KMatrix(self.field, self.data[i, j])

    def __eq__(self, other) -> bool:
        if not isinstance(other, EndoMatrix):
            return NotImplemented
        return self.field == other.field and self.field.equal(self.data, other.data)

    def __matmul__(self, other: "EndoMatrix") -> "EndoMatrix":
        return endo_mat_mul(self, other)

    def is_zero(self) -> bool:
        return self.field.is_zero(self.data)


def _endo_identity(field: Field, size: int, d: int) -> np.ndarray:
    """The identity of M_size(End A) for d = dim A; axes (i, m, r, c)."""
    eye_size, eye_d = field.identity(size), field.identity(d)
    return field.reduce(eye_size[:, :, None, None] * eye_d[None, None, :, :])


def _endo_products(field: Field, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Pairwise products x_i y_j of two stacks of End-valued matrices, entry
    products being compositions: (..., a, r, s, d, d) and (..., b, s, t, d, d)
    give (..., a, b, r, t, d, d); batch axes pair up slice by slice."""
    return field.einsum("...arspe,...bstec->...abrtpc", x, y)


def endo_mat_mul(x: EndoMatrix, y: EndoMatrix) -> EndoMatrix:
    """Product with entry (i, j) = sum_w x[i, w] composed with y[w, j]."""
    if x.field != y.field:
        raise FieldMismatchError(f"operands over {x.field} and {y.field}")
    if x.cols != y.rows or x.data.shape[2] != y.data.shape[2]:
        raise DimensionMismatchError("endomorphism matrix shapes do not match")
    return EndoMatrix(x.field, _endo_products(x.field, x.data[None], y.data[None])[0, 0])


# -- matrices over an algebra -------------------------------------------------


@dataclass(frozen=True, eq=False)
class AlgMatrix:
    """A square matrix with entries in a finite-dimensional algebra.

    ``data[i, j]`` is the coordinate vector of the (i, j) entry relative to
    the ambient algebra's fixed basis.
    """

    algebra: "FiniteDimAlgebra"  # noqa: F821 - duck-typed, defined in .algebra
    data: np.ndarray

    def __post_init__(self):
        if self.data.ndim != 3 or self.data.shape[0] != self.data.shape[1]:
            raise DimensionMismatchError(f"expected (n, n, dim), got {self.data.shape}")
        if self.data.shape[2] != self.algebra.dim:
            raise DimensionMismatchError(
                f"entries have length {self.data.shape[2]}, ambient dimension is {self.algebra.dim}"
            )
        _freeze(self.data)

    @classmethod
    def identity(cls, algebra, n: int) -> "AlgMatrix":
        return cls(algebra, _alg_identity(algebra.field, n, algebra.unit))

    @property
    def size(self) -> int:
        return self.data.shape[0]

    def entry(self, i: int, j: int) -> np.ndarray:
        return self.data[i, j]

    def __eq__(self, other) -> bool:
        if not isinstance(other, AlgMatrix):
            return NotImplemented
        return self.algebra == other.algebra and self.algebra.field.equal(self.data, other.data)

    def __matmul__(self, other: "AlgMatrix") -> "AlgMatrix":
        return algmat_mul(self, other)


def _alg_identity(field: Field, n: int, unit: np.ndarray) -> np.ndarray:
    """The identity of M_n(A) for A with unit ``unit``; axes (i, j, r)."""
    return field.reduce(field.identity(n)[:, :, None] * unit[None, None, :])


def _alg_entry_product(field: Field, lam: np.ndarray, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Pairwise products x_i y_j of two stacks of A-valued rectangular
    matrices, entry (i, j) = sum_k x[i, k] * y[k, j] via ``lam``: (..., a, r,
    s, dim) and (..., b, s, t, dim) give (..., a, b, r, t, dim); batch axes
    pair up slice by slice.  The second sum has s * dim terms."""
    xl = field.einsum("...arsv,vwz->...arswz", x, lam)
    return field.einsum("...arswz,...bstw->...abrtz", xl, y)


def algmat_mul(x: AlgMatrix, y: AlgMatrix) -> AlgMatrix:
    """Product in M_n(A): entry (i, j) = sum_k x(i, k) * y(k, j) in A."""
    amb = x.algebra
    if y.algebra != amb:
        raise FieldMismatchError("matrices live over different ambient algebras")
    if x.size != y.size:
        raise DimensionMismatchError(f"sizes {x.size} and {y.size} differ")
    data = _alg_entry_product(amb.field, amb.lam, x.data[None], y.data[None])[0, 0]
    return AlgMatrix(amb, data)
