"""Finite-dimensional associative unital algebras given by structure constants.

An algebra of dimension n over an exact field is the data of a basis
``b_1, ..., b_n``, a constants tensor ``lam`` with ``lam[i, j, k]`` the
coefficient of ``b_k`` in ``b_i * b_j`` (0-based), and the coordinates of the
unit element.  Elements are plain coordinate vectors (1-D arrays) relative to
the fixed basis.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .errors import DimensionMismatchError, FieldMismatchError, _require_int
from .fields import Field
from .linalg import KMatrix, _freeze
from .report import VerificationReport, pairs_report


@dataclass(frozen=True, eq=False)
class FiniteDimAlgebra:
    field: Field
    dim: int
    basis: tuple[str, ...]
    lam: np.ndarray   # (dim, dim, dim)
    unit: np.ndarray  # (dim,)

    def __post_init__(self):
        n = self.dim
        if n <= 0:
            raise DimensionMismatchError("dimension must be positive")
        if len(self.basis) != n:
            raise DimensionMismatchError(f"{len(self.basis)} labels for dimension {n}")
        if self.lam.shape != (n, n, n):
            raise DimensionMismatchError(f"lambda tensor has shape {self.lam.shape}, expected {(n, n, n)}")
        if self.unit.shape != (n,):
            raise DimensionMismatchError(f"unit has shape {self.unit.shape}, expected ({n},)")
        _freeze(self.lam)
        _freeze(self.unit)

    def __eq__(self, other) -> bool:
        if not isinstance(other, FiniteDimAlgebra):
            return NotImplemented
        return (
            self.field == other.field
            and self.dim == other.dim
            and self.field.equal(self.lam, other.lam)
            and self.field.equal(self.unit, other.unit)
        )

    # -- elements -------------------------------------------------------------

    def element(self, coords) -> np.ndarray:
        vec = self.field.asarray(coords)
        if vec.shape != (self.dim,):
            raise DimensionMismatchError(f"expected {self.dim} coordinates, got shape {vec.shape}")
        return _freeze(vec)

    def basis_element(self, i: int) -> np.ndarray:
        return _freeze(self.field.unit_vector(self.dim, self._basis_index(i)))

    def _basis_index(self, k: int) -> int:
        """``k``, refused unless it numbers a basis vector: ``TypeError`` for a
        ``bool`` or non-integer, ``IndexError`` outside [0, dim)."""
        if not 0 <= _require_int(k, "basis index") < self.dim:
            raise IndexError(f"basis index {k} out of range for dimension {self.dim}")
        return k

    # -- operations -----------------------------------------------------------

    def multiply(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        """Bilinear extension of the structure constants."""
        if len(x) != self.dim or len(y) != self.dim:
            raise DimensionMismatchError("element length does not match algebra dimension")
        partial = self.field.tensordot(self.field.asarray(x), self.lam, axes=([0], [0]))
        return self.field.tensordot(self.field.asarray(y), partial, axes=([0], [0]))

    def structure_matrix(self, k: int) -> KMatrix:
        """Left-multiplication matrix of ``b_k``: entry (i, j) = lam[k, j, i]."""
        return KMatrix(self.field, self.lam[self._basis_index(k)].T.copy())

    def left_mul_matrix(self, x: np.ndarray) -> KMatrix:
        """Left multiplication by an arbitrary element, as a coordinate matrix."""
        mat = self.field.tensordot(self.field.asarray(x), self.lam, axes=([0], [0]))  # (j, k)
        return KMatrix(self.field, mat.T.copy())

    def opposite(self) -> "FiniteDimAlgebra":
        """Same space, reversed multiplication: lam_op[i, j, k] = lam[j, i, k]."""
        return replace(self, lam=self.lam.transpose(1, 0, 2).copy())


def validate_algebra(algebra: FiniteDimAlgebra) -> VerificationReport:
    """Check associativity and two-sided-unit identities of the constants.

    Reports the first witness per identity family plus the total violation
    count.  Tags: ``assoc`` with witness (i, j, k, m); ``unit.left`` /
    ``unit.right`` with witness (i, k).
    """
    return pairs_report(algebra.field, _algebra_pairs(algebra.field, algebra.lam, algebra.unit))


def _algebra_pairs(field, lam: np.ndarray, unit: np.ndarray):
    """The algebra identities of structure constants lam, one (m, m, m) array
    or a stack (..., m, m, m), with the unit (m,): associativity with witness
    axes (i, j, k, m), then the left and right unit with witness axes (i, k)."""
    left = field.einsum("...xys,...szw->...xyzw", lam, lam)
    right = field.einsum("...yzs,...xsw->...xyzw", lam, lam)
    yield "assoc", left, right

    eye = field.identity(lam.shape[-1])
    yield "unit.left", field.einsum("x,...xyw->...yw", unit, lam), eye
    yield "unit.right", field.einsum("y,...xyw->...xw", unit, lam), eye


def direct_product(b: FiniteDimAlgebra, c: FiniteDimAlgebra) -> FiniteDimAlgebra:
    """B x C with the B-block-first ordered basis and block-diagonal constants."""
    if b.field != c.field:
        raise FieldMismatchError(f"factors over {b.field} and {c.field}")
    field = b.field
    n, m = b.dim, c.dim
    lam = field.zeros((n + m, n + m, n + m))
    lam[:n, :n, :n] = b.lam
    lam[n:, n:, n:] = c.lam
    unit = field.zeros((n + m,))
    unit[:n] = b.unit
    unit[n:] = c.unit
    return FiniteDimAlgebra(field, n + m, b.basis + c.basis, lam, unit)


# -- stock presentations ------------------------------------------------------


def _require_positive(n: int) -> None:
    if n <= 0:
        raise DimensionMismatchError(f"carrier size n must be positive, got {n}")


def kn_algebra(field: Field, n: int) -> FiniteDimAlgebra:
    """K^n with e_i e_j = delta_ij e_i and unit (1, ..., 1)."""
    _require_positive(n)
    lam = field.zeros((n, n, n))
    for i in range(n):
        lam[i, i, i] = field.one
    unit = field.zeros((n,))
    unit[:] = field.one
    labels = tuple(f"e{i + 1}" for i in range(n))
    return FiniteDimAlgebra(field, n, labels, lam, unit)


def quadratic_algebra(field: Field, alpha, beta) -> FiniteDimAlgebra:
    """K[X] / (X^2 - alpha X + beta) with basis {1, X}."""
    a = field.scalar(alpha)
    b = field.scalar(beta)
    lam = field.zeros((2, 2, 2))
    lam[0, 0, 0] = field.one
    lam[0, 1, 1] = field.one
    lam[1, 0, 1] = field.one
    lam[1, 1, 0] = field.scalar(-b)
    lam[1, 1, 1] = a
    return FiniteDimAlgebra(field, 2, ("1", "X"), lam, field.asarray([1, 0]))


def duplicate_algebra(field: Field) -> FiniteDimAlgebra:
    """K[X] / (X^2 - X), the base of non-commutative duplicates."""
    return quadratic_algebra(field, 1, 0)


def truncated_poly_algebra(field: Field, n: int) -> FiniteDimAlgebra:
    """K[Y] / (Y^n) with basis {1, Y, ..., Y^(n-1)}."""
    _require_positive(n)
    lam = field.zeros((n, n, n))
    for i in range(n):
        for j in range(n):
            if i + j < n:
                lam[i, j, i + j] = field.one
    labels = tuple("1" if i == 0 else ("Y" if i == 1 else f"Y^{i}") for i in range(n))
    unit = field.unit_vector(n, 0)
    return FiniteDimAlgebra(field, n, labels, lam, unit)
