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

``rank``, ``mat_inverse`` and ``kernel_basis`` share one exact Gauss-Jordan
elimination, ``_rref``, on rows of Python ints for both fields: residues
over F_p; over Q integer rows eliminated fraction-free (Bareiss), whose
pivot rows become ``Fraction`` s once, at the end.  Over Q ``kernel_basis``
first reduces the integer rows mod the prime ``_P`` = 2^31 - 1: rank equal
to the column count there certifies an empty kernel over Q (a maximal minor
that is nonzero mod ``_P`` is a nonzero integer), and only a matrix that
fails the certificate is eliminated fraction-free.

Base-field matrices enter M(A) and M(End A) by two broadcast lifts,
``_alg_lift`` (m (x) x) and ``_endo_lift`` (m (x) id_d); tensors move along
a coefficient matrix z by ``_pull_back`` (its push-forward is the pull-back
along z.T).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import DimensionMismatchError, FieldMismatchError, SingularMatrixError, _require_int
from .fields import Field


def _entry_index(k, size: int, what: str) -> int:
    """``k``, refused unless it numbers one of ``size`` rows or columns:
    ``TypeError`` for a ``bool`` or non-integer, ``IndexError`` outside
    [0, size)."""
    if not 0 <= _require_int(k, f"{what} index") < size:
        raise IndexError(f"{what} index {k} out of range for {size} {what}s")
    return k


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
        """Matrix times coordinate vector, of shape (cols,)."""
        vec = self.field.asarray(vec)
        if vec.shape != (self.cols,):
            raise DimensionMismatchError(f"cannot apply {self.rows}x{self.cols} to a vector of shape {vec.shape}")
        return self.field.matmul(self.data, vec)

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


def _pull_back(field: Field, z: np.ndarray, x: np.ndarray, *axes: int) -> np.ndarray:
    """out[.., i, ..] = sum_u z[u, i] x[.., u, ..] on each of ``axes`` (>= 0)."""
    for axis in axes:
        moved = field.tensordot(z, x, axes=([0], [axis]))
        x = moved.transpose(*range(1, axis + 1), 0, *range(axis + 1, x.ndim))
    return x


def _rref(field: Field, mat: np.ndarray) -> tuple[np.ndarray, list[int]]:
    """Reduced row echelon form; returns (R, pivot column list).

    One Gauss-Jordan elimination on rows of Python ints for both fields, so
    no ``int64`` product is formed; R has the dtype of ``mat``.  Over F_p
    the rows hold residues.  Over Q each row is scaled by the lcm of its
    denominators (``verify_faithful`` passes Python-int numerators, which
    stay as they are) and eliminated fraction-free; no ``Fraction`` is built
    before the pivot rows are divided by the last pivot at the end.
    """
    if field.kind == "Fp":
        rows, pivots = _rref_mod(field.p, (mat % field.p).tolist())
    else:
        rows, pivots = _rref_bareiss([_integral_row(row) for row in mat.tolist()])
    return np.array(rows, dtype=mat.dtype).reshape(mat.shape), pivots


def _pivot_steps(rows: list[list]):
    """(r, c) of each pivot of the Gauss-Jordan elimination of ``rows``: the
    first row from r on with a nonzero entry in column c, swapped up to row
    r.  The caller clears column c outside row r before the next step."""
    r = 0
    for c in range(len(rows[0]) if rows else 0):
        if r == len(rows):
            return
        for i in range(r, len(rows)):
            if rows[i][c]:
                break
        else:
            continue
        rows[r], rows[i] = rows[i], rows[r]
        yield r, c
        r += 1


def _rref_mod(p: int, rows: list[list[int]]) -> tuple[list[list[int]], list[int]]:
    """RREF of rows of residues mod p, in place: each pivot row is scaled by
    its pivot's inverse, then f times it is subtracted from every row with a
    nonzero entry f in its pivot column.  Only the pivot row's nonzero
    entries change anything (the unit-family systems of ``search`` are
    mostly zeros), and a pivot row is zero left of its pivot."""
    pivots = []
    for r, c in _pivot_steps(rows):
        top = rows[r]
        inv = pow(top[c], p - 2, p)
        nonzero = [(j, top[j] * inv % p) for j in range(c, len(top)) if top[j]]
        for j, b in nonzero:
            top[j] = b
        for i, row in enumerate(rows):
            f = row[c]
            if f and i != r:
                for j, b in nonzero:
                    row[j] = (row[j] - f * b) % p
        pivots.append(c)
    return rows, pivots


def _rref_bareiss(rows: list[list[int]]) -> tuple[list[list[Fraction]], list[int]]:
    """RREF over Q of rows of integers, eliminated fraction-free (Bareiss):
    every row but the pivot row becomes (piv * row - f * pivot row) //
    previous pivot.  The division is exact (every entry is a minor of the
    input), and every pivot row ends with the last pivot on its pivot column,
    so one division by it gives the RREF."""
    pivots, prev = [], 1
    for r, c in _pivot_steps(rows):
        top = rows[r]
        piv = top[c]
        for i, row in enumerate(rows):
            if i != r:
                f = row[c]
                rows[i] = [(piv * a - f * b) // prev for a, b in zip(row, top)]
        pivots.append(c)
        prev = piv
    zero = Fraction(0)
    return [
        [Fraction(a, prev) if a else zero for a in row] if i < len(pivots) else [zero] * len(row)
        for i, row in enumerate(rows)
    ], pivots


def _integral_row(row: list) -> list[int]:
    """A row of rationals (or integers) times the lcm of its denominators."""
    den = math.lcm(*(v.denominator for v in row))
    return [int(v.numerator) * (den // v.denominator) for v in row]


#: The prime of the injectivity certificate over Q; residues stay below 2^31.
_P = 2**31 - 1


def _injective_mod_p(mat: np.ndarray) -> bool:
    """Whether the rational matrix ``mat``, each row scaled to integers, has
    rank equal to its column count mod ``_P``.  True proves an empty kernel
    over Q: some maximal minor of the integer rows is nonzero mod ``_P``, so
    it is a nonzero integer.  False proves nothing (the rank may drop only
    mod ``_P``).

    The rows are reduced one at a time against the independent rows kept so
    far, each scaled to 1 on its pivot column and zero on the earlier ones;
    the pass stops once ``cols`` are kept, or when too few rows are left.
    Python-int entries (the numerators ``verify_faithful`` passes) are
    reduced in one pass; other rows are scaled by ``_integral_row`` as they
    are reached."""
    rows, cols = mat.shape
    if set(map(type, mat.flat)) <= {int}:
        residues = (mat % _P).tolist()
    else:
        residues = ([v % _P for v in _integral_row(row)] for row in mat.tolist())
    basis = []
    for k, row in enumerate(residues):
        if len(basis) == cols or rows - k < cols - len(basis):
            break
        for c, top in basis:
            if f := row[c]:
                row = [(a - f * b) % _P for a, b in zip(row, top)]
        c = next((j for j, v in enumerate(row) if v), None)
        if c is not None:
            inv = pow(row[c], -1, _P)
            basis.append((c, [v * inv % _P for v in row]))
    return len(basis) == cols


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


def _null_space(field: Field, mat: np.ndarray) -> tuple[np.ndarray, list[int]]:
    """(basis, free): ``kernel_basis`` as one array, and its free columns.
    Over Q an empty kernel is first certified mod ``_P``
    (``_injective_mod_p``)."""
    if field.kind == "Q" and _injective_mod_p(mat):
        return field.zeros((0, mat.shape[1])), []
    R, pivots = _rref(field, mat)
    free = [c for c in range(mat.shape[1]) if c not in pivots]
    basis = field.zeros((len(free), mat.shape[1]))
    basis[:, free] = field.identity(len(free))
    basis[:, pivots] = field.reduce(-R[: len(pivots), free].T)
    return basis, free


def kernel_basis(x: KMatrix) -> list[np.ndarray]:
    """Echelonized basis of the right null space; empty iff injective.

    One vector per free column, in ascending column order, with a 1 in the
    free coordinate.  Over Q a rank equal to the column count mod the prime
    ``_P`` answers an injective matrix without the fraction-free elimination;
    that answer is exact, because a minor nonzero mod ``_P`` is nonzero.
    Every other matrix (a non-empty kernel, or a prime dividing every
    maximal minor) is eliminated fraction-free.
    """
    return list(_freeze(_null_space(x.field, x.data)[0]))


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
        return cls(field, _endo_lift(field, field.identity(n), d))

    @property
    def rows(self) -> int:
        return self.data.shape[0]

    @property
    def cols(self) -> int:
        return self.data.shape[1]

    def entry(self, i: int, j: int) -> KMatrix:
        """The endomorphism at row i and column j: ``TypeError`` for a ``bool``
        or non-integer index, ``IndexError`` outside the rows or columns."""
        return KMatrix(self.field, self.data[_entry_index(i, self.rows, "row"), _entry_index(j, self.cols, "column")])

    def __eq__(self, other) -> bool:
        if not isinstance(other, EndoMatrix):
            return NotImplemented
        return self.field == other.field and self.field.equal(self.data, other.data)

    def __matmul__(self, other: "EndoMatrix") -> "EndoMatrix":
        return endo_mat_mul(self, other)

    def is_zero(self) -> bool:
        return self.field.is_zero(self.data)


def _endo_lift(field: Field, m, d: int):
    """m (x) id_d: each entry of ``m`` (any shape) times the d x d identity."""
    return field.reduce(m[..., None, None] * field.identity(d))


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
        return cls(algebra, _alg_lift(algebra.field, algebra.field.identity(n), algebra.unit))

    @property
    def size(self) -> int:
        return self.data.shape[0]

    def entry(self, i: int, j: int) -> np.ndarray:
        """The coordinates of the entry at row i and column j: ``TypeError``
        for a ``bool`` or non-integer index, ``IndexError`` outside [0, size)."""
        return self.data[_entry_index(i, self.size, "row"), _entry_index(j, self.size, "column")]

    def __eq__(self, other) -> bool:
        if not isinstance(other, AlgMatrix):
            return NotImplemented
        return self.algebra == other.algebra and self.algebra.field.equal(self.data, other.data)

    def __matmul__(self, other: "AlgMatrix") -> "AlgMatrix":
        return algmat_mul(self, other)


def _alg_lift(field: Field, m, x):
    """m (x) x: each entry of ``m`` (any shape) times the A-vector ``x``."""
    return field.reduce(m[..., None] * x)


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
