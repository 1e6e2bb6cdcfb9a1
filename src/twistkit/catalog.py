"""Constructors and acceptance predicates for the stock twisting families.

Each family comes with a constructor (which always builds; verification is a
separate call) and the family's own acceptance conditions, exposed as a
tagged report so the equivalence with the generic checkers can be swept
family by family.  The conditions come from generators with the signature of
the route generators of ``twisting``: (A, B, G), G one grid or a stack of
shape (..., n, n, d, d).  They read the family's data off the carrier and the
grid and validate nothing; each public entry validates once, through the
constructor it mirrors.  The families:

* duplicates           carrier K[X]/(X^2 - X), data a pair (f, delta);
* quantum duplicates   carrier K[X]/(X^2 - alpha X + beta), same data;
* K^n twists           carrier K^n, data an n x n grid of endomorphisms;
* truncated twists     carrier K[Y]/(Y^n), grid indexed by exponents 0..n-1.

K^n candidates also yield a quiver (one vertex per basis idempotent, an arrow
per nonzero grid entry) carrying the grid maps as a representation.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .algebra import (
    FiniteDimAlgebra,
    kn_algebra,
    quadratic_algebra,
    truncated_poly_algebra,
)
from .errors import DimensionMismatchError, FieldMismatchError
from .fields import Field
from .linalg import KMatrix, _endo_identity
from .report import VerificationReport, pairs_ok, pairs_report
from .twisting import (
    GammaFamily,
    TwistingCandidate,
    _family_of,
    _rule_compositions,
    _transposed,
    _twisted_products,
    _unit_images,
)


def _endo_array(field: Field, d: int, value) -> np.ndarray:
    if isinstance(value, KMatrix) and value.field != field:
        raise FieldMismatchError(f"endomorphism over {value.field}, algebra over {field}")
    arr = value.data if isinstance(value, KMatrix) else field.asarray(value)
    if arr.shape != (d, d):
        raise DimensionMismatchError(f"endomorphism must be {d} x {d}, got {arr.shape}")
    return arr


def _grid_array(field: Field, n: int, d: int, grid) -> np.ndarray:
    """The (n, n, d, d) array of an n x n grid of d x d endomorphisms."""
    if isinstance(grid, np.ndarray) and grid.shape == (n, n, d, d):
        return field.asarray(grid)
    if len(grid) != n or any(len(row) != n for row in grid):
        raise DimensionMismatchError(f"grid must be {n} x {n} endomorphisms of size {d} x {d}")
    data = field.zeros((n, n, d, d))
    for i in range(n):
        for j in range(n):
            data[i, j] = _endo_array(field, d, grid[i][j])
    return data


def _fold(fold, pairs, family: GammaFamily):
    """``pairs_report`` or ``pairs_ok`` of a generator on a validated family."""
    return fold(family.field, pairs(family.A, family.B, family.gamma))


# -- shared condition families --------------------------------------------------


def _duplicate_compositions(field: Field, G: np.ndarray) -> np.ndarray:
    """comps[a][b] = X_a o X_b for (X_0, X_1) = (delta, f) = (G[..., 1, 0],
    G[..., 1, 1]), on a grid or a stack of duplicate grids."""
    X = G[..., 1, :, :, :]
    return field.einsum("...ars,...bsc->ab...rc", X, X)


def _duplicate_rule_pairs(A: FiniteDimAlgebra, G: np.ndarray, units, rules):
    """Entries of the unit rule at gamma[1][j] for each (tag, j) of ``units``,
    then of twisted multiplicativity at delta and f, tagged ``rules``: delta(a_p
    a_q) = a_p delta(a_q) + delta(a_p) f(a_q), f(a_p a_q) = f(a_p) f(a_q)."""
    field = A.field
    left, right = _unit_images(field, G, A.unit)
    for tag, j in units:
        yield tag, left[..., 1, j, :], right[1, j]
    products = _twisted_products(field, G, A.lam)
    for tag, j in zip(rules, (0, 1)):
        yield (tag, *(side[..., j, 1, :] for side in products))


# -- duplicates (carrier K[X]/(X^2 - X)) -----------------------------------------


def make_ncd(A: FiniteDimAlgebra, f, delta) -> TwistingCandidate:
    """Duplicate candidate: identity over the unit basis vector, (delta, f)
    over X.  Verification is a separate call."""
    return make_quantum_duplicate(A, 1, 0, f, delta)


def ncd_conditions(A: FiniteDimAlgebra, f, delta) -> VerificationReport:
    """The seven duplicate conditions on (f, delta), individually tagged.

    ``ncd.1``  delta o delta = delta
    ``ncd.2``  f o delta + delta o f + f o f = f
    ``ncd.3``  (delta + f)^2 = delta + f
    ``ncd.4``  delta(1) = 0
    ``ncd.5``  f(1) = 1
    ``ncd.6``  delta(ab) = a delta(b) + delta(a) f(b)
    ``ncd.7``  f(ab) = f(a) f(b)

    1 and 2 imply 3, and 5 and 6 imply 4, so {1, 2, 5, 6, 7} generate.
    """
    return _fold(pairs_report, _ncd_pairs, make_ncd(A, f, delta).family)


def ncd_predicate(A: FiniteDimAlgebra, f, delta) -> bool:
    """f a unital multiplicative endomorphism, delta a twisted derivation
    along (id, f) with delta o delta = delta and f = f^2 + delta o f + f o delta."""
    return _fold(pairs_ok, _ncd_pairs, make_ncd(A, f, delta).family)


def _ncd_pairs(A: FiniteDimAlgebra, B: FiniteDimAlgebra, G: np.ndarray):
    """The duplicate families on a grid or a stack G of duplicate grids,
    (f, delta) = (G[..., 1, 1], G[..., 1, 0])."""
    field = A.field
    delta, f = G[..., 1, 0, :, :], G[..., 1, 1, :, :]
    (dd, df), (fd, ff) = _duplicate_compositions(field, G)

    yield "ncd.1", dd, delta
    yield "ncd.2", field.reduce(fd + df + ff), f
    yield "ncd.3", field.reduce(dd + df + fd + ff), field.add(delta, f)
    yield from _duplicate_rule_pairs(A, G, (("ncd.4", 0), ("ncd.5", 1)), ("ncd.6", "ncd.7"))


# -- quantum duplicates (carrier K[X]/(X^2 - alpha X + beta)) ---------------------


def make_quantum_duplicate(A: FiniteDimAlgebra, alpha, beta, f, delta) -> TwistingCandidate:
    field, d = A.field, A.dim
    grid = field.zeros((2, 2, d, d))
    grid[0, 0] = field.identity(d)
    grid[1, 0] = _endo_array(field, d, delta)
    grid[1, 1] = _endo_array(field, d, f)
    return TwistingCandidate(GammaFamily(A, quadratic_algebra(field, alpha, beta), grid))


def qdup_conditions(A: FiniteDimAlgebra, alpha, beta, f, delta) -> VerificationReport:
    """Quantum-duplicate conditions on (f, delta) for the polynomial
    X^2 - alpha X + beta.

    ``qdup.P``          delta^2 - alpha delta + beta id = beta f^2
    ``qdup.swap``       f o delta + delta o f = alpha (f - f^2)
    ``qdup.unital``     f(1) = 1
    ``qdup.derivation`` delta(ab) = a delta(b) + delta(a) f(b)
    ``qdup.mult``       f(ab) = f(a) f(b)
    """
    return _fold(pairs_report, _qdup_pairs, make_quantum_duplicate(A, alpha, beta, f, delta).family)


def qdup_predicate(A: FiniteDimAlgebra, alpha, beta, f, delta) -> bool:
    return _fold(pairs_ok, _qdup_pairs, make_quantum_duplicate(A, alpha, beta, f, delta).family)


def _qdup_pairs(A: FiniteDimAlgebra, B: FiniteDimAlgebra, G: np.ndarray):
    """The quantum-duplicate families on a grid or a stack G of duplicate
    grids; alpha and beta are read off the carrier, X^2 = alpha X - beta."""
    field = A.field
    a, b = B.lam[1, 1, 1], -B.lam[1, 1, 0]
    delta, f = G[..., 1, 0, :, :], G[..., 1, 1, :, :]
    (dd, df), (fd, ff) = _duplicate_compositions(field, G)

    yield "qdup.P", field.reduce(dd - a * delta + b * field.identity(A.dim)), field.reduce(b * ff)
    yield "qdup.swap", field.reduce(fd + df), field.reduce(a * (f - ff))
    yield from _duplicate_rule_pairs(A, G, (("qdup.unital", 1),), ("qdup.derivation", "qdup.mult"))


# -- K^n twists -------------------------------------------------------------------


def make_kn(A: FiniteDimAlgebra, n: int, gamma_grid) -> TwistingCandidate:
    field = A.field
    carrier = kn_algebra(field, n)
    grid = _grid_array(field, n, A.dim, gamma_grid)
    return TwistingCandidate(GammaFamily(A, carrier, grid))


def kn_conditions(A: FiniteDimAlgebra, n: int, gamma_grid) -> VerificationReport:
    """The K^n family conditions on the grid.

    ``kn.1``  grid[i][p] o grid[j][p] = delta_ij grid[i][p]; witness (i, j, p, ...)
    ``kn.2``  sum_j grid[j][i] = id for every i; witness (i, ...)
    ``kn.3``  twisted multiplicativity on basis pairs
    ``kn.4``  grid[i][j](1) = delta_ij 1
    """
    return _fold(pairs_report, _kn_pairs, make_kn(A, n, gamma_grid).family)


def _kn_pairs(A: FiniteDimAlgebra, B: FiniteDimAlgebra, G: np.ndarray):
    """The K^n families on a grid or a stack G of shape (..., n, n, d, d)."""
    field = A.field
    comps = field.einsum("...iprs,...jpsc->...ijprc", G, G)
    expected = field.reduce(field.identity(B.dim)[:, :, None, None, None] * G[..., :, None, :, :, :])
    yield "kn.1", comps, expected

    row_sums = field.reduce(G.sum(axis=-4))                         # (i, r, c)
    yield "kn.2", row_sums, np.broadcast_to(field.identity(A.dim), row_sums.shape)

    yield _transposed("kn.3", _twisted_products(field, G, A.lam), (3, 2, 0, 1, 4))
    yield ("kn.4", *_unit_images(field, G, A.unit))


def kn_admissible(candidate: TwistingCandidate | GammaFamily) -> VerificationReport:
    """Family conditions evaluated on an existing K^n candidate."""
    family = _family_of(candidate)
    _require_kn_carrier(family)
    return _fold(pairs_report, _kn_pairs, family)


# -- quivers of K^n twists ---------------------------------------------------------


@dataclass(frozen=True)
class Quiver:
    """Vertices v_1..v_n; an arrow (source j, target i) per nonzero grid map."""

    vertices: tuple[str, ...]
    arrows: tuple[tuple[int, int], ...]


@dataclass(frozen=True, eq=False)
class QuiverRep:
    """All vertex spaces equal the twisted algebra; arrow (j, i) carries grid[j][i]."""

    quiver: Quiver
    maps: dict[tuple[int, int], KMatrix]


def _require_kn_carrier(family: GammaFamily) -> None:
    expected = kn_algebra(family.field, family.B.dim)
    if family.B != expected:
        raise DimensionMismatchError("carrier is not K^n in the idempotent basis")


def quiver_of(candidate: TwistingCandidate | GammaFamily) -> tuple[Quiver, QuiverRep]:
    """Quiver with an arrow j -> i exactly at each nonzero grid entry."""
    family = _family_of(candidate)
    _require_kn_carrier(family)
    field = family.field
    nonzero = field.mismatch(family.gamma, field.zero).any(axis=(2, 3))
    arrows = tuple((j, i) for j, i in np.argwhere(nonzero).tolist())
    maps = {(j, i): KMatrix(field, family.gamma[j, i]) for j, i in arrows}
    quiver = Quiver(tuple(f"v{i + 1}" for i in range(family.B.dim)), arrows)
    return quiver, QuiverRep(quiver, maps)


# -- truncated polynomial twists ----------------------------------------------------


def make_truncated(A: FiniteDimAlgebra, n: int, gamma_grid) -> TwistingCandidate:
    field = A.field
    carrier = truncated_poly_algebra(field, n)
    grid = _grid_array(field, n, A.dim, gamma_grid)
    return TwistingCandidate(GammaFamily(A, carrier, grid))


def truncated_conditions(A: FiniteDimAlgebra, n: int, gamma_grid) -> VerificationReport:
    """The truncated-carrier conditions on a grid indexed by exponents 0..n-1.

    ``trunc.1``  grid[0][j] = delta_0j id; witness (j, u, v)
    ``trunc.2``  grid[r][j] = sum_{l<=j} grid[r-i][j-l] o grid[i][l]
                 for 1 < r < n, 0 < i < r, j < n; witness (t, u, v) with
                 t the flat index of (r, i, j), r slowest and j fastest
    ``trunc.3``  sum_{l<=j} grid[n-i][j-l] o grid[i][l] = 0
                 for 0 < i < n, j < n; witness (t, u, v) with t = (i - 1) n + j
    ``trunc.4``  twisted multiplicativity on basis pairs
    ``trunc.5``  grid[i][j](1) = delta_ij 1

    (u, v) is the entry of the d x d coordinate matrix.
    """
    return _fold(pairs_report, _truncated_pairs, make_truncated(A, n, gamma_grid).family)


def _truncated_pairs(A: FiniteDimAlgebra, B: FiniteDimAlgebra, G: np.ndarray):
    """The truncated-carrier families on a grid or a stack G of shape
    (..., n, n, d, d)."""
    field = A.field
    n, d = B.dim, A.dim
    batch = G.shape[:-4]

    yield "trunc.1", G[..., 0, :, :, :], _endo_identity(field, n, d)[0]

    # conv[..., i, r, j] = sum_{l<=j} grid[r][j-l] o grid[i][l]: the product
    # rule against the constants of the carrier
    conv = _rule_compositions(field, B.lam, G, G)
    r, i = np.tril_indices(n - 1, -1)      # 0 < i < r < n, r slowest
    r, i = r + 1, i + 1
    left2 = G[..., r, :, :, :].reshape(*batch, -1, d, d)
    yield "trunc.2", left2, conv[..., i, r - i, :, :, :].reshape(left2.shape)
    i = np.arange(1, n)
    left3 = conv[..., i, n - i, :, :, :].reshape(*batch, -1, d, d)
    yield "trunc.3", left3, field.zeros(left3.shape)

    yield _transposed("trunc.4", _twisted_products(field, G, A.lam), (3, 2, 0, 1, 4))
    yield ("trunc.5", *_unit_images(field, G, A.unit))


def truncated_from_first_row(A: FiniteDimAlgebra, n: int, first_row) -> TwistingCandidate:
    """Grid generated from the exponent-1 row: row 0 is (id, 0, ..., 0) and
    each higher row is derived by the convolution rule with step 1."""
    field = A.field
    d = A.dim
    if n < 2 or len(first_row) != n:
        raise DimensionMismatchError(f"need n >= 2 and a first row of {n} endomorphisms of size {d} x {d}")
    carrier = truncated_poly_algebra(field, n)
    grid = field.zeros((n, n, d, d))
    grid[0, 0] = field.identity(d)
    grid[1] = [_endo_array(field, d, entry) for entry in first_row]
    for r in range(2, n):
        grid[r] = _rule_compositions(field, carrier.lam, grid[r - 1 : r], grid[1:2])[0, 0]
    return TwistingCandidate(GammaFamily(A, carrier, grid))
