"""Twisting-map candidates, their verification routes, and twisted products.

A linear map ``chi: A (x) B -> B (x) A`` with ``B`` of dimension n is encoded
by the grid of maps ``gamma[i][j]: A -> A`` through

    chi(a (x) b_i) = sum_j  b_j (x) gamma[i][j](a).

Three independent routes decide whether ``chi`` is a twisting map, each a
key of the table ``CHECKS``, whose entry holds its family generators:

* ``direct``   ``_direct_pairs``: the four structure-constant conditions on
  the gamma grid (units, twisted multiplicativity, unit sums, product rule);
* ``rep``      ``_rho_pairs`` then ``_phi_pairs``: the two
  matrix-representation criteria (an End-valued matrix family indexed by the
  opposite of B, and an A-valued matrix family indexed by A), also run alone
  as the routes ``rho`` and ``phi``;
* ``oracle``   ``_oracle_pairs``: the definition itself: assemble the
  candidate product on B (x) A unconditionally and test associativity, units
  and the canonical inclusions.

``CHECKS`` then holds the conditions of the ``twistkit.catalog`` families
under their names ``ncd``, ``qdup``, ``kn`` and ``trunc``, each entry with the
builder of the carrier its conditions are written for.  Every generator takes
(A, B, G), G one grid or a stack of shape (..., n, n, d, d), and every side
of its families has at most two factors of G.  ``route_reports`` folds a
check's generators into its report on one candidate and ``route_ok`` into its
verdict, both on the family's one image (``GammaFamily._image``).  ``ROUTES``
(the keys without a carrier) and ``UNIT_FAMILIES`` (the keys of the three
independent routes, the ones with affine unit families) are read off it, and
``unit_pairs`` yields a route's unit families, which the searches read.

The routes agree on every candidate; the exhaustive searches in
``twistkit.search`` cross-validate them.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import islice
from typing import NamedTuple

import numpy as np

from .algebra import (
    FiniteDimAlgebra,
    _algebra_pairs,
    duplicate_algebra,
    kn_algebra,
    quadratic_algebra,
    truncated_poly_algebra,
)
from .errors import DimensionMismatchError, FieldMismatchError, UnverifiedCandidateError
from .fields import _CLEARED_QQ, Field, _Cleared
from .linalg import (
    AlgMatrix,
    EndoMatrix,
    KMatrix,
    _alg_entry_product,
    _alg_lift,
    _endo_lift,
    _endo_products,
    _freeze,
    kernel_basis,
)
from .report import VerificationReport, Failure, pairs_ok, pairs_report


class _AlgebraImage(NamedTuple):
    """What the family generators read of an algebra, in the cleared form of
    a check: its field, dimension, structure constants and unit."""

    field: Field
    dim: int
    lam: object
    unit: object


@dataclass(frozen=True, eq=False)
class GammaFamily:
    """The gamma grid of a candidate map A (x) B -> B (x) A.

    ``gamma`` has shape (n, n, d, d) with n = dim B, d = dim A;
    ``gamma[i, j]`` is the coordinate matrix (columns = images of basis
    vectors) of the map sending the A-component of ``a (x) b_i`` to the
    coefficient of ``b_j``.
    """

    A: FiniteDimAlgebra
    B: FiniteDimAlgebra
    gamma: np.ndarray

    def __post_init__(self):
        if self.A.field != self.B.field:
            raise FieldMismatchError(f"A over {self.A.field}, B over {self.B.field}")
        n, d = self.B.dim, self.A.dim
        if self.gamma.shape != (n, n, d, d):
            raise DimensionMismatchError(
                f"gamma grid has shape {self.gamma.shape}, expected {(n, n, d, d)}"
            )
        _freeze(self.gamma)

    @property
    def field(self):
        return self.A.field

    @cached_property
    def _image(self) -> tuple:
        """(A, B, G): the algebras and grid every check of the family runs on,
        built once from arrays that the constructors freeze.  Over Q the
        structure constants, units and grid are each cleared once
        (``Field.cleared``; an algebra on both sides once) and both images
        build their constants (``zeros``, ``identity``, ``unit_vector``)
        cleared, so nothing else is cleared in a check; over F_p they are the
        family's own arrays.  ``_product`` and ``_rep`` are built on it, each
        once per family."""
        field, A, B = self.field, self.A, self.B
        if field.kind == "Fp":
            return A, B, self.gamma
        images = [
            _AlgebraImage(_CLEARED_QQ, algebra.dim, field.cleared(algebra.lam), field.cleared(algebra.unit))
            for algebra in ((A,) if B is A else (A, B))
        ]
        return images[0], images[-1], field.cleared(self.gamma)

    @cached_property
    def _product(self) -> tuple:
        """(lam, unit): the candidate product on B (x) A, built once on the
        image (``_product_tensor(*_image)``) for the twisted product and its
        faithful form."""
        return _product_tensor(*self._image)

    @cached_property
    def _rep(self) -> tuple:
        """The four ``rep`` families (``rho.unit``, ``rho.mul``, ``phi.unit``,
        ``phi.mul``) as (tag, left, right) on the image, evaluated once for
        the block criteria of ``twistkit.extension``, which slice them.
        Every array is frozen (over Q, each numerator).  ``route_ok`` and
        ``route_reports`` do not read it: they stay lazy."""
        families = tuple(route_pairs("rep", *self._image))
        for _, *sides in families:
            for side in sides:
                _freeze(side.num if isinstance(side, _Cleared) else side)
        return families

    def __eq__(self, other) -> bool:
        if not isinstance(other, GammaFamily):
            return NotImplemented
        return (
            self.A == other.A
            and self.B == other.B
            and self.field.equal(self.gamma, other.gamma)
        )

    @classmethod
    def flip(cls, A: FiniteDimAlgebra, B: FiniteDimAlgebra) -> "GammaFamily":
        """The ordinary tensor product: gamma[i][j] = delta_ij * identity."""
        return cls(A, B, _endo_lift(A.field, A.field.identity(B.dim), A.dim))


@dataclass(frozen=True, eq=False)
class TwistingCandidate:
    """A gamma family together with its verification status.

    ``verified`` is a capability flag: it is meant to be set only through
    ``certify`` (or the extension module's constructions, which certify their
    output).  Consumers that require a twisting map refuse candidates whose
    flag is down instead of re-checking.
    """

    family: GammaFamily
    verified: bool = False

    @property
    def A(self) -> FiniteDimAlgebra:
        return self.family.A

    @property
    def B(self) -> FiniteDimAlgebra:
        return self.family.B

    def __eq__(self, other) -> bool:
        if not isinstance(other, TwistingCandidate):
            return NotImplemented
        return self.family == other.family and self.verified == other.verified


def _family_of(c) -> GammaFamily:
    return c.family if isinstance(c, TwistingCandidate) else c


def _require_verified(c: TwistingCandidate, what: str) -> GammaFamily:
    if not isinstance(c, TwistingCandidate) or not c.verified:
        raise UnverifiedCandidateError(f"{what} requires a verified twisting candidate")
    return c.family


def certify(c) -> TwistingCandidate:
    """Run the structure-constant checker and set the verified flag from it."""
    family = _family_of(c)
    return TwistingCandidate(family, verified=direct_ok(family))


# -- evaluation ---------------------------------------------------------------


def chi_eval(c, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Coordinates of chi(a (x) b) in the basis b_j (x) a_r of B (x) A.

    The result has length n*d with entry (j, r) at position j*d + r.
    """
    family = _family_of(c)
    phi = phi_hat(family, a).data
    # phi(a) b: entry (j, r) = sum_k gamma[k][j](a)_r b_k
    product = family.field.tensordot(phi, family.B._element(b, "b"), axes=([1], [0]))
    return product.reshape(family.B.dim * family.A.dim)


# -- identity kernels shared by the routes and the family checkers ---------------


def _phi_tensor(G: np.ndarray) -> np.ndarray:
    """The A-valued matrices of a grid or a stack G (..., n, n, d, d):
    phi[..., x, j, k, w] = gamma[k][j](a_x)_w, batch axes in front (a view)."""
    return G.transpose(*range(G.ndim - 4), -1, -3, -4, -2)


def _unit_images(field, G: np.ndarray, unitA: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Both sides of the unit rule gamma[i][j](1) = delta_ij 1; axes (i, j, r)."""
    left = field.einsum("...ijrc,c->...ijr", G, unitA)
    return left, _alg_lift(field, field.identity(G.shape[-3]), unitA)


def _twisted_products(field, G: np.ndarray, lamA: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Both sides of twisted multiplicativity on basis pairs; axes (x, y, j, k, w).

    With the A-valued matrices phi(a)[j, k] = gamma[k][j](a), the left side
    holds phi(a_x a_y) and the right side phi(a_x) phi(a_y), i.e.
    gamma[k][j](a_x a_y) against sum_l gamma[l][j](a_x) gamma[k][l](a_y).
    """
    phi = _phi_tensor(G)
    left = field.einsum("...kjrc,xyc->...xyjkr", G, lamA)
    return left, _alg_entry_product(field, lamA, phi, phi)


def _rule_compositions(field, lam: np.ndarray, X: np.ndarray, Y: np.ndarray) -> np.ndarray:
    """sum_{k,l} lam[k, l, m] X[j][l] o Y[i][k] for stacks of grid rows;
    axes (i, j, m, r, c)."""
    comps = field.einsum("...jlre,...ikec->...jlrikc", X, Y)
    return field.einsum("klm,...jlrikc->...ijmrc", lam, comps)


def _transposed(tag: str, sides, axes) -> tuple:
    """A (tag, left, right) family with both sides in the tag's witness order
    (``axes`` permutes the trailing axes; leading batch axes stay in front)."""
    trailing = [a - len(axes) for a in axes]
    return (tag, *(side.transpose(*range(side.ndim - len(axes)), *trailing) for side in sides))


# -- route 1: structure-constant conditions ------------------------------------


def _direct_unit_pairs(A: FiniteDimAlgebra, B: FiniteDimAlgebra, G: np.ndarray):
    """The two unit families ``direct.1`` and ``direct.3``, the ones affine in
    the grid, yielded lazily as (tag, left, right): every side has at most one
    factor of G."""
    field = A.field

    # (1) gamma_i^j(1) = delta_ij 1; witness axes (i, j, r)
    yield ("direct.1", *_unit_images(field, G, A.unit))

    # (3) alpha_k id = sum_i alpha_i gamma_i^k; witness axes (k, r, c)
    left3 = _endo_lift(field, B.unit, A.dim)
    right3 = field.einsum("i,...ikrc->...krc", B.unit, G)
    yield "direct.3", left3, right3


def _direct_pairs(A: FiniteDimAlgebra, B: FiniteDimAlgebra, G: np.ndarray):
    """The four structure-constant conditions on the gamma grid, yielded
    lazily as (tag, left, right) and tagged ``direct.1`` .. ``direct.4``: the
    unit families of ``_direct_unit_pairs`` as (1) and (3).  Conditions
    quantified over A are checked on basis pairs, which suffices by
    bilinearity.  Like every route generator it takes a grid G of shape
    (..., n, n, d, d): its batch axes lead every side that depends on G.
    Every side has at most two factors of G."""
    field = A.field
    units = _direct_unit_pairs(A, B, G)
    yield next(units)

    # (2) gamma_i^k(a a') = sum_j gamma_j^k(a) gamma_i^j(a') on basis pairs;
    #     witness axes (i, k, p, q, r)
    yield _transposed("direct.2", _twisted_products(field, G, A.lam), (3, 2, 0, 1, 4))

    yield next(units)

    # (4) sum_k lam_ij^k gamma_k^m = sum_{k,l} lam_kl^m gamma_j^l o gamma_i^k;
    #     witness axes (i, j, m, r, c)
    left4 = field.einsum("ijk,...kmrc->...ijmrc", B.lam, G)
    yield "direct.4", left4, _rule_compositions(field, B.lam, G, G)


def direct_ok(c) -> bool:
    return route_ok("direct", c)


# -- route 2a: End-valued representation ---------------------------------------


def _rho_tensor(field, lam: np.ndarray, G: np.ndarray) -> np.ndarray:
    """R[..., i, m] = sum_l lam[m, l, i] G[..., l] on grid rows: for a grid the
    batch holds k, and R[k] is the matrix of the k-th opposite basis vector."""
    return field.einsum("mli,...lrc->...imrc", lam, G)


def rho_hat(c, k: int) -> EndoMatrix:
    """The End-valued matrix attached to the k-th opposite basis vector."""
    family = _family_of(c)
    k = family.B._basis_index(k)
    return EndoMatrix(family.field, _rho_tensor(family.field, family.B.lam, family.gamma[k]))


def _rho_pairs(A: FiniteDimAlgebra, B: FiniteDimAlgebra, G: np.ndarray):
    """Representation criterion for the End-valued matrix family, tagged
    ``rho.unit`` and ``rho.mul``.  Equivalent to conditions (3) and (4) of
    the direct route; entry products are compositions of endomorphisms.
    Every side has at most two factors of G."""
    field = B.field
    R = _rho_tensor(field, B.lam, G)

    # unit: sum_k alpha_k R_k = identity; witness axes (i, m, r, c)
    yield "rho.unit", field.einsum("k,...kimrc->...imrc", B.unit, R), _endo_lift(field, field.identity(B.dim), A.dim)

    # multiplication against the opposite product: sum_k lam[j, i, k] R_k = R_i R_j;
    # witness axes (i, j, u, v, r, c)
    yield "rho.mul", field.einsum("jik,...kuvrc->...ijuvrc", B.lam, R), _endo_products(field, R, R)


# -- route 2b: A-valued representation -----------------------------------------


def phi_hat(c, a: np.ndarray) -> AlgMatrix:
    """The A-valued matrix of an element a: entry (j, k) = gamma[k][j](a)."""
    family = _family_of(c)
    a = family.A._element(a, "a")
    # sum_x a_x phi[x]
    return AlgMatrix(family.A, family.field.tensordot(a, _phi_tensor(family.gamma), axes=([0], [0])))


def _phi_pairs(A: FiniteDimAlgebra, B: FiniteDimAlgebra, G: np.ndarray):
    """Representation criterion for the A-valued matrix family, tagged
    ``phi.unit`` and ``phi.mul``.  Equivalent to conditions (1) and (2) of
    the direct route.  Every side has at most two factors of G."""
    # unit: phi(1_A) = identity matrix; witness axes (j, k, r)
    yield _transposed("phi.unit", _unit_images(A.field, G, A.unit), (1, 0, 2))

    # multiplicativity on basis pairs: phi(a_p a_q) = phi(a_p) phi(a_q);
    # witness axes (p, q, j, l, w)
    yield ("phi.mul", *_twisted_products(A.field, G, A.lam))


# -- twisted product ------------------------------------------------------------


def _product_tensor(A: FiniteDimAlgebra, B: FiniteDimAlgebra, G: np.ndarray) -> tuple:
    """Structure constants and unit of the candidate product on B (x) A.

    (b_i (x) a_p)(b_j (x) a_q) = sum_{k,l} lamB[i,l,k] * (gamma[j][l](a_p) a_q)
    on the basis vector b_k (x) -, ordered (i, p) -> i*d + p.  Batch axes of
    G lead the structure constants; the unit does not depend on G.
    """
    field = A.field
    nd = B.dim * A.dim
    t = field.einsum("...jlrp,rqw->...jlpqw", G, A.lam)
    lam6 = field.einsum("ilk,...jlpqw->...ipjqkw", B.lam, t)
    unit = field.einsum("i,p->ip", B.unit, A.unit).reshape(nd)
    return lam6.reshape(lam6.shape[:-6] + (nd, nd, nd)), unit


@dataclass(frozen=True, eq=False)
class TwistedTensorAlgebra:
    """The twisted product algebra together with its provenance candidate."""

    algebra: FiniteDimAlgebra
    candidate: TwistingCandidate

    @property
    def dim(self) -> int:
        return self.algebra.dim

    def include_B(self, b: np.ndarray) -> np.ndarray:
        """Coordinates of b (x) 1_A; ``DimensionMismatchError`` unless b has
        dim B coordinates."""
        candidate = self.candidate
        return _alg_lift(self.algebra.field, candidate.B._element(b, "b"), candidate.A.unit).reshape(self.dim)

    def include_A(self, a: np.ndarray) -> np.ndarray:
        """Coordinates of 1_B (x) a; ``DimensionMismatchError`` unless a has
        dim A coordinates."""
        candidate = self.candidate
        return _alg_lift(self.algebra.field, candidate.B.unit, candidate.A._element(a, "a")).reshape(self.dim)


def build_twisted_product(c: TwistingCandidate) -> TwistedTensorAlgebra:
    """The twisted tensor product algebra of a verified candidate.  Its
    structure constants and unit are the family's product on its image
    (``GammaFamily._product``); over Q they leave the cleared form once, as
    ``Fraction`` arrays."""
    family = _require_verified(c, "build_twisted_product")
    lam, unit = family._product
    if family.field.kind == "Q":
        lam, unit = lam.fractions(), unit.fractions()
    labels = tuple(
        f"{bl}⊗{al}" for bl in family.B.basis for al in family.A.basis
    )
    algebra = FiniteDimAlgebra(family.field, family.B.dim * family.A.dim, labels, lam, unit)
    return TwistedTensorAlgebra(algebra, c)


# -- route 3: the definition-level oracle ----------------------------------------


def _oracle_pairs(A: FiniteDimAlgebra, B: FiniteDimAlgebra, G: np.ndarray):
    """Definition-level families, computed without the condition formulas.

    Assembles the product on B (x) A unconditionally and checks: the two
    chi-unit axioms, associativity on all basis triples, the two-sided unit,
    that both canonical inclusions are algebra morphisms, and the
    factorization property.  Tags ``oracle.*``.  The product is linear in G,
    so every side has at most two factors of G.
    """
    field = A.field
    lamA, unitA = A.lam, A.unit
    lamB, unitB = B.lam, B.unit
    n, d, nd = B.dim, A.dim, B.dim * A.dim
    eye_n, eye_d = field.identity(n), field.identity(d)

    # chi(1_A (x) b_i) = b_i (x) 1_A = i_B(b_i); witness axes (i, j, r)
    left_cu = field.einsum("...ijrc,c->...ijr", G, unitA)
    right_cu = field.reduce(eye_n[:, :, None] * unitA[None, None, :])
    yield "oracle.chi-left-unit", left_cu, right_cu

    # chi(a_p (x) 1_B) = 1_B (x) a_p = i_A(a_p); witness axes (p, j, r)
    left_ru = field.einsum("i,...ijrp->...pjr", unitB, G)
    right_ru = field.reduce(unitB[None, :, None] * eye_d[:, None, :])
    yield "oracle.chi-right-unit", left_ru, right_ru

    lam, unit = _product_tensor(A, B, G)

    # the assembled product is an algebra: associativity, witness axes
    # (x, y, z, w), then the two-sided unit
    for tag, left, right in _algebra_pairs(field, lam, unit):
        yield f"oracle.{tag.replace('.', '-')}", left, right

    # canonical inclusions (the right sides of the chi-unit families) are algebra maps
    ib = right_cu.reshape(n, nd)
    ia = right_ru.reshape(d, nd)

    t1 = field.einsum("xs,...stm->...xtm", ib, lam)
    prod_bb = field.einsum("yt,...xtm->...xym", ib, t1)
    exp_bb = field.einsum("xyk,km->xym", lamB, ib)
    yield "oracle.iB", prod_bb, exp_bb

    t2 = field.einsum("ps,...stm->...ptm", ia, lam)
    prod_aa = field.einsum("qt,...ptm->...pqm", ia, t2)
    exp_aa = field.einsum("pqk,km->pqm", lamA, ia)
    yield "oracle.iA", prod_aa, exp_aa

    # i_B(b_i) i_A(a_p) = b_i (x) a_p; witness axes (i, p, m)
    prod_ba = field.einsum("...xtm,pt->...xpm", t1, ia)
    yield "oracle.factor", prod_ba, field.identity(nd).reshape(n, d, nd)


# -- the catalog conditions (tags documented at the entries of ``catalog``) -------


def _duplicate_compositions(field, G: np.ndarray) -> np.ndarray:
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


def _ncd_pairs(A: FiniteDimAlgebra, B: FiniteDimAlgebra, G: np.ndarray):
    """The duplicate families ``ncd.1`` .. ``ncd.7`` on a grid or a stack G of
    duplicate grids, (f, delta) = (G[..., 1, 1], G[..., 1, 0]).  Every side
    has at most two factors of G."""
    field = A.field
    delta, f = G[..., 1, 0, :, :], G[..., 1, 1, :, :]
    (dd, df), (fd, ff) = _duplicate_compositions(field, G)

    yield "ncd.1", dd, delta
    yield "ncd.2", field.reduce(fd + df + ff), f
    yield "ncd.3", field.reduce(dd + df + fd + ff), field.add(delta, f)
    yield from _duplicate_rule_pairs(A, G, (("ncd.4", 0), ("ncd.5", 1)), ("ncd.6", "ncd.7"))


def _qdup_pairs(A: FiniteDimAlgebra, B: FiniteDimAlgebra, G: np.ndarray):
    """The quantum-duplicate families ``qdup.*`` on a grid or a stack G of
    duplicate grids; alpha and beta are read off the carrier, X^2 = alpha X - beta.
    Every side has at most two factors of G."""
    field = A.field
    a, b = B.lam[1, 1, 1], -B.lam[1, 1, 0]
    delta, f = G[..., 1, 0, :, :], G[..., 1, 1, :, :]
    (dd, df), (fd, ff) = _duplicate_compositions(field, G)

    yield "qdup.P", field.reduce(dd - a * delta + b * field.identity(A.dim)), field.reduce(b * ff)
    yield "qdup.swap", field.reduce(fd + df), field.reduce(a * (f - ff))
    yield from _duplicate_rule_pairs(A, G, (("qdup.unital", 1),), ("qdup.derivation", "qdup.mult"))


def _kn_pairs(A: FiniteDimAlgebra, B: FiniteDimAlgebra, G: np.ndarray):
    """The K^n families ``kn.1`` .. ``kn.4`` on a grid or a stack G of shape
    (..., n, n, d, d); the identities of ``kn.2`` are the unit of K^n, (1, ..,
    1), lifted to End(A).  Every side has at most two factors of G."""
    field = A.field
    comps = field.einsum("...iprs,...jpsc->...ijprc", G, G)
    expected = field.reduce(field.identity(B.dim)[:, :, None, None, None] * G[..., :, None, :, :, :])
    yield "kn.1", comps, expected

    yield "kn.2", field.reduce(G.sum(axis=-4)), _endo_lift(field, B.unit, A.dim)  # (i, r, c)
    yield _transposed("kn.3", _twisted_products(field, G, A.lam), (3, 2, 0, 1, 4))
    yield ("kn.4", *_unit_images(field, G, A.unit))


def _truncated_pairs(A: FiniteDimAlgebra, B: FiniteDimAlgebra, G: np.ndarray):
    """The truncated-carrier families ``trunc.1`` .. ``trunc.5`` on a grid or a
    stack G of shape (..., n, n, d, d).  Every side has at most two factors
    of G."""
    field = A.field
    n, d = B.dim, A.dim
    batch = G.shape[:-4]

    yield "trunc.1", G[..., 0, :, :, :], _endo_lift(field, field.unit_vector(n, 0), d)

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


# -- the table of checks -------------------------------------------------------------


class _Check(NamedTuple):
    """One check of the table."""

    pairs: tuple  # its family generators, in report and verdict order
    carrier: object = None  # a catalog check's carrier built from B (None when B has none)
    units: tuple = ()  # a route's affine unit families: (generator, how many it yields first)


def _quadratic_carrier(B: FiniteDimAlgebra):
    """K[X]/(X^2 - alpha X + beta) with X^2 = alpha X - beta read off B, or
    None when B is not two-dimensional."""
    return quadratic_algebra(B.field, B.lam[1, 1, 1], -B.lam[1, 1, 0]) if B.dim == 2 else None


#: Every check, in report and verdict order: the routes, then the catalog
#: conditions.  ``direct.2`` lies between ``direct.1`` and ``direct.3``, so the
#: unit families of ``direct`` come from the generator of those two alone.
CHECKS = {
    "direct": _Check((_direct_pairs,), units=((_direct_unit_pairs, 2),)),
    "rho": _Check((_rho_pairs,)),
    "phi": _Check((_phi_pairs,)),
    "rep": _Check((_rho_pairs, _phi_pairs), units=((_rho_pairs, 1), (_phi_pairs, 1))),
    "oracle": _Check((_oracle_pairs,), units=((_oracle_pairs, 2),)),
    "ncd": _Check((_ncd_pairs,), lambda B: duplicate_algebra(B.field)),
    "qdup": _Check((_qdup_pairs,), _quadratic_carrier),
    "kn": _Check((_kn_pairs,), lambda B: kn_algebra(B.field, B.dim)),
    "trunc": _Check((_truncated_pairs,), lambda B: truncated_poly_algebra(B.field, B.dim)),
}

#: The keys of the routes, the checks that take any carrier.
ROUTES = tuple(key for key, check in CHECKS.items() if check.carrier is None)

#: The keys of the three independent routes, the checks with affine unit families.
UNIT_FAMILIES = tuple(key for key, check in CHECKS.items() if check.units)


def _require_carrier(family: GammaFamily, check: str) -> None:
    """Refuse a catalog check on a candidate whose B is not the check's carrier."""
    carrier = CHECKS[check].carrier
    if carrier is None:
        return
    expected = carrier(family.B)
    if expected is None or family.B != expected:
        raise DimensionMismatchError(f"carrier B is not the carrier of the {check!r} check")


def route_pairs(check: str, A: FiniteDimAlgebra, B: FiniteDimAlgebra, G: np.ndarray):
    """Every family of the check, lazily and in report order, on one grid or a
    stack G of shape (..., n, n, d, d)."""
    for pairs in CHECKS[check].pairs:
        yield from pairs(A, B, G)


def unit_pairs(route: str, A: FiniteDimAlgebra, B: FiniteDimAlgebra, G: np.ndarray):
    """The route's affine unit families, lazily, on one grid or a stack G of
    shape (..., n, n, d, d): the first ``count`` families of each
    ``(generator, count)`` of its entry's ``units``, in that order."""
    for pairs, count in CHECKS[route].units:
        yield from islice(pairs(A, B, G), count)


def route_ok(check: str, c) -> bool:
    """The check's verdict on one candidate; it stops at the first failing
    family.  A catalog check refuses a candidate off its carrier."""
    family = _family_of(c)
    _require_carrier(family, check)
    return pairs_ok(family.field, route_pairs(check, *family._image))


def route_reports(c, checks) -> dict[str, VerificationReport]:
    """The report of each of ``checks`` (keys of ``CHECKS``) on one
    candidate, in the order given.  All run on the image of the family
    (``GammaFamily._image``) and each distinct generator runs once: the
    ``rep`` report is the ``rho`` failures, then the ``phi`` failures.  A
    catalog check refuses a candidate off its carrier."""
    family = _family_of(c)
    for check in checks:
        _require_carrier(family, check)
    image = family._image
    generators = dict.fromkeys(pairs for check in checks for pairs in CHECKS[check].pairs)
    failures = {g: pairs_report(family.field, g(*image)).failures for g in generators}
    return {
        check: VerificationReport.from_failures(f for pairs in CHECKS[check].pairs for f in failures[pairs])
        for check in checks
    }


# -- the faithful representation -------------------------------------------------


@dataclass(frozen=True, eq=False)
class FaithfulRep:
    """The faithful A-valued matrix representation of a twisted product.

    ``on_basis[k*d + p]`` is the image of the product basis vector
    b_k (x) a_p; ``apply`` extends linearly.
    """

    product: TwistedTensorAlgebra
    on_basis: tuple[AlgMatrix, ...]

    def apply(self, coords: np.ndarray) -> AlgMatrix:
        algebra = self.product.algebra
        stack = np.stack([m.data for m in self.on_basis])
        data = algebra.field.tensordot(algebra._element(coords, "coords"), stack, axes=([0], [0]))
        return AlgMatrix(self.on_basis[0].algebra, data)


def _faithful_tensor(A: FiniteDimAlgebra, B: FiniteDimAlgebra, G: np.ndarray) -> np.ndarray:
    """Images of all product basis vectors, shape (n*d, n, n, d)."""
    field = A.field
    lamA, unitA = A.lam, A.unit
    n, d = B.dim, A.dim
    # image of b_k: entry (i, j) = lamB[k, j, i] * 1_A
    pb = _alg_lift(field, B.lam.transpose(0, 2, 1), unitA)
    # image of a_p: phi[p], entry (i, j) = gamma[j][i](a_p); the image of
    # b_k (x) a_p is the matrix product pb[k] phi[p]
    return _alg_entry_product(field, lamA, pb, _phi_tensor(G)).reshape(n * d, n, n, d)


def lift_structure_matrix(c, k: int) -> AlgMatrix:
    """A-valued structure matrix of the k-th carrier basis vector.

    Entry (i, j) is the scalar ``lam[k, j, i]`` times the unit of A; this is
    the image of ``b_k (x) 1`` under the faithful representation.
    """
    family = _family_of(c)
    structure = family.B.lam[family.B._basis_index(k)].T
    return AlgMatrix(family.A, _alg_lift(family.field, structure, family.A.unit))


def faithful_rep(c: TwistingCandidate) -> FaithfulRep:
    """The faithful representation of a verified candidate, on all basis vectors."""
    family = _require_verified(c, "faithful_rep")
    product = build_twisted_product(c)
    images = _faithful_tensor(family.A, family.B, family.gamma)
    mats = tuple(AlgMatrix(family.A, images[x].copy()) for x in range(images.shape[0]))
    return FaithfulRep(product, mats)


def verify_faithful(c: TwistingCandidate) -> VerificationReport:
    """Morphism, unit and injectivity checks for the faithful representation.

    Tags: ``faithful.mul`` (all product-basis pairs), ``faithful.unit`` and
    ``faithful.kernel`` (the underlying linear map must be injective).  All
    three run on the image of the family (``GammaFamily._image``), and the
    first two on the product that ``build_twisted_product`` reads too
    (``GammaFamily._product``).
    """
    family = _require_verified(c, "verify_faithful")
    field = family.field
    A, B, G = family._image
    n, d = B.dim, A.dim
    images = _faithful_tensor(A, B, G)
    report = pairs_report(field, _faithful_pairs(A, B, images, family._product))

    # injectivity of the underlying linear map (n*d -> n*n*d); a positive
    # multiple of the images has the same RREF, so the same kernel basis
    flat = field.numerators(images).reshape(n * d, n * n * d).T
    kernel = kernel_basis(KMatrix(field, flat.copy()))
    if not kernel:
        return report
    failure = Failure("faithful.kernel", left=field.format_array(kernel[0]), count=len(kernel))
    return VerificationReport.from_failures((*report.failures, failure))


def _faithful_pairs(A: FiniteDimAlgebra, B: FiniteDimAlgebra, images: np.ndarray, product: tuple):
    """The faithful form's families: ``images`` from ``_faithful_tensor`` and
    ``product`` = (lam, unit) from ``_product_tensor``, both of (A, B, G)."""
    field = A.field
    lamA, unitA = A.lam, A.unit
    lam, unit = product

    # multiplicativity on all product-basis pairs; witness axes (x, y, i, l, w)
    prod = _alg_entry_product(field, lamA, images, images)
    yield "faithful.mul", prod, field.tensordot(lam, images, axes=([2], [0]))

    # image of the product unit is the identity matrix
    unit_img = field.tensordot(unit, images, axes=([0], [0]))
    yield "faithful.unit", unit_img, _alg_lift(field, field.identity(B.dim), unitA)
