"""Extending twisting maps along a direct product of the finite factor.

For D = B x C with the B-block-first basis the structure constants of D are
block-diagonal, so every End-valued matrix R_k of a candidate on (A, D) is
block-diagonal too, and blocks of products are products of blocks.  Every
block criterion is therefore a slice of the ``rep`` route on D: each
End-valued block condition an index-block x matrix-block slice of
``rho.mul`` / ``rho.unit``, each A-valued one a corner of ``phi.unit`` /
``phi.mul``, on one grid or a stack G of shape (..., N, N, d, d) like the
route generators.  On a candidate those four families are evaluated once per
candidate, on the family's image (``GammaFamily._rep``), and every criterion
slices the same arrays.  The checkers decide, given that the restriction to
B is already a twisting map, whether the whole candidate is one, by testing
the block conditions directly.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import islice

import numpy as np

from .algebra import FiniteDimAlgebra, direct_product
from .errors import (
    BlockFormError,
    DimensionMismatchError,
    FieldMismatchError,
    UnverifiedCandidateError,
    _require_int,
)
from .linalg import _alg_entry_product, _freeze
from .report import VerificationReport, pairs_report
from .twisting import (
    GammaFamily,
    TwistingCandidate,
    _family_of,
    _phi_tensor,
    _require_verified,
    _rho_tensor,
    certify,
    direct_ok,
    phi_hat,
)


def _check_block_structure(psi: GammaFamily, n: int) -> tuple[slice, slice]:
    """The index blocks (B, C) of the cut at n; the carrier of psi must be a
    direct product in the block basis."""
    total = psi.B.dim
    if not 0 < _require_int(n, "cut") < total:
        raise DimensionMismatchError(f"cut {n} out of range for dimension {total}")
    B, C = slice(0, n), slice(n, None)
    off_diagonal = ((B, B, C), (C, C, B), (B, C), (C, B))
    if not all(psi.field.is_zero(psi.B.lam[block]) for block in off_diagonal):
        raise DimensionMismatchError(f"carrier algebra is not a direct product split at {n}")
    return B, C


def _factor(D: FiniteDimAlgebra, part: slice) -> FiniteDimAlgebra:
    basis = D.basis[part]
    return FiniteDimAlgebra(
        D.field, len(basis), basis, D.lam[part, part, part].copy(), D.unit[part].copy()
    )


def _corner_family(psi: GammaFamily, part: slice) -> GammaFamily:
    """The candidate on one factor: the diagonal corner of the grid."""
    return GammaFamily(psi.A, _factor(psi.B, part), psi.gamma[part, part].copy())


def factor_algebras(psi: GammaFamily, n: int) -> tuple[FiniteDimAlgebra, FiniteDimAlgebra]:
    """The two factors of the carrier D = B x C, recovered by slicing."""
    return tuple(_factor(psi.B, part) for part in _check_block_structure(psi, n))


@dataclass(frozen=True, eq=False)
class BlockDecomposition:
    """Block data of a candidate over D = B x C.

    ``R[k]`` is the End-valued matrix of the whole candidate at the k-th basis
    vector of D, block-diagonal for the cut.  ``B1[k]`` / ``B2[k]`` (k < n)
    are its two diagonal blocks at the k-th B-basis vector, of sizes n x n and
    m x m; ``C1[k]`` / ``C2[k]`` (k < m) the analogues at C-basis vectors.
    All four are views of ``R``.  The four A-valued corner blocks of the
    matrix family attached to A are evaluated by slicing, not stored.
    """

    psi: GammaFamily
    n: int
    R: np.ndarray  # (n + m, n + m, n + m, d, d)

    def __post_init__(self):
        _freeze(self.R)

    @property
    def m(self) -> int:
        return self.psi.B.dim - self.n

    @property
    def parts(self) -> tuple[slice, slice]:
        """The index blocks B = [0, n) and C = [n, n + m)."""
        return slice(0, self.n), slice(self.n, None)

    def _diagonal(self, index: int, block: int) -> np.ndarray:
        parts = self.parts
        return self.R[parts[index], parts[block], parts[block]]

    B1 = property(lambda self: self._diagonal(0, 0))  # (n, n, n, d, d)
    B2 = property(lambda self: self._diagonal(0, 1))  # (n, m, m, d, d)
    C1 = property(lambda self: self._diagonal(1, 0))  # (m, n, n, d, d)
    C2 = property(lambda self: self._diagonal(1, 1))  # (m, m, m, d, d)

    def gamma_block(self, p: int, q: int, a: np.ndarray) -> np.ndarray:
        """A-valued corner block at an element of A, sliced from its full matrix.

        ``p`` and ``q`` number the blocks, 0 for B and 1 for C: ``TypeError``
        for a ``bool`` or non-integer, ``IndexError`` outside {0, 1}."""
        for block in (p, q):
            if _require_int(block, "block index") not in (0, 1):
                raise IndexError(f"block index {block} out of range for the blocks 0 and 1")
        parts = self.parts
        return phi_hat(self.psi, a).data[parts[p], parts[q]]


def split_blocks(psi, n: int) -> BlockDecomposition:
    """Validate the cut and compute the End-valued matrices of a candidate
    over D = B x C, from which every block matrix is sliced."""
    psi = _family_of(psi)
    _check_block_structure(psi, n)
    return BlockDecomposition(psi, n, _rho_tensor(psi.field, psi.B.lam, psi.gamma))


def restrict(psi, side: str, n: int) -> GammaFamily:
    """Corner restriction of a candidate on D = B x C to one factor.

    ``side="B"`` keeps the upper-left n x n sub-grid, ``side="C"`` the
    lower-right one (shifted by n).
    """
    psi = _family_of(psi)
    part = dict(zip("BC", _check_block_structure(psi, n))).get(side)
    if part is None:
        raise ValueError(f"side must be 'B' or 'C', got {side!r}")
    return _corner_family(psi, part)


# -- block condition families ---------------------------------------------------


def _diagonal_block(tag: str, sides, index: tuple, block: slice) -> tuple:
    """A (tag, left, right) family of End-valued matrices restricted to the
    ``index`` blocks of its leading axes and to one diagonal block of its
    (row, column) axes, behind any batch axes."""
    return (tag, *(side[(..., *index, block, block, slice(None), slice(None))] for side in sides))


def _corner(tag: str, sides, rows: slice, cols: slice) -> tuple:
    """A (tag, left, right) family of A-valued matrices restricted to one
    block of its (row, column) axes, the last two before the coordinates."""
    return (tag, *(side[..., rows, cols, :] for side in sides))


def check_lemma_blocks(psi, n: int) -> VerificationReport:
    """Block form of the two representation criteria on D = B x C.

    End-valued side: for l in {1, 2} let B_k (k < n) / C_k (k < m) be the l-th
    diagonal block (B-block, then C-block) of R_k[i, m] = sum_t lam[m, t, i]
    gamma[k][t] (lam the constants of D) at B- / C-basis vectors; with lamB /
    lamC the constants and (alpha, beta) the units of the factors, and entry
    products composing as sum_w X[i, w] o Y[w, j], the families are
    ``B.rep.l`` (B_i B_j = sum_k lamB[j, i, k] B_k), ``C.rep.l`` (the same
    for C and lamC), ``BC.zero.l`` (B_i C_j = 0), ``CB.zero.l`` (C_j B_i = 0)
    and ``unit.sum.l`` (sum_k alpha_k B_k + sum_k beta_k C_k = identity).
    A-valued side, with Gamma^p_q the corner blocks of phi(a)[j, k] =
    gamma[k][j](a) (p, q = 0 for B, 1 for C): ``Gamma{p}{q}.unit`` (phi(1_A)
    is the identity) and the product rule
    ``Gamma^p_q(a a') = Gamma^p_0(a) Gamma^0_q(a') + Gamma^p_1(a) Gamma^1_q(a')``
    (``Gamma{p}{q}.mul``).

    Agrees with the combined representation checkers on D for every candidate.
    """
    psi = _family_of(psi)
    _check_block_structure(psi, n)
    return pairs_report(psi.field, _lemma_pairs(psi._rep, n))


def _lemma_pairs(rep, n: int):
    """Condition families of the block criterion at the cut n, yielded lazily
    as slices of ``rep``, the four ``rep`` families on (A, D, G) for one grid
    or a stack G (``GammaFamily._rep`` of a candidate, or
    ``route_pairs("rep", A, D, G)``).  Every side has at most two factors of
    G."""
    parts = B, C = slice(0, n), slice(n, None)
    rep = iter(rep)
    (_, *unit), (_, combination, products) = islice(rep, 2)  # rho.unit, rho.mul
    mul = products, combination
    for l, block in ((1, B), (2, C)):
        yield _diagonal_block(f"B.rep.{l}", mul, (B, B), block)
        yield _diagonal_block(f"C.rep.{l}", mul, (C, C), block)
        yield _diagonal_block(f"BC.zero.{l}", mul, (B, C), block)
        yield _diagonal_block(f"CB.zero.{l}", mul, (C, B), block)
        yield _diagonal_block(f"unit.sum.{l}", unit, (), block)

    # A-valued corners of phi.unit, then of phi.mul: every block product rule
    # is a block of phi(a a') = phi(a) phi(a')
    for rule in ("unit", "mul"):
        _, *sides = next(rep)
        for p in (0, 1):
            for q in (0, 1):
                yield _corner(f"Gamma{p}{q}.{rule}", sides, parts[p], parts[q])


def check_extension_given_theta(
    psi, n: int, *, require_gamma01_zero: bool = True
) -> VerificationReport:
    """Extension criterion: given that the B-restriction is a twisting map,
    the candidate on D = B x C is one iff these block conditions hold.

    In the notation of ``check_lemma_blocks``, with Bl_k / Cl_k the l-th
    diagonal block at B- / C-basis vectors, the strengthened form
    (``require_gamma01_zero=True``) checks ``B2.mul`` / ``C2.mul`` (the
    ``B.rep.2`` / ``C.rep.2`` rules), ``C1.zero`` (C1_k = 0), ``B2C2.zero`` /
    ``C2B2.zero`` and ``unit.sum`` (``BC.zero.2`` / ``CB.zero.2`` /
    ``unit.sum.2``), ``Gamma01`` (Gamma^0_1 vanishes identically),
    ``Gamma11.mul`` (Gamma^1_1(a a') = Gamma^1_1(a) Gamma^1_1(a')),
    ``Gamma10.der`` (the ``Gamma10.mul`` rule), ``Gamma11.unit`` and
    ``Gamma10.unit``.  With the flag off, the staged form keeps ``Gamma01``
    unconstrained and, in place of ``Gamma01`` and ``Gamma11.mul``, checks the
    rules ``Gamma01.rule`` / ``Gamma11.rule`` (``Gamma01.mul`` /
    ``Gamma11.mul`` of the lemma), ``Gamma01Gamma10.zero`` (Gamma^0_1(a)
    Gamma^1_0(a') = 0) and ``Gamma01.unit``.

    Raises ``UnverifiedCandidateError`` when the B-restriction fails its own
    verification.
    """
    psi = _family_of(psi)
    _check_block_structure(psi, n)
    if not direct_ok(_corner_family(psi, slice(0, n))):
        raise UnverifiedCandidateError("the restriction to the first factor is not a twisting map")
    return pairs_report(psi.field, _extension_pairs(*psi._image, psi._rep, n, require_gamma01_zero))


def _extension_pairs(
    A: FiniteDimAlgebra, D: FiniteDimAlgebra, G: np.ndarray, rep, n: int, require_gamma01_zero: bool
):
    """Condition families of the extension criterion at the cut n, in report
    order, as slices of ``rep``, the four ``rep`` families on (A, D, G) for
    one grid or a stack G, as in ``_lemma_pairs``.  Every side has at most two
    factors of G."""
    field = A.field
    B, C = slice(0, n), slice(n, None)
    rep = iter(rep)
    (_, *unit), (_, combination, products) = islice(rep, 2)  # rho.unit, rho.mul
    mul = products, combination
    yield _diagonal_block("B2.mul", mul, (B, B), C)
    # C1_k = R_k[B, B] at C-basis vectors: D's constants are block-diagonal,
    # so only the B x B x B block and the grid rows (C, B) enter
    C1 = _rho_tensor(field, D.lam[B, B, B], G[..., C, B, :, :])
    yield "C1.zero", C1, field.zeros(C1.shape)
    yield _diagonal_block("C2.mul", mul, (C, C), C)
    yield _diagonal_block("B2C2.zero", mul, (B, C), C)
    yield _diagonal_block("C2B2.zero", mul, (C, B), C)
    yield _diagonal_block("unit.sum", unit, (), C)

    # phi[..., x, j, k] = gamma[k][j](e_x); the corner rules are blocks of
    # phi(a a') = phi(a) phi(a') except where a corner is dropped from the sum
    phi = _phi_tensor(G)
    (_, *unit), (_, *mul) = rep  # phi.unit, phi.mul
    if require_gamma01_zero:
        yield "Gamma01", G[..., C, B, :, :], field.zeros(G[..., C, B, :, :].shape)
        # Gamma11 multiplicative
        yield "Gamma11.mul", mul[0][..., C, C, :], _alg_entry_product(
            field, A.lam, phi[..., C, C, :], phi[..., C, C, :]
        )
    else:
        # corner product rules with Gamma01 unconstrained: the Gamma^p_1 rule
        # for row block p in {0, 1}
        yield _corner("Gamma01.rule", mul, B, C)
        yield _corner("Gamma11.rule", mul, C, C)
        # Gamma01(a) Gamma10(a') = 0
        mixed = _alg_entry_product(field, A.lam, phi[..., B, C, :], phi[..., C, B, :])
        yield "Gamma01Gamma10.zero", mixed, field.zeros(mixed.shape)
        yield _corner("Gamma01.unit", unit, B, C)

    # Gamma10 twisted-derivation rule, shared by both stages
    yield _corner("Gamma10.der", mul, C, B)
    yield _corner("Gamma11.unit", unit, C, C)
    yield _corner("Gamma10.unit", unit, C, B)


def direct_sum(theta: TwistingCandidate, ups: TwistingCandidate) -> TwistingCandidate:
    """Block-diagonal join of two verified candidates on the product carrier."""
    first = _require_verified(theta, "direct_sum")
    second = _require_verified(ups, "direct_sum")
    if first.field != second.field:
        raise FieldMismatchError("summands live over different fields")
    if first.A != second.A:
        raise DimensionMismatchError("summands twist different algebras")
    field = first.field
    n, m, d = first.B.dim, second.B.dim, first.A.dim
    carrier = direct_product(first.B, second.B)
    grid = field.zeros((n + m, n + m, d, d))
    grid[:n, :n] = first.gamma
    grid[n:, n:] = second.gamma
    out = certify(GammaFamily(first.A, carrier, grid))
    if not out.verified:
        raise AssertionError("direct sum of verified candidates failed verification")
    return out


def check_remark_delta(psi: TwistingCandidate, n: int) -> VerificationReport:
    """Identities of the lower-triangular block form of a verified candidate.

    Requires the upper-right corner to vanish (raises ``BlockFormError``
    otherwise).  Families: the two diagonal corner families are multiplicative
    and the lower-left corner satisfies the twisted derivation rule
    (tags ``phiB.mul``, ``phiC.mul``, ``Delta.der``).
    """
    family = _require_verified(psi, "check_remark_delta")
    B, C = _check_block_structure(family, n)
    field = family.field
    if not field.is_zero(family.gamma[C, B]):
        raise BlockFormError("upper-right corner block does not vanish")
    _, (_, *mul) = family._rep[2:]  # phi.unit, phi.mul
    families = (
        _corner("phiB.mul", mul, B, B),
        _corner("phiC.mul", mul, C, C),
        _corner("Delta.der", mul, C, B),
    )
    return pairs_report(field, families)
