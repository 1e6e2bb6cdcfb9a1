"""Extending twisting maps along a direct product of the finite factor.

For D = B x C with the B-block-first basis, a candidate on (A, D) splits into
four families of End-valued block matrices (the two diagonal blocks of the
End-valued representation at B- and C-basis vectors) and four A-valued corner
blocks of the matrix family attached to A.  The checkers here decide, given
that the restriction to B is already a twisting map, whether the whole
candidate is one, by testing the block conditions directly.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .algebra import FiniteDimAlgebra, direct_product
from .errors import (
    BlockFormError,
    DimensionMismatchError,
    FieldMismatchError,
    UnverifiedCandidateError,
)
from .linalg import _alg_entry_product, _endo_products, _freeze
from .report import VerificationReport, pairs_ok, pairs_report
from .twisting import (
    GammaFamily,
    TwistingCandidate,
    _endo_identity,
    _family_of,
    _rep_sides,
    _require_verified,
    _rho_tensor,
    _twisted_products,
    _unit_images,
    certify,
    direct_ok,
)


def _split_dims(psi: GammaFamily, n: int) -> tuple[int, int]:
    total = psi.B.dim
    if not 0 < n < total:
        raise DimensionMismatchError(f"cut {n} out of range for dimension {total}")
    return n, total - n


def _check_block_structure(psi: GammaFamily, n: int) -> None:
    """The carrier of psi must be a direct product in the block basis."""
    field = psi.field
    lam = psi.B.lam
    blocks_ok = (
        field.is_zero(lam[:n, :n, n:])
        and field.is_zero(lam[n:, n:, :n])
        and field.is_zero(lam[:n, n:])
        and field.is_zero(lam[n:, :n])
    )
    if not blocks_ok:
        raise DimensionMismatchError(
            f"carrier algebra is not a direct product split at {n}"
        )


def factor_algebras(psi: GammaFamily, n: int) -> tuple[FiniteDimAlgebra, FiniteDimAlgebra]:
    """The two factors of the carrier D = B x C, recovered by slicing."""
    _check_block_structure(psi, n)
    D = psi.B
    field = psi.field
    m = D.dim - n
    b = FiniteDimAlgebra(field, n, D.basis[:n], D.lam[:n, :n, :n].copy(), D.unit[:n].copy())
    c = FiniteDimAlgebra(field, m, D.basis[n:], D.lam[n:, n:, n:].copy(), D.unit[n:].copy())
    return b, c


@dataclass(frozen=True, eq=False)
class BlockDecomposition:
    """Block data of a candidate over D = B x C.

    ``B1[k]`` / ``B2[k]`` (k < n) are the two diagonal blocks of the
    End-valued matrix at the k-th B-basis vector, of sizes n x n and m x m;
    ``C1[k]`` / ``C2[k]`` (k < m) the analogues at C-basis vectors.  The four
    A-valued corner blocks of the matrix family attached to A are evaluated by
    slicing, not stored.
    """

    psi: GammaFamily
    n: int
    m: int
    B1: np.ndarray  # (n, n, n, d, d)
    B2: np.ndarray  # (n, m, m, d, d)
    C1: np.ndarray  # (m, n, n, d, d)
    C2: np.ndarray  # (m, m, m, d, d)

    def __post_init__(self):
        for arr in (self.B1, self.B2, self.C1, self.C2):
            _freeze(arr)

    def gamma_block(self, p: int, q: int, a: np.ndarray) -> np.ndarray:
        """A-valued corner block at an element of A, sliced from the full matrix."""
        field = self.psi.field
        images = field.tensordot(self.psi.gamma, field.asarray(a), axes=([3], [0]))
        full = images.transpose(1, 0, 2)  # entry (j, k) = gamma[k][j](a)
        rows = slice(0, self.n) if p == 0 else slice(self.n, None)
        cols = slice(0, self.n) if q == 0 else slice(self.n, None)
        return full[rows, cols]


def split_blocks(psi, n: int, m: int | None = None) -> BlockDecomposition:
    """Compute all block matrices of a candidate over D = B x C."""
    psi = _family_of(psi)
    n, m_inferred = _split_dims(psi, n)
    if m is not None and m != m_inferred:
        raise DimensionMismatchError(f"expected m = {m_inferred}, got {m}")
    m = m_inferred
    _check_block_structure(psi, n)
    field = psi.field
    G = psi.gamma
    lamB = psi.B.lam[:n, :n, :n]
    lamC = psi.B.lam[n:, n:, n:]
    return BlockDecomposition(
        psi=psi,
        n=n,
        m=m,
        B1=_rho_tensor(field, lamB, G[:n, :n]),
        B2=_rho_tensor(field, lamC, G[:n, n:]),
        C1=_rho_tensor(field, lamB, G[n:, :n]),
        C2=_rho_tensor(field, lamC, G[n:, n:]),
    )


def restrict(psi, side: str, n: int) -> GammaFamily:
    """Corner restriction of a candidate on D = B x C to one factor.

    ``side="B"`` keeps the upper-left n x n sub-grid, ``side="C"`` the
    lower-right one (shifted by n).
    """
    psi = _family_of(psi)
    _split_dims(psi, n)
    factor_b, factor_c = factor_algebras(psi, n)
    if side == "B":
        return GammaFamily(psi.A, factor_b, psi.gamma[:n, :n].copy())
    if side == "C":
        return GammaFamily(psi.A, factor_c, psi.gamma[n:, n:].copy())
    raise ValueError(f"side must be 'B' or 'C', got {side!r}")


# -- block condition families ---------------------------------------------------


def _rep_family(field, stack: np.ndarray, constants: np.ndarray, tag: str) -> tuple:
    """Family: stack_i stack_j = sum_k constants[j, i, k] stack_k."""
    combination, products = _rep_sides(field, constants, stack)
    return tag, products, combination


def _unit_sum_family(psi: GammaFamily, n: int, bstack, cstack, tag: str) -> tuple:
    """Family: sum_k alpha_k B_k + sum_k beta_k C_k = identity, where
    (alpha, beta) is the unit of the carrier split at n."""
    field = psi.field
    unit_sum = field.add(
        field.tensordot(psi.B.unit[:n], bstack, axes=([0], [0])),
        field.tensordot(psi.B.unit[n:], cstack, axes=([0], [0])),
    )
    return tag, unit_sum, _endo_identity(field, bstack.shape[1], psi.A.dim)


def _corner(tag: str, sides, rows: slice, cols: slice) -> tuple:
    """A (tag, left, right) family of A-valued matrices restricted to one
    block of its (row, column) axes, the last two before the coordinates."""
    return (tag, *(side[..., rows, cols, :] for side in sides))


def _unit_sides(psi: GammaFamily) -> list[np.ndarray]:
    """phi(1_A) against the identity matrix; axes (j, k, w)."""
    return [side.transpose(1, 0, 2) for side in _unit_images(psi.field, psi.gamma, psi.A.unit)]


def check_lemma_blocks(psi, n: int, m: int | None = None) -> VerificationReport:
    """Block form of the two representation criteria on D = B x C.

    End-valued side: the B- and C-stacks represent the opposite factors in
    both diagonal blocks, annihilate each other, and their unit combinations
    sum to the identity (tags ``B.rep.l``, ``C.rep.l``, ``BC.zero.l``,
    ``CB.zero.l``, ``unit.sum.l`` for l in {1, 2}).  A-valued side: corner
    unit normalizations and the block product rule
    ``Gamma^p_q(a a') = Gamma^p_0(a) Gamma^0_q(a') + Gamma^p_1(a) Gamma^1_q(a')``
    (tags ``Gamma{p}{q}.unit`` and ``Gamma{p}{q}.mul``).

    Agrees with the combined representation checkers on D for every candidate.
    """
    blocks = split_blocks(psi, n, m)
    return pairs_report(blocks.psi.field, _lemma_pairs(blocks))


def lemma_blocks_ok(psi, n: int, m: int | None = None) -> bool:
    """Fast verdict of the block criterion."""
    blocks = split_blocks(psi, n, m)
    return pairs_ok(blocks.psi.field, _lemma_pairs(blocks))


def _lemma_pairs(blocks: BlockDecomposition):
    """Condition families of the block criterion, yielded lazily."""
    psi = blocks.psi
    n = blocks.n
    field = psi.field
    lamB = psi.B.lam[:n, :n, :n]
    lamC = psi.B.lam[n:, n:, n:]

    for l, bstack, cstack in ((1, blocks.B1, blocks.C1), (2, blocks.B2, blocks.C2)):
        yield _rep_family(field, bstack, lamB, f"B.rep.{l}")
        yield _rep_family(field, cstack, lamC, f"C.rep.{l}")
        bc = _endo_products(field, bstack, cstack)
        cb = _endo_products(field, cstack, bstack)
        yield f"BC.zero.{l}", bc, field.zeros(bc.shape)
        yield f"CB.zero.{l}", cb, field.zeros(cb.shape)
        yield _unit_sum_family(psi, n, bstack, cstack, f"unit.sum.{l}")

    # A-valued corners: every block product rule is a block of phi(a a') = phi(a) phi(a')
    part = (slice(0, n), slice(n, None))
    unit_sides = _unit_sides(psi)
    for p in (0, 1):
        for q in (0, 1):
            yield _corner(f"Gamma{p}{q}.unit", unit_sides, part[p], part[q])
    mul_sides = _twisted_products(field, psi.gamma, psi.A.lam)
    for p in (0, 1):
        for q in (0, 1):
            yield _corner(f"Gamma{p}{q}.mul", mul_sides, part[p], part[q])


def check_extension_given_theta(
    psi, n: int, m: int | None = None, *, require_gamma01_zero: bool = True
) -> VerificationReport:
    """Extension criterion: given that the B-restriction is a twisting map,
    the candidate on D = B x C is one iff these block conditions hold.

    With ``require_gamma01_zero=True`` (the strengthened form) the families
    are: ``B2.mul``, ``C1.zero``, ``C2.mul``, ``B2C2.zero`` / ``C2B2.zero``,
    ``unit.sum``, ``Gamma01`` (the upper-right corner vanishes identically),
    ``Gamma11.mul``, ``Gamma10.der``, ``Gamma11.unit``, ``Gamma10.unit``.
    With the flag off, the staged form keeps ``Gamma01`` unconstrained and
    instead checks the corner product rules ``Gamma01.rule`` / ``Gamma11.rule``,
    the mixed vanishing ``Gamma01Gamma10.zero`` and ``Gamma01.unit``.

    Raises ``UnverifiedCandidateError`` when the B-restriction fails its own
    verification.
    """
    blocks = split_blocks(psi, n, m)
    if not direct_ok(restrict(blocks.psi, "B", blocks.n)):
        raise UnverifiedCandidateError("the restriction to the first factor is not a twisting map")
    return pairs_report(blocks.psi.field, _extension_pairs(blocks, require_gamma01_zero))


def _extension_pairs(blocks: BlockDecomposition, require_gamma01_zero: bool):
    """Condition families of the extension criterion, in report order."""
    psi = blocks.psi
    n = blocks.n
    field = psi.field
    lamA = psi.A.lam

    yield _rep_family(field, blocks.B2, psi.B.lam[:n, :n, :n], "B2.mul")
    yield "C1.zero", blocks.C1, field.zeros(blocks.C1.shape)
    yield _rep_family(field, blocks.C2, psi.B.lam[n:, n:, n:], "C2.mul")
    bc = _endo_products(field, blocks.B2, blocks.C2)
    cb = _endo_products(field, blocks.C2, blocks.B2)
    yield "B2C2.zero", bc, field.zeros(bc.shape)
    yield "C2B2.zero", cb, field.zeros(cb.shape)
    yield _unit_sum_family(psi, n, blocks.B2, blocks.C2, "unit.sum")

    # phi[x, j, k] = gamma[k][j](e_x); the corner rules are blocks of
    # phi(a a') = phi(a) phi(a') except where a corner is dropped from the sum
    B, C = slice(0, n), slice(n, None)
    phi = psi.gamma.transpose(3, 1, 0, 2)
    mul_sides = _twisted_products(field, psi.gamma, lamA)
    unit_sides = _unit_sides(psi)
    if require_gamma01_zero:
        yield "Gamma01", psi.gamma[C, B], field.zeros(psi.gamma[C, B].shape)
        # Gamma11 multiplicative
        yield "Gamma11.mul", mul_sides[0][:, :, C, C], _alg_entry_product(
            field, lamA, phi[:, C, C], phi[:, C, C]
        )
    else:
        # corner product rules with Gamma01 unconstrained: the Gamma^p_1 rule
        # for row block p in {0, 1}
        yield _corner("Gamma01.rule", mul_sides, B, C)
        yield _corner("Gamma11.rule", mul_sides, C, C)
        # Gamma01(a) Gamma10(a') = 0
        mixed = _alg_entry_product(field, lamA, phi[:, B, C], phi[:, C, B])
        yield "Gamma01Gamma10.zero", mixed, field.zeros(mixed.shape)
        yield _corner("Gamma01.unit", unit_sides, B, C)

    # Gamma10 twisted-derivation rule, shared by both stages
    yield _corner("Gamma10.der", mul_sides, C, B)
    yield _corner("Gamma11.unit", unit_sides, C, C)
    yield _corner("Gamma10.unit", unit_sides, C, B)


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
    _split_dims(family, n)
    _check_block_structure(family, n)
    field = family.field
    if not field.is_zero(family.gamma[n:, :n]):
        raise BlockFormError("upper-right corner block does not vanish")
    B, C = slice(0, n), slice(n, None)
    mul_sides = _twisted_products(field, family.gamma, family.A.lam)
    families = (
        _corner("phiB.mul", mul_sides, B, B),
        _corner("phiC.mul", mul_sides, C, C),
        _corner("Delta.der", mul_sides, C, B),
    )
    return pairs_report(field, families)
