"""Algebra morphisms between carriers, induced maps of twisted products, and
base change of the representations.

A morphism f: B -> C of the finite-dimensional carriers is stored by its
coefficient matrix ``zeta`` (column j = coordinates of the image of the j-th
basis vector of B).  Whether the induced map of twisted products is an algebra
morphism is decided by two equivalent criteria, both implemented and
cross-checked: an intertwining identity of the faithful representations and
an entrywise identity of the gamma grids.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .algebra import FiniteDimAlgebra
from .errors import DimensionMismatchError, FieldMismatchError, MorphismError
from .linalg import KMatrix, _alg_entry_product, _endo_products, _freeze, mat_inverse
from .report import Failure, VerificationReport, family_failures, pairs_report
from .twisting import GammaFamily, TwistingCandidate, _require_verified, _rho_tensor, certify


@dataclass(frozen=True, eq=False)
class MorphismData:
    """A validated unital algebra morphism between carrier algebras."""

    source: FiniteDimAlgebra
    target: FiniteDimAlgebra
    zeta: np.ndarray  # (dim target, dim source); column j = coords of f(b_j)

    def __post_init__(self):
        _freeze(self.zeta)

    @property
    def field(self):
        return self.source.field

    def apply(self, x: np.ndarray) -> np.ndarray:
        if len(x) != self.source.dim:
            raise DimensionMismatchError(f"expected {self.source.dim} coordinates, got {len(x)}")
        return self.field.matmul(self.zeta, self.field.asarray(x))


def make_morphism(source: FiniteDimAlgebra, target: FiniteDimAlgebra, zeta) -> MorphismData:
    """Validate unit preservation and multiplicativity; raise ``MorphismError``
    with the first witness pair otherwise."""
    if source.field != target.field:
        raise FieldMismatchError(f"source over {source.field}, target over {target.field}")
    field = source.field
    z = field.asarray(zeta)
    if z.shape != (target.dim, source.dim):
        raise DimensionMismatchError(
            f"coefficient matrix has shape {z.shape}, expected {(target.dim, source.dim)}"
        )
    if not field.equal(field.matmul(z, source.unit), target.unit):
        raise MorphismError("image of the unit is not the unit")
    left = field.tensordot(source.lam, z, axes=([2], [1]))       # (i, j, r)
    t = field.tensordot(z, target.lam, axes=([0], [0]))          # (i, v, w)
    right = field.tensordot(z, t, axes=([0], [1])).transpose(1, 0, 2)
    for failure in family_failures(field, "mult", left, right):
        i, j, _ = failure.witness
        raise MorphismError(f"multiplicativity fails on basis pair ({i}, {j})")
    return MorphismData(source, target, z)


def identity_morphism(b: FiniteDimAlgebra) -> MorphismData:
    return MorphismData(b, b, b.field.identity(b.dim))


def check_induced_morphism(
    chi: TwistingCandidate, varpi: TwistingCandidate, f: MorphismData
) -> VerificationReport:
    """Criterion for ``f (x) id`` to be a morphism of the twisted products.

    Two forms are evaluated on every basis element of A and must agree:

    * ``eq.matrix``  the representation intertwining
      ``phi_varpi(a) M = M phi_chi(a)`` with M the A-valued coefficient
      matrix of f;
    * ``eq.gamma``   the entrywise identity
      ``sum_i zeta[j, i] gamma_k^i(a) = sum_u zeta[u, k] gamma'_u^j(a)``.

    A disagreement between the two forms is itself reported (tag
    ``eq.agreement``).
    """
    fam_chi = _require_verified(chi, "check_induced_morphism")
    fam_varpi = _require_verified(varpi, "check_induced_morphism")
    if fam_chi.A != fam_varpi.A:
        raise DimensionMismatchError("candidates twist different algebras")
    if f.source != fam_chi.B or f.target != fam_varpi.B:
        raise DimensionMismatchError("morphism does not connect the two carriers")
    report = pairs_report(fam_chi.field, _induced_pairs(fam_chi, fam_varpi, f.zeta))
    failed = report.conditions()
    matrix_ok, gamma_ok = "eq.matrix" not in failed, "eq.gamma" not in failed
    if matrix_ok == gamma_ok:
        return report
    failure = Failure("eq.agreement", left=str(matrix_ok), right=str(gamma_ok))
    return VerificationReport.from_failures((*report.failures, failure))


def _induced_pairs(fam_chi: GammaFamily, fam_varpi: GammaFamily, z: np.ndarray):
    field = fam_chi.field
    lamA, unitA = fam_chi.A.lam, fam_chi.A.unit

    # matrix form: phi_varpi(a_x) M = M phi_chi(a_x); witness (x, i, j, w)
    mmat = field.tensordot(z, unitA, axes=0)                        # (m, n, d)
    phi_chi = fam_chi.gamma.transpose(3, 1, 0, 2)                   # (x, j, k, w)
    phi_varpi = fam_varpi.gamma.transpose(3, 1, 0, 2)
    left1 = _alg_entry_product(field, lamA, phi_varpi, mmat[None])[:, 0]
    right1 = _alg_entry_product(field, lamA, mmat[None], phi_chi)[0]
    yield "eq.matrix", left1, right1

    # gamma form: witness (x, j, k, r)
    left2 = field.tensordot(z, fam_chi.gamma, axes=([1], [1])).transpose(3, 0, 1, 2)
    right2 = field.tensordot(z, fam_varpi.gamma, axes=([0], [0])).transpose(3, 1, 0, 2)
    yield "eq.gamma", left2, right2


@dataclass(frozen=True, eq=False)
class RebaseResult:
    """Outcome of a base change of the carrier."""

    algebra: FiniteDimAlgebra      # the carrier rewritten in the new basis
    candidate: TwistingCandidate   # the transported gamma grid, re-certified
    conjugation: VerificationReport  # the conjugation identities, asserted


def rebase(chi: TwistingCandidate, p_matrix: KMatrix) -> RebaseResult:
    """Rewrite a verified candidate in a new carrier basis.

    Column i of ``p_matrix`` holds the old-basis coordinates of the new i-th
    basis vector.  The transported structure constants, unit and gamma grid
    are returned together with the exact conjugation report for the two
    representations (tags ``conj.phi`` and ``conj.rho``), with the transition
    matrix derived internally from the inverse of ``p_matrix``.
    """
    family = _require_verified(chi, "rebase")
    field = family.field
    n = family.B.dim
    if p_matrix.field != field:
        raise FieldMismatchError("change-of-basis matrix over the wrong field")
    if p_matrix.data.shape != (n, n):
        raise DimensionMismatchError(f"change-of-basis matrix must be {n} x {n}")
    p = p_matrix.data
    pinv = mat_inverse(p_matrix).data

    lam = family.B.lam
    t1 = field.tensordot(p, lam, axes=([0], [0]))                   # (i, v, w)
    t2 = field.tensordot(p, t1, axes=([0], [1]))                    # (j, i, w)
    new_lam = field.tensordot(t2, pinv, axes=([2], [1])).transpose(1, 0, 2)
    new_unit = field.matmul(pinv, family.B.unit)
    new_b = FiniteDimAlgebra(field, n, tuple(f"v{i + 1}" for i in range(n)), new_lam, new_unit)

    tg = field.tensordot(p, family.gamma, axes=([0], [0]))          # (i, v, r, c)
    new_gamma = field.tensordot(pinv, tg, axes=([1], [1])).transpose(1, 0, 2, 3)
    new_family = GammaFamily(family.A, new_b, new_gamma)
    candidate = certify(new_family)

    conjugation = pairs_report(field, _conjugation_pairs(family, new_family, p, pinv))
    return RebaseResult(new_b, candidate, conjugation)


def _conjugation_pairs(old: GammaFamily, new: GammaFamily, p: np.ndarray, pinv: np.ndarray):
    """Conjugation identities with M = pinv (A-valued) and M-hat = pinv (End-valued)."""
    field = old.field
    lamA, unitA = old.A.lam, old.A.unit
    m_a = field.tensordot(pinv, unitA, axes=0)
    minv_a = field.tensordot(p, unitA, axes=0)
    phi_old = old.gamma.transpose(3, 1, 0, 2)
    phi_new = new.gamma.transpose(3, 1, 0, 2)
    conj = _alg_entry_product(field, lamA, m_a[None], phi_old)[0]
    right = _alg_entry_product(field, lamA, conj, minv_a[None])[:, 0]
    yield "conj.phi", phi_new, right

    rho_old = _rho_tensor(field, old.B.lam, old.gamma)              # (k, i, m, r, c)
    rho_new = _rho_tensor(field, new.B.lam, new.gamma)
    eye_d = field.identity(old.A.dim)
    m_e = field.reduce(pinv[:, :, None, None] * eye_d[None, None, :, :])
    minv_e = field.reduce(p[:, :, None, None] * eye_d[None, None, :, :])
    left_r = field.tensordot(pinv, rho_new, axes=([0], [0]))        # (k, i, m, r, c)
    conj_r = _endo_products(field, m_e[None], rho_old)[0]
    right_r = _endo_products(field, conj_r, minv_e[None])[:, 0]
    yield "conj.rho", left_r, right_r
