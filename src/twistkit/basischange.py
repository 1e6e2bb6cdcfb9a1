"""Algebra morphisms between carriers, induced maps of twisted products, and
base change of the representations.

A morphism f: B -> C of the finite-dimensional carriers is stored by its
coefficient matrix ``zeta`` (column j = coordinates of the image of the j-th
basis vector of B).  Whether the induced map of twisted products is an algebra
morphism is decided by two equivalent criteria, both implemented and
cross-checked: an intertwining identity of the faithful representations and
an entrywise identity of the gamma grids.  Like the conjugation identities
of ``rebase`` they run on the families' images (``GammaFamily._image``).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .algebra import FiniteDimAlgebra
from .errors import DimensionMismatchError, FieldMismatchError, MorphismError
from .linalg import (
    KMatrix,
    _alg_entry_product,
    _alg_lift,
    _endo_lift,
    _endo_products,
    _freeze,
    _pull_back,
    mat_inverse,
)
from .report import Failure, VerificationReport, family_failures, pairs_report
from .twisting import GammaFamily, TwistingCandidate, _phi_tensor, _require_verified, _rho_tensor, certify


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
        return self.field.matmul(self.zeta, self.source._element(x, "x"))


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
    # f(b_i b_j) against f(b_i) f(b_j); witness axes (i, j, r)
    left = _pull_back(field, z.T, source.lam, 2)
    right = _pull_back(field, z, target.lam, 0, 1)
    for failure in family_failures(field, "mult", left, right):
        i, j, _ = failure.witness
        raise MorphismError(f"multiplicativity fails on basis pair ({i}, {j})")
    return MorphismData(source, target, z)


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
    A, _, G_chi = fam_chi._image
    G_varpi = fam_varpi._image[2]
    field = A.field
    z = field.cleared(z)

    # matrix form: phi_varpi(a_x) M = M phi_chi(a_x); witness (x, i, j, w)
    mmat = _alg_lift(field, z, A.unit)                              # (m, n, d)
    phi_chi = _phi_tensor(G_chi)                                    # (x, j, k, w)
    phi_varpi = _phi_tensor(G_varpi)
    left1 = _alg_entry_product(field, A.lam, phi_varpi, mmat[None])[:, 0]
    right1 = _alg_entry_product(field, A.lam, mmat[None], phi_chi)[0]
    yield "eq.matrix", left1, right1

    # gamma form: witness (x, j, k, r)
    left2 = _pull_back(field, z.transpose(), G_chi, 1).transpose(3, 1, 0, 2)
    right2 = _pull_back(field, z, G_varpi, 0).transpose(3, 1, 0, 2)
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

    # products and grid rows are pulled back along p, and the results pushed
    # forward along pinv, that is pulled back along pinv.T
    new_lam = _pull_back(field, pinv.T, _pull_back(field, p, family.B.lam, 0, 1), 2)
    new_unit = _pull_back(field, pinv.T, family.B.unit, 0)
    new_b = FiniteDimAlgebra(field, n, tuple(f"v{i + 1}" for i in range(n)), new_lam, new_unit)

    new_gamma = _pull_back(field, pinv.T, _pull_back(field, p, family.gamma, 0), 1)
    new_family = GammaFamily(family.A, new_b, new_gamma)
    candidate = certify(new_family)

    conjugation = pairs_report(field, _conjugation_pairs(family, new_family, p, pinv))
    return RebaseResult(new_b, candidate, conjugation)


def _conjugation_pairs(old: GammaFamily, new: GammaFamily, p: np.ndarray, pinv: np.ndarray):
    """Conjugation identities with M = pinv (A-valued) and M-hat = pinv (End-valued)."""
    A, B_old, G_old = old._image
    _, B_new, G_new = new._image
    field = A.field
    p, pinv = field.cleared(p), field.cleared(pinv)
    m_a = _alg_lift(field, pinv, A.unit)
    minv_a = _alg_lift(field, p, A.unit)
    conj = _alg_entry_product(field, A.lam, m_a[None], _phi_tensor(G_old))[0]
    right = _alg_entry_product(field, A.lam, conj, minv_a[None])[:, 0]
    yield "conj.phi", _phi_tensor(G_new), right

    rho_old = _rho_tensor(field, B_old.lam, G_old)                  # (k, i, m, r, c)
    rho_new = _rho_tensor(field, B_new.lam, G_new)
    m_e = _endo_lift(field, pinv, A.dim)
    minv_e = _endo_lift(field, p, A.dim)
    left_r = _pull_back(field, pinv, rho_new, 0)                    # (k, i, m, r, c)
    conj_r = _endo_products(field, m_e[None], rho_old)[0]
    right_r = _endo_products(field, conj_r, minv_e[None])[:, 0]
    yield "conj.rho", left_r, right_r
