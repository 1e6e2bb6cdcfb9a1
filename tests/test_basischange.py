import random

import numpy as np
import pytest

from twistkit import (
    DimensionMismatchError,
    GF,
    GammaFamily,
    KMatrix,
    MorphismError,
    QQ,
    SingularMatrixError,
    UnverifiedCandidateError,
    certify,
    check_induced_morphism,
    duplicate_algebra,
    faithful_rep,
    kn_algebra,
    make_kn,
    make_morphism,
    make_ncd,
    mat_inverse,
    mat_mul,
    rebase,
    validate_algebra,
)
from twistkit.twisting import TwistingCandidate

F5 = GF(5)


def _identity(b):
    """The identity morphism of b."""
    return make_morphism(b, b, b.field.identity(b.dim))


@pytest.fixture(scope="module")
def ncd_q():
    a = kn_algebra(QQ, 2)
    return certify(make_ncd(a, [[1, 0], [1, 0]], [[0, 0], [0, 0]]))


def random_invertible(field, n, rng):
    while True:
        rows = [[rng.randrange(field.p) for _ in range(n)] for _ in range(n)]
        mat = KMatrix.from_rows(field, rows)
        try:
            mat_inverse(mat)
            return mat
        except SingularMatrixError:
            continue


# -- morphism validation -----------------------------------------------------------


def test_identity_morphism():
    dup = duplicate_algebra(QQ)
    m = _identity(dup)
    assert QQ.equal(m.zeta, QQ.identity(2))


def test_duplicate_to_k2_morphism():
    dup = duplicate_algebra(QQ)
    k2 = kn_algebra(QQ, 2)
    m = make_morphism(dup, k2, [[1, 0], [1, 1]])  # 1 -> e1 + e2, X -> e2
    assert QQ.equal(m.apply(dup.basis_element(1)), QQ.asarray([0, 1]))


def test_idempotent_swap_is_also_a_morphism():
    # X -> e1 swaps the roles of the two idempotents; it is a genuine morphism
    dup = duplicate_algebra(QQ)
    k2 = kn_algebra(QQ, 2)
    m = make_morphism(dup, k2, [[1, 1], [1, 0]])
    assert QQ.equal(m.apply(dup.basis_element(1)), QQ.asarray([1, 0]))


def test_scaled_image_fails_multiplicativity():
    dup = duplicate_algebra(QQ)
    k2 = kn_algebra(QQ, 2)
    with pytest.raises(MorphismError, match="multiplicativity"):
        make_morphism(dup, k2, [[1, 0], [1, 2]])  # X -> 2 e2


def test_apply_rejects_vectors_of_the_wrong_length(ncd_q):
    morphism = make_morphism(duplicate_algebra(QQ), kn_algebra(QQ, 2), [[1, 0], [1, 1]])
    rep = faithful_rep(ncd_q)
    for apply, dim in ((morphism.apply, 2), (rep.apply, 4)):
        for length in (dim - 1, dim + 1):
            with pytest.raises(DimensionMismatchError):
                apply(QQ.zeros((length,)))
        assert apply(QQ.zeros((dim,))) is not None


def test_unit_violation_rejected():
    dup = duplicate_algebra(QQ)
    k2 = kn_algebra(QQ, 2)
    with pytest.raises(MorphismError, match="unit"):
        make_morphism(dup, k2, [[1, 0], [0, 1]])


# -- the induced-morphism criterion ---------------------------------------------------


def test_identity_morphism_induces(ncd_q):
    rep = check_induced_morphism(ncd_q, ncd_q, _identity(ncd_q.B))
    assert rep.ok


def test_dictionary_through_the_k2_identification(ncd_q):
    """A duplicate candidate maps onto its K^2 form along 1 -> e1 + e2, X -> e2."""
    a = ncd_q.A
    f = ncd_q.family.gamma[1, 1]
    delta = ncd_q.family.gamma[1, 0]
    eye = QQ.identity(2)
    grid = [
        [QQ.sub(eye, delta), QQ.sub(QQ.sub(eye, delta), f)],
        [delta, QQ.add(delta, f)],
    ]
    varpi = certify(make_kn(a, 2, grid))
    assert varpi.verified
    mor = make_morphism(ncd_q.B, varpi.B, [[1, 0], [1, 1]])
    rep = check_induced_morphism(ncd_q, varpi, mor)
    assert rep.ok
    # the dictionary reads the derivation part and the endomorphism part back
    gam = varpi.family.gamma
    assert QQ.equal(gam[1, 0], delta)
    assert QQ.equal(QQ.sub(gam[1, 1], gam[1, 0]), f)


def test_rho_intertwining_follows_induced_morphism(ncd_q):
    """Whenever the induced map is a morphism, the End-valued matrices are
    intertwined by the coefficient matrix of f (entries scalar times id)."""
    from twistkit import EndoMatrix, rho_hat
    from twistkit.linalg import endo_mat_mul

    a = ncd_q.A
    f = ncd_q.family.gamma[1, 1]
    delta = ncd_q.family.gamma[1, 0]
    eye = QQ.identity(2)
    grid = [
        [QQ.sub(eye, delta), QQ.sub(QQ.sub(eye, delta), f)],
        [delta, QQ.add(delta, f)],
    ]
    varpi = certify(make_kn(a, 2, grid))
    mor = make_morphism(ncd_q.B, varpi.B, [[1, 0], [1, 1]])
    assert check_induced_morphism(ncd_q, varpi, mor).ok

    d = a.dim
    m_hat = EndoMatrix(QQ, QQ.reduce(mor.zeta[:, :, None, None] * QQ.identity(d)[None, None]))
    for k in range(ncd_q.B.dim):
        rho_chi = rho_hat(ncd_q.family, k)
        image = mor.zeta[:, k]
        acc = QQ.zeros((varpi.B.dim, varpi.B.dim, d, d))
        for u in range(varpi.B.dim):
            acc = QQ.add(acc, QQ.reduce(image[u] * rho_hat(varpi.family, u).data))
        rho_varpi_fb = EndoMatrix(QQ, acc)
        assert endo_mat_mul(rho_varpi_fb, m_hat) == endo_mat_mul(m_hat, rho_chi)


def test_mismatched_targets_fail(ncd_q):
    a = ncd_q.A
    flip = certify(GammaFamily.flip(a, ncd_q.B))
    rep = check_induced_morphism(ncd_q, flip, _identity(ncd_q.B))
    assert not rep.ok
    # both criterion forms must carry the failure coherently
    assert "eq.agreement" not in rep.conditions()


def test_induced_requires_verified(ncd_q):
    bad = TwistingCandidate(ncd_q.family)
    with pytest.raises(UnverifiedCandidateError):
        check_induced_morphism(bad, ncd_q, _identity(ncd_q.B))


# -- rebase ------------------------------------------------------------------------------


def test_rebase_identity_is_noop(ncd_q):
    res = rebase(ncd_q, KMatrix.identity(QQ, 2))
    assert res.candidate.family.gamma.tolist() == ncd_q.family.gamma.tolist()
    assert res.conjugation.ok
    assert QQ.equal(res.algebra.lam, ncd_q.B.lam)


def test_rebase_duplicate_to_idempotent_basis(ncd_q):
    res = rebase(ncd_q, KMatrix.from_rows(QQ, [[1, 0], [-1, 1]]))
    assert res.algebra == kn_algebra(QQ, 2)
    assert res.conjugation.ok
    assert res.candidate.verified
    gam = res.candidate.family.gamma
    assert QQ.equal(gam[1, 0], ncd_q.family.gamma[1, 0])
    assert QQ.equal(
        QQ.sub(gam[1, 1], gam[1, 0]), ncd_q.family.gamma[1, 1]
    )


def test_rebase_functorial_and_verdict_preserving():
    a5 = kn_algebra(F5, 2)
    cand = certify(make_ncd(a5, [[1, 0], [1, 0]], [[0, 0], [0, 0]]))
    rng = random.Random(424242)
    for _ in range(20):
        p1 = random_invertible(F5, 2, rng)
        p2 = random_invertible(F5, 2, rng)
        step1 = rebase(cand, p1)
        assert step1.conjugation.ok
        assert step1.candidate.verified
        assert validate_algebra(step1.algebra).ok
        step2 = rebase(step1.candidate, p2)
        combined = rebase(cand, mat_mul(p1, p2))
        assert F5.equal(step2.candidate.family.gamma, combined.candidate.family.gamma)
        assert F5.equal(step2.algebra.lam, combined.algebra.lam)


def test_rebase_rejects_singular(ncd_q):
    with pytest.raises(SingularMatrixError):
        rebase(ncd_q, KMatrix.from_rows(QQ, [[1, 1], [1, 1]]))


def test_rebase_requires_verified(ncd_q):
    with pytest.raises(UnverifiedCandidateError):
        rebase(TwistingCandidate(ncd_q.family), KMatrix.identity(QQ, 2))
