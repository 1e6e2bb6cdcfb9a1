import random

import numpy as np
import pytest

from twistkit import (
    BlockFormError,
    DimensionMismatchError,
    GF,
    GammaFamily,
    QQ,
    TwistingCandidate,
    UnverifiedCandidateError,
    certify,
    check_extension_given_theta,
    check_lemma_blocks,
    check_remark_delta,
    direct_product,
    direct_sum,
    duplicate_algebra,
    factor_algebras,
    kn_algebra,
    make_ncd,
    restrict,
    rho_hat,
    split_blocks,
)
from twistkit.extension import _extension_pairs, _lemma_pairs
from twistkit.report import pairs_ok
from twistkit.search import SearchSpace, _place_values
from twistkit.twisting import direct_ok, route_ok, route_pairs

F2 = GF(2)
F3 = GF(3)

#: Grids per stack verdict in the exhaustive sweeps.
CHUNK = 2048


def _all_grids(A, D):
    """Every grid of the space of (A, D) over a prime field, in index order."""
    space = SearchSpace(A, D)
    digits = (np.arange(space.total)[:, None] // _place_values(space.p, space.free_entries)) % space.p
    return space, digits.reshape((space.total,) + space.grid_shape)


def _stack_verdict(field, pairs, grids) -> np.ndarray:
    """One boolean per grid: ``pairs(G)`` holds, evaluated ``CHUNK`` grids at a time."""
    return np.concatenate(
        [pairs_ok(field, pairs(G), G.shape[:-4]) for G in np.split(grids, range(CHUNK, len(grids), CHUNK))]
    )


@pytest.fixture(scope="module")
def theta_ups_f2():
    a2 = kn_algebra(F2, 2)
    theta = certify(GammaFamily.flip(a2, kn_algebra(F2, 2)))
    ups = certify(make_ncd(a2, [[1, 0], [1, 0]], [[0, 0], [0, 0]]))
    assert theta.verified and ups.verified
    return theta, ups


@pytest.fixture(scope="module")
def psi_sum(theta_ups_f2):
    theta, ups = theta_ups_f2
    return direct_sum(theta, ups)


# -- block decomposition ----------------------------------------------------------


def test_split_blocks_of_flip():
    a = kn_algebra(F3, 2)
    d_alg = direct_product(kn_algebra(F3, 2), duplicate_algebra(F3))
    psi = GammaFamily.flip(a, d_alg)
    blocks = split_blocks(psi, 2)
    assert F3.is_zero(blocks.C1)
    assert F3.is_zero(blocks.B2)
    assert F3.is_zero(blocks.gamma_block(0, 1, a.unit))
    assert F3.is_zero(blocks.gamma_block(1, 0, a.unit))


@pytest.mark.parametrize(
    "block, error", [(-1, IndexError), (2, IndexError), (True, TypeError)], ids=["-1", "2", "True"]
)
def test_gamma_block_refuses_indices_outside_the_two_blocks(block, error):
    """Block indices number B (0) and C (1): ``-1`` does not count from the
    end and ``True`` is no index 1."""
    a = kn_algebra(F3, 2)
    blocks = split_blocks(GammaFamily.flip(a, direct_product(kn_algebra(F3, 2), duplicate_algebra(F3))), 2)
    for p, q in ((block, 0), (0, block)):
        with pytest.raises(error, match="block index"):
            blocks.gamma_block(p, q, a.unit)


def test_split_blocks_of_direct_sum_has_zero_corners(psi_sum):
    blocks = split_blocks(psi_sum.family, 2)
    fam = psi_sum.family
    for p in range(fam.A.dim):
        a = fam.A.basis_element(p)
        assert F2.is_zero(blocks.gamma_block(0, 1, a))
        assert F2.is_zero(blocks.gamma_block(1, 0, a))


def test_reassembly_matches_rho_hat_on_arbitrary_candidates():
    """The block-diagonal form of the End-valued matrices holds for every
    candidate over a product carrier, twisting or not."""
    rng = random.Random(5150)
    a = kn_algebra(F3, 2)
    d_alg = direct_product(kn_algebra(F3, 2), kn_algebra(F3, 1))
    n, m = 2, 1
    for _ in range(25):
        grid = F3.asarray(
            [[[[rng.randrange(3) for _ in range(2)] for _ in range(2)] for _ in range(3)] for _ in range(3)]
        )
        psi = GammaFamily(a, d_alg, grid)
        blocks = split_blocks(psi, n)
        for k in range(n):
            full = rho_hat(psi, k).data
            assert F3.equal(full[:n, :n], blocks.B1[k])
            assert F3.equal(full[n:, n:], blocks.B2[k])
            assert F3.is_zero(full[:n, n:])
            assert F3.is_zero(full[n:, :n])
        for k in range(m):
            full = rho_hat(psi, n + k).data
            assert F3.equal(full[:n, :n], blocks.C1[k])
            assert F3.equal(full[n:, n:], blocks.C2[k])


def test_split_blocks_idempotent_carrier_second_factor_is_diagonal():
    """Over D = K^2 x K the first-factor block at a second-factor basis
    vector is the diagonal of the corresponding grid row."""
    rng = random.Random(2718)
    a = kn_algebra(F3, 2)
    d_alg = direct_product(kn_algebra(F3, 2), kn_algebra(F3, 1))
    for _ in range(10):
        grid = F3.asarray(
            [[[[rng.randrange(3) for _ in range(2)] for _ in range(2)] for _ in range(3)] for _ in range(3)]
        )
        psi = GammaFamily(a, d_alg, grid)
        blocks = split_blocks(psi, 2)
        for k in range(1):
            for i in range(2):
                for j in range(2):
                    expected = grid[2 + k, i] if i == j else F3.zeros((2, 2))
                    assert F3.equal(blocks.C1[k, i, j], expected)


def test_direct_sum_of_flips_is_flip():
    a = kn_algebra(F2, 2)
    theta = certify(GammaFamily.flip(a, kn_algebra(F2, 2)))
    ups = certify(GammaFamily.flip(a, kn_algebra(F2, 1)))
    psi = direct_sum(theta, ups)
    assert psi.family == GammaFamily.flip(a, direct_product(theta.B, ups.B))


@pytest.mark.parametrize("cut", [True, np.bool_(True), 2.0, 1.5], ids=["bool", "np.bool_", "2.0", "1.5"])
def test_cut_must_be_an_integer(psi_sum, cut):
    """Every checker refuses a ``bool`` or non-integer cut with one rule;
    ``True`` is no cut 1."""
    fam = psi_sum.family
    for check in (
        lambda: split_blocks(fam, cut),
        lambda: restrict(fam, "C", cut),
        lambda: factor_algebras(fam, cut),
        lambda: check_lemma_blocks(fam, cut),
        lambda: check_extension_given_theta(fam, cut),
        lambda: check_remark_delta(psi_sum, cut),
    ):
        with pytest.raises(TypeError, match="cut must be an integer"):
            check()


def test_numpy_integer_cut_is_a_cut(psi_sum):
    fam = psi_sum.family
    assert split_blocks(fam, np.int64(2)).m == 2
    assert check_extension_given_theta(fam, np.int64(2)).ok


def test_split_blocks_requires_product_carrier():
    a = kn_algebra(F3, 2)
    psi = GammaFamily.flip(a, duplicate_algebra(F3))
    with pytest.raises(DimensionMismatchError):
        split_blocks(psi, 1)


# -- restrict -----------------------------------------------------------------------


def test_restrict_recovers_summands(psi_sum, theta_ups_f2):
    theta, ups = theta_ups_f2
    assert restrict(psi_sum.family, "B", 2) == theta.family
    assert restrict(psi_sum.family, "C", 2) == ups.family


def test_restrict_flip_is_flip():
    a = kn_algebra(F3, 2)
    b = kn_algebra(F3, 2)
    c = duplicate_algebra(F3)
    psi = GammaFamily.flip(a, direct_product(b, c))
    assert restrict(psi, "B", 2) == GammaFamily.flip(a, b)
    assert restrict(psi, "C", 2) == GammaFamily.flip(a, c)


def test_factor_algebras_slices(psi_sum):
    b, c = factor_algebras(psi_sum.family, 2)
    assert b == kn_algebra(F2, 2)
    assert c == duplicate_algebra(F2)


# -- the extension criterion ----------------------------------------------------------


def test_direct_sum_passes_extension_check(psi_sum):
    assert check_extension_given_theta(psi_sum.family, 2).ok
    assert check_extension_given_theta(psi_sum.family, 2, require_gamma01_zero=False).ok


def test_extension_check_requires_theta():
    a2 = kn_algebra(F2, 2)
    bad_theta = make_ncd(a2, [[0, 1], [0, 0]], [[0, 0], [0, 0]]).family  # not twisting
    carrier = direct_product(bad_theta.B, kn_algebra(F2, 1))
    grid = F2.zeros((3, 3, 2, 2))
    grid[:2, :2] = bad_theta.gamma
    grid[2, 2] = F2.identity(2)
    psi = GammaFamily(bad_theta.A, carrier, grid)
    with pytest.raises(UnverifiedCandidateError):
        check_extension_given_theta(psi, 2)


def test_gamma01_perturbation_tagged(psi_sum):
    fam = psi_sum.family
    grid = fam.gamma.copy()
    grid[2, 0, 0, 0] = F2.one  # one entry of the upper-right corner block
    perturbed = GammaFamily(fam.A, fam.B, grid)
    report = check_extension_given_theta(perturbed, 2)
    assert not report.ok
    assert "Gamma01" in report.conditions()


def test_cross_block_perturbation_rejected(psi_sum):
    fam = psi_sum.family
    grid = fam.gamma.copy()
    grid[0, 2, 1, 1] = F2.one  # lower-left corner block entry
    perturbed = GammaFamily(fam.A, fam.B, grid)
    report = check_extension_given_theta(perturbed, 2)
    assert not report.ok


# -- lemma blocks against the generic checkers ------------------------------------------


def test_lemma_blocks_match_checkers_exhaustively():
    """D = K x K with n = m = 1, A = K^2 over F_2: on the full 65536-grid
    space the block criterion's stack verdict equals the ``rep`` route's, and
    the public scalar functions agree with both on a seeded sample of 512
    grids and on every accepted grid."""
    a = kn_algebra(F2, 2)
    d_alg = direct_product(kn_algebra(F2, 1), kn_algebra(F2, 1))
    space, grids = _all_grids(a, d_alg)
    assert len(grids) == space.total == 65536
    lemma = _stack_verdict(F2, lambda G: _lemma_pairs(route_pairs("rep", a, d_alg, G), 1), grids)
    rep = _stack_verdict(F2, lambda G: route_pairs("rep", a, d_alg, G), grids)
    assert (lemma == rep).all()
    accepted = np.flatnonzero(lemma).tolist()
    sample = random.Random(65536).sample(range(space.total), 512)
    assert 0 < len(accepted) < space.total
    for idx in sorted(set(sample) | set(accepted)):
        fam = space.family_at(idx)
        assert F2.equal(fam.gamma, grids[idx])
        verdict = route_ok("rho", fam) and route_ok("phi", fam)
        assert check_lemma_blocks(fam, 1).ok == verdict == lemma[idx], idx


def test_lemma_blocks_flag_mutual_annihilation():
    a = kn_algebra(F2, 2)
    d_alg = direct_product(kn_algebra(F2, 1), kn_algebra(F2, 1))
    grid = F2.zeros((2, 2, 2, 2))
    grid[0, 0] = F2.identity(2)
    grid[0, 1] = F2.identity(2)  # forces B2 C2 products nonzero
    grid[1, 0] = F2.identity(2)
    grid[1, 1] = F2.identity(2)
    fam = GammaFamily(a, d_alg, grid)
    report = check_lemma_blocks(fam, 1)
    assert not report.ok
    tags = report.conditions()
    assert tags & {"BC.zero.1", "BC.zero.2", "CB.zero.1", "CB.zero.2"}


# -- the corollary, both directions, over a small exhaustive space -----------------------


def test_sum_decomposition_exhaustive_k3():
    """D = K^3 = K^2 x K with A = K over F_2 (512 candidates): among the
    candidates whose two restrictions are twisting maps, being a twisting map
    is equivalent to having vanishing cross blocks, i.e. to being the direct
    sum of the restrictions."""
    a = kn_algebra(F2, 1)
    d_alg = direct_product(kn_algebra(F2, 2), kn_algebra(F2, 1))
    space = SearchSpace(a, d_alg)
    assert space.total == 512
    n = 2
    checked_both_directions = 0
    for idx in range(space.total):
        fam = space.family_at(idx)
        theta = restrict(fam, "B", n)
        ups = restrict(fam, "C", n)
        if not (direct_ok(theta) and direct_ok(ups)):
            continue
        cross_zero = F2.is_zero(fam.gamma[:n, n:]) and F2.is_zero(fam.gamma[n:, :n])
        is_twisting = direct_ok(fam)
        assert is_twisting == route_ok("oracle", fam)
        assert is_twisting == cross_zero, idx
        if is_twisting:
            rebuilt = direct_sum(certify(theta), certify(ups))
            assert rebuilt.family == fam
            # the K^m-inside-K^n consequence: entries mapping into the first
            # factor from the second vanish
            assert F2.is_zero(fam.gamma[n:, :n])
            # the triangular-form identities hold on every verified instance
            assert check_remark_delta(certify(fam), n).ok
        checked_both_directions += 1
    assert checked_both_directions > 0


def test_extension_stages_match_oracle_exhaustively():
    """Whenever the first restriction is a twisting map, both stages of the
    extension criterion must agree with the definition-level oracle; swept
    over the full D = K^2 x K, A = K space through the public checkers and
    over the full two-block space with A = K^2 as stack verdicts."""
    a1 = kn_algebra(F2, 1)
    d3 = direct_product(kn_algebra(F2, 2), kn_algebra(F2, 1))
    space = SearchSpace(a1, d3)
    checked = 0
    for idx in range(space.total):
        fam = space.family_at(idx)
        if not direct_ok(restrict(fam, "B", 2)):
            continue
        verdict = route_ok("oracle", fam)
        assert check_extension_given_theta(fam, 2).ok == verdict, idx
        assert check_extension_given_theta(fam, 2, require_gamma01_zero=False).ok == verdict, idx
        checked += 1
    assert checked > 0

    # the two-block space with A = K^2, all 65536 grids as stacks
    a2 = kn_algebra(F2, 2)
    b1 = kn_algebra(F2, 1)
    d2 = direct_product(b1, b1)
    _, grids = _all_grids(a2, d2)
    theta = _stack_verdict(F2, lambda G: route_pairs("direct", a2, b1, G[..., :1, :1, :, :]), grids)
    grids = grids[theta]
    assert 0 < len(grids) < len(theta)
    oracle = _stack_verdict(F2, lambda G: route_pairs("oracle", a2, d2, G), grids)
    assert oracle.any()
    for require_gamma01_zero in (True, False):
        staged = _stack_verdict(F2, lambda G: _extension_pairs(a2, d2, G, route_pairs("rep", a2, d2, G), 1, require_gamma01_zero), grids)
        assert (staged == oracle).all(), require_gamma01_zero


def test_direct_sum_requires_verified(theta_ups_f2):
    theta, ups = theta_ups_f2
    with pytest.raises(UnverifiedCandidateError):
        direct_sum(TwistingCandidate(theta.family), ups)


# -- the triangular-form identities -----------------------------------------------------


def test_remark_delta_on_direct_sum(psi_sum):
    assert check_remark_delta(psi_sum, 2).ok


def test_remark_delta_requires_block_form(psi_sum):
    fam = psi_sum.family
    grid = fam.gamma.copy()
    grid[2, 0, 0, 0] = F2.one  # breaks the triangular form
    forged = TwistingCandidate(GammaFamily(fam.A, fam.B, grid), verified=True)
    with pytest.raises(BlockFormError):
        check_remark_delta(forged, 2)


def test_remark_delta_corrupted_lower_corner(psi_sum):
    fam = psi_sum.family
    grid = fam.gamma.copy()
    grid[0, 2] = F2.identity(2)  # a nonzero lower-left corner entry at the unit
    forged = TwistingCandidate(GammaFamily(fam.A, fam.B, grid), verified=True)
    report = check_remark_delta(forged, 2)
    assert not report.ok
    assert "Delta.der" in report.conditions()
