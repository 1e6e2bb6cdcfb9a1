"""Acceptance suite.

One test per criterion; each prints a single pass line (visible with -s).
All assertions are exact equality; the regression counts were pinned by an
independent definition-level brute force run before the package was built.
"""

import itertools
import random
import time
from pathlib import Path

import numpy as np
import pytest

from twistkit import (
    GF,
    QQ,
    GammaFamily,
    KMatrix,
    SearchSpace,
    SingularMatrixError,
    build_twisted_product,
    certify,
    check_extension_given_theta,
    check_induced_morphism,
    cross_validate,
    direct_sum,
    duplicate_algebra,
    enumerate_space,
    kn_algebra,
    lift_structure_matrix,
    make_kn,
    make_ncd,
    make_quantum_duplicate,
    mat_inverse,
    phi_hat,
    quadratic_algebra,
    rebase,
    restrict,
    rho_hat,
    truncated_from_first_row,
    truncated_poly_algebra,
    validate_algebra,
    verify_faithful,
)
from twistkit import serialize
from twistkit.basischange import identity_morphism
from twistkit.catalog import _ncd_pairs, _qdup_pairs
from twistkit.report import pairs_ok
from twistkit.twisting import (
    _direct_pairs,
    _oracle_pairs,
    _phi_pairs,
    _rho_pairs,
    direct_ok,
    route_ok,
    route_reports,
)

F2 = GF(2)
F3 = GF(3)
F5 = GF(5)

GOLDEN = Path(__file__).parent / "golden"

# Regression values pinned by the independent pre-build brute force.
ACCEPTED_22 = [20681, 21450, 36873, 37642, 39941, 41017, 44085]
N_TRUNC_DERIVED = 7
N_NCD_F3 = 8
N_QDUP_F3 = {(0, -1): 8, (1, 0): 8, (1, 1): 6}


def _announce(criterion: str, detail: str) -> None:
    print(f"[acceptance] PASS {criterion}: {detail}")


@pytest.fixture(scope="module")
def space22():
    return SearchSpace(kn_algebra(F2, 2), kn_algebra(F2, 2))


@pytest.fixture(scope="module")
def sweep22(space22):
    """Single exhaustive pass over all 65536 candidates, shared by the first
    three criteria: per-condition flags and all three route verdicts, each
    computed by the batched verdict ``pairs_ok`` on stacks of 4096 grids.
    A seeded sample of 512 grids and every accepted grid are checked against
    the scalar verdicts, the batch-of-one case of the same fold."""
    A, B = space22.A, space22.B
    bits = np.arange(space22.free_entries - 1, -1, -1)  # index digits, most significant first
    started = time.monotonic()
    stacks = []
    for lo in range(0, space22.total, 4096):
        G = ((np.arange(lo, lo + 4096)[:, None] >> bits) & 1).reshape((-1,) + space22.grid_shape)
        batch = G.shape[:-4]
        conditions = [pairs_ok(F2, [family], batch) for family in _direct_pairs(A, B, G)]
        routes = [pairs_ok(F2, pairs(A, B, G), batch) for pairs in (_phi_pairs, _rho_pairs, _oracle_pairs)]
        stacks.append(np.array(conditions + routes))
    flags = np.concatenate(stacks, axis=1)
    c1, c2, c3, c4, phi, rho, oracle = flags
    direct = c1 & c2 & c3 & c4
    elapsed = time.monotonic() - started
    accepted = np.flatnonzero(direct).tolist()
    sample = set(random.Random(22).sample(range(space22.total), 512)) | set(accepted)

    def scalar_flags(fam):
        failed = route_reports(fam, ["direct"])["direct"].conditions()
        conditions = (f"direct.{k}" not in failed for k in range(1, 5))
        return (*conditions, *(route_ok(route, fam) for route in ("phi", "rho", "oracle")))

    scalar_sample_ok = all(scalar_flags(space22.family_at(i)) == tuple(flags[:, i]) for i in sorted(sample))
    return {
        "accepted": accepted,
        "partition_ok": bool((phi == (c1 & c2)).all() and (rho == (c3 & c4)).all()),
        "unanimity_ok": bool((direct == (phi & rho)).all() and (direct == oracle).all()),
        "scalar_sample_ok": scalar_sample_ok,
        "elapsed": elapsed,
    }


@pytest.fixture(scope="module")
def trunc_accepted():
    """Criterion-6-scale run: all 4096 derived truncated grids over F_2."""
    a = kn_algebra(F2, 2)
    endos = _all_endos(F2, 2)
    accepted = []
    for r0 in endos:
        for r1 in endos:
            for r2 in endos:
                cand = truncated_from_first_row(a, 3, [r0, r1, r2])
                if direct_ok(cand.family):
                    accepted.append(cand)
    return accepted


def _all_endos(field, d):
    p = field.p
    out = []
    for idx in range(p ** (d * d)):
        digits = np.zeros(d * d, dtype=np.int64)
        rest = idx
        for t in range(d * d - 1, -1, -1):
            rest, digits[t] = divmod(rest, p)
        out.append(digits.reshape(d, d))
    return out


def _seeded_invertible(field, n, rng):
    while True:
        mat = KMatrix.from_rows(
            field, [[rng.randrange(field.p) for _ in range(n)] for _ in range(n)]
        )
        try:
            mat_inverse(mat)
            return mat
        except SingularMatrixError:
            continue


# -- criterion 1: checker equivalence, exhaustively ------------------------------------


def test_criterion_1_checker_equivalence(space22, sweep22):
    assert sweep22["unanimity_ok"], "three-route unanimity failed"
    assert sweep22["scalar_sample_ok"], "batched and scalar verdicts differ on the sample"
    assert sweep22["accepted"] == ACCEPTED_22
    assert len(sweep22["accepted"]) == len(ACCEPTED_22)

    report = cross_validate(space22)
    assert report.ok

    oracle_accepted = enumerate_space(space22, checker="oracle")
    assert oracle_accepted == ACCEPTED_22

    assert sweep22["elapsed"] < 300, f"sweep took {sweep22['elapsed']:.1f}s"
    _announce(
        "criterion 1",
        f"65536 candidates unanimous across three routes in {sweep22['elapsed']:.1f}s; "
        f"accepted count pinned at {len(ACCEPTED_22)}",
    )


# -- criterion 2: condition partition ----------------------------------------------------


def test_criterion_2_condition_partition(sweep22):
    assert sweep22["partition_ok"], "per-candidate condition partition failed"
    _announce(
        "criterion 2",
        "A-side route tracks conditions 1+2 and carrier-side route tracks 3+4 "
        "on every candidate, zero exceptions",
    )


# -- criterion 3: product validity and faithfulness --------------------------------------


def test_criterion_3_products_and_faithfulness(space22, sweep22):
    for idx in sweep22["accepted"]:
        cand = certify(space22.family_at(idx))
        assert cand.verified
        product = build_twisted_product(cand)
        assert product.algebra.dim == 4
        assert validate_algebra(product.algebra).ok
        expected_unit = F2.tensordot(cand.B.unit, cand.A.unit, axes=0).reshape(4)
        assert F2.equal(product.algebra.unit, expected_unit)
        assert verify_faithful(cand).ok
    _announce(
        "criterion 3",
        f"all {len(sweep22['accepted'])} accepted products validate and their "
        "faithful representations are multiplicative, unital and injective",
    )


# -- criterion 4: duplicate predicate equivalence over F_3 --------------------------------


def _duplicate_stack(field, d):
    """Every duplicate grid over ``field``: identity over 1, (delta, f) over X,
    f slowest; shape (p^(2 d^2), 2, 2, d, d)."""
    endos = np.array(_all_endos(field, d))
    G = np.zeros((len(endos), len(endos), 2, 2, d, d), dtype=np.int64)
    G[..., 0, 0, :, :] = np.identity(d, dtype=np.int64)
    G[..., 1, 1, :, :] = endos[:, None]
    G[..., 1, 0, :, :] = endos[None, :]
    return G.reshape(-1, 2, 2, d, d)


def test_criterion_4_duplicate_predicate_sweep():
    a, b = kn_algebra(F3, 2), duplicate_algebra(F3)
    G = _duplicate_stack(F3, 2)
    batch = G.shape[:-4]
    assert batch == (6561,)
    started = time.monotonic()
    flags = {tag: pairs_ok(F3, [(tag, *sides)], batch) for tag, *sides in _ncd_pairs(a, b, G)}
    verdict = pairs_ok(F3, _direct_pairs(a, b, G), batch)
    elapsed = time.monotonic() - started
    assert (verdict == np.logical_and.reduce(list(flags.values()))).all()
    # composition conditions 1+2 force the square condition 3
    assert not (flags["ncd.1"] & flags["ncd.2"] & ~flags["ncd.3"]).any()
    # unit and derivation conditions 5+6 force the vanishing 4
    assert not (flags["ncd.5"] & flags["ncd.6"] & ~flags["ncd.4"]).any()
    accepted = int(np.count_nonzero(verdict))
    assert accepted == N_NCD_F3
    assert elapsed < 60, f"sweep took {elapsed:.1f}s"
    _announce(
        "criterion 4",
        f"6561 pairs: family predicate matches the checker exactly "
        f"({accepted} accepted) with both implications, in {elapsed:.1f}s",
    )


# -- criterion 5: quantum duplicate predicate equivalence ----------------------------------


def test_criterion_5_quantum_duplicate_sweep():
    a = kn_algebra(F3, 2)
    G = _duplicate_stack(F3, 2)
    batch = G.shape[:-4]
    counts = {}
    for alpha, beta in [(0, -1), (1, 0), (1, 1)]:
        b = quadratic_algebra(F3, alpha, beta)
        verdict = pairs_ok(F3, _direct_pairs(a, b, G), batch)
        assert (verdict == pairs_ok(F3, _qdup_pairs(a, b, G), batch)).all()
        counts[(alpha, beta)] = int(np.count_nonzero(verdict))
    assert counts == N_QDUP_F3
    _announce(
        "criterion 5",
        f"three parameter pairs swept with zero exceptions; accepted counts {counts}",
    )


# -- criterion 6: truncated carrier, derived grids ------------------------------------------


def test_criterion_6_truncated_sweep(trunc_accepted):
    a = kn_algebra(F2, 2)
    endos = _all_endos(F2, 2)
    started = time.monotonic()
    accepted = 0
    for r0 in endos:
        for r1 in endos:
            for r2 in endos:
                cand = truncated_from_first_row(a, 3, [r0, r1, r2])
                verdict = direct_ok(cand.family)
                assert verdict == route_ok("oracle", cand.family)
                accepted += verdict
    elapsed = time.monotonic() - started
    assert accepted == N_TRUNC_DERIVED == len(trunc_accepted)
    assert elapsed < 60, f"sweep took {elapsed:.1f}s"
    _announce(
        "criterion 6",
        f"4096 derived grids: checker and oracle agree everywhere "
        f"({accepted} accepted) in {elapsed:.1f}s",
    )


# -- criterion 7: extension theorems -----------------------------------------------------------


def test_criterion_7_extensions(space22, sweep22, trunc_accepted):
    pool = [certify(space22.family_at(idx)) for idx in sweep22["accepted"]]
    pool += [certify(c.family) for c in trunc_accepted]
    assert all(c.verified for c in pool)

    pairs = 0
    for theta, ups in itertools.product(pool, pool):
        psi = direct_sum(theta, ups)
        n, m = theta.B.dim, ups.B.dim
        fam = psi.family
        assert psi.verified
        assert route_ok("rep", fam) and route_ok("oracle", fam)
        assert restrict(fam, "B", n) == theta.family
        assert restrict(fam, "C", n) == ups.family
        assert F2.is_zero(fam.gamma[n:, :n])  # upper-right corner of the A-matrix
        assert F2.is_zero(fam.gamma[:n, n:])
        assert check_extension_given_theta(fam, n).ok

        # a single perturbed cross entry must be rejected
        grid = fam.gamma.copy()
        grid[n, 0, 0, 0] = (grid[n, 0, 0, 0] + 1) % 2
        perturbed = GammaFamily(fam.A, fam.B, grid)
        assert not check_extension_given_theta(perturbed, n).ok
        pairs += 1
    assert pairs == len(pool) ** 2

    # quivers of the accepted idempotent-carrier candidates match the nonzero
    # pattern and satisfy the admissibility conditions
    from twistkit import kn_conditions, quiver_of

    for cand in pool[: len(sweep22["accepted"])]:
        quiver, rep_maps = quiver_of(cand)
        expected_arrows = tuple(
            (j, i)
            for j in range(2)
            for i in range(2)
            if not F2.is_zero(cand.family.gamma[j, i])
        )
        assert quiver.arrows == expected_arrows
        assert set(rep_maps.maps) == set(expected_arrows)
        assert kn_conditions(cand.A, 2, cand.family.gamma).ok

    # both directions of the decomposition corollary on an exhaustive space:
    # D = K^2 x K, A = K over F_2 (512 candidates)
    a1 = kn_algebra(F2, 1)
    from twistkit import direct_product

    d_alg = direct_product(kn_algebra(F2, 2), kn_algebra(F2, 1))
    space = SearchSpace(a1, d_alg)
    assert space.total == 512
    tested = corner_checked = 0
    for idx in range(space.total):
        fam = space.family_at(idx)
        theta = restrict(fam, "B", 2)
        ups = restrict(fam, "C", 2)
        # any twisting map whose first restriction is one has a vanishing
        # upper-right corner: entries out of the second factor into the first
        if direct_ok(theta) and direct_ok(fam):
            assert F2.is_zero(fam.gamma[2:, :2])
            corner_checked += 1
        if not (direct_ok(theta) and direct_ok(ups)):
            continue
        cross_zero = F2.is_zero(fam.gamma[:2, 2:]) and F2.is_zero(fam.gamma[2:, :2])
        is_twisting = direct_ok(fam) and route_ok("oracle", fam)
        assert is_twisting == cross_zero
        if is_twisting:
            assert direct_sum(certify(theta), certify(ups)).family == fam
        tested += 1
    assert tested > 0 and corner_checked > 0
    _announce(
        "criterion 7",
        f"{pairs} direct-sum pairs pass every checker with clean corners and "
        f"reject perturbations; decomposition corollary holds both ways on "
        f"{tested} exhaustive instances",
    )


# -- criterion 8: base change -------------------------------------------------------------------


def test_criterion_8_base_change(space22, sweep22):
    rng = random.Random(574219)
    candidates = [certify(space22.family_at(idx)) for idx in sweep22["accepted"]]

    # every accepted candidate, 20 deterministic invertible changes of basis
    for cand in candidates:
        for _ in range(20):
            p_mat = _seeded_invertible(F2, 2, rng)
            result = rebase(cand, p_mat)
            assert result.conjugation.ok
            assert result.candidate.verified
            assert validate_algebra(result.algebra).ok

    # the same sweep shape over F_5
    a5 = kn_algebra(F5, 2)
    f5_candidates = [
        certify(make_ncd(a5, [[1, 0], [1, 0]], [[0, 0], [0, 0]])),
        certify(make_quantum_duplicate(a5, 0, -1, [[0, 1], [1, 0]], [[0, 0], [0, 0]])),
    ]
    rng5 = random.Random(918273)
    for cand in f5_candidates:
        assert cand.verified
        for _ in range(20):
            p_mat = _seeded_invertible(F5, 2, rng5)
            result = rebase(cand, p_mat)
            assert result.conjugation.ok
            assert result.candidate.verified

    # the two induced-morphism criterion forms agree on every call
    calls = passes = 0
    for chi, varpi in itertools.product(candidates, candidates):
        report = check_induced_morphism(chi, varpi, identity_morphism(chi.B))
        assert "eq.agreement" not in report.conditions()
        calls += 1
        passes += report.ok
        if chi is varpi:
            assert report.ok
    assert passes < calls  # the sweep exercises failing instances too

    _announce(
        "criterion 8",
        f"{len(candidates)}x20 rebases over F2 plus 2x20 over F5 preserve "
        f"verdicts with exact conjugation; criterion forms agree on {calls} calls",
    )


# -- criterion 9: golden files -----------------------------------------------------------------


def test_criterion_9_golden_files():
    f_marker = KMatrix.from_rows(F5, [[0, 1], [1, 0]])
    d_marker = KMatrix.from_rows(F5, [[1, 2], [3, 4]])
    fam_f5 = make_ncd(kn_algebra(F5, 2), f_marker, d_marker).family
    fam_q = make_ncd(kn_algebra(QQ, 2), QQ.identity(2), QQ.zeros((2, 2))).family
    fam_q2 = make_quantum_duplicate(
        kn_algebra(QQ, 2), 3, 2, QQ.identity(2), QQ.zeros((2, 2))
    ).family
    kn_grid = [[[[1, 2], [3, 4]], [[0, 1], [1, 1]]], [[[2, 0], [0, 2]], [[1, 1], [0, 1]]]]
    fam_kn = make_kn(kn_algebra(F5, 2), 2, kn_grid).family

    cases = {
        "duplicate_structure_matrix_x.json": serialize.kmatrix_to_json(
            duplicate_algebra(QQ).structure_matrix(1)
        ),
        "quadratic_structure_matrix_x.json": serialize.kmatrix_to_json(
            quadratic_algebra(QQ, 3, 2).structure_matrix(1)
        ),
        "truncated_shift_matrix_y.json": serialize.kmatrix_to_json(
            truncated_poly_algebra(QQ, 4).structure_matrix(1)
        ),
        "duplicate_rho_hat_x.json": serialize.endomatrix_to_json(rho_hat(fam_f5, 1)),
        "duplicate_phi_hat_shape.json": serialize.algmatrix_to_json(
            phi_hat(fam_f5, F5.asarray([2, 1]))
        ),
        "duplicate_phi_chi_x.json": serialize.algmatrix_to_json(
            lift_structure_matrix(fam_q, 1)
        ),
        "quadratic_phi_chi_x.json": serialize.algmatrix_to_json(
            lift_structure_matrix(fam_q2, 1)
        ),
        "kn_rho_hat_e1.json": serialize.endomatrix_to_json(rho_hat(fam_kn, 0)),
    }
    for name, payload in cases.items():
        committed = (GOLDEN / name).read_bytes()
        assert serialize.dumps(payload).encode("utf-8") == committed, name
    _announce("criterion 9", f"{len(cases)} fixtures byte-match the committed files")
