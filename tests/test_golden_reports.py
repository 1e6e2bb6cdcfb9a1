"""Byte-exact golden reports of the condition checkers.

Every report function below runs on seeded inputs: accepted candidates,
random grids, and accepted candidates with one entry perturbed (so that the
first witness of a family sits away from the origin).  The full reports
(tag, witness, left, right, count) are compared byte for byte with the JSON
committed under ``tests/golden/reports_*.json``, and the standard output of
``twistkit extend --blocks`` on one accepted and one rejected input with
``tests/golden/cli_extend_blocks_*.json``.

Regenerate the files with ``PYTHONPATH=src python tests/test_golden_reports.py``
only when a report change is intended.
"""

import contextlib
import io
import random
import tempfile
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import pytest

from twistkit import (
    GF,
    QQ,
    FiniteDimAlgebra,
    GammaFamily,
    KMatrix,
    SingularMatrixError,
    TwistingCandidate,
    certify,
    check_extension_given_theta,
    check_induced_morphism,
    check_lemma_blocks,
    check_remark_delta,
    direct_product,
    direct_sum,
    duplicate_algebra,
    kn_algebra,
    kn_conditions,
    make_kn,
    make_morphism,
    make_ncd,
    ncd_conditions,
    qdup_conditions,
    mat_inverse,
    rebase,
    serialize,
    truncated_conditions,
    truncated_from_first_row,
    truncated_poly_algebra,
    validate_algebra,
    verify_faithful,
)
from twistkit.cli import main
from twistkit.twisting import ROUTES, route_ok, route_reports

GOLDEN = Path(__file__).parent / "golden"

F3 = GF(3)
F5 = GF(5)


def _identity(b):
    """The identity morphism of b."""
    return make_morphism(b, b, b.field.identity(b.dim))


def _triangular(field):
    """Upper-triangular 2 x 2 matrices: a non-commutative 3-dim algebra."""
    lam = field.zeros((3, 3, 3))
    lam[0, 0, 0] = field.one
    lam[1, 1, 1] = field.one
    lam[0, 2, 2] = field.one
    lam[2, 1, 2] = field.one
    return FiniteDimAlgebra(field, 3, ("e11", "e22", "e12"), lam, field.asarray([1, 1, 0]))


def _scalar(field, rng):
    if field.kind == "Fp":
        return rng.randrange(field.p)
    return Fraction(rng.randrange(-3, 4), rng.choice((1, 1, 2, 3)))


def _grid(field, rng, n, d):
    def endo():
        return [[_scalar(field, rng) for _ in range(d)] for _ in range(d)]

    return field.asarray([[endo() for _ in range(n)] for _ in range(n)])


def _perturbed(family, rng, count=1):
    """The family's grid with ``count`` entries moved by a nonzero amount."""
    field = family.field
    grid = family.gamma.copy()
    for _ in range(count):
        idx = tuple(rng.randrange(s) for s in grid.shape)
        grid[idx] = field.reduce(grid[idx] + field.scalar(rng.randrange(1, 3)))
    return GammaFamily(family.A, family.B, grid)


def _ncd(A, f, delta):
    return certify(make_ncd(A, f, delta))


def _invertible(field, n, rng):
    while True:
        mat = KMatrix(field, _grid(field, rng, 1, n)[0, 0])
        try:
            mat_inverse(mat)
            return mat
        except SingularMatrixError:
            continue


# -- inputs ------------------------------------------------------------------------


def _route_families():
    rng = random.Random(20150505)
    k2_f5 = kn_algebra(F5, 2)
    tri_f3 = _triangular(F3)
    k2_q = kn_algebra(QQ, 2)
    ncd_q = _ncd(k2_q, [[1, 0], [1, 0]], [[0, 0], [0, 0]]).family
    flip_f5 = GammaFamily.flip(k2_f5, k2_f5)
    flip_tri = GammaFamily.flip(tri_f3, duplicate_algebra(F3))
    return {
        "f5_flip_k2_k2": flip_f5,
        "q_ncd_idempotent": ncd_q,
        "f5_random_k2_k2": GammaFamily(k2_f5, k2_f5, _grid(F5, rng, 2, 2)),
        "f3_random_tri_dup": GammaFamily(tri_f3, duplicate_algebra(F3), _grid(F3, rng, 2, 3)),
        "q_random_k2_dup": GammaFamily(k2_q, duplicate_algebra(QQ), _grid(QQ, rng, 2, 2)),
        "q_random_dup_trunc3": GammaFamily(
            duplicate_algebra(QQ), truncated_poly_algebra(QQ, 3), _grid(QQ, rng, 3, 2)
        ),
        "f5_perturbed_flip": _perturbed(flip_f5, rng),
        "f3_perturbed_flip_tri": _perturbed(flip_tri, rng),
        "f3_perturbed_flip_tri_twice": _perturbed(flip_tri, rng, 2),
        "q_perturbed_ncd": _perturbed(ncd_q, rng),
    }


def _grid_family_inputs():
    """(A, n, grid) triples for the K^n and truncated family conditions."""
    rng = random.Random(1505)
    k2_f5 = kn_algebra(F5, 2)
    tri_f3 = _triangular(F3)
    k2_q = kn_algebra(QQ, 2)
    kn_flip = make_kn(k2_f5, 2, GammaFamily.flip(k2_f5, kn_algebra(F5, 2)).gamma).family
    dictionary = make_kn(
        k2_q, 2, [[[[1, 0], [0, 1]], [[0, 0], [-1, 1]]], [[[0, 0], [0, 0]], [[1, 0], [1, 0]]]]
    ).family
    kn = {
        "f5_flip": (k2_f5, 2, kn_flip.gamma),
        "q_dictionary": (k2_q, 2, dictionary.gamma),
        "f5_random": (k2_f5, 2, _grid(F5, rng, 2, 2)),
        "f3_random_tri": (tri_f3, 3, _grid(F3, rng, 3, 3)),
        "q_random": (k2_q, 2, _grid(QQ, rng, 2, 2)),
        "f5_perturbed_flip": (k2_f5, 2, _perturbed(kn_flip, rng).gamma),
        "q_perturbed_dictionary": (k2_q, 2, _perturbed(dictionary, rng).gamma),
    }
    k2_f3 = kn_algebra(F3, 2)
    shift = truncated_from_first_row(
        k2_f3, 3, [F3.zeros((2, 2)), F3.identity(2), F3.zeros((2, 2))]
    ).family
    derivation = truncated_from_first_row(
        kn_algebra(QQ, 1), 3, [[[0]], [[1]], [[0]]]
    ).family
    trunc = {
        "f3_first_row": (k2_f3, 3, shift.gamma),
        "q_first_row": (kn_algebra(QQ, 1), 3, derivation.gamma),
        "f3_random": (k2_f3, 3, _grid(F3, rng, 3, 2)),
        "f5_random_n2": (kn_algebra(F5, 2), 2, _grid(F5, rng, 2, 2)),
        "q_random": (k2_q, 3, _grid(QQ, rng, 3, 2)),
        "f3_perturbed_first_row": (k2_f3, 3, _perturbed(shift, rng).gamma),
        "f3_perturbed_first_row_twice": (k2_f3, 3, _perturbed(shift, rng, 2).gamma),
    }
    return kn, trunc


def _truncated_n4_inputs():
    """(A, 4, grid) triples: at n = 4 the flat witness of ``trunc.2`` runs over
    the (r, i) pairs (2, 1), (3, 1), (3, 2), so perturbing a row r = 3 entry
    puts the first witness past the first pair."""
    rng = random.Random(4040)
    k2_f3 = kn_algebra(F3, 2)
    k1_q = kn_algebra(QQ, 1)
    shift = truncated_from_first_row(
        k2_f3, 4, [F3.zeros((2, 2)), F3.identity(2), F3.zeros((2, 2)), F3.zeros((2, 2))]
    ).family
    derivation = truncated_from_first_row(k1_q, 4, [[[0]], [[1]], [[0]], [[0]]]).family
    row3 = shift.gamma.copy()
    row3[3, 2, 1, 0] = F3.one
    q_row3 = derivation.gamma.copy()
    q_row3[3, 3, 0, 0] = Fraction(1, 2)
    return {
        "f3_first_row": (k2_f3, 4, shift.gamma),
        "q_first_row": (k1_q, 4, derivation.gamma),
        "f3_row3_entry": (k2_f3, 4, row3),
        "q_row3_entry": (k1_q, 4, q_row3),
        "f3_random": (k2_f3, 4, _grid(F3, rng, 4, 2)),
        "q_random": (kn_algebra(QQ, 2), 4, _grid(QQ, rng, 4, 2)),
        "f3_perturbed_first_row": (k2_f3, 4, _perturbed(shift, rng).gamma),
        "f3_perturbed_first_row_twice": (k2_f3, 4, _perturbed(shift, rng, 2).gamma),
    }


def _constant_algebra(field, dim, left):
    """b_i b_j = b_i (``left``) or b_j: associative, with b_0 a one-sided unit."""
    lam = field.zeros((dim, dim, dim))
    for i in range(dim):
        for j in range(dim):
            lam[i, j, i if left else j] = field.one
    labels = tuple(f"b{i}" for i in range(dim))
    return FiniteDimAlgebra(field, dim, labels, lam, field.unit_vector(dim, 0))


def _algebra_inputs():
    """Valid algebras, one-sided units (only ``unit.left`` or only
    ``unit.right`` fails) and perturbed constants or units."""
    rng = random.Random(3141)
    out = {
        "f5_k3": kn_algebra(F5, 3),
        "f3_triangular": _triangular(F3),
        "q_trunc3": truncated_poly_algebra(QQ, 3),
        "q_right_constant": _constant_algebra(QQ, 2, left=False),
        "f3_left_constant": _constant_algebra(F3, 3, left=True),
    }
    for tag, alg in (("f5_k3", out["f5_k3"]), ("f3_tri", out["f3_triangular"]),
                     ("q_trunc3", out["q_trunc3"])):
        field = alg.field
        for trial in range(2):
            lam = alg.lam.copy()
            idx = tuple(rng.randrange(alg.dim) for _ in range(3))
            lam[idx] = field.reduce(lam[idx] + field.scalar(rng.randrange(1, 3)))
            out[f"{tag}_perturbed_lam_{trial}"] = replace(alg, lam=lam)
        unit = alg.unit.copy()
        unit[rng.randrange(alg.dim)] += field.one
        out[f"{tag}_perturbed_unit"] = replace(alg, unit=field.reduce(unit))
    return out


def _duplicate_inputs():
    """(A, f, delta) triples and (A, alpha, beta, f, delta) quintuples."""
    rng = random.Random(2718)
    k2_f5 = kn_algebra(F5, 2)
    tri_f3 = _triangular(F3)
    k2_q = kn_algebra(QQ, 2)
    ncd = {
        "q_idempotent": (k2_q, [[1, 0], [1, 0]], [[0, 0], [0, 0]]),
        "f5_flip": (k2_f5, F5.identity(2), F5.zeros((2, 2))),
        "q_swap_delta": (k2_q, [[0, 1], [1, 0]], [[1, 0], [0, 0]]),
    }
    qdup = {
        "q_swap": (k2_q, 0, -1, [[0, 1], [1, 0]], [[0, 0], [0, 0]]),
        "q_one_zero_idempotent": (k2_q, 1, 0, [[1, 0], [1, 0]], [[0, 0], [0, 0]]),
    }
    for trial in range(3):
        for tag, field, alg in (("f5", F5, k2_f5), ("f3_tri", F3, tri_f3), ("q", QQ, k2_q)):
            f, delta = _grid(field, rng, 1, alg.dim)[0, 0], _grid(field, rng, 1, alg.dim)[0, 0]
            ncd[f"{tag}_random_{trial}"] = (alg, f, delta)
            alpha, beta = _scalar(field, rng), _scalar(field, rng)
            qdup[f"{tag}_random_{trial}"] = (alg, alpha, beta, f, delta)
    return ncd, qdup


def _faithful_inputs():
    """Verified candidates, and random grids forged as verified."""
    out = {}
    for tag, fam in _route_families().items():
        if tag.startswith(("f5_flip", "q_ncd")):
            out[tag] = certify(fam)
        else:
            out[f"{tag}_forged"] = TwistingCandidate(fam, verified=True)
    return out


def _extension_inputs():
    """(psi, n) pairs over product carriers whose B-restriction is verified."""
    rng = random.Random(4242)
    out = {}
    for tag, field in (("f3", F3), ("q", QQ)):
        a = kn_algebra(field, 2)
        theta = certify(GammaFamily.flip(a, kn_algebra(field, 2)))
        ups = _ncd(a, [[1, 0], [1, 0]], [[0, 0], [0, 0]])
        psi = direct_sum(theta, ups).family
        out[f"{tag}_direct_sum"] = (psi, 2)
        for trial in range(2):
            grid = _grid(field, rng, 4, 2)
            grid[:2, :2] = theta.family.gamma
            out[f"{tag}_random_corners_{trial}"] = (GammaFamily(a, psi.B, grid), 2)
        grid = _perturbed(psi, rng).gamma.copy()
        grid[:2, :2] = theta.family.gamma
        out[f"{tag}_perturbed_sum"] = (GammaFamily(a, psi.B, grid), 2)
        grid = psi.gamma.copy()
        grid[2, 0] = _grid(field, rng, 1, 2)[0, 0]  # nonzero Gamma01 only
        out[f"{tag}_gamma01_only"] = (GammaFamily(a, psi.B, grid), 2)
    tri = _triangular(F5)
    d_alg = direct_product(kn_algebra(F5, 1), duplicate_algebra(F5))
    grid = _grid(F5, rng, 3, 3)
    grid[0, 0] = F5.identity(3)
    out["f5_random_tri_k1_dup"] = (GammaFamily(tri, d_alg, grid), 1)
    return out


def _uneven_extension_inputs():
    """(psi, n) pairs at cuts with n != m, B-restriction verified: D =
    duplicate x K at n = 2 and D = K x K^3 at n = 1, over F_3 and Q."""
    rng = random.Random(5353)
    out = {}
    for tag, field in (("f3", F3), ("q", QQ)):
        a = kn_algebra(field, 2)
        ncd = _ncd(a, [[1, 0], [1, 0]], [[0, 0], [0, 0]])
        flip = certify(GammaFamily.flip(a, kn_algebra(field, 1)))
        dictionary = certify(
            make_kn(a, 2, [[[[1, 0], [0, 1]], [[0, 0], [-1, 1]]], [[[0, 0], [0, 0]], [[1, 0], [1, 0]]]])
        )
        k3 = certify(GammaFamily(a, kn_algebra(field, 3), direct_sum(flip, dictionary).family.gamma))
        for cut, theta, ups in (("dup_k", ncd, flip), ("k_k3", flip, k3)):
            psi = direct_sum(theta, ups).family
            n, dim = theta.B.dim, psi.B.dim
            name = f"{tag}_{cut}"
            out[f"{name}_direct_sum"] = (psi, n)
            for trial in range(2):
                grid = _grid(field, rng, dim, 2)
                grid[:n, :n] = theta.family.gamma
                out[f"{name}_random_corners_{trial}"] = (GammaFamily(a, psi.B, grid), n)
            grid = _perturbed(psi, rng, 2).gamma.copy()
            grid[:n, :n] = theta.family.gamma
            out[f"{name}_perturbed_sum"] = (GammaFamily(a, psi.B, grid), n)
            grid = psi.gamma.copy()
            grid[n:, :n] = _grid(field, rng, dim, 2)[n:, :n]  # nonzero Gamma01 only
            out[f"{name}_gamma01_only"] = (GammaFamily(a, psi.B, grid), n)
    return out


def _remark_delta_inputs(extension_inputs):
    """Candidates flagged verified whose upper-right corner vanishes; the
    forged ones exercise the failure paths."""
    rng = random.Random(777)
    out = {}
    for tag, (psi, n) in extension_inputs.items():
        if tag.endswith("direct_sum"):
            out[tag] = (certify(psi), n)
            random_grid = _grid(psi.field, rng, psi.B.dim, psi.A.dim)
            grids = {f"{tag}_forged": psi.gamma, f"{tag}_random_forged": random_grid}
        else:
            grids = {f"{tag}_forged": psi.gamma}
        for name, grid in grids.items():
            grid = grid.copy()
            grid[n:, :n] = psi.field.zero
            out[name] = (TwistingCandidate(GammaFamily(psi.A, psi.B, grid), verified=True), n)
    return out


def _morphism_inputs():
    a = kn_algebra(QQ, 2)
    ncd = _ncd(a, [[1, 0], [1, 0]], [[0, 0], [0, 0]])
    other = _ncd(a, [[1, 0], [0, 1]], [[0, 0], [0, 0]])
    f = ncd.family.gamma[1, 1]
    delta = ncd.family.gamma[1, 0]
    eye = QQ.identity(2)
    grid = [[QQ.sub(eye, delta), QQ.sub(QQ.sub(eye, delta), f)], [delta, QQ.add(delta, f)]]
    varpi = certify(make_kn(a, 2, grid))
    swap = certify(make_kn(a, 2, [[grid[1][1], grid[1][0]], [grid[0][1], grid[0][0]]]))
    to_k2 = make_morphism(ncd.B, varpi.B, [[1, 0], [1, 1]])
    a5 = kn_algebra(F5, 2)
    ncd5 = _ncd(a5, [[1, 0], [1, 0]], [[0, 0], [0, 0]])
    flip5 = certify(GammaFamily.flip(a5, ncd5.B))
    return {
        "q_identity": (ncd, ncd, _identity(ncd.B)),
        "q_dictionary": (ncd, varpi, to_k2),
        "q_mismatched": (ncd, other, _identity(ncd.B)),
        "q_dictionary_wrong_target": (other, varpi, to_k2),
        "q_swapped_target": (ncd, swap, to_k2),
        "f5_against_flip": (ncd5, flip5, _identity(ncd5.B)),
    }


def _rebase_inputs():
    rng = random.Random(9090)
    out = {}
    for tag, field in (("f5", F5), ("q", QQ)):
        a = kn_algebra(field, 2)
        ncd = _ncd(a, [[1, 0], [1, 0]], [[0, 0], [0, 0]])
        out[f"{tag}_ncd_identity"] = (ncd, KMatrix.identity(field, 2))
        out[f"{tag}_ncd_idempotent_basis"] = (ncd, KMatrix.from_rows(field, [[1, 0], [1, 1]]))
    for trial in range(3):
        forged = TwistingCandidate(
            GammaFamily(_triangular(F3), kn_algebra(F3, 3), _grid(F3, rng, 3, 3)), verified=True
        )
        out[f"f3_forged_random_{trial}"] = (forged, _invertible(F3, 3, rng))
    return out


# -- reports -------------------------------------------------------------------------


def _reports():
    by_route = {k: route_reports(f, ROUTES) for k, f in _route_families().items()}
    kn, trunc = _grid_family_inputs()
    ext = _extension_inputs()
    uneven = _uneven_extension_inputs()
    ncd, qdup = _duplicate_inputs()
    return {
        **{f"route_{route}": {k: reports[route] for k, reports in by_route.items()} for route in ROUTES},
        "ncd_conditions": {k: ncd_conditions(*args) for k, args in ncd.items()},
        "qdup_conditions": {k: qdup_conditions(*args) for k, args in qdup.items()},
        "verify_faithful": {k: verify_faithful(c) for k, c in _faithful_inputs().items()},
        "kn_conditions": {k: kn_conditions(*args) for k, args in kn.items()},
        "truncated_conditions": {k: truncated_conditions(*args) for k, args in trunc.items()},
        "check_lemma_blocks": {k: check_lemma_blocks(psi, n) for k, (psi, n) in ext.items()},
        "check_extension_given_theta": {
            k: check_extension_given_theta(psi, n) for k, (psi, n) in ext.items()
        },
        "check_extension_given_theta_staged": {
            k: check_extension_given_theta(psi, n, require_gamma01_zero=False)
            for k, (psi, n) in ext.items()
        },
        "check_remark_delta": {
            k: check_remark_delta(psi, n) for k, (psi, n) in _remark_delta_inputs(ext).items()
        },
        "check_induced_morphism": {
            k: check_induced_morphism(*args) for k, args in _morphism_inputs().items()
        },
        "rebase_conjugation": {
            k: rebase(chi, p).conjugation for k, (chi, p) in _rebase_inputs().items()
        },
        "validate_algebra": {k: validate_algebra(a) for k, a in _algebra_inputs().items()},
        "truncated_conditions_n4": {
            k: truncated_conditions(*args) for k, args in _truncated_n4_inputs().items()
        },
        "check_lemma_blocks_uneven": {
            k: check_lemma_blocks(psi, n) for k, (psi, n) in uneven.items()
        },
        "check_extension_given_theta_uneven": {
            k: check_extension_given_theta(psi, n) for k, (psi, n) in uneven.items()
        },
        "check_extension_given_theta_staged_uneven": {
            k: check_extension_given_theta(psi, n, require_gamma01_zero=False)
            for k, (psi, n) in uneven.items()
        },
        "check_remark_delta_uneven": {
            k: check_remark_delta(psi, n) for k, (psi, n) in _remark_delta_inputs(uneven).items()
        },
    }


def _payload(reports) -> bytes:
    data = {k: serialize.report_to_json(r) for k, r in reports.items()}
    return serialize.dumps(data).encode("utf-8")


@pytest.fixture(scope="module")
def reports():
    return _reports()


@pytest.mark.parametrize(
    "name",
    [
        *(f"route_{route}" for route in ROUTES),
        "ncd_conditions",
        "qdup_conditions",
        "verify_faithful",
        "kn_conditions",
        "truncated_conditions",
        "check_lemma_blocks",
        "check_extension_given_theta",
        "check_extension_given_theta_staged",
        "check_remark_delta",
        "check_induced_morphism",
        "rebase_conjugation",
        "validate_algebra",
        "truncated_conditions_n4",
        "check_lemma_blocks_uneven",
        "check_extension_given_theta_uneven",
        "check_extension_given_theta_staged_uneven",
        "check_remark_delta_uneven",
    ],
)
def test_reports_match_golden(reports, name):
    assert _payload(reports[name]) == (GOLDEN / f"reports_{name}.json").read_bytes()


def _extend_blocks_runs():
    """Exit code and stdout of ``twistkit extend --blocks`` on one accepted
    and one rejected input."""
    uneven = _uneven_extension_inputs()
    runs = {}
    with tempfile.TemporaryDirectory() as tmp:
        for name, key in (("accepted", "f3_dup_k_direct_sum"), ("rejected", "q_k_k3_random_corners_0")):
            psi, n = uneven[key]
            path = Path(tmp) / f"{name}.json"
            path.write_text(serialize.dumps({"psi": serialize.candidate_to_json(psi), "n": n}), encoding="utf-8")
            stdout = io.StringIO()
            with contextlib.redirect_stdout(stdout):
                code = main(["extend", str(path), "--blocks"])
            runs[name] = (code, stdout.getvalue().encode("utf-8"))
    return runs


def test_extend_blocks_stdout_matches_golden():
    runs = _extend_blocks_runs()
    assert {name: code for name, (code, _) in runs.items()} == {"accepted": 0, "rejected": 1}
    for name, (_, stdout) in runs.items():
        assert stdout == (GOLDEN / f"cli_extend_blocks_{name}.json").read_bytes(), name


def test_fast_verdicts_match_reports():
    """Every lazy verdict equals ``.ok`` of the report over the same families,
    on every route of the table, over F_p and Q."""
    families = _route_families()
    assert {fam.field.kind for fam in families.values()} == {"Fp", "Q"}
    verdicts = set()
    for name, fam in families.items():
        for route in ROUTES:
            verdict = route_ok(route, fam)
            assert verdict == route_reports(fam, [route])[route].ok, (route, name)
            verdicts.add(verdict)
    assert verdicts == {True, False}


if __name__ == "__main__":
    for name, group in _reports().items():
        (GOLDEN / f"reports_{name}.json").write_bytes(_payload(group))
    for name, (_, stdout) in _extend_blocks_runs().items():
        (GOLDEN / f"cli_extend_blocks_{name}.json").write_bytes(stdout)
