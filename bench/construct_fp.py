"""construct-fp: the construction layers over F_p, one operation at a time.

For each d = dim A in {2, 3, 4} the seed picks a prime p (small, or near
2^16) and builds a pool of twisting maps on A = K^d with two-dimensional
carriers: flips, duplicates, quantum duplicates, K^2 candidates and truncated
candidates.  A pass takes one seeded pair (theta, ups) per d and runs, in
order: the family conditions of theta against ``direct_ok``, ``direct_sum``,
the extension criterion in its strengthened and staged forms, the block
criterion, the triangular-form identities, ``rebase`` by a seeded invertible
matrix, validation of the rebased carrier, the induced-morphism criterion
for the base change, a product of A-valued matrices in the faithful form,
and two checks of a perturbed direct sum that must reject it.  Every pass
holds the same operations on the same shapes, so the seed changes the data
but not the mix.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from pathlib import Path

import gen
from harness import Op

from twistkit import algebra, basischange, catalog, extension, linalg, serialize, twisting

SMALL_PRIMES = (3, 5, 7, 11, 13)
LARGE_PRIMES = (65449, 65479, 65497, 65519, 65521)
DIMS = (2, 3, 4)
TASKS_PER_DIM = 8

#: Tail latency percentile (a 40 s run holds about 30000 operations).
TAIL_PERCENTILE = 99.0


@dataclass
class Entry:
    family: str
    data: dict
    candidate: object  # verified TwistingCandidate


@dataclass
class Task:
    theta: Entry
    ups: Entry
    p_matrix: object  # KMatrix
    zeta: list  # inverse of p_matrix as nested residues
    perturbed: object  # verified-flag-free TwistingCandidate
    x: int
    y: int


@dataclass
class Inputs:
    primes: dict[int, int]
    tasks: dict[int, list[Task]]
    pool_sizes: dict[int, int]


def _pool(rng: random.Random, d: int, p: int) -> list[dict]:
    A = gen.kn(d, p)
    eye = gen.identity(d, p)
    pool = [
        gen.flip(A, gen.kn(2, p), p),
        gen.flip(A, gen.truncated(2, p), p),
        gen.flip(A, gen.duplicate(p), p),
    ]
    for _ in range(2):
        f, _ = gen.idempotent_endo(rng, d, p)
        pool.append(gen.ncd(A, f, rng.choice([gen.matscale(0, eye, p), gen.matsub(eye, f, p)]), p))
        f, _ = gen.idempotent_endo(rng, d, p)
        pool.append(gen.qdup(A, rng.randrange(p), rng.randrange(p), f, p))
        f, _ = gen.idempotent_endo(rng, d, p)
        pool.append(gen.kn2(A, f, p))
        pool.append(gen.trunc(A, 2, gen.any_endo(rng, d, p), p))
    return pool


def _direct_sum(theta: dict, ups: dict, p: int) -> dict:
    """Block-diagonal join on the product carrier, built independently."""
    n, m = len(theta["B"]["unit"]), len(ups["B"]["unit"])
    d = len(theta["A"]["unit"])
    s = n + m
    lam = [[[gen.norm(0, p)] * s for _ in range(s)] for _ in range(s)]
    for off, B in ((0, theta["B"]), (n, ups["B"])):
        size = len(B["unit"])
        for i in range(size):
            for j in range(size):
                for k in range(size):
                    lam[off + i][off + j][off + k] = B["lam"][i][j][k]
    carrier = {"lam": lam, "unit": list(theta["B"]["unit"]) + list(ups["B"]["unit"]),
               "basis": theta["B"]["basis"] + ups["B"]["basis"]}
    grid = [[[[gen.norm(0, p)] * d for _ in range(d)] for _ in range(s)] for _ in range(s)]
    for off, size, g in ((0, n, theta["gamma"]), (n, m, ups["gamma"])):
        for i in range(size):
            for j in range(size):
                grid[off + i][off + j] = g[i][j]
    return {"A": theta["A"], "B": carrier, "gamma": grid, "family": "sum"}


def _conditions(entry: Entry):
    data, cand = entry.data, entry.candidate
    A = cand.A
    if entry.family in ("ncd", "qdup"):
        f, delta = data["f"], data["delta"]
        if entry.family == "ncd":
            return catalog.ncd_conditions(A, f, delta)
        return catalog.qdup_conditions(A, data["alpha"], data["beta"], f, delta)
    if entry.family == "kn" or data["B"]["basis"][0] == "e1":
        return catalog.kn_conditions(A, 2, cand.family.gamma)
    if data["B"]["basis"][1] == "Y":
        return catalog.truncated_conditions(A, 2, cand.family.gamma)
    # flip over the duplicate carrier: f = id, delta = 0
    d = A.dim
    return catalog.ncd_conditions(A, A.field.identity(d), A.field.zeros((d, d)))


def _to_candidate(data: dict, p: int, verified: bool):
    cand = serialize.candidate_from_json(gen.candidate_json(data, p))
    return twisting.certify(cand) if verified else cand


def make_inputs(seed: int, workdir: Path, pinned: dict) -> Inputs:
    rng = random.Random(f"construct-fp/{seed}")
    primes, tasks, sizes = {}, {}, {}
    for d in DIMS:
        p = rng.choice(SMALL_PRIMES + LARGE_PRIMES)
        primes[d] = p
        pool = [Entry(c["family"], c, _to_candidate(c, p, True)) for c in _pool(rng, d, p)]
        sizes[d] = len(pool)
        tasks[d] = []
        for _ in range(TASKS_PER_DIM):
            theta, ups = rng.choice(pool), rng.choice(pool)
            pm = gen.invertible(rng, 4, p)
            field = theta.candidate.A.field
            psi_data = _direct_sum(theta.data, ups.data, p)
            bad = gen.perturb(psi_data, rng, p, rows=range(2, 4))
            tasks[d].append(Task(
                theta, ups, linalg.KMatrix(field, field.asarray(pm)), gen.matinv(pm, p),
                _to_candidate(bad, p, False), rng.randrange(d), rng.randrange(d),
            ))
    return Inputs(primes, tasks, sizes)


def _failures(output) -> dict:
    """Failure count of a returned report, for ``report.failures_per_op``."""
    return {"failures": len(output.failures)} if hasattr(output, "failures") else {}


def task_ops(task: Task) -> list[Op]:
    state = {}
    n = task.theta.candidate.B.dim

    def op(name, run, check, kind="accepted"):
        return Op(name=name, items=1, run=run, check=check, kind=kind, info=_failures)

    def ok(report):
        return None if report.ok else f"unexpected failures {sorted(report.conditions())}"

    def rejected(report):
        return None if not report.ok else "perturbed direct sum accepted"

    def conditions():
        return _conditions(task.theta), twisting.direct_ok(task.theta.candidate)

    def check_conditions(out):
        report, direct = out
        if report.ok != direct:
            return f"family conditions {report.ok} != direct_ok {direct} ({task.theta.family})"
        return ok(report)

    def direct_sum():
        state["psi"] = extension.direct_sum(task.theta.candidate, task.ups.candidate)
        return state["psi"]

    def check_sum(psi):
        return None if psi.verified and psi.B.dim == 4 else "direct sum not verified"

    def rebase():
        state["rebased"] = basischange.rebase(state["psi"], task.p_matrix)
        return state["rebased"]

    def check_rebase(res):
        if not res.candidate.verified:
            return "rebased candidate not verified"
        return ok(res.conjugation)

    def induced():
        mor = basischange.make_morphism(state["psi"].B, state["rebased"].algebra, task.zeta)
        return basischange.check_induced_morphism(state["psi"], state["rebased"].candidate, mor)

    def check_induced(report):
        if "eq.agreement" in report.conditions():
            return "matrix and gamma forms disagree"
        return ok(report)

    def algmat():
        psi = state["psi"]
        A = psi.A
        ex, ey = A.basis_element(task.x), A.basis_element(task.y)
        prod = linalg.algmat_mul(twisting.phi_hat(psi, ex), twisting.phi_hat(psi, ey))
        return prod, twisting.phi_hat(psi, A.multiply(ex, ey))

    def check_algmat(out):
        prod, expected = out
        return None if prod == expected else "phi is not multiplicative"

    def certify_bad():
        return twisting.certify(task.perturbed)

    return [
        op("catalog.conditions", conditions, check_conditions),
        op("extension.direct_sum", direct_sum, check_sum),
        op("extension.check_extension", lambda: extension.check_extension_given_theta(state["psi"], n), ok),
        op("extension.check_extension_staged",
           lambda: extension.check_extension_given_theta(state["psi"], n, require_gamma01_zero=False), ok),
        op("extension.lemma_blocks", lambda: extension.check_lemma_blocks(state["psi"], n), ok),
        op("extension.remark_delta", lambda: extension.check_remark_delta(state["psi"], n), ok),
        op("basischange.rebase", rebase, check_rebase),
        op("algebra.validate", lambda: algebra.validate_algebra(state["rebased"].algebra), ok),
        op("basischange.induced_morphism", induced, check_induced),
        op("linalg.algmat_mul", algmat, check_algmat),
        op("twisting.certify", certify_bad,
           lambda c: None if not c.verified else "perturbed direct sum certified", "rejected"),
        op("extension.check_extension", lambda: extension.check_extension_given_theta(task.perturbed, n),
           rejected, "rejected"),
    ]


def pass_ops(inputs: Inputs, r: int) -> list[Op]:
    ops = []
    for d in DIMS:
        tasks = inputs.tasks[d]
        ops.extend(task_ops(tasks[r % len(tasks)]))
    return ops


def warm_up(inputs: Inputs) -> None:
    for op in pass_ops(inputs, 0):
        error = op.check(op.run())
        if error:
            raise RuntimeError(f"warm-up failed: {op.name}: {error}")


def input_properties(inputs: Inputs, m) -> dict:
    total = m.count()
    return {
        "primes": " ".join(f"d={d}:p={p}" for d, p in inputs.primes.items()),
        "d_mix": " ".join(f"{d}:1/{len(DIMS)}" for d in DIMS),
        "pool_sizes": " ".join(f"d={d}:{k}" for d, k in inputs.pool_sizes.items()),
        "accept_share": m.count(kind="accepted") / total if total else 0.0,
        "reject_share": m.count(kind="rejected") / total if total else 0.0,
    }


def end_to_end_extra(m) -> dict:
    return {"ops_per_s": (m.throughput(scaled=True), "operations/s")}


def install_trace(tracer, tk) -> None:
    tracer.wrap(tk.twisting, "direct_ok", "twisting.direct_ok")
    tracer.wrap(tk.twisting, "phi_hat", "twisting.phi_hat")
    tracer.wrap(tk.twisting, "certify", "twisting.certify")
    tracer.wrap(tk.extension, "certify", "twisting.certify")
    tracer.wrap(tk.extension, "direct_ok", "twisting.direct_ok")
    tracer.wrap(tk.basischange, "certify", "twisting.certify")
    tracer.wrap(tk.basischange, "mat_inverse", "linalg.mat_inverse")
    tracer.wrap(tk.basischange, "make_morphism", "basischange.make_morphism")
    tracer.wrap(tk.linalg, "algmat_mul", "linalg.algmat_mul")


def layer_metrics(tracer, m) -> dict:
    out = {}

    def mean(name, kind=None, scale=1e6):
        count = m.count(True, name, kind)
        return m.ns(True, name, kind) / count / scale if count else None

    out["extension.direct_sum_ms"] = (mean("extension.direct_sum"), "ms")
    out["extension.check_extension_ms"] = (mean("extension.check_extension", "accepted"), "ms")
    out["extension.check_extension_staged_ms"] = (mean("extension.check_extension_staged"), "ms")
    out["extension.lemma_blocks_ms"] = (mean("extension.lemma_blocks"), "ms")
    out["extension.remark_delta_ms"] = (mean("extension.remark_delta"), "ms")
    out["basischange.rebase_ms"] = (mean("basischange.rebase"), "ms")
    out["basischange.induced_morphism_ms"] = (mean("basischange.induced_morphism"), "ms")
    out["catalog.conditions_ms"] = (mean("catalog.conditions"), "ms")
    out["algebra.validate_us"] = (mean("algebra.validate", scale=1e3), "us")
    calls, total, _ = tracer.total("linalg.algmat_mul")
    out["linalg.algmat_mul_us"] = (total / calls / 1e3 if calls else None, "us")
    calls, total, _ = tracer.total("linalg.mat_inverse")
    out["linalg.mat_inverse_us"] = (total / calls / 1e3 if calls else None, "us")
    ops = m.count(traced=True)
    out["report.failures_per_op"] = (m.sum("failures", traced=True) / ops if ops else None, "count")
    return out
