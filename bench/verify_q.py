"""verify-q: "is my map a twisting map?" over the rationals, one request at a time.

A request is a candidate JSON file.  The client runs ``twistkit
check-twisting --checker all`` through ``twistkit.cli.main``; when the
candidate is accepted it parses the file, certifies it, builds the twisted
product, verifies the faithful representation and writes the result as
canonical JSON.  Candidates come from the catalog families and flips with
nd = dim A * dim B in {4, 6, 8, 9}: some as built (integral entries), some
rebased by a seeded rational change of carrier basis (non-integral entries),
and some perturbed in one entry so that they are not twisting maps.  The
pass template fixes how many requests of each size, family and kind a pass
holds, so the work mix does not depend on the seed; the seed picks the
algebras, endomorphisms, basis changes and perturbations, afresh for each of
``PASSES`` passes (the stream then repeats).
"""

from __future__ import annotations

import hashlib
import json
import random
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

import gen
import numpy as np
from harness import Op

from twistkit import cli, serialize, twisting

DEFAULT_SEED = 0
PASSES = 8
Q = None

#: One pass: (d, n, family, kind) per request, with nd = d * n.  Kinds:
#: "integral" and "rational" are twisting maps (as built, and rebased),
#: "perturbed-integral" and "perturbed-rational" are not.  The sizes are
#: stratified so that the median falls inside the nd = 6 group and the 80th
#: percentile inside the nd = 8 group, whatever the seed.
TEMPLATE = [
    (2, 2, "ncd", "integral"), (2, 2, "qdup", "rational"), (2, 2, "kn", "integral"),
    (2, 2, "flip", "rational"), (2, 2, "trunc", "perturbed-integral"),
    (2, 2, "ncd", "perturbed-rational"),
    (2, 3, "trunc", "integral"), (3, 2, "kn", "integral"), (3, 2, "ncd", "rational"),
    (2, 3, "flip", "rational"), (3, 2, "qdup", "integral"), (2, 3, "flip", "perturbed-integral"),
    (3, 2, "trunc", "perturbed-rational"), (3, 2, "flip", "perturbed-integral"),
    (4, 2, "ncd", "integral"), (2, 4, "trunc", "rational"), (4, 2, "kn", "perturbed-rational"),
    (2, 4, "flip", "perturbed-integral"),
    (3, 3, "trunc", "rational"), (3, 3, "flip", "perturbed-integral"),
]

#: Tail latency percentile (a 40 s run holds about 170 requests).
TAIL_PERCENTILE = 80.0


@dataclass
class Request:
    index: int
    path: str
    nd: int
    kind: str
    family: str
    expected: bool
    integral: bool


@dataclass
class Inputs:
    workdir: Path
    requests: list[Request]
    pinned_digests: list[str] | None
    first_digests: dict[int, str] = field(default_factory=dict)


def _base(rng: random.Random, d: int, n: int, family: str) -> dict:
    A = gen.kn(d, Q)
    f, _ = gen.idempotent_endo(rng, d, Q)
    if family == "flip":
        A = rng.choice([A, gen.truncated(d, Q)])
        carriers = [gen.kn(n, Q), gen.truncated(n, Q)]
        if n == 2:
            carriers += [gen.duplicate(Q), gen.quadratic(rng.randint(-3, 3), rng.randint(-3, 3), Q)]
        return gen.flip(A, rng.choice(carriers), Q)
    if family == "ncd":
        zero = [[gen.norm(0, Q)] * d for _ in range(d)]
        delta = rng.choice([zero, gen.matsub(gen.identity(d, Q), f, Q)])
        return gen.ncd(A, f, delta, Q)
    if family == "qdup":
        return gen.qdup(A, rng.randint(-3, 3), rng.randint(-3, 3), f, Q)
    if family == "kn":
        return gen.kn2(A, f, Q)
    return gen.trunc(A, n, gen.any_endo(rng, d, Q), Q)


def _rational(rng: random.Random, cand: dict) -> dict:
    n = len(cand["B"]["unit"])
    p = gen.invertible(rng, n, Q, scales=(2, 3, -2, -3))
    return gen.rebase(cand, p, Q)


def make_inputs(seed: int, workdir: Path, pinned: dict) -> Inputs:
    rng = random.Random(f"verify-q/{seed}")
    requests = []
    for k, (d, n, family, kind) in enumerate(TEMPLATE * PASSES):
        cand = _base(rng, d, n, family)
        if kind.endswith("rational"):
            cand = _rational(rng, cand)
        if kind.startswith("perturbed"):
            cand = gen.perturb(cand, rng, Q)
        path = workdir / f"verify-{k}.json"
        path.write_text(json.dumps(gen.candidate_json(cand, Q), sort_keys=True), encoding="utf-8")
        requests.append(
            Request(k, str(path), d * n, kind, family, not kind.startswith("perturbed"),
                    gen.is_integral(cand))
        )
    digests = None
    if seed == DEFAULT_SEED and "verify_q" in pinned:
        digests = list(pinned["verify_q"]["digests"])
    return Inputs(workdir, requests, digests)


def request_op(inputs: Inputs, req: Request) -> Op:
    out_check = inputs.workdir / f"verify-{req.index}.check.json"
    out_emit = inputs.workdir / f"verify-{req.index}.out.json"

    def run():
        code = cli.main(["check-twisting", req.path, "--checker", "all", "--out", str(out_check)])
        check_bytes = out_check.read_bytes() if code in (0, 1) else b""
        emit_bytes = b""
        if code == 0:
            text = Path(req.path).read_text(encoding="utf-8")
            candidate = twisting.certify(serialize.candidate_from_json(serialize.loads(text)))
            product = twisting.build_twisted_product(candidate)
            faithful = twisting.verify_faithful(candidate)
            payload = {
                "faithful": serialize.report_to_json(faithful),
                "product": serialize.algebra_to_json(product.algebra),
                "verified": candidate.verified,
            }
            emit = serialize.dumps(payload)
            out_emit.write_text(emit, encoding="utf-8")
            emit_bytes = emit.encode("utf-8")
        return {"code": code, "check": check_bytes, "emit": emit_bytes}

    def check(out):
        if out["code"] not in (0, 1):
            return f"check-twisting exit {out['code']}"
        report = json.loads(out["check"])
        routes = {name: report["reports"][name]["ok"] for name in ("direct", "rep", "oracle")}
        out["failures"] = sum(len(r["failures"]) for r in report["reports"].values())
        if req.expected:
            if out["code"] != 0 or not report["ok"]:
                return f"twisting map rejected ({req.family}, nd={req.nd})"
            emit = json.loads(out["emit"])
            if not (emit["verified"] and emit["faithful"]["ok"] and emit["product"]["dim"] == req.nd):
                return f"product or faithful form wrong ({req.family}, nd={req.nd})"
            out["failures"] += len(emit["faithful"]["failures"])
        elif out["code"] != 1 or any(routes.values()):
            return f"perturbed candidate not rejected by every route: {routes}"
        digest = hashlib.sha256(out.pop("check") + b"\0" + out.pop("emit")).hexdigest()
        out["digest"] = digest
        if inputs.first_digests.setdefault(req.index, digest) != digest:
            return "output bytes differ from the first pass"
        if inputs.pinned_digests is not None and inputs.pinned_digests[req.index] != digest:
            return f"output digest of request {req.index} differs from the pinned one"
        return None

    kind = "accepted" if req.expected else "rejected"
    return Op(name="client.request", items=1, run=run, check=check, kind=kind,
              info=lambda out: {"failures": out["failures"]})


def pass_ops(inputs: Inputs, r: int) -> list[Op]:
    size = len(TEMPLATE)
    start = (r % PASSES) * size
    return [request_op(inputs, req) for req in inputs.requests[start:start + size]]


def warm_up(inputs: Inputs) -> None:
    req = min(inputs.requests, key=lambda q: (q.nd, not q.expected))
    op = request_op(inputs, req)
    inputs.first_digests.clear()
    error = op.check(op.run())
    inputs.first_digests.clear()
    if error:
        raise RuntimeError(f"warm-up failed: {error}")


def input_properties(inputs: Inputs, m) -> dict:
    reqs = inputs.requests
    hist = Counter(q.nd for q in reqs)
    return {
        "nd_histogram": " ".join(f"{nd}:{hist[nd]}" for nd in sorted(hist)),
        "integral_share": sum(q.integral for q in reqs) / len(reqs),
        "accepted_share": sum(q.expected for q in reqs) / len(reqs),
        "families": " ".join(f"{k}:{v}" for k, v in sorted(Counter(q.family for q in reqs).items())),
    }


def end_to_end_extra(m) -> dict:
    return {"requests_per_s": (m.throughput(scaled=True), "requests/s")}


def install_trace(tracer, tk) -> None:
    tw, ser = tk.twisting, tk.serialize
    tracer.wrap(tk.cli, "main", "cli.main")
    checks = getattr(tk.cli, "_CHECKS", {})
    for key in ("direct", "rho", "phi", "rep", "oracle"):
        tracer.wrap(checks, key, f"twisting.q.{key}")
    tracer.wrap(tw, "check_conditions_direct", "twisting.q.direct")
    tracer.wrap(tw, "certify", "twisting.certify")
    tracer.wrap(tw, "build_twisted_product", "twisting.q.product")
    tracer.wrap(tw, "verify_faithful", "twisting.q.faithful")
    tracer.wrap(tw, "kernel_basis", "linalg.kernel_basis")
    for fn in ("loads", "candidate_from_json"):
        tracer.wrap(ser, fn, f"serialize.parse.{fn}")
    for fn in ("dumps", "report_to_json", "algebra_to_json"):
        tracer.wrap(ser, fn, f"serialize.emit.{fn}")


def _mean_ms(tracer, name: str):
    calls, total, _ = tracer.total(name)
    return total / calls / 1e6 if calls else None


def layer_metrics(tracer, m) -> dict:
    requests = m.count(traced=True)
    out = {}
    for key in ("direct", "rep", "oracle", "product", "faithful"):
        out[f"twisting.q.{key}_ms"] = (_mean_ms(tracer, f"twisting.q.{key}"), "ms")
    for kind in ("accepted", "rejected"):
        lat = m.latencies_ms(kind, traced=True)
        out[f"twisting.q.{kind}_p50_ms"] = (float(np.median(lat)) if len(lat) else None, "ms")
    out["linalg.kernel_basis_ms"] = (_mean_ms(tracer, "linalg.kernel_basis"), "ms")
    for stage in ("parse", "emit"):
        total = sum(t for (_, nm), (_, t, _) in tracer.agg.items() if nm.startswith(f"serialize.{stage}."))
        out[f"serialize.{stage}_ms"] = (total / requests / 1e6 if requests else None, "ms")
    _, _, cli_self = tracer.total("cli.main")
    out["cli.overhead_ms"] = (cli_self / requests / 1e6 if requests else None, "ms")
    out["report.failures_per_op"] = (
        m.sum("failures", traced=True) / requests if requests else None, "count")
    return out
