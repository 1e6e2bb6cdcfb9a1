"""sweep-f2: exhaustive classification of gamma grids over F_2 through the CLI.

Each space holds the 65536 grids for dim A = dim B = 2.  A and B range over
four presentations (K^2, the duplicate K[X]/(X^2 - X), K[Y]/(Y^2) and F_4 =
K[X]/(X^2 + X + 1)), so there are 16 spaces.  One operation classifies a
contiguous index slice of one space: ``twistkit enumerate --checker direct``
then ``twistkit cross-validate`` on the same range, both in-process through
``twistkit.cli.main``.  Every pass visits each of the 16 spaces once, in a
seeded order and at a seeded slice, so the work mix of a run does not depend
on the seed; over 32 passes every space is swept exhaustively.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter_ns

import gen
from harness import Op

from twistkit import cli

TOTAL = 1 << 16
SLICE = 2048
SLICES = TOTAL // SLICE
MOD = 2

PRESENTATIONS = {
    "K2": lambda: gen.kn(2, MOD),
    "dup": lambda: gen.duplicate(MOD),
    "trunc2": lambda: gen.truncated(2, MOD),
    "F4": lambda: gen.quadratic(1, 1, MOD),
}

#: Tail latency percentile (a 40 s run holds about 110 slices).
TAIL_PERCENTILE = 80.0


@dataclass
class Inputs:
    workdir: Path
    files: dict[str, str]
    order: list[tuple[str, str]]
    offsets: list[int]
    expected: dict[str, list[int]]


def space_key(a: str, b: str) -> str:
    return f"{a}/{b}"


def make_inputs(seed: int, workdir: Path, pinned: dict) -> Inputs:
    rng = random.Random(f"sweep-f2/{seed}")
    files = {}
    for name, build in PRESENTATIONS.items():
        path = workdir / f"sweep-{name}.json"
        path.write_text(json.dumps(gen.algebra_json(build(), MOD), sort_keys=True), encoding="utf-8")
        files[name] = str(path)
    order = [(a, b) for a in PRESENTATIONS for b in PRESENTATIONS]
    rng.shuffle(order)
    offsets = [rng.randrange(SLICES) for _ in order]
    expected = {key: list(pinned["sweep_f2"][key]) for key in pinned["sweep_f2"]}
    return Inputs(workdir, files, order, offsets, expected)


def _gamma_of_index(index: int) -> list[str]:
    return [str((index >> (15 - t)) & 1) for t in range(16)]


def slice_op(inputs: Inputs, a: str, b: str, lo: int, hi: int) -> Op:
    out_e = str(inputs.workdir / "sweep-enumerate.jsonl")
    out_c = str(inputs.workdir / "sweep-cross.json")
    common = ["--A", inputs.files[a], "--B", inputs.files[b], "--from", str(lo), "--to", str(hi)]

    def run():
        t0 = perf_counter_ns()
        code_e = cli.main(["enumerate", *common, "--checker", "direct", "--out", out_e])
        t1 = perf_counter_ns()
        code_c = cli.main(["cross-validate", *common, "--out", out_c])
        t2 = perf_counter_ns()
        text_e = Path(out_e).read_text(encoding="utf-8") if code_e == 0 else ""
        text_c = Path(out_c).read_text(encoding="utf-8") if code_c in (0, 1) else ""
        return {"code_e": code_e, "code_c": code_c, "text_e": text_e, "text_c": text_c,
                "enum_ns": t1 - t0, "cross_ns": t2 - t1}

    want = [i for i in inputs.expected[space_key(a, b)] if lo <= i < hi]

    def check(out):
        if out["code_e"] != 0:
            return f"enumerate exit {out['code_e']}"
        if out["code_c"] != 0:
            return f"cross-validate exit {out['code_c']}"
        if json.loads(out["text_c"]) != {"failures": [], "ok": True}:
            return "cross-validate report is not a pass"
        lines = [json.loads(line) for line in out["text_e"].splitlines()]
        got = [line["index"] for line in lines]
        if got != want:
            return f"accepted {got} != pinned {want} on {space_key(a, b)} [{lo}, {hi})"
        for line in lines:
            flat = [v for row in line["gamma"] for m in row for r in m for v in r]
            if flat != _gamma_of_index(line["index"]):
                return f"gamma of index {line['index']} does not decode"
        out["accepted"] = len(got)
        return None

    def info(out):
        return {"candidates": hi - lo, "accepted": out["accepted"],
                "enum_ns": out["enum_ns"], "cross_ns": out["cross_ns"]}

    return Op(name="sweep.slice", items=hi - lo, run=run, check=check, info=info)


def pass_ops(inputs: Inputs, r: int) -> list[Op]:
    ops = []
    for k, (a, b) in enumerate(inputs.order):
        lo = ((inputs.offsets[k] + r) % SLICES) * SLICE
        ops.append(slice_op(inputs, a, b, lo, lo + SLICE))
    return ops


def warm_up(inputs: Inputs) -> None:
    a, b = inputs.order[0]
    lo = inputs.offsets[0] * SLICE
    op = slice_op(inputs, a, b, lo, lo + 64)
    error = op.check(op.run())
    if error:
        raise RuntimeError(f"warm-up failed: {error}")


def input_properties(inputs: Inputs, m) -> dict:
    return {
        "spaces": len(inputs.order),
        "slice_candidates": SLICE,
        "candidates": m.items(),
        "accepted": int(m.sum("accepted")),
    }


def end_to_end_extra(m) -> dict:
    """The sweep's own rates: candidates per second of each CLI command, by
    the wall clock."""
    cand = m.sum("candidates")
    enum_ns, cross_ns = m.sum("enum_ns"), m.sum("cross_ns")
    return {
        "enumerate_cps": (cand / (enum_ns / 1e9), "candidates/s (wall clock)"),
        "crossval_cps": (cand / (cross_ns / 1e9), "candidates/s (wall clock)"),
    }


def install_trace(tracer, tk) -> None:
    search, serialize = tk.search, tk.serialize
    tracer.wrap(tk.cli, "main", "cli.main")
    tracer.wrap(search, "enumerate_space", "search.enumerate_space")
    tracer.wrap(search, "cross_validate", "search.cross_validate")
    tracer.wrap(search.SearchSpace, "family_at", "search.family_at", hot=True)
    for route in ("direct", "rep", "oracle"):
        tracer.wrap(search, f"{route}_ok", f"twisting.fp.{route}_ok", hot=True)
        tracer.wrap(getattr(search, "_CHECKERS", {}), route, f"twisting.fp.{route}_ok", hot=True)
    for fn in ("loads", "dumps", "algebra_from_json", "report_to_json", "array_to_json"):
        tracer.wrap(serialize, fn, f"serialize.{fn}")


def layer_metrics(tracer, m) -> dict:
    cand = m.sum("candidates", traced=True)
    out = {}
    calls, total, _ = tracer.total("search.family_at")
    out["search.decode_us"] = (total / calls / 1e3 if calls else None, "us")
    e_calls, e_total, _ = tracer.total("search.enumerate_space")
    c_calls, c_total, _ = tracer.total("search.cross_validate")
    per_space = TOTAL / cand if cand else 0
    out["search.enumerate_s"] = (e_total / 1e9 * per_space if e_calls else None, "s")
    out["search.cross_validate_s"] = (c_total / 1e9 * per_space if c_calls else None, "s")
    _, dec_in_enum, _ = tracer.total("search.family_at", "search.enumerate_space")
    _, ok_in_enum, _ = tracer.total("twisting.fp.direct_ok", "search.enumerate_space")
    out["search.loop_share"] = (
        (e_total - dec_in_enum - ok_in_enum) / e_total if e_total else None, "share")
    accepted = m.sum("accepted", traced=True)
    out["search.accept_ratio"] = (accepted / cand if cand else None, "share")
    for route in ("direct", "rep", "oracle"):
        calls, total, _ = tracer.total(f"twisting.fp.{route}_ok", "search.cross_validate")
        out[f"twisting.fp.{route}_ok_us"] = (total / calls / 1e3 if calls else None, "us")
    return out
