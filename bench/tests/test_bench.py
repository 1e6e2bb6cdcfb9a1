"""Fast checks of the benchmark itself:  python3 -m pytest bench/tests -q"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import construct_fp
import harness
import run
import sweep_f2
import verify_q
from spans import contraction_mults

PINNED = json.loads((run.HERE / "pinned.json").read_text(encoding="utf-8"))
BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


@pytest.fixture
def small(monkeypatch):
    """Shrink the passes so a traced first pass takes a moment."""
    monkeypatch.setattr(sweep_f2, "SLICE", 64)
    monkeypatch.setattr(sweep_f2, "SLICES", sweep_f2.TOTAL // 64)
    monkeypatch.setattr(verify_q, "TEMPLATE", verify_q.TEMPLATE[:3])
    monkeypatch.setattr(verify_q, "PASSES", 2)


def _result(capsys, argv):
    assert run.main(argv) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    return lines, json.loads(lines[-1])


@pytest.mark.parametrize("workload", sorted(run.WORKLOADS))
@pytest.mark.parametrize("trace", [0, 1])
def test_every_metric_printed_with_unit(small, capsys, workload, trace):
    lines, result = _result(
        capsys, ["--workload", workload, "--seed", "3", "--seconds", "0.05", "--trace", str(trace)]
    )
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in declared} == {
        name: v["unit"] for name, v in result["metrics"].items()
    }
    for v in result["metrics"].values():
        assert isinstance(v["value"], (int, float))
    printed = {line.split()[0]: line.split()[2] for line in lines[:-1]
               if not line.startswith("#") and len(line.split()) >= 3}
    for name in result["metrics"]:
        assert name in printed
    if not trace:
        extra = {"sweep-f2": ["enumerate_cps", "crossval_cps"],
                 "verify-q": ["requests_per_s"], "construct-fp": ["ops_per_s"]}[workload]
        for name in ["failed_share", *extra]:
            assert printed[name]


def _one_pass(wl, inputs):
    m = harness.Measurement()
    for op in wl.pass_ops(inputs, 0):
        m.add(harness.execute(op))
    return m


def _failed_share(workload, wl, m):
    _, lines = run.end_to_end(workload, wl, m, 0.0, 0.0)
    line = next(x for x in lines if x.startswith("failed_share "))
    return float(line.split()[1])


def test_wrong_pinned_sweep_list_is_counted(small, tmp_path):
    inputs = sweep_f2.make_inputs(5, tmp_path, PINNED)
    a, b = inputs.order[0]
    lo = inputs.offsets[0] * sweep_f2.SLICE
    inputs.expected[sweep_f2.space_key(a, b)].append(lo)  # index lo is not accepted
    inputs.expected[sweep_f2.space_key(a, b)].sort()
    m = _one_pass(sweep_f2, inputs)
    assert m.failed == 1
    assert _failed_share("sweep-f2", sweep_f2, m) > 0


def test_wrong_expected_verdict_is_counted(small, tmp_path):
    inputs = verify_q.make_inputs(5, tmp_path, PINNED)
    inputs.requests[0].expected = not inputs.requests[0].expected
    m = _one_pass(verify_q, inputs)
    assert m.failed == 1
    assert _failed_share("verify-q", verify_q, m) == pytest.approx(1 / m.attempted)


def test_wrong_construction_answer_is_counted(tmp_path):
    inputs = construct_fp.make_inputs(5, tmp_path, PINNED)
    task = inputs.tasks[2][0]
    task.perturbed = task.theta.candidate  # a twisting map where a rejection is expected
    m = _one_pass(construct_fp, inputs)
    assert m.failed >= 1
    assert _failed_share("construct-fp", construct_fp, m) > 0


def _fingerprint(workload, seed, tmp_path):
    tmp_path.mkdir(exist_ok=True)
    if workload == "sweep-f2":
        inp = sweep_f2.make_inputs(seed, tmp_path, PINNED)
        files = [Path(inp.files[k]).read_text() for k in sorted(inp.files)]
        return json.dumps([inp.order, inp.offsets, files])
    if workload == "verify-q":
        inp = verify_q.make_inputs(seed, tmp_path, PINNED)
        return json.dumps([Path(r.path).read_text() for r in inp.requests])
    inp = construct_fp.make_inputs(seed, tmp_path, PINNED)
    return json.dumps([
        [inp.primes[d], [[t.theta.data["gamma"], t.ups.data["gamma"], t.zeta,
                          t.perturbed.family.gamma.tolist(), t.x, t.y] for t in inp.tasks[d]]]
        for d in construct_fp.DIMS
    ])


@pytest.mark.parametrize("workload", sorted(run.WORKLOADS))
def test_inputs_follow_the_seed(workload, tmp_path):
    first = _fingerprint(workload, 11, tmp_path / "a")
    assert _fingerprint(workload, 11, tmp_path / "b") == first
    assert _fingerprint(workload, 12, tmp_path / "c") != first


def test_pinned_digests_match_default_seed(tmp_path):
    inputs = verify_q.make_inputs(verify_q.DEFAULT_SEED, tmp_path, PINNED)
    assert inputs.pinned_digests is not None
    ops = verify_q.pass_ops(inputs, 0)[:4]
    for op in ops:
        assert op.check(op.run()) is None


@pytest.mark.parametrize("xs, ys, axes", [
    ((2, 3, 4), (4, 5), ([2], [0])),
    ((2, 3, 4), (3, 4, 6), ([1, 2], [0, 1])),
    ((3,), (2, 2), 0),
    ((2, 3), (3, 2), 1),
])
def test_contraction_mults_counts_products(xs, ys, axes):
    x, y = np.ones(xs, dtype=np.int64), np.ones(ys, dtype=np.int64)
    out = np.tensordot(x, y, axes=axes)
    inner = 1 if out.size == 0 else int(out.reshape(-1)[0])  # each entry sums `inner` products
    assert contraction_mults(x, y, axes) == out.size * inner


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copytree(run.HERE, tmp_path / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "sweep-f2", "--seed", "1", "--seconds", "1"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
