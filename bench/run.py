#!/usr/bin/env python3
"""twistkit benchmark.

    python3 bench/run.py --workload {sweep-f2,verify-q,construct-fp}
                         [--seed N] [--seconds S] [--trace 0|1]

Builds the seeded inputs of one workload, runs it as a closed loop (one
client, one request at a time) in whole passes within S seconds against the
package in ``src/`` of the same checkout, and checks every output.
Human-readable lines describe the environment, the inputs and every metric
with its unit; the last line of standard output is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``.  ``--trace 0`` reports the end-to-end metrics;
``--trace 1`` runs traced, reports the per-layer metrics and writes the spans
to ``bench/out/``.  The exit code is 0 whenever a result was printed, and
nonzero when the package cannot be imported.
"""

from __future__ import annotations

import os
import sys

# Pin the environment before numpy is imported.  The GIL-bound enumeration
# thread pool is left at its default so that the pool's presence or removal
# does not change what is measured; math libraries get at most nproc threads.
os.environ.pop("TWISTKIT_THREADS", None)
NPROC = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else (os.cpu_count() or 1)
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
    _cur = os.environ.get(_var, "")
    os.environ[_var] = str(min(int(_cur), NPROC) if _cur.isdigit() and int(_cur) > 0 else NPROC)

import argparse  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

WORKLOADS = {"sweep-f2": "sweep_f2", "verify-q": "verify_q", "construct-fp": "construct_fp"}

#: Printed in the JSON result: end-to-end metrics with --trace 0, per-layer
#: metrics with --trace 1.  Units are repeated in BENCHMARK.json.
END_TO_END = {
    "throughput_per_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_tail_ms": "ms",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}
PER_LAYER = {
    "fields.contraction_share": "share",
    "fields.ns_per_mult": "ns",
    "fields.mults_per_op": "count",
    "fields.contractions_per_op": "count",
    "trace.overhead_share": "share",
}

#: Set-up (input generation and warm-up) repeats; setup_s is their median
#: plus the one-off import time, at the speed probe's reference speed.
SETUP_REPEATS = 3

ITEM_UNITS = {"sweep-f2": "candidates/s", "verify-q": "requests/s", "construct-fp": "operations/s"}


def out_dir() -> Path:
    path = HERE / "out"
    path.mkdir(exist_ok=True)
    return path


def import_twistkit():
    """Import the package from ``src/`` of this checkout, never from
    anywhere else."""
    if not (SRC / "twistkit" / "__init__.py").is_file():
        raise SystemExit(f"error: no twistkit package under {SRC}")
    sys.path.insert(0, str(SRC))
    import twistkit
    from twistkit import algebra, basischange, catalog, cli, extension, fields  # noqa: F401
    from twistkit import linalg, report, search, serialize, twisting  # noqa: F401

    if Path(twistkit.__file__).resolve().parent != (SRC / "twistkit").resolve():
        raise SystemExit(f"error: twistkit imported from {twistkit.__file__}, not {SRC}")
    return twistkit


def environment(seed: int) -> dict:
    cpu = platform.processor() or platform.machine()
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    import numpy

    return {
        "nproc": NPROC,
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "seed": seed,
        "TWISTKIT_THREADS": os.environ.get("TWISTKIT_THREADS", "unset"),
        "OMP_NUM_THREADS": os.environ["OMP_NUM_THREADS"],
    }


def _fmt(value) -> str:
    return "n/a" if value is None else (f"{value:.6g}" if isinstance(value, float) else str(value))


def end_to_end(workload: str, wl, m, setup_s: float, setup_wall_s: float) -> tuple[dict, list[str]]:
    """Times at the reference speed of the speed probe (see harness), with
    the wall-clock values alongside."""
    import numpy as np
    from harness import PROBE_REF_NS, tail

    lat = m.latencies_ms(scaled=True)
    wall = m.latencies_ms()
    q, tail_ms = tail(lat, wl.TAIL_PERCENTILE)
    metrics = {
        "throughput_per_s": m.throughput(scaled=True),
        "latency_p50_ms": float(np.median(lat)),
        "latency_tail_ms": tail_ms,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "setup_s": setup_s,
    }
    probes = m.probe.samples
    lines = [
        f"throughput_per_s {_fmt(metrics['throughput_per_s'])} {ITEM_UNITS[workload]} "
        f"(wall clock {_fmt(m.throughput())})",
        f"latency_p50_ms {_fmt(metrics['latency_p50_ms'])} ms (n={len(lat)}; "
        f"wall clock {_fmt(float(np.median(wall)))})",
        f"latency_tail_ms {_fmt(tail_ms)} ms (p{q:g}, n={len(lat)}, "
        f"{int((lat > tail_ms).sum())} beyond; wall clock {_fmt(tail(wall, wl.TAIL_PERCENTILE)[1])})",
        f"speed_probe_ms {_fmt(statistics.median(probes) / 1e6 if probes else None)} ms "
        f"(median of {len(probes)}; reference {PROBE_REF_NS / 1e6:g})",
        f"peak_rss_mb {_fmt(metrics['peak_rss_mb'])} MB",
        f"setup_s {_fmt(setup_s)} s (import + median of {SETUP_REPEATS} input generations and "
        f"warm-ups; wall clock {_fmt(setup_wall_s)})",
        f"failed_share {_fmt(m.failed / m.attempted)} failed/attempted ({m.failed}/{m.attempted})",
    ]
    lines += [f"{k} {_fmt(v)} {u}" for k, (v, u) in wl.end_to_end_extra(m).items()]
    return metrics, lines


def per_layer(wl, tracer, m, first_pass_ops: int) -> tuple[dict, list[str]]:
    traced_ops = m.count(traced=True)
    op_ns = m.ns(traced=True)
    counts = tracer.counts
    first = tracer.first_pass_counts or {}
    calls = sum(c[0] for c in counts.values())
    mults = sum(c[1] for c in counts.values())
    ns = sum(c[2] for c in counts.values())
    metrics = {
        "fields.contraction_share": ns / op_ns if op_ns else None,
        "fields.ns_per_mult": ns / mults if mults else None,
        "fields.mults_per_op": sum(c[1] for c in first.values()) / first_pass_ops,
        "fields.contractions_per_op": sum(c[0] for c in first.values()) / first_pass_ops,
        "trace.overhead_share": m.overhead_share,
    }
    lines = [f"{k} {_fmt(v)} {PER_LAYER[k]}" for k, v in metrics.items()]
    lines.append(f"fields.calls {calls} contractions over {traced_ops} traced operations")
    for kind, (c, mu, t) in sorted(counts.items()):
        fc, fm, _ = first.get(kind, (0, 0, 0))
        lines += [
            f"fields.{kind}.contractions_per_op {_fmt(fc / first_pass_ops)} count (first pass)",
            f"fields.{kind}.mults_per_op {_fmt(fm / first_pass_ops)} count (first pass)",
            f"fields.{kind}.contraction_share {_fmt(t / op_ns if op_ns else None)} share",
            f"fields.{kind}.ns_per_mult {_fmt(t / mu if mu else None)} ns",
        ]
    for name, (value, unit) in wl.layer_metrics(tracer, m).items():
        lines.append(f"{name} {_fmt(value)} {unit}")
    for layer, self_ns in sorted(tracer.layer_self_ns().items(), key=lambda kv: -kv[1]):
        lines.append(
            f"self[{layer}] {_fmt(self_ns / traced_ops / 1e6)} ms/op "
            f"{_fmt(self_ns / op_ns if op_ns else None)} share"
        )
    return metrics, lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    started = perf_counter()
    tk = import_twistkit()
    import_s = perf_counter() - started

    import harness
    from spans import Tracer

    wl = importlib.import_module(WORKLOADS[args.workload])
    pinned = json.loads((HERE / "pinned.json").read_text(encoding="utf-8"))

    print(f"# twistkit benchmark: workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    print("# environment: " + " ".join(f"{k}={v}" for k, v in environment(args.seed).items()))

    with tempfile.TemporaryDirectory(dir=out_dir(), prefix="work-") as tmp:
        probe = harness.SpeedProbe()
        probe()
        probe()
        setups = []
        for _ in range(SETUP_REPEATS):
            t0 = perf_counter()
            inputs = wl.make_inputs(args.seed, Path(tmp), pinned)
            wl.warm_up(inputs)
            setups.append(perf_counter() - t0)
            probe()
            probe()
        setup_wall_s = import_s + statistics.median(setups)
        setup_s = setup_wall_s * harness.PROBE_REF_NS / statistics.median(probe.samples)

        tracer = None
        if args.trace:
            tracer = Tracer()
            tracer.wrap_tensordot(tk.fields.Field)
            wl.install_trace(tracer, tk)
        m = harness.measure(wl.pass_ops, inputs, args.seconds, tracer)

    print("# inputs: " + " ".join(f"{k}={_fmt(v)}" for k, v in wl.input_properties(inputs, m).items()))
    print(f"# passes completed: {m.passes_done}")
    for error in m.error_list[:5]:
        print(f"# FAILED {error}")

    if args.trace:
        first_pass_ops = len(wl.pass_ops(inputs, 0))
        metrics, lines = per_layer(wl, tracer, m, first_pass_ops)
        trace_path = out_dir() / f"trace-{args.workload}-seed{args.seed}.json"
        tracer.dump(trace_path)
        lines.append(f"trace written to {trace_path.relative_to(ROOT)} "
                     f"({len(tracer.spans)} spans, {len(tracer.agg)} aggregates)")
        units = PER_LAYER
    else:
        metrics, lines = end_to_end(args.workload, wl, m, setup_s, setup_wall_s)
        units = END_TO_END
    for line in lines:
        print(line)

    result = {
        "correct": m.failed == 0 and m.attempted > 0,
        "attempted": m.attempted,
        "failed": m.failed,
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
    }
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
