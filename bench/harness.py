"""Closed-loop runner shared by the workloads: one client, one operation at a
time, for a fixed number of seconds, checking every output.

A workload supplies ``pass_ops(inputs, r)``: the list of operations of pass
r.  Whole passes repeat while time is left, so a run always measures complete
passes, and per-operation counts over the first pass cover the same
operations on every run of a seed.

Operations are also timed against a speed probe: a fixed computation,
independent of twistkit, run between operations every ``PROBE_INTERVAL_S``.
On a host whose cores are shared, contention slows the probe and the program
alike, by up to a factor of 1.5 for seconds at a time.  An operation's time
multiplied by ``PROBE_REF_NS`` / (median of the probes around it) is its
time at the reference speed; the end-to-end times are reported that way, and
the wall-clock values are printed beside them.
"""

from __future__ import annotations

from array import array
from collections import defaultdict
from dataclasses import dataclass
from fractions import Fraction
from time import perf_counter, perf_counter_ns
from typing import Callable

import numpy as np

PROBE_INTERVAL_S = 0.25
#: Probe time that defines the reference speed; the probe's median ran 1.4 to
#: 1.6 ms on the machine of the first trajectory point (2 cores, Intel Xeon,
#: Python 3.11.7).
PROBE_REF_NS = 1_600_000

#: Candidate percentiles for the tail latency, highest first.
TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 80.0, 75.0, 50.0)


@dataclass
class Op:
    """One request: ``run`` calls the program, ``check`` returns an error
    message for a wrong output (or None), ``info`` extracts the numbers the
    report needs from a checked output."""

    name: str
    items: int
    run: Callable[[], object]
    check: Callable[[object], str | None]
    kind: str = ""
    info: Callable[[object], dict] = lambda output: {}


@dataclass
class Record:
    name: str
    kind: str
    items: int
    ns: int
    error: str | None
    info: dict
    traced: bool = False


class SpeedProbe:
    """A fixed mix of the work twistkit does: an exact-rational object-array
    contraction, small int64 contractions reduced mod p, and a bytecode loop."""

    def __init__(self):
        self.frac = np.empty((3, 3, 3), dtype=object)
        for i, j, k in np.ndindex(3, 3, 3):
            self.frac[i, j, k] = Fraction((5 * i + 3 * j + k) % 7 - 3, (i + j + k) % 3 + 1)
        self.ints = np.arange(64, dtype=np.int64).reshape(4, 4, 4)
        self.samples = array("q")

    def __call__(self) -> None:
        start = perf_counter_ns()
        np.tensordot(self.frac, self.frac, axes=([2], [0]))
        for _ in range(20):
            np.tensordot(self.ints, self.ints, axes=([2], [0])) % 7
        acc = 0
        for i in range(2000):
            acc += i * i % 7
        self.samples.append(perf_counter_ns() - start)


class Measurement:
    """Aggregates of the executed operations.  Outputs are not kept, so the
    memory a run holds does not grow with the number of operations beyond
    one latency per operation."""

    def __init__(self):
        self.latencies: dict[tuple[str, bool], array] = defaultdict(lambda: array("q"))
        self.probe_at: dict[tuple[str, bool], array] = defaultdict(lambda: array("q"))
        self.probe = SpeedProbe()
        self.stats: dict[tuple[str, str, bool], list[int]] = defaultdict(lambda: [0, 0, 0])
        self.sums: dict[tuple[str, bool], float] = defaultdict(float)
        self.error_list: list[str] = []
        self.passes_done = 0
        self.overhead_share: float | None = None

    def add(self, rec: Record) -> None:
        self.latencies[(rec.kind, rec.traced)].append(rec.ns)
        self.probe_at[(rec.kind, rec.traced)].append(len(self.probe.samples) - 1)
        entry = self.stats[(rec.name, rec.kind, rec.traced)]
        entry[0] += 1
        entry[1] += rec.items
        entry[2] += rec.ns
        for key, value in rec.info.items():
            self.sums[(key, rec.traced)] += value
        if rec.error is not None:
            self.error_list.append(f"{rec.name}: {rec.error}")

    def _select(self, traced, name=None, kind=None):
        return [v for (nm, kd, tr), v in self.stats.items()
                if (traced is None or tr == traced) and name in (None, nm) and kind in (None, kd)]

    def count(self, traced=None, name=None, kind=None) -> int:
        return sum(v[0] for v in self._select(traced, name, kind))

    def items(self, traced=None) -> int:
        return sum(v[1] for v in self._select(traced))

    def ns(self, traced=None, name=None, kind=None) -> int:
        return sum(v[2] for v in self._select(traced, name, kind))

    def sum(self, key: str, traced=None) -> float:
        return sum(v for (k, tr), v in self.sums.items() if k == key and traced in (None, tr))

    @property
    def attempted(self) -> int:
        return self.count()

    @property
    def failed(self) -> int:
        return len(self.error_list)

    def _factors(self) -> np.ndarray:
        """Reference-speed factor for an operation run after probe j: the
        median of the six probes around it, so one disturbed probe does not
        move the factor."""
        samples = self.probe.samples
        return np.array([PROBE_REF_NS / np.median(samples[max(j - 2, 0):j + 4])
                         for j in range(len(samples))] or [1.0])

    def latencies_ms(self, kind: str | None = None, traced=None, scaled: bool = False) -> np.ndarray:
        factors = self._factors() if scaled else None
        parts = [np.zeros(0)]
        for key, arr in self.latencies.items():
            if kind in (None, key[0]) and traced in (None, key[1]):
                ms = np.frombuffer(arr, dtype=np.int64) / 1e6
                if scaled:
                    ms = ms * factors[np.maximum(np.frombuffer(self.probe_at[key], dtype=np.int64), 0)]
                parts.append(ms)
        return np.concatenate(parts)

    def throughput(self, scaled: bool = False) -> float:
        seconds = self.latencies_ms(scaled=scaled).sum() / 1e3 if scaled else self.ns() / 1e9
        return self.items() / seconds


def tail(latencies_ms: np.ndarray, cap: float = TAIL_LADDER[0]) -> tuple[float, float]:
    """(percentile, value): the highest ladder percentile up to ``cap`` that
    leaves at least ten samples beyond it.  A workload sets ``cap`` so that a
    run of the benchmark's length clears it with margin; then the reported
    percentile does not flip between runs whose sample counts differ a little."""
    n = len(latencies_ms)
    for q in TAIL_LADDER:
        if q <= cap and n * (1 - q / 100) >= 10:
            return q, float(np.percentile(latencies_ms, q))
    return 50.0, float(np.percentile(latencies_ms, 50.0))


def execute(op: Op, tracer=None, request=None) -> Record:
    start = perf_counter_ns()
    try:
        if tracer is None:
            output = op.run()
        else:
            with tracer.op(request, op.name):
                output = op.run()
        error = None
    except Exception as exc:  # an exception is a failed operation, not a crash
        output, error = None, f"{type(exc).__name__}: {exc}"
    ns = perf_counter_ns() - start
    info = {}
    if error is None:
        try:
            error = op.check(output)
            if error is None:
                info = op.info(output)
        except Exception as exc:
            error = f"check raised {type(exc).__name__}: {exc}"
    return Record(op.name, op.kind, op.items, ns, error, info, tracer is not None)


def measure(pass_ops, inputs, seconds: float, tracer=None) -> Measurement:
    """Run whole passes within ``seconds``: a pass starts only when the
    previous pass's duration says it will end in time (the first pass always
    runs), so every run measures the same mix of operations.  With a tracer,
    each operation of the first pass runs once untraced and once traced
    (alternating which goes first) to measure the tracing overhead; the rest
    runs traced."""
    result = Measurement()
    probe = result.probe
    start = perf_counter()
    probe()
    last_probe = perf_counter()
    r = 0
    request = 0
    plain_ns = traced_ns = 0
    while True:
        pass_start = perf_counter()
        for k, op in enumerate(pass_ops(inputs, r)):
            if perf_counter() - last_probe >= PROBE_INTERVAL_S:
                probe()
                last_probe = perf_counter()
            if tracer is None:
                result.add(execute(op))
            elif r > 0:
                with tracer.installed():
                    result.add(execute(op, tracer, request))
            else:
                for traced in ((False, True) if k % 2 == 0 else (True, False)):
                    if traced:
                        with tracer.installed():
                            rec = execute(op, tracer, request)
                        traced_ns += rec.ns
                    else:
                        rec = execute(op)
                        plain_ns += rec.ns
                    result.add(rec)
            request += 1
        if tracer is not None and r == 0:
            tracer.mark_first_pass()
            result.overhead_share = traced_ns / plain_ns - 1 if plain_ns else None
        r += 1
        result.passes_done = r
        now = perf_counter()
        if now + (now - pass_start) > start + seconds:
            probe()
            return result
