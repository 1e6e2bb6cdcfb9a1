"""In-memory spans and counters for the traced benchmark run.

The tracer wraps public twistkit callables from outside (module attributes and
class attributes are replaced while the tracer is installed and restored
afterwards); nothing inside the package changes.  Two kinds of wrapper exist:

* recorded calls keep one span each: name, start, end, parent span and
  request id;
* hot calls (per-candidate decoding and verdicts, ``Field.tensordot``) are
  folded into per-(parent, name) aggregates of calls, total and self time, so
  that a sweep of 65536 candidates does not hold millions of spans.

The self time of a call is its duration minus the durations of the calls
nested directly inside it.  ``Field.tensordot`` also counts the scalar
multiplies the contraction performs, computed from the operand shapes.
"""

from __future__ import annotations

import contextlib
import json
from collections import defaultdict
from math import prod
from time import perf_counter_ns

import numpy as np


def contraction_mults(x, y, axes) -> int:
    """Scalar multiplies of ``np.tensordot(x, y, axes)``: the product of all
    free and contracted extents."""
    xs, ys = np.shape(x), np.shape(y)
    if isinstance(axes, int):
        contracted = xs[len(xs) - axes:] if axes else ()
    else:
        ax = axes[0]
        ax = [ax] if isinstance(ax, int) else list(ax)
        contracted = [xs[a] for a in ax]
    inner = prod(contracted)
    return prod(xs) * prod(ys) // inner if inner else 0


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, start_ns, end_ns, parent_index, request]
        self.agg: dict[tuple[str, str], list[int]] = defaultdict(lambda: [0, 0, 0])
        self.counts: dict[str, list[int]] = defaultdict(lambda: [0, 0, 0])  # kind -> calls, mults, ns
        self.first_pass_counts: dict[str, list[int]] | None = None
        self.request = None
        self._stack: list[list] = []  # [name, start_ns, child_ns, span_index]
        self._patches: list[tuple] = []

    # -- recording -----------------------------------------------------------

    def _open(self, name: str, record: bool) -> list:
        start = perf_counter_ns()
        index = None
        if record:
            parent = next((f[3] for f in reversed(self._stack) if f[3] is not None), None)
            index = len(self.spans)
            self.spans.append([name, start, None, parent, self.request])
        frame = [name, start, 0, index]
        self._stack.append(frame)
        return frame

    def _close(self, frame: list) -> int:
        end = perf_counter_ns()
        self._stack.pop()
        name, start, child_ns, index = frame
        dur = end - start
        parent = self._stack[-1][0] if self._stack else ""
        if self._stack:
            self._stack[-1][2] += dur
        entry = self.agg[(parent, name)]
        entry[0] += 1
        entry[1] += dur
        entry[2] += dur - child_ns
        if index is not None:
            self.spans[index][2] = end
        return dur

    @contextlib.contextmanager
    def span(self, name: str):
        frame = self._open(name, True)
        try:
            yield
        finally:
            self._close(frame)

    @contextlib.contextmanager
    def op(self, request, name: str):
        """Root span of one request."""
        self.request = request
        with self.span(name):
            yield

    def _wrapper(self, fn, name: str, record: bool):
        tracer = self

        def traced(*args, **kwargs):
            frame = tracer._open(name, record)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer._close(frame)

        traced.__wrapped__ = fn
        return traced

    def _tensordot_wrapper(self, fn):
        tracer = self

        def tensordot(field, x, y, axes):
            kind = "fp" if field.kind == "Fp" else "q"
            frame = tracer._open(f"fields.{kind}.tensordot", False)
            try:
                return fn(field, x, y, axes)
            finally:
                dur = tracer._close(frame)
                counts = tracer.counts[kind]
                counts[0] += 1
                counts[1] += contraction_mults(x, y, axes)
                counts[2] += dur

        tensordot.__wrapped__ = fn
        return tensordot

    # -- installation --------------------------------------------------------

    def wrap(self, owner, attr: str, name: str, *, hot: bool = False) -> bool:
        """Replace ``owner.attr`` (a module or class attribute, or a dict
        item when ``owner`` is a dict) by a traced wrapper while installed.
        Missing attributes are skipped, so the trace outlives refactors of
        the package; the return value says whether the hook was placed."""
        if isinstance(owner, dict):
            if attr not in owner:
                return False
            self._patches.append((owner, attr, owner[attr], name, hot, True))
        else:
            if not hasattr(owner, attr):
                return False
            self._patches.append((owner, attr, getattr(owner, attr), name, hot, False))
        return True

    def wrap_tensordot(self, field_cls) -> None:
        self._patches.append((field_cls, "tensordot", field_cls.tensordot, None, True, False))

    def install(self) -> None:
        for owner, attr, fn, name, hot, is_dict in self._patches:
            wrapped = self._tensordot_wrapper(fn) if name is None else self._wrapper(fn, name, not hot)
            if is_dict:
                owner[attr] = wrapped
            else:
                setattr(owner, attr, wrapped)

    def uninstall(self) -> None:
        for owner, attr, fn, _, _, is_dict in reversed(self._patches):
            if is_dict:
                owner[attr] = fn
            else:
                setattr(owner, attr, fn)

    @contextlib.contextmanager
    def installed(self):
        self.install()
        try:
            yield
        finally:
            self.uninstall()

    def mark_first_pass(self) -> None:
        if self.first_pass_counts is None:
            self.first_pass_counts = {k: list(v) for k, v in self.counts.items()}

    # -- queries -------------------------------------------------------------

    def total(self, name: str, parent: str | None = None) -> tuple[int, int, int]:
        """(calls, total_ns, self_ns) of ``name``, under ``parent`` if given."""
        calls = total = self_ns = 0
        for (par, nm), (c, t, s) in self.agg.items():
            if nm == name and (parent is None or par == parent):
                calls, total, self_ns = calls + c, total + t, self_ns + s
        return calls, total, self_ns

    def layer_self_ns(self) -> dict[str, int]:
        out: dict[str, int] = defaultdict(int)
        for (_, name), (_, _, self_ns) in self.agg.items():
            out[name.split(".")[0]] += self_ns
        return dict(out)

    def dump(self, path) -> None:
        payload = {
            "spans": [
                {"name": n, "start_ns": s, "end_ns": e, "parent": p, "request": r}
                for n, s, e, p, r in self.spans
            ],
            "aggregates": [
                {"parent": par, "name": nm, "calls": c, "total_ns": t, "self_ns": s}
                for (par, nm), (c, t, s) in sorted(self.agg.items())
            ],
            "fields": {k: {"calls": c, "mults": m, "ns": ns} for k, (c, m, ns) in self.counts.items()},
        }
        path.write_text(json.dumps(payload, sort_keys=True), encoding="utf-8")
