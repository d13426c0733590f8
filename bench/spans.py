"""Span tracing for the traced benchmark run.

The tracer wraps the package's cross-module call boundaries from outside:
it replaces an attribute of the *importing* module (for example
``diminimal.realize.counts_at``) with a wrapper that records a span, and
puts the original back in `restore`.  No file of the package changes, and
an untraced run never installs a wrapper.

A span is ``[name, layer, parent, start, end]``: the callee's qualified
name, the layer (package module) it belongs to, the index of the enclosing
span (-1 at the top), and perf_counter timestamps.  Spans are kept in
memory and written out once, after the run.
"""

from __future__ import annotations

import importlib
import json
import time
from collections import Counter, defaultdict
from contextlib import contextmanager
from fractions import Fraction
from typing import Callable

LAYERS = ("trees", "matrices", "locate", "realize", "oracle", "cli")

MARK = "__bench_wrapped__"


def _entry_bits(tr: "Tracer", args, kwargs, cert) -> None:
    m = cert.matrix
    bits = max(q.numerator.bit_length() + q.denominator.bit_length()
               for q in m.diag + m.sq_edge)
    tr.maxima["realize.entry_bits"] = max(tr.maxima["realize.entry_bits"], bits)


def _counts_at_hook(tr: "Tracer", args, kwargs, out) -> None:
    tr.totals["locate.vertices"] += args[0].n
    p = Fraction(args[1] if len(args) > 1 else kwargs["point"])
    bits = p.numerator.bit_length() + p.denominator.bit_length()
    tr.maxima["locate.point_bits"] = max(tr.maxima["locate.point_bits"], bits)


def _sweeps_hook(tr: "Tracer", args, kwargs, spectrum) -> None:
    tr.totals["oracle.jacobi.sweeps"] += spectrum.sweeps


def _agreement_hook(tr: "Tracer", args, kwargs, report) -> None:
    tr.totals["oracle.compares"] += 1
    tr.totals["oracle.inconclusive"] += not report.conclusive


# (importing module, attribute, layer of the callee, result hook).  The
# first block is every cross-module import the package makes; the second
# holds the entry points the benchmark itself calls, plus the two
# same-module boundaries the per-layer metrics need (isolate -> counts_at
# and compare_counts -> dense_eigenvalues).
PATCHES: tuple[tuple[str, str, str, Callable | None], ...] = (
    ("diminimal.matrices", "build_tree", "trees", None),
    ("diminimal.matrices", "tree_from_json", "trees", None),
    ("diminimal.matrices", "tree_to_json", "trees", None),
    ("diminimal.locate", "delete_vertex", "matrices", None),
    ("diminimal.oracle", "counts_at", "locate", _counts_at_hook),
    ("diminimal.oracle", "to_dense_float", "matrices", None),
    ("diminimal.realize", "_run", "locate", None),
    ("diminimal.realize", "counts_at", "locate", _counts_at_hook),
    ("diminimal.realize", "diagonalize", "locate", None),
    ("diminimal.realize", "make_matrix", "matrices", None),
    ("diminimal.realize", "_family_analysis", "trees", None),
    ("diminimal.realize", "_whole_piece_cert", "trees", None),
    ("diminimal.realize", "diameter", "trees", None),
    ("diminimal.realize", "join", "trees", None),
    ("diminimal.realize", "main_roots", "trees", None),
    ("diminimal.realize", "reroot", "trees", None),
    ("diminimal.cli", "counts_at", "locate", _counts_at_hook),
    ("diminimal.cli", "isolate_eigenvalues", "locate", None),
    ("diminimal.cli", "format_rational", "matrices", None),
    ("diminimal.cli", "matrix_from_json", "matrices", None),
    ("diminimal.cli", "matrix_to_dot", "matrices", None),
    ("diminimal.cli", "matrix_to_json", "matrices", None),
    ("diminimal.cli", "parse_rational", "matrices", None),
    ("diminimal.cli", "compare_counts", "oracle", _agreement_hook),
    ("diminimal.cli", "realize_family", "realize", _entry_bits),
    ("diminimal.cli", "realize_integral", "realize", _entry_bits),
    ("diminimal.cli", "verify_certificate", "realize", None),
    ("diminimal.cli", "duplicate_branch", "trees", None),
    ("diminimal.cli", "recognize_family", "trees", None),
    ("diminimal.cli", "seed", "trees", None),
    ("diminimal.cli", "tree_from_json", "trees", None),
    ("diminimal.cli", "tree_to_json", "trees", None),
    # entry points and same-module boundaries
    ("diminimal.cli", "main", "cli", None),
    ("diminimal.trees", "recognize_family", "trees", None),
    ("diminimal.realize", "realize_family", "realize", _entry_bits),
    ("diminimal.realize", "realize_integral", "realize", _entry_bits),
    ("diminimal.realize", "verify_certificate", "realize", None),
    ("diminimal.locate", "counts_at", "locate", _counts_at_hook),
    ("diminimal.locate", "count_in_interval", "locate", None),
    ("diminimal.locate", "isolate_eigenvalues", "locate", None),
    ("diminimal.matrices", "make_matrix", "matrices", None),
    ("diminimal.oracle", "dense_eigenvalues", "oracle", _sweeps_hook),
)


def wrapped_targets() -> list[str]:
    """Patch targets that currently hold a wrapper; empty when the package
    is in its original state."""
    bad = []
    for mod_name, attr, _, _ in PATCHES:
        if hasattr(getattr(importlib.import_module(mod_name), attr), MARK):
            bad.append(f"{mod_name}.{attr}")
    return bad


class Tracer:
    """Spans and counters of one traced pass; `install` wraps every PATCHES
    target and `restore` puts the originals back."""

    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.totals: Counter = Counter()
        self.maxima: defaultdict = defaultdict(int)
        self._saved: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    @contextmanager
    def span(self, name: str, layer: str):
        rec = [name, layer, self.stack[-1] if self.stack else -1, 0.0, 0.0]
        self.stack.append(len(self.spans))
        self.spans.append(rec)
        rec[3] = time.perf_counter()
        try:
            yield
        finally:
            rec[4] = time.perf_counter()
            self.stack.pop()

    def wrap(self, fn: Callable, name: str, layer: str,
             hook: Callable | None = None) -> Callable:
        spans, stack, clock = self.spans, self.stack, time.perf_counter
        tracer = self

        def wrapper(*args, **kwargs):
            rec = [name, layer, stack[-1] if stack else -1, 0.0, 0.0]
            stack.append(len(spans))
            spans.append(rec)
            rec[3] = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                rec[4] = clock()
                stack.pop()
            if hook is not None:
                hook(tracer, args, kwargs, out)
            return out

        setattr(wrapper, MARK, fn)
        wrapper.__name__ = getattr(fn, "__name__", name)
        return wrapper

    # -- installing ----------------------------------------------------------

    def install(self) -> None:
        for mod_name, attr, layer, hook in PATCHES:
            mod = importlib.import_module(mod_name)
            orig = getattr(mod, attr)
            if hasattr(orig, MARK):
                raise RuntimeError(f"{mod_name}.{attr} is already wrapped")
            self._saved.append((mod, attr, orig))
            setattr(mod, attr, self.wrap(orig, f"{layer}.{orig.__name__}",
                                         layer, hook))

    def restore(self) -> None:
        """Put every original back."""
        for mod, attr, orig in reversed(self._saved):
            setattr(mod, attr, orig)
        self._saved.clear()

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for name, layer, parent, start, end in self.spans:
                fh.write(json.dumps({"name": name, "layer": layer,
                                     "parent": parent, "start": start,
                                     "end": end}) + "\n")


def self_times(spans: list[list]) -> list[float]:
    """Self time of every span: its duration minus the durations of its
    direct children."""
    own = [end - start for _, _, _, start, end in spans]
    for _, _, parent, start, end in spans:
        if parent >= 0:
            own[parent] -= end - start
    return own


def layer_metrics(tr: Tracer) -> dict[str, float]:
    """Per-layer metrics of a traced pass."""
    spans = tr.spans
    own = self_times(spans)
    calls: Counter = Counter()
    secs: defaultdict = defaultdict(float)
    layer_self: defaultdict = defaultdict(float)
    recognize_self = final_verify = 0.0
    isolate_points = 0
    for i, (name, layer, parent, start, end) in enumerate(spans):
        calls[name] += 1
        secs[name] += end - start
        layer_self[layer] += own[i]
        if name in ("trees.recognize_family", "trees._family_analysis"):
            recognize_self += own[i]
        if name == "locate.counts_at" and parent >= 0:
            pname = spans[parent][0]
            if pname in ("realize.realize_family", "realize.realize_integral"):
                final_verify += end - start
            elif pname == "locate.isolate_eigenvalues":
                isolate_points += 1
    vertices = tr.totals["locate.vertices"]
    compares = tr.totals["oracle.compares"]
    isolates = calls["locate.isolate_eigenvalues"]
    out = {
        "trees.recognize.calls": calls["trees.recognize_family"]
        + calls["trees._family_analysis"],
        "trees.recognize.self_s": recognize_self,
        "realize.join_runs.calls": calls["locate._run"],
        "realize.join_runs.s": secs["locate._run"],
        "realize.final_verify.s": final_verify,
        "realize.verify_certificate.s": secs["realize.verify_certificate"],
        "realize.entry_bits.max": tr.maxima["realize.entry_bits"],
        "locate.counts_at.calls": calls["locate.counts_at"],
        "locate.counts_at.s": secs["locate.counts_at"],
        "locate.vertices": vertices,
        "locate.us_per_vertex": (secs["locate.counts_at"] * 1e6 / vertices
                                 if vertices else 0.0),
        "locate.isolate.points": isolate_points / isolates if isolates else 0.0,
        "locate.point_bits.max": tr.maxima["locate.point_bits"],
        "oracle.dense_eigenvalues.calls": calls["oracle.dense_eigenvalues"],
        "oracle.dense_eigenvalues.s": secs["oracle.dense_eigenvalues"],
        "oracle.jacobi.sweeps": tr.totals["oracle.jacobi.sweeps"],
        "oracle.inconclusive_ratio": (tr.totals["oracle.inconclusive"] / compares
                                      if compares else 0.0),
        "matrices.json.s": secs["matrices.matrix_from_json"]
        + secs["matrices.matrix_to_json"],
        "matrices.to_dense.s": secs["matrices.to_dense_float"],
        "matrices.make_matrix.s": secs["matrices.make_matrix"],
        "cli.main.calls": calls["cli.main"],
        "trace.spans": len(spans),
    }
    for layer in LAYERS:
        out[f"{layer}.self_s"] = layer_self[layer]
    out["trace.self_sum_s"] = sum(layer_self.values())
    return out
