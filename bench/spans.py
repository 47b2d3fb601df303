"""In-memory span recorder for the traced benchmark run.

Layers are observed from outside: `instrument` wraps each listed public
function of qaffine at every name a qaffine module binds it to (so calls made
through `from .linalg import kernel` are seen too), and restores the original
bindings on exit. No file under src/ changes, and untraced runs never see a
wrapper.

A span is [name, start, end, parent index, item id]. A layer's self time is
its span's duration minus the durations of its child spans (children never
overlap: the benchmark runs in one thread). A function's total time counts
only its outermost spans, so recursion is not counted twice.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import json
import os
import sys
from collections import Counter, defaultdict
from fractions import Fraction
from pathlib import Path
from time import perf_counter

from qaffine.linalg import Matrix, SpanAccumulator, Subspace

# metric prefix -> (module, attribute); "Class.method" patches the class.
LAYERS = {
    "cli.main": ("qaffine.cli", "main"),
    "modfile.read_module": ("qaffine.modfile", "read_module"),
    "modfile.write_module": ("qaffine.modfile", "write_module"),
    "scalars.as_scalar": ("qaffine.scalars", "as_scalar"),
    "factory.build_module": ("qaffine.factory", "build_module"),
    "factory.tensor_product": ("qaffine.factory", "tensor_product"),
    "factory.restrict_to_ugeq0": ("qaffine.factory", "restrict_to_ugeq0"),
    "factory.evaluation_module": ("qaffine.factory", "evaluation_module"),
    "presentations.check_presentation": ("qaffine.presentations", "check_presentation"),
    "presentations.evaluate_word": ("qaffine.presentations", "evaluate_word"),
    "weights.k_ladder": ("qaffine.weights", "k_ladder"),
    "weights.analyze_full": ("qaffine.weights", "analyze_full"),
    "weights.analyze_ugeq0": ("qaffine.weights", "analyze_ugeq0"),
    "analysis.burnside_irreducible": ("qaffine.analysis", "burnside_irreducible"),
    "analysis.spin": ("qaffine.analysis", "spin"),
    "extension.extend": ("qaffine.extension", "extend"),
    "extension.build_a_astar": ("qaffine.extension", "build_a_astar"),
    "extension.eigen_flags": ("qaffine.extension", "eigen_flags"),
    "extension.build_w_grid": ("qaffine.extension", "build_w_grid"),
    "extension.build_b_bstar": ("qaffine.extension", "build_b_bstar"),
    "extension.lowering_suite": ("qaffine.extension", "_lowering_suite"),
    "linalg.matmul": ("qaffine.linalg", "Matrix.__matmul__"),
    "linalg.inverse": ("qaffine.linalg", "Matrix.inverse"),
    "linalg.kernel": ("qaffine.linalg", "kernel"),
    "linalg.image": ("qaffine.linalg", "image"),
    "linalg.subspace_sum": ("qaffine.linalg", "subspace_sum"),
    "linalg.subspace_intersect": ("qaffine.linalg", "subspace_intersect"),
    "linalg.contains": ("qaffine.linalg", "Subspace.contains"),
    "linalg.char_poly": ("qaffine.linalg", "char_poly"),
    "linalg.rational_roots": ("qaffine.linalg", "rational_roots"),
    "linalg.kronecker": ("qaffine.linalg", "kronecker"),
    "linalg.rank": ("qaffine.linalg", "rank"),
}
COUNTS = (
    "modfile.bytes_read", "modfile.bytes_written", "analysis.span_attempts",
    "analysis.span_grew", "extension.checks", "linalg.max_bits",
)


class SpanRecorder:
    """Spans and counters of one traced run, kept in memory."""

    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.item = ""
        self.counts: Counter = Counter()

    def write(self, path: Path) -> None:
        doc = {"fields": ["name", "start", "end", "parent", "item"], "spans": self.spans}
        path.write_text(json.dumps(doc, separators=(",", ":")))


def _entries(value):
    if isinstance(value, Matrix):
        return value.entries
    if isinstance(value, Subspace):
        return value.basis.entries
    if isinstance(value, list) and value and isinstance(value[0], Fraction):
        return value
    return ()


def _after_linalg(rec: SpanRecorder, args, result) -> None:
    bits = max(
        (max(abs(x.numerator).bit_length(), x.denominator.bit_length())
         for x in _entries(result)),
        default=0,
    )
    if bits > rec.counts["linalg.max_bits"]:
        rec.counts["linalg.max_bits"] = bits


def _after_read(rec: SpanRecorder, args, result) -> None:
    rec.counts["modfile.bytes_read"] += os.path.getsize(args[0])


def _after_write(rec: SpanRecorder, args, result) -> None:
    rec.counts["modfile.bytes_written"] += os.path.getsize(args[1])


def _after_extend(rec: SpanRecorder, args, result) -> None:
    rec.counts["extension.checks"] += len(result[1].checks)


def _span_wrapper(rec: SpanRecorder, name: str, fn, after):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        span = [name, 0.0, 0.0, rec.stack[-1] if rec.stack else -1, rec.item]
        rec.stack.append(len(rec.spans))
        rec.spans.append(span)
        span[1] = perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            span[2] = perf_counter()
            rec.stack.pop()
        if after is not None:
            after(rec, args, result)
        return result

    return wrapper


def _insert_counter(rec: SpanRecorder, fn):
    @functools.wraps(fn)
    def insert(self, v):
        grew = fn(self, v)
        rec.counts["analysis.span_attempts"] += 1
        rec.counts["analysis.span_grew"] += grew
        return grew

    return insert


@contextlib.contextmanager
def instrument(rec: SpanRecorder):
    """Wrap every layer function for the duration of the block."""
    patches: list[tuple[object, str, object]] = []

    def patch(owner, attr, value):
        patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    try:
        for name, (modname, attr) in LAYERS.items():
            module = importlib.import_module(modname)
            if name.startswith("linalg."):
                after = _after_linalg
            else:
                after = {"modfile.read_module": _after_read,
                         "modfile.write_module": _after_write,
                         "extension.extend": _after_extend}.get(name)
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(module, cls_name)
                patch(cls, meth, _span_wrapper(rec, name, cls.__dict__[meth], after))
                continue
            original = getattr(module, attr)
            wrapper = _span_wrapper(rec, name, original, after)
            for modname2, mod in list(sys.modules.items()):
                if modname2 == "qaffine" or modname2.startswith("qaffine."):
                    for binding, value in list(vars(mod).items()):
                        if value is original:
                            patch(mod, binding, wrapper)
        patch(SpanAccumulator, "insert",
              _insert_counter(rec, SpanAccumulator.__dict__["insert"]))
        yield rec
    finally:
        for owner, attr, value in reversed(patches):
            setattr(owner, attr, value)


def layer_times(spans: list[list]) -> dict[str, dict[str, float]]:
    """Per span name: number of calls, total time of the outermost spans and
    self time (duration minus the durations of direct children)."""
    child = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child[parent] += end - start
    out: dict[str, dict[str, float]] = defaultdict(
        lambda: {"calls": 0, "total_s": 0.0, "self_s": 0.0}
    )
    for idx, (name, start, end, parent, _) in enumerate(spans):
        row = out[name]
        row["calls"] += 1
        row["self_s"] += (end - start) - child[idx]
        p = parent
        while p >= 0 and spans[p][0] != name:
            p = spans[p][3]
        if p < 0:
            row["total_s"] += end - start
    return dict(out)


def item_breakdown(spans: list[list], outer: str, inner: str) -> dict[str, tuple[float, float]]:
    """Per item id: total time of `outer` spans and of the `inner` spans
    nested in them (e.g. extend and the Burnside test it runs)."""
    out: dict[str, list[float]] = defaultdict(lambda: [0.0, 0.0])
    for name, start, end, parent, item in spans:
        if name == outer:
            out[item][0] += end - start
        elif name == inner:
            p = parent
            while p >= 0 and spans[p][0] != outer:
                p = spans[p][3]
            if p >= 0:
                out[item][1] += end - start
    return {k: (v[0], v[1]) for k, v in out.items()}
