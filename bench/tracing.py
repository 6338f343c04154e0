"""Spans and counters around calls into berncert's public functions.

The program is not edited.  ``Tracer`` replaces every binding of each
traced function (module globals, re-exports, ``from x import f`` copies
and class attributes such as ``Polynomial.__rmul__``, an alias of
``__mul__``) with one wrapper, found by identity across all loaded
``berncert`` modules, and puts every original back when it exits.
Spans stay in memory; ``layer_metrics`` turns them into calls and self
time per function, self time being a span's duration minus the time its
child spans cover.
"""

from __future__ import annotations

import fractions
import sys
from collections import Counter
from math import comb
from time import perf_counter

# (module, attribute path, metric prefix)
TARGETS = [
    ("bernstein", "to_bernstein", "bernstein.to_bernstein"),
    ("bernstein", "from_bernstein", "bernstein.from_bernstein"),
    ("bernstein", "degree_elevate", "bernstein.degree_elevate"),
    ("bernstein", "cert_status", "bernstein.cert_status"),
    ("linalg", "solve", "linalg.solve"),
    ("linalg", "invert", "linalg.invert"),
    ("linalg", "determinant", "linalg.determinant"),
    ("polynomials", "Polynomial.__mul__", "polynomials.mul"),
    ("subdivision", "edge_split_forms", "subdivision.edge_split_forms"),
    ("subdivision", "transfer_edge_v2", "subdivision.transfer_edge_v2"),
    ("subdivision", "split_edge", "subdivision.split_edge"),
    ("certify", "certify", "certify.certify"),
    ("certify", "verify_tree", "certify.verify_tree"),
    ("serialize", "tree_to_json", "serialize.tree_to_json"),
    ("serialize", "canonical_dumps", "serialize.canonical_dumps"),
    ("serialize", "parse_json_exact", "serialize.parse_json_exact"),
    ("serialize", "tree_from_json", "serialize.tree_from_json"),
    ("cli", "main", "cli.main"),
    ("counterexample", "reproduce_report", "counterexample.reproduce_report"),
    ("simplices", "barycentric_system", "simplices.barycentric_system"),
]

COUNTS = [
    ("bernstein.to_bernstein.basis_size_sum", "count", "lower"),
    ("certify.nodes", "count", "lower"),
    ("certify.leaves", "count", "lower"),
    ("certify.splits", "count", "lower"),
    ("certify.elevations", "count", "lower"),
    ("serialize.bytes_out", "B", "lower"),
    ("serialize.bytes_in", "B", "lower"),
    ("fractions.Fraction.created", "count", "lower"),
]


def _tree_counts(tree, target: str, counts: Counter) -> None:
    stack = [tree]
    while stack:
        node = stack.pop()
        counts["certify.nodes"] += 1
        if node.children:
            stack.extend(node.children)
            kind = "certify.elevations" if hasattr(node.split, "steps") else "certify.splits"
            counts[kind] += 1
        else:
            counts["certify.leaves"] += 1
            status = node.status.kind.value
            if status == "positive" or (target == "nonnegative" and status == "nonnegative"):
                counts["certify.certified_leaves"] += 1


def _after_to_bernstein(counts, args, kwargs, result):
    n = result.system.simplex.dimension
    counts["bernstein.to_bernstein.basis_size_sum"] += comb(n + result.degree, result.degree)


def _after_certify(counts, args, kwargs, result):
    config = kwargs["config"] if "config" in kwargs else args[2]
    _tree_counts(result, config.target.value, counts)


def _after_canonical_dumps(counts, args, kwargs, result):
    counts["serialize.bytes_out"] += len(result.encode("utf-8"))


def _after_parse_json_exact(counts, args, kwargs, result):
    text = kwargs["text"] if "text" in kwargs else args[0]
    counts["serialize.bytes_in"] += len(text.encode("utf-8"))


AFTER = {
    "bernstein.to_bernstein": _after_to_bernstein,
    "certify.certify": _after_certify,
    "serialize.canonical_dumps": _after_canonical_dumps,
    "serialize.parse_json_exact": _after_parse_json_exact,
}


def _owners(module):
    """The module and every berncert class it binds, each once."""
    yield module
    for value in list(vars(module).values()):
        if isinstance(value, type) and value.__module__.startswith("berncert"):
            yield value


def berncert_owners():
    seen = set()
    for name, module in list(sys.modules.items()):
        if name != "berncert" and not name.startswith("berncert."):
            continue
        for owner in _owners(module):
            if id(owner) not in seen:
                seen.add(id(owner))
                yield owner


class Tracer:
    """Use as a context manager around the calls to trace."""

    def __init__(self):
        self.spans: list = []  # (name, start, end, parent index)
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._restore: list = []

    def _wrap(self, name, fn):
        spans, stack, counts = self.spans, self._stack, self.counts
        after = AFTER.get(name)

        def wrapper(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                spans[index] = (name, start, perf_counter(), parent)
                stack.pop()
            if after is not None:
                after(counts, args, kwargs, result)
            return result

        wrapper.bench_span = name
        return wrapper

    def __enter__(self):
        wrappers = {}
        for module, path, name in TARGETS:
            owner = sys.modules[f"berncert.{module}"]
            *classes, attr = path.split(".")
            for cls in classes:
                owner = vars(owner)[cls]
            fn = vars(owner)[attr]
            wrappers[id(fn)] = (fn, self._wrap(name, fn))
        for owner in berncert_owners():
            for key, value in list(vars(owner).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(owner, key, hit[1])
                    self._restore.append((owner, key, value))
        self._count_fractions()
        return self

    def _count_fractions(self):
        cls = fractions.Fraction
        counts = self.counts
        original = vars(cls)["__new__"]
        new = original.__func__

        def counting_new(*args, **kwargs):
            counts["fractions.Fraction.created"] += 1
            return new(*args, **kwargs)

        counting_new.bench_span = "fractions.Fraction.created"
        cls.__new__ = staticmethod(counting_new)
        self._restore.append((cls, "__new__", original))

    def __exit__(self, *exc):
        while self._restore:
            owner, key, value = self._restore.pop()
            setattr(owner, key, value)
        return False

    def layer_metrics(self) -> dict[str, float]:
        """calls and self_ms per traced function, plus the counters."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict[str, float] = {}
        for _, _, name in TARGETS:
            out[f"{name}.calls"] = 0
            out[f"{name}.self_ms"] = 0.0
        for (name, start, end, _), inner in zip(self.spans, child):
            out[f"{name}.calls"] += 1
            out[f"{name}.self_ms"] += (end - start - inner) * 1000.0
        for name, _, _ in COUNTS:
            out[name] = self.counts[name]
        leaves = self.counts["certify.leaves"]
        out["certify.certified_leaf_ratio"] = (
            self.counts["certify.certified_leaves"] / leaves if leaves else 0.0
        )
        return out


def leftover_wrappers() -> list[str]:
    """Bindings that still hold a tracing wrapper; empty after a clean exit."""
    found = [
        f"{getattr(owner, '__name__', owner)}.{key}"
        for owner in berncert_owners()
        for key, value in vars(owner).items()
        if hasattr(value, "bench_span")
    ]
    new = vars(fractions.Fraction)["__new__"]
    if hasattr(getattr(new, "__func__", new), "bench_span"):
        found.append("fractions.Fraction.__new__")
    return found


def layer_units() -> list[tuple[str, str, str]]:
    """(name, unit, better) for every per-layer metric, in report order."""
    out = []
    for _, _, name in TARGETS:
        out.append((f"{name}.calls", "count", "lower"))
        out.append((f"{name}.self_ms", "ms", "lower"))
    out.extend(COUNTS)
    out.append(("certify.certified_leaf_ratio", "ratio", "higher"))
    out.append(("trace.overhead_ratio", "ratio", "lower"))
    return out
