"""Benchmark harness for berncert, standard library only.

    python3 bench/run.py --workload tri-search --seed 1 --seconds 30 --trace 0

Runs one closed-loop workload (one client, one thread, one process):
each operation starts when the previous one has finished, and a pass
runs every case of the workload's corpus once.  Passes repeat until
``--seconds`` of pass time is spent.  The timing metrics are taken over
each case's sustained latency, its 90th percentile over the passes (see
``sustained``).  Every output is
checked (see ``check_output``).  ``--trace 0`` prints the end-to-end metrics;
``--trace 1`` runs untraced passes for half the time, then two traced
passes, and prints the per-layer metrics.  The last line of standard
output is one JSON object: {"correct", "attempted", "failed", "metrics"}.

``--record`` rewrites expected.json, the recorded outputs for
DEFAULT_SEED, after every output passes the independent checks.
Run it from the root of the repository; it imports berncert from src/.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import importlib
import io
import json
import resource
import statistics
import sys
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter
from typing import Callable

import checks
import corpus
import tracing

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
EXPECTED = HERE / "expected.json"
MODULES = ("cli", "serialize", "certify")
MIN_PASSES = 4
TAIL_PCT = 90


@dataclass(frozen=True)
class Workload:
    name: str
    cases: Callable[[int], list]
    verify: bool  # operations check set-up's certificates instead of searching
    exercised: tuple[str, ...]  # per-layer metrics that must be nonzero when traced


_COMMON = (
    "bernstein.to_bernstein.calls", "bernstein.cert_status.calls",
    "linalg.solve.calls", "linalg.invert.calls", "linalg.determinant.calls",
    "polynomials.mul.calls", "simplices.barycentric_system.calls",
    "fractions.Fraction.created",
)
_SEARCH = _COMMON + (
    "bernstein.degree_elevate.calls", "certify.certify.calls", "certify.nodes",
    "serialize.tree_to_json.calls", "serialize.canonical_dumps.calls",
    "serialize.bytes_out", "cli.main.calls",
)

WORKLOADS = {
    "tri-search": Workload("tri-search", corpus.tri_search, False, _SEARCH + (
        "subdivision.edge_split_forms.calls", "subdivision.transfer_edge_v2.calls",
        "subdivision.split_edge.calls", "counterexample.reproduce_report.calls",
    )),
    "nd-search": Workload("nd-search", corpus.nd_search, False, _SEARCH),
    "verify": Workload("verify", corpus.verify, True, _COMMON + (
        "bernstein.from_bernstein.calls", "certify.verify_tree.calls",
        "serialize.parse_json_exact.calls", "serialize.tree_from_json.calls",
        "serialize.bytes_in",
    )),
}

END_TO_END = [
    ("setup_s", "s"), ("ops_per_s", "op/s"), ("op_p50_ms", "ms"),
    ("op_tail_ms", "ms"), ("peak_rss_mb", "MB"), ("cert_bytes", "B"),
    ("ok_ratio", "ratio"),
]


def load_program():
    """Import berncert afresh from src/ and return its modules by name."""
    for name in [m for m in sys.modules if m == "berncert" or m.startswith("berncert.")]:
        del sys.modules[name]
    return {m: importlib.import_module(f"berncert.{m}") for m in MODULES}


def call_cli(cli, argv) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(list(argv))
    return code, out.getvalue()


def canonical(obj) -> str:
    return json.dumps(obj, separators=(",", ":"), sort_keys=True)


@dataclass
class State:
    program: dict
    cases: list
    certs: list | None  # verify only: certify's (code, output) or exception per case
    texts: list | None  # verify only: canonical certificate JSON per case


def set_up(workload: Workload, seed: int) -> tuple[float, State]:
    start = perf_counter()
    program = load_program()
    cases = workload.cases(seed)
    certs = texts = None
    if workload.verify:
        certs, texts = [], []
        for case in cases:
            try:
                outcome = call_cli(program["cli"], case.argv)
                text = canonical(json.loads(outcome[1])["tree"])
            except (Exception, SystemExit) as exc:
                outcome, text = exc, ""
            certs.append(outcome)
            texts.append(text)
    return perf_counter() - start, State(program, cases, certs, texts)


def run_op(state: State, i: int, tracer):
    """One operation: (latency in s, outcome, certify nodes the tracer saw)."""
    nodes = tracer.counts["certify.nodes"] if tracer else 0
    start = perf_counter()
    try:
        if state.texts is None:
            outcome = call_cli(state.program["cli"], state.cases[i].argv)
        else:
            serialize = state.program["serialize"]
            tree = serialize.tree_from_json(serialize.parse_json_exact(state.texts[i]))
            outcome = state.program["certify"].verify_tree(tree)
    except (Exception, SystemExit) as exc:
        outcome = exc
    latency = perf_counter() - start
    if tracer:
        nodes = tracer.counts["certify.nodes"] - nodes
    return latency, outcome, nodes


def run_pass(state: State, tracer=None):
    start = perf_counter()
    results = [run_op(state, i, tracer) for i in range(len(state.cases))]
    return perf_counter() - start, results


def digest(out: str) -> str:
    return hashlib.sha256(out.rstrip("\n").encode("utf-8")).hexdigest()


def summary(code: int, out: str) -> dict:
    """The recorded form of one program output."""
    payload = json.loads(out) if out else {}
    tree = payload.get("tree")
    return {
        "code": code,
        "status": payload.get("status"),
        "nodes": checks.count_nodes(tree) if tree else None,
        "digest": digest(out) if out else None,
    }


def check_output(case, outcome, recorded: dict | None) -> list[str]:
    """Problems with one program output (a certify or paper run).

    Recorded values are compared when present (anchor cases at every seed,
    drawn cases at DEFAULT_SEED).  Drawn cases have none at other seeds;
    they are built to certify, so they must exit 0 as certified.  Every
    certificate also goes through the independent leaf check.
    """
    if isinstance(outcome, BaseException):
        return [f"raised {outcome!r}"]
    code, out = outcome
    try:
        got = summary(code, out)
    except (ValueError, KeyError, TypeError) as exc:
        return [f"unreadable output: {exc!r}"]
    if recorded is not None:
        problems = [f"{k} {got[k]!r} != recorded {v!r}" for k, v in recorded.items() if got[k] != v]
    elif (code, got["status"]) != (0, "certified"):
        problems = [f"drawn case ended {got['status']} with exit code {code}"]
    else:
        problems = []
    if case.poly is not None and out:
        payload = json.loads(out)
        try:
            problems += checks.check_tree(
                payload["tree"], case.poly, case.target, payload["status"] == "certified"
            )
        except (ValueError, KeyError, TypeError) as exc:
            problems.append(f"malformed certificate: {exc!r}")
    return problems


class Checker:
    """Checks set-ups and each pass's outcomes; the first in full, later ones for sameness."""

    def __init__(self, workload: Workload, state: State, seed: int):
        self.verify = workload.verify
        self.cases, self.texts = state.cases, state.texts
        self.problems: list[str] = []
        self.attempted = self.failed = 0
        self.reference: list | None = None  # per case: (code, digest) of the first pass
        self.bad: set[int] = set()
        stored = json.loads(EXPECTED.read_text(encoding="utf-8")) if EXPECTED.is_file() else {}
        default = seed == stored.get("seed")
        self.recorded = [
            stored.get("cases", {}).get(f"{workload.name}/{c.name}") if c.anchor or default else None
            for c in state.cases
        ]
        if self.verify:
            for i, case in enumerate(state.cases):
                self._note(i, check_output(case, state.certs[i], self.recorded[i]))

    def check_setup(self, state: State) -> None:
        """A later set-up must yield the first one's certificates."""
        if self.verify:
            for i, (text, first) in enumerate(zip(state.texts, self.texts)):
                if text != first:
                    self._note(i, ["certificate differs from the first set-up's"])

    def _note(self, i: int, problems: list[str]) -> None:
        if problems:
            self.bad.add(i)
            self.problems += [f"{self.cases[i].name}: {p}" for p in problems]

    def check_pass(self, results) -> None:
        for i, (_, outcome, _) in enumerate(results):
            self.attempted += 1
            if self.verify:
                if outcome is not True:
                    self._note(i, [f"verify_tree gave {outcome!r}"])
            elif isinstance(outcome, BaseException):
                self._note(i, [f"raised {outcome!r}"])
            elif self.reference is None:
                self._note(i, check_output(self.cases[i], outcome, self.recorded[i]))
            elif (outcome[0], digest(outcome[1])) != self.reference[i]:
                self._note(i, ["output differs from the first pass"])
            if i in self.bad:
                self.failed += 1
        if self.reference is None and not self.verify:
            self.reference = [
                None if isinstance(o, BaseException) else (o[0], digest(o[1]))
                for _, o, _ in results
            ]

    def cert_bytes(self, results) -> int:
        if self.verify:
            return sum(len(t.encode("utf-8")) for t in self.texts)
        return sum(
            len(o[1].encode("utf-8")) for _, o, _ in results if not isinstance(o, BaseException)
        )


def measure(state, checker, seconds, min_passes, tracer=None, between=None):
    """Run passes until ``seconds`` of pass time and ``min_passes`` are reached.

    ``between`` runs after every pass, outside the pass time.  Returns the
    pass walls, each pass's operation latencies, and the first pass's results.
    """
    walls, passes, first = [], [], None
    while sum(walls) < seconds or len(walls) < min_passes:
        wall, results = run_pass(state, tracer)
        walls.append(wall)
        passes.append([r[0] for r in results])
        checker.check_pass(results)
        first = first or results
        if between is not None:
            between()
    return walls, passes, first


def sustained(samples) -> float:
    """The 90th percentile of repeated timings of the same work.

    The host this was tuned on runs at two speeds about 1.5x apart, each
    lasting seconds to minutes, and the share of a run spent at the fast
    one differs from run to run.  The upper decile of timings spread over
    the whole run sits at the slower, prevailing speed in almost every run,
    so it varies far less between runs than the mean, the median or the
    minimum.
    """
    return statistics.quantiles(samples, n=10, method="inclusive")[8]


def end_to_end(workload: Workload, seed: int, seconds: float):
    elapsed, state = set_up(workload, seed)
    setups = [elapsed]
    checker = Checker(workload, state, seed)
    peak_rss = []

    def between():
        # One more set-up after every pass spreads the set-up samples over
        # the run.  Its second copy of the program is the harness's, so the
        # peak memory is read before the first one: after set-up and a pass
        # over every case, which later passes repeat on the same state.
        if not peak_rss:
            peak_rss.append(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024)
        elapsed, fresh = set_up(workload, seed)
        setups.append(elapsed)
        checker.check_setup(fresh)

    walls, passes, first = measure(state, checker, seconds, MIN_PASSES, between=between)
    latencies = [sustained(case) for case in zip(*passes)]
    cut = statistics.quantiles(latencies, n=100, method="inclusive")[TAIL_PCT - 1]
    metrics = {
        "setup_s": sustained(setups),
        "ops_per_s": len(latencies) / sum(latencies),
        "op_p50_ms": statistics.median(latencies) * 1000,
        "op_tail_ms": cut * 1000,
        "peak_rss_mb": peak_rss[0],
        "cert_bytes": checker.cert_bytes(first),
        "ok_ratio": 1 - checker.failed / checker.attempted,
    }
    notes = {
        "setup_s": f"p90 of {len(setups)} set-ups, one before the first pass and one after each",
        "ops_per_s": (
            f"{len(latencies)} cases x {len(walls)} passes in {sum(walls):.2f} s, "
            f"plain rate {len(latencies) * len(walls) / sum(walls):.4g} op/s"
        ),
        "op_p50_ms": f"over {len(latencies)} case latencies",
        "op_tail_ms": (
            f"p{TAIL_PCT} over {len(latencies)} case latencies, "
            f"{sum(1 for x in latencies if x > cut)} beyond"
        ),
        "ok_ratio": f"fail_ratio {checker.failed / checker.attempted} "
                    f"({checker.failed} of {checker.attempted})",
    }
    return metrics, notes, checker, []


def traced(workload: Workload, seed: int, seconds: float):
    _, state = set_up(workload, seed)
    checker = Checker(workload, state, seed)
    plain, _, _ = measure(state, checker, seconds / 2, 1)
    layers, walls, problems = [], [], []
    for _ in range(2):
        with tracing.Tracer() as tracer:
            wall, results = run_pass(state, tracer)
        checker.check_pass(results)
        walls.append(wall)
        layers.append(tracer.layer_metrics())
        if not workload.verify:
            for i, (case, (_, outcome, nodes)) in enumerate(zip(state.cases, results)):
                if case.argv[0] == "certify" and i not in checker.bad:
                    payload_nodes = checks.count_nodes(json.loads(outcome[1])["tree"])
                    if nodes != payload_nodes:
                        problems.append(
                            f"{case.name}: traced certify.nodes {nodes} != payload {payload_nodes}"
                        )
    first_pass, second = layers
    metrics = {}
    for name, value in first_pass.items():
        if name.endswith(".self_ms"):
            metrics[name] = (value + second[name]) / 2
        else:
            metrics[name] = value
            if second[name] != value:
                problems.append(f"{name} differs between traced passes: {value} vs {second[name]}")
    metrics["trace.overhead_ratio"] = statistics.fmean(walls) / statistics.fmean(plain)
    problems += [f"{name} is 0 but this workload exercises it"
                 for name in workload.exercised if not metrics[name]]
    problems += [f"wrapper left behind: {w}" for w in tracing.leftover_wrappers()]
    notes = {"trace.overhead_ratio": f"2 traced passes over {len(plain)} untraced"}
    return metrics, notes, checker, problems


def record() -> int:
    """Rewrite expected.json from one pass of every workload at DEFAULT_SEED."""
    cases, problems = {}, []
    for name, workload in WORKLOADS.items():
        _, state = set_up(workload, corpus.DEFAULT_SEED)
        outcomes = state.certs if workload.verify else [r[1] for r in run_pass(state)[1]]
        for case, outcome in zip(state.cases, outcomes):
            found = check_output(case, outcome, {} if case.anchor else None)
            problems += [f"{name}/{case.name}: {p}" for p in found]
            if not isinstance(outcome, BaseException):
                cases[f"{name}/{case.name}"] = summary(*outcome)
    if problems:
        print("\n".join(problems), file=sys.stderr)
        return 1
    EXPECTED.write_text(
        json.dumps({"seed": corpus.DEFAULT_SEED, "cases": cases}, indent=1, sort_keys=True) + "\n",
        encoding="utf-8",
    )
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=corpus.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", action="store_true")
    args = parser.parse_args(argv)
    if not (SRC / "berncert" / "__init__.py").is_file():
        print(f"error: berncert sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.record:
        return record()
    if args.workload is None:
        parser.error("--workload is required")
    workload = WORKLOADS[args.workload]
    run = traced if args.trace else end_to_end
    metrics, notes, checker, problems = run(workload, args.seed, args.seconds)
    problems = checker.problems + problems
    units = dict(END_TO_END) if not args.trace else {n: u for n, u, _ in tracing.layer_units()}
    print(f"workload {args.workload}, seed {args.seed}: closed loop, 1 client, 1 thread")
    for name, value in metrics.items():
        note = f"  ({notes[name]})" if name in notes else ""
        shown = value if isinstance(value, int) else f"{value:.6g}"
        print(f"  {name:<44} {shown:>14} {units[name]}{note}")
    for problem in problems[:20]:
        print(f"problem: {problem}", file=sys.stderr)
    print(json.dumps({
        "correct": not problems,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "metrics": {n: {"value": v, "unit": units[n]} for n, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
