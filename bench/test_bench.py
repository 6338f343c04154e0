"""Fast tests of the benchmark itself: python -m pytest bench"""

from __future__ import annotations

import json
import sys
from fractions import Fraction
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import corpus  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402

sys.path.insert(0, str(run.SRC))


@pytest.mark.parametrize("workload", sorted(run.WORKLOADS))
def test_same_seed_gives_same_corpus_text(workload):
    make = run.WORKLOADS[workload].cases
    assert corpus.corpus_text(make(7)) == corpus.corpus_text(make(7))
    other = make(8)
    assert corpus.corpus_text(make(7)) != corpus.corpus_text(other)
    anchors = [c for c in make(7) if c.anchor]
    assert anchors == [c for c in other if c.anchor]


@pytest.mark.parametrize("workload", sorted(run.WORKLOADS))
def test_every_seed_draws_distinct_inputs(workload):
    make = run.WORKLOADS[workload].cases
    for seed in range(1, 21):
        drawn = [c for c in make(seed) if not c.anchor]
        texts = {corpus.render(c.poly) for c in drawn}
        strategies = {c.argv[c.argv.index("--strategy") + 1] for c in drawn}
        assert len(texts) * len(strategies) == len(drawn)


@pytest.mark.parametrize("workload", sorted(run.WORKLOADS))
def test_default_seed_outputs_match_recorded_values(workload):
    spec = run.WORKLOADS[workload]
    _, state = run.set_up(spec, corpus.DEFAULT_SEED)
    checker = run.Checker(spec, state, corpus.DEFAULT_SEED)
    assert all(checker.recorded), "every case has a recorded value at the default seed"
    checker.check_pass(run.run_pass(state)[1])
    assert checker.problems == []
    assert checker.failed == 0 and checker.attempted == len(state.cases)


def test_independent_check_rejects_a_wrong_coefficient():
    case = next(c for c in corpus.tri_search(1) if c.name == "split-demo")
    program = run.load_program()
    code, out = run.call_cli(program["cli"], case.argv)
    assert run.check_output(case, (code, out), None) == []
    payload = json.loads(out)
    leaf = next(checks.leaves(payload["tree"]))
    entry = leaf["coefficients"][0]
    entry["value"] = str(checks.rational(entry["value"]) + Fraction(1, 3))
    assert checks.check_tree(payload["tree"], case.poly, case.target, True)


def test_tracer_catches_every_binding_and_removes_its_wrappers():
    program = run.load_program()
    polynomials = sys.modules["berncert.polynomials"]
    certify_module = sys.modules["berncert.certify"]
    original_mul = vars(polynomials.Polynomial)["__mul__"]
    original_new = vars(Fraction)["__new__"]
    case = next(c for c in corpus.tri_search(1) if c.name == "split-demo")
    with tracing.Tracer() as tracer:
        assert tracing.leftover_wrappers()
        run.call_cli(program["cli"], case.argv)
        2 * polynomials.Polynomial.variable(2, 0)
    metrics = tracer.layer_metrics()
    assert [*metrics, "trace.overhead_ratio"] == [n for n, _, _ in tracing.layer_units()]
    # certify reaches to_bernstein through its own `from .bernstein import` binding
    assert metrics["bernstein.to_bernstein.calls"] >= 1
    assert metrics["certify.nodes"] == 3
    assert metrics["polynomials.mul.calls"] >= 1
    assert tracing.leftover_wrappers() == []
    assert vars(polynomials.Polynomial)["__rmul__"] is original_mul
    assert vars(polynomials.Polynomial)["__mul__"] is original_mul
    assert certify_module.to_bernstein is sys.modules["berncert.bernstein"].to_bernstein
    assert vars(Fraction)["__new__"] is original_new


def test_metric_names_match_benchmark_json():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == run.END_TO_END
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == tracing.layer_units()
    for workload in run.WORKLOADS.values():
        assert set(workload.exercised) <= {m["name"] for m in spec["per_layer"]}
