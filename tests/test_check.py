"""The closed-form conversion and the certificate checker bound to the caller's P and S."""

import copy
import json
import random
import re
from fractions import Fraction

import pytest

import berncert
from berncert import (
    COUNTEREXAMPLE_TEXT,
    SPLIT_DEMO_TEXT,
    CertificateRejected,
    CertifyConfig,
    DegreeTooLowError,
    Polynomial,
    Simplex,
    barycentric_system,
    cert_status,
    certify,
    check_certificate,
    counterexample_polynomial,
    format_polynomial,
    homogenised_form,
    parse_polynomial,
    standard_simplex,
    to_bernstein,
)
from berncert.bernstein import MAX_COEFFICIENTS
from berncert.cli import main
from berncert.serialize import form_to_json, parse_json_exact, status_to_json, tree_from_json
from helpers import rand_polynomial, rand_simplex
from test_bernstein import _rand_wide_simplex, _solve_oracle

STD2 = standard_simplex(2)
Q_TEXT = "x1^2 + x2^2 - x1*x2 + 1/100"


def _quartic3_text():
    """((x1 - 5/32)^2 + (x2 - 7/32)^2 + (x3 - 1/4)^2)^2 + 1/10: positive on std3."""
    xs = [Polynomial.variable(3, k) for k in range(3)]
    q = sum(((x - r) ** 2 for x, r in zip(xs, (Fraction(5, 32), Fraction(7, 32), Fraction(1, 4)))),
            Polynomial.zero(3))
    return format_polynomial(q * q + Fraction(1, 10))


# --- bernstein.homogenised_form, the checker's leaf conversion ----------------


def test_homogenised_form_matches_to_bernstein_and_the_full_solve():
    rng = random.Random(20261020)
    for n, max_degree in ((1, 4), (2, 3), (3, 2), (4, 1)):
        for simplex in (rand_simplex(rng, n=n), _rand_wide_simplex(rng, n)):
            system = barycentric_system(simplex)
            for p in (
                rand_polynomial(rng, num_vars=n, max_degree=max_degree),
                Polynomial.zero(n),
                Polynomial.constant(n, Fraction(-5, 3)),
            ):
                for degree in range(p.degree, p.degree + 5):
                    form = homogenised_form(p, simplex, degree)
                    assert form.degree == degree and form.simplex == simplex
                    assert form == to_bernstein(p, system, degree)
                    assert form.coeffs == _solve_oracle(p, system, degree)


def test_homogenised_form_matches_to_bernstein_on_the_counterexamples_leaves():
    p = counterexample_polynomial()
    leaves = list(certify(p, STD2, CertifyConfig(max_depth=8)).leaves())
    assert len(leaves) == 30
    for leaf in leaves:
        form = homogenised_form(p, leaf.simplex, leaf.form.degree)
        assert form == to_bernstein(p, leaf.form.system, leaf.form.degree)
        assert form == leaf.form


def test_homogenised_form_refuses_what_to_bernstein_refuses():
    p = parse_polynomial("x1^4 + x2", 2)
    for simplex, degree, kind in (
        (STD2, 3, DegreeTooLowError),  # below deg P
        (STD2, 99, ValueError),  # C(101, 2) = 5151 coefficients
        (standard_simplex(3), 4, ValueError),  # 2 variables on a 3-simplex
        (STD2, True, ValueError),  # a bool is not a degree
    ):
        with pytest.raises(kind) as expected:
            to_bernstein(p, barycentric_system(simplex), degree)
        with pytest.raises(kind) as got:
            homogenised_form(p, simplex, degree)
        assert type(got.value) is type(expected.value)
        assert str(got.value) == str(expected.value)
        if degree == 99:
            assert f"limit of {MAX_COEFFICIENTS}" in str(got.value)


def test_the_check_module_is_not_shadowed_by_a_function():
    # ``berncert.certify`` is the re-exported function; ``berncert.check`` stays the module
    assert berncert.check.__name__ == "berncert.check"
    assert not hasattr(berncert.check, "check")


# --- check_certificate -------------------------------------------------------


def _certificate(capsys, text, *argv):
    code = main(["certify", text, "--json", *argv])
    out = capsys.readouterr().out
    assert code in (0, 1)
    return parse_json_exact(out), code


STRATEGIES = (
    ["--strategy", "witness"],
    ["--strategy", "bisect"],
    ["--strategy", "elevate", "--max-degree", "7"],
    ["--strategy", "elevate-split", "--max-degree", "6", "--max-depth", "4"],
)


@pytest.mark.parametrize("extra", STRATEGIES, ids=lambda a: a[1])
@pytest.mark.parametrize(
    "text, target",
    [(COUNTEREXAMPLE_TEXT, "nonnegative"), (SPLIT_DEMO_TEXT, "nonnegative"),
     (_quartic3_text(), "positive")],
    ids=["counterexample", "split-demo", "quartic3"],
)
def test_check_certificate_accepts_every_strategys_certificate(capsys, text, target, extra):
    payload, code = _certificate(capsys, text, "--target", target, *extra)
    p = parse_polynomial(text)
    outcome = check_certificate(payload, p, standard_simplex(p.num_vars))
    assert outcome == payload["status"] == ("certified" if code == 0 else "exhausted")
    assert check_certificate(payload, p, standard_simplex(p.num_vars), target) == outcome


def test_check_certificate_reads_the_callers_target(capsys):
    payload, _ = _certificate(capsys, SPLIT_DEMO_TEXT)  # certified: nonnegative
    p = parse_polynomial(SPLIT_DEMO_TEXT)
    assert check_certificate(payload, p, STD2, "nonnegative") == "certified"
    assert check_certificate(payload, p, STD2, "positive") == "exhausted"  # a zero coefficient


def test_check_certificate_rejects_another_polynomials_certificate(capsys):
    payload, code = _certificate(capsys, Q_TEXT)
    q = parse_polynomial(Q_TEXT)
    assert code == 0 and check_certificate(payload, q, STD2) == "certified"
    with pytest.raises(CertificateRejected) as info:  # q's degree-2 leaves cannot hold P
        check_certificate(payload, counterexample_polynomial(), STD2)
    assert isinstance(info.value, ValueError)
    # at P's own degree the first leaf holds q's form, not P's
    p_form = parse_polynomial(SPLIT_DEMO_TEXT)
    with pytest.raises(CertificateRejected, match="path 0: the stored form is not the caller's"):
        check_certificate(payload, p_form, STD2)


def test_check_certificate_rejects_another_root_simplex(capsys):
    payload, _ = _certificate(capsys, SPLIT_DEMO_TEXT)
    p = parse_polynomial(SPLIT_DEMO_TEXT)
    other = Simplex(((0, 0), (2, 0), (0, 2)))
    with pytest.raises(CertificateRejected, match="at path root: simplex is not the caller's"):
        check_certificate(payload, p, other)
    with pytest.raises(ValueError, match="variable count mismatch"):  # the caller's own input
        check_certificate(payload, p, standard_simplex(3))


@pytest.mark.parametrize(
    "call",
    [
        lambda p, s: p + Polynomial.zero(s.dimension),
        lambda p, s: p * Polynomial.zero(s.dimension),
        lambda p, s: to_bernstein(p, barycentric_system(s), 2),
        lambda p, s: homogenised_form(p, s, 2),
        lambda p, s: check_certificate({}, p, s),  # before the payload is decoded
    ],
    ids=["add", "mul", "to_bernstein", "homogenised_form", "check_certificate"],
)
def test_one_variable_count_rule(call):
    p = parse_polynomial(Q_TEXT)
    with pytest.raises(ValueError) as info:
        call(p, standard_simplex(3))
    assert type(info.value) is ValueError  # not CertificateRejected
    assert str(info.value) == "variable count mismatch: 2 != 3"


def _nodes(tree, path=()):
    yield path, tree
    for idx, child in enumerate(tree["children"]):
        yield from _nodes(child, path + (idx,))


def _at(payload, path):
    node = payload["tree"]
    for idx in path:
        node = node["children"][idx]
    return node


def _mutations(payload):
    """(field, path, edit) for every single-field change of the certificate's values;
    ``edit(node)`` changes the node at ``path`` in place."""
    for path, node in _nodes(payload["tree"]):
        yield "degree", path, lambda n: n.update(degree=n["degree"] + 1)
        for v, vertex in enumerate(node["simplex"]["vertices"]):
            for c in range(len(vertex)):
                def shift(n, v=v, c=c):
                    n["simplex"]["vertices"][v][c] = Fraction(n["simplex"]["vertices"][v][c]) + 1
                yield "vertex", path, shift
        for kind in ("positive", "nonnegative", "indeterminate"):  # a fixed order, not a set's
            if kind != node["status"]["kind"]:
                yield "status", path, lambda n, kind=kind: n["status"].update(kind=kind)
        split = node["split"]
        if split is None:
            for e in range(len(node["coefficients"])):
                def nudge(n, e=e):
                    entry = n["coefficients"][e]
                    entry["value"] = Fraction(entry["value"]) + Fraction(1, 1024)
                yield "coefficient", path, nudge
            continue
        for idx in range(len(node["children"])):
            yield "child", path, lambda n, idx=idx: n["children"].pop(idx)
        if split["kind"] == "elevation":
            for steps in (0, split["steps"] + 1):
                yield "steps", path, lambda n, steps=steps: n["split"].update(steps=steps)
            continue
        for field in ("i", "j"):
            for slot in range(-1, len(node["simplex"]["vertices"]) + 1):
                if slot != split[field]:
                    yield field, path, lambda n, f=field, slot=slot: n["split"].update({f: slot})
        for theta in (0, "1/3", "3/4", 1):
            yield "theta", path, lambda n, theta=theta: n["split"].update(theta=theta)


@pytest.mark.parametrize(
    "extra, fields",
    [
        (["--max-depth", "2"], {"i", "j", "theta"}),
        (["--strategy", "elevate-split", "--max-degree", "3", "--max-depth", "1"],
         {"steps", "i", "j", "theta"}),
    ],
    ids=["witness", "elevate-split"],
)
def test_check_certificate_rejects_every_single_field_mutation(capsys, extra, fields):
    p = parse_polynomial(Q_TEXT)
    payload, _ = _certificate(capsys, Q_TEXT, *extra)
    assert check_certificate(payload, p, STD2) == payload["status"]
    seen = set()
    for field, path, edit in _mutations(payload):
        mutated = copy.deepcopy(payload)
        edit(_at(mutated, path))
        seen.add(field)
        try:
            check_certificate(mutated, p, STD2)
        except CertificateRejected:
            continue
        pytest.fail(f"accepted a changed {field} at {path}")
    assert seen == {"degree", "vertex", "status", "coefficient", "child"} | fields
    # the summary fields must be the tree's too
    flipped = {"certified": "exhausted", "exhausted": "certified"}[payload["status"]]
    fewer = payload["failing"][1:] or [{"path": [0], "negative_indices": []}]
    for field, value in (("status", flipped), ("failing", fewer)):
        mutated = copy.deepcopy(payload)
        mutated[field] = value
        with pytest.raises(CertificateRejected, match="at path root"):
            check_certificate(mutated, p, STD2)


def _node(p, simplex, degree, split=None, children=()):
    """A certificate node holding P's true form on the simplex."""
    form = homogenised_form(p, simplex, degree)
    node = form_to_json(form)
    node.update(status=status_to_json(cert_status(form)), split=split, children=list(children))
    return node


def test_check_certificate_rejects_records_whose_children_do_not_tile_the_simplex():
    # every leaf holds the constant's true positive form, so only the records are at fault
    one = Polynomial.constant(2, 1)
    v0, v1, v2 = STD2.vertices
    beyond, before = (2, 0), (-1, 0)  # w at theta = 2 and -1 on the edge (v0, v1)
    for split, children, named in (
        ({"kind": "edge", "i": 0, "j": 1, "theta": 2},
         [Simplex((v0, beyond, v2)), Simplex((beyond, v1, v2))], "split ratio 2"),
        ({"kind": "edge", "i": 0, "j": 1, "theta": -1},
         [Simplex((v0, before, v2)), Simplex((before, v1, v2))], "split ratio -1"),
        ({"kind": "edge", "i": 1, "j": 1, "theta": "1/2"}, [STD2, STD2], "edge (1, 1)"),
        ({"kind": "elevation", "steps": 0}, [STD2], "at least 1 step"),
    ):
        leaves = [_node(one, simplex, 1) for simplex in children]
        payload = {
            "status": "certified", "target": "nonnegative", "failing": [],
            "tree": _node(one, STD2, 1, split, leaves),
        }
        with pytest.raises(CertificateRejected, match=f"at path root: .*{re.escape(named)}"):
            check_certificate(payload, one, STD2)


def test_check_certificate_names_the_first_failing_path(capsys):
    p = parse_polynomial(Q_TEXT)
    payload, _ = _certificate(capsys, Q_TEXT, "--max-depth", "2")
    leaf = max((path for path, node in _nodes(payload["tree"]) if not node["children"]), key=len)
    _at(payload, leaf)["coefficients"][0]["value"] = 7
    with pytest.raises(CertificateRejected) as info:
        check_certificate(payload, p, STD2)
    assert info.value.path == leaf
    assert f"path {'.'.join(map(str, leaf))}:" in str(info.value)
    for bad in (None, [], {"tree": {}}, {"target": "positive"}, {"target": "x", "tree": {}}):
        with pytest.raises(CertificateRejected):
            check_certificate(bad, p, STD2)


def test_check_certificate_requires_lists_where_the_schema_has_lists(capsys):
    payload, _ = _certificate(capsys, SPLIT_DEMO_TEXT)
    p = parse_polynomial(SPLIT_DEMO_TEXT)
    leaf = next(path for path, node in _nodes(payload["tree"]) if not node["children"])
    assert payload["status"] == "certified" and _at(payload, leaf)["status"]["negative_indices"] == []
    for edit, named in (
        (lambda node: node.update(children={}), "children must be a list, not dict"),
        (lambda node: node["status"].update(negative_indices=""), "negative_indices must be a list, not str"),
    ):
        mutated = copy.deepcopy(payload)
        edit(_at(mutated, leaf))
        with pytest.raises(ValueError, match=named):  # the codec's reader, shared with verify_tree
            tree_from_json(mutated["tree"])
        with pytest.raises(CertificateRejected, match=f"at path root: .*{named}") as info:
            check_certificate(mutated, p, STD2)
        assert info.value.path == ()


def _degenerate_at_depth_2(capsys):
    payload, _ = _certificate(capsys, COUNTEREXAMPLE_TEXT, "--max-depth", "2")
    _at(payload, (0, 0))["simplex"]["vertices"] = [[0, 0], [1, 0], [2, 0]]
    return payload


def test_check_certificate_rejects_what_does_not_decode_at_the_root(capsys):
    p = counterexample_polynomial()
    with pytest.raises(CertificateRejected) as info:
        check_certificate(_degenerate_at_depth_2(capsys), p, STD2)
    assert info.value.path == ()
    assert str(info.value).startswith(
        "certificate rejected at path root: not a certify --json payload (DegenerateSimplexError("
    )
    # a chain of elevation records nested deeper than the decoder can recurse
    one = Polynomial.constant(2, 1)
    base = _node(one, STD2, 1)
    node = base
    for _ in range(3000):
        node = dict(base, split={"kind": "elevation", "steps": 1}, children=[node])
    payload = {"status": "certified", "target": "nonnegative", "failing": [], "tree": node}
    with pytest.raises(CertificateRejected) as info:
        check_certificate(payload, one, STD2)
    assert info.value.path == ()
    assert "not a certify --json payload (RecursionError(" in str(info.value)


# --- berncert verify ---------------------------------------------------------


def _run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_verify_exit_codes(tmp_path, capsys):
    cert = tmp_path / "demo.json"
    code, out, _ = _run(capsys, "certify", SPLIT_DEMO_TEXT, "--json")
    cert.write_text(out)
    exhausted = tmp_path / "ce.json"
    code, out, _ = _run(capsys, "certify", COUNTEREXAMPLE_TEXT, "--json")
    assert code == 1
    exhausted.write_text(out)
    garbled = tmp_path / "garbled.json"
    garbled.write_text(out[: len(out) // 2])

    code, out, err = _run(capsys, "verify", str(cert), SPLIT_DEMO_TEXT)
    assert (code, err) == (0, "")
    assert out.splitlines()[:2] == ["status: Certified", "target: nonnegative"]
    code, out, err = _run(capsys, "verify", str(cert), SPLIT_DEMO_TEXT, "--simplex", "std2", "--json")
    assert (code, err) == (0, "")
    assert json.loads(out) == {"status": "certified", "target": "nonnegative"}
    code, out, err = _run(capsys, "verify", str(cert), SPLIT_DEMO_TEXT, "--target", "pos")
    assert (code, out.splitlines()[:2]) == (1, ["status: Exhausted", "target: positive"])
    code, out, err = _run(capsys, "verify", str(exhausted), COUNTEREXAMPLE_TEXT)
    assert (code, err, out.splitlines()[0]) == (1, "", "status: Exhausted")

    for argv in (
        [str(cert), COUNTEREXAMPLE_TEXT],  # another polynomial
        [str(cert), SPLIT_DEMO_TEXT, "--simplex", '[[0,0],[2,0],[0,2]]'],  # another simplex
        [str(exhausted), SPLIT_DEMO_TEXT],
    ):
        code, out, err = _run(capsys, "verify", *argv)
        assert (code, out) == (6, ""), argv
        assert err.startswith("error: certificate rejected at path ") and err.count("\n") == 1

    for argv in (
        [str(garbled), SPLIT_DEMO_TEXT],  # not JSON
        [str(tmp_path / "missing.json"), SPLIT_DEMO_TEXT],
        [str(cert), "x1 +"],  # not a polynomial
        [str(cert), SPLIT_DEMO_TEXT, "--simplex", "[[0,0],[1,0]]"],  # not a simplex
    ):
        code, out, err = _run(capsys, "verify", *argv)
        assert (code, out) == (2, ""), argv
        assert err.startswith("error:") and err.count("\n") == 1
    code, out, err = _run(capsys, "verify", str(garbled), SPLIT_DEMO_TEXT)
    assert (code, out) == (2, "")
    assert err.startswith("error: certificate is not valid JSON: ") and err.count("\n") == 1
    degenerate = tmp_path / "degenerate.json"
    degenerate.write_text(json.dumps(_degenerate_at_depth_2(capsys)))
    code, out, err = _run(capsys, "verify", str(degenerate), COUNTEREXAMPLE_TEXT)
    assert (code, out) == (6, "")
    assert err.startswith("error: certificate rejected at path root: not a certify --json payload (")
    assert "DegenerateSimplexError" in err and err.count("\n") == 1
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 100000)
    code, out, err = _run(capsys, "verify", str(deep), SPLIT_DEMO_TEXT)
    assert (code, out, err) == (2, "", "error: certificate is nested too deeply to parse\n")
