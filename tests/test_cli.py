import hashlib
import json
from fractions import Fraction

import pytest

from berncert import COUNTEREXAMPLE_TEXT, standard_simplex
from berncert.cli import main
from berncert.serialize import form_from_json, parse_json_exact, tree_from_json

DEMO = "x1^2 + x2^2 - x1*x2"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_convert_demo(capsys):
    code, out, err = run(
        capsys, "convert", DEMO, "--simplex", "std2", "--degree", "2"
    )
    assert code == 0
    assert err == ""
    assert "b(0, 1, 1) = -1/2" in out
    assert "b(0, 2, 0) = 1" in out
    assert "b(0, 0, 2) = 1" in out
    assert "nonzero coefficients: 3" in out


def test_convert_constant_all_ones(capsys):
    code, out, _ = run(capsys, "convert", "1", "--simplex", "std2", "--degree", "3")
    assert code == 0
    assert out.count("= 1\n") == 10  # C(5,2) indices, all coefficients 1


def test_convert_json_round_trips(capsys):
    code, out, _ = run(
        capsys, "convert", DEMO, "--simplex", "std2", "--degree", "2", "--json"
    )
    assert code == 0
    form = form_from_json(parse_json_exact(out))
    assert form.coefficient((0, 1, 1)) == Fraction(-1, 2)
    assert form.system.simplex == standard_simplex(2)


def test_convert_default_simplex_matches_variables(capsys):
    code, out, _ = run(capsys, "convert", "x1 + x2 + x3", "--json")
    assert code == 0
    payload = parse_json_exact(out)
    assert len(payload["simplex"]["vertices"]) == 4


def test_exit_code_parse_error(capsys):
    code, out, err = run(capsys, "convert", "x1 + %", "--simplex", "std2")
    assert code == 2
    assert out == ""  # nothing on stdout when the run fails
    assert "error:" in err


def test_exit_code_degree_too_low(capsys):
    code, out, err = run(
        capsys, "convert", "x1^4", "--simplex", "std2", "--degree", "2"
    )
    assert code == 3
    assert out == ""
    assert "degree" in err


def test_exit_code_degenerate_simplex(capsys):
    code, out, err = run(
        capsys, "convert", "x1 + x2", "--simplex", "[[0,0],[1,0],[2,0]]"
    )
    assert code == 4
    assert out == ""
    assert "degenerate" in err


def test_exit_code_zero_denominator_in_simplex(capsys):
    code, out, err = run(capsys, "convert", "x1", "--simplex", '[["1/0"],[1]]')
    assert code == 2  # not 1, which means Exhausted
    assert out == ""
    assert err.startswith("error:")


def test_exit_code_recursion_limit(capsys):
    code, out, err = run(capsys, "certify", "x1 - 1/2", "--max-depth", "1200")
    assert code == 5  # not 1, which means Exhausted
    assert out == ""
    assert err.startswith("error:") and err.count("\n") == 1


def test_simplex_from_file(tmp_path, capsys):
    spec = tmp_path / "simplex.json"
    spec.write_text('{"vertices": [[0, 0], [1, 0], [0, 1]]}')
    code, out, _ = run(
        capsys, "convert", DEMO, "--simplex", f"@{spec}", "--degree", "2"
    )
    assert code == 0
    assert "b(0, 1, 1) = -1/2" in out


def test_restrict_to_subsimplex(capsys):
    code, out, _ = run(
        capsys,
        "restrict",
        DEMO,
        "--simplex",
        "std2",
        "--to",
        '[[0,0],[1,0],["1/2","1/2"]]',
    )
    assert code == 0
    assert "b(0, 0, 2) = 1/4" in out
    assert "b(0, 1, 1) = 1/4" in out


def test_elevate(capsys):
    code, out, _ = run(capsys, "elevate", DEMO, "--simplex", "std2", "--by", "2")
    assert code == 0
    assert "degree: 4" in out
    code2, _, err = run(capsys, "elevate", DEMO, "--by", "0")
    assert code2 == 2
    assert "--by" in err


def test_certify_demo_succeeds(capsys):
    code, out, _ = run(
        capsys, "certify", DEMO, "--simplex", "std2", "--target", "nonneg"
    )
    assert code == 0
    assert "status: Certified" in out


def test_certify_counterexample_exhausts(capsys):
    code, out, _ = run(
        capsys,
        "certify",
        COUNTEREXAMPLE_TEXT,
        "--simplex",
        "std2",
        "--max-depth",
        "2",
    )
    assert code == 1
    assert "status: Exhausted" in out
    assert "frontier" in out


def test_certify_positive_target_reports_a_zero_coefficient(capsys):
    argv = ["certify", "x1^2", "--target", "positive", "--max-depth", "2"]
    code, out, err = run(capsys, *argv)
    assert (code, err) == (1, "")
    assert "status: Exhausted" in out
    assert (
        "frontier: 1 leaf/leaves short of the target (0 indeterminate, 1 nonnegative)"
        in out.splitlines()
    )
    assert "b(1, 1) = 0 (0 negative)" in out
    code, out, err = run(capsys, *argv, "--json")
    assert (code, err) == (1, "")
    payload = parse_json_exact(out)
    assert payload["status"] == "exhausted"
    assert payload["failing"] == [{"path": [0, 0], "negative_indices": []}]


def test_certify_json_is_byte_identical_across_runs(capsys):
    argv = [
        "certify",
        COUNTEREXAMPLE_TEXT,
        "--simplex",
        "std2",
        "--max-depth",
        "2",
        "--json",
    ]
    code1, out1, _ = run(capsys, *argv)
    code2, out2, _ = run(capsys, *argv)
    assert code1 == code2 == 1
    assert out1 == out2
    assert out1.endswith("\n")
    tree = tree_from_json(parse_json_exact(out1)["tree"])
    assert tree.form.degree == 4


def test_manifest_digest_matches_stdout_and_ignores_time(tmp_path, capsys):
    m1 = tmp_path / "m1.json"
    m2 = tmp_path / "m2.json"
    argv = ["certify", DEMO, "--simplex", "std2", "--json"]
    _, out, _ = run(capsys, *argv, "--manifest", str(m1))
    run(capsys, *argv, "--manifest", str(m2))
    manifest1 = json.loads(m1.read_text())
    manifest2 = json.loads(m2.read_text())
    assert manifest1["digest"] == manifest2["digest"]
    body = out.rstrip("\n").encode("utf-8")
    assert manifest1["digest"] == hashlib.sha256(body).hexdigest()
    assert manifest1["command"] == "certify"
    assert manifest1["inputs"]["polynomial"] == DEMO
    assert "timestamp" in manifest1


def test_manifest_written_for_human_output_too(tmp_path, capsys):
    m1 = tmp_path / "m1.json"
    code, out, _ = run(
        capsys, "convert", DEMO, "--simplex", "std2", "--manifest", str(m1)
    )
    assert code == 0
    assert "degree: 2" in out  # human table on stdout
    manifest = json.loads(m1.read_text())
    assert len(manifest["digest"]) == 64


def test_paper_flags_known_mismatches(capsys):
    code, out, _ = run(capsys, "paper")
    assert code == 1
    assert "== persistence ==" in out
    assert "MISMATCH" in out
    assert out.count("MISMATCH") == 7


def test_paper_json(capsys):
    code, out, _ = run(capsys, "paper", "--json")
    assert code == 1
    report = json.loads(out)
    assert report["all_match"] is False
    assert len(report["persistence"]["rows"]) == 17


def test_unknown_command_exits_2(capsys):
    with pytest.raises(SystemExit) as info:
        main(["frobnicate"])
    assert info.value.code == 2


def test_certify_strategy_flags(capsys):
    for strategy in ("bisect", "witness", "elevate", "elevate-split"):
        code, out, _ = run(
            capsys,
            "certify",
            COUNTEREXAMPLE_TEXT,
            "--simplex",
            "std2",
            "--max-depth",
            "2",
            "--max-degree",
            "5",
            "--strategy",
            strategy,
        )
        assert code == 1
        assert "Exhausted" in out
