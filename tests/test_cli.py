import hashlib
import json
import os
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest

from berncert import COUNTEREXAMPLE_TEXT, cli, standard_simplex
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
    for argv in (
        ["convert", "x1^4", "--simplex", "std2", "--degree", "2"],
        ["certify", "x1^4", "--max-degree", "2"],
    ):
        code, out, err = run(capsys, *argv)
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


def test_exit_code_bad_simplex_spec(tmp_path, capsys):
    deep = tmp_path / "deep.json"  # nested past the recursion limit: no search ran, so not 5
    deep.write_text("[" * 50_000 + "]" * 50_000)
    for argv in (
        ["convert", "x1", "--simplex", "[[0],"],  # not JSON
        ["convert", "x1", "--simplex", "std0"],
        ["restrict", "x1^2 + x2", "--to", "std3"],  # not the polynomial's dimension
        ["convert", "x1", "--simplex", f"@{deep}"],
        ["restrict", DEMO, "--to", f"@{deep}"],
        ["convert", "x1", "--simplex", "5"],  # JSON, but not a list of vertex lists
        ["convert", "x1", "--simplex", '{"a": 1}'],
        ["convert", "x1", "--simplex", '"std1"'],
    ):
        code, out, err = run(capsys, *argv)
        assert code == 2
        assert out == ""
        assert err.startswith("error:")


def test_exit_code_form_too_large(capsys):
    # rejected from the coefficient count C(n+d, n) before any index is enumerated
    for argv, degree in (
        (["convert", "x1^99999999999"], 99999999999),
        (["elevate", "x1", "--by", "99999999999"], 100000000000),
        # the cap is checked before the search, not when an elevation reaches it
        (["certify", DEMO, "--target", "pos", "--strategy", "elevate", "--max-degree", "120"], 120),
    ):
        start = time.perf_counter()
        code, out, err = run(capsys, *argv)
        assert time.perf_counter() - start < 1
        assert code == 2
        assert out == ""
        assert err.startswith("error:") and err.count("\n") == 1
        assert f"a degree-{degree} form" in err and "coefficients" in err


def test_module_entry_point_passes_the_exit_code():
    src = Path(__file__).resolve().parents[1] / "src"
    # the interpreter's default integer digit limit, which bounds a literal's exponent
    env = {**os.environ, "PYTHONPATH": str(src), "PYTHONINTMAXSTRDIGITS": "4300"}

    def module(*argv):
        return subprocess.run(
            [sys.executable, "-m", "berncert", *argv],
            capture_output=True,
            text=True,
            env=env,
            timeout=2,
        )

    ok = module("certify", "x1", "--json")
    assert ok.returncode == 0
    assert json.loads(ok.stdout)["status"] == "certified"
    degenerate = module("convert", "x1", "--simplex", "[[0],[0]]")
    assert degenerate.returncode == 4
    assert degenerate.stdout == ""
    assert degenerate.stderr.startswith("error:")
    # refused before the work, which would take seconds and up to a gigabyte:
    # building 10^exponent in full, or the default 6000-dimensional simplex
    for argv, named in (
        (["convert", "x1", "--simplex", "[[0],[1e10000000]]"], "exceeds 4300"),
        (["convert", "x1", "--simplex", '[[0],["1e10000000"]]'], "exceeds 4300"),
        (["convert", "x1", "--simplex", "[[0],[1e-10000000]]"], "exceeds 4300"),
        (["convert", "x6000"], "has 6001 coefficients"),
    ):
        start = time.perf_counter()
        refused = module(*argv)
        assert time.perf_counter() - start < 2
        assert refused.returncode == 2
        assert refused.stdout == ""
        assert refused.stderr.startswith("error:") and refused.stderr.count("\n") == 1
        assert named in refused.stderr


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


def test_restrict_matches_convert_on_the_target_simplex(capsys):
    target = '[[0,0],[1,0],["1/2","1/2"]]'
    for degree in ([], ["--degree", "2"], ["--degree", "5"]):
        converted = run(capsys, "convert", DEMO, "--simplex", target, *degree, "--json")
        assert converted[0] == 0
        for source in ("std2", '[[-1,0],[2,0],[0,"3/2"]]'):
            restricted = run(
                capsys, "restrict", DEMO, "--simplex", source, "--to", target,
                *degree, "--json",
            )
            assert restricted == converted


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


def test_certify_frontier_shows_ten_leaves_and_counts_the_rest(capsys):
    argv = ["certify", "x1^2*x2^2", "--target", "positive", "--strategy", "bisect"]
    code, out, err = run(capsys, *argv, "--max-depth", "4")
    assert (code, err) == (1, "")
    lines = out.splitlines()
    assert (
        "frontier: 12 leaf/leaves short of the target (0 indeterminate, 12 nonnegative)"
        in lines
    )
    assert sum(line.startswith("  path ") for line in lines) == 10
    assert lines[-1] == "  ... and 2 more"


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


def test_paper_json_bytes_are_pinned(capsys):
    # the study's recorded output: any changed byte of `paper --json` fails here
    _, out, _ = run(capsys, "paper", "--json")
    digest = hashlib.sha256(out.rstrip("\n").encode()).hexdigest()
    assert digest == "eb7a0fdf4f9532a7411411f730beac6e76ff0c119cd11bba657ad876ffe8f8a1"


def test_text_output_bytes_are_pinned(capsys):
    # the text mode of each command: any changed byte fails here
    to = '[[0,0],[1,0],["1/2","1/2"]]'
    for argv, status, expected in (
        (
            ["convert", DEMO, "--simplex", "std2", "--degree", "3"],
            0,
            "1b9037a6bcebbf80847b3a47a3d5722208957cc2454b8158d8681b5082c86a03",
        ),
        (
            ["restrict", DEMO, "--simplex", "std2", "--to", to],
            0,
            "120609f2eb36e14db4751fb3c19ebabf3a0155ac626fa5ae4726836a8511b4f3",
        ),
        (
            ["elevate", DEMO, "--simplex", "std2", "--by", "2"],
            0,
            "fae6dbe9f7d0e9b5023660c1d61c1c76a46ed29c756ec30e885909ef516dbb49",
        ),
        (  # Certified
            ["certify", DEMO, "--simplex", "std2"],
            0,
            "4283bf017914ff839275dae7032920cf138bc89dc92a3b0218ad75b715bb1093",
        ),
        (  # Exhausted, with its frontier lines
            ["certify", COUNTEREXAMPLE_TEXT, "--simplex", "std2", "--max-depth", "8"],
            1,
            "bae27eb5664c4c4218ebad37ca47b090f6657a6610fe78dc6c2a0b83a4d687c5",
        ),
    ):
        code, out, err = run(capsys, *argv)
        assert (code, err) == (status, "")
        assert hashlib.sha256(out.rstrip("\n").encode()).hexdigest() == expected, argv


def test_certify_builds_the_json_tree_only_when_printed_or_recorded(
    tmp_path, capsys, monkeypatch
):
    calls = []
    real = cli.tree_to_json
    monkeypatch.setattr(cli, "tree_to_json", lambda tree: calls.append(1) or real(tree))
    argv = ["certify", DEMO, "--simplex", "std2"]
    for extra, expected in (
        ([], 0),
        (["--json"], 1),
        (["--manifest", str(tmp_path / "m.json")], 1),
    ):
        calls.clear()
        assert run(capsys, *argv, *extra)[0] == 0
        assert len(calls) == expected, extra


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
