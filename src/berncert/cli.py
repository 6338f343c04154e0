"""Command-line driver.

Commands: convert, restrict, elevate, certify, verify, paper.  All output is
deterministic; machine mode (--json) prints one canonical compact JSON
document whose sha256 is the digest recorded in the optional run
manifest.  Errors go to standard error only and nothing is printed to
standard output on a failed run.

Exit codes: 0 success/Certified, 1 Exhausted or report mismatch,
2 bad input (unparseable, an invalid value, a literal's exponent beyond
the integer digit limit, a text naming more than ``linalg.MAX_UNKNOWNS``
variables, refused as it is read, a form with more than
``bernstein.MAX_COEFFICIENTS`` coefficients to convert or elevate to,
which certify checks for its --max-degree before the search, or a
linear system with more than ``linalg.MAX_UNKNOWNS`` unknowns, checked
before a stdN simplex or the matrix is built),
3 requested degree below the polynomial degree, 4 degenerate simplex,
5 the recursion limit reached by certify's search, 6 a certificate that
``verify`` rejects for the given polynomial and simplex (``verify``
exits 0 when it proves the target and 1 when it is a consistent
exhausted certificate).
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from datetime import datetime, timezone
from pathlib import Path

from .bernstein import BernsteinForm, DegreeTooLowError, degree_elevate, to_bernstein
from .certify import (
    CertifyConfig,
    Strategy,
    Target,
    _most_negative,
    certify,
    failing_leaves,
    walk,
)
from .check import CertificateRejected, check_certificate
from .counterexample import render_report, reproduce_report
from .polynomials import Polynomial, parse_polynomial
from .serialize import (
    canonical_dumps,
    digest,
    failing_to_json,
    form_to_json,
    parse_json_exact,
    simplex_from_json,
    tree_to_json,
)
from .simplices import (
    DegenerateSimplexError,
    Simplex,
    barycentric_system,
    standard_simplex,
)

__all__ = ["main"]

_TARGET_ALIASES = {"pos": Target.POSITIVE.value, "nonneg": Target.NONNEGATIVE.value}

# exit codes of the errors that are not plain bad input (2)
_EXIT_CODES = {DegreeTooLowError: 3, DegenerateSimplexError: 4, CertificateRejected: 6}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="berncert",
        description=(
            "Exact certificates of polynomial positivity in the simplicial "
            "Bernstein basis."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_output(p: argparse.ArgumentParser) -> None:
        p.add_argument("--json", action="store_true", help="print canonical JSON")
        p.add_argument(
            "--manifest",
            default=None,
            metavar="PATH",
            help="write a run manifest (command echo, timestamp, result digest)",
        )

    def add_target(p: argparse.ArgumentParser, default, help: str) -> None:
        # an alias is resolved as it is read, so every later reader sees the canonical name
        p.add_argument(
            "--target",
            type=lambda text: _TARGET_ALIASES.get(text, text),
            choices=sorted([t.value for t in Target] + list(_TARGET_ALIASES)),
            default=default,
            help=help,
        )

    def add_common(p: argparse.ArgumentParser, with_degree: bool = True) -> None:
        p.add_argument(
            "polynomial",
            help='polynomial text, e.g. "x1^2 + x2^2 - x1*x2" (variables x1..xn)',
        )
        p.add_argument(
            "--simplex",
            default=None,
            metavar="SPEC",
            help=(
                "stdN for the standard N-simplex, inline JSON vertex list, or "
                "@FILE with JSON; default: standard simplex matching the "
                "polynomial's variables"
            ),
        )
        if with_degree:
            p.add_argument(
                "--degree",
                type=int,
                default=None,
                help="Bernstein degree (default: the polynomial's degree)",
            )
        add_output(p)

    p_convert = sub.add_parser(
        "convert", help="expand a polynomial in the Bernstein basis"
    )
    add_common(p_convert)

    p_restrict = sub.add_parser(
        "restrict", help="re-expand a Bernstein form on a sub-simplex"
    )
    add_common(p_restrict)
    p_restrict.add_argument(
        "--to",
        required=True,
        metavar="SPEC",
        help="target simplex (same formats as --simplex)",
    )

    p_elevate = sub.add_parser("elevate", help="raise the Bernstein degree")
    add_common(p_elevate)
    p_elevate.add_argument(
        "--by", type=int, default=1, help="number of elevation steps (default 1)"
    )

    p_certify = sub.add_parser(
        "certify", help="search for a positivity/nonnegativity certificate"
    )
    add_common(p_certify, with_degree=False)
    p_certify.add_argument(
        "--max-depth", type=int, default=8, help="edge-split budget (default 8)"
    )
    p_certify.add_argument(
        "--max-degree",
        type=int,
        default=None,
        help="elevation cap (default: the starting degree)",
    )
    p_certify.add_argument(
        "--strategy",
        choices=sorted(s.value for s in Strategy),
        default="witness",
        help="refinement strategy (default witness)",
    )
    add_target(p_certify, "nonnegative", "certificate target (default nonnegative)")

    p_verify = sub.add_parser(
        "verify",
        help="check a certify --json certificate against a polynomial and simplex",
    )
    p_verify.add_argument("certificate", metavar="CERT", help="certify --json output file")
    add_common(p_verify, with_degree=False)
    add_target(p_verify, None, "target to prove (default: the certificate's own)")

    p_paper = sub.add_parser(
        "paper",
        help=(
            "re-derive the bundled study's values and flag each row "
            "MATCH/MISMATCH"
        ),
    )
    add_output(p_paper)

    return parser


_PARSER = _build_parser()


def _read_json(text: str, what: str):
    """``text`` parsed exactly; bad or too deeply nested JSON is bad input naming ``what``."""
    try:
        return parse_json_exact(text)
    except json.JSONDecodeError as exc:
        raise ValueError(f"{what} is not valid JSON: {exc}") from exc
    except RecursionError as exc:
        raise ValueError(f"{what} is nested too deeply to parse") from exc


def _parse_simplex_spec(spec: str) -> Simplex:
    match = re.fullmatch(r"std(\d+)", spec)
    if match:
        return standard_simplex(int(match.group(1)))
    if spec.startswith("@"):
        spec = Path(spec[1:]).read_text(encoding="utf-8")
    return simplex_from_json(_read_json(spec, "simplex spec"))


def _load_inputs(args) -> tuple[Polynomial, Simplex]:
    if args.simplex is None:
        p = parse_polynomial(args.polynomial)
        return p, standard_simplex(p.num_vars)
    simplex = _parse_simplex_spec(args.simplex)
    p = parse_polynomial(args.polynomial, num_vars=simplex.dimension)
    return p, simplex


def _root_form(args, on: Simplex | None = None) -> BernsteinForm:
    """P's form on ``on``, or on the --simplex input when ``on`` is None."""
    p, simplex = _load_inputs(args)
    degree = p.degree if args.degree is None else args.degree
    system = barycentric_system(simplex if on is None else on)
    return to_bernstein(p, system, degree)


def _render_form(form: BernsteinForm) -> str:
    lines = [
        f"degree: {form.degree}",
        f"simplex: {form.simplex}",
        f"nonzero coefficients: {len(form.nums)}",
    ]
    for index, value in sorted(form.coeffs.items()):  # one degree: graded-lex is lex
        lines.append(f"  b{index} = {value}")
    return "\n".join(lines)


def _cmd_convert(args) -> tuple[dict, str, int]:
    form = _root_form(args)
    return form_to_json(form), _render_form(form), 0


def _cmd_restrict(args) -> tuple[dict, str, int]:
    # P's form on --simplex, re-expanded on --to, is P's form on --to
    restricted = _root_form(args, on=_parse_simplex_spec(args.to))
    return form_to_json(restricted), _render_form(restricted), 0


def _cmd_elevate(args) -> tuple[dict, str, int]:
    if args.by < 1:
        raise ValueError("--by must be >= 1")
    form = _root_form(args)
    elevated = degree_elevate(form, args.by)
    return form_to_json(elevated), _render_form(elevated), 0


def _cmd_certify(args) -> tuple[dict, str, int]:
    p, simplex = _load_inputs(args)
    config = CertifyConfig(
        max_depth=args.max_depth,
        max_degree=args.max_degree,
        strategy=args.strategy,
        target=args.target,
    )
    tree = certify(p, simplex, config)
    frontier = failing_leaves(tree, config.target)
    certified = not frontier
    max_degree = config.degree_cap(p.degree)
    payload = {
        "status": "certified" if certified else "exhausted",
        "target": config.target.value,
        "strategy": config.strategy.value,
        "max_depth": config.max_depth,
        "max_degree": max_degree,
        "failing": failing_to_json(frontier),
    }
    if args.json or args.manifest is not None:  # text mode prints no tree
        payload["tree"] = tree_to_json(tree)

    nodes = leaves = height = 0
    for path, node in walk(tree):
        nodes += 1
        leaves += not node.children
        height = max(height, len(path))
    lines = [
        f"status: {'Certified' if certified else 'Exhausted'}",
        f"target: {config.target.value}",
        f"strategy: {config.strategy.value}",
        f"budget: max-depth {config.max_depth}, max-degree {max_degree}",
        f"tree: {nodes} node(s), {leaves} leaf/leaves, height {height}",
    ]
    if frontier:
        negative = sum(1 for _, leaf in frontier if leaf.status.negative_indices)
        lines.append(
            f"frontier: {len(frontier)} leaf/leaves short of the target "
            f"({negative} indeterminate, {len(frontier) - negative} nonnegative)"
        )
        for path, leaf in frontier[:10]:
            if leaf.status.negative_indices:
                worst = _most_negative(leaf.form, leaf.status)
            else:  # nonnegative but not positive: show its first zero coefficient
                worst = next(i for i in leaf.form.indices() if i not in leaf.form.nums)
            route = ".".join(str(step) for step in path) or "root"
            lines.append(
                f"  path {route} degree {leaf.form.degree} simplex "
                f"{leaf.simplex}: b{worst} = "
                f"{leaf.form.coefficient(worst)} "
                f"({len(leaf.status.negative_indices)} negative)"
            )
        if len(frontier) > 10:
            lines.append(f"  ... and {len(frontier) - 10} more")
    return payload, "\n".join(lines), 0 if certified else 1


def _cmd_verify(args) -> tuple[dict, str, int]:
    p, simplex = _load_inputs(args)
    payload = _read_json(Path(args.certificate).read_text(encoding="utf-8"), "certificate")
    outcome = check_certificate(payload, p, simplex, args.target)
    target = args.target or payload["target"]  # the payload's, once the check has read it
    lines = [
        f"status: {outcome.capitalize()}",
        f"target: {target}",
        f"polynomial: {p}",
        f"simplex: {simplex}",
    ]
    result = {"status": outcome, "target": target}
    return result, "\n".join(lines), 0 if outcome == "certified" else 1


def _cmd_paper(args) -> tuple[dict, str, int]:
    report = reproduce_report()
    return report, render_report(report), 0 if report["all_match"] else 1


def _write_manifest(args, payload: dict) -> None:
    echo = {
        key: value
        for key, value in sorted(vars(args).items())
        if key not in ("command", "json", "manifest") and value is not None
    }
    manifest = {
        "command": args.command,
        "inputs": echo,
        "digest": digest(payload),
        "timestamp": datetime.now(timezone.utc).isoformat(timespec="seconds"),
    }
    Path(args.manifest).write_text(
        json.dumps(manifest, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )


_COMMANDS = {
    "convert": _cmd_convert,
    "restrict": _cmd_restrict,
    "elevate": _cmd_elevate,
    "certify": _cmd_certify,
    "verify": _cmd_verify,
    "paper": _cmd_paper,
}


def main(argv=None) -> int:
    args = _PARSER.parse_args(argv)
    try:
        payload, text, code = _COMMANDS[args.command](args)
        if args.manifest is not None:
            _write_manifest(args, payload)
    except RecursionError:
        print("error: search nested deeper than the recursion limit", file=sys.stderr)
        return 5
    except (ValueError, TypeError, KeyError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return next(
            (status for kind, status in _EXIT_CODES.items() if isinstance(exc, kind)), 2
        )
    if args.json:
        sys.stdout.write(canonical_dumps(payload) + "\n")
    else:
        sys.stdout.write(text + "\n")
    return code
