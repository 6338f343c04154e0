"""Exact JSON encoding for every artifact the CLI can emit.

Rationals render as integers when the denominator is 1 and as "p/q"
strings otherwise, so nothing ever passes through a float.  Encoders
iterate in sorted (graded-lex) order and ``canonical_dumps`` fixes the
byte layout, which is what makes runs reproducible and digest-stable.
Decoders require an int wherever one is stored; its range is checked
by the form it builds or by ``verify_tree``'s replay.

Simplices and forms are written and read in their integer form: each
value is reduced with one gcd on the way out, and an int or "p/q"
literal is read as ints on the way in, so no node builds a ``Fraction``.
Any other literal goes through ``rational_from_json``.  Every index
(an index listed twice included), degree and vertex is checked by the
types' own checked constructors (``BernsteinForm._from_ratios``,
``Simplex._from_ints``); the simplex decoder checks only the payload's
shape.
"""

from __future__ import annotations

import hashlib
import json
import re
from fractions import Fraction
from math import gcd, lcm

from .bernstein import BernsteinForm, CertKind, CertStatus
from .certify import CertificateTree, EdgeSplit, Elevation
from .polynomials import as_int, as_rational
from .simplices import Simplex, barycentric_system

__all__ = [
    "rational_to_json",
    "rational_from_json",
    "simplex_to_json",
    "simplex_from_json",
    "form_to_json",
    "form_from_json",
    "status_to_json",
    "status_from_json",
    "split_to_json",
    "split_from_json",
    "tree_to_json",
    "tree_from_json",
    "canonical_dumps",
    "digest",
    "parse_json_exact",
]


def rational_to_json(value: Fraction):
    value = as_rational(value)
    return _ratio_to_json(value.numerator, value.denominator)


def _ratio_to_json(num: int, den: int):
    """``rational_to_json(Fraction(num, den))`` for a positive int ``den``, with one gcd."""
    g = gcd(num, den)
    if g == den:
        return num // den
    return f"{num // g}/{den // g}"


def rational_from_json(value) -> Fraction:
    """An int, Fraction or exact literal string; anything else is a ValueError."""
    if isinstance(value, bool) or not isinstance(value, (int, Fraction, str)):
        raise ValueError(f"not a rational value: {value!r}")
    return as_rational(value)


_QUOTIENT = re.compile(r"(-?[0-9]+)/([0-9]+)")  # a subset of what Fraction reads


def _ratio_from_json(value) -> tuple[int, int]:
    """(numerator, positive denominator) of ``rational_from_json(value)``, its errors included."""
    if type(value) is int:
        return value, 1
    match = _QUOTIENT.fullmatch(value) if type(value) is str else None
    if match and int(match[2]):
        return int(match[1]), int(match[2])
    value = rational_from_json(value)
    return value.numerator, value.denominator


def simplex_to_json(simplex: Simplex) -> dict:
    den = simplex.den
    return {"vertices": [[_ratio_to_json(x, den) for x in v] for v in simplex.nums]}


def simplex_from_json(obj) -> Simplex:
    """A list of vertex lists, or an object whose "vertices" is one; else a ValueError."""
    vertices = obj.get("vertices") if isinstance(obj, dict) else obj
    if not isinstance(vertices, list) or not all(isinstance(v, list) for v in vertices):
        raise ValueError('a simplex is a list of vertex lists or {"vertices": [vertex lists]}')
    rows = [[_ratio_from_json(x) for x in vertex] for vertex in vertices]
    den = lcm(*(d for row in rows for _, d in row))
    return Simplex._from_ints(den, tuple(tuple(n * (den // d) for n, d in row) for row in rows))


def form_to_json(form: BernsteinForm) -> dict:
    den = form.den
    return {
        "degree": form.degree,
        "simplex": simplex_to_json(form.system.simplex),
        "coefficients": [
            {"index": index, "value": _ratio_to_json(num, den)}
            for index, num in sorted(form.nums.items())  # one degree: graded-lex is lex
        ],
    }


def form_from_json(obj) -> BernsteinForm:
    """The form a ``form_to_json`` payload encodes; an index listed twice is a ValueError."""
    system = barycentric_system(simplex_from_json(obj["simplex"]))
    pairs = ((entry["index"], entry["value"]) for entry in obj["coefficients"])
    return BernsteinForm._from_ratios(system, obj["degree"], pairs, _ratio_from_json)


def status_to_json(status: CertStatus) -> dict:
    return {
        "kind": status.kind.value,
        "negative_indices": list(status.negative_indices),
    }


def status_from_json(obj) -> CertStatus:
    return CertStatus(
        CertKind(obj["kind"]),
        tuple(
            tuple(as_int(a, "negative index entry", minimum=None) for a in index)
            for index in obj["negative_indices"]
        ),
    )


def split_to_json(split) -> dict | None:
    if split is None:
        return None
    if isinstance(split, EdgeSplit):
        return {
            "kind": "edge",
            "i": split.i,
            "j": split.j,
            "theta": rational_to_json(split.theta),
        }
    if isinstance(split, Elevation):
        return {"kind": "elevation", "steps": split.steps}
    raise ValueError(f"unknown split record: {split!r}")


def split_from_json(obj):
    if obj is None:
        return None
    if obj["kind"] == "edge":
        return EdgeSplit(
            as_int(obj["i"], "edge slot", minimum=None),
            as_int(obj["j"], "edge slot", minimum=None),
            rational_from_json(obj["theta"]),
        )
    if obj["kind"] == "elevation":
        return Elevation(as_int(obj["steps"], "elevation steps", minimum=None))
    raise ValueError(f"unknown split record: {obj!r}")


def tree_to_json(tree: CertificateTree) -> dict:
    node = form_to_json(tree.form)
    node["status"] = status_to_json(tree.status)
    node["split"] = split_to_json(tree.split)
    node["children"] = [tree_to_json(child) for child in tree.children]
    return node


def tree_from_json(obj) -> CertificateTree:
    return CertificateTree(
        form_from_json(obj),
        status_from_json(obj["status"]),
        split_from_json(obj["split"]),
        tuple(tree_from_json(child) for child in obj["children"]),
    )


def canonical_dumps(obj) -> str:
    """The one true byte layout: compact separators, sorted keys, no floats."""
    return json.dumps(obj, separators=(",", ":"), sort_keys=True, allow_nan=False)


def digest(obj) -> str:
    return hashlib.sha256(canonical_dumps(obj).encode("utf-8")).hexdigest()


def parse_json_exact(text: str):
    """json.loads with float literals read as exact Fractions by ``as_rational``."""
    return json.loads(text, parse_float=as_rational)
