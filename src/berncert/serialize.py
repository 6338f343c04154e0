"""Exact JSON encoding for every artifact the CLI can emit.

Rationals render as integers when the denominator is 1 and as "p/q"
strings otherwise, so nothing ever passes through a float.  Encoders
iterate in sorted (graded-lex) order and ``canonical_dumps`` fixes the
byte layout, which is what makes runs reproducible and digest-stable.
Decoders require an int wherever one is stored; its range is checked
by the form it builds or by ``verify_tree``'s replay.
"""

from __future__ import annotations

import hashlib
import json
from fractions import Fraction

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
    if value.denominator == 1:
        return int(value)
    return f"{value.numerator}/{value.denominator}"


def rational_from_json(value) -> Fraction:
    """An int, Fraction or exact literal string; anything else is a ValueError."""
    if isinstance(value, bool) or not isinstance(value, (int, Fraction, str)):
        raise ValueError(f"not a rational value: {value!r}")
    return as_rational(value)


def simplex_to_json(simplex: Simplex) -> dict:
    return {
        "vertices": [
            [rational_to_json(x) for x in vertex] for vertex in simplex.vertices
        ]
    }


def simplex_from_json(obj) -> Simplex:
    if isinstance(obj, dict):
        vertices = obj["vertices"]
    else:
        vertices = obj
    return Simplex(
        tuple(tuple(rational_from_json(x) for x in vertex) for vertex in vertices)
    )


def form_to_json(form: BernsteinForm) -> dict:
    return {
        "degree": form.degree,
        "simplex": simplex_to_json(form.system.simplex),
        "coefficients": [
            {"index": index, "value": rational_to_json(value)}
            for index, value in form.items_sorted()
        ],
    }


def form_from_json(obj) -> BernsteinForm:
    """The form a ``form_to_json`` payload encodes; an index listed twice is a ValueError."""
    simplex = simplex_from_json(obj["simplex"])
    coeffs = {}
    for entry in obj["coefficients"]:
        index = tuple(entry["index"])  # checked by the form
        if index in coeffs:
            raise ValueError(f"coefficient index {list(index)} is listed twice")
        coeffs[index] = rational_from_json(entry["value"])
    return BernsteinForm(barycentric_system(simplex), obj["degree"], coeffs)


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
    """json.loads with float literals parsed as exact Fractions."""
    return json.loads(text, parse_float=Fraction)
