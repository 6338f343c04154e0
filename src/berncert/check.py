"""A certificate checker bound to the caller's polynomial and simplex.

``check_certificate`` checks a ``certify --json`` payload against the
caller's P and S, not against its own root form.  It shares the codec's
reader, the engine's ``walk`` and its verdict and frontier rules, and keeps
its own copy of the three rules soundness needs independent of the search:
the edge geometry (``_children``), which replays the records on simplices
alone from S, so the leaves tile S; the sign classification (``_status``),
which every stored status must match; and the leaf comparison with
``bernstein.homogenised_form``, a conversion the search does not use.
"""

from __future__ import annotations

from math import comb

from .bernstein import BernsteinForm, homogenised_form
from .certify import EdgeSplit, Elevation, Target, failing_leaves, is_certified, walk
from .polynomials import Polynomial, _check_num_vars, same_values
from .serialize import failing_to_json, tree_from_json
from .simplices import Simplex

__all__ = ["CertificateRejected", "check_certificate"]


class CertificateRejected(ValueError):
    """The certificate does not prove what it claims for the caller's P and S.

    ``path`` is the child-index route from the root to the first failing node.
    """

    def __init__(self, path: tuple[int, ...], reason: str):
        route = ".".join(map(str, path)) or "root"
        super().__init__(f"certificate rejected at path {route}: {reason}")
        self.path = path


def _status(form: BernsteinForm) -> tuple[str, tuple]:
    """(kind, negative indices) of the full coefficient set, implicit zeros counted."""
    negatives = tuple(sorted(index for index, c in form.nums.items() if c < 0))
    if negatives:
        return "indeterminate", negatives
    full = comb(form.simplex.dimension + form.degree, form.degree)
    return ("positive" if len(form.nums) == full else "nonnegative"), ()


def _split_simplices(simplex: Simplex, split: EdgeSplit) -> tuple[Simplex, Simplex]:
    """The children of an edge split: w = (1-theta)*v_i + theta*v_j replaces v_j in
    the first and v_i in the second.  Their union is the simplex, their interiors
    are disjoint, and each is nondegenerate because 0 < theta < 1."""
    i, j, theta = split.i, split.j, split.theta
    n = simplex.dimension
    if not (0 <= i <= n and 0 <= j <= n and i != j):
        raise ValueError(f"edge ({i}, {j}) is not an edge of a simplex of dimension {n}")
    if not (0 < theta < 1):
        raise ValueError(f"split ratio {theta} is not strictly between 0 and 1")
    p, q = theta.numerator, theta.denominator
    vertices = [tuple(q * x for x in v) for v in simplex.nums]
    w = tuple((q - p) * a + p * b for a, b in zip(simplex.nums[i], simplex.nums[j]))
    den = simplex.den * q
    first, second = list(vertices), list(vertices)
    first[j] = second[i] = w
    return Simplex._canonical(den, tuple(first)), Simplex._canonical(den, tuple(second))


def _children(form: BernsteinForm, split) -> list[tuple[Simplex, int]]:
    """The (simplex, degree) each child must have by the node's record."""
    if split is None:
        return []
    if isinstance(split, Elevation):
        if split.steps < 1:
            raise ValueError(f"an elevation needs at least 1 step, got {split.steps}")
        return [(form.simplex, form.degree + split.steps)]
    return [(s, form.degree) for s in _split_simplices(form.simplex, split)]


def check_certificate(payload, p: Polynomial, simplex: Simplex, target=None) -> str:
    """Check a ``certify --json`` payload against the caller's P and S.

    Returns "certified" when every leaf meets ``target`` (a ``Target`` or
    its value; None means the payload's own target), else "exhausted".
    The payload's "status" and "failing" must be what its tree gives
    under the payload's "target".  Raises CertificateRejected, naming the
    first failing path, when the payload does not decode (at the root),
    the root simplex is not S, a record does not give its node's
    children, a node's status does not match its coefficients, or a
    leaf's form is not P's form on the leaf.  A P whose variable count
    is not S's dimension is a plain ValueError.
    """
    _check_num_vars(p.num_vars, simplex.dimension)
    try:
        claimed = Target(payload["target"])
        tree = tree_from_json(payload["tree"])
    except (TypeError, KeyError, ValueError, RecursionError) as exc:
        raise CertificateRejected((), f"not a certify --json payload ({exc!r})") from None
    target = claimed if target is None else Target(target)
    wanted = {(): (simplex, None)}  # path: the (simplex, degree) its parent's record gives
    for path, node in walk(tree):
        want_simplex, want_degree = wanted.pop(path)
        form, children = node.form, node.children
        try:
            if form.simplex != want_simplex:
                raise ValueError(
                    "simplex is not the caller's" if not path else
                    "simplex is not the one its parent's record gives"
                )
            if want_degree is not None and form.degree != want_degree:
                raise ValueError(f"degree {form.degree}, but its parent's record gives {want_degree}")
            expected = _children(form, node.split)
            if len(children) != len(expected):
                raise ValueError(f"{len(children)} children, but its record gives {len(expected)}")
            if not children and not same_values(form, homogenised_form(p, want_simplex, form.degree)):
                raise ValueError("the stored form is not the caller's polynomial on this leaf")
        except ValueError as exc:
            raise CertificateRejected(path, str(exc)) from None
        kind, negatives = _status(form)
        stored = node.status
        if (stored.kind.value, stored.negative_indices) != (kind, negatives):
            raise CertificateRejected(
                path,
                f"status ({stored.kind.value}, negative at {list(stored.negative_indices)}) does not "
                f"match its coefficients ({kind}, negative at {list(negatives)})",
            )
        wanted.update(((*path, idx), want) for idx, want in enumerate(expected))
    failing = failing_to_json(failing_leaves(tree, claimed))
    claim = "exhausted" if failing else "certified"
    if payload.get("status") != claim or payload.get("failing") != failing:
        raise CertificateRejected((), f"status and failing leaves are not the tree's: it is {claim}")
    return "certified" if is_certified(tree, target) else "exhausted"
