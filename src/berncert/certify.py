"""Certificate search by simplex subdivision and degree elevation.

``certify`` grows a tree over the input simplex: each node holds the
exact Bernstein form of the input polynomial on its simplex and the sign
classification of its coefficients.  A node whose classification already
meets the target becomes a certified leaf; otherwise the strategy either
splits an edge (children partition the node's simplex) or elevates the
degree (single child, same simplex) until the depth/degree budget runs
out.  One rule, ``_derive``, turns a node's form and its split record
into the child forms: the closed-form edge move (``edge_split_forms``)
in every dimension, or ``degree_elevate``.  The tree is a checkable
proof object: ``verify_tree`` replays every record with that same rule,
and re-derives every leaf from the root polynomial with ``to_bernstein``:
a solve at the polynomial's own degree, plus, for an elevated leaf, the
closed multi-step lift, which shares no code with ``degree_elevate``.

Everything is deterministic: same input, same tree, same serialization.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator

from .bernstein import (
    BernsteinForm,
    CertKind,
    CertStatus,
    DegreeTooLowError,
    _check_size,
    cert_status,
    degree_elevate,
    from_bernstein,
    to_bernstein,
)
from .polynomials import Polynomial, as_int, grlex_key, same_values
from .simplices import Simplex, barycentric_system
from .subdivision import edge_split_forms

__all__ = [
    "Strategy",
    "Target",
    "CertifyConfig",
    "EdgeSplit",
    "Elevation",
    "CertificateTree",
    "MalformedTreeError",
    "certify",
    "status_meets",
    "is_certified",
    "failing_leaves",
    "verify_tree",
    "walk",
]


class Strategy(enum.Enum):
    EDGE_BISECTION = "bisect"
    WITNESS_GUIDED_SPLIT = "witness"
    ELEVATION_ONLY = "elevate"
    ELEVATION_THEN_SPLIT = "elevate-split"


class Target(enum.Enum):
    POSITIVE = "positive"
    NONNEGATIVE = "nonnegative"


def status_meets(status: CertStatus, target: Target | str) -> bool:
    if Target(target) is Target.POSITIVE:
        return status.kind is CertKind.POSITIVE
    return status.kind in (CertKind.POSITIVE, CertKind.NONNEGATIVE)


@dataclass(frozen=True)
class CertifyConfig:
    """Search budget and policy.

    max_depth counts edge splits along a root-to-leaf path; elevation
    does not consume depth and is capped by max_degree instead.
    max_degree=None means "the starting degree" (no elevation headroom).
    strategy and target take a member or its value string; anything
    else, a budget that is not an int, or a negative max_depth is a
    ValueError.
    """

    max_depth: int = 8
    max_degree: int | None = None
    strategy: Strategy = Strategy.WITNESS_GUIDED_SPLIT
    target: Target = Target.NONNEGATIVE

    def __post_init__(self) -> None:
        as_int(self.max_depth, "max_depth")
        if self.max_degree is not None:
            as_int(self.max_degree, "max_degree", minimum=None)
        object.__setattr__(self, "strategy", Strategy(self.strategy))
        object.__setattr__(self, "target", Target(self.target))

    def degree_cap(self, start_degree: int) -> int:
        """The elevation cap for a search that starts at ``start_degree``."""
        return self.max_degree if self.max_degree is not None else start_degree


@dataclass(frozen=True)
class EdgeSplit:
    i: int
    j: int
    theta: Fraction


@dataclass(frozen=True)
class Elevation:
    steps: int


@dataclass(frozen=True)
class CertificateTree:
    """One node of the proof tree (the root represents the whole run)."""

    form: BernsteinForm
    status: CertStatus
    split: EdgeSplit | Elevation | None = None
    children: tuple["CertificateTree", ...] = ()

    @property
    def simplex(self) -> Simplex:
        return self.form.system.simplex

    def leaves(self) -> Iterator["CertificateTree"]:
        for _, node in walk(self):
            if not node.children:
                yield node


def walk(tree: CertificateTree) -> Iterator[tuple[tuple[int, ...], CertificateTree]]:
    """Depth-first (path, node) pairs; path is the child-index route from the root."""
    stack = [((), tree)]
    while stack:
        path, node = stack.pop()
        yield path, node
        for idx in range(len(node.children) - 1, -1, -1):
            stack.append((path + (idx,), node.children[idx]))


class MalformedTreeError(ValueError):
    """Tree structure is inconsistent (children do not match the split record)."""


def _edge_lengths(simplex: Simplex) -> list[tuple[int, int, int]]:
    """(squared length times den^2, i, j) per edge: ints that order as the lengths do."""
    verts = simplex.nums
    return [
        (sum((a - b) ** 2 for a, b in zip(verts[i], verts[j])), i, j)
        for i in range(len(verts))
        for j in range(i + 1, len(verts))
    ]


def _longest_edge(simplex: Simplex) -> tuple[int, int]:
    best = max(_edge_lengths(simplex), key=lambda t: (t[0], (-t[1], -t[2])))
    return best[1], best[2]


def _most_negative(form: BernsteinForm, status: CertStatus) -> tuple[int, ...]:
    """Index of the most negative coefficient, graded-lex first on ties."""
    return min(
        status.negative_indices, key=lambda idx: (form.nums[idx], grlex_key(idx))
    )


def _witness_edge(form: BernsteinForm, status: CertStatus) -> tuple[int, int]:
    """Edge spanned by the two heaviest axes of the most negative coefficient's index."""
    if not status.negative_indices:
        # nonnegative node under a positive target: no witness to follow
        return _longest_edge(form.system.simplex)
    witness = _most_negative(form, status)
    axes = sorted(range(len(witness)), key=lambda a: (-witness[a], a))
    positive = [a for a in axes if witness[a] > 0]
    if len(positive) < 2:
        return _longest_edge(form.system.simplex)
    i, j = sorted(positive[:2])
    return i, j


def certify(p: Polynomial, simplex: Simplex, config: CertifyConfig) -> CertificateTree:
    """Search for a coefficient-sign certificate of p on the simplex.

    The returned tree is Certified for ``config.target`` iff every leaf's
    status meets the target (see ``is_certified``); otherwise the search
    is exhausted and ``failing_leaves`` lists the indeterminate frontier.
    A cap whose form has more than ``bernstein.MAX_COEFFICIENTS``
    coefficients is a ValueError before any search, under every strategy.
    """
    start_degree = p.degree
    max_degree = config.degree_cap(start_degree)
    if max_degree < start_degree:
        raise DegreeTooLowError(required=start_degree, requested=max_degree)
    _check_size(simplex.dimension, max_degree)
    root_form = to_bernstein(p, barycentric_system(simplex), start_degree)
    return _grow(root_form, 0, config, max_degree)


_HALF = Fraction(1, 2)


def _derive(
    form: BernsteinForm, split: EdgeSplit | Elevation | None
) -> tuple[BernsteinForm, ...]:
    """The child forms a split record gives: the one rule for search and checker.

    No record (a leaf) gives no children.  Raises ValueError for a record
    that does not apply to the form (a bad edge or ratio, or an elevation
    of fewer than one step).
    """
    if split is None:
        return ()
    if isinstance(split, Elevation):
        return (degree_elevate(form, split.steps),)
    if isinstance(split, EdgeSplit):
        return edge_split_forms(form, split.i, split.j, split.theta)
    raise ValueError(f"unknown split record: {split!r}")


def _step(
    form: BernsteinForm,
    status: CertStatus,
    depth: int,
    config: CertifyConfig,
    max_degree: int,
) -> EdgeSplit | Elevation | None:
    """The strategy's record for this node, or None when it stays a leaf."""
    if status_meets(status, config.target):
        return None
    strategy = config.strategy
    if strategy is Strategy.ELEVATION_ONLY:
        return Elevation(1) if form.degree < max_degree else None
    if strategy is Strategy.ELEVATION_THEN_SPLIT and form.degree < max_degree:
        # true only at the root: its one elevation leaves every descendant at max_degree
        return Elevation(max_degree - form.degree)
    if depth >= config.max_depth:
        return None
    if strategy is Strategy.EDGE_BISECTION:
        i, j = _longest_edge(form.system.simplex)
    else:  # WITNESS_GUIDED_SPLIT, and ELEVATION_THEN_SPLIT after its elevation
        i, j = _witness_edge(form, status)
    return EdgeSplit(i, j, _HALF)


def _grow(
    form: BernsteinForm,
    depth: int,
    config: CertifyConfig,
    max_degree: int,
) -> CertificateTree:
    status = cert_status(form)
    split = _step(form, status, depth, config, max_degree)
    if isinstance(split, EdgeSplit):  # elevation does not consume depth
        depth += 1
    children = tuple(
        _grow(child, depth, config, max_degree)
        for child in _derive(form, split)
    )
    return CertificateTree(form, status, split, children)


def is_certified(tree: CertificateTree, target: Target | str) -> bool:
    return all(status_meets(leaf.status, target) for leaf in tree.leaves())


def failing_leaves(
    tree: CertificateTree, target: Target | str
) -> list[tuple[tuple[int, ...], CertificateTree]]:
    """The frontier: (path, leaf) pairs whose status misses the target."""
    return [
        (path, node)
        for path, node in walk(tree)
        if not node.children and not status_meets(node.status, target)
    ]


def verify_tree(tree: CertificateTree) -> bool:
    """Re-check the proof object from scratch.

    Confirms every node's status against its stored coefficients, replays
    every split record on its node's form (the search's own ``_derive``)
    and compares the result with the stored children, and independently
    recomputes every leaf's form from the root polynomial with
    ``to_bernstein``: a linear solve at the polynomial's own degree and,
    on an elevated leaf, the closed multi-step lift to the leaf's degree.
    Neither is the search's edge move or ``degree_elevate``, so a faulty
    edge move or elevation cannot certify a leaf.  Raises MalformedTreeError
    when a record is invalid or the children's count, simplices or
    degrees differ from the replay; returns False on any value mismatch.
    """
    root_poly = from_bernstein(tree.form)
    for _, node in walk(tree):
        if cert_status(node.form) != node.status:
            return False
        try:
            replayed = _derive(node.form, node.split)
        except ValueError as exc:
            raise MalformedTreeError(f"invalid split record: {exc}") from exc
        if len(node.children) != len(replayed):
            raise MalformedTreeError(f"{node.split!r} needs {len(replayed)} children")
        for child, form in zip(node.children, replayed):
            if child.simplex != form.simplex or child.form.degree != form.degree:
                raise MalformedTreeError("a child does not match its split record")
            if not same_values(child.form, form):
                return False
        if not node.children:
            expected = to_bernstein(root_poly, node.form.system, node.form.degree)
            if not same_values(expected, node.form):
                return False
    return True
