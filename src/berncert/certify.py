"""Certificate search by simplex subdivision and degree elevation.

``certify`` grows a tree over the input simplex: each node holds the
exact Bernstein form of the input polynomial on its simplex and the sign
classification of its coefficients.  A node whose classification already
meets the target becomes a certified leaf; otherwise the strategy either
splits an edge (children partition the node's simplex) or elevates the
degree (single child, same simplex) until the depth/degree budget runs
out.  Split children get their forms from the closed-form edge move
(``edge_split_forms``) in every dimension.  The tree is a checkable proof
object: ``verify_tree`` re-derives every leaf from the root polynomial
with ``to_bernstein`` and validates the partition structure.

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
    cert_status,
    degree_elevate,
    from_bernstein,
    to_bernstein,
)
from .polynomials import Polynomial, grlex_key
from .simplices import Simplex, barycentric_system
from .subdivision import edge_split_forms, split_edge

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


def status_meets(status: CertStatus, target: Target) -> bool:
    if target is Target.POSITIVE:
        return status.kind is CertKind.POSITIVE
    return status.kind in (CertKind.POSITIVE, CertKind.NONNEGATIVE)


@dataclass(frozen=True)
class CertifyConfig:
    """Search budget and policy.

    max_depth counts edge splits along a root-to-leaf path; elevation
    does not consume depth and is capped by max_degree instead.
    max_degree=None means "the starting degree" (no elevation headroom).
    """

    max_depth: int = 8
    max_degree: int | None = None
    strategy: Strategy = Strategy.WITNESS_GUIDED_SPLIT
    target: Target = Target.NONNEGATIVE


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
    """Tree structure is inconsistent (children do not partition the parent)."""


def _edge_lengths(simplex: Simplex) -> list[tuple[Fraction, int, int]]:
    out = []
    verts = simplex.vertices
    for i in range(len(verts)):
        for j in range(i + 1, len(verts)):
            sq = sum((a - b) ** 2 for a, b in zip(verts[i], verts[j]))
            out.append((sq, i, j))
    return out


def _longest_edge(simplex: Simplex) -> tuple[int, int]:
    best = max(_edge_lengths(simplex), key=lambda t: (t[0], (-t[1], -t[2])))
    return best[1], best[2]


def _witness_edge(form: BernsteinForm, status: CertStatus) -> tuple[int, int]:
    """Edge spanned by the two heaviest axes of the most negative coefficient's index."""
    if not status.negative_indices:
        # nonnegative node under a positive target: no witness to follow
        return _longest_edge(form.system.simplex)
    witness = min(
        status.negative_indices, key=lambda idx: (form.coeffs[idx], grlex_key(idx))
    )
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
    """
    if p.num_vars != simplex.dimension:
        raise ValueError(
            f"variable count mismatch: {p.num_vars} != {simplex.dimension}"
        )
    if config.max_depth < 0:
        raise ValueError("max_depth must be >= 0")
    start_degree = p.degree
    max_degree = config.max_degree if config.max_degree is not None else start_degree
    if max_degree < start_degree:
        raise ValueError(
            f"max_degree {max_degree} is below the polynomial degree {start_degree}"
        )
    root_form = to_bernstein(p, barycentric_system(simplex), start_degree)
    return _grow(root_form, 0, config, max_degree, at_root=True)


_HALF = Fraction(1, 2)


def _grow(
    form: BernsteinForm,
    depth: int,
    config: CertifyConfig,
    max_degree: int,
    at_root: bool,
) -> CertificateTree:
    status = cert_status(form)
    if status_meets(status, config.target):
        return CertificateTree(form, status)

    strategy = config.strategy
    if strategy is Strategy.ELEVATION_ONLY:
        if form.degree < max_degree:
            child = _grow(degree_elevate(form, 1), depth, config, max_degree, False)
            return CertificateTree(form, status, Elevation(1), (child,))
        return CertificateTree(form, status)

    if (
        strategy is Strategy.ELEVATION_THEN_SPLIT
        and at_root
        and form.degree < max_degree
    ):
        steps = max_degree - form.degree
        child = _grow(degree_elevate(form, steps), depth, config, max_degree, False)
        return CertificateTree(form, status, Elevation(steps), (child,))

    if depth >= config.max_depth:
        return CertificateTree(form, status)

    if strategy is Strategy.EDGE_BISECTION:
        i, j = _longest_edge(form.system.simplex)
    else:  # WITNESS_GUIDED_SPLIT, and ELEVATION_THEN_SPLIT after its elevation
        i, j = _witness_edge(form, status)
    children = tuple(
        _grow(f, depth + 1, config, max_degree, False)
        for f in edge_split_forms(form, i, j, _HALF)
    )
    return CertificateTree(form, status, EdgeSplit(i, j, _HALF), children)


def is_certified(tree: CertificateTree, target: Target) -> bool:
    return all(status_meets(leaf.status, target) for leaf in tree.leaves())


def failing_leaves(
    tree: CertificateTree, target: Target
) -> list[tuple[tuple[int, ...], CertificateTree]]:
    """The frontier: (path, leaf) pairs whose status misses the target."""
    return [
        (path, node)
        for path, node in walk(tree)
        if not node.children and not status_meets(node.status, target)
    ]


def _check_partition(node: CertificateTree) -> None:
    if node.split is None:
        if node.children:
            raise MalformedTreeError("children without a split record")
        return
    if not node.children:
        raise MalformedTreeError("split record without children")
    if isinstance(node.split, Elevation):
        if len(node.children) != 1:
            raise MalformedTreeError("elevation nodes must have exactly one child")
        child = node.children[0]
        if child.simplex != node.simplex:
            raise MalformedTreeError("elevation child must keep the same simplex")
        if child.form.degree != node.form.degree + node.split.steps:
            raise MalformedTreeError("elevation child has the wrong degree")
        return
    if len(node.children) != 2:
        raise MalformedTreeError("edge splits must have exactly two children")
    try:
        expected = split_edge(
            node.simplex, node.split.i, node.split.j, node.split.theta
        )
    except ValueError as exc:
        raise MalformedTreeError(f"invalid edge-split record: {exc}") from exc
    parent_volume = abs(node.simplex.determinant)
    child_volume = Fraction(0)
    for child, target in zip(node.children, expected):
        if child.form.degree != node.form.degree:
            raise MalformedTreeError("split children must keep the degree")
        if child.simplex != target:
            raise MalformedTreeError(
                "children do not match the recorded edge split"
            )
        for vertex in child.simplex.vertices:
            if any(c < 0 for c in node.form.system.at(vertex)):
                raise MalformedTreeError(
                    "child vertex lies outside the parent simplex"
                )
        child_volume += abs(child.simplex.determinant)
    if child_volume != parent_volume:
        raise MalformedTreeError("children volumes do not add up to the parent's")


def verify_tree(tree: CertificateTree) -> bool:
    """Re-check the proof object from scratch.

    Validates the partition structure (raising MalformedTreeError when it
    is broken), confirms every node's status against its stored
    coefficients, confirms every node still represents the root
    polynomial, and independently recomputes every leaf's form from the
    root polynomial with ``to_bernstein`` (a linear solve, not the
    search's edge move).  Returns False on any value mismatch.
    """
    root_poly = from_bernstein(tree.form)
    for _, node in walk(tree):
        if cert_status(node.form) != node.status:
            return False
        if node.children:
            _check_partition(node)
            if from_bernstein(node.form) != root_poly:
                return False
        else:
            expected = to_bernstein(root_poly, node.form.system, node.form.degree)
            if expected.coeffs != node.form.coeffs:
                return False
    return True
