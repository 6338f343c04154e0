"""The engine's edge layer: coefficient transfer under an edge move.

``transfer_edge_v2`` replaces a vertex v_j of any n-simplex by a point
of any edge (v_i, v_j), w = rho*v_i + (1-rho)*v_j with rho in [0, 1);
the default pair (0, n) is the paper's edge lemma.  ``split_edge``
produces the two children of an edge subdivision, and
``edge_split_forms`` computes their coefficients exactly, in any
dimension, with one edge move each on the split edge's own slots; no
slot is relabeled.  ``restrict_general`` is the dimension-generic
oracle: expand the form back to the monomial basis and re-expand it on
the target simplex; every closed-form transfer must agree with it.

The paper's triangle-only lemmas, the interior move of v1
(``transfer_vertex_v1``) and both moves at once (``transfer_combined``),
are checked formulas of the study and live in ``counterexample``.

The edge move is the search's per-node cost, so ``transfer_edge_v2``
reads and returns the forms' integer numerators and builds no Fraction.
The moved simplex comes from ``Simplex._moved``, which needs no check:
the moved vertex keeps a positive weight on the vertex it replaces.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import comb
from operator import mul

from .bernstein import BernsteinForm, from_bernstein, to_bernstein
from .polynomials import as_int, as_rational
from .simplices import Simplex, barycentric_system

__all__ = [
    "transfer_edge_v2",
    "restrict_general",
    "split_edge",
    "edge_split_forms",
]


def _check_edge_ratio(rho: Fraction) -> None:
    if not (0 <= rho < 1):
        raise ValueError(f"edge ratio must satisfy 0 <= rho < 1, got {rho}")


def _check_edge(n: int, i: int, j: int) -> None:
    for slot in (i, j):
        if as_int(slot, "edge slot") > n:
            raise ValueError(f"edge ({i}, {j}) out of range for dimension {n}")
    if i == j:
        raise ValueError("edge endpoints must differ")


@lru_cache(maxsize=64)
def _edge_weights(p: int, q: int, d: int) -> tuple[tuple[int, ...], ...]:
    """weights[m][k] = q^d C(m, k) rho^(m-k) (1-rho)^k for rho = p/q, m <= d.

    Cached: at rho = 1/2, every split at degree d reads the same table.
    """
    return tuple(
        tuple(q ** (d - m) * comb(m, k) * p ** (m - k) * (q - p) ** k for k in range(m + 1))
        for m in range(d + 1)
    )


def transfer_edge_v2(
    form: BernsteinForm, rho, i: int = 0, j: int | None = None
) -> BernsteinForm:
    """Move v_j to w = rho*v_i + (1-rho)*v_j, rho in [0, 1).

    Works on any ordered slot pair (i, j) of any n-simplex; j defaults to
    n, so the default pair (0, n) is the paper's lemma.  The other slots
    are untouched:
    b~_g = sum_{k=0}^{g_j} C(g_j, k) rho^(g_j-k) (1-rho)^k b_s,
    where s equals g except s_i = g_i + g_j - k and s_j = k.

    The sum runs on the form's integer numerators: with the coefficients
    N_s / D and rho = p/q, b~_g is
    sum_k q^(d-g_j) C(g_j, k) p^(g_j-k) (q-p)^k N_s over the child's
    denominator D q^d.  The indices s of one sum differ only in slots i
    and j, so the form is read once, line by line along the edge.
    """
    rho = as_rational(rho)
    _check_edge_ratio(rho)
    simplex = form.simplex
    n = simplex.dimension
    if j is None:
        j = n
    _check_edge(n, i, j)
    d = form.degree
    p, q = rho.numerator, rho.denominator
    weights = _edge_weights(p, q, d)
    # lines[rest][k] = N_s with s_j = k, over the s equal to rest off slots i and j
    lines: dict[tuple[int, ...], list[int]] = {}
    for s, c in form.nums.items():
        rest = list(s)
        rest[i] = rest[j] = 0
        rest = tuple(rest)
        line = lines.get(rest)
        if line is None:
            line = lines[rest] = [0] * (s[i] + s[j] + 1)
        line[s[j]] = c
    out: dict[tuple[int, ...], int] = {}
    for rest, line in lines.items():
        gamma = list(rest)
        top = len(line) - 1
        for m in range(top + 1):
            total = sum(map(mul, weights[m], line))
            if total:
                gamma[i], gamma[j] = top - m, m
                out[tuple(gamma)] = total
    child = simplex._moved(j, i, rho)
    return BernsteinForm._canonical(barycentric_system(child), d, form.den * q**d, out)


def restrict_general(form: BernsteinForm, sub: Simplex) -> BernsteinForm:
    """Re-expand the form on another simplex of the same dimension.

    Works in any dimension and for any nondegenerate target simplex, at
    the cost of a full change of basis; every closed-form transfer must
    agree with it wherever it applies.  ``to_bernstein`` rejects a
    target simplex of another dimension.
    """
    return to_bernstein(from_bernstein(form), barycentric_system(sub), form.degree)


def split_edge(simplex: Simplex, i: int, j: int, theta) -> tuple[Simplex, Simplex]:
    """Split the (v_i, v_j) edge at w = (1-theta)*v_i + theta*v_j, theta in (0, 1).

    Returns the two children: first with v_j replaced by w, second with
    v_i replaced by w; the new vertex always takes the replaced vertex's
    slot.  Their union is the original simplex and their interiors are
    disjoint.  Each child is one ``Simplex._moved``, so neither runs an
    elimination.
    """
    _check_edge(simplex.dimension, i, j)
    theta = as_rational(theta)
    if not (0 < theta < 1):
        raise ValueError(f"theta must satisfy 0 < theta < 1, got {theta}")
    return simplex._moved(j, i, 1 - theta), simplex._moved(i, j, theta)


def edge_split_forms(
    form: BernsteinForm, i: int, j: int, theta
) -> tuple[BernsteinForm, BernsteinForm]:
    """Exact Bernstein forms of the two ``split_edge`` children, in any dimension.

    Each child replaces one endpoint of the split edge with the split
    point w = (1-theta)*v_i + theta*v_j, which is one edge move on the
    edge's own slots: w sits at rho = 1-theta seen from v_i and at
    rho = theta seen from v_j.  No slot is relabeled and no full change of
    basis is needed.
    """
    split_edge(form.simplex, i, j, theta)  # validates (i, j, theta) only
    theta = as_rational(theta)
    return transfer_edge_v2(form, 1 - theta, i, j), transfer_edge_v2(form, theta, j, i)
