"""Coefficient transfer between Bernstein bases under vertex replacement.

The exact closed-form transfers (the last two on triangles only):

* ``transfer_edge_v2``: replace a vertex v_j of any n-simplex by a point
  of any edge (v_i, v_j), w = rho*v_i + (1-rho)*v_j with rho in [0, 1);
  the default pair (0, n) is the paper's edge lemma.
* ``transfer_vertex_v1``: replace v1 by any admissible interior/edge point
  w1 = beta0*v0 + beta1*v1 + beta2*v2 (beta0, beta2 >= 0, beta1 > 0).
* ``transfer_combined``: both replacements at once, as a single double
  sum (not as a composition of the two; tests check the composition
  equality separately).

``restrict_general`` is the dimension-generic oracle: expand the form
back to the monomial basis and re-expand it on the target simplex; it
must agree with every closed-form transfer.  ``split_edge`` produces the
two children of an edge subdivision, and ``edge_split_forms`` computes
their coefficients exactly, in any dimension, with one edge move each on
the split edge's own slots; no slot is relabeled.

The edge move is the search's per-node cost, so ``transfer_edge_v2``
reads and returns the forms' integer numerators and builds no Fraction.
The children of an edge move or split are built without a new
elimination: each takes its parent's determinant times the new vertex's
barycentric weight on the vertex it replaces (``Simplex._replaced``).
"""

from __future__ import annotations

from fractions import Fraction
from math import comb
from operator import mul
from typing import Sequence

from .bernstein import BernsteinForm, from_bernstein, to_bernstein
from .polynomials import (
    as_int,
    as_rational,
    multinomial,
    vectors_with_sum,
)
from .simplices import Simplex, barycentric_system

__all__ = [
    "transfer_edge_v2",
    "transfer_vertex_v1",
    "transfer_combined",
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


def _check_vertex_weights(beta: tuple[Fraction, ...]) -> None:
    if len(beta) != 3:
        raise ValueError(f"vertex weights need 3 entries, got {len(beta)}")
    if sum(beta) != 1:
        raise ValueError(f"vertex weights must sum to 1, got {beta}")
    if beta[0] < 0 or beta[2] < 0 or beta[1] <= 0:
        raise ValueError(
            f"vertex weights need beta0 >= 0, beta2 >= 0, beta1 > 0, got {beta}"
        )


def _check_triangle(form: BernsteinForm) -> None:
    if form.simplex.dimension != 2:
        raise ValueError(
            f"closed-form transfers are defined for 2-simplices, got dimension "
            f"{form.simplex.dimension}"
        )


def _combine(points: Sequence[tuple[Fraction, ...]], weights: Sequence[Fraction]):
    dim = len(points[0])
    return tuple(
        sum((w * p[k] for w, p in zip(weights, points)), Fraction(0))
        for k in range(dim)
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
    and j, so the form is read once, line by line along the edge.  The
    child simplex inherits the determinant times 1-rho, w's weight on v_j.
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
    # weights[m][k] = q^d C(m, k) rho^(m-k) (1-rho)^k, built once for every index
    weights = [
        [q ** (d - m) * comb(m, k) * p ** (m - k) * (q - p) ** k for k in range(m + 1)]
        for m in range(d + 1)
    ]
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
    vi, vj, stay = simplex.vertices[i], simplex.vertices[j], 1 - rho
    w = tuple(rho * a + stay * b for a, b in zip(vi, vj))
    child = simplex._replaced(j, w, stay)
    return BernsteinForm._canonical(barycentric_system(child), d, form.den * q**d, out)


def transfer_vertex_v1(form: BernsteinForm, beta) -> BernsteinForm:
    """Move v1 to w1 = beta0*v0 + beta1*v1 + beta2*v2.

    Requires beta0, beta2 >= 0 and beta1 > 0 (so the triangle stays
    nondegenerate).  New coefficients:
    b~_g = sum over |a| = d with a0 >= g0, a2 >= g2 of
           g1! / ((a0-g0)! a1! (a2-g2)!) beta0^(a0-g0) beta1^a1 beta2^(a2-g2) b_a
    """
    _check_triangle(form)
    beta = tuple(as_rational(b) for b in beta)
    _check_vertex_weights(beta)
    v0, v1, v2 = form.simplex.vertices
    new_simplex = Simplex((v0, _combine((v0, v1, v2), beta), v2))
    d = form.degree
    b0, b1, b2 = beta
    out: dict[tuple[int, ...], Fraction] = {}
    for gamma in vectors_with_sum(3, d):
        g0, g1, g2 = gamma
        total = Fraction(0)
        for (a0, a1, a2), b in form.coeffs.items():
            if a0 < g0 or a2 < g2:
                continue
            weight = multinomial(g1, (a0 - g0, a1, a2 - g2))
            total += weight * b0 ** (a0 - g0) * b1**a1 * b2 ** (a2 - g2) * b
        if total:
            out[gamma] = total
    return BernsteinForm(barycentric_system(new_simplex), d, out)


def transfer_combined(form: BernsteinForm, beta, rho) -> BernsteinForm:
    """Move v1 to w1 = beta0*v0 + beta1*v1 + beta2*v2 and v2 to
    w2 = rho*v0 + (1-rho)*v2 in one step.

    Implemented directly as the double sum

    b~_g = sum_{k=0}^{g2} C(g2, g2-k) rho^(g2-k) (1-rho)^k *
           sum over |a| = d with a0 >= g0+g2-k, a2 >= k of
               g1! / ((a0-(g0+g2-k))! a1! (a2-k)!) *
               beta0^(a0-(g0+g2-k)) beta1^a1 beta2^(a2-k) b_a

    (its equality with the composition of the two single transfers is a
    test, not the implementation).
    """
    _check_triangle(form)
    beta = tuple(as_rational(b) for b in beta)
    rho = as_rational(rho)
    _check_vertex_weights(beta)
    _check_edge_ratio(rho)
    v0, v1, v2 = form.simplex.vertices
    new_simplex = Simplex(
        (v0, _combine((v0, v1, v2), beta), _combine((v0, v2), (rho, 1 - rho)))
    )
    d = form.degree
    b0, b1, b2 = beta
    out: dict[tuple[int, ...], Fraction] = {}
    for gamma in vectors_with_sum(3, d):
        g0, g1, g2 = gamma
        total = Fraction(0)
        for k in range(g2 + 1):
            shift = g0 + g2 - k
            inner = Fraction(0)
            for (a0, a1, a2), b in form.coeffs.items():
                if a0 < shift or a2 < k:
                    continue
                weight = multinomial(g1, (a0 - shift, a1, a2 - k))
                inner += weight * b0 ** (a0 - shift) * b1**a1 * b2 ** (a2 - k) * b
            if inner:
                total += comb(g2, g2 - k) * rho ** (g2 - k) * (1 - rho) ** k * inner
        if total:
            out[gamma] = total
    return BernsteinForm(barycentric_system(new_simplex), d, out)


def restrict_general(form: BernsteinForm, sub: Simplex) -> BernsteinForm:
    """Re-expand the form on another simplex of the same dimension.

    Works in any dimension and for any nondegenerate target simplex, at
    the cost of a full change of basis; the closed-form transfers above
    must agree with it wherever they apply.  ``to_bernstein`` rejects a
    target simplex of another dimension.
    """
    return to_bernstein(from_bernstein(form), barycentric_system(sub), form.degree)


def split_edge(simplex: Simplex, i: int, j: int, theta) -> tuple[Simplex, Simplex]:
    """Split the (v_i, v_j) edge at w = (1-theta)*v_i + theta*v_j, theta in (0, 1).

    Returns the two children: first with v_j replaced by w, second with
    v_i replaced by w; the new vertex always takes the replaced vertex's
    slot.  Their union is the original simplex and their interiors are
    disjoint.  The children's determinants are the parent's times theta
    and times 1-theta, w's weights on v_j and on v_i; neither child runs
    an elimination.
    """
    _check_edge(simplex.dimension, i, j)
    theta = as_rational(theta)
    if not (0 < theta < 1):
        raise ValueError(f"theta must satisfy 0 < theta < 1, got {theta}")
    vi, vj = simplex.vertices[i], simplex.vertices[j]
    w = tuple((1 - theta) * a + theta * b for a, b in zip(vi, vj))
    return simplex._replaced(j, w, theta), simplex._replaced(i, w, 1 - theta)


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
