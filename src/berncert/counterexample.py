"""The bundled impossibility study.

A nonnegative quartic is packaged here together with every concrete
computation that backs its story: a split-certification warm-up on a
simple quadratic, the quartic's sum-of-squares (Gram) verification, its
Bernstein coefficients on the standard simplex, and the two-parameter
family of corner-preserving simplices on which one coefficient stays
negative no matter what — so no subdivision or elevation budget can ever
produce a sign certificate for it.

The paper's triangle lemmas are checked closed formulas of the study,
not engine paths: ``transfer_vertex_v1`` moves v1, ``transfer_combined``
also moves v2 toward v0 (the engine's edge move is
``subdivision.transfer_edge_v2``).  They share one inner sum and build
their triangle, as ``family_simplex`` does, from three of the engine's
edge moves (``Simplex._moved``), with no elimination.

``reproduce_report`` re-derives all of those values with this engine and
flags each row MATCH/MISMATCH against the reference values recorded from
the original write-up.  Every conversion of the study (the root form,
the warm-up's initial form and its six restrictions, and the 16 family
simplices) is ``bernstein.homogenised_form``, the closed form that needs
only the vertices; the warm-up's depth-1 certificate is ``certify``'s.
One reference formula in the warm-up example is arithmetically wrong
(see README), so a fresh build intentionally shows MISMATCH rows for
it, with both values printed.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .bernstein import BernsteinForm, cert_status, homogenised_form
from .certify import (
    CertifyConfig,
    EdgeSplit,
    Strategy,
    Target,
    certify,
    is_certified,
)
from .linalg import ldl_pivots
from .polynomials import (
    Polynomial,
    as_rational,
    multinomial,
    over_common_denominator,
    parse_polynomial,
    vectors_with_sum,
)
from .simplices import Simplex, barycentric_system, standard_simplex
from .subdivision import _check_edge_ratio, _edge_weights

__all__ = [
    "COUNTEREXAMPLE_TEXT",
    "SPLIT_DEMO_TEXT",
    "GRAM_MATRIX",
    "GramDecomposition",
    "counterexample_polynomial",
    "split_demo_polynomial",
    "gram_monomials",
    "counterexample_gram",
    "gram_polynomial",
    "verify_gram",
    "is_positive_definite",
    "persistence_value",
    "vertex_weights_for",
    "family_simplex",
    "transfer_vertex_v1",
    "transfer_combined",
    "reproduce_report",
    "render_report",
]

COUNTEREXAMPLE_TEXT = (
    "21*x1^4 + 24*x1^3*x2 - 36*x1^3 + 18*x1^2*x2^2 - 24*x1^2*x2 + 18*x1^2"
    " + 12*x1*x2^3 - 12*x1*x2^2 + 30*x2^4"
)

SPLIT_DEMO_TEXT = "x1^2 + x2^2 - x1*x2"

GRAM_MATRIX: tuple[tuple[Fraction, ...], ...] = tuple(
    tuple(Fraction(entry) for entry in row)
    for row in (
        (18, -18, -12, -6),
        (-18, 21, 12, 0),
        (-12, 12, 18, 6),
        (-6, 0, 6, 30),
    )
)


def counterexample_polynomial() -> Polynomial:
    """The nonnegative quartic with no coefficient-sign certificate."""
    return parse_polynomial(COUNTEREXAMPLE_TEXT, num_vars=2)


def split_demo_polynomial() -> Polynomial:
    """The warm-up quadratic certified by a single edge split."""
    return parse_polynomial(SPLIT_DEMO_TEXT, num_vars=2)


def gram_monomials() -> tuple[Polynomial, ...]:
    """The monomial vector z = (x1, x1^2, x1*x2, x2^2)."""
    x1 = Polynomial.variable(2, 0)
    x2 = Polynomial.variable(2, 1)
    return (x1, x1 * x1, x1 * x2, x2 * x2)


@dataclass(frozen=True)
class GramDecomposition:
    """A symmetric matrix M and monomial vector z asserting p = z^T M z."""

    monomial_vector: tuple[Polynomial, ...]
    matrix: tuple[tuple[Fraction, ...], ...]

    def __post_init__(self) -> None:
        n = len(self.monomial_vector)
        if not n:
            raise ValueError("empty monomial vector")
        matrix = tuple(
            tuple(as_rational(entry) for entry in row) for row in self.matrix
        )
        if len(matrix) != n or any(len(row) != n for row in matrix):
            raise ValueError("matrix shape does not fit the monomial vector")
        for i in range(n):
            for j in range(i + 1, n):
                if matrix[i][j] != matrix[j][i]:
                    raise ValueError("matrix must be symmetric")
        object.__setattr__(self, "matrix", matrix)
        object.__setattr__(self, "monomial_vector", tuple(self.monomial_vector))


def counterexample_gram() -> GramDecomposition:
    return GramDecomposition(gram_monomials(), GRAM_MATRIX)


def gram_polynomial(g: GramDecomposition) -> Polynomial:
    """Expand z^T M z to a canonical polynomial."""
    z = g.monomial_vector
    total = Polynomial.zero(z[0].num_vars)
    for i, zi in enumerate(z):
        for j, zj in enumerate(z):
            entry = g.matrix[i][j]
            if entry:
                total = total + entry * (zi * zj)
    return total


def verify_gram(p: Polynomial, g: GramDecomposition) -> bool:
    """True iff z^T M z equals p exactly."""
    return (gram_polynomial(g) - p).is_zero


def is_positive_definite(matrix) -> bool:
    """Exact PD test: LDL^T pivots all exist and are strictly positive."""
    pivots = ldl_pivots(matrix)
    return len(pivots) == len(matrix) and all(p > 0 for p in pivots)


def persistence_value(beta1, rho) -> Fraction:
    """Closed form for the transferred (1,1,2) coefficient: -beta1*(1-rho)^2.

    beta1 is the weight the moved middle vertex keeps on the original v1;
    rho slides the third vertex toward v0 along the v0-v2 edge.  The value
    is strictly negative for every admissible pair (0 < beta1 <= 1,
    0 <= rho < 1), which is the whole impossibility argument in one line.
    """
    _, beta1, _ = vertex_weights_for(beta1)  # the one check of 0 < beta1 <= 1
    rho = as_rational(rho)
    _check_edge_ratio(rho)
    return -beta1 * (1 - rho) ** 2


def vertex_weights_for(beta1) -> tuple[Fraction, Fraction, Fraction]:
    """A canonical admissible weight triple with the given beta1.

    The leftover mass 1 - beta1 is split evenly between the two fixed
    vertices; any admissible split gives the same (1,1,2) coefficient.
    """
    beta1 = as_rational(beta1)
    side = (1 - beta1) / 2
    _check_vertex_weights((side, beta1, side))  # admissible iff 0 < beta1 <= 1
    return (side, beta1, side)


def _check_vertex_weights(beta: tuple[Fraction, ...]) -> None:
    if len(beta) != 3:
        raise ValueError(f"vertex weights need 3 entries, got {len(beta)}")
    if sum(beta) != 1:
        raise ValueError(f"vertex weights must sum to 1, got {beta}")
    if beta[0] < 0 or beta[2] < 0 or beta[1] <= 0:
        raise ValueError(
            f"vertex weights need beta0 >= 0, beta2 >= 0, beta1 > 0, got {beta}"
        )


def _moved_triangle(simplex: Simplex, beta, rho) -> tuple[Simplex, tuple, Fraction]:
    """The triangle (v0, beta0*v0 + beta1*v1 + beta2*v2, rho*v0 + (1-rho)*v2), with beta
    and rho as Fractions: three edge moves (v1 toward v0 at beta0/(beta0+beta1), then
    toward v2 at beta2; v2 toward v0 at rho), each keeping a positive weight on the vertex
    it replaces (beta1 > 0, rho < 1), so ``Simplex._moved`` runs no elimination."""
    if simplex.dimension != 2:
        raise ValueError(
            f"closed-form transfers are defined for 2-simplices, got dimension "
            f"{simplex.dimension}"
        )
    beta = tuple(as_rational(b) for b in beta)
    rho = as_rational(rho)
    _check_vertex_weights(beta)
    _check_edge_ratio(rho)
    b0, b1, b2 = beta
    return simplex._moved(1, 0, b0 / (b0 + b1))._moved(1, 2, b2)._moved(2, 0, rho), beta, rho


def family_simplex(beta, rho) -> Simplex:
    """The corner-preserving simplex (v0, beta-combination, (0, 1-rho))."""
    return _moved_triangle(standard_simplex(2), beta, rho)[0]


def _vertex_weights(beta, degree: int) -> tuple[int, dict]:
    """(Q, W) with beta = B / Q over one denominator and, for x + y + z <= degree,
    W[x, y, z] = (x+y+z)! / (x! y! z!) B0^x B1^y B2^z: built once per transfer."""
    den, (b0, b1, b2) = over_common_denominator(beta)
    return den, {
        (x, y, z): multinomial(t, (x, y, z)) * b0**x * b1**y * b2**z
        for t in range(degree + 1)
        for x, y, z in vectors_with_sum(3, t)
    }


def _vertex_sum(nums: dict, weights: dict, s: tuple[int, int, int]) -> int:
    """The inner sum of both triangle lemmas, over |a| = d with a0 >= s0, a2 >= s2:
    s1! / ((a0-s0)! a1! (a2-s2)!) beta0^(a0-s0) beta1^a1 beta2^(a2-s2) b_a,
    on numerators: the value times Q^s1 and the form's denominator.
    """
    s0, _, s2 = s
    return sum(
        weights[a0 - s0, a1, a2 - s2] * c
        for (a0, a1, a2), c in nums.items()
        if a0 >= s0 and a2 >= s2
    )


def transfer_vertex_v1(form: BernsteinForm, beta) -> BernsteinForm:
    """Move v1 of a triangle to w1 = beta0*v0 + beta1*v1 + beta2*v2.

    Requires beta0, beta2 >= 0 and beta1 > 0 (so the triangle stays
    nondegenerate).  New coefficients, over the form's denominator times Q^d:
    b~_g = sum over |a| = d with a0 >= g0, a2 >= g2 of
           g1! / ((a0-g0)! a1! (a2-g2)!) beta0^(a0-g0) beta1^a1 beta2^(a2-g2) b_a

    This is ``transfer_combined`` at rho = 0, where only its k = g2 term
    is left.
    """
    return transfer_combined(form, beta, 0)


def transfer_combined(form: BernsteinForm, beta, rho) -> BernsteinForm:
    """Move v1 of a triangle to w1 = beta0*v0 + beta1*v1 + beta2*v2 and v2
    to w2 = rho*v0 + (1-rho)*v2 in one step.

    Implemented directly as the double sum, over the form's denominator
    times (Q q)^d for rho = p/q:

    b~_g = sum_{k=0}^{g2} C(g2, g2-k) rho^(g2-k) (1-rho)^k *
           sum over |a| = d with a0 >= g0+g2-k, a2 >= k of
               g1! / ((a0-(g0+g2-k))! a1! (a2-k)!) *
               beta0^(a0-(g0+g2-k)) beta1^a1 beta2^(a2-k) b_a

    (its equality with the composition of the two single transfers is a
    test, not the implementation).
    """
    simplex, beta, rho = _moved_triangle(form.simplex, beta, rho)
    d = form.degree
    den, weights = _vertex_weights(beta, d)
    q = rho.denominator
    edge = _edge_weights(rho.numerator, q, d)  # q^d C(m, k) rho^(m-k) (1-rho)^k
    out = {}
    for g0, g1, g2 in vectors_with_sum(3, d):
        total = sum(
            w * _vertex_sum(form.nums, weights, (g0 + g2 - k, g1, k))
            for k, w in enumerate(edge[g2])
            if w  # at rho = 0 only k = g2 is left
        )
        if total:
            out[g0, g1, g2] = total * den ** (d - g1)
    system = barycentric_system(simplex)
    return BernsteinForm._canonical(system, d, form.den * (den * q) ** d, out)


_THETAS = (Fraction(1, 4), Fraction(1, 2), Fraction(3, 4))
_BETA1_GRID = (Fraction(1, 4), Fraction(1, 2), Fraction(3, 4), Fraction(1))
_RHO_GRID = (Fraction(0), Fraction(1, 4), Fraction(1, 2), Fraction(3, 4))


def _row(item: str, reference: str, computed: str) -> dict:
    return {
        "item": item,
        "reference": reference,
        "computed": computed,
        "match": reference == computed,
    }


def _example1_rows() -> list[dict]:
    demo = split_demo_polynomial()
    std2 = standard_simplex(2)
    form = homogenised_form(demo, std2, 2)
    initial_refs = {
        (2, 0, 0): Fraction(0),
        (1, 1, 0): Fraction(0),
        (1, 0, 1): Fraction(0),
        (0, 2, 0): Fraction(1),
        (0, 1, 1): Fraction(-1, 2),
        (0, 0, 2): Fraction(1),
    }
    rows = [
        _row(f"initial b{index}", str(ref), str(form.coefficient(index)))
        for index, ref in initial_refs.items()
    ]

    v0, v1, v2 = std2.vertices
    for theta in _THETAS:
        w = (1 - theta, theta)
        pieces = (
            ("[v0,v1,w]", Simplex((v0, v1, w)), 1 - Fraction(3, 2) * theta),
            ("[v0,v2,w]", Simplex((v0, v2, w)), Fraction(3, 2) * theta - Fraction(1, 2)),
        )
        ref_002 = Fraction(1, 8) * (1 - theta) * theta + Fraction(1, 4)
        for label, piece, ref_011 in pieces:
            restricted = homogenised_form(demo, piece, 2)
            refs = (((0, 2, 0), 1), ((0, 1, 1), ref_011), ((0, 0, 2), ref_002))
            for index, ref in refs:
                compact = str(index).replace(" ", "")
                rows.append(
                    _row(
                        f"theta={theta} {label} b{compact}",
                        str(ref),
                        str(restricted.coefficient(index)),
                    )
                )

    config = CertifyConfig(
        max_depth=1,
        strategy=Strategy.WITNESS_GUIDED_SPLIT,
        target=Target.NONNEGATIVE,
    )
    tree = certify(demo, std2, config)
    depth_one = (
        isinstance(tree.split, EdgeSplit)
        and tree.split.theta == Fraction(1, 2)
        and all(not child.children for child in tree.children)
    )
    certified = depth_one and is_certified(tree, Target.NONNEGATIVE)
    rows.append(
        _row(
            "theta=1/2 split certifies nonnegativity at depth 1",
            "certified",
            "certified" if certified else "not certified",
        )
    )
    return rows


def _counterexample_rows(p: Polynomial, form: BernsteinForm) -> list[dict]:
    rows = [
        _row("nonzero coefficient count", "5", str(len(form.nums))),
        _row("P(0,0)", "0", str(p.evaluate((Fraction(0), Fraction(0))))),
    ]
    refs = {
        (2, 2, 0): Fraction(3),
        (1, 2, 1): Fraction(1),
        (1, 1, 2): Fraction(-1),
        (0, 4, 0): Fraction(3),
        (0, 0, 4): Fraction(30),
    }
    for index, ref in refs.items():
        rows.append(_row(f"b{index}", str(ref), str(form.coefficient(index))))
    negatives = cert_status(form).negative_indices
    rows.append(
        _row(
            "negative indices",
            "(1, 1, 2)",
            "; ".join(str(idx) for idx in negatives),
        )
    )
    return rows


def _gram_rows(p: Polynomial) -> list[dict]:
    g = counterexample_gram()
    diff = gram_polynomial(g) - p
    pivots = ldl_pivots(g.matrix)
    return [
        _row("z^T M z - P", "0", str(diff)),
        _row(
            "ldl pivots",
            "18; 3; 10; 78/5",
            "; ".join(str(v) for v in pivots),
        ),
        _row(
            "positive definite",
            "true",
            "true" if is_positive_definite(g.matrix) else "false",
        ),
    ]


def _persistence_rows(p: Polynomial, form: BernsteinForm) -> list[dict]:
    rows = []
    all_negative = True
    for beta1 in _BETA1_GRID:
        weights = vertex_weights_for(beta1)
        for rho in _RHO_GRID:
            closed = persistence_value(beta1, rho)
            transferred = transfer_combined(form, weights, rho)
            via_transfer = transferred.coefficient((1, 1, 2))
            via_conversion = homogenised_form(p, transferred.simplex, 4).coefficient((1, 1, 2))
            if via_transfer == via_conversion:
                computed = str(via_transfer)
            else:
                computed = f"transfer {via_transfer} != conversion {via_conversion}"
            all_negative = all_negative and via_transfer < 0 and via_conversion < 0
            rows.append(
                _row(
                    f"beta1={beta1} rho={rho} b(1,1,2)",
                    str(closed),
                    computed,
                )
            )
    rows.append(
        _row(
            "all 16 grid values strictly negative",
            "true",
            "true" if all_negative else "false",
        )
    )
    return rows


def reproduce_report() -> dict:
    """Re-derive every recorded value and flag each row MATCH/MISMATCH.

    Each Bernstein form the study reads is converted by
    ``bernstein.homogenised_form``; the persistence rows compare it with the
    closed-form triangle transfer on every family simplex.

    Returns {"example1": {...}, "counterexample": {...}, "gram": {...},
    "persistence": {...}, "all_match": bool} where each section holds a
    list of rows {item, reference, computed, match}.
    """
    p = counterexample_polynomial()
    form = homogenised_form(p, standard_simplex(2), 4)
    sections = {
        "example1": _example1_rows(),
        "counterexample": _counterexample_rows(p, form),
        "gram": _gram_rows(p),
        "persistence": _persistence_rows(p, form),
    }
    report: dict = {name: {"rows": rows} for name, rows in sections.items()}
    report["all_match"] = all(
        row["match"] for rows in sections.values() for row in rows
    )
    return report


def render_report(report: dict) -> str:
    """Aligned text table for the report dictionary."""
    lines = []
    mismatches = 0
    for name in ("example1", "counterexample", "gram", "persistence"):
        rows = report[name]["rows"]
        lines.append(f"== {name} ==")
        item_w = max(len(row["item"]) for row in rows)
        ref_w = max(max(len(row["reference"]) for row in rows), len("reference"))
        comp_w = max(max(len(row["computed"]) for row in rows), len("computed"))
        lines.append(
            f"{'item'.ljust(item_w)}  {'reference'.ljust(ref_w)}  "
            f"{'computed'.ljust(comp_w)}  flag"
        )
        for row in rows:
            mismatches += not row["match"]
            flag = "MATCH" if row["match"] else "MISMATCH"
            lines.append(
                f"{row['item'].ljust(item_w)}  {row['reference'].ljust(ref_w)}  "
                f"{row['computed'].ljust(comp_w)}  {flag}"
            )
        lines.append("")
    if report["all_match"]:
        lines.append("all rows match")
    else:
        lines.append(f"{mismatches} row(s) MISMATCH; see README for the analysis")
    return "\n".join(lines)
