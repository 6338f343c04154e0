"""Bernstein forms on a simplex.

A polynomial P of degree <= d has a unique expansion

    P = sum over |alpha| = d of  b_alpha * B_alpha,
    B_alpha = multinomial(d, alpha) * lambda_0^alpha_0 * .. * lambda_n^alpha_n,

in the degree-d Bernstein basis of a simplex.  Since the basis functions
are nonnegative on the simplex and sum to 1, the coefficient signs are
certificates: all b_alpha > 0 proves P > 0 on the simplex, all >= 0
proves P >= 0, and [min b, max b] encloses the range of P there.

``to_bernstein`` (a linear solve for the b_alpha) and ``from_bernstein``
(the sum above) read the same table of basis polynomials B_alpha, built
with one polynomial multiplication per index.

Forms store only nonzero coefficients; an absent index reads as 0 and
implicit zeros count when classifying (they block a strict-positivity
certificate) and when computing enclosure bounds.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from fractions import Fraction
from math import comb
from typing import Iterable, Iterator, Mapping

from . import linalg
from .polynomials import (
    Polynomial,
    as_rational,
    grlex_key,
    multinomial,
    vectors_with_sum,
)
from .simplices import BarycentricSystem

__all__ = [
    "DegreeTooLowError",
    "BernsteinForm",
    "CertKind",
    "CertStatus",
    "bernstein_basis_polynomial",
    "to_bernstein",
    "from_bernstein",
    "degree_elevate",
    "cert_status",
    "enclosure_bound",
]


class DegreeTooLowError(ValueError):
    """Requested basis degree cannot represent the polynomial exactly."""

    def __init__(self, required: int, requested: int):
        super().__init__(
            f"degree {requested} cannot represent a degree-{required} polynomial; "
            f"minimum degree is {required}"
        )
        self.required = required
        self.requested = requested


def _multi_index(index: Iterable[int], slots: int, degree: int) -> tuple[int, ...]:
    """``index`` as a tuple of ``slots`` nonnegative ints summing to ``degree``.

    Raises ValueError otherwise: a bool, 1.0 or 3/2 entry is never truncated.
    """
    index = tuple(index)
    if (
        len(index) != slots
        or any(type(a) is not int or a < 0 for a in index)
        or sum(index) != degree
    ):
        raise ValueError(
            f"bad multi-index {index}: need {slots} nonnegative ints summing to {degree}"
        )
    return index


class BernsteinForm:
    """Coefficients of a polynomial in the degree-d Bernstein basis of a simplex.

    ``coeffs`` maps multi-indices (length n+1, entries summing to d) to
    nonzero Fractions.  The mapping is total over the full index set with
    absent indices reading as zero.
    """

    __slots__ = ("system", "degree", "coeffs")

    def __init__(self, system: BarycentricSystem, degree: int, coeffs: Mapping):
        if not isinstance(degree, int) or degree < 0:
            raise ValueError(f"degree must be a nonnegative int, got {degree!r}")
        slots = system.simplex.dimension + 1
        canon: dict[tuple[int, ...], Fraction] = {}
        for index, value in coeffs.items():
            index = _multi_index(index, slots, degree)
            v = as_rational(value)
            if v:
                canon[index] = v
        object.__setattr__(self, "system", system)
        object.__setattr__(self, "degree", degree)
        object.__setattr__(self, "coeffs", canon)

    def __setattr__(self, name, value):
        raise AttributeError("BernsteinForm is immutable")

    @property
    def simplex(self):
        return self.system.simplex

    def coefficient(self, index: Iterable[int]) -> Fraction:
        index = _multi_index(index, self.simplex.dimension + 1, self.degree)
        return self.coeffs.get(index, Fraction(0))

    def indices(self) -> Iterator[tuple[int, ...]]:
        """The full index set, graded-lexicographic (here: lex) ascending."""
        return vectors_with_sum(self.simplex.dimension + 1, self.degree)

    def items_sorted(self):
        """Nonzero (index, value) pairs in graded-lex ascending order."""
        return sorted(self.coeffs.items(), key=lambda kv: grlex_key(kv[0]))

    def __eq__(self, other):
        if not isinstance(other, BernsteinForm):
            return NotImplemented
        return (
            self.simplex == other.simplex
            and self.degree == other.degree
            and self.coeffs == other.coeffs
        )

    def __repr__(self):
        return (
            f"BernsteinForm(degree={self.degree}, simplex={self.simplex!r}, "
            f"{len(self.coeffs)} nonzero coeffs)"
        )


class CertKind(enum.Enum):
    POSITIVE = "positive"
    NONNEGATIVE = "nonnegative"
    INDETERMINATE = "indeterminate"


@dataclass(frozen=True)
class CertStatus:
    """Sign classification of a form's full coefficient set.

    POSITIVE: every coefficient (implicit zeros included) is > 0.
    NONNEGATIVE: all >= 0 but not all > 0.
    INDETERMINATE: some coefficient is negative; ``negative_indices``
    lists them in graded-lex order.
    """

    kind: CertKind
    negative_indices: tuple[tuple[int, ...], ...] = ()


def _basis(
    system: BarycentricSystem, degree: int, alphas: Iterable[tuple[int, ...]]
) -> dict[tuple[int, ...], Polynomial]:
    """{alpha: B_alpha} for the given indices, all summing to ``degree``.

    lambda^alpha is lambda^(alpha - e_i) * lambda_i for the first nonzero
    alpha_i, so every index, and every index below it that is not built
    yet, costs one polynomial multiplication.
    """
    n = system.simplex.dimension
    coords = system.coords
    products = {(0,) * (n + 1): Polynomial.constant(n, 1)}

    def product(alpha: tuple[int, ...]) -> Polynomial:
        chain = []
        while alpha not in products:
            i = next(k for k, a in enumerate(alpha) if a)
            chain.append((alpha, i))
            alpha = alpha[:i] + (alpha[i] - 1,) + alpha[i + 1 :]
        for up, i in reversed(chain):
            products[up] = products[alpha] * coords[i]
            alpha = up
        return products[alpha]

    return {alpha: multinomial(degree, alpha) * product(alpha) for alpha in alphas}


def bernstein_basis_polynomial(
    system: BarycentricSystem, degree: int, alpha: Iterable[int]
) -> Polynomial:
    """B_alpha = multinomial(degree, alpha) * lambda^alpha as a Polynomial."""
    alpha = _multi_index(alpha, system.simplex.dimension + 1, degree)
    return _basis(system, degree, (alpha,))[alpha]


def to_bernstein(p: Polynomial, system: BarycentricSystem, degree: int) -> BernsteinForm:
    """Exact change of basis into the degree-d Bernstein basis.

    Expands every basis polynomial in the monomial basis and solves the
    square linear system matching monomial coefficients.  Raises
    DegreeTooLowError if degree < deg(p) (no exact representation).
    """
    n = system.simplex.dimension
    if p.num_vars != n:
        raise ValueError(f"variable count mismatch: {p.num_vars} != {n}")
    if not isinstance(degree, int) or degree < 0:
        raise ValueError(f"degree must be a nonnegative int, got {degree!r}")
    if p.degree > degree:
        raise DegreeTooLowError(required=p.degree, requested=degree)

    alphas = list(vectors_with_sum(n + 1, degree))
    monomials = [e for t in range(degree + 1) for e in vectors_with_sum(n, t)]
    assert len(alphas) == len(monomials)

    basis = _basis(system, degree, alphas)
    matrix = [[basis[a].coefficient(m) for a in alphas] for m in monomials]
    rhs = [p.coefficient(m) for m in monomials]
    solution = linalg.solve(matrix, rhs)
    coeffs = {a: v for a, v in zip(alphas, solution) if v}
    return BernsteinForm(system, degree, coeffs)


def from_bernstein(form: BernsteinForm) -> Polynomial:
    """Expand the form back into the monomial basis: sum of b_alpha * B_alpha (exact)."""
    basis = _basis(form.system, form.degree, form.coeffs)
    terms: dict[tuple[int, ...], Fraction] = {}
    for alpha, b in form.coeffs.items():
        for exps, c in basis[alpha].terms.items():
            terms[exps] = terms.get(exps, 0) + b * c
    return Polynomial(form.simplex.dimension, terms)


def degree_elevate(form: BernsteinForm, steps: int) -> BernsteinForm:
    """Rewrite the form in a higher-degree basis of the same simplex.

    One elevation step sends degree d to d+1 with
    b'_gamma = sum_i (gamma_i / (d+1)) * b_{gamma - e_i},
    applied ``steps`` times.  The represented polynomial is unchanged.
    """
    if not isinstance(steps, int) or steps < 1:
        raise ValueError(f"elevation steps must be a positive int, got {steps!r}")
    slots = form.simplex.dimension + 1
    coeffs = form.coeffs
    d = form.degree
    for _ in range(steps):
        acc: dict[tuple[int, ...], Fraction] = {}
        for alpha, b in coeffs.items():
            for i in range(slots):
                gamma = alpha[:i] + (alpha[i] + 1,) + alpha[i + 1 :]
                w = Fraction(gamma[i], d + 1) * b
                s = acc.get(gamma, Fraction(0)) + w
                if s:
                    acc[gamma] = s
                elif gamma in acc:
                    del acc[gamma]
        coeffs = acc
        d += 1
    return BernsteinForm(form.system, d, coeffs)


def cert_status(form: BernsteinForm) -> CertStatus:
    """Classify by the stored (nonzero) coefficients; an index not stored is a zero."""
    negatives = sorted(index for index, c in form.coeffs.items() if c < 0)
    if negatives:
        return CertStatus(CertKind.INDETERMINATE, tuple(negatives))
    if len(form.coeffs) < comb(form.simplex.dimension + form.degree, form.degree):
        return CertStatus(CertKind.NONNEGATIVE)
    return CertStatus(CertKind.POSITIVE)


def enclosure_bound(form: BernsteinForm) -> tuple[Fraction, Fraction]:
    """(min, max) over the full coefficient set; bounds the range on the simplex."""
    lo = hi = None
    for index in form.indices():
        c = form.coeffs.get(index, Fraction(0))
        lo = c if lo is None or c < lo else lo
        hi = c if hi is None or c > hi else hi
    return lo, hi
