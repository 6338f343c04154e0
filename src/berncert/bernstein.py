"""Bernstein forms on a simplex.

A polynomial P of degree <= d has a unique expansion

    P = sum over |alpha| = d of  b_alpha * B_alpha,
    B_alpha = multinomial(d, alpha) * lambda_0^alpha_0 * .. * lambda_n^alpha_n,

in the degree-d Bernstein basis of a simplex.  Since the basis functions
are nonnegative on the simplex and sum to 1, the coefficient signs are
certificates: all b_alpha > 0 proves P > 0 on the simplex, all >= 0
proves P >= 0, and [min b, max b] encloses the range of P there.

A form's only stored values are integers: ``nums`` maps each stored
index to a nonzero int numerator over one positive denominator ``den``,
which need not be reduced.  The kernels read and return that form and
build no ``Fraction`` per coefficient; ``coeffs``, the ``Fraction``
mapping, is built from it on each read (the text report, tests; JSON
reads ``nums``), and equality cross-multiplies numerators.
``Polynomial`` and ``Simplex`` work the same way.

``to_bernstein`` (a linear solve at P's own degree, then a closed
lift) and ``from_bernstein`` (the sum above) read the same unscaled
products {alpha: lambda^alpha}, built from the barycentric coordinates
with one polynomial multiplication per index; each function's docstring
gives its integer arithmetic, as does ``degree_elevate``'s.  A
conversion's index tables depend only on its sizes and come from one
cached table, ``_conversion_table``, which first refuses a form with
more than ``MAX_COEFFICIENTS`` coefficients or a basis change with more
than ``linalg.MAX_UNKNOWNS`` unknowns, before any index is enumerated.
The only Fractions a conversion builds are the solve's solution entries.
The engine keeps this solve for now: the benchmark's traced workloads
require nonzero ``linalg.solve``, ``linalg.invert`` and
``Polynomial.__mul__`` counts, which only ``certify``'s root conversion
and ``verify_tree``'s leaf check supply (ROADMAP items 1 and 2).  The
closed form that needs no coordinates, no basis products and no solve
is ``check.homogenised_form``; the study and ``check_certificate`` use it.
Kernel outputs are wrapped unchecked (``BernsteinForm._canonical``); the
public constructor and ``serialize.form_from_json`` both build through
the one checked constructor, ``BernsteinForm._from_ratios``.

Forms store only nonzero coefficients; an absent index reads as 0 and
implicit zeros count when classifying (they block a strict-positivity
certificate) and when computing enclosure bounds.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import comb, factorial, lcm, prod
from types import MappingProxyType
from typing import Iterable, Iterator, Mapping

from . import linalg
from .polynomials import (
    Polynomial,
    _check_unknowns,
    _Immutable,
    as_int,
    as_rational,
    multinomial,
    over_common_denominator,
    same_values,
    vectors_with_sum,
)
from .simplices import BarycentricSystem

__all__ = [
    "MAX_COEFFICIENTS",
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


# The most coefficients C(n+d, n) a degree-d form on an n-simplex may have;
# a conversion or elevation to a larger form is a ValueError before any
# index is enumerated.  The largest form the tests and the benchmark build
# has 126 (n = 4 at degree 5); n = 2 at degree 40 has 861.
MAX_COEFFICIENTS = 5000


def _check_size(n: int, degree: int) -> None:
    count = comb(n + degree, n)
    if count > MAX_COEFFICIENTS:
        raise ValueError(
            f"a degree-{degree} form on a simplex of dimension {n} has {count} coefficients, "
            f"more than the limit of {MAX_COEFFICIENTS}"
        )


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


class BernsteinForm(_Immutable):
    """Coefficients of a polynomial in the degree-d Bernstein basis of a simplex.

    ``den`` and ``nums`` hold the coefficients as nonzero int numerators
    over one positive denominator, keyed by multi-index (length n+1,
    entries summing to d); the mapping is total over the full index set
    with absent indices reading as zero.  ``coeffs`` is the same mapping
    of Fractions, built on each read.
    """

    __slots__ = ("system", "degree", "den", "nums")

    def __new__(cls, system: BarycentricSystem, degree: int, coeffs: Mapping) -> "BernsteinForm":
        """The form with the exact rational ``coeffs[index]`` at each index."""
        pairs = coeffs.items()
        return cls._from_ratios(system, degree, pairs, lambda v: as_rational(v).as_integer_ratio())

    @classmethod
    def _from_ratios(cls, system, degree, pairs: Iterable, ratio) -> "BernsteinForm":
        """The one checked constructor, from (index, value) pairs; ``ratio(value)``
        is (numerator, positive denominator).  It checks the degree, then each
        index and its value, in order; an index named twice is a ValueError."""
        as_int(degree, "degree")
        slots = system.simplex.dimension + 1
        ratios = {}
        for index, value in pairs:
            index = _multi_index(index, slots, degree)
            if index in ratios:
                raise ValueError(f"coefficient index {list(index)} is listed twice")
            ratios[index] = ratio(value)
        den = lcm(*(d for _, d in ratios.values()))
        nums = {index: n * (den // d) for index, (n, d) in ratios.items() if n}
        return cls._canonical(system, degree, den, nums)

    @classmethod
    def _canonical(cls, system, degree: int, den: int, nums: dict) -> "BernsteinForm":
        """Wrap ``nums`` / ``den`` unchecked: ``den`` must be a positive int
        and ``nums`` map valid multi-indices of length n+1 summing to
        ``degree`` to nonzero ints, as the results of this module's
        kernels do."""
        self = object.__new__(cls)
        object.__setattr__(self, "system", system)
        object.__setattr__(self, "degree", degree)
        object.__setattr__(self, "den", den)
        object.__setattr__(self, "nums", nums)
        return self

    @property
    def coeffs(self) -> dict[tuple[int, ...], Fraction]:
        """{index: nonzero Fraction}, built from ``nums`` on each read."""
        den = self.den
        return {index: Fraction(v, den) for index, v in self.nums.items()}

    @property
    def simplex(self):
        return self.system.simplex

    def coefficient(self, index: Iterable[int]) -> Fraction:
        index = _multi_index(index, self.simplex.dimension + 1, self.degree)
        return Fraction(self.nums.get(index, 0), self.den)

    def indices(self) -> Iterator[tuple[int, ...]]:
        """The full index set, graded-lexicographic (here: lex) ascending."""
        return vectors_with_sum(self.simplex.dimension + 1, self.degree)

    def __eq__(self, other):
        if not isinstance(other, BernsteinForm):
            return NotImplemented
        return (
            self.simplex == other.simplex
            and self.degree == other.degree
            and same_values(self, other)
        )

    def __repr__(self):
        return (
            f"BernsteinForm(degree={self.degree}, simplex={self.simplex!r}, "
            f"{len(self.nums)} nonzero coeffs)"
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
    system: BarycentricSystem, alphas: Iterable[tuple[int, ...]]
) -> dict[tuple[int, ...], Polynomial]:
    """{alpha: lambda^alpha} for the given indices, unscaled.

    lambda^alpha is lambda^(alpha - e_i) * lambda_i for the first nonzero
    alpha_i, so every index, and every index below it that is not built
    yet, costs one polynomial multiplication.
    """
    n = system.simplex.dimension
    coords = system.coords
    products = {(0,) * (n + 1): Polynomial._canonical(n, 1, {(0,) * n: 1})}

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

    return {alpha: product(alpha) for alpha in alphas}


def bernstein_basis_polynomial(
    system: BarycentricSystem, degree: int, alpha: Iterable[int]
) -> Polynomial:
    """B_alpha = multinomial(degree, alpha) * lambda^alpha as a Polynomial."""
    alpha = _multi_index(alpha, system.simplex.dimension + 1, degree)
    m = multinomial(degree, alpha)
    lam = _basis(system, (alpha,))[alpha]
    nums = {e: m * c for e, c in lam.nums.items()}
    return Polynomial._canonical(system.simplex.dimension, lam.den, nums)


def to_bernstein(p: Polynomial, system: BarycentricSystem, degree: int) -> BernsteinForm:
    """Exact change of basis into the degree-d Bernstein basis.

    Solves at k = deg(p) only, for the power-basis coefficients c_alpha
    of p = sum c_alpha * lambda^alpha over |alpha| = k.  The degree-d
    coefficients then follow in one closed step,

        b_gamma = sum over alpha <= gamma, |alpha| = k of
                  c_alpha * M(d-k, gamma-alpha) / M(d, gamma)

    with M the multinomial (Farouki, CAGD 2012), on integer numerators
    over one common denominator; at d = k this is b_alpha = c_alpha / M(k, alpha).
    1 / M(d, gamma) is the integer prod(gamma_i!) over d!, so the form's
    denominator is the solution's times p.den times d!.  The lift shares no
    code with ``degree_elevate``, the search's stepwise rule, so
    ``verify_tree``'s leaf check stays independent of the search's moves.  Raises
    DegreeTooLowError if degree < deg(p) (no exact representation), and
    ValueError if the form would have more than MAX_COEFFICIENTS
    coefficients or the solve more than ``linalg.MAX_UNKNOWNS`` unknowns.
    """
    n = system.simplex.dimension
    if p.num_vars != n:
        raise ValueError(f"variable count mismatch: {p.num_vars} != {n}")
    if p.degree > as_int(degree, "degree"):
        raise DegreeTooLowError(required=p.degree, requested=degree)
    alphas, row, deltas, weights = _conversion_table(n, p.degree, degree)
    # Column alpha holds the numerators of lambda^alpha over the basis's lcm
    # denominator den, so linalg.solve runs on an integer matrix against
    # den * p.den * p, and c_alpha is sol[alpha] over sol_den * p.den.
    basis = _basis(system, alphas)
    den = lcm(*(lam.den for lam in basis.values()))
    matrix = [[0] * len(alphas) for _ in alphas]
    for col, alpha in enumerate(alphas):
        lam = basis[alpha]
        scale = den // lam.den
        for e, c in lam.nums.items():
            matrix[row[e]][col] = c * scale
    rhs = [0] * len(alphas)
    for e, c in p.nums.items():
        rhs[row[e]] = c * den
    sol_den, sol = over_common_denominator(linalg.solve(matrix, rhs))
    acc: dict[tuple[int, ...], int] = {}
    for alpha, num in zip(alphas, sol):
        if num:
            for delta, m in deltas:
                gamma = tuple(a + b for a, b in zip(alpha, delta))
                acc[gamma] = acc.get(gamma, 0) + num * m
    nums = {gamma: acc[gamma] * w for gamma, w in weights if acc.get(gamma)}
    return BernsteinForm._canonical(system, degree, sol_den * p.den * factorial(degree), nums)


@lru_cache(maxsize=64)
def _conversion_table(n: int, k: int, d: int) -> tuple[tuple, MappingProxyType, tuple, tuple]:
    """The index tables of a degree-d conversion of a degree-k form on an n-simplex,
    once both sizes pass: the solve's columns (|alpha| = k, lex) and rows ({monomial
    exponents: row}, degree <= k, graded-lex), then the lift's (delta, M(d-k, delta))
    for |delta| = d-k and (gamma, prod(gamma_i!)) for |gamma| = d, in lex order.

    Cached by size; lru_cache keeps no raised call, so a refused size raises each time.
    """
    _check_size(n, d)
    _check_unknowns(comb(n + k, n), f"a degree-{k} basis change on a simplex of dimension {n}")
    alphas = tuple(vectors_with_sum(n + 1, k))
    monomials = (e for t in range(k + 1) for e in vectors_with_sum(n, t))
    row = {e: r for r, e in enumerate(monomials)}
    deltas = tuple((e, multinomial(d - k, e)) for e in vectors_with_sum(n + 1, d - k))
    weights = tuple((g, prod(map(factorial, g))) for g in vectors_with_sum(n + 1, d))
    return alphas, MappingProxyType(row), deltas, weights


def from_bernstein(form: BernsteinForm) -> Polynomial:
    """Expand the form back into the monomial basis: sum of b_alpha * M(d, alpha) * lambda^alpha.

    The sum runs on integer numerators over the form's denominator times
    the table's lcm denominator.
    """
    table = _basis(form.system, form.nums)
    den_t = lcm(*(lam.den for lam in table.values()))
    acc: dict[tuple[int, ...], int] = {}
    for alpha, num in form.nums.items():
        lam = table[alpha]
        weight = num * multinomial(form.degree, alpha) * (den_t // lam.den)
        for e, c in lam.nums.items():
            acc[e] = acc.get(e, 0) + weight * c
    nums = {e: v for e, v in acc.items() if v}
    return Polynomial._canonical(form.simplex.dimension, form.den * den_t, nums)


def degree_elevate(form: BernsteinForm, steps: int) -> BernsteinForm:
    """Rewrite the form in a higher-degree basis of the same simplex.

    One elevation step sends degree d to d+1 with
    b'_gamma = sum_i (gamma_i / (d+1)) * b_{gamma - e_i},
    applied ``steps`` times.  The represented polynomial is unchanged.
    The steps run on the form's integer numerators: a step is
    N'_gamma = sum_i gamma_i * N_{gamma - e_i} and multiplies the
    denominator by d+1.  A target form with more than MAX_COEFFICIENTS
    coefficients is a ValueError.
    """
    as_int(steps, "elevation steps", minimum=1)
    _check_size(form.simplex.dimension, form.degree + steps)
    slots = form.simplex.dimension + 1
    acc = form.nums
    den = form.den
    d = form.degree
    for _ in range(steps):
        nxt: dict[tuple[int, ...], int] = {}
        for alpha, c in acc.items():
            for i in range(slots):
                gamma = alpha[:i] + (alpha[i] + 1,) + alpha[i + 1 :]
                nxt[gamma] = nxt.get(gamma, 0) + gamma[i] * c
        acc = nxt
        d += 1
        den *= d
    nums = {gamma: c for gamma, c in acc.items() if c}
    return BernsteinForm._canonical(form.system, d, den, nums)


def cert_status(form: BernsteinForm) -> CertStatus:
    """Classify by the stored (nonzero) numerators; an index not stored is a zero."""
    negatives = sorted(index for index, c in form.nums.items() if c < 0)
    if negatives:
        return CertStatus(CertKind.INDETERMINATE, tuple(negatives))
    if len(form.nums) < comb(form.simplex.dimension + form.degree, form.degree):
        return CertStatus(CertKind.NONNEGATIVE)
    return CertStatus(CertKind.POSITIVE)


def enclosure_bound(form: BernsteinForm) -> tuple[Fraction, Fraction]:
    """(min, max) over the full coefficient set; bounds the range on the simplex."""
    nums = form.nums
    values = [nums.get(index, 0) for index in form.indices()]
    return Fraction(min(values), form.den), Fraction(max(values), form.den)
