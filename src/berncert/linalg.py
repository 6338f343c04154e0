"""Exact dense linear algebra over Fractions, computed on integers.

Small helper routines for the handful of square systems this package
solves: barycentric coordinate systems, basis-change systems, and the
LDL^T pivots used for the positive-definiteness check.  Everything is
exact; no pivot-size heuristics are needed, only nonzero pivots.

One fraction-free Gaussian elimination, with a row swap at a zero
pivot, serves the determinant, the solve and the inverse.  Each row of
[A | B] is scaled by the lcm of its denominators; a row update is then
integer arithmetic, and the updated row is divided by the gcd of its
entries (its content), which keeps the integers at the size of the
row's primitive part.  Back-substitution keeps each solution column as
integer numerators over one common denominator, rescaling a column's
solved entries in one pass when that denominator grows, so a Fraction
is built only once per output entry.  A type test of the whole row
(``set(map(type, row)) <= {int}``, run in C) finds the rows of plain
ints: such a row is copied as it is, with scale 1, and runs no Python
call per entry, so an integer system builds no Fraction before its
solution.  Any other row (a bool, float, str or Fraction anywhere in
it) is checked and scaled entry by entry; a bool is rejected like a
float.  The LDL^T pivots are the ratios of successive leading
principal minors, each one a ``determinant``.

Bareiss's integer-preserving elimination (Math. Comp. 1968) divides
every row by the previous pivot instead.  On the basis-change matrices
its entries are minors of the row-scaled matrix, which carry the
product of the row scales, and every row is rescaled at every step even
where it holds a zero; there it measured slower than elimination over
Fractions, and the content division measured faster than both.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, prod
from operator import mul

from .polynomials import as_rational, over_common_denominator

__all__ = ["SingularMatrixError", "determinant", "solve", "invert", "ldl_pivots"]


class SingularMatrixError(ValueError):
    pass


def _plain_ints(row: list) -> bool:
    """Whether every entry is a plain int (a bool is not one), in one test of the whole row."""
    return set(map(type, row)) <= {int}


def _entry(v) -> int | Fraction:
    """A plain int as it is (a bool is not one), anything else through ``as_rational``."""
    return v if type(v) is int else as_rational(v)


def _row(values) -> list[int | Fraction]:
    """``values`` as a new list: as they are if all are plain ints, else through ``_entry``."""
    row = list(values)
    return row if _plain_ints(row) else [_entry(v) for v in row]


def _copy(matrix) -> list[list[int | Fraction]]:
    rows = [_row(row) for row in matrix]
    n = len(rows)
    if n == 0 or any(len(r) != n for r in rows):
        raise ValueError("square matrix required")
    return rows


def _integer_rows(rows: list[list[int | Fraction]]) -> tuple[list[list[int]], list[int]]:
    """Each row times the lcm of its denominators, and those row scales;
    a row of plain ints is kept as it is, with scale 1."""
    scaled = [(1, row) if _plain_ints(row) else over_common_denominator(row) for row in rows]
    scales, out = zip(*scaled)
    return list(out), list(scales)


def _eliminate(rows: list[list[int]], factors: list[list[int]] | None = None) -> int:
    """Reduce integer rows [A | B] in place until the square A is upper triangular.

    A row with entry f below the pivot piv becomes p * row - q * top,
    with p/q = piv/f in lowest terms, divided by the gcd of its entries.
    Rows with a zero in the pivot column are left alone, since the
    basis-change matrices are mostly zeros, and entries below the
    diagonal are left stale.  A zero pivot is replaced by a row swap.
    ``factors`` holds one [num, den] pair per row; it is multiplied by
    what its row is multiplied by, and moves with it.  Returns the sign
    of the row swaps, or 0 when A is singular.
    """
    n = len(rows)
    sign = 1
    for col in range(n):
        pivot_row = next((r for r in range(col, n) if rows[r][col]), None)
        if pivot_row is None:
            return 0
        if pivot_row != col:
            rows[col], rows[pivot_row] = rows[pivot_row], rows[col]
            if factors is not None:
                factors[col], factors[pivot_row] = factors[pivot_row], factors[col]
            sign = -sign
        top = rows[col]
        piv = top[col]
        tail = top[col + 1 :]
        for r in range(col + 1, n):
            row = rows[r]
            f = row[col]
            if not f:
                continue
            h = gcd(piv, f)
            p, q = piv // h, f // h
            new = [p * v - q * t for v, t in zip(row[col + 1 :], tail)]
            g = gcd(*new) or 1
            if g != 1:
                new = [v // g for v in new]
            row[col + 1 :] = new
            if factors is not None:
                factors[r][0] *= p
                factors[r][1] *= g
    return sign


def _solve_augmented(a: list[list[int | Fraction]]) -> list[list[Fraction]]:
    """X with A X = B for the rows [A | B] of ``a``; SingularMatrixError if A is singular.

    After the elimination, back-substitution keeps each column of X as
    integer numerators over one common denominator ``den``: row r's
    numerators over den * piv are reduced by their gcd with piv, and den
    grows only by what is left of piv, which rescales the entries already
    solved, one list per column.
    """
    rows, _ = _integer_rows(a)
    if not _eliminate(rows):
        raise SingularMatrixError("singular matrix")
    n = len(rows)
    den = 1
    cols = [[0] * n for _ in range(len(rows[0]) - n)]
    for r in range(n - 1, -1, -1):
        row = rows[r]
        piv = row[r]
        upper = row[r + 1 : n]
        nums = [den * b - sum(map(mul, upper, col[r + 1 :])) for b, col in zip(row[n:], cols)]
        g = gcd(piv, *nums)
        scale = piv // g
        if scale != 1:
            for col in cols:
                col[r + 1 :] = [v * scale for v in col[r + 1 :]]
            den *= scale
        for col, v in zip(cols, nums):
            col[r] = v // g
    return [[Fraction(v, den) for v in out] for out in zip(*cols)]


def determinant(matrix) -> Fraction:
    """Determinant: the signed product of the elimination's pivots.

    Pivot k is the integer diagonal entry over what its row was
    multiplied by; a singular matrix has sign 0.
    """
    rows, scales = _integer_rows(_copy(matrix))
    factors = [[s, 1] for s in scales]
    sign = _eliminate(rows, factors)
    num = sign * prod(row[k] * den for k, (row, (_, den)) in enumerate(zip(rows, factors)))
    return Fraction(num, prod(s for s, _ in factors))


def solve(matrix, rhs) -> list[Fraction]:
    """Solve A x = b exactly; raises SingularMatrixError if A is singular."""
    a = _copy(matrix)
    b = _row(rhs)
    if len(b) != len(a):
        raise ValueError("rhs length does not match matrix")
    for row, v in zip(a, b):
        row.append(v)
    return [x for (x,) in _solve_augmented(a)]


def invert(matrix) -> list[list[Fraction]]:
    """Exact inverse: solve A X = I for the identity columns."""
    a = _copy(matrix)
    for i, row in enumerate(a):
        row.extend(int(i == j) for j in range(len(a)))
    return _solve_augmented(a)


def ldl_pivots(matrix) -> list[Fraction]:
    """Pivots of the (unpivoted) LDL^T factorization of a symmetric matrix.

    Pivot k is the ratio of the leading minors of orders k+1 and k.  The
    list stops at the first zero pivot, so it may be shorter than the
    dimension; the matrix is positive definite iff all n pivots exist and
    are positive.  Raises ValueError for a non-symmetric input.
    """
    a = _copy(matrix)
    if any(a[i][j] != a[j][i] for i in range(len(a)) for j in range(i)):
        raise ValueError("matrix is not symmetric")
    pivots, previous = [], 1
    for k in range(1, len(a) + 1):
        minor = determinant([row[:k] for row in a[:k]])
        pivots.append(minor / previous)
        if not minor:
            break
        previous = minor
    return pivots
