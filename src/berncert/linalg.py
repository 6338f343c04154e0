"""Exact dense linear algebra over Fractions, computed on integers.

Small helper routines for the handful of square systems this package
solves: barycentric coordinate systems, basis-change systems, and the
LDL^T pivots used for the positive-definiteness check.  Everything is
exact; no pivot-size heuristics are needed, only nonzero pivots.

One fraction-free Gaussian elimination, with a row swap at a zero
pivot, serves the determinant, the solve and the inverse.  Each row of
[A | B] is read once, by ``polynomials.over_common_denominator``, as
integers over the lcm of its denominators: a row of plain ints is found
by one type test run in C and kept with scale 1, so an integer system
builds no Fraction before its solution, and a bool or float anywhere is
rejected.  A row update is then integer arithmetic, and the updated row
is divided by the gcd of its entries (its content), which keeps the
integers at the size of the row's primitive part.  Back-substitution
keeps each solution column as integer numerators over one common
denominator, rescaling a column's solved entries in one pass when that
denominator grows, so a Fraction is built only once per output entry.
The LDL^T pivots are the ratios of successive leading principal minors,
each one a ``determinant``.

Bareiss's integer-preserving elimination (Math. Comp. 1968) divides
every row by the previous pivot instead.  On the basis-change matrices
its entries are minors of the row-scaled matrix, which carry the
product of the row scales, and every row is rescaled at every step even
where it holds a zero; there it measured slower than elimination over
Fractions, and the content division measured faster than both.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import chain
from math import gcd, prod
from operator import mul

from .polynomials import over_common_denominator

__all__ = ["SingularMatrixError", "determinant", "solve", "invert", "ldl_pivots"]


class SingularMatrixError(ValueError):
    pass


def _integer_rows(matrix, rhs=None, identity=False) -> tuple[list[list[int]], tuple[int, ...]]:
    """The rows of [A | B] as ints over their lcm denominators, and those row scales:
    A is the square ``matrix``, B the column ``rhs``, the identity, or empty.  The
    shape check reads the caller's rows; ``over_common_denominator`` makes the one
    copy of each augmented row, which the elimination may then rewrite."""
    rows = list(matrix)
    n = len(rows)
    if n == 0 or any(len(r) != n for r in rows):
        raise ValueError("square matrix required")
    if rhs is not None:
        rhs = list(rhs)
        if len(rhs) != n:
            raise ValueError("rhs length does not match matrix")
        rows = (chain(row, (v,)) for row, v in zip(rows, rhs))
    elif identity:
        rows = (chain(row, (int(i == j) for j in range(n))) for i, row in enumerate(rows))
    scales, rows = zip(*map(over_common_denominator, rows))
    return list(rows), scales


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


def _solve_augmented(rows: list[list[int]]) -> list[list[Fraction]]:
    """X with A X = B for the integer rows [A | B]; SingularMatrixError if A is singular.

    After the elimination, back-substitution keeps each column of X as
    integer numerators over one common denominator ``den``: row r's
    numerators over den * piv are reduced by their gcd with piv, and den
    grows only by what is left of piv, which rescales the entries already
    solved, one list per column.
    """
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
    rows, scales = _integer_rows(matrix)
    factors = [[s, 1] for s in scales]
    sign = _eliminate(rows, factors)
    num = sign * prod(row[k] * den for k, (row, (_, den)) in enumerate(zip(rows, factors)))
    return Fraction(num, prod(s for s, _ in factors))


def solve(matrix, rhs) -> list[Fraction]:
    """Solve A x = b exactly; raises SingularMatrixError if A is singular."""
    rows, _ = _integer_rows(matrix, rhs=rhs)
    return [x for (x,) in _solve_augmented(rows)]


def invert(matrix) -> list[list[Fraction]]:
    """Exact inverse: solve A X = I for the identity columns."""
    rows, _ = _integer_rows(matrix, identity=True)
    return _solve_augmented(rows)


def ldl_pivots(matrix) -> list[Fraction]:
    """Pivots of the (unpivoted) LDL^T factorization of a symmetric matrix.

    Pivot k is the ratio of the leading minors of orders k+1 and k.  The
    list stops at the first zero pivot, so it may be shorter than the
    dimension; the matrix is positive definite iff all n pivots exist and
    are positive.  Raises ValueError for a non-symmetric input.  Integer
    row i is s_i times row i of A, so the symmetry test cross-multiplies
    by the scales, and with D_k the integer rows' leading minors, pivot k
    is D_(k+1) / (D_k * s_k).
    """
    rows, scales = _integer_rows(matrix)
    n = len(rows)
    if any(rows[i][j] * scales[j] != rows[j][i] * scales[i] for i in range(n) for j in range(i)):
        raise ValueError("matrix is not symmetric")
    pivots, previous = [], 1
    for k in range(1, n + 1):
        minor = determinant([row[:k] for row in rows[:k]]).numerator  # an int: the rows are ints
        pivots.append(Fraction(minor, previous * scales[k - 1]))
        if not minor:
            break
        previous = minor
    return pivots
