"""Exact dense linear algebra over Fractions.

Small helper routines for the handful of square systems this package
solves: barycentric coordinate systems, basis-change systems, and the
LDL^T pivots used for the positive-definiteness check.  Everything is
exact; no pivot-size heuristics are needed, only nonzero pivots.  One
Gaussian elimination serves the determinant, the solve and the inverse.
"""

from __future__ import annotations

from fractions import Fraction

from .polynomials import as_rational

__all__ = ["SingularMatrixError", "determinant", "solve", "invert", "ldl_pivots"]


class SingularMatrixError(ValueError):
    pass


def _copy(matrix) -> list[list[Fraction]]:
    rows = [[as_rational(v) for v in row] for row in matrix]
    n = len(rows)
    if n == 0 or any(len(r) != n for r in rows):
        raise ValueError("square matrix required")
    return rows


def _eliminate(rows: list[list[Fraction]]) -> int:
    """Reduce augmented rows [A | B] in place until the square A is upper triangular.

    Entries below the diagonal are left stale.  Zero entries are skipped,
    since the basis-change matrices are mostly zeros.  Returns the sign
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
            sign = -sign
        top = rows[col]
        piv = top[col]
        rest = [c for c in range(col + 1, len(top)) if top[c]]
        for row in rows[col + 1 :]:
            if row[col]:
                f = row[col] / piv
                for c in rest:
                    row[c] -= f * top[c]
    return sign


def _back_substitute(rows: list[list[Fraction]]) -> list[list[Fraction]]:
    """X with A X = B, for rows [A | B] that ``_eliminate`` made triangular."""
    n = len(rows)
    x: list = [None] * n
    for r in range(n - 1, -1, -1):
        row = rows[r]
        piv = row[r]
        known = [k for k in range(r + 1, n) if row[k]]
        out = []
        for c in range(n, len(row)):
            acc = row[c]
            for k in known:
                acc -= row[k] * x[k][c - n]
            out.append(acc / piv)
        x[r] = out
    return x


def determinant(matrix) -> Fraction:
    """Determinant: the signed product of the elimination's pivots."""
    m = _copy(matrix)
    det = Fraction(_eliminate(m))
    for k, row in enumerate(m):
        det *= row[k]
    return det


def solve(matrix, rhs) -> list[Fraction]:
    """Solve A x = b exactly; raises SingularMatrixError if A is singular."""
    a = _copy(matrix)
    b = [as_rational(v) for v in rhs]
    if len(b) != len(a):
        raise ValueError("rhs length does not match matrix")
    for row, v in zip(a, b):
        row.append(v)
    if not _eliminate(a):
        raise SingularMatrixError("singular matrix")
    return [x for (x,) in _back_substitute(a)]


def invert(matrix) -> list[list[Fraction]]:
    """Exact inverse: solve A X = I for the identity columns."""
    a = _copy(matrix)
    for i, row in enumerate(a):
        row.extend(Fraction(int(i == j)) for j in range(len(a)))
    if not _eliminate(a):
        raise SingularMatrixError("singular matrix")
    return _back_substitute(a)


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
    pivots: list[Fraction] = []
    prev = Fraction(1)
    for k in range(1, len(a) + 1):
        minor = determinant([row[:k] for row in a[:k]])
        pivots.append(minor / prev)
        if not minor:
            break
        prev = minor
    return pivots
