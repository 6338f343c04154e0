import random
from fractions import Fraction

import pytest

from berncert import (
    GRAM_MATRIX,
    SingularMatrixError,
    determinant,
    invert,
    ldl_pivots,
    solve,
)
from helpers import rand_rational


def _rand_matrix(rng, n):
    return [[rand_rational(rng, -5, 5, 6) for _ in range(n)] for _ in range(n)]


def test_determinant_small():
    assert determinant([[Fraction(3)]]) == 3
    assert determinant([[1, 2], [3, 4]]) == -2
    assert determinant([[0, 1], [1, 0]]) == -1
    assert determinant([[1, 2], [2, 4]]) == 0
    # singular, with a zero in the first pivot position
    assert determinant([[0, 1, 2], [1, 2, 3], [0, 2, 4]]) == 0
    assert determinant([[0, 1, 1], [1, 0, 0], [1, 1, 1]]) == 0


def test_determinant_triangular_product_of_diagonal():
    m = [[2, 5, 7], [0, 3, 1], [0, 0, Fraction(1, 2)]]
    assert determinant(m) == 3


def test_determinant_row_swap_changes_sign():
    rng = random.Random(4)
    m = _rand_matrix(rng, 3)
    swapped = [m[1], m[0], m[2]]
    assert determinant(swapped) == -determinant(m)


def test_solve_satisfies_system():
    rng = random.Random(11)
    for _ in range(15):
        n = rng.randint(1, 4)
        m = _rand_matrix(rng, n)
        if determinant(m) == 0:
            continue
        rhs = [rand_rational(rng) for _ in range(n)]
        x = solve(m, rhs)
        for i in range(n):
            assert sum(m[i][j] * x[j] for j in range(n)) == rhs[i]


def test_solve_singular_raises():
    with pytest.raises(SingularMatrixError):
        solve([[1, 2], [2, 4]], [1, 1])


def test_solve_rejects_wrong_rhs_length():
    for rhs in ([1], [1, 2, 3]):
        with pytest.raises(ValueError):
            solve([[1, 2], [3, 4]], rhs)


def test_invert_gives_identity():
    rng = random.Random(23)
    for _ in range(10):
        n = rng.randint(1, 4)
        m = _rand_matrix(rng, n)
        if determinant(m) == 0:
            continue
        inv = invert(m)
        for i in range(n):
            for j in range(n):
                got = sum(m[i][k] * inv[k][j] for k in range(n))
                assert got == (1 if i == j else 0)


def test_invert_singular_raises():
    with pytest.raises(SingularMatrixError):
        invert([[1, 1], [1, 1]])


def test_ldl_pivots_identity_and_diag():
    assert ldl_pivots([[1, 0], [0, 1]]) == [1, 1]
    assert ldl_pivots([[2, 0], [0, Fraction(-1, 3)]]) == [2, Fraction(-1, 3)]


def test_ldl_pivots_stop_at_first_zero_pivot():
    assert ldl_pivots([[0, 1], [1, 0]]) == [0]
    assert ldl_pivots([[1, 1], [1, 1]]) == [1, 0]
    # second leading minor is 0 although the matrix is not singular
    m = [[1, 1, 2], [1, 1, 3], [2, 3, 1]]
    assert determinant(m) != 0
    assert ldl_pivots(m) == [1, 0]


def test_ldl_pivots_requires_symmetry():
    with pytest.raises(ValueError):
        ldl_pivots([[1, 2], [3, 1]])
    # rows with different scales (6 and 2) that hold a symmetric matrix
    half, third = Fraction(1, 2), Fraction(1, 3)
    assert ldl_pivots([[third, half], [half, 5]]) == [third, 5 - half * half / third]
    # scaled to integers both rows read [1, 1], but the entries are not symmetric
    with pytest.raises(ValueError):
        ldl_pivots([[1, 1], [half, half]])


def test_ldl_pivots_match_leading_minor_ratios():
    # pivot k equals minor(k)/minor(k-1) when all leading minors are nonzero
    pivots = ldl_pivots(GRAM_MATRIX)
    minors = [
        determinant([row[: k + 1] for row in GRAM_MATRIX[: k + 1]])
        for k in range(4)
    ]
    assert minors == [18, 54, 540, 8424]
    assert pivots == [18, 3, 10, Fraction(78, 5)]
    prev = Fraction(1)
    for pivot, minor in zip(pivots, minors):
        assert pivot == minor / prev
        prev = minor


def test_non_square_rejected():
    m = [[1, 2, 3], [4, 5, 6]]
    with pytest.raises(ValueError):
        determinant(m)
    with pytest.raises(ValueError):
        solve(m, [1, 2])
    with pytest.raises(ValueError):
        invert(m)


def test_integer_entries_match_fraction_entries():
    rng = random.Random(29)
    checked = 0
    while checked < 12:
        n = rng.randint(1, 12)
        ints = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(n)]
        fracs = [[Fraction(v) for v in row] for row in ints]
        # plain-int rows and Fraction rows in one matrix, as the row-level test sees them
        mixed_rows = [
            row if i % 2 else [v + Fraction(1, 2) for v in row] for i, row in enumerate(ints)
        ]
        assert determinant(ints) == determinant(fracs)
        mixed_fracs = [[Fraction(v) for v in row] for row in mixed_rows]
        assert determinant(mixed_rows) == determinant(mixed_fracs)
        if determinant(fracs) == 0 or determinant(mixed_rows) == 0:
            continue
        rhs = [rng.randint(-9, 9) for _ in range(n)]
        assert solve(ints, rhs) == solve(fracs, [Fraction(v) for v in rhs])
        # an int matrix against a Fraction right-hand side, as in the basis change
        mixed = [rand_rational(rng) for _ in range(n)]
        assert solve(ints, mixed) == solve(fracs, mixed)
        assert invert(ints) == invert(fracs)
        inv = invert(mixed_rows)
        for i in range(n):
            for j in range(n):
                assert sum(mixed_rows[i][k] * inv[k][j] for k in range(n)) == (i == j)
        x = solve(mixed_rows, rhs)
        assert [sum(a * v for a, v in zip(row, x)) for row in mixed_rows] == rhs
        checked += 1


def test_bool_and_float_entries_are_rejected():
    for bad in (True, 1.0):
        with pytest.raises(TypeError):
            determinant([[bad, 0], [0, 1]])
        with pytest.raises(TypeError):
            invert([[1, 0], [0, bad]])
        with pytest.raises(TypeError):
            solve([[1, bad], [0, 1]], [1, 1])
        with pytest.raises(TypeError):
            solve([[1, 0], [0, 1]], [1, bad])
        # last in a longer row of plain ints, so only a test of the whole row sees it
        longer = [[int(i == j) for j in range(6)] for i in range(6)]
        longer[2][-1] = bad
        for call in (determinant, invert, lambda m: solve(m, [1] * 6)):
            with pytest.raises(TypeError):
                call(longer)
        with pytest.raises(TypeError):
            solve([[int(i == j) for j in range(6)] for i in range(6)], [1] * 5 + [bad])


def test_arguments_are_left_unchanged():
    # the rows of plain ints are copied, not rebuilt: a row shared with the caller
    # would be extended by the right-hand side and rewritten by the elimination
    matrix = [[0, 2, 1], [3, 1, 4], [Fraction(1, 2), 5, 9]]
    rhs = [1, Fraction(-2, 3), 5]
    rows = list(matrix)
    entries = [list(row) for row in matrix]
    for call in (determinant, invert, lambda m: solve(m, rhs)):
        call(matrix)
        assert all(a is b for a, b in zip(matrix, rows)) and len(matrix) == 3
        assert matrix == entries
        assert rhs == [1, Fraction(-2, 3), 5]
