"""Property tests for the integer kernels against independent oracles.

``Polynomial.__mul__`` is checked against a naive per-term Fraction
product, ``determinant`` against cofactor expansion, ``ldl_pivots``
against ratios of cofactor-expanded leading minors, and ``solve`` /
``invert`` by exact substitution (A x == b, A A^-1 == I).  The search's
moves: ``transfer_edge_v2`` against the full change of basis
``restrict_general``, ``degree_elevate`` against single steps, a
per-term Fraction step and ``to_bernstein``, and every split child's
inherited determinant against a fresh elimination of its vertices.
The integer forms: the kernels, the edge-move geometry, edge lengths
and JSON output build no ``Fraction`` (counted by patching
``Fraction.__new__``), and the ``Fraction`` mappings read from their
unreduced numerators still equal the oracles.
"""

import random
from fractions import Fraction

import pytest

from berncert import (
    BernsteinForm,
    Polynomial,
    Simplex,
    SingularMatrixError,
    barycentric_system,
    degree_elevate,
    determinant,
    from_bernstein,
    invert,
    ldl_pivots,
    restrict_general,
    solve,
    split_edge,
    to_bernstein,
    transfer_edge_v2,
)
from berncert.bernstein import _basis, cert_status
from berncert.certify import _edge_lengths
from berncert.polynomials import vectors_with_sum
from berncert.serialize import form_to_json, simplex_to_json
from helpers import rand_polynomial, rand_rational, rand_simplex
from test_bernstein import _homogenised_oracle, _solve_oracle

BIG_DENOMINATORS = (1, 3, 2**61 - 1, 10**30 + 7, 2**40, 999_999_937)


def _naive_product(p, q):
    out = {}
    for e1, c1 in p.terms.items():
        for e2, c2 in q.terms.items():
            e = tuple(a + b for a, b in zip(e1, e2))
            out[e] = out.get(e, Fraction(0)) + c1 * c2
    return {e: c for e, c in out.items() if c}


def _assert_canonical(p):
    for exps, c in p.terms.items():
        assert type(exps) is tuple and len(exps) == p.num_vars
        assert type(c) is Fraction and c != 0


def _sparse_polynomial(rng, num_vars, big=False):
    terms = {}
    for _ in range(rng.randint(0, 6)):
        exps = tuple(rng.randint(0, 3) for _ in range(num_vars))
        if big:
            c = Fraction(rng.randint(-(10**20), 10**20), rng.choice(BIG_DENOMINATORS))
        else:
            c = rand_rational(rng, -4, 4, 6)
        terms[exps] = c
    return Polynomial(num_vars, terms)


@pytest.mark.parametrize("big", [False, True])
def test_product_matches_naive_fraction_product(big):
    rng = random.Random(101 + big)
    for _ in range(120):
        n = rng.randint(1, 4)
        p, q = _sparse_polynomial(rng, n, big), _sparse_polynomial(rng, n, big)
        got = p * q
        _assert_canonical(got)
        assert got.terms == _naive_product(p, q)
        assert (q * p).terms == got.terms


def test_product_drops_terms_that_cancel():
    x1, x2 = Polynomial.variable(2, 0), Polynomial.variable(2, 1)
    got = (x1 + x2) * (x1 - x2)
    assert got.terms == {(2, 0): 1, (0, 2): -1}
    _assert_canonical(got)

    rng = random.Random(7)
    for _ in range(60):
        n = rng.randint(1, 3)
        a, b = _sparse_polynomial(rng, n), _sparse_polynomial(rng, n, big=True)
        got = (a + b) * (a - b)  # the cross terms a*b cancel
        _assert_canonical(got)
        assert got.terms == _naive_product(a + b, a - b)
        assert got == a * a - b * b


def test_product_with_zero_polynomial():
    rng = random.Random(9)
    for _ in range(20):
        n = rng.randint(1, 3)
        p = _sparse_polynomial(rng, n, big=True)
        zero = Polynomial.zero(n)
        for got in (p * zero, zero * p, p * 0, 0 * p, zero * zero):
            assert got.terms == {} and got.num_vars == n and got.is_zero


def test_product_with_constants():
    rng = random.Random(13)
    for _ in range(40):
        n = rng.randint(1, 3)
        p = _sparse_polynomial(rng, n, big=rng.random() < 0.5)
        c = Fraction(rng.randint(-50, 50), rng.choice(BIG_DENOMINATORS))
        want = {e: v * c for e, v in p.terms.items() if v * c}
        for got in (p * c, c * p, p * Polynomial.constant(n, c)):
            _assert_canonical(got)
            assert got.terms == want
        assert (p * 1).terms == p.terms and (3 * p).terms == _naive_product(
            p, Polynomial.constant(n, 3)
        )


def test_product_of_large_denominators_is_reduced():
    x = Polynomial.variable(1, 0)
    p = Fraction(1, 2**61 - 1) * x + Fraction(5, 6)
    q = Fraction(2**61 - 1, 3) * x - Fraction(7, 10**30 + 7)
    got = p * q
    assert got.terms == _naive_product(p, q)
    assert got.coefficient((2,)) == Fraction(1, 3)
    assert got.coefficient((1,)) == Fraction(5 * (2**61 - 1), 18) - Fraction(
        7, (2**61 - 1) * (10**30 + 7)
    )


# --- linear algebra ------------------------------------------------------


def _cofactor_det(m):
    if len(m) == 1:
        return m[0][0]
    total = Fraction(0)
    for j, v in enumerate(m[0]):
        if v:
            minor = [row[:j] + row[j + 1 :] for row in m[1:]]
            total += (-1) ** j * v * _cofactor_det(minor)
    return total


def _rand_matrix(rng, n, zero_share=0.3):
    return [
        [
            Fraction(0) if rng.random() < zero_share else rand_rational(rng, -6, 6, 9)
            for _ in range(n)
        ]
        for _ in range(n)
    ]


def _mat_vec(a, x):
    return [sum(aij * xj for aij, xj in zip(row, x)) for row in a]


def _mat_mul(a, b):
    return [[sum(x * y for x, y in zip(row, col)) for col in zip(*b)] for row in a]


def test_determinant_matches_cofactor_expansion():
    rng = random.Random(21)
    for _ in range(300):
        n = rng.randint(1, 4)
        m = _rand_matrix(rng, n, zero_share=rng.choice((0, 0.3, 0.6)))
        got = determinant(m)
        assert type(got) is Fraction
        assert got == _cofactor_det(m)


def test_determinant_of_singular_and_large_denominator_matrices():
    rng = random.Random(22)
    for _ in range(60):
        n = rng.randint(2, 4)
        m = _rand_matrix(rng, n)
        k = rng.randrange(n)
        m[k] = [2 * v for v in m[(k + 1) % n]]  # a repeated row, up to scale
        assert determinant(m) == 0
        big = [
            [Fraction(rng.randint(-9, 9), rng.choice(BIG_DENOMINATORS)) for _ in range(n)]
            for _ in range(n)
        ]
        assert determinant(big) == _cofactor_det(big)


def test_ldl_pivots_are_ratios_of_leading_minors():
    rng = random.Random(23)
    for _ in range(200):
        n = rng.randint(1, 4)
        a = _rand_matrix(rng, n, zero_share=0.2)
        sym = [[a[i][j] if i <= j else a[j][i] for j in range(n)] for i in range(n)]
        want, prev = [], Fraction(1)
        for k in range(1, n + 1):
            minor = _cofactor_det([row[:k] for row in sym[:k]])
            want.append(minor / prev)
            if not minor:
                break
            prev = minor
        got = ldl_pivots(sym)
        assert all(type(v) is Fraction for v in got)
        assert got == want


def _needs_row_swap(rng, n):
    """A nonsingular matrix whose (0, 0) entry is zero, with negative entries."""
    while True:
        m = _rand_matrix(rng, n, zero_share=0.4)
        m[0][0] = Fraction(0)
        m[rng.randrange(1, n)][rng.randrange(n)] = -abs(rand_rational(rng, 1, 7, 5))
        if _cofactor_det(m):
            return m


def test_solve_substitutes_back_exactly():
    rng = random.Random(31)
    for trial in range(200):
        n = rng.randint(1, 4)
        m = _needs_row_swap(rng, n) if trial % 2 and n > 1 else _rand_matrix(rng, n)
        b = [rand_rational(rng, -8, 8, 7) for _ in range(n)]
        if not _cofactor_det(m):
            with pytest.raises(SingularMatrixError):
                solve(m, b)
            continue
        x = solve(m, b)
        assert all(type(v) is Fraction for v in x)
        assert _mat_vec(m, x) == b


def test_invert_gives_identity_exactly():
    rng = random.Random(37)
    for trial in range(150):
        n = rng.randint(1, 4)
        m = _needs_row_swap(rng, n) if trial % 2 and n > 1 else _rand_matrix(rng, n)
        if not _cofactor_det(m):
            with pytest.raises(SingularMatrixError):
                invert(m)
            continue
        inv = invert(m)
        assert all(type(v) is Fraction for row in inv for v in row)
        identity = [[int(i == j) for j in range(n)] for i in range(n)]
        assert _mat_mul(m, inv) == identity
        assert _mat_mul(inv, m) == identity


def test_zero_leading_rows_and_negative_entries():
    m = [[0, 0, -2], [0, -3, 1], [5, 1, 0]]
    assert determinant(m) == _cofactor_det([[Fraction(v) for v in r] for r in m]) == -30
    x = solve(m, [4, -1, 2])
    assert _mat_vec(m, x) == [4, -1, 2]
    assert _mat_mul(m, invert(m)) == [[1, 0, 0], [0, 1, 0], [0, 0, 1]]


def test_kernels_keep_their_exceptions():
    for bad in ([[1.0, 2], [3, 4]], [[1, 2], [3, 0.5]]):
        for fn in (determinant, invert, ldl_pivots):
            with pytest.raises(TypeError):
                fn(bad)
        with pytest.raises(TypeError):
            solve(bad, [1, 2])
    with pytest.raises(TypeError):
        solve([[1, 2], [3, 4]], [1, 2.5])
    for fn in (determinant, invert, ldl_pivots):
        with pytest.raises(ValueError):
            fn([[1, 2, 3], [4, 5, 6]])
    with pytest.raises(SingularMatrixError):
        invert([[0, 0], [0, 0]])
    with pytest.raises(SingularMatrixError):
        solve([[1, 2], [2, 4]], [1, 2])
    with pytest.raises(TypeError):
        Polynomial.variable(2, 0) * 1.5


# --- the search's moves --------------------------------------------------

RHOS = (Fraction(0), Fraction(1, 2), Fraction(2, 7), Fraction(5, 9))
THETAS = (Fraction(1, 2), Fraction(1, 3), Fraction(5, 7))


def _assert_canonical_form(form):
    slots = form.simplex.dimension + 1
    for index, c in form.coeffs.items():
        assert type(index) is tuple and len(index) == slots
        assert all(type(a) is int and a >= 0 for a in index)
        assert sum(index) == form.degree
        assert type(c) is Fraction and c != 0


def _rand_form(rng, n, degree, big=False):
    """A random form on a random simplex, about a third of its coefficients zero."""
    coeffs = {}
    for index in vectors_with_sum(n + 1, degree):
        if rng.random() < 0.35:
            continue
        if big:
            num = rng.randint(-(10**12), 10**12)
            coeffs[index] = Fraction(num, rng.choice(BIG_DENOMINATORS))
        else:
            coeffs[index] = rand_rational(rng, -5, 5, 9)
    return BernsteinForm(barycentric_system(rand_simplex(rng, n)), degree, coeffs)


def _ordered_edges(n):
    return [(i, j) for i in range(n + 1) for j in range(n + 1) if i != j]


def test_edge_move_matches_general_reexpansion():
    rng = random.Random(41)
    for n, degree in ((1, 4), (2, 3), (3, 2), (4, 2)):
        forms = [_rand_form(rng, n, degree), _rand_form(rng, n, degree, big=True)]
        forms.append(BernsteinForm(forms[0].system, degree, {}))  # the zero form
        for form in forms:
            for i, j in _ordered_edges(n):
                for rho in RHOS:
                    moved = transfer_edge_v2(form, rho, i, j)
                    _assert_canonical_form(moved)
                    assert moved == restrict_general(form, moved.simplex)
                    assert moved.simplex.vertices[:j] == form.simplex.vertices[:j]
    zero = BernsteinForm(barycentric_system(rand_simplex(rng, 3)), 3, {})
    assert transfer_edge_v2(zero, Fraction(2, 7), 1, 3).coeffs == {}


def test_edge_move_drops_coefficients_that_cancel():
    # at g = (d-1) e_i + e_j the sum is rho * b_{d e_i} + (1-rho) * b_{(d-1) e_i + e_j}
    rng = random.Random(43)
    for n in (1, 2, 3, 4):
        degree = 3 if n < 4 else 2
        system = barycentric_system(rand_simplex(rng, n))
        for i, j in _ordered_edges(n):
            for rho in RHOS[1:]:
                at_i = tuple(degree if k == i else 0 for k in range(n + 1))
                near_i = tuple(
                    degree - 1 if k == i else int(k == j) for k in range(n + 1)
                )
                form = BernsteinForm(system, degree, {at_i: 1 - rho, near_i: -rho})
                moved = transfer_edge_v2(form, rho, i, j)
                _assert_canonical_form(moved)
                assert near_i not in moved.coeffs
                assert moved == restrict_general(form, moved.simplex)


def _one_elevation_step(form):
    """b'_g = sum_i g_i / (d+1) * b_{g - e_i}, one Fraction product per term."""
    d = form.degree
    out = {}
    for alpha, b in form.coeffs.items():
        for i in range(len(alpha)):
            gamma = alpha[:i] + (alpha[i] + 1,) + alpha[i + 1 :]
            out[gamma] = out.get(gamma, Fraction(0)) + Fraction(gamma[i], d + 1) * b
    return {g: c for g, c in out.items() if c}


def test_elevation_matches_single_steps_and_conversion():
    rng = random.Random(47)
    for n, degree in ((1, 3), (2, 2), (2, 4), (3, 2), (4, 1)):
        for big in (False, True):
            form = _rand_form(rng, n, degree, big=big)
            p = from_bernstein(form)
            stepped = form
            for steps in (1, 2, 3):
                want = _one_elevation_step(stepped)
                stepped = degree_elevate(stepped, 1)
                assert stepped.coeffs == want
                elevated = degree_elevate(form, steps)
                _assert_canonical_form(elevated)
                assert elevated == stepped
                assert elevated.degree == degree + steps
                assert elevated.system is form.system
                assert elevated == to_bernstein(p, form.system, degree + steps)
    zero = BernsteinForm(barycentric_system(rand_simplex(rng, 2)), 2, {})
    for steps in (1, 4):
        elevated = degree_elevate(zero, steps)
        assert elevated.coeffs == {} and elevated.degree == 2 + steps


def test_split_and_move_children_inherit_the_determinant():
    rng = random.Random(53)
    for n in (1, 2, 3, 4):
        for _ in range(4):
            simplex = rand_simplex(rng, n)
            form = BernsteinForm(barycentric_system(simplex), 1, {})
            for i, j in _ordered_edges(n):
                children = [transfer_edge_v2(form, rho, i, j).simplex for rho in RHOS]
                for theta in THETAS:
                    children += split_edge(simplex, i, j, theta)
                for child in children:
                    fresh = Simplex(child.vertices)
                    assert type(child.determinant) is Fraction
                    assert child.determinant == fresh.determinant
                    assert child == fresh


# --- integer forms ---------------------------------------------------------


@pytest.fixture
def fractions_built(monkeypatch):
    """One entry per Fraction built through ``Fraction.__new__`` while the test runs."""
    built = []
    new = Fraction.__new__

    def counting(cls, *args, **kwargs):
        built.append(args)
        return new(cls, *args, **kwargs)

    monkeypatch.setattr(Fraction, "__new__", staticmethod(counting))
    return built


def test_kernels_build_no_fraction_on_integer_forms(fractions_built):
    rng = random.Random(59)
    cases = []
    for n, degree in ((1, 4), (2, 3), (3, 2)):
        p, q = _sparse_polynomial(rng, n, big=True), _sparse_polynomial(rng, n)
        form = _rand_form(rng, n, degree, big=True)
        form.system.coords  # solved on first read, outside the count
        cases.append((p, q, form))
    fractions_built.clear()
    results = []
    for p, q, form in cases:
        results += [p * q, q * p, p * p, p * 3]
        slots = form.simplex.dimension + 1
        results.append(_basis(form.system, vectors_with_sum(slots, form.degree + 1)))
        elevated = degree_elevate(form, 2)
        results += [elevated, cert_status(form), cert_status(elevated)]
    assert fractions_built == []
    assert results[0].terms == _naive_product(*cases[0][:2])


def test_edge_move_builds_fractions_only_for_the_child_simplex(fractions_built):
    # whatever an edge move builds depends on the edge, not on the form:
    # moving the zero form on the same edge builds as many
    rng = random.Random(61)
    for n, degree in ((1, 5), (2, 4), (3, 3)):
        form = _rand_form(rng, n, degree, big=True)
        zero = BernsteinForm(form.system, degree, {})
        for i, j in _ordered_edges(n):
            for rho in RHOS:
                fractions_built.clear()
                transfer_edge_v2(zero, rho, i, j)
                geometry = len(fractions_built)
                fractions_built.clear()
                transfer_edge_v2(form, rho, i, j)
                assert len(fractions_built) == geometry


def test_unreduced_numerators_read_as_reduced_fractions():
    x = Polynomial.variable(1, 0)
    half_x = Polynomial(1, {(1,): Fraction(1, 2)})
    got = half_x * (2 * x - 2)  # (x/2) (2x - 2) = x^2 - x, over the unreduced 2
    assert got.den == 2 and got.nums == {(2,): 2, (1,): -2}
    assert got.terms == {(2,): 1, (1,): -1} == _naive_product(half_x, 2 * x - 2)
    assert all(c.denominator == 1 for c in got.terms.values())
    assert got == x * x - x and got.coefficient((1,)).denominator == 1
    cancelled = got - x * x + x
    assert cancelled.is_zero and cancelled.terms == {} and cancelled == Polynomial.zero(1)

    rng = random.Random(67)
    for _ in range(40):
        n = rng.randint(1, 3)
        factors = [_sparse_polynomial(rng, n, big=rng.random() < 0.5) for _ in range(3)]
        product, naive = factors[0], factors[0].terms
        for f in factors[1:]:
            naive = _naive_product(Polynomial(n, naive), f)
            product = product * f
            assert product.terms == naive
            _assert_canonical(product)
        assert (product - Polynomial(n, naive)).terms == {}


def test_conversions_read_as_the_oracles():
    rng = random.Random(71)
    for n in (1, 2, 3):
        simplex = rand_simplex(rng, n)
        system = barycentric_system(simplex)
        x = [Polynomial.variable(n, k) for k in range(n)]
        polys = [
            rand_polynomial(rng, num_vars=n, max_degree=3),
            -rand_polynomial(rng, num_vars=n, max_degree=2),
            x[0] * x[-1] - Fraction(1, 6) * x[0],
        ]
        for p in polys:
            for degree in (p.degree, p.degree + 2):
                form = to_bernstein(p, system, degree)
                _assert_canonical_form(form)
                assert form.coeffs == _solve_oracle(p, system, degree)
                assert form.coeffs == _homogenised_oracle(p, simplex, degree)
                back = from_bernstein(form)
                _assert_canonical(back)
                assert back.terms == p.terms
    # x1 x2 on the standard triangle: every coefficient but b(0,1,1) cancels to zero
    system = barycentric_system(Simplex(((0, 0), (1, 0), (0, 1))))
    p = Polynomial.variable(2, 0) * Polynomial.variable(2, 1)
    form = to_bernstein(p, system, 2)
    assert form.coeffs == {(0, 1, 1): Fraction(1, 2)}
    elevated = degree_elevate(form, 1)
    assert elevated.coeffs == _solve_oracle(p, system, 3)


def test_geometry_and_json_out_build_no_fraction(fractions_built):
    # a child simplex, its edge lengths and the JSON of forms and simplices
    # are computed on the integer forms; so is a whole edge move
    rng = random.Random(73)
    forms = [_rand_form(rng, n, degree, big=True) for n, degree in ((1, 4), (2, 3), (3, 2))]
    fractions_built.clear()
    for form in forms:
        simplex, n = form.simplex, form.simplex.dimension
        for i, j in _ordered_edges(n):
            for rho in RHOS:
                child = simplex._moved(j, i, rho)
                assert len(_edge_lengths(child)) == n * (n + 1) // 2
                simplex_to_json(child)
                form_to_json(transfer_edge_v2(form, rho, i, j))
        form_to_json(form)
    assert fractions_built == []
