import random
from fractions import Fraction

import pytest

from berncert import (
    BernsteinForm,
    CertKind,
    DegenerateSimplexError,
    DegreeTooLowError,
    Polynomial,
    Simplex,
    bernstein_basis_polynomial,
    barycentric_system,
    cert_status,
    degree_elevate,
    enclosure_bound,
    from_bernstein,
    parse_polynomial,
    solve,
    standard_simplex,
    to_bernstein,
)
from berncert.bernstein import MAX_COEFFICIENTS
from berncert.linalg import MAX_UNKNOWNS
from berncert.polynomials import multinomial, vectors_with_sum
from berncert.serialize import form_from_json, form_to_json
from helpers import rand_point_in, rand_polynomial, rand_simplex


def _std_oracle_coefficient(p, degree, gamma):
    """Closed-form Bernstein coefficient on the standard simplex.

    Expanding 1 = (l0 + ... + ln)^(d-|beta|) against each monomial gives
    b_gamma = sum over beta <= (gamma_1..gamma_n) of
    c_beta * multinomial(d-|beta|, gamma - (0, beta)) / multinomial(d, gamma).
    Independent of the linear-solve route used by to_bernstein.
    """
    total = Fraction(0)
    for beta, c in p.terms.items():
        shifted = (gamma[0],) + tuple(g - b for g, b in zip(gamma[1:], beta))
        if any(e < 0 for e in shifted):
            continue
        total += c * multinomial(degree - sum(beta), shifted)
    return total / multinomial(degree, gamma)


def test_to_bernstein_matches_standard_simplex_closed_form():
    rng = random.Random(20260819)
    for n in (1, 2, 3):
        system = barycentric_system(standard_simplex(n))
        for _ in range(6 if n < 3 else 3):
            p = rand_polynomial(rng, num_vars=n, max_degree=3)
            # deg P itself (the solve) and above it (the solve plus the lift)
            for degree in range(p.degree, p.degree + 5):
                form = to_bernstein(p, system, degree)
                for gamma in vectors_with_sum(n + 1, degree):
                    assert form.coefficient(gamma) == _std_oracle_coefficient(
                        p, degree, gamma
                    )


def _solve_oracle(p, system, degree):
    """The degree-d coefficients by the full N_d x N_d basis solve.

    The route ``to_bernstein`` took at every degree before it solved at
    deg P only; it shares no code with the closed multi-step lift.
    """
    n = system.simplex.dimension
    alphas = list(vectors_with_sum(n + 1, degree))
    monomials = [e for t in range(degree + 1) for e in vectors_with_sum(n, t)]
    basis = [bernstein_basis_polynomial(system, degree, a) for a in alphas]
    matrix = [[b.coefficient(m) for b in basis] for m in monomials]
    solution = solve(matrix, [p.coefficient(m) for m in monomials])
    return {a: v for a, v in zip(alphas, solution) if v}


def test_to_bernstein_above_the_polynomial_degree_matches_the_full_solve():
    rng = random.Random(20261018)
    for n, max_degree in ((1, 3), (2, 3), (3, 2), (4, 1)):
        system = barycentric_system(rand_simplex(rng, n=n))
        polys = [
            rand_polynomial(rng, num_vars=n, max_degree=max_degree),
            Polynomial.zero(n),
            Polynomial.constant(n, Fraction(-5, 3)),
        ]
        for p in polys:
            for lift in range(5):
                degree = p.degree + lift
                form = to_bernstein(p, system, degree)
                assert form.degree == degree
                assert form.coeffs == _solve_oracle(p, system, degree)


def _poly_mul(a, b):
    """Product of two {exponents: Fraction} maps, by plain convolution."""
    out = {}
    for e1, c1 in a.items():
        for e2, c2 in b.items():
            e = tuple(x + y for x, y in zip(e1, e2))
            out[e] = out.get(e, 0) + c1 * c2
    return {e: c for e, c in out.items() if c}


def _homogenised_oracle(p, simplex, degree):
    """The degree-d Bernstein coefficients by homogenisation, with no solve.

    Substitutes x = sum_i lambda_i v_i, multiplies each degree-j monomial
    by (lambda_0 + .. + lambda_n)^(d - j), and reads b_alpha as
    c_alpha / multinomial(d, alpha) from the result sum c_alpha lambda^alpha.
    Shares no code with ``to_bernstein``: no basis table, no
    ``Polynomial`` product, no ``linalg``.
    """
    n = simplex.dimension
    unit = [tuple(int(i == k) for i in range(n + 1)) for k in range(n + 1)]
    # x_k as a linear form in lambda, and lambda_0 + .. + lambda_n
    xs = [
        {unit[i]: v[k] for i, v in enumerate(simplex.vertices) if v[k]}
        for k in range(n)
    ]
    total = {u: Fraction(1) for u in unit}
    out = {}
    for exps, c in p.terms.items():
        term = {(0,) * (n + 1): c}
        for x, e in zip(xs, exps):
            for _ in range(e):
                term = _poly_mul(term, x)
        for _ in range(degree - sum(exps)):
            term = _poly_mul(term, total)
        for e, v in term.items():
            out[e] = out.get(e, 0) + v
    return {a: c / multinomial(degree, a) for a, c in out.items() if c}


def _rand_wide_simplex(rng, n):
    """A random nondegenerate simplex whose coordinates have large denominators."""
    while True:
        vertices = [
            [Fraction(rng.randint(-10**6, 10**6), rng.randint(1, 10**5)) for _ in range(n)]
            for _ in range(n + 1)
        ]
        try:
            return Simplex(vertices)
        except DegenerateSimplexError:
            continue


def test_to_bernstein_matches_the_homogenised_oracle():
    rng = random.Random(20261019)
    for n in (1, 2, 3, 4):
        for _ in range(3 if n < 4 else 2):
            simplex = _rand_wide_simplex(rng, n)
            system = barycentric_system(simplex)
            polys = [
                rand_polynomial(rng, num_vars=n, max_degree=4),
                Polynomial.zero(n),
                Polynomial.constant(n, Fraction(rng.randint(1, 10**6), 7919)),
            ]
            for p in polys:
                # at deg P (the solve) and above it (the solve and the lift)
                for degree in range(p.degree, p.degree + (2 if n < 4 else 1)):
                    form = to_bernstein(p, system, degree)
                    assert form.coeffs == _homogenised_oracle(p, simplex, degree)
                    assert from_bernstein(form) == p


def test_round_trip_on_random_simplices():
    rng = random.Random(31337)
    for _ in range(12):
        n = rng.randint(1, 3)
        p = rand_polynomial(rng, num_vars=n, max_degree=3)
        system = barycentric_system(rand_simplex(rng, n=n))
        degree = p.degree + rng.randint(0, 2)
        form = to_bernstein(p, system, degree)
        assert from_bernstein(form) == p


def test_pure_indices_are_vertex_values():
    rng = random.Random(777)
    for _ in range(8):
        s = rand_simplex(rng)
        p = rand_polynomial(rng, max_degree=4)
        d = max(p.degree, 1)
        form = to_bernstein(p, barycentric_system(s), d)
        for i, v in enumerate(s.vertices):
            pure = tuple(d if k == i else 0 for k in range(3))
            assert form.coefficient(pure) == p.evaluate(v)


def test_degree_too_low():
    p = parse_polynomial("x1^4", 1)
    system = barycentric_system(standard_simplex(1))
    with pytest.raises(DegreeTooLowError) as info:
        to_bernstein(p, system, 2)
    assert info.value.required == 4
    assert info.value.requested == 2
    # a bool is not a degree, even where its int value would do
    with pytest.raises(ValueError, match="nonnegative int"):
        to_bernstein(parse_polynomial("x1", 1), system, True)


def test_constant_expands_to_constant_coefficients():
    system = barycentric_system(standard_simplex(2))
    form = to_bernstein(Polynomial.constant(2, Fraction(7, 3)), system, 3)
    assert all(
        form.coefficient(gamma) == Fraction(7, 3) for gamma in form.indices()
    )


def test_basis_polynomial_partition_of_unity():
    rng = random.Random(10)
    for _ in range(3):
        s = rand_simplex(rng)
        system = barycentric_system(s)
        for d in (1, 2, 3):
            total = Polynomial.zero(2)
            for alpha in vectors_with_sum(3, d):
                total = total + bernstein_basis_polynomial(system, d, alpha)
            assert total == Polynomial.constant(2, 1)


def test_form_index_validation():
    system = barycentric_system(standard_simplex(2))
    with pytest.raises(ValueError):
        BernsteinForm(system, 2, {(1, 1): Fraction(1)})
    with pytest.raises(ValueError):
        BernsteinForm(system, 2, {(3, 0, 0): Fraction(1)})
    form = to_bernstein(parse_polynomial("x1", 2), system, 1)
    with pytest.raises(ValueError):
        form.coefficient((2, 0, 0))
    assert (form == 0) is False


def test_form_is_immutable():
    system = barycentric_system(standard_simplex(2))
    form = to_bernstein(parse_polynomial("x1 - x2", 2), system, 1)
    for name in ("den", "nums", "degree", "system"):
        with pytest.raises(AttributeError, match="^BernsteinForm is immutable$"):
            setattr(form, name, None)
        with pytest.raises(AttributeError, match="^BernsteinForm is immutable$"):
            delattr(form, name)
    assert form.coeffs == {(0, 1, 0): 1, (0, 0, 1): -1}


def test_constructor_and_json_share_the_checked_constructor(monkeypatch):
    calls = []
    checked = BernsteinForm._from_ratios.__func__

    def spy(cls, system, degree, pairs, ratio):
        pairs = list(pairs)
        calls.append((degree, pairs))
        return checked(cls, system, degree, pairs, ratio)

    monkeypatch.setattr(BernsteinForm, "_from_ratios", classmethod(spy))
    system = barycentric_system(standard_simplex(1))
    form = BernsteinForm(system, 2, {(2, 0): Fraction(1, 2), (0, 2): 0})
    assert form_from_json(form_to_json(form)) == form
    assert calls == [(2, [((2, 0), Fraction(1, 2)), ((0, 2), 0)]), (2, [((2, 0), "1/2")])]


def test_keys_naming_the_same_index_are_rejected():
    # otherwise distinct keys that convert to one tuple would keep only the last value
    with pytest.raises(ValueError, match=r"exponent vector \(1,\) is listed twice"):
        Polynomial(1, {(1,): 1, range(1, 2): 2})
    system = barycentric_system(standard_simplex(1))
    with pytest.raises(ValueError, match=r"coefficient index \[1, 0\] is listed twice"):
        BernsteinForm(system, 1, {(1, 0): 1, range(1, -1, -1): 2})


def test_degree_elevate_preserves_polynomial():
    rng = random.Random(55)
    for _ in range(8):
        p = rand_polynomial(rng, max_degree=3)
        s = rand_simplex(rng)
        form = to_bernstein(p, barycentric_system(s), max(p.degree, 1))
        lifted = degree_elevate(form, rng.randint(1, 3))
        assert from_bernstein(lifted) == p
        assert lifted.system == form.system


def test_degree_elevate_matches_direct_conversion():
    # to_bernstein reaches d + 2 by one closed multi-step lift of its deg-P
    # solve, so this compares the search's stepwise recurrence with that lift
    rng = random.Random(56)
    p = rand_polynomial(rng, max_degree=3)
    system = barycentric_system(standard_simplex(2))
    d = max(p.degree, 1)
    assert degree_elevate(to_bernstein(p, system, d), 2) == to_bernstein(
        p, system, d + 2
    )


def test_degree_elevate_needs_positive_steps():
    form = to_bernstein(
        parse_polynomial("x1", 2), barycentric_system(standard_simplex(2)), 1
    )
    for steps in (0, True):
        with pytest.raises(ValueError):
            degree_elevate(form, steps)


def test_forms_above_the_coefficient_limit_are_rejected():
    # on the 2-simplex, degree 98 has C(100, 2) = 4950 coefficients and degree 99 has 5050
    assert MAX_COEFFICIENTS == 5000
    system = barycentric_system(standard_simplex(2))
    x1 = parse_polynomial("x1", 2)
    assert len(to_bernstein(x1, system, 98).nums) == 4851  # the indices with gamma_1 > 0
    with pytest.raises(ValueError, match="5050 coefficients"):
        to_bernstein(x1, system, 99)
    with pytest.raises(ValueError, match="5050 coefficients"):
        degree_elevate(to_bernstein(x1, system, 1), 98)


def test_linear_systems_above_the_unknowns_bound_are_refused():
    # the basis change at k = deg P has C(2 + k, 2) unknowns on the 2-simplex: 300 at k = 23
    assert MAX_UNKNOWNS == 300
    system = barycentric_system(standard_simplex(2))
    assert to_bernstein(parse_polynomial("x1^23 + x2", 2), system, 23).degree == 23
    with pytest.raises(ValueError, match="with 325 unknowns, more than the bound of 300"):
        to_bernstein(parse_polynomial("x1^24", 2), system, 24)
    # a simplex's determinant has n unknowns, its coordinate inverse n + 1
    with pytest.raises(ValueError, match="dimension 301 needs a linear system with 301 unknowns"):
        standard_simplex(301)
    with pytest.raises(ValueError, match="301 unknowns"):
        Simplex([[0] * 301] * 302)  # refused before its determinant would find it degenerate
    with pytest.raises(ValueError, match="coordinate inverse of a simplex of dimension 300"):
        barycentric_system(standard_simplex(300)).coords


def test_cert_status_classification():
    system = barycentric_system(standard_simplex(2))
    pos = to_bernstein(parse_polynomial("1/3", 2), system, 2)
    assert cert_status(pos).kind is CertKind.POSITIVE
    assert cert_status(pos).negative_indices == ()

    # an implicit zero coefficient blocks POSITIVE but not NONNEGATIVE
    demo = to_bernstein(parse_polynomial("x1^2+x2^2-x1*x2", 2), system, 2)
    restricted = BernsteinForm(
        system, 2, {k: v for k, v in demo.coeffs.items() if v > 0}
    )
    assert cert_status(restricted).kind is CertKind.NONNEGATIVE

    indet = cert_status(demo)
    assert indet.kind is CertKind.INDETERMINATE
    assert indet.negative_indices == ((0, 1, 1),)


def test_cert_status_negative_indices_graded_lex():
    system = barycentric_system(standard_simplex(2))
    form = BernsteinForm(
        system,
        2,
        {
            (0, 0, 2): Fraction(-1),
            (1, 1, 0): Fraction(-2),
            (2, 0, 0): Fraction(-3),
            (0, 2, 0): Fraction(1),
        },
    )
    assert cert_status(form).negative_indices == ((0, 0, 2), (1, 1, 0), (2, 0, 0))


def test_enclosure_bound_encloses_values():
    rng = random.Random(888)
    for _ in range(6):
        p = rand_polynomial(rng, max_degree=3)
        s = rand_simplex(rng)
        form = to_bernstein(p, barycentric_system(s), max(p.degree, 1))
        lo, hi = enclosure_bound(form)
        for _ in range(8):
            value = p.evaluate(rand_point_in(rng, s))
            assert lo <= value <= hi


def test_enclosure_bound_includes_implicit_zeros():
    system = barycentric_system(standard_simplex(2))
    form = to_bernstein(parse_polynomial("x1^2", 2), system, 2)
    lo, hi = enclosure_bound(form)
    assert lo == 0 and hi == 1
