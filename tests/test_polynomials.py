import random
from fractions import Fraction

import pytest

from berncert import (
    Polynomial,
    PolynomialParseError,
    as_rational,
    format_polynomial,
    parse_polynomial,
)
from helpers import rand_polynomial, rand_rational


def test_parse_basic():
    p = parse_polynomial("x1^2 + x2^2 - x1*x2", 2)
    assert p.coefficient((2, 0)) == 1
    assert p.coefficient((0, 2)) == 1
    assert p.coefficient((1, 1)) == -1
    assert p.degree == 2
    assert p.num_vars == 2


def test_parse_constants_and_signs():
    assert parse_polynomial("3", 1) == Polynomial.constant(1, 3)
    assert parse_polynomial("-x1", 1) == -Polynomial.variable(1, 0)
    assert parse_polynomial("+x1 - 1", 1) == Polynomial.variable(1, 0) - 1
    assert parse_polynomial("0", 2).is_zero


def test_parse_rational_and_decimal_coefficients():
    p = parse_polynomial("1/2*x1 + 0.25", 1)
    assert p.coefficient((1,)) == Fraction(1, 2)
    assert p.coefficient((0,)) == Fraction(1, 4)
    # decimals are exact, never binary floats
    q = parse_polynomial("0.1*x1", 1)
    assert q.coefficient((1,)) == Fraction(1, 10)


def test_parse_implicit_coefficient_and_power():
    p = parse_polynomial("21*x1^4 + x2^4", 2)
    assert p.coefficient((4, 0)) == 21
    assert p.coefficient((0, 4)) == 1


def test_parse_repeated_variable_multiplies():
    assert parse_polynomial("x1*x1*x1", 1) == Polynomial.variable(1, 0) ** 3


def test_parse_infers_variable_count():
    assert parse_polynomial("x3 + 1").num_vars == 3
    assert parse_polynomial("5").num_vars == 1


def test_parse_errors():
    with pytest.raises(PolynomialParseError):
        parse_polynomial("x1^2 + %", 2)
    with pytest.raises(PolynomialParseError):
        parse_polynomial("", 1)
    with pytest.raises(PolynomialParseError):
        parse_polynomial("x1 +", 1)
    with pytest.raises(PolynomialParseError):
        parse_polynomial("x0", 1)  # variables are 1-based
    with pytest.raises(PolynomialParseError):
        parse_polynomial("x3", 2)  # index exceeds the declared count
    with pytest.raises(PolynomialParseError):
        parse_polynomial("1/0", 1)
    with pytest.raises(PolynomialParseError):
        parse_polynomial("x1^x1", 1)


def test_as_rational_rejects_floats_and_bools():
    with pytest.raises(TypeError):
        as_rational(0.5)
    with pytest.raises(TypeError):
        as_rational(True)
    assert as_rational("3/4") == Fraction(3, 4)
    assert as_rational(7) == Fraction(7)


def test_constructor_canonicalizes():
    p = Polynomial(2, {(1, 0): Fraction(0), (0, 1): Fraction(2)})
    assert (1, 0) not in p.terms
    assert p.coefficient((0, 1)) == 2
    with pytest.raises(ValueError):
        Polynomial(2, {(1,): Fraction(1)})
    # exponents are nonnegative ints: none is truncated or coerced
    for exps in [(-1,), ("2",), (Fraction(3, 2),), (Fraction(2),), (2.0,), (True,)]:
        with pytest.raises(ValueError):
            Polynomial(1, {exps: Fraction(1)})


def test_polynomial_is_immutable():
    p = parse_polynomial("x1", 1)
    with pytest.raises(AttributeError):
        p.num_vars = 3


def test_degree_of_zero_polynomial():
    assert Polynomial.zero(2).degree == 0
    assert Polynomial.zero(2).is_zero


def test_arithmetic_matches_evaluation():
    rng = random.Random(20260819)
    for _ in range(30):
        a = rand_polynomial(rng)
        b = rand_polynomial(rng)
        point = (rand_rational(rng, -3, 3), rand_rational(rng, -3, 3))
        assert (a + b).evaluate(point) == a.evaluate(point) + b.evaluate(point)
        assert (a - b).evaluate(point) == a.evaluate(point) - b.evaluate(point)
        assert (a * b).evaluate(point) == a.evaluate(point) * b.evaluate(point)
        assert (-a).evaluate(point) == -a.evaluate(point)
        assert (3 * a)(point) == 3 * a(point)


def test_ring_axioms_sample():
    rng = random.Random(7)
    for _ in range(10):
        a = rand_polynomial(rng)
        b = rand_polynomial(rng)
        c = rand_polynomial(rng)
        assert a + b == b + a
        assert a * b == b * a
        assert a * (b + c) == a * b + a * c
        assert (a - a).is_zero


def test_pow():
    x = Polynomial.variable(1, 0)
    assert (x + 1) ** 0 == Polynomial.constant(1, 1)
    assert (x + 1) ** 3 == (x + 1) * (x + 1) * (x + 1)
    with pytest.raises(ValueError):
        (x + 1) ** -1


def test_variable_count_mismatch():
    a = parse_polynomial("x1", 1)
    b = parse_polynomial("x1 + x2", 2)
    with pytest.raises(ValueError):
        a + b


def test_format_round_trip():
    rng = random.Random(99)
    for _ in range(40):
        p = rand_polynomial(rng, num_vars=rng.randint(1, 3))
        assert parse_polynomial(format_polynomial(p), p.num_vars) == p


def test_format_spot_checks():
    assert format_polynomial(Polynomial.zero(2)) == "0"
    p = parse_polynomial("x1^2 - x2 + 1/2", 2)
    assert format_polynomial(p) == "x1^2 - x2 + 1/2"
