import random
import sys
from fractions import Fraction
from math import lcm

import pytest

from berncert import (
    Polynomial,
    PolynomialParseError,
    as_rational,
    format_polynomial,
    parse_polynomial,
)
from berncert.polynomials import over_common_denominator
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


@pytest.mark.parametrize(
    "text, message",
    [
        ("1.5/2*x1", "p/q coefficients need integer p and q"),
        ("3/", "dangling '/' at end of input"),
        ("x1 + * x2", "expected a coefficient or variable, got '*'"),
        ("x1 x2", "expected '+' or '-' between terms, got 'x2'"),
        ("x1^", "exponent must be an integer, got ''"),
        ("x1^2.5", "exponent must be an integer, got '2.5'"),
        ("1/0", "zero denominator"),
    ],
)
def test_parse_error_messages(text, message):
    with pytest.raises(PolynomialParseError) as info:
        parse_polynomial(text)
    assert str(info.value) == message


def test_as_rational_refuses_an_exponent_beyond_the_digit_limit():
    # Fraction builds 10^exponent in full; each spelling it reads is bounded
    default = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    try:
        for text in (
            "1e4301",
            "1E+4301",
            "-1e-4301",
            " 1.5e4_301 ",
            "1e99999999",
            "1e\u0664\u0663\u0660\u0661",  # Arabic-Indic digits, 4301
            "1e" + "\u0660" * 4301 + "1",  # more digits than the limit
        ):
            with pytest.raises(ValueError, match="exceeds 4300 in magnitude"):
                as_rational(text)
        for text, value in (
            ("1e3", 1000),
            ("1E+0003", 1000),
            ("1e\u0663", 1000),
            ("-1e-4300", Fraction(-1, 10**4300)),
            ("1e0004300", 10**4300),
        ):
            assert as_rational(text) == value
        sys.set_int_max_str_digits(0)  # no limit: read as Fraction reads it
        assert as_rational("1e4301") == 10**4301
    finally:
        sys.set_int_max_str_digits(default)


def test_as_rational_rejects_floats_and_bools():
    with pytest.raises(TypeError):
        as_rational(0.5)
    with pytest.raises(TypeError):
        as_rational(True)
    assert as_rational("3/4") == Fraction(3, 4)
    assert as_rational(7) == Fraction(7)


def test_over_common_denominator_plain_ints_and_empty():
    values = [3, -1, 0, 7]
    den, nums = over_common_denominator(values)
    assert (den, nums) == (1, [3, -1, 0, 7])
    assert nums is not values  # a new list: the caller's is never handed back
    assert over_common_denominator([]) == (1, [])


def test_over_common_denominator_matches_a_fraction_oracle():
    rng = random.Random(41)
    for _ in range(30):
        exact = [rand_rational(rng) for _ in range(rng.randint(1, 8))]
        # the same values as ints, Fractions and literal strings, mixed
        values = [
            rng.choice([v, str(v)]) if v.denominator != 1 else rng.choice([v, int(v), str(v)])
            for v in exact
        ]
        den, nums = over_common_denominator(values)
        assert all(type(v) is int for v in nums)
        assert den == lcm(*(v.denominator for v in exact))
        assert [Fraction(v, den) for v in nums] == exact


def test_over_common_denominator_rejects_bools_and_floats():
    for bad in (True, False, 0.5, 1.0):
        for values in ([bad], [1, 2, bad], [Fraction(1, 2), bad, "3"]):
            with pytest.raises(TypeError):
                over_common_denominator(values)


def test_constructor_canonicalizes():
    p = Polynomial(2, {(1, 0): Fraction(0), (0, 1): Fraction(2)})
    assert (1, 0) not in p.terms
    assert p.coefficient((0, 1)) == 2
    with pytest.raises(ValueError):
        Polynomial(2, {(1,): Fraction(1)})
    with pytest.raises(ValueError):
        Polynomial(True, {(1,): Fraction(1)})
    # exponents are nonnegative ints: none is truncated or coerced
    for exps in [(-1,), ("2",), (Fraction(3, 2),), (Fraction(2),), (2.0,), (True,)]:
        with pytest.raises(ValueError):
            Polynomial(1, {exps: Fraction(1)})
    with pytest.raises(TypeError):  # the terms are a mapping, not (exponents, value) pairs
        Polynomial(1, [((1,), Fraction(1))])


def test_polynomial_is_immutable():
    p = parse_polynomial("x1", 1)
    with pytest.raises(AttributeError, match="^Polynomial is immutable$"):
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
        assert (2 + a)(point) == 2 + a(point)
        assert (Fraction(1, 2) - a)(point) == Fraction(1, 2) - a(point)


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
    for exponent in (-1, True):  # a bool would raise to the first power
        with pytest.raises(ValueError):
            (x + 1) ** exponent
    for index in (True, 1.0):  # a bool would give x2
        with pytest.raises(ValueError):
            Polynomial.variable(2, index)


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
