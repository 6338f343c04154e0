import itertools
import random
import re
import sys
from fractions import Fraction
from math import lcm

import pytest

from berncert import (
    MAX_UNKNOWNS,
    Polynomial,
    PolynomialParseError,
    as_rational,
    format_polynomial,
    multinomial,
    over_common_denominator,
    parse_polynomial,
    vectors_with_sum,
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


def test_parse_refuses_more_variables_than_the_unknowns_bound():
    # no simplex has more than MAX_UNKNOWNS dimensions, so no text may name more variables
    assert MAX_UNKNOWNS == 300
    assert parse_polynomial("x300").num_vars == 300
    for text, num_vars in (("x301", None), ("x1", 301)):
        with pytest.raises(ValueError, match=r"\b301 unknowns, more than the bound of 300"):
            parse_polynomial(text, num_vars=num_vars)


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


@pytest.mark.parametrize(
    "text, value",
    [
        ("x1 ^ 2", {(2,): 1}),
        ("1 / 2*x1", {(1,): Fraction(1, 2)}),
        ("x1*1/2", {(1,): Fraction(1, 2)}),
        ("2*3*x1", {(1,): 6}),
        ("x1 + x1", {(1,): 2}),
        ("x01", {(1,): 1}),
        ("3/6", {(0,): Fraction(1, 2)}),
        ("0.10", {(0,): Fraction(1, 10)}),
        (" x1\n", {(1,): 1}),
        ("x2*x1^2*x1", {(3, 1): 1}),
    ],
)
def test_parse_accepted_spellings(text, value):
    p = parse_polynomial(text)
    assert p == Polynomial(p.num_vars, value)


@pytest.mark.parametrize(
    "text",
    ["x1^-1", "2x1", "1/2/3", "--x1", "x1*", "x 1", ".5", "5.", "x1^2^3", "1/x1"],
)
def test_parse_rejected_spellings(text):
    with pytest.raises(PolynomialParseError):
        parse_polynomial(text)


def test_parse_round_trip_with_whitespace_between_tokens():
    rng = random.Random(24)
    for _ in range(200):
        p = rand_polynomial(rng, num_vars=rng.randint(1, 4))
        tokens = re.findall(r"x\d+|\d+|\S", format_polynomial(p))
        text = "".join(rng.choice(["", "", " ", "\t", "\n", "  "]) + t for t in tokens)
        assert parse_polynomial(text + rng.choice(["", " "]), p.num_vars) == p


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
    for value, name in ((None, "NoneType"), ([1], "list")):
        with pytest.raises(TypeError, match=f"^exact rational required, got {name}$"):
            as_rational(value)
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
    for name in ("num_vars", "den", "nums"):
        with pytest.raises(AttributeError, match="^Polynomial is immutable$"):
            setattr(p, name, 3)
        with pytest.raises(AttributeError, match="^Polynomial is immutable$"):
            delattr(p, name)
    assert p == Polynomial.variable(1, 0)


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
    for index in (True, 1.0, 2):  # a bool would give x2; x3 is not among 2 variables
        with pytest.raises(ValueError):
            Polynomial.variable(2, index)


def test_variable_count_mismatch():
    a = parse_polynomial("x1", 1)
    b = parse_polynomial("x1 + x2", 2)
    with pytest.raises(ValueError):
        a + b
    with pytest.raises(ValueError, match="point has 1 coordinates, polynomial has 2 variables"):
        b.evaluate((1,))


def test_foreign_operands():
    p = parse_polynomial("x1 + x2", 2)
    assert (p == 1) is False
    for op in (lambda: p + "x", lambda: p - "x", lambda: "x" - p):
        with pytest.raises(TypeError):
            op()


def test_index_helpers_reject_bad_arguments():
    assert list(vectors_with_sum(2, 2)) == [(0, 2), (1, 1), (2, 0)]
    assert multinomial(3, (1, 2)) == 3
    for slots, total in ((0, 1), (1, -1)):
        vectors = vectors_with_sum(slots, total)  # lazy: refused on the first next
        message = f"need slots >= 1 and total >= 0, got {slots} and {total}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            next(vectors)
    with pytest.raises(ValueError):
        multinomial(3, (1, 1))


def test_vectors_with_sum_is_the_lex_filter_of_the_product():
    for slots in range(1, 7):
        for total in range(9):
            grid = itertools.product(range(total + 1), repeat=slots)
            assert list(vectors_with_sum(slots, total)) == [v for v in grid if sum(v) == total]


def test_format_round_trip():
    rng = random.Random(99)
    for _ in range(40):
        p = rand_polynomial(rng, num_vars=rng.randint(1, 3))
        assert parse_polynomial(format_polynomial(p), p.num_vars) == p


def test_format_spot_checks():
    assert format_polynomial(Polynomial.zero(2)) == "0"
    p = parse_polynomial("x1^2 - x2 + 1/2", 2)
    assert format_polynomial(p) == "x1^2 - x2 + 1/2"
