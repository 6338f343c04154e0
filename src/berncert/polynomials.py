"""Exact sparse multivariate polynomials over the rationals.

A polynomial is an immutable mapping from exponent tuples to nonzero
rational coefficients.  Every operation is exact; floats are rejected
at the boundary instead of silently coerced, so no rounding can creep in
anywhere downstream.

The working form is integer: a positive denominator ``den`` and a map
``nums`` from each exponent tuple to a nonzero int numerator, not
reduced against ``den``.  Sums, negation and products read and return
that form (a product's denominator is the product of its factors'), so
they build no ``Fraction``.  ``den`` and ``nums`` are the only stored
state: ``terms``, the ``Fraction`` mapping, is built from them on each
read.  Equality cross-multiplies numerators.

The text format is the one used throughout the CLI and the docs::

    21*x1^4 + 24*x1^3*x2 - 36*x1^3 + 1/2*x2 - 0.25

Variables are ``x1 .. xn`` (1-based), ``^`` is exponentiation, terms are
joined with ``+`` / ``-``, whitespace is ignored, and coefficients may be
integers, ``p/q`` ratios, or decimal literals (parsed exactly: ``0.25``
means 1/4).
"""

from __future__ import annotations

import re
import sys
from fractions import Fraction
from math import factorial, gcd, lcm
from operator import add
from typing import Iterable, Iterator, Mapping, Union

RationalLike = Union[int, str, Fraction]

__all__ = [
    "Polynomial",
    "PolynomialParseError",
    "as_int",
    "as_rational",
    "over_common_denominator",
    "same_values",
    "parse_polynomial",
    "format_polynomial",
    "grlex_key",
    "vectors_with_sum",
    "multinomial",
]


class PolynomialParseError(ValueError):
    """Raised when polynomial text does not match the grammar."""


# the exponent of a literal as ``Fraction`` spells it: Unicode digits, "_" between them
_EXPONENT = re.compile(r"[eE][-+]?(\d+(?:_\d+)*)\s*\Z")
# Python 3.10 before 3.10.7 has no integer digit limit: 0 means none
_int_digit_limit = getattr(sys, "get_int_max_str_digits", lambda: 0)


def as_rational(value: RationalLike) -> Fraction:
    """Coerce an int, Fraction, or exact literal string to a Fraction.

    Floats (and bools) raise TypeError: callers must be explicit about
    exact values.  Strings accept "3", "-1/2", and decimals like "0.25"
    or "1e3".  An exponent beyond the interpreter's integer digit limit
    (``sys.get_int_max_str_digits()``, 0 for none) in magnitude is a
    ValueError, raised before ``Fraction`` builds 10^exponent.
    """
    if isinstance(value, Fraction):
        return value
    if isinstance(value, bool) or isinstance(value, float):
        raise TypeError(f"exact rational required, got {value!r}")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        exponent = _EXPONENT.search(value)
        limit = _int_digit_limit()
        if exponent and limit:
            digits = exponent[1].replace("_", "").lstrip("0")
            # more digits than the limit are refused unread, as int() refuses them
            if len(digits) > limit or int(digits or 0) > limit:
                raise ValueError(
                    f"the exponent of {value!r} exceeds {limit} in magnitude, "
                    "the interpreter's integer digit limit"
                )
        try:
            return Fraction(value.strip())
        except (ValueError, ZeroDivisionError) as exc:
            raise ValueError(f"not a rational literal: {value!r}") from exc
    raise TypeError(f"exact rational required, got {type(value).__name__}")


def as_int(value, name: str, minimum: int | None = 0) -> int:
    """``value`` itself if it is an int of at least ``minimum``.

    ``minimum`` is 0, 1, or None for any int.  Anything else is a
    ValueError naming the argument: a bool, 1.0 or 3/2 is never truncated.
    """
    if type(value) is not int or (minimum is not None and value < minimum):
        rule = {None: "an int", 0: "a nonnegative int", 1: "a positive int"}[minimum]
        raise ValueError(f"{name} must be {rule}, got {value!r}")
    return value


def over_common_denominator(values: Iterable[RationalLike]) -> tuple[int, list[int]]:
    """(D, [D * v for v in values]): exact values, read by ``as_rational``, as ints over
    their lcm denominator D.  One type test of the whole list, run in C, finds plain ints,
    which come back as (1, a new list), and ints and Fractions, which need no reading."""
    values = list(values)
    kinds = set(map(type, values))
    if kinds <= {int}:
        return 1, values
    if not kinds <= {int, Fraction}:
        values = list(map(as_rational, values))
    den = lcm(*(v.denominator for v in values))
    return den, [v.numerator * (den // v.denominator) for v in values]


def same_values(a, b) -> bool:
    """Whether two integer forms (``den`` and ``nums``) hold the same value at every key."""
    an, bn = a.nums, b.nums
    if an.keys() != bn.keys():
        return False
    da, db = a.den, b.den
    return all(v * db == bn[k] * da for k, v in an.items())


def grlex_key(exponents: tuple[int, ...]) -> tuple:
    """Sort key for graded-lexicographic order (total degree, then lex)."""
    return (sum(exponents), exponents)


def vectors_with_sum(slots: int, total: int) -> Iterator[tuple[int, ...]]:
    """All tuples of ``slots`` nonnegative ints summing to ``total``, lex ascending."""
    if slots < 1:
        raise ValueError("slots must be >= 1")
    if slots == 1:
        yield (total,)
        return
    for first in range(total + 1):
        for rest in vectors_with_sum(slots - 1, total - first):
            yield (first,) + rest


def multinomial(total: int, parts: Iterable[int]) -> int:
    parts = tuple(parts)
    if any(p < 0 for p in parts) or sum(parts) != total:
        raise ValueError(f"not a composition of {total}: {parts}")
    out = factorial(total)
    for p in parts:
        out //= factorial(p)
    return out


class _Immutable:
    """Base of the exact types: each slot is set once, by ``object.__setattr__``."""

    __slots__ = ()

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")


class Polynomial(_Immutable):
    """Sparse polynomial with exact rational coefficients.

    ``den`` and ``nums`` hold the coefficients as nonzero int numerators
    over one positive denominator, keyed by exponent tuples of length
    ``num_vars``; the zero polynomial has an empty mapping and degree 0.
    Instances are value objects: operators return new polynomials and
    ``nums`` may not be mutated.
    """

    __slots__ = ("num_vars", "den", "nums")

    # --- constructors -------------------------------------------------

    def __new__(cls, num_vars: int, terms: Mapping) -> "Polynomial":
        """The polynomial with the exact rational ``terms[exps]`` at each exponent tuple."""
        as_int(num_vars, "num_vars", minimum=1)
        if not isinstance(terms, Mapping):
            raise TypeError(f"terms must be a Mapping, got {type(terms).__name__}")
        canon: dict[tuple[int, ...], Fraction] = {}
        for exps, coeff in terms.items():
            exps = tuple(exps)
            if len(exps) != num_vars:
                raise ValueError(
                    f"exponent vector {exps} has length {len(exps)}, expected {num_vars}"
                )
            if any(type(e) is not int or e < 0 for e in exps):
                raise ValueError(f"exponents must be nonnegative ints, got {exps}")
            if exps in canon:
                raise ValueError(f"exponent vector {exps} is listed twice")
            canon[exps] = as_rational(coeff)
        den, nums = over_common_denominator(canon.values())
        return cls._canonical(num_vars, den, {e: v for e, v in zip(canon, nums) if v})

    @classmethod
    def _canonical(cls, num_vars: int, den: int, nums: dict) -> "Polynomial":
        """Wrap ``nums`` / ``den`` unchecked: ``den`` must be a positive int
        and ``nums`` map valid exponent tuples of length ``num_vars`` to
        nonzero ints, as the results of this class's own operations do."""
        self = object.__new__(cls)
        object.__setattr__(self, "num_vars", num_vars)
        object.__setattr__(self, "den", den)
        object.__setattr__(self, "nums", nums)
        return self

    @classmethod
    def zero(cls, num_vars: int) -> "Polynomial":
        return cls._canonical(as_int(num_vars, "num_vars", minimum=1), 1, {})

    @classmethod
    def constant(cls, num_vars: int, value: RationalLike) -> "Polynomial":
        return cls._coerce(as_rational(value), as_int(num_vars, "num_vars", minimum=1))

    @classmethod
    def variable(cls, num_vars: int, index: int) -> "Polynomial":
        """The monomial x_{index+1} (``index`` is 0-based)."""
        if as_int(index, "variable index") >= num_vars:
            raise ValueError(f"variable index {index} out of range for {num_vars} vars")
        exps = tuple(1 if k == index else 0 for k in range(num_vars))
        return cls._canonical(as_int(num_vars, "num_vars", minimum=1), 1, {exps: 1})

    # --- basic queries ------------------------------------------------

    @property
    def terms(self) -> dict[tuple[int, ...], Fraction]:
        """{exponents: nonzero Fraction}, built from ``nums`` on each read."""
        den = self.den
        return {e: Fraction(v, den) for e, v in self.nums.items()}

    @property
    def degree(self) -> int:
        """Total degree; 0 for the zero polynomial."""
        return max((sum(e) for e in self.nums), default=0)

    @property
    def is_zero(self) -> bool:
        return not self.nums

    def coefficient(self, exps: Iterable[int]) -> Fraction:
        return Fraction(self.nums.get(tuple(exps), 0), self.den)

    def evaluate(self, point: Iterable[RationalLike]) -> Fraction:
        pt = [as_rational(v) for v in point]
        if len(pt) != self.num_vars:
            raise ValueError(
                f"point has {len(pt)} coordinates, polynomial has {self.num_vars} variables"
            )
        total = Fraction(0)
        for exps, c in self.terms.items():
            v = c
            for base, e in zip(pt, exps):
                if e:
                    v *= base**e
            total += v
        return total

    __call__ = evaluate

    # --- ring operations ----------------------------------------------

    def _check_vars(self, other: "Polynomial") -> None:
        if self.num_vars != other.num_vars:
            raise ValueError(
                f"variable count mismatch: {self.num_vars} != {other.num_vars}"
            )

    @staticmethod
    def _coerce(value, num_vars) -> "Polynomial | None":
        if isinstance(value, Polynomial):
            return value
        if isinstance(value, (int, Fraction)) and not isinstance(value, bool):
            nums = {(0,) * num_vars: value.numerator} if value else {}
            return Polynomial._canonical(num_vars, value.denominator, nums)
        return None

    def __add__(self, other) -> "Polynomial":
        """The sum, over the lcm of the two denominators."""
        other = self._coerce(other, self.num_vars)
        if other is None:
            return NotImplemented
        self._check_vars(other)
        den = lcm(self.den, other.den)
        sa, sb = den // self.den, den // other.den
        out = {e: v * sa for e, v in self.nums.items()}
        for e, v in other.nums.items():
            s = out.get(e, 0) + v * sb
            if s:
                out[e] = s
            else:
                del out[e]
        return Polynomial._canonical(self.num_vars, den, out)

    __radd__ = __add__

    def __neg__(self) -> "Polynomial":
        return Polynomial._canonical(
            self.num_vars, self.den, {e: -v for e, v in self.nums.items()}
        )

    def __sub__(self, other) -> "Polynomial":
        other = self._coerce(other, self.num_vars)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other) -> "Polynomial":
        other = self._coerce(other, self.num_vars)
        if other is None:
            return NotImplemented
        return other + (-self)

    def __mul__(self, other) -> "Polynomial":
        """The product: the numerators convolved, over the product of the denominators."""
        other = self._coerce(other, self.num_vars)
        if other is None:
            return NotImplemented
        self._check_vars(other)
        right = other.nums.items()
        acc: dict[tuple[int, ...], int] = {}
        for e1, c1 in self.nums.items():
            for e2, c2 in right:
                e = tuple(map(add, e1, e2))
                acc[e] = acc.get(e, 0) + c1 * c2
        nums = {e: v for e, v in acc.items() if v}
        return Polynomial._canonical(self.num_vars, self.den * other.den, nums)

    __rmul__ = __mul__

    def __pow__(self, exponent: int) -> "Polynomial":
        e = as_int(exponent, "exponent")
        result = Polynomial.constant(self.num_vars, 1)
        base = self
        while e:
            if e & 1:
                result = result * base
            base = base * base
            e >>= 1
        return result

    # --- equality / display --------------------------------------------

    def __eq__(self, other) -> bool:
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self.num_vars == other.num_vars and same_values(self, other)

    def __repr__(self) -> str:
        return f"Polynomial({self.num_vars}, {format_polynomial(self)!r})"

    def __str__(self) -> str:
        return format_polynomial(self)


# --- text format --------------------------------------------------------

_TOKEN_RE = re.compile(
    r"""
      (?P<space>\s+)
    | (?P<number>\d+(?:\.\d+)?)
    | (?P<var>x\d+)
    | (?P<op>[\^*/+-])
    | (?P<bad>.)
    """,
    re.VERBOSE | re.DOTALL,
)


def _tokenize(text: str) -> list[tuple[str, str]]:
    """(kind, text) per token in one regex pass, last token first; whitespace is dropped."""
    tokens = []
    for m in _TOKEN_RE.finditer(text):
        kind = m.lastgroup
        if kind == "bad":
            raise PolynomialParseError(
                f"unexpected character {m.group()!r} at position {m.start()}"
            )
        if kind != "space":
            tokens.append((kind, m.group()))
    tokens.reverse()
    return tokens


_SIGNS = {("op", "+"): 1, ("op", "-"): -1}


def _parse_number(tokens: list) -> tuple[int, int]:
    """(numerator, positive denominator) of the coefficient literal that the next token starts."""
    text = tokens.pop()[1]
    if tokens[-1:] == [("op", "/")]:
        tokens.pop()
        if not tokens:
            raise PolynomialParseError("dangling '/' at end of input")
        dkind, dtext = tokens.pop()
        if dkind != "number" or "." in text or "." in dtext:
            raise PolynomialParseError("p/q coefficients need integer p and q")
        if int(dtext) == 0:
            raise PolynomialParseError("zero denominator")
        return int(text), int(dtext)
    whole, _, decimals = text.partition(".")  # exact: "0.25" -> 25/100
    return int(whole + decimals), 10 ** len(decimals)


def _parse_term(tokens: list) -> tuple[int, int, dict[int, int]]:
    num = den = 1
    powers: dict[int, int] = {}
    while True:
        kind, text = tokens[-1] if tokens else (None, "")
        if kind == "number":
            n, d = _parse_number(tokens)
            num, den = num * n, den * d
        elif kind == "var":
            tokens.pop()
            index = int(text[1:])
            if index < 1:
                raise PolynomialParseError(f"variables are x1, x2, ...; got {text!r}")
            exp = 1
            if tokens[-1:] == [("op", "^")]:
                tokens.pop()
                ekind, etext = tokens.pop() if tokens else (None, "")
                if ekind != "number" or "." in etext:
                    raise PolynomialParseError(f"exponent must be an integer, got {etext!r}")
                exp = int(etext)
            powers[index - 1] = powers.get(index - 1, 0) + exp
        else:
            raise PolynomialParseError(f"expected a coefficient or variable, got {text!r}")
        if tokens[-1:] != [("op", "*")]:
            return num, den, powers
        tokens.pop()


def parse_polynomial(text: str, num_vars: int | None = None) -> Polynomial:
    """Parse polynomial text; see the module docstring for the grammar.

    With ``num_vars=None`` the variable count is inferred from the highest
    variable index mentioned (at least 1).  Referencing a variable beyond
    an explicit ``num_vars`` is an error.  The terms are summed as int
    numerators over their lcm denominator, reduced once at the end.
    """
    tokens = _tokenize(text)
    if not tokens:
        raise PolynomialParseError("empty polynomial text")
    parsed: list[tuple[int, int, dict[int, int]]] = []
    sign = _SIGNS[tokens.pop()] if tokens[-1] in _SIGNS else 1
    while True:
        num, den, powers = _parse_term(tokens)
        parsed.append((sign * num, den, powers))
        if not tokens:
            break
        token = tokens.pop()
        if token not in _SIGNS:
            raise PolynomialParseError(f"expected '+' or '-' between terms, got {token[1]!r}")
        sign = _SIGNS[token]
        if not tokens:
            raise PolynomialParseError("dangling sign at end of input")

    highest = max((max(p) + 1 for _, _, p in parsed if p), default=0)
    if num_vars is None:
        num_vars = max(highest, 1)
    elif highest > num_vars:
        raise PolynomialParseError(
            f"variable x{highest} used but only {num_vars} variable(s) declared"
        )
    as_int(num_vars, "num_vars", minimum=1)
    den = lcm(*(d for _, d, _ in parsed))
    acc: dict[tuple[int, ...], int] = {}
    for num, d, powers in parsed:
        exps = tuple(powers.get(i, 0) for i in range(num_vars))
        acc[exps] = acc.get(exps, 0) + num * (den // d)
    g = gcd(den, *acc.values())
    nums = {e: v // g for e, v in acc.items() if v}
    return Polynomial._canonical(num_vars, den // g, nums)


def format_polynomial(p: Polynomial) -> str:
    """Render in the text grammar; parse(format(p)) == p."""
    terms = p.terms
    if not terms:
        return "0"
    parts = []
    # display order: degree descending, then lex descending
    for exps in sorted(terms, key=lambda e: (-sum(e), tuple(-x for x in e))):
        c = terms[exps]
        mag = abs(c)
        vars_txt = "*".join(
            f"x{i + 1}^{e}" if e > 1 else f"x{i + 1}"
            for i, e in enumerate(exps)
            if e
        )
        if not vars_txt:
            body = str(mag)
        elif mag == 1:
            body = vars_txt
        else:
            body = f"{mag}*{vars_txt}"
        parts.append(("-" if c < 0 else "+", body))
    sign, body = parts[0]
    out = body if sign == "+" else f"-{body}"
    for sign, body in parts[1:]:
        out += f" {sign} {body}"
    return out
