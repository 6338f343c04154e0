"""Exact sparse multivariate polynomials over the rationals.

A polynomial is an immutable mapping from exponent tuples to nonzero
``Fraction`` coefficients.  Every operation is exact; floats are rejected
at the boundary instead of silently coerced, so no rounding can creep in
anywhere downstream.

The text format is the one used throughout the CLI and the docs::

    21*x1^4 + 24*x1^3*x2 - 36*x1^3 + 1/2*x2 - 0.25

Variables are ``x1 .. xn`` (1-based), ``^`` is exponentiation, terms are
joined with ``+`` / ``-``, whitespace is ignored, and coefficients may be
integers, ``p/q`` ratios, or decimal literals (parsed exactly: ``0.25``
means 1/4).
"""

from __future__ import annotations

import re
from fractions import Fraction
from math import factorial
from typing import Iterable, Iterator, Mapping, Union

Exponents = "tuple[int, ...]"
RationalLike = Union[int, str, Fraction]

__all__ = [
    "Polynomial",
    "PolynomialParseError",
    "as_rational",
    "format_rational",
    "parse_polynomial",
    "format_polynomial",
    "grlex_key",
    "vectors_with_sum",
    "multinomial",
]


class PolynomialParseError(ValueError):
    """Raised when polynomial text does not match the grammar."""


def as_rational(value: RationalLike) -> Fraction:
    """Coerce an int, Fraction, or exact literal string to a Fraction.

    Floats (and bools) raise TypeError: callers must be explicit about
    exact values.  Strings accept "3", "-1/2", and decimals like "0.25".
    """
    if isinstance(value, Fraction):
        return value
    if isinstance(value, bool) or isinstance(value, float):
        raise TypeError(f"exact rational required, got {value!r}")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        try:
            return Fraction(value.strip())
        except (ValueError, ZeroDivisionError) as exc:
            raise ValueError(f"not a rational literal: {value!r}") from exc
    raise TypeError(f"exact rational required, got {type(value).__name__}")


def format_rational(q: Fraction) -> str:
    """Canonical ``p/q`` rendering with denominator 1 elided."""
    return str(q)


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


class Polynomial:
    """Sparse polynomial with exact rational coefficients.

    ``terms`` maps exponent tuples of length ``num_vars`` to nonzero
    Fractions; the zero polynomial has an empty mapping and degree 0.
    Instances are value objects: operators return new polynomials and the
    term mapping must not be mutated.
    """

    __slots__ = ("num_vars", "terms")

    def __init__(self, num_vars: int, terms: Mapping | Iterable = ()):
        if not isinstance(num_vars, int) or num_vars < 1:
            raise ValueError(f"num_vars must be a positive int, got {num_vars!r}")
        items = terms.items() if isinstance(terms, Mapping) else terms
        canon: dict[tuple[int, ...], Fraction] = {}
        for exps, coeff in items:
            exps = tuple(exps)
            if len(exps) != num_vars:
                raise ValueError(
                    f"exponent vector {exps} has length {len(exps)}, expected {num_vars}"
                )
            if any(type(e) is not int or e < 0 for e in exps):
                raise ValueError(f"exponents must be nonnegative ints, got {exps}")
            c = canon.get(exps, Fraction(0)) + as_rational(coeff)
            if c:
                canon[exps] = c
            elif exps in canon:
                del canon[exps]
        object.__setattr__(self, "num_vars", num_vars)
        object.__setattr__(self, "terms", canon)

    def __setattr__(self, name, value):
        raise AttributeError("Polynomial is immutable")

    # --- constructors -------------------------------------------------

    @classmethod
    def zero(cls, num_vars: int) -> "Polynomial":
        return cls(num_vars)

    @classmethod
    def constant(cls, num_vars: int, value: RationalLike) -> "Polynomial":
        return cls(num_vars, {(0,) * num_vars: as_rational(value)})

    @classmethod
    def variable(cls, num_vars: int, index: int) -> "Polynomial":
        """The monomial x_{index+1} (``index`` is 0-based)."""
        if not 0 <= index < num_vars:
            raise ValueError(f"variable index {index} out of range for {num_vars} vars")
        exps = tuple(1 if k == index else 0 for k in range(num_vars))
        return cls(num_vars, {exps: Fraction(1)})

    # --- basic queries ------------------------------------------------

    @property
    def degree(self) -> int:
        """Total degree; 0 for the zero polynomial."""
        return max((sum(e) for e in self.terms), default=0)

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def coefficient(self, exps: Iterable[int]) -> Fraction:
        return self.terms.get(tuple(exps), Fraction(0))

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
            return Polynomial.constant(num_vars, value)
        return None

    def __add__(self, other) -> "Polynomial":
        other = self._coerce(other, self.num_vars)
        if other is None:
            return NotImplemented
        self._check_vars(other)
        out = dict(self.terms)
        for exps, c in other.terms.items():
            s = out.get(exps, Fraction(0)) + c
            if s:
                out[exps] = s
            elif exps in out:
                del out[exps]
        return Polynomial(self.num_vars, out)

    __radd__ = __add__

    def __neg__(self) -> "Polynomial":
        return Polynomial(self.num_vars, {e: -c for e, c in self.terms.items()})

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
        other = self._coerce(other, self.num_vars)
        if other is None:
            return NotImplemented
        self._check_vars(other)
        out: dict[tuple[int, ...], Fraction] = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = tuple(a + b for a, b in zip(e1, e2))
                s = out.get(e, Fraction(0)) + c1 * c2
                if s:
                    out[e] = s
                elif e in out:
                    del out[e]
        return Polynomial(self.num_vars, out)

    __rmul__ = __mul__

    def __pow__(self, exponent: int) -> "Polynomial":
        if not isinstance(exponent, int) or exponent < 0:
            raise ValueError(f"exponent must be a nonnegative int, got {exponent!r}")
        result = Polynomial.constant(self.num_vars, 1)
        base = self
        e = exponent
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
        return self.num_vars == other.num_vars and self.terms == other.terms

    def __repr__(self) -> str:
        return f"Polynomial({self.num_vars}, {format_polynomial(self)!r})"

    def __str__(self) -> str:
        return format_polynomial(self)


# --- text format --------------------------------------------------------

_TOKEN_RE = re.compile(
    r"""
      (?P<number>\d+(?:\.\d+)?)
    | (?P<var>x\d+)
    | (?P<op>[\^*/+-])
    """,
    re.VERBOSE,
)


def _tokenize(text: str) -> list[tuple[str, str]]:
    tokens = []
    pos = 0
    while pos < len(text):
        if text[pos].isspace():
            pos += 1
            continue
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            raise PolynomialParseError(
                f"unexpected character {text[pos]!r} at position {pos}"
            )
        kind = m.lastgroup
        tokens.append((kind, m.group()))
        pos = m.end()
    return tokens


class _TokenStream:
    def __init__(self, tokens):
        self.tokens = tokens
        self.pos = 0

    def peek(self):
        return self.tokens[self.pos] if self.pos < len(self.tokens) else (None, "")

    def take(self):
        tok = self.peek()
        self.pos += 1
        return tok

    @property
    def done(self):
        return self.pos >= len(self.tokens)


def _parse_number(ts: _TokenStream) -> Fraction:
    kind, text = ts.take()
    if kind != "number":
        raise PolynomialParseError(f"expected a number, got {text!r}")
    if ts.peek() == ("op", "/"):
        ts.take()
        dkind, dtext = ts.take()
        if dkind != "number" or "." in text or "." in dtext:
            raise PolynomialParseError("p/q coefficients need integer p and q")
        if int(dtext) == 0:
            raise PolynomialParseError("zero denominator")
        return Fraction(int(text), int(dtext))
    return Fraction(text)  # exact: "0.25" -> 1/4


def _parse_term(ts: _TokenStream) -> tuple[Fraction, dict[int, int]]:
    coeff = Fraction(1)
    powers: dict[int, int] = {}
    while True:
        kind, text = ts.peek()
        if kind == "number":
            coeff *= _parse_number(ts)
        elif kind == "var":
            ts.take()
            index = int(text[1:])
            if index < 1:
                raise PolynomialParseError(f"variables are x1, x2, ...; got {text!r}")
            exp = 1
            if ts.peek() == ("op", "^"):
                ts.take()
                ekind, etext = ts.take()
                if ekind != "number" or "." in etext:
                    raise PolynomialParseError(f"exponent must be an integer, got {etext!r}")
                exp = int(etext)
            powers[index - 1] = powers.get(index - 1, 0) + exp
        else:
            raise PolynomialParseError(f"expected a coefficient or variable, got {text!r}")
        if ts.peek() == ("op", "*"):
            ts.take()
            continue
        return coeff, powers


def parse_polynomial(text: str, num_vars: int | None = None) -> Polynomial:
    """Parse polynomial text; see the module docstring for the grammar.

    With ``num_vars=None`` the variable count is inferred from the highest
    variable index mentioned (at least 1).  Referencing a variable beyond
    an explicit ``num_vars`` is an error.
    """
    ts = _TokenStream(_tokenize(text))
    if ts.done:
        raise PolynomialParseError("empty polynomial text")
    parsed: list[tuple[Fraction, dict[int, int]]] = []
    sign = 1
    kind, t = ts.peek()
    if (kind, t) in (("op", "+"), ("op", "-")):
        ts.take()
        sign = -1 if t == "-" else 1
    while True:
        coeff, powers = _parse_term(ts)
        parsed.append((sign * coeff, powers))
        if ts.done:
            break
        kind, t = ts.take()
        if (kind, t) == ("op", "+"):
            sign = 1
        elif (kind, t) == ("op", "-"):
            sign = -1
        else:
            raise PolynomialParseError(f"expected '+' or '-' between terms, got {t!r}")
        if ts.done:
            raise PolynomialParseError("dangling sign at end of input")

    highest = max((max(p) + 1 for _, p in parsed if p), default=0)
    if num_vars is None:
        num_vars = max(highest, 1)
    elif highest > num_vars:
        raise PolynomialParseError(
            f"variable x{highest} used but only {num_vars} variable(s) declared"
        )
    terms = []
    for coeff, powers in parsed:
        exps = tuple(powers.get(i, 0) for i in range(num_vars))
        terms.append((exps, coeff))
    return Polynomial(num_vars, terms)


def format_polynomial(p: Polynomial) -> str:
    """Render in the text grammar; parse(format(p)) == p."""
    if not p.terms:
        return "0"
    parts = []
    # display order: degree descending, then lex descending
    for exps in sorted(p.terms, key=lambda e: (-sum(e), tuple(-x for x in e))):
        c = p.terms[exps]
        mag = abs(c)
        vars_txt = "*".join(
            f"x{i + 1}^{e}" if e > 1 else f"x{i + 1}"
            for i, e in enumerate(exps)
            if e
        )
        if not vars_txt:
            body = format_rational(mag)
        elif mag == 1:
            body = vars_txt
        else:
            body = f"{format_rational(mag)}*{vars_txt}"
        parts.append(("-" if c < 0 else "+", body))
    sign, body = parts[0]
    out = body if sign == "+" else f"-{body}"
    for sign, body in parts[1:]:
        out += f" {sign} {body}"
    return out
