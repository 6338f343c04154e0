"""Workload corpora: fixed anchor cases plus instances drawn from a seed.

Polynomials are held here as exact monomial maps {exponents: Fraction}.
The benchmark renders the text the program parses from them, and
evaluates them itself when it checks a certificate, so the check does
not lean on the program's own parser or evaluator.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from fractions import Fraction

DEFAULT_SEED = 1

Poly = dict  # {exponent tuple: nonzero Fraction}


@dataclass(frozen=True)
class Case:
    """One operation of a workload.

    ``argv`` is a full ``berncert`` command line.  For the verify
    workload it is the ``certify`` run whose certificate set-up produces.
    Anchor cases are the same for every seed, so their recorded outputs
    apply to every seed; drawn cases are recorded for DEFAULT_SEED only.
    """

    name: str
    argv: tuple[str, ...]
    poly: Poly | None
    target: str
    anchor: bool


def _poly(terms: dict) -> Poly:
    return {tuple(e): Fraction(c) for e, c in terms.items() if c}


def mul(p: Poly, q: Poly) -> Poly:
    out: dict = {}
    for a, ca in p.items():
        for b, cb in q.items():
            e = tuple(x + y for x, y in zip(a, b))
            out[e] = out.get(e, Fraction(0)) + ca * cb
    return {e: c for e, c in out.items() if c}


def evaluate(p: Poly, point) -> Fraction:
    total = Fraction(0)
    for exps, c in p.items():
        term = c
        for x, e in zip(point, exps):
            term *= x**e
        total += term
    return total


def render(p: Poly) -> str:
    """Text in the program's input grammar, highest degree first."""
    parts = []
    for exps in sorted(p, key=lambda e: (-sum(e), tuple(-x for x in e))):
        c = p[exps]
        mag = abs(c)
        body = str(mag.numerator) if mag.denominator == 1 else f"{mag.numerator}/{mag.denominator}"
        for i, e in enumerate(exps):
            if e:
                body += f"*x{i + 1}" + (f"^{e}" if e > 1 else "")
        parts.append(("-" if c < 0 else "+", body))
    text = ("-" if parts[0][0] == "-" else "") + parts[0][1]
    return text + "".join(f" {s} {b}" for s, b in parts[1:])


COUNTEREXAMPLE = _poly({
    (4, 0): 21, (3, 1): 24, (3, 0): -36, (2, 2): 18, (2, 1): -24,
    (2, 0): 18, (1, 3): 12, (1, 2): -12, (0, 4): 30,
})
SPLIT_DEMO = _poly({(2, 0): 1, (0, 2): 1, (1, 1): -1})
# positive definite quadratic in 4 variables, and its square
QUAD4 = _poly({
    (2, 0, 0, 0): 1, (0, 2, 0, 0): 1, (0, 0, 2, 0): 1, (0, 0, 0, 2): 1,
    (1, 1, 0, 0): -1, (0, 0, 1, 1): -1, (0, 0, 0, 0): Fraction(1, 10),
})
QUARTIC4 = mul(QUAD4, QUAD4)


def near_zero_quartic(r, eps) -> Poly:
    """q(x)^2 + eps with q = sum_k (x_k - r_k)^2: positive, minimum eps at r."""
    n = len(r)
    q: dict = {}
    for k, rk in enumerate(r):
        unit = [0] * n
        unit[k] = 2
        q[tuple(unit)] = Fraction(1)
        unit[k] = 1
        q[tuple(unit)] = -2 * rk
    q[(0,) * n] = sum(rk * rk for rk in r)
    out = mul(q, q)
    out[(0,) * n] = out.get((0,) * n, Fraction(0)) + eps
    return {e: c for e, c in out.items() if c}


# The ranges keep every drawn tree the same shape (11 nodes under witness
# and bisect; 3-variable trees change shape for eps far from 1/10), and odd
# numerators keep every r_k at denominator 32, so a run's cost and bytes
# hardly depend on the seed.  Draws are without replacement, so every seed
# gives ``count`` distinct inputs.
def _quartic_space(n: int) -> list[tuple]:
    if n == 2:
        rs = [Fraction(2 * i + 1, 32) for i in range(2, 6)]
        epss = [Fraction(1, d) for d in range(80, 121)]
    else:
        rs = [Fraction(2 * i + 1, 32) for i in range(1, 4)]
        epss = [Fraction(100, 1000 + d) for d in range(-6, 7)]
    return [(r, eps) for r in itertools.product(rs, repeat=n) for eps in epss]


def _certify(name, poly, strategy, target, anchor, depth=None, degree=None) -> Case:
    argv = ["certify", render(poly), "--strategy", strategy, "--target", target, "--json"]
    if depth is not None:
        argv += ["--max-depth", str(depth)]
    if degree is not None:
        argv += ["--max-degree", str(degree)]
    return Case(name, tuple(argv), poly, target, anchor)


def _counterexample_cases() -> list[Case]:
    cases = []
    for strategy in ("witness", "bisect", "elevate", "elevate-split"):
        degree = 8 if strategy.startswith("elevate") else None
        for depth in (4, 8):
            cases.append(_certify(
                f"ce-{strategy}-d{depth}", COUNTEREXAMPLE, strategy,
                "nonnegative", True, depth, degree,
            ))
    return cases


def _drawn(workload: str, seed: int, n: int, count: int, strategies) -> list[Case]:
    rng = random.Random(f"{workload}/{seed}/{n}")
    cases = []
    for k, (r, eps) in enumerate(rng.sample(_quartic_space(n), count)):
        poly = near_zero_quartic(r, eps)
        for strategy in strategies:
            cases.append(_certify(
                f"quartic{n}-{k}-{strategy}", poly, strategy, "positive", False, 10,
            ))
    return cases


def tri_search(seed: int) -> list[Case]:
    return [
        *_counterexample_cases(),
        _certify("split-demo", SPLIT_DEMO, "witness", "nonnegative", True),
        Case("paper", ("paper", "--json"), None, "nonnegative", True),
        *_drawn("tri-search", seed, 2, 10, ("witness", "bisect")),
    ]


def nd_search(seed: int) -> list[Case]:
    return [
        *_drawn("nd-search", seed, 3, 3, ("witness", "bisect")),
        _certify("quad4-witness", QUAD4, "witness", "positive", True),
        _certify("quad4-elevate-split", QUAD4, "elevate-split", "positive", True, degree=3),
        _certify("quartic4-witness", QUARTIC4, "witness", "positive", True),
        _certify("quartic4-elevate-split", QUARTIC4, "elevate-split", "positive", True, degree=5),
    ]


def verify(seed: int) -> list[Case]:
    fixed2 = near_zero_quartic((Fraction(1, 4), Fraction(9, 32)), Fraction(1, 100))
    fixed3 = near_zero_quartic((Fraction(5, 32), Fraction(7, 32), Fraction(1, 4)), Fraction(1, 10))
    return [
        _certify("ce-witness-d4", COUNTEREXAMPLE, "witness", "nonnegative", True, 4),
        _certify("ce-elevate-split-d2", COUNTEREXAMPLE, "elevate-split", "nonnegative", True, 2, 8),
        _certify("ce-elevate", COUNTEREXAMPLE, "elevate", "nonnegative", True, degree=8),
        _certify("split-demo", SPLIT_DEMO, "witness", "nonnegative", True),
        _certify("fixed2-elevate-split", fixed2, "elevate-split", "positive", True, 10, 8),
        _certify("fixed3-elevate-split", fixed3, "elevate-split", "positive", True, 10, 5),
        *_drawn("verify", seed, 2, 2, ("witness",)),
        *_drawn("verify", seed, 3, 2, ("witness",)),
    ]


def corpus_text(cases: list[Case]) -> str:
    """Every program input of a corpus, one case a line."""
    return "".join(f"{c.name}\t{' '.join(c.argv)}\n" for c in cases)
