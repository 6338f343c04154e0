"""Output checks that do not rely on the program under test.

``check_tree`` reads a certificate from its JSON encoding and checks
every leaf against the input polynomial: a leaf that claims the target
must meet it by its own coefficients, and at a few exact rational points
its Bernstein form, evaluated by this module's de Casteljau step, must
equal the polynomial evaluated by ``corpus.evaluate``.
"""

from __future__ import annotations

from fractions import Fraction

from corpus import Poly, evaluate


def rational(value) -> Fraction:
    if isinstance(value, bool) or not isinstance(value, (int, str)):
        raise ValueError(f"not an exact rational: {value!r}")
    return Fraction(value)


def indices(slots: int, total: int):
    """Every multi-index with ``slots`` nonnegative entries summing to ``total``."""
    if slots == 1:
        yield (total,)
        return
    for first in range(total, -1, -1):
        for rest in indices(slots - 1, total - first):
            yield (first,) + rest


def de_casteljau(coeffs: dict, degree: int, lam: tuple[Fraction, ...]) -> Fraction:
    """Value of sum_alpha b_alpha B_alpha(lam), by repeated convex combination."""
    level = coeffs
    for d in range(degree, 0, -1):
        nxt = {}
        for alpha in indices(len(lam), d - 1):
            total = Fraction(0)
            for i, weight in enumerate(lam):
                up = alpha[:i] + (alpha[i] + 1,) + alpha[i + 1:]
                total += weight * level.get(up, 0)
            nxt[alpha] = total
        level = nxt
    return level.get((0,) * len(lam), Fraction(0))


def sample_points(slots: int) -> list[tuple[Fraction, ...]]:
    """Three interior barycentric points: the centroid and two skewed ones."""
    points = []
    for weights in ([1] * slots, list(range(1, slots + 1)), [2 ** k for k in range(slots)]):
        total = sum(weights)
        points.append(tuple(Fraction(w, total) for w in weights))
    return points


def meets(kind: str, target: str) -> bool:
    return kind == "positive" or (target == "nonnegative" and kind == "nonnegative")


def leaves(tree: dict):
    stack = [tree]
    while stack:
        node = stack.pop()
        if node["children"]:
            stack.extend(node["children"])
        else:
            yield node


def count_nodes(tree: dict) -> int:
    count, stack = 0, [tree]
    while stack:
        node = stack.pop()
        count += 1
        stack.extend(node["children"])
    return count


def check_tree(tree: dict, poly: Poly, target: str, certified: bool) -> list[str]:
    """Problems found in a certificate tree; an empty list means it passed."""
    problems = []
    for leaf in leaves(tree):
        vertices = [[rational(x) for x in v] for v in leaf["simplex"]["vertices"]]
        degree = leaf["degree"]
        coeffs = {tuple(c["index"]): rational(c["value"]) for c in leaf["coefficients"]}
        if certified or meets(leaf["status"]["kind"], target):
            full = [coeffs.get(index, Fraction(0)) for index in indices(len(vertices), degree)]
            if target == "positive" and not all(b > 0 for b in full):
                problems.append(f"leaf on {vertices} has a coefficient <= 0")
            if target == "nonnegative" and not all(b >= 0 for b in full):
                problems.append(f"leaf on {vertices} has a negative coefficient")
        for lam in sample_points(len(vertices)):
            point = [sum(w * v[k] for w, v in zip(lam, vertices)) for k in range(len(vertices) - 1)]
            if de_casteljau(coeffs, degree, lam) != evaluate(poly, point):
                problems.append(f"leaf on {vertices} differs from P at {point}")
    return problems
