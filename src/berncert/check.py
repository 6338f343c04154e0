"""A certificate checker bound to the caller's polynomial and simplex.

``homogenised_form`` is a closed-form change into the Bernstein basis
that needs only the simplex's vertices: no barycentric coordinates, no
inverse, no basis products and no linear solve (Farouki, "The Bernstein
polynomial basis: a centennial retrospective", CAGD 2012).  With the
vertices v_i = V_i / D over one denominator, each variable is
x_m = L_m(lambda) / D for the integer linear form L_m = sum_i V_im lambda_i.
With P = sum c_e x^e / den_P of degree k, and sum_i lambda_i = 1 on the
simplex,

    den_P * D^k * P(x)
        = (sum lambda)^(d-k) * sum_j (D sum lambda)^(k-j) H_j,
    H_j = sum over |e| = j of c_e L^e,

is a form of degree d in lambda whose coefficient f_alpha at lambda^alpha
is den_P * D^k * M(d, alpha) * b_alpha, so b_alpha = f_alpha * alpha!
over den_P * D^k * d!.  The sum runs in Horner's order on integer
numerators; the H_j read shared tables of the powers of each L_m.  A
multi-index alpha is held as one int, sum_i alpha_i (d+1)^i, so that
multiplying by lambda_i adds (d+1)^i.

``check_certificate`` checks a ``certify --json`` payload against the
caller's P and S, not against the payload's own root form: it replays
the split and elevation records on simplices alone, starting from S, so
the leaves tile S; it converts P on each leaf with ``homogenised_form``
and requires the stored form to equal it; and it requires every stored
status to match its node's coefficients.  It shares no conversion, edge
move or elevation code with the search.
"""

from __future__ import annotations

from math import comb, factorial, prod

from .bernstein import BernsteinForm, DegreeTooLowError, _check_size
from .certify import EdgeSplit, Elevation, Target
from .polynomials import Polynomial, as_int, same_values
from .serialize import form_from_json, split_from_json, status_from_json
from .simplices import Simplex, barycentric_system

__all__ = ["CertificateRejected", "homogenised_form", "check_certificate"]


def _times(poly: dict, factor) -> dict:
    """poly * factor on coded indices; ``factor`` is a re-iterable of (code, value) pairs."""
    out: dict[int, int] = {}
    for c1, v1 in poly.items():
        for c2, v2 in factor:
            key = c1 + c2
            out[key] = out.get(key, 0) + v1 * v2
    return out


def homogenised_form(p: Polynomial, simplex: Simplex, degree: int) -> BernsteinForm:
    """P's exact degree-d Bernstein form on the simplex, in closed form (see the module).

    Refuses what ``to_bernstein`` refuses, with the same types and in the
    same order: a variable-count mismatch (ValueError), a degree below
    deg P (DegreeTooLowError) and a form with more than
    ``MAX_COEFFICIENTS`` coefficients (ValueError).  It builds no linear
    system, so no unknowns bound applies.
    """
    n = simplex.dimension
    if p.num_vars != n:
        raise ValueError(f"variable count mismatch: {p.num_vars} != {n}")
    k = p.degree
    if k > as_int(degree, "degree"):
        raise DegreeTooLowError(required=k, requested=degree)
    _check_size(n, degree)
    base = degree + 1
    steps = [base**i for i in range(n + 1)]
    vertices = simplex.nums
    # powers[m][t] = L_m^t, extended as the terms need them
    powers = [[{0: 1}] for _ in range(n)]
    linear = [[(s, v[m]) for s, v in zip(steps, vertices) if v[m]] for m in range(n)]
    products: dict[tuple[int, ...], dict] = {(): {0: 1}}  # L^e per exponent prefix
    layers: list[dict[int, int]] = [{} for _ in range(k + 1)]  # H_j
    for e, c in p.nums.items():
        term = products[()]
        for m, t in enumerate(e):
            key = e[: m + 1]
            got = products.get(key)
            if got is None:
                table = powers[m]
                while len(table) <= t:
                    table.append(_times(table[-1], linear[m]))
                got = products[key] = _times(term, table[t].items()) if t else term
            term = got
        layer = layers[sum(e)]
        for code, v in term.items():
            layer[code] = layer.get(code, 0) + c * v
    den = simplex.den
    scaled_sum, plain_sum = [(s, den) for s in steps], [(s, 1) for s in steps]
    acc = layers[0]
    for layer in layers[1:]:  # acc = acc * D * sum(lambda) + H_j
        acc = _times(acc, scaled_sum)
        for code, v in layer.items():
            acc[code] = acc.get(code, 0) + v
    for _ in range(degree - k):
        acc = _times(acc, plain_sum)
    fact = [factorial(a) for a in range(base)]
    nums = {}
    for code, v in acc.items():
        if v:
            alpha = []
            for _ in range(n + 1):
                code, a = divmod(code, base)
                alpha.append(a)
            nums[tuple(alpha)] = v * prod(fact[a] for a in alpha)
    form_den = p.den * den**k * factorial(degree)
    return BernsteinForm._canonical(barycentric_system(simplex), degree, form_den, nums)


class CertificateRejected(ValueError):
    """The certificate does not prove what it claims for the caller's P and S.

    ``path`` is the child-index route from the root to the first failing node.
    """

    def __init__(self, path: tuple[int, ...], reason: str):
        route = ".".join(map(str, path)) or "root"
        super().__init__(f"certificate rejected at path {route}: {reason}")
        self.path = path


def _status(form: BernsteinForm) -> tuple[str, tuple]:
    """(kind, negative indices) of the full coefficient set, implicit zeros counted."""
    negatives = tuple(sorted(index for index, c in form.nums.items() if c < 0))
    if negatives:
        return "indeterminate", negatives
    full = comb(form.simplex.dimension + form.degree, form.degree)
    return ("positive" if len(form.nums) == full else "nonnegative"), ()


def _meets(kind: str, target: Target) -> bool:
    return kind == "positive" or (target is Target.NONNEGATIVE and kind == "nonnegative")


def _split_simplices(simplex: Simplex, split: EdgeSplit) -> tuple[Simplex, Simplex]:
    """The children of an edge split: w = (1-theta)*v_i + theta*v_j replaces v_j in
    the first and v_i in the second.  Their union is the simplex, their interiors
    are disjoint, and each is nondegenerate because 0 < theta < 1."""
    i, j, theta = split.i, split.j, split.theta
    n = simplex.dimension
    if not (0 <= i <= n and 0 <= j <= n and i != j):
        raise ValueError(f"edge ({i}, {j}) is not an edge of a simplex of dimension {n}")
    if not (0 < theta < 1):
        raise ValueError(f"split ratio {theta} is not strictly between 0 and 1")
    p, q = theta.numerator, theta.denominator
    vertices = [tuple(q * x for x in v) for v in simplex.nums]
    w = tuple((q - p) * a + p * b for a, b in zip(simplex.nums[i], simplex.nums[j]))
    den = simplex.den * q
    first, second = list(vertices), list(vertices)
    first[j] = second[i] = w
    return Simplex._canonical(den, tuple(first)), Simplex._canonical(den, tuple(second))


def _children(form: BernsteinForm, split) -> list[tuple[Simplex, int]]:
    """The (simplex, degree) each child must have by the node's record."""
    if split is None:
        return []
    if isinstance(split, Elevation):
        if split.steps < 1:
            raise ValueError(f"an elevation needs at least 1 step, got {split.steps}")
        return [(form.simplex, form.degree + split.steps)]
    return [(s, form.degree) for s in _split_simplices(form.simplex, split)]


def check_certificate(payload, p: Polynomial, simplex: Simplex, target=None) -> str:
    """Check a ``certify --json`` payload against the caller's P and S.

    Returns "certified" when every leaf meets ``target`` (a ``Target`` or
    its value; None means the payload's own target), else "exhausted".
    The payload's "status" and "failing" must be what its tree gives
    under the payload's "target".  Raises CertificateRejected, naming the
    first failing path, when the root simplex is not S, a record does
    not give its node's children, a node's status does not match its
    coefficients, or a leaf's form is not P's form on the leaf.  A P
    whose variable count is not S's dimension is a plain ValueError.
    """
    if p.num_vars != simplex.dimension:
        raise ValueError(f"variable count mismatch: {p.num_vars} != {simplex.dimension}")
    try:
        claimed = Target(payload["target"])
        tree = payload["tree"]
    except (TypeError, KeyError, ValueError) as exc:
        raise CertificateRejected((), f"not a certify --json payload ({exc!r})") from None
    target = claimed if target is None else Target(target)
    certified = True
    failing = []
    stack = [((), tree, simplex, None)]
    while stack:
        path, node, want_simplex, want_degree = stack.pop()
        try:
            form = form_from_json(node)
            stored = status_from_json(node["status"])
            split = split_from_json(node["split"])
            children = node["children"]
            if not isinstance(children, list):
                raise ValueError("children must be a list")
            if form.simplex != want_simplex:
                raise ValueError(
                    "simplex is not the caller's" if not path else
                    "simplex is not the one its parent's record gives"
                )
            if want_degree is not None and form.degree != want_degree:
                raise ValueError(f"degree {form.degree}, but its parent's record gives {want_degree}")
            expected = _children(form, split)
            if len(children) != len(expected):
                raise ValueError(f"{len(children)} children, but its record gives {len(expected)}")
            if not children and not same_values(form, homogenised_form(p, want_simplex, form.degree)):
                raise ValueError("the stored form is not the caller's polynomial on this leaf")
        except (TypeError, KeyError, ValueError) as exc:
            raise CertificateRejected(path, str(exc)) from None
        kind, negatives = _status(form)
        if (stored.kind.value, stored.negative_indices) != (kind, negatives):
            raise CertificateRejected(
                path,
                f"status ({stored.kind.value}, negative at {list(stored.negative_indices)}) does not "
                f"match its coefficients ({kind}, negative at {list(negatives)})",
            )
        if not children:
            certified = certified and _meets(kind, target)
            if not _meets(kind, claimed):
                failing.append({"path": list(path), "negative_indices": [list(i) for i in negatives]})
        for idx in range(len(children) - 1, -1, -1):
            stack.append((path + (idx,), children[idx], *expected[idx]))
    claim = "exhausted" if failing else "certified"
    if payload.get("status") != claim or payload.get("failing") != failing:
        raise CertificateRejected((), f"status and failing leaves are not the tree's: it is {claim}")
    return "certified" if certified else "exhausted"
