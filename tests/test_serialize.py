import json
import random
from fractions import Fraction

import pytest

from berncert import (
    BernsteinForm,
    CertifyConfig,
    Simplex,
    Strategy,
    Target,
    barycentric_system,
    certify,
    counterexample_polynomial,
    failing_leaves,
    parse_polynomial,
    standard_simplex,
    to_bernstein,
)
from berncert.serialize import (
    canonical_dumps,
    digest,
    failing_to_json,
    form_from_json,
    form_to_json,
    parse_json_exact,
    rational_from_json,
    rational_to_json,
    simplex_from_json,
    simplex_to_json,
    split_from_json,
    split_to_json,
    tree_from_json,
    tree_to_json,
)
from berncert.certify import verify_tree
from berncert.polynomials import grlex_key, vectors_with_sum
from helpers import rand_edge_ratio, rand_polynomial, rand_simplex


def test_rational_round_trip():
    assert rational_to_json(Fraction(3)) == 3
    assert rational_to_json(Fraction(-1, 2)) == "-1/2"
    assert rational_from_json(3) == 3
    assert rational_from_json("-1/2") == Fraction(-1, 2)
    with pytest.raises(ValueError):
        rational_from_json(True)
    for bad in (0.5, "1/0", "x", None, [1]):
        with pytest.raises(ValueError):
            rational_from_json(bad)


def test_simplex_round_trip():
    rng = random.Random(1)
    for _ in range(5):
        s = rand_simplex(rng, n=rng.randint(1, 3))
        assert simplex_from_json(simplex_to_json(s)) == s
    # a bare vertex list is accepted too
    assert simplex_from_json([[0, 0], [1, 0], [0, 1]]) == standard_simplex(2)


def test_form_round_trip():
    rng = random.Random(2)
    for _ in range(5):
        p = rand_polynomial(rng, max_degree=3)
        s = rand_simplex(rng)
        form = to_bernstein(p, barycentric_system(s), max(p.degree, 1))
        assert form_from_json(form_to_json(form)) == form


def test_form_json_is_sorted_and_exact():
    p = counterexample_polynomial()
    form = to_bernstein(p, barycentric_system(standard_simplex(2)), 4)
    payload = form_to_json(form)
    indices = [tuple(entry["index"]) for entry in payload["coefficients"]]
    assert indices == sorted(indices, key=lambda idx: (sum(idx), idx))
    values = {tuple(e["index"]): e["value"] for e in payload["coefficients"]}
    assert values[(1, 1, 2)] == -1
    assert values[(0, 0, 4)] == 30


def test_simplex_decoder_names_the_expected_shape():
    for bad in (5, {"a": 1}, "std1", {"vertices": 3}, [[0], 5], ([0], [1])):
        with pytest.raises(ValueError, match="list of vertex lists"):
            simplex_from_json(bad)
    assert simplex_from_json({"vertices": [[0], [1]]}) == standard_simplex(1)


def test_repeated_coefficient_index_is_rejected():
    # a repeated index used to keep its last entry, so a stray first entry
    # left a tree that still verified
    p = parse_polynomial("x1^2 + x2^2 + 1/10")
    config = CertifyConfig(max_depth=1, target=Target.POSITIVE)
    tree = certify(p, standard_simplex(2), config)
    payload = tree_to_json(tree)
    assert verify_tree(tree_from_json(payload)) is True
    payload["coefficients"].insert(0, {"index": [0, 0, 2], "value": -7})
    with pytest.raises(ValueError, match="listed twice"):
        tree_from_json(payload)


def test_tree_round_trip():
    tree = certify(
        counterexample_polynomial(),
        standard_simplex(2),
        CertifyConfig(max_depth=2),
    )
    encoded = tree_to_json(tree)
    assert tree_from_json(encoded) == tree
    # and the encoding is valid JSON all the way down
    assert json.loads(canonical_dumps(encoded)) == json.loads(
        canonical_dumps(tree_to_json(tree_from_json(encoded)))
    )


def test_canonical_dumps_is_stable():
    payload = {"b": [1, "2/3"], "a": {"x": 1}}
    assert canonical_dumps(payload) == canonical_dumps(
        {"a": {"x": 1}, "b": [1, "2/3"]}
    )
    assert digest(payload) == digest({"a": {"x": 1}, "b": [1, "2/3"]})


def test_parse_json_exact_floats():
    obj = parse_json_exact('{"theta": 0.25, "n": 3}')
    assert obj["theta"] == Fraction(1, 4)
    assert isinstance(obj["theta"], Fraction)
    assert obj["n"] == 3


def test_integer_fields_reject_non_integers():
    tree = certify(
        counterexample_polynomial(),
        standard_simplex(2),
        CertifyConfig(max_depth=1, max_degree=5, strategy=Strategy.ELEVATION_THEN_SPLIT),
    )
    text = canonical_dumps(tree_to_json(tree))
    assert tree_from_json(parse_json_exact(text)) == tree
    edits = [
        ('"i":0,', '"i":0.5,'),  # once read as 0, and the tree still verified
        ('"j":2,', '"j":2.0,'),
        ('"i":0,', '"i":false,'),
        ('"steps":1}', '"steps":1.5}'),
        ('"steps":1}', '"steps":"1"}'),
        ('"degree":5,', '"degree":5.0,'),
        ('"index":[0,0,5]', '"index":[0,0,5.0]'),
        ('"negative_indices":[[1,', '"negative_indices":[[1.0,'),
    ]
    for old, new in edits:
        assert old in text
        with pytest.raises(ValueError):
            tree_from_json(parse_json_exact(text.replace(old, new, 1)))


def test_list_fields_reject_any_other_value():
    # "" and {} iterate as empty lists, so each once decoded as an empty field
    tree = certify(counterexample_polynomial(), standard_simplex(2), CertifyConfig(max_depth=1))
    for value in ("", {}, None, 0, "[]"):
        for field, where in (
            ("children", lambda payload: payload),
            ("children", lambda payload: payload["children"][0]),
            ("coefficients", lambda payload: payload["children"][0]),
            ("negative_indices", lambda payload: payload["children"][0]["status"]),
            (0, lambda payload: payload["children"][0]["status"]["negative_indices"]),
        ):
            payload = tree_to_json(tree)
            where(payload)[field] = value
            name = "negative index" if field == 0 else field
            with pytest.raises(ValueError, match=f"^{name} must be a list, not {type(value).__name__}$"):
                tree_from_json(payload)
    assert tree_from_json(tree_to_json(tree)) == tree


def test_failing_to_json_writes_the_frontier_in_walk_order():
    p, std2 = counterexample_polynomial(), standard_simplex(2)
    tree = certify(p, std2, CertifyConfig(max_depth=2))
    assert failing_to_json(failing_leaves(tree, Target.NONNEGATIVE)) == [
        {"path": [0, 1], "negative_indices": [[1, 1, 2]]},
        {"path": [1, 0], "negative_indices": [[0, 1, 3], [1, 1, 2], [2, 1, 1], [3, 1, 0]]},
        {"path": [1, 1], "negative_indices": [[1, 1, 2], [2, 1, 1], [3, 1, 0]]},
    ]
    assert failing_to_json(failing_leaves(tree, Target.POSITIVE))[0]["path"] == [0, 0]
    certified = certify(parse_polynomial("x1^2 + x2^2 + 1"), std2, CertifyConfig())
    assert failing_to_json(failing_leaves(certified, Target.POSITIVE)) == []


def test_unknown_split_kind_is_a_value_error():
    with pytest.raises(ValueError, match="unknown split record"):
        split_from_json({"kind": "vertex", "steps": 1})
    with pytest.raises(ValueError, match="unknown split record"):
        split_to_json(("edge", 0, 1))


def test_zero_denominator_is_a_value_error():
    tree = certify(
        counterexample_polynomial(), standard_simplex(2), CertifyConfig(max_depth=1)
    )
    text = canonical_dumps(tree_to_json(tree))
    assert '"theta":"1/2"' in text
    text = text.replace('"theta":"1/2"', '"theta":"1/0"', 1)
    with pytest.raises(ValueError):
        tree_from_json(parse_json_exact(text))


# --- the integer codec -------------------------------------------------------


def _unreduced_form(rng, n, degree):
    """A form on a moved simplex with negative, whole and zero values,
    over a den that is mostly larger than the values' lcm denominator."""
    simplex = rand_simplex(rng, n)
    i, j = rng.sample(range(n + 1), 2)
    simplex = simplex._moved(j, i, rand_edge_ratio(rng))
    den = rng.choice((1, 6, 12, 2**40)) * rng.randint(1, 9)
    nums = {}
    for index in vectors_with_sum(n + 1, degree):
        kind = rng.randrange(4)
        if kind == 0:
            continue
        num = den * rng.randint(-3, 3) if kind == 1 else rng.randint(-(10**9), 10**9)
        if num:
            nums[index] = num
    return BernsteinForm._canonical(barycentric_system(simplex), degree, den, nums)


def _oracle_simplex_json(simplex):
    den = simplex.den
    return {"vertices": [[rational_to_json(Fraction(x, den)) for x in v] for v in simplex.nums]}


def _oracle_form_json(form):
    items = sorted(form.nums.items(), key=lambda kv: grlex_key(kv[0]))
    return {
        "degree": form.degree,
        "simplex": _oracle_simplex_json(form.simplex),
        "coefficients": [
            {"index": index, "value": rational_to_json(Fraction(num, form.den))}
            for index, num in items
        ],
    }


def test_integer_codec_matches_the_fraction_oracle_and_round_trips():
    rng = random.Random(31)
    whole = negative = 0
    for n, degree in ((1, 5), (2, 4), (3, 3)):
        for _ in range(12):
            form = _unreduced_form(rng, n, degree)
            payload = form_to_json(form)
            assert payload == _oracle_form_json(form)
            assert simplex_to_json(form.simplex) == _oracle_simplex_json(form.simplex)
            values = [entry["value"] for entry in payload["coefficients"]]
            whole += sum(type(v) is int for v in values)
            negative += sum(rational_from_json(v) < 0 for v in values)
            back = form_from_json(parse_json_exact(canonical_dumps(payload)))
            assert back == form and back.simplex == form.simplex
            assert back.coeffs == form.coeffs
    assert whole and negative


# (JSON literal, its value, or None where it is rejected)
LITERALS = [
    ('"3/4"', Fraction(3, 4)),
    ('"-3/4"', Fraction(-3, 4)),
    ('"+3/4"', Fraction(3, 4)),
    ('" 3/4"', Fraction(3, 4)),
    ('"3/-4"', None),
    ('"1/0"', None),
    ('"0.25"', Fraction(1, 4)),
    ('"1e3"', Fraction(1000)),
    ('"03/4"', Fraction(3, 4)),
    ("true", None),
    ("1.5", Fraction(3, 2)),
    ("-2", Fraction(-2)),
    ('"6/8"', Fraction(3, 4)),
    ("1e3", Fraction(1000)),
    ('"1e4300"', Fraction(10**4300)),
    ('"1e4301"', None),  # past the default integer digit limit, 4300
]


@pytest.mark.parametrize("literal, value", LITERALS)
def test_rational_literals_keep_their_decision_and_value(literal, value):
    v = parse_json_exact(literal)
    readers = [
        rational_from_json,
        lambda v: simplex_from_json([[0, 0], [1, v], [0, 1]]).vertices[1][1],
        lambda v: form_from_json(
            {"degree": 1, "simplex": [[0], [1]], "coefficients": [{"index": [1, 0], "value": v}]}
        ).coefficient((1, 0)),
    ]
    for read in readers:
        if value is None:
            with pytest.raises(ValueError):
                read(v)
        else:
            got = read(v)
            assert type(got) is Fraction and got == value


def test_a_float_is_rejected_where_json_gives_a_fraction():
    for read in (rational_from_json, lambda v: simplex_from_json([[0], [v]])):
        with pytest.raises(ValueError):
            read(1.5)
    assert simplex_from_json([[0], [Fraction(3, 2)]]) == Simplex(((0,), (Fraction(3, 2),)))
