import json
import random
from fractions import Fraction

import pytest

from berncert import (
    CertifyConfig,
    Strategy,
    barycentric_system,
    certify,
    counterexample_polynomial,
    standard_simplex,
    to_bernstein,
)
from berncert.serialize import (
    canonical_dumps,
    digest,
    form_from_json,
    form_to_json,
    parse_json_exact,
    rational_from_json,
    rational_to_json,
    simplex_from_json,
    simplex_to_json,
    tree_from_json,
    tree_to_json,
)
from helpers import rand_polynomial, rand_simplex


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


def test_zero_denominator_is_a_value_error():
    tree = certify(
        counterexample_polynomial(), standard_simplex(2), CertifyConfig(max_depth=1)
    )
    text = canonical_dumps(tree_to_json(tree))
    assert '"theta":"1/2"' in text
    text = text.replace('"theta":"1/2"', '"theta":"1/0"', 1)
    with pytest.raises(ValueError):
        tree_from_json(parse_json_exact(text))
