import random
from fractions import Fraction

import pytest

from berncert import (
    Simplex,
    barycentric_system,
    counterexample_polynomial,
    edge_split_forms,
    from_bernstein,
    parse_polynomial,
    restrict_general,
    split_edge,
    standard_simplex,
    to_bernstein,
    transfer_combined,
    transfer_edge_v2,
    transfer_vertex_v1,
)
from helpers import (
    rand_edge_ratio,
    rand_interior_ratio,
    rand_polynomial,
    rand_simplex,
    rand_vertex_weights,
)


def _form_on(rng, p, n=2, extra=0):
    s = rand_simplex(rng, n=n)
    return to_bernstein(p, barycentric_system(s), max(p.degree, 1) + extra)


def test_transfer_edge_matches_general_reexpansion():
    rng = random.Random(1001)
    for n, rounds, max_degree in ((2, 8, 4), (1, 4, 4), (3, 3, 3), (4, 2, 2)):
        # the default call (moving vn toward v0), then every ordered slot pair
        pairs = [()] + [(i, j) for i in range(n + 1) for j in range(n + 1) if i != j]
        for _ in range(rounds):
            p = rand_polynomial(rng, num_vars=n, max_degree=max_degree)
            form = _form_on(rng, p, n=n)
            vertices = form.simplex.vertices
            for pair in pairs:
                rho = rand_edge_ratio(rng)
                moved = transfer_edge_v2(form, rho, *pair)
                i, j = pair or (0, n)
                vi, vj = vertices[i], vertices[j]
                w = tuple(rho * a + (1 - rho) * b for a, b in zip(vi, vj))
                assert moved.simplex.vertices == vertices[:j] + (w,) + vertices[j + 1 :]
                assert moved == restrict_general(form, moved.simplex)
                assert from_bernstein(moved) == p
                if not pair:
                    assert moved == transfer_edge_v2(form, rho, 0, n)


def test_transfer_edge_rho_zero_is_identity():
    rng = random.Random(1002)
    p = rand_polynomial(rng, max_degree=3)
    form = _form_on(rng, p)
    assert transfer_edge_v2(form, Fraction(0)) == form


def test_transfer_edge_rejects_bad_rho():
    rng = random.Random(1003)
    form = _form_on(rng, rand_polynomial(rng))
    with pytest.raises(ValueError):
        transfer_edge_v2(form, Fraction(1))
    with pytest.raises(ValueError):
        transfer_edge_v2(form, Fraction(-1, 2))
    half = Fraction(1, 2)
    for i, j in ((1, 1), (0, 3), (3, 0), (-1, 2), (Fraction(1), 2)):
        with pytest.raises(ValueError):
            transfer_edge_v2(form, half, i, j)


def test_transfer_vertex_matches_general_reexpansion():
    rng = random.Random(1004)
    for _ in range(8):
        p = rand_polynomial(rng, max_degree=4)
        form = _form_on(rng, p)
        for _ in range(3):
            beta = rand_vertex_weights(rng)
            moved = transfer_vertex_v1(form, beta)
            assert moved == restrict_general(form, moved.simplex)
            assert from_bernstein(moved) == p


def test_transfer_vertex_identity_weights():
    rng = random.Random(1005)
    p = rand_polynomial(rng, max_degree=3)
    form = _form_on(rng, p)
    moved = transfer_vertex_v1(form, (Fraction(0), Fraction(1), Fraction(0)))
    assert moved == form


def test_transfer_vertex_rejects_bad_weights():
    rng = random.Random(1006)
    form = _form_on(rng, rand_polynomial(rng))
    with pytest.raises(ValueError):
        transfer_vertex_v1(form, (Fraction(1, 2), Fraction(1, 2), Fraction(1, 2)))
    with pytest.raises(ValueError):
        transfer_vertex_v1(form, (Fraction(1), Fraction(0), Fraction(0)))
    with pytest.raises(ValueError):
        transfer_vertex_v1(form, (Fraction(-1, 2), Fraction(1), Fraction(1, 2)))
    with pytest.raises(ValueError, match="^vertex weights need 3 entries, got 2$"):
        transfer_vertex_v1(form, (Fraction(1, 2), Fraction(1, 2)))
    form3 = _form_on(rng, rand_polynomial(rng, num_vars=3), n=3)
    beta = (Fraction(1, 3), Fraction(1, 3), Fraction(1, 3))
    with pytest.raises(ValueError, match="defined for 2-simplices, got dimension 3$"):
        transfer_vertex_v1(form3, beta)
    with pytest.raises(ValueError, match="defined for 2-simplices, got dimension 3$"):
        transfer_combined(form3, beta, Fraction(1, 2))


def test_transfer_combined_composes_the_two_moves():
    rng = random.Random(1007)
    for _ in range(8):
        p = rand_polynomial(rng, max_degree=4)
        form = _form_on(rng, p)
        beta = rand_vertex_weights(rng)
        rho = rand_edge_ratio(rng)
        combined = transfer_combined(form, beta, rho)
        chained = transfer_edge_v2(transfer_vertex_v1(form, beta), rho)
        assert combined == chained
        assert combined == restrict_general(form, combined.simplex)
        assert from_bernstein(combined) == p


def test_restrict_general_to_itself_is_identity():
    rng = random.Random(1008)
    p = rand_polynomial(rng, max_degree=3)
    s = rand_simplex(rng)
    form = to_bernstein(p, barycentric_system(s), max(p.degree, 1))
    assert restrict_general(form, s) == form


def test_restrict_general_dimension_check():
    rng = random.Random(1009)
    form = _form_on(rng, rand_polynomial(rng))
    with pytest.raises(ValueError):
        restrict_general(form, standard_simplex(3))


def test_split_edge_geometry():
    s = standard_simplex(2)
    lower, upper = split_edge(s, 1, 2, Fraction(1, 2))
    w = (Fraction(1, 2), Fraction(1, 2))
    assert lower.vertices == ((0, 0), (1, 0), w)
    assert upper.vertices == ((0, 0), w, (0, 1))
    # exact volume additivity
    assert abs(lower.determinant) + abs(upper.determinant) == abs(s.determinant)


def test_split_edge_validation():
    s = standard_simplex(2)
    with pytest.raises(ValueError):
        split_edge(s, 1, 1, Fraction(1, 2))
    with pytest.raises(ValueError):
        split_edge(s, 0, 3, Fraction(1, 2))
    with pytest.raises(ValueError):
        split_edge(s, 0, 1, Fraction(0))
    with pytest.raises(ValueError):
        split_edge(s, 0, 1, Fraction(1))


def test_edge_split_forms_match_general_reexpansion():
    rng = random.Random(1011)
    cases = []
    for _ in range(6):
        p = rand_polynomial(rng, max_degree=4)
        s = rand_simplex(rng)
        form = to_bernstein(p, barycentric_system(s), max(p.degree, 1))
        i = rng.randrange(3)
        j = rng.choice([k for k in range(3) if k != i])
        cases.append((form, i, j, rand_interior_ratio(rng)))
    # every edge, in both directions, of simplices of dimension 1 to 4
    for n, max_degree in ((1, 4), (2, 4), (3, 2), (4, 2)):
        p = rand_polynomial(rng, num_vars=n, max_degree=max_degree)
        form = _form_on(rng, p, n=n)
        theta = rand_interior_ratio(rng)
        cases += [
            (form, i, j, theta)
            for i in range(n + 1)
            for j in range(n + 1)
            if i != j
        ]
    for form, i, j, theta in cases:
        children = split_edge(form.simplex, i, j, theta)
        forms = edge_split_forms(form, i, j, theta)
        for child, child_form in zip(children, forms):
            assert child_form.simplex == child
            assert child_form == restrict_general(form, child)


def test_split_children_agree_on_shared_face():
    # both children contain the split point; their values there coincide
    rng = random.Random(1012)
    p = rand_polynomial(rng, max_degree=3)
    s = standard_simplex(2)
    form = to_bernstein(p, barycentric_system(s), max(p.degree, 1))
    theta = Fraction(1, 3)
    lower, upper = edge_split_forms(form, 1, 2, theta)
    w = tuple(
        (1 - theta) * a + theta * b
        for a, b in zip(s.vertices[1], s.vertices[2])
    )
    d = form.degree
    assert lower.coefficient((0, 0, d)) == p.evaluate(w)
    assert upper.coefficient((0, d, 0)) == p.evaluate(w)


def test_counterexample_persistence_spot_values():
    form = to_bernstein(
        counterexample_polynomial(), barycentric_system(standard_simplex(2)), 4
    )
    moved = transfer_combined(
        form, (Fraction(1, 4), Fraction(1, 2), Fraction(1, 4)), Fraction(1, 4)
    )
    # closed form -beta1*(1-rho)^2 = -(1/2)(3/4)^2
    assert moved.coefficient((1, 1, 2)) == Fraction(-9, 32)
