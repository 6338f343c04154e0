import random
from fractions import Fraction

import pytest

from berncert import (
    COUNTEREXAMPLE_TEXT,
    GRAM_MATRIX,
    GramDecomposition,
    Simplex,
    barycentric_system,
    cert_status,
    counterexample_gram,
    counterexample_polynomial,
    degree_elevate,
    family_simplex,
    format_polynomial,
    is_positive_definite,
    parse_polynomial,
    persistence_value,
    render_report,
    reproduce_report,
    restrict_general,
    standard_simplex,
    to_bernstein,
    transfer_combined,
    verify_gram,
    vertex_weights_for,
)
from berncert import simplices
from berncert.counterexample import gram_monomials, gram_polynomial
from helpers import rand_edge_ratio, rand_point_in, rand_simplex, rand_vertex_weights

STD2 = standard_simplex(2)


def _form4():
    return to_bernstein(counterexample_polynomial(), barycentric_system(STD2), 4)


def test_counterexample_polynomial_terms():
    p = counterexample_polynomial()
    assert p.num_vars == 2
    assert p.degree == 4
    assert p.coefficient((4, 0)) == 21
    assert p.coefficient((0, 4)) == 30
    assert p.coefficient((3, 1)) == 24
    assert p.coefficient((3, 0)) == -36
    assert len(p.terms) == 9
    assert p.evaluate((Fraction(0), Fraction(0))) == 0


def test_counterexample_positive_away_from_origin():
    rng = random.Random(424242)
    p = counterexample_polynomial()
    for _ in range(40):
        point = rand_point_in(rng, STD2)
        value = p.evaluate(point)
        if point == (0, 0):
            assert value == 0
        else:
            assert value > 0


def test_counterexample_bernstein_coefficients():
    form = _form4()
    assert form.coeffs == {
        (2, 2, 0): Fraction(3),
        (1, 2, 1): Fraction(1),
        (1, 1, 2): Fraction(-1),
        (0, 4, 0): Fraction(3),
        (0, 0, 4): Fraction(30),
    }
    assert cert_status(form).negative_indices == ((1, 1, 2),)


def test_gram_identity_and_positive_definiteness():
    g = counterexample_gram()
    assert verify_gram(counterexample_polynomial(), g)
    assert (gram_polynomial(g) - counterexample_polynomial()).is_zero
    assert is_positive_definite(g.matrix)


def test_gram_perturbation_breaks_identity():
    perturbed = [list(row) for row in GRAM_MATRIX]
    perturbed[0][0] += 1
    g = GramDecomposition(gram_monomials(), tuple(tuple(r) for r in perturbed))
    assert not verify_gram(counterexample_polynomial(), g)


def test_gram_decomposition_validation():
    with pytest.raises(ValueError):
        GramDecomposition(gram_monomials(), ((1, 2), (3, 4)))  # wrong shape
    with pytest.raises(ValueError):
        GramDecomposition(
            gram_monomials()[:2], ((1, 2), (3, 4))
        )  # not symmetric


def test_gram_decomposition_rejects_an_empty_monomial_vector():
    with pytest.raises(ValueError, match="empty monomial vector"):
        GramDecomposition((), ())


def test_is_positive_definite_cases():
    assert is_positive_definite([[1, 0], [0, 1]])
    assert not is_positive_definite([[1, 0], [0, -1]])
    assert not is_positive_definite([[0, 0], [0, 1]])  # semidefinite


def test_persistence_value_spot_checks():
    assert persistence_value(1, 0) == -1
    assert persistence_value(Fraction(1, 2), Fraction(1, 2)) == Fraction(-1, 8)
    for beta1 in (0, Fraction(3, 2)):  # admissible weights need 0 < beta1 <= 1
        with pytest.raises(ValueError):
            persistence_value(beta1, 0)
    with pytest.raises(ValueError):
        persistence_value(Fraction(1, 2), 1)
    with pytest.raises(TypeError):
        persistence_value(0.5, 0)


def test_vertex_weights_for():
    assert vertex_weights_for(1) == (0, 1, 0)
    assert vertex_weights_for(Fraction(1, 2)) == (
        Fraction(1, 4),
        Fraction(1, 2),
        Fraction(1, 4),
    )
    with pytest.raises(ValueError):
        vertex_weights_for(Fraction(3, 2))


def test_family_simplex_geometry():
    s = family_simplex((0, 1, 0), 0)
    assert s == STD2
    t = family_simplex(
        (Fraction(1, 4), Fraction(1, 2), Fraction(1, 4)), Fraction(1, 2)
    )
    assert t.vertices == (
        (0, 0),
        (Fraction(1, 2), Fraction(1, 4)),
        (0, Fraction(1, 2)),
    )
    with pytest.raises(ValueError):
        family_simplex((1, 0, 0), 0)  # beta1 must be positive
    with pytest.raises(ValueError):
        family_simplex((0, 1, 0), 1)  # rho = 1 degenerates the simplex

    # the transfer's triangle comes from unchecked edge moves: it must be the
    # checked one, with the determinant beta1 * (1 - rho) * det(S)
    rng = random.Random(2701)
    x1 = parse_polynomial("x1", num_vars=2)
    for _ in range(40):
        s = rand_simplex(rng)
        beta, rho = rand_vertex_weights(rng), rand_edge_ratio(rng)
        moved = transfer_combined(to_bernstein(x1, barycentric_system(s), 1), beta, rho).simplex
        v0, v1, v2 = s.vertices
        w1 = tuple(beta[0] * a + beta[1] * b + beta[2] * c for a, b, c in zip(v0, v1, v2))
        w2 = tuple(rho * a + (1 - rho) * c for a, c in zip(v0, v2))
        assert moved == Simplex((v0, w1, w2))
        assert moved.determinant == beta[1] * (1 - rho) * s.determinant
        assert family_simplex(beta, rho) == Simplex(((0, 0), beta[1:], (0, 1 - rho)))


def test_report_eliminates_only_the_checked_simplices(monkeypatch):
    # the two standard triangles and the warm-up's six pieces; the 16 family
    # triangles come from edge moves and are not eliminated
    calls = []
    real = simplices.determinant
    monkeypatch.setattr(simplices, "determinant", lambda matrix: calls.append(1) or real(matrix))
    reproduce_report()
    assert len(calls) <= 8


def test_persistence_grid_three_ways():
    form = _form4()
    for beta1 in (Fraction(1, 4), Fraction(1, 2), Fraction(3, 4), Fraction(1)):
        weights = vertex_weights_for(beta1)
        for rho in (Fraction(0), Fraction(1, 4), Fraction(1, 2), Fraction(3, 4)):
            closed = persistence_value(beta1, rho)
            assert closed < 0
            moved = transfer_combined(form, weights, rho)
            assert moved.coefficient((1, 1, 2)) == closed
            again = restrict_general(form, family_simplex(weights, rho))
            assert again.coefficient((1, 1, 2)) == closed


def test_persistence_under_uneven_weight_splits():
    # the (1,1,2) coefficient depends only on beta1, not on the b0/b2 split
    form = _form4()
    for weights in ((Fraction(0), Fraction(1, 2), Fraction(1, 2)),
                    (Fraction(1, 2), Fraction(1, 2), Fraction(0)),
                    (Fraction(1, 8), Fraction(1, 2), Fraction(3, 8))):
        moved = transfer_combined(form, weights, Fraction(1, 4))
        assert moved.coefficient((1, 1, 2)) == persistence_value(
            Fraction(1, 2), Fraction(1, 4)
        )


def test_elevated_coefficient_stays_negative():
    # at degree d the (d-3, 1, 2) coefficient is -24/(d(d-1)(d-2))
    form = _form4()
    for steps in (1, 2, 3, 4):
        d = 4 + steps
        lifted = degree_elevate(form, steps)
        index = (d - 3, 1, 2)
        assert lifted.coefficient(index) == Fraction(-24, d * (d - 1) * (d - 2))
    assert Fraction(-24, 4 * 3 * 2) == -1  # the original value fits the formula


def test_reproduce_report_structure_and_verdicts():
    report = reproduce_report()
    assert sorted(report) == [
        "all_match",
        "counterexample",
        "example1",
        "gram",
        "persistence",
    ]
    assert report["all_match"] is False

    for section in ("counterexample", "gram", "persistence"):
        assert all(row["match"] for row in report[section]["rows"])

    mismatches = [
        row for row in report["example1"]["rows"] if not row["match"]
    ]
    # exactly the six b(0,0,2) rows carry the incorrect reference formula
    assert len(mismatches) == 6
    assert all(row["item"].endswith("b(0,0,2)") for row in mismatches)
    by_reference = {(row["reference"], row["computed"]) for row in mismatches}
    assert by_reference == {("35/128", "7/16"), ("9/32", "1/4")}


def test_reproduce_report_persistence_has_16_grid_rows():
    report = reproduce_report()
    grid_rows = [
        row for row in report["persistence"]["rows"] if row["item"].startswith("beta1")
    ]
    assert len(grid_rows) == 16
    assert all(row["computed"].startswith("-") for row in grid_rows)


def test_render_report_is_a_table():
    report = reproduce_report()
    text = render_report(report)
    assert "== example1 ==" in text
    assert "MATCH" in text
    assert "MISMATCH" in text
    assert "6 row(s) MISMATCH" in text
    assert text.count("MISMATCH") == 7  # six rows plus the summary line


def test_counterexample_text_round_trip():
    p = counterexample_polynomial()
    assert parse_polynomial(format_polynomial(p), 2) == p
    assert parse_polynomial(COUNTEREXAMPLE_TEXT, 2) == p
