import random
from fractions import Fraction

import pytest

from berncert import (
    DegenerateSimplexError,
    Polynomial,
    Simplex,
    barycentric_system,
    determinant,
    standard_simplex,
)
from berncert.serialize import simplex_from_json, simplex_to_json
from helpers import rand_edge_ratio, rand_point_in, rand_simplex


def test_standard_simplex():
    s = standard_simplex(2)
    assert s.vertices == ((Fraction(0), Fraction(0)), (Fraction(1), Fraction(0)), (Fraction(0), Fraction(1)))
    assert s.dimension == 2
    assert s.determinant == 1
    assert standard_simplex(3).dimension == 3
    for n in (True, Fraction(2)):  # a bool would build a 1-simplex
        with pytest.raises(ValueError):
            standard_simplex(n)


def test_degenerate_simplex_raises():
    with pytest.raises(DegenerateSimplexError) as info:
        Simplex(((0, 0), (1, 0), (2, 0)))
    assert info.value.determinant == 0
    with pytest.raises(DegenerateSimplexError):
        Simplex(((0, 0), (0, 0), (0, 1)))


def test_vertex_shape_validation():
    with pytest.raises(ValueError):
        Simplex(((0, 0), (1, 0), (0,)))
    with pytest.raises(ValueError):
        Simplex(((0,),))
    with pytest.raises(TypeError):
        Simplex(((0.0, 0), (1, 0), (0, 1)))


def test_replace_vertex():
    s = standard_simplex(2)
    moved = s.replace_vertex(2, (Fraction(1, 2), Fraction(1, 2)))
    assert moved.vertices[2] == (Fraction(1, 2), Fraction(1, 2))
    assert moved.vertices[:2] == s.vertices[:2]
    assert s.vertices[2] == (0, 1)  # original untouched
    for slot in (True, 1.0):  # a bool would replace slot 1
        with pytest.raises(ValueError):
            s.replace_vertex(slot, (Fraction(1, 2), Fraction(1, 2)))
    with pytest.raises(ValueError, match="^vertex slot 3 out of range$"):
        s.replace_vertex(3, (Fraction(1, 2), Fraction(1, 2)))


def test_edge_move_point_and_determinant():
    rng = random.Random(2301)
    for n in (1, 2, 3):
        for _ in range(5):
            s = rand_simplex(rng, n)
            i, j = rng.sample(range(n + 1), 2)
            rho = rand_edge_ratio(rng)
            moved = s._moved(j, i, rho)
            vi, vj = s.vertices[i], s.vertices[j]
            w = tuple(rho * a + (1 - rho) * b for a, b in zip(vi, vj))
            assert moved.vertices == s.replace_vertex(j, w).vertices
            # the unchecked child passes the full check of its vertices
            assert moved.determinant == Simplex(moved.vertices).determinant


def test_text_form():
    s = Simplex(((0, 0), (1, 0), (Fraction(-1, 2), 3)))
    assert str(s) == "[(0, 0), (1, 0), (-1/2, 3)]"
    assert repr(s) == "Simplex[(0, 0), (1, 0), (-1/2, 3)]"


def test_barycentric_coordinates_at_vertices():
    rng = random.Random(5)
    for _ in range(6):
        s = rand_simplex(rng, n=rng.randint(1, 3))
        system = barycentric_system(s)
        for i, v in enumerate(s.vertices):
            coords = system.at(v)
            assert coords[i] == 1
            assert all(c == 0 for k, c in enumerate(coords) if k != i)


def test_barycentric_polynomials_sum_to_one():
    rng = random.Random(6)
    for _ in range(5):
        s = rand_simplex(rng)
        system = barycentric_system(s)
        total = Polynomial.zero(s.dimension)
        for coord in system.coords:
            total = total + coord
        assert total == Polynomial.constant(s.dimension, 1)


def test_barycentric_coordinates_are_solved_once():
    system = barycentric_system(rand_simplex(random.Random(8)))
    assert system.coords is system.coords


def test_barycentric_coordinates_reconstruct_point():
    rng = random.Random(7)
    s = rand_simplex(rng)
    system = barycentric_system(s)
    for _ in range(10):
        point = rand_point_in(rng, s)
        coords = system.at(point)
        assert sum(coords) == 1
        rebuilt = tuple(
            sum(c * v[k] for c, v in zip(coords, s.vertices))
            for k in range(s.dimension)
        )
        assert rebuilt == point


def test_simplex_equality_and_hash():
    a = standard_simplex(2)
    b = Simplex(((0, 0), (1, 0), (0, 1)))
    assert a == b
    assert hash(a) == hash(b)
    assert a != a.replace_vertex(0, (Fraction(1, 3), Fraction(1, 3)))
    system = barycentric_system(a)
    assert (a == "x") is False and (system == a) is False


def test_moved_child_equals_and_hashes_as_its_json_reading():
    # the child's den grows by q per move; JSON writes reduced coordinates
    child = Simplex(((0, 0), (2, 0), (0, 2)))._moved(1, 0, Fraction(1, 2))
    read = simplex_from_json(simplex_to_json(child))
    assert (child.den, read.den) == (2, 1)
    assert child == read and len({child, read}) == 1

    rng = random.Random(2311)
    for n in (1, 2, 3):
        for _ in range(6):
            s = rand_simplex(rng, n)
            for _ in range(3):
                i, j = rng.sample(range(n + 1), 2)
                rho = rand_edge_ratio(rng)
                w = tuple(rho * a + (1 - rho) * b for a, b in zip(s.vertices[i], s.vertices[j]))
                moved = s._moved(j, i, rho)
                read = simplex_from_json(simplex_to_json(moved))
                assert moved == read and hash(moved) == hash(read)
                assert len({moved, read}) == 1
                # what it prints and its determinant are those of the Fraction vertices
                oracle = s.replace_vertex(j, w)
                assert str(moved) == str(read) == str(oracle)
                assert repr(moved) == repr(oracle)
                edges = [[a - b for a, b in zip(v, oracle.vertices[0])] for v in oracle.vertices[1:]]
                assert type(moved.determinant) is Fraction
                assert moved.determinant == read.determinant == determinant(edges)
                s = moved


def test_simplex_and_barycentric_system_are_immutable():
    simplex = standard_simplex(2)
    system = barycentric_system(simplex)
    for obj, name in ((simplex, "den"), (simplex, "nums"), (system, "simplex")):
        with pytest.raises(AttributeError, match=f"^{type(obj).__name__} is immutable$"):
            setattr(obj, name, None)
        with pytest.raises(AttributeError, match=f"^{type(obj).__name__} is immutable$"):
            delattr(obj, name)
    assert simplex.den == 1 and system.simplex is simplex
