import random
from fractions import Fraction

import pytest

from berncert import (
    DegenerateSimplexError,
    Polynomial,
    Simplex,
    barycentric_system,
    contains_point,
    standard_simplex,
)
from helpers import rand_point_in, rand_simplex


def test_standard_simplex():
    s = standard_simplex(2)
    assert s.vertices == ((Fraction(0), Fraction(0)), (Fraction(1), Fraction(0)), (Fraction(0), Fraction(1)))
    assert s.dimension == 2
    assert s.determinant == 1
    assert standard_simplex(3).dimension == 3


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


def test_contains_point():
    s = standard_simplex(2)
    assert contains_point(s, (Fraction(1, 4), Fraction(1, 4)))
    assert contains_point(s, (0, 0))  # boundary counts
    assert contains_point(s, (Fraction(1, 2), Fraction(1, 2)))
    assert not contains_point(s, (Fraction(3, 4), Fraction(3, 4)))
    assert not contains_point(s, (Fraction(-1, 10), Fraction(1, 2)))


def test_simplex_equality_and_hash():
    a = standard_simplex(2)
    b = Simplex(((0, 0), (1, 0), (0, 1)))
    assert a == b
    assert hash(a) == hash(b)
    assert a != a.replace_vertex(0, (Fraction(1, 3), Fraction(1, 3)))
