"""Simplices over Q^n and their barycentric coordinate systems.

A ``Simplex`` is n+1 affinely independent vertices in Q^n; construction
rejects degenerate vertex sets.  ``barycentric_system`` pairs a simplex
with its n+1 affine polynomials lambda_0 .. lambda_n, lambda_i(v_j) =
delta_ij and sum(lambda_i) = 1, which are solved on first read: forms
derived by closed-form transfers never need them.  A point lies in the
(closed) simplex iff all its barycentric coordinates are >= 0.

A simplex's only stored form is integer, as a polynomial's is: ``den``
and ``nums``, the vertices' int numerators over it, not reduced; the
``Fraction`` ``vertices`` are built from them on each read.  Equality
cross-multiplies, and equal simplices hash equal whatever their ``den``.

The edge-move geometry lives here: ``Simplex._moved(j, i, rho)`` moves
v_j to w = rho*v_i + (1-rho)*v_j on ints.  A move whose moved vertex
keeps a positive weight on v_j (here 1-rho) needs no check, so the
children of an edge move or split (``subdivision``) run no elimination
and build no ``Fraction``; every other simplex, including every one
read from JSON, is checked in full by the one checked constructor,
``Simplex._from_ints``.  ``determinant`` is eliminated from the vertices
on each read.  ``BarycentricSystem`` inverts the integer vertex matrix.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import Iterable, Sequence

from .linalg import determinant, invert
from .polynomials import (
    Polynomial, _check_unknowns, _Immutable, as_int, as_rational, over_common_denominator
)

__all__ = [
    "DegenerateSimplexError",
    "Simplex",
    "BarycentricSystem",
    "standard_simplex",
    "barycentric_system",
]


class DegenerateSimplexError(ValueError):
    """Vertices are affinely dependent; carries the offending determinant."""

    def __init__(self, det: Fraction):
        super().__init__(f"degenerate simplex: edge-matrix determinant = {det}")
        self.determinant = det


class Simplex(_Immutable):
    """n+1 affinely independent vertices in Q^n, in a fixed slot order.

    ``den`` and ``nums`` hold the vertices as int numerators over one
    positive denominator; ``vertices`` are built from them on each read.
    """

    __slots__ = ("den", "nums")

    def __new__(cls, vertices: Iterable[Sequence]) -> "Simplex":
        vs = tuple(tuple(as_rational(c) for c in v) for v in vertices)
        den = lcm(*(c.denominator for v in vs for c in v))
        nums = tuple(tuple(c.numerator * (den // c.denominator) for c in v) for v in vs)
        return cls._from_ints(den, nums)

    @classmethod
    def _from_ints(cls, den: int, nums: tuple) -> "Simplex":
        """The simplex with vertices ``nums`` / ``den``: the one checked constructor."""
        if len(nums) < 2:
            raise ValueError("a simplex needs at least 2 vertices")
        n = len(nums) - 1
        _check_unknowns(n, f"a simplex of dimension {n}")
        for v in nums:
            if len(v) != n:
                raise ValueError(
                    f"{len(nums)} vertices require dimension {n}, got a vertex of length {len(v)}"
                )
        det = determinant([[a - b for a, b in zip(v, nums[0])] for v in nums[1:]])
        if det == 0:
            raise DegenerateSimplexError(det)
        return cls._canonical(den, nums)

    @classmethod
    def _canonical(cls, den: int, nums: tuple) -> "Simplex":
        """Wrap ``nums`` / ``den`` unchecked: the vertices must be nondegenerate."""
        self = object.__new__(cls)
        object.__setattr__(self, "den", den)
        object.__setattr__(self, "nums", nums)
        return self

    @property
    def dimension(self) -> int:
        return len(self.nums) - 1

    @property
    def vertices(self) -> tuple[tuple[Fraction, ...], ...]:
        """The vertices as Fraction tuples, built from ``nums`` on each read."""
        den = self.den
        return tuple(tuple(Fraction(x, den) for x in v) for v in self.nums)

    @property
    def determinant(self) -> Fraction:
        """det of the edge matrix (row i is v_{i+1} - v_0), eliminated on each read."""
        nums = self.nums
        edges = [[a - b for a, b in zip(v, nums[0])] for v in nums[1:]]
        return determinant(edges) / self.den**self.dimension

    def replace_vertex(self, slot: int, point: Sequence) -> "Simplex":
        if as_int(slot, "vertex slot") > self.dimension:
            raise ValueError(f"vertex slot {slot} out of range")
        vs = list(self.vertices)
        vs[slot] = tuple(as_rational(c) for c in point)
        return Simplex(vs)

    def _moved(self, j: int, i: int, rho: Fraction) -> "Simplex":
        """The simplex with v_j moved to w = rho*v_i + (1-rho)*v_j, built unchecked.

        ``rho`` must be a Fraction with 0 <= rho < 1 and i != j; the moved
        vertex w then keeps the positive weight 1-rho on v_j, so the child is
        nondegenerate and needs no check.  With rho = p/q, the child's
        denominator is den*q, w is p*v_i + (q-p)*v_j, and the rest scale by q.
        """
        p, q = rho.numerator, rho.denominator
        nums = [tuple(q * x for x in v) for v in self.nums]
        nums[j] = tuple(p * a + (q - p) * b for a, b in zip(self.nums[i], self.nums[j]))
        return Simplex._canonical(self.den * q, tuple(nums))

    def __eq__(self, other):
        if not isinstance(other, Simplex):
            return NotImplemented
        da, db = self.den, other.den
        return len(self.nums) == len(other.nums) and all(
            x * db == y * da for u, v in zip(self.nums, other.nums) for x, y in zip(u, v)
        )

    def __hash__(self):
        g = gcd(self.den, *(x for v in self.nums for x in v))  # the reduced form's hash
        return hash((self.den // g, tuple(tuple(x // g for x in v) for v in self.nums)))

    def __str__(self):
        pts = (f"({', '.join(map(str, v))})" for v in self.vertices)
        return f"[{', '.join(pts)}]"

    def __repr__(self):
        return f"Simplex{self}"


def standard_simplex(n: int) -> Simplex:
    """Vertices 0, e_1, .., e_n."""
    _check_unknowns(as_int(n, "dimension", minimum=1), f"the standard simplex of dimension {n}")
    units = (tuple(int(i == k) for i in range(n)) for k in range(n))
    return Simplex._from_ints(1, ((0,) * n, *units))


class BarycentricSystem(_Immutable):
    """The simplex together with its coordinate polynomials lambda_0 .. lambda_n.

    ``coords`` is solved from the vertices on first read and kept.
    """

    __slots__ = ("simplex", "_coords")

    def __init__(self, simplex: Simplex):
        object.__setattr__(self, "simplex", simplex)
        object.__setattr__(self, "_coords", None)

    @property
    def coords(self) -> tuple[Polynomial, ...]:
        """lambda_i(x) = a_0 + sum a_k x_k with lambda_i(v_j) = delta_ij.

        The coefficient vectors are the columns of the inverse of the
        affine vertex matrix M (row j is (1, v_j)), which is invertible
        because the simplex is nondegenerate.
        """
        if self._coords is None:
            simplex = self.simplex
            n = simplex.dimension
            _check_unknowns(n + 1, f"the coordinate inverse of a simplex of dimension {n}")
            # den * M has integer rows (den, nums_j); its inverse is M's over den
            inv = invert([[simplex.den, *v] for v in simplex.nums])
            units = [(0,) * n] + [tuple(int(t == k) for t in range(n)) for k in range(n)]
            coords = []
            for i in range(n + 1):
                col_den, col = over_common_denominator(row[i] for row in inv)
                nums = {e: c * simplex.den for e, c in zip(units, col) if c}
                coords.append(Polynomial._canonical(n, col_den, nums))
            object.__setattr__(self, "_coords", tuple(coords))
        return self._coords

    def at(self, point: Sequence) -> tuple[Fraction, ...]:
        """Barycentric coordinates of a point (exact)."""
        return tuple(c.evaluate(point) for c in self.coords)

    def __eq__(self, other):
        if not isinstance(other, BarycentricSystem):
            return NotImplemented
        return self.simplex == other.simplex

    def __repr__(self):
        return f"BarycentricSystem({self.simplex!r})"


def barycentric_system(simplex: Simplex) -> BarycentricSystem:
    """The coordinate system of a simplex; nothing is solved until ``coords`` is read."""
    return BarycentricSystem(simplex)
