"""Simplices over Q^n and their barycentric coordinate systems.

A ``Simplex`` is n+1 affinely independent vertices in Q^n; construction
rejects degenerate vertex sets.  ``barycentric_system`` pairs a simplex
with its n+1 affine polynomials lambda_0 .. lambda_n, lambda_i(v_j) =
delta_ij and sum(lambda_i) = 1, which are solved on first read: forms
derived by closed-form transfers never need them.  A point lies in the
(closed) simplex iff all its barycentric coordinates are >= 0.

The edge-move geometry lives here: ``Simplex._moved(j, i, rho)`` moves
v_j to w = rho*v_i + (1-rho)*v_j and gives the child its parent's
determinant times 1-rho, w's weight on v_j, so the children of an edge
move or split (``subdivision``) run no new elimination; every other
simplex, including every one read from JSON, is checked in full.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Sequence

from .linalg import determinant, invert
from .polynomials import Polynomial, as_int, as_rational

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


class Simplex:
    """n+1 affinely independent vertices in Q^n, in a fixed slot order."""

    __slots__ = ("vertices", "determinant")

    def __init__(self, vertices: Iterable[Sequence]):
        vs = tuple(tuple(as_rational(c) for c in v) for v in vertices)
        if len(vs) < 2:
            raise ValueError("a simplex needs at least 2 vertices")
        n = len(vs) - 1
        for v in vs:
            if len(v) != n:
                raise ValueError(
                    f"{len(vs)} vertices require dimension {n}, got a vertex of length {len(v)}"
                )
        det = determinant(
            [[vs[i + 1][k] - vs[0][k] for k in range(n)] for i in range(n)]
        )
        if det == 0:
            raise DegenerateSimplexError(det)
        object.__setattr__(self, "vertices", vs)
        object.__setattr__(self, "determinant", det)

    def __setattr__(self, name, value):
        raise AttributeError("Simplex is immutable")

    @property
    def dimension(self) -> int:
        return len(self.vertices) - 1

    def replace_vertex(self, slot: int, point: Sequence) -> "Simplex":
        if as_int(slot, "vertex slot") > self.dimension:
            raise ValueError(f"vertex slot {slot} out of range")
        vs = list(self.vertices)
        vs[slot] = tuple(as_rational(c) for c in point)
        return Simplex(vs)

    def _moved(self, j: int, i: int, rho: Fraction) -> "Simplex":
        """The simplex with v_j moved to w = rho*v_i + (1-rho)*v_j, built unchecked.

        ``rho`` must be a Fraction with 0 <= rho < 1 and i != j; w's weight
        on v_j is then 1-rho > 0, so the determinant is the parent's times
        1-rho and the child is nondegenerate.
        """
        stay = 1 - rho
        vs = list(self.vertices)
        vs[j] = tuple(rho * a + stay * b for a, b in zip(vs[i], vs[j]))
        child = object.__new__(Simplex)
        object.__setattr__(child, "vertices", tuple(vs))
        object.__setattr__(child, "determinant", self.determinant * stay)
        return child

    def __eq__(self, other):
        if not isinstance(other, Simplex):
            return NotImplemented
        return self.vertices == other.vertices

    def __hash__(self):
        return hash(self.vertices)

    def __str__(self):
        pts = (f"({', '.join(map(str, v))})" for v in self.vertices)
        return f"[{', '.join(pts)}]"

    def __repr__(self):
        return f"Simplex{self}"


def standard_simplex(n: int) -> Simplex:
    """Vertices 0, e_1, .., e_n."""
    as_int(n, "dimension", minimum=1)
    zero = (Fraction(0),) * n
    verts = [zero]
    for k in range(n):
        verts.append(tuple(Fraction(1) if i == k else Fraction(0) for i in range(n)))
    return Simplex(verts)


class BarycentricSystem:
    """The simplex together with its coordinate polynomials lambda_0 .. lambda_n.

    ``coords`` is solved from the vertices on first read and kept.
    """

    __slots__ = ("simplex", "_coords")

    def __init__(self, simplex: Simplex):
        object.__setattr__(self, "simplex", simplex)
        object.__setattr__(self, "_coords", None)

    def __setattr__(self, name, value):
        raise AttributeError("BarycentricSystem is immutable")

    @property
    def coords(self) -> tuple[Polynomial, ...]:
        """lambda_i(x) = a_0 + sum a_k x_k with lambda_i(v_j) = delta_ij.

        The coefficient vectors are the columns of the inverse of the
        affine vertex matrix M (row j is (1, v_j)), which is invertible
        because the simplex is nondegenerate.
        """
        if self._coords is None:
            n = self.simplex.dimension
            inv = invert([[Fraction(1), *v] for v in self.simplex.vertices])
            coords = []
            for i in range(n + 1):
                terms = {(0,) * n: inv[0][i]}
                for k in range(n):
                    exps = tuple(1 if t == k else 0 for t in range(n))
                    terms[exps] = inv[k + 1][i]
                coords.append(Polynomial(n, terms))
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
