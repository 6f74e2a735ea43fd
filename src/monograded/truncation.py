"""Exact polynomial rows and their row spaces over the integers.

`PolyElement` holds a polynomial with (possibly non-monomial) support, such as
a seeded generic combination of monomial generators.  `Echelon` keeps a row
space in sparse echelon form; the ranks of the filtration module (fiber-cone
ranks, the Hilbert function of G/J*G, affine dimensions of Newton-polyhedron
faces) go through it.  `TruncatedAlgebra` is the monomial basis of S/m^(N+1) in
graded order, kept for the truncated-image test oracles.

All elimination is fraction-free over the integers; clearing denominators of
rational inputs does not change spans over the rationals.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd
from operator import add

from .monomials import MonomialIdeal, compositions


class PolyElement:
    """A polynomial as a finitely supported map from exponent vectors to
    rational coefficients; zero coefficients are normalized away."""

    __slots__ = ("k", "terms")

    def __init__(self, k: int, terms=None):
        self.k = k
        clean = {}
        for exps, coeff in (terms or {}).items():
            if coeff:
                clean[tuple(exps)] = coeff
        self.terms = clean

    @classmethod
    def from_monomial(cls, exps: tuple[int, ...], coeff=1) -> "PolyElement":
        return cls(len(exps), {exps: coeff})

    @classmethod
    def combination(cls, monomials, coeffs) -> "PolyElement":
        """sum c*m over exponent tuples m and coefficients c."""
        terms: dict = {}
        for m, c in zip(monomials, coeffs):
            terms[m] = terms.get(m, 0) + c
        return cls(len(monomials[0]), terms)

    @property
    def is_zero(self) -> bool:
        return not self.terms

    @property
    def min_degree(self) -> int:
        return min(sum(e) for e in self.terms) if self.terms else 0

    def integer_terms(self) -> list[tuple[tuple[int, ...], int]]:
        """The terms scaled by the lcm of the coefficient denominators."""
        denom = 1
        for c in self.terms.values():
            if isinstance(c, Fraction):
                denom = denom * c.denominator // gcd(denom, c.denominator)
        return [(exps, int(c * denom)) for exps, c in self.terms.items()]

    def __mul__(self, other: "PolyElement") -> "PolyElement":
        terms: dict = {}
        for t1, c1 in self.terms.items():
            for t2, c2 in other.terms.items():
                key = tuple(a + b for a, b in zip(t1, t2))
                terms[key] = terms.get(key, 0) + c1 * c2
        return PolyElement(self.k, terms)

    def __add__(self, other: "PolyElement") -> "PolyElement":
        terms = dict(self.terms)
        for t, c in other.terms.items():
            terms[t] = terms.get(t, 0) + c
        return PolyElement(self.k, terms)

    def __repr__(self):
        return f"PolyElement({self.terms})"


class TruncatedAlgebra:
    """S/m^(N+1) with its monomial basis in graded-lex order, so that degree
    truncation is a prefix of the column indexing."""

    __slots__ = ("k", "N", "monomials", "index", "degree_starts")

    def __init__(self, k: int, N: int):
        self.k = k
        self.N = N
        self.monomials: list[tuple[int, ...]] = []
        self.degree_starts = [0]
        for d in range(N + 1):
            block = sorted(compositions(d, k))
            self.monomials.extend(block)
            self.degree_starts.append(len(self.monomials))
        self.index = {m: i for i, m in enumerate(self.monomials)}

    @property
    def dimension(self) -> int:
        return len(self.monomials)

    def columns_below_degree(self, t: int) -> int:
        """Number of basis monomials of degree < t."""
        t = max(0, min(t, self.N + 1))
        return self.degree_starts[t]

    def ideal_columns(self, ideal: MonomialIdeal | None, top: int):
        """Ascending columns of the monomials of degree <= top in the monomial
        ideal (None: the unit ideal), marked as multiples of its generators."""
        if ideal is None:
            return range(self.columns_below_degree(top + 1))
        index, monomials = self.index, self.monomials
        cols = set()
        for g in ideal.exps:
            for u in monomials[: self.columns_below_degree(top + 1 - sum(g))]:
                cols.add(index[tuple(map(add, g, u))])
        return sorted(cols)

    def degree_in_span(self, ech: "Echelon", t: int) -> bool:
        """Whether every monomial of degree t is a pivot column of `ech`."""
        lo, hi = self.degree_starts[t], self.degree_starts[t + 1]
        return ech.pivots_below(hi) - ech.pivots_below(lo) == hi - lo


def _normalize(row: dict[int, int]) -> dict[int, int]:
    g = 0
    for v in row.values():
        g = gcd(g, v)
    if g > 1:
        row = {c: v // g for c, v in row.items()}
    if row[min(row)] < 0:
        row = {c: -v for c, v in row.items()}
    return row


class Echelon:
    """A row space kept in sparse integer echelon form (pivot = least column)."""

    __slots__ = ("pivots",)

    def __init__(self):
        self.pivots: dict[int, dict[int, int]] = {}

    @property
    def dim(self) -> int:
        return len(self.pivots)

    def reduce(self, row: dict[int, int]) -> dict[int, int]:
        """row reduced by the pivot rows, up to a scalar (multipliers over their gcd)."""
        row = {c: v for c, v in row.items() if v}
        while row:
            c = min(row)
            pivot_row = self.pivots.get(c)
            if pivot_row is None:
                return row
            a, b = pivot_row[c], row[c]
            g = gcd(a, b)
            a, b = a // g, b // g
            if a != 1:
                row = {col: a * v for col, v in row.items()}
            for col, v in pivot_row.items():
                v = row.get(col, 0) - b * v
                if v:
                    row[col] = v
                else:
                    del row[col]
        return row

    def add(self, row: dict[int, int]) -> bool:
        row = self.reduce(row)
        if not row:
            return False
        row = _normalize(row)
        self.pivots[min(row)] = row
        return True

    def contains(self, row: dict[int, int]) -> bool:
        return not self.reduce(row)

    def contains_all(self, other: "Echelon") -> bool:
        return all(self.contains(row) for row in other.pivots.values())

    def pivots_below(self, col_bound: int) -> int:
        """dim of the projection to the first `col_bound` columns."""
        return sum(1 for c in self.pivots if c < col_bound)
