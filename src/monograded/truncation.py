"""Exact integer row spaces.

`Echelon` keeps a row space in sparse echelon form; the ranks of the
filtration module (fiber-cone ranks, the Hilbert function of G/J*G, affine
dimensions of Newton-polyhedron faces) go through it.  Its rows are integer
vectors, such as the products of a reduction's integer terms with monomials.
`TruncatedAlgebra` is the monomial basis of S/m^(N+1) in graded order, kept
for the truncated-image test oracles.

All elimination is fraction-free over the integers, so every rank is the rank
over the rationals.
"""

from __future__ import annotations

from math import gcd
from operator import add

from .monomials import MonomialIdeal, compositions


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

    def pivots_below(self, col_bound: int) -> int:
        """dim of the projection to the first `col_bound` columns."""
        return sum(1 for c in self.pivots if c < col_bound)
