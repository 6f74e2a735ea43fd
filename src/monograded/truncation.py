"""Exact integer row spaces.

`Echelon` keeps a row space in sparse echelon form.  It is the package's one
rank engine: the ranks of the filtration module (fiber-cone ranks, the Hilbert
function of G/J*G, affine dimensions of Newton-polyhedron faces) and of the
cohomology class complexes go through it.  Its rows are integer vectors, such
as the products of a reduction's integer terms with monomials, or the signed
coface maps of a complex.
`TruncatedAlgebra` only builds the monomial basis of S/m^(N+1) in graded
order; the truncated-image test oracles read its fields.

All elimination is fraction-free over the integers, so every rank is the rank
over the rationals.
"""

from __future__ import annotations

from math import gcd

from .monomials import compositions


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


def _normalize(row: dict[int, int]) -> dict[int, int]:
    g = gcd(*row.values())
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
