"""Graded local cohomology of monomial quotients at the maximal homogeneous ideal.

For R = k[x_1..x_k]/I with I monomial, the Cech complex on the variables is
Z^k-graded.  Its degree-a component depends only on the set T of negative
coordinates of a and, for each j outside T, on which interval between
consecutive distinct exponents of x_j among the generators holds a_j; it is
zero once some a_j reaches the largest such exponent rho_j (Y. Takayama,
"Combinatorial characterizations of generalized Cohen-Macaulay monomial
ideals", 2005).  The table enumerates these breakpoint classes.  In a class,
the subsets F that carry a basis element are those containing T and no kill
mask (the coordinates j with g_j > a_j of a generator g).  Every generator
has g_j > -1, so every kill mask contains T: the alive F are T joined with
the faces of a simplicial complex D on the coordinates outside T, and the
class's cohomology is the reduced cohomology of D shifted by |T| (Hochster's
formula; Miller-Sturmfels, "Combinatorial Commutative Algebra", 2005,
ch. 13).  The enumeration therefore gives T no bits: the coordinates outside
T take bits 0, 1, 2, ... in order, and a class's complex is keyed by their
number and the minimal kill masks alone, in one bounded memo that every
table shares.  Two kinds of class are zero and need no rank: void ones,
where a kill mask is empty, so D has no faces at all, and cones, where a
coordinate lies in no minimal kill mask, so D is a cone over it and
acyclic.  Every other distinct complex is computed once, by exact integer
rank computations.
A class weighs its dimensions by prod_j (x^lo_j + ... + x^hi_j), whose
coefficients count its multidegrees by the sum of their coordinates outside
T; closed-form composition counts turn the weighted sums into the graded
lengths h^i(R)_n, the a-invariant, depth, and the binomial-weighted
invariant EG(R).
"""

from __future__ import annotations

from functools import lru_cache
from math import comb, prod

from .errors import ZeroRing
from .monomials import MonomialIdeal


def _compositions(t_size: int, clamp_sum: int, n: int) -> int:
    """Multidegrees of total degree n with t_size given negative coordinates
    whose other coordinates sum to clamp_sum."""
    s = clamp_sum - n
    if t_size == 0:
        return 1 if s == 0 else 0
    return comb(s - 1, t_size - 1) if s >= t_size else 0


def integer_rank(rows: list[list[int]]) -> int:
    """Rank over Q of an integer matrix, by division-free elimination."""
    rows = [list(r) for r in rows if any(r)]
    if not rows:
        return 0
    ncols = len(rows[0])
    rank = 0
    for col in range(ncols):
        pivot = None
        for i in range(rank, len(rows)):
            if rows[i][col]:
                pivot = i
                break
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        pr = rows[rank]
        a = pr[col]
        for i in range(rank + 1, len(rows)):
            b = rows[i][col]
            if b:
                rows[i] = [a * x - b * y for x, y in zip(rows[i], pr)]
        rank += 1
        if rank == len(rows):
            break
    return rank


@lru_cache(maxsize=4096)
def _class_dims(k: int, kill_masks) -> tuple[int, ...]:
    """Cohomology dimensions (h^0..h^k) of one degree's Cech complex on k
    coordinates with T = {}; a class with |T| more coordinates, all in T, has
    these dimensions moved up by |T|.

    A generator's kill mask holds the coordinates j with g_j > a_j; the
    generator kills a subset F exactly when its kill mask lies inside F.  F
    carries a basis element iff no generator kills it; the differentials are
    the alternating-sign inclusion maps.  A cone (a coordinate j outside
    every mask: F -> F + {j} pairs off the alive sets) gives zero without a
    rank.  `recurse` skips void families before it minimalizes; for any other
    caller, a void family (an empty mask kills every F) leaves no alive F, so
    the scan below gives zeros too.
    """
    cover = 0
    for m in kill_masks:
        cover |= m
    if cover != (1 << k) - 1:
        return (0,) * (k + 1)
    alive_by_card: list[list[int]] = [[] for _ in range(k + 1)]
    for f_mask in range(1 << k):
        if all(m & ~f_mask for m in kill_masks):
            alive_by_card[bin(f_mask).count("1")].append(f_mask)

    ranks = [0] * (k + 1)  # rank of d_i : C^i -> C^(i+1)
    for i in range(k):
        source, target = alive_by_card[i], alive_by_card[i + 1]
        if source and target:
            # F -> F + {j} carries the sign (-1)^#{coordinates of F below j}
            ranks[i] = integer_rank([
                [(-1) ** bin(f & ((g ^ f) - 1)).count("1") if f & g == f else 0 for g in target]
                for f in source
            ])
    return tuple(
        len(alive_by_card[i]) - ranks[i] - (ranks[i - 1] if i else 0) for i in range(k + 1)
    )


class CohomologyTable:
    """The nonzero local cohomology of a monomial quotient, by clamp sum and
    negative-support size, with derived invariants."""

    __slots__ = ("k", "rho", "classes", "dim", "depth")

    def __init__(self, k: int, rho: tuple[int, ...], classes):
        self.k = k
        self.rho = rho
        # classes: (clamp_sum, t_size, dims) with some dims[i] > 0, where dims[i]
        # sums h^i over the orthant classes with |T| = t_size whose coordinates
        # outside T sum to clamp_sum.  One entry per orthant class is valid too:
        # h is linear in the dims, and the other invariants only ask which dims
        # are nonzero.
        self.classes = classes
        top = 0
        bottom = k
        for _, _, dims in classes:
            for i, dim in enumerate(dims):
                if dim:
                    top = max(top, i)
                    bottom = min(bottom, i)
        self.dim = top
        self.depth = bottom

    def h(self, i: int, n: int) -> int:
        return sum(value for j, _, value in self.rows(n, n) if j == i)

    @property
    def a_invariant(self) -> int:
        d = self.dim
        return max(
            clamp_sum - t_size
            for clamp_sum, t_size, dims in self.classes
            if dims[d]
        )

    @property
    def eg_invariant(self) -> int:
        d = self.dim
        return sum(
            comb(d - 1, q) * dims[q] * _compositions(t_size, clamp_sum, 1 - q)
            for clamp_sum, t_size, dims in self.classes
            for q in range(d)
        )

    def rows(self, lo: int, hi: int) -> list[list[int]]:
        """[i, n, h^i(R)_n] for the nonzero values with lo <= n <= hi, ordered
        by i and then n: one pass over the entries for the whole window."""
        values = [[0] * (hi - lo + 1) for _ in range(self.k + 1)]
        for clamp_sum, t_size, dims in self.classes:
            for n in range(lo, min(hi, clamp_sum - t_size) + 1):
                count = _compositions(t_size, clamp_sum, n)
                if count:
                    for i, dim in enumerate(dims):
                        values[i][n - lo] += dim * count
        return [[i, lo + m, v] for i, row in enumerate(values) for m, v in enumerate(row) if v]


@lru_cache(maxsize=256)
def cohomology_table(ideal: MonomialIdeal) -> CohomologyTable:
    """Compute the breakpoint classes of R/I and aggregate those with nonzero
    cohomology by clamp sum and negative-support size."""
    if ideal.is_unit:
        raise ZeroRing("the zero ring has no local cohomology")
    k = ideal.k
    rho = ideal.max_exponents()
    gen_exps = ideal.exps

    # A polynomial in the clamp sum is packed into one integer, coefficient s
    # in bits [s*width, (s+1)*width): products and sums of the class weights
    # become single integer operations.  No coefficient exceeds the number of
    # orthant classes, prod(rho_j + 1).
    width = prod(r + 1 for r in rho).bit_length()
    # Per coordinate: (lo, packed x^lo + ... + x^hi) for each interval between
    # consecutive distinct positive exponents of x_j, the last ending at rho_j - 1.
    intervals = []
    for j in range(k):
        cuts = sorted({exps[j] for exps in gen_exps if exps[j]})
        intervals.append([
            (lo, sum(1 << (v * width) for v in range(lo, hi + 1)))
            for lo, hi in zip([0] + cuts[:-1], [c - 1 for c in cuts])
        ])

    # (|T|, dims of D) -> packed multiplicity of each clamp sum.
    weights: dict = {}

    # A coordinate sent to T adds no bit to the kill masks (every mask holds
    # it); the free-th coordinate outside T takes bit free.
    def recurse(j: int, free: int, kill_masks: tuple[int, ...], weight: int):
        if j == k:
            masks = set(kill_masks)
            if 0 in masks:
                return  # void: the complex is zero
            # The cone test in _class_dims needs the minimal masks: the generator
            # that reaches rho_j always has the bit of coordinate j set.
            dims = _class_dims(free, frozenset(
                m for m in masks if not any(o & m == o != m for o in masks)))
            if any(dims):
                key = (k - free, dims)
                weights[key] = weights.get(key, 0) + weight
            return
        recurse(j + 1, free, kill_masks, weight)
        bit = 1 << free
        for lo, run in intervals[j]:
            recurse(j + 1, free + 1, tuple(
                m | bit if exps[j] > lo else m for m, exps in zip(kill_masks, gen_exps)
            ), weight * run)

    recurse(0, 0, (0,) * len(gen_exps), 1)

    totals: dict[tuple[int, int], list[int]] = {}
    digit = (1 << width) - 1
    for (t_size, dims), packed in weights.items():
        clamp_sum = 0
        while packed:
            count = packed & digit
            if count:
                total = totals.setdefault((clamp_sum, t_size), [0] * (k + 1))
                for i, dim in enumerate(dims, t_size):
                    total[i] += count * dim
            packed >>= width
            clamp_sum += 1
    classes = [(s, t, tuple(dims)) for (s, t), dims in sorted(totals.items())]
    return CohomologyTable(k, rho, classes)
