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
class's cohomology is the reduced cohomology of D shifted by |T|.  By
Hochster's formula (Miller-Sturmfels, "Combinatorial Commutative Algebra",
2005, ch. 1 and 13) that is a Betti number of the squarefree ideal of the
kill masks, which the strand of its Taylor complex in the multidegree of
all the coordinates outside T gives (D. Taylor, thesis, Chicago, 1966;
Miller-Sturmfels ch. 4): 2^r cells for r masks, against the Cech complex's
2^k, so past k masks the Cech complex is ranked instead.  The enumeration
gives T no bits: the coordinates outside T take bits 0, 1, 2, ... in order.
It carries the kill masks of all generators packed in one integer, one group
of bits per set F of the coordinates outside T so far, bit g set iff F
contains generator g's mask, so that a step of the walk is an AND, a shift
and an OR that double the table.  At a class, the sets whose group is not
zero are the up-set of the family of masks: it depends on the minimal masks
alone, and with the number of coordinates outside T it keys the class's
complex in one bounded memo that every table shares.  Two kinds of class
are zero and need no rank: void ones, where a kill mask is empty, so D has
no faces at all, and cones of at most k masks, where a coordinate lies in no
kill mask, so no set of masks covers every coordinate.  Every other distinct
complex is computed once: its maps are sparse rows, one signed entry per
coface, ranked exactly over Q by `truncation.Echelon`, the package's one
rank engine.
A class weighs its dimensions by prod_j (x^lo_j + ... + x^hi_j), whose
coefficients count its multidegrees by the sum s of their coordinates
outside T.  The table keeps these weights as sparse terms: for each
cohomological degree i and t = |T|, the sum v of h^i over the classes of
each clamp sum s, nonzero v only.  Dimension, depth and the a-invariant are
read from the keys and the largest s of each group.  The graded lengths
h^i(R)_n have one evaluator, `CohomologyTable.rows`, which reads each group's
(-1)^t sum v lambda^s/(1-lambda)^t expanded at infinity from
`hilbert.expansions`; a single h^i(R)_n and the binomial-weighted invariant
EG(R) are read from its rows.
"""

from __future__ import annotations

from functools import lru_cache
from math import comb, prod
from operator import add, sub

from .errors import ZeroRing
from .hilbert import expansions
from .monomials import MonomialIdeal
from .truncation import Echelon


def integer_rank(rows: list[dict[int, int]]) -> int:
    """Rank over Q of an integer matrix given as sparse rows {column: value},
    zero entries allowed; the rows go into one `Echelon`, fraction-free."""
    echelon = Echelon()
    for row in rows:
        echelon.add(row)
    return echelon.dim


def _homology(cells: list[list[int]]) -> tuple[int, ...]:
    """Homology dimensions, grade by grade, of a complex whose grade-p cells
    are p-element sets (bitmasks), where the map between adjacent grades joins
    F to F + {b} with the sign (-1)^#{elements of F below b}."""
    ranks = [0] * (len(cells) + 1)  # ranks[p]: rank of the map between grades p - 1 and p
    for p in range(1, len(cells)):
        small, large = cells[p - 1], cells[p]
        if small and large:
            column = {g: c for c, g in enumerate(large)}
            bits = [1 << b for b in range(max(large).bit_length())]
            ranks[p] = integer_rank([
                {column[f | bit]: (-1) ** bin(f & (bit - 1)).count("1")
                 for bit in bits if not f & bit and f | bit in column}
                for f in small
            ])
    return tuple(len(c) - ranks[p] - ranks[p + 1] for p, c in enumerate(cells))


# Byte b -> "0" if b is zero, else "1": a table's groups as binary digits.
_NONZERO = b"0" + b"1" * 255


@lru_cache(maxsize=256)
def _lacking(size: int, b: int) -> int:
    """The positions p < size whose bit b is clear, as the bits of one integer:
    2^b ones, then 2^b zeros, repeated.  size is a power of two above 2^b.
    Cached: every miss of `_class_dims` on k coordinates reads the k values
    of size 2^k."""
    lacking, period = (1 << (1 << b)) - 1, 2 << b
    while period < size:
        lacking |= lacking << period
        period <<= 1
    return lacking


@lru_cache(maxsize=4096)
def _class_dims(k: int, up: int) -> tuple[int, ...]:
    """Cohomology dimensions (h^0..h^k) of one degree's Cech complex on k
    coordinates with T = {}; a class with |T| more coordinates, all in T, has
    these dimensions moved up by |T|.

    A generator's kill mask holds the coordinates j with g_j > a_j.  The class
    is given by the up-set of its kill masks, bit F of `up` set iff the set F
    of coordinates contains some mask: the same up-set means the same minimal
    masks.  The sets F outside it are the faces of a simplicial complex D, and
    h^i is the reduced cohomology of D in dimension i - 1.  By Hochster's
    formula that is the Betti number, in homological degree k - i and in the
    multidegree of all k coordinates, of the squarefree ideal of the masks.
    It is read from the Taylor complex of the minimal masks (Miller-Sturmfels,
    ch. 1 and 4): the strand of the sets S of masks whose union is every
    coordinate, graded by |S|, with the alternating-sign deletion maps, has
    h^i as its homology at |S| = k - i.  The strand has at most 2^r cells for
    r masks.  A void class (the empty set is in `up`: D has no faces) gives
    zeros before any rank.  Past k masks the Cech complex itself, on the 2^k
    sets F, is the smaller one and is ranked instead; up to k masks a cone (a
    coordinate in no mask) gives zeros with no rank too, as no union is full.
    """
    if up & 1:
        return (0,) * (k + 1)
    size = 1 << k
    # F is a minimal mask iff F is in `up` and no F - {b} is: adding 2^b
    # moves each position F - {b} of `up` that lacks b to F.
    below = 0
    for b in range(k):
        below |= (up & _lacking(size, b)) << (1 << b)
    minimal = up & ~below
    kill_masks = []
    while minimal:
        kill_masks.append((minimal & -minimal).bit_length() - 1)
        minimal &= minimal - 1
    if len(kill_masks) > k:
        faces: list[list[int]] = [[] for _ in range(k + 1)]
        for f_mask in range(size):
            if not up >> f_mask & 1:
                faces[bin(f_mask).count("1")].append(f_mask)
        return _homology(faces)
    # unions[S]: the union of the masks at the positions of the bits of S
    unions = [0]
    for m in kill_masks:
        unions += [u | m for u in unions]
    strand: list[list[int]] = [[] for _ in range(k + 1)]
    for subset, union in enumerate(unions):
        if union == size - 1:
            strand[bin(subset).count("1")].append(subset)
    return _homology(strand)[::-1]


class CohomologyTable:
    """The nonzero local cohomology of a monomial quotient, as sparse terms per
    cohomological degree and negative-support size, with derived invariants."""

    __slots__ = ("k", "rho", "classes", "dim", "depth", "reach")

    def __init__(self, k: int, rho: tuple[int, ...], classes: dict[tuple[int, int], dict[int, int]]):
        self.k = k
        self.rho = rho
        # classes: (i, t) -> {s: v} with v > 0, where v sums h^i over the
        # orthant classes with |T| = t whose coordinates outside T sum to s.
        self.classes = classes
        self.dim = max(i for i, _ in classes)
        self.depth = min(i for i, _ in classes)
        # The top degree of the cohomology: a class adds its dims at n = s - t
        # and nothing above.
        self.reach = max(max(group) - t_size for (_, t_size), group in classes.items())

    def h(self, i: int, n: int) -> int:
        return sum(v for j, _, v in self.rows(n, n) if j == i)

    @property
    def a_invariant(self) -> int:
        d = self.dim
        return max(max(group) - t_size for (i, t_size), group in self.classes.items() if i == d)

    @property
    def eg_invariant(self) -> int:
        d = self.dim
        return sum(comb(d - 1, i) * v for i, n, v in self.rows(2 - d, 1) if i + n == 1 and i < d)

    def rows(self, lo: int, hi: int) -> list[list[int]]:
        """[i, n, h^i(R)_n] for the nonzero values with lo <= n <= hi, ordered
        by i and then n.  A class with clamp sum s and |T| = t adds
        dims * C(s - n - 1, t - 1) at each n <= s - t (dims at n = s when
        t = 0): (-1)^t times dims * lambda^s/(1-lambda)^t expanded at
        infinity.  So each (i, t) feeds its terms {s: v} to `expansions`, at
        a cost that follows the width of the window, not its distance from
        the classes.  The window is clipped at `reach`, and a term with
        s - t < lo is left out."""
        hi = min(hi, self.reach)
        values = [[0] * (hi - lo + 1) for _ in range(self.k + 1)]
        for (i, t_size), group in self.classes.items():
            terms = {s: v for s, v in group.items() if s - t_size >= lo}
            if terms:
                _, at_infinity = expansions(terms, t_size, lo, hi)
                values[i] = list(map(sub if t_size % 2 else add, values[i], at_infinity))
        return [[i, lo + m, v] for i, row in enumerate(values) for m, v in enumerate(row) if v]


@lru_cache(maxsize=256)
def cohomology_table(ideal: MonomialIdeal) -> CohomologyTable:
    """Compute the breakpoint classes of R/I and unpack their packed weights
    into the terms {clamp sum: h^i} of each (i, |T|) with nonzero cohomology."""
    if ideal.is_unit:
        raise ZeroRing("the zero ring has no local cohomology")
    k = ideal.k
    rho = ideal.max_exponents()
    gen_exps = ideal.exps

    # A polynomial in the clamp sum is packed into one integer, coefficient s
    # in the `size` bytes from byte s*size on: products and sums of the class
    # weights become single integer operations, and one `to_bytes` unpacks
    # them.  No coefficient exceeds the number of orthant classes,
    # prod(rho_j + 1).
    size = (prod(r + 1 for r in rho).bit_length() + 7) // 8
    width = 8 * size
    # The cuts of each coordinate that some generator involves: its distinct
    # positive exponents.  Any other coordinate has no interval: it lies in T
    # in every class.
    cuts = [(j, c) for j in range(k) if (c := sorted({exps[j] for exps in gen_exps if exps[j]}))]
    involved = len(cuts)
    # The walk keeps the kill masks of all generators in one integer, a table
    # of the sets F of the coordinates outside T so far: bit g of the `group`
    # bits from F * group on is set iff F contains generator g's mask.  A
    # group has a bit for every generator and is a whole number of bytes, so
    # that a class reads the groups with `to_bytes`.  At the start F = {} is
    # the only set, and it contains every mask, as every mask is empty.
    nbytes = 1 << max((len(gen_exps) - 1).bit_length() - 3, 0)
    group = 8 * nbytes
    # Taking the interval from lo to hi for the i-th coordinate, as the
    # free-th coordinate outside T, doubles the table.  A set F + {free}
    # contains the new mask of each generator whose old mask F contained, bit
    # free or not; F itself still contains those of the generators with
    # g_j <= lo, whose masks gain no bit.  So the new table is
    # state & keep[free] | state << (group << free).
    # steps[i]: (keep, packed x^lo + ... + x^hi) for each interval between
    # consecutive cuts of the i-th coordinate, the last ending at rho_j - 1,
    # the weight a repunit in base 2^width, shifted by lo digits.
    steps = []
    for i, (j, c) in enumerate(cuts):
        runs = []
        for lo, hi in zip([0] + c[:-1], [t - 1 for t in c]):
            keep = [sum(1 << g for g, exps in enumerate(gen_exps) if exps[j] <= lo)]
            for free in range(i):
                keep.append(keep[free] | keep[free] << (group << free))
            runs.append((keep, ((1 << (hi - lo + 1) * width) - 1) // ((1 << width) - 1) << lo * width))
        steps.append(runs)
    # ORing each group's bytes onto its lowest one; `empty` is the group of {}.
    folds = [8 << t for t in reversed(range(nbytes.bit_length() - 1))]
    empty = (1 << group) - 1

    # (|T|, dims of D) -> packed multiplicity of each clamp sum, zero dims too.
    weights: dict = {}

    # A coordinate sent to T adds no bit to the kill masks (every mask holds
    # it) and leaves the table as it is.
    def recurse(i: int, free: int, state: int, weight: int):
        if i == involved:
            if state & empty:
                return  # void: {} contains a mask, the complex is zero
            # The up-set of the family, bit F set iff the group of F is not
            # zero: canonical, as it only depends on the minimal masks.
            for fold in folds:
                state |= state >> fold
            up = int(state.to_bytes(nbytes << free, "big")[nbytes - 1::nbytes].translate(_NONZERO), 2)
            key = (k - free, _class_dims(free, up))
            weights[key] = weights.get(key, 0) + weight
            return
        recurse(i + 1, free, state, weight)
        span = group << free
        for keep, run in steps[i]:
            recurse(i + 1, free + 1, state & keep[free] | state << span, weight * run)

    recurse(0, 0, (1 << len(gen_exps)) - 1, 1)

    classes: dict[tuple[int, int], dict[int, int]] = {}
    for (t_size, dims), packed in weights.items():
        digits = packed.to_bytes((packed.bit_length() + 7) // 8, "little")
        counts = [(clamp_sum, count) for clamp_sum, at in enumerate(range(0, len(digits), size))
                  if (count := int.from_bytes(digits[at:at + size], "little"))]
        for i, dim in enumerate(dims, t_size):
            if dim:
                group = classes.setdefault((i, t_size), {})
                for clamp_sum, count in counts:
                    group[clamp_sum] = group.get(clamp_sum, 0) + count * dim
    return CohomologyTable(k, rho, classes)
