"""Hilbert series of monomial quotients by Bigatti's pivot recursion.

The series of R/I is computed exactly as N(lambda)/(1-lambda)^k from the short
exact sequence 0 -> R/(I:p) -> R/I -> R/(I+(p)) -> 0 for a pivot monomial p
(A. M. Bigatti, "Computation of Hilbert-Poincare series", JPAA 119, 1997).
The recursion runs on minimal sets of exponent tuples, memoized by the set,
on sparse numerators {degree: coefficient}, and ends at a node with at most
TAYLOR_GENS generators or with pairwise-coprime ones: there N is the Taylor
sum over the subsets S of the generators of (-1)^|S| lambda^(deg lcm S)
(Miller-Sturmfels, *Combinatorial Commutative Algebra*, 2005, ch. 4), the
product of the sums over the classes of generators that share no variable
(for coprime generators, the product of the factors 1 - lambda^(deg g)).
`hilbert_series` lays N out as a coefficient list once, at the end.
`HilbertSeries` is the one entry point for the invariants: from the reduced
form Q(lambda)/(1-lambda)^d it reads off dimension and multiplicity.  H(n)
and the Hilbert polynomial P(n) come from
`expansions`, the one evaluator of a rational function N/(1-lambda)^t read at
both ends: H is its expansion at lambda = 0, and P - H is minus its
expansion at lambda = infinity (Bruns-Herzog, *Cohen-Macaulay Rings*,
sec. 4.1 and 4.4), so both are exact integers for every n.
`HilbertSeries.window` reads a table of (n, H(n), P(n)) from Q and d;
`cohomology` reads its graded lengths from the same evaluator.
`hilbert_series` is cached per ideal, so the CLI and the bounds run one
recursion per ideal.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import accumulate
from math import comb

from .errors import ReconstructionFailed, ZeroRing
from .monomials import MonomialIdeal, minimalize

# -- integer polynomials as coefficient lists (zero polynomial = []) -----


def pstrip(p: list[int]) -> list[int]:
    while p and p[-1] == 0:
        p.pop()
    return p


def pdiv_one_minus(p):
    """Divide by (1 - lambda); requires p(1) == 0."""
    if not p:
        return []
    acc = 0
    out = []
    for c in p[:-1]:
        acc += c
        out.append(acc)
    if acc + p[-1] != 0:
        raise ValueError("polynomial not divisible by (1 - lambda)")
    return pstrip(out)


def expansions(terms: dict[int, int], t: int, lo: int, hi: int) -> tuple[list[int], list[int]]:
    """The coefficients of lambda^lo..lambda^hi in the two expansions of
    N/(1-lambda)^t, N = sum of a * lambda^e over terms.items(), t >= 0: at
    lambda = 0, the sum over e <= n of a * C(n - e + t - 1, t - 1); at
    infinity, in powers of 1/lambda, (-1)^t times the sum over e >= n + t of
    a * C(e - n - 1, t - 1) (both are N's coefficient when t = 0).  Each is t
    running sums over the window: up from lo at 0, the j-th started at the
    coefficient of lambda^(lo-1) in N/(1-lambda)^j; down from hi at infinity,
    as 1/(1-lambda) = -(1/lambda + 1/lambda^2 + ...), the j-th started at the
    sum of the (j-1)-th above hi, with the sign taken once at the end.  So
    the cost is t * (width + terms), however far the window lies from 0."""
    up = [0] * (hi - lo + 1)
    low, high = [], []  # the terms below and above the window
    for e, a in terms.items():
        if e < lo:
            low.append((e, a))
        elif e > hi:
            high.append((e, a))
        else:
            up[e - lo] += a
    down = up[::-1]
    for j in range(1, t + 1):
        below = sum(a * comb(lo - 1 - e + j - 1, j - 1) for e, a in low)
        above = sum(a * comb(e - hi - 1, j - 1) for e, a in high)  # 0 unless e >= hi + j
        up = list(accumulate(up, initial=below))[1:]
        down = list(accumulate(down, initial=above))[:-1]
    down.reverse()
    return up, down if t % 2 == 0 else [-v for v in down]


# -- series -------------------------------------------------------------


class HilbertSeries:
    """N(lambda)/(1-lambda)^k with cached reduced form Q(lambda)/(1-lambda)^d."""

    __slots__ = ("k", "numerator", "_reduced")

    def __init__(self, k: int, numerator: list[int]):
        self.k = k
        self.numerator = pstrip(list(numerator))
        self._reduced = None

    @property
    def is_zero_ring(self) -> bool:
        return not self.numerator

    def reduced(self) -> tuple[list[int], int]:
        """(Q, d) with N = Q * (1-lambda)^(k-d) and Q(1) != 0."""
        if self._reduced is None:
            if self.is_zero_ring:
                raise ZeroRing("invariants of the zero ring are undefined")
            q = list(self.numerator)
            cancelled = 0
            while sum(q) == 0:
                q = pdiv_one_minus(q)
                cancelled += 1
            if cancelled > self.k:
                raise ValueError("numerator has more (1-lambda) factors than the ring allows")
            self._reduced = (q, self.k - cancelled)
        return self._reduced

    @property
    def reduced_numerator(self) -> list[int]:
        return list(self.reduced()[0])

    @property
    def dim(self) -> int:
        return self.reduced()[1]

    @property
    def multiplicity(self) -> int:
        return sum(self.reduced()[0])

    def coefficient(self, n: int) -> int:
        """H(n): the coefficient of lambda^n in N/(1-lambda)^k expanded at 0,
        which reads only the terms of N of degree at most n."""
        return expansions(dict(enumerate(self.numerator[: max(n + 1, 0)])), self.k, n, n)[0][0]

    def polynomial_value(self, n: int) -> int:
        """P(n): H(n) minus the coefficient of lambda^n in N/(1-lambda)^k
        expanded at infinity, which vanishes for n > deg N - k."""
        (h,), (tail,) = expansions(dict(enumerate(self.numerator)), self.k, n, n)
        return h - tail

    def window(self, lo: int, hi: int) -> list[tuple[int, int, int]]:
        """(n, H(n), P(n)) for lo <= n <= hi from the two expansions of the
        reduced form Q/(1-lambda)^d: H at 0, and P = H minus the expansion at
        infinity, so P(n) = H(n) for n > deg Q - d and P = 0 when d = 0."""
        q, d = self.reduced()
        h, tail = expansions({e: a for e, a in enumerate(q) if a}, d, lo, hi)
        return [(n, h_n, h_n - t_n) for n, h_n, t_n in zip(range(lo, hi + 1), h, tail)]

    def __eq__(self, other):
        return (
            isinstance(other, HilbertSeries)
            and self.k == other.k
            and self.numerator == other.numerator
        )

    def __repr__(self):
        return f"HilbertSeries({self.k}, {self.numerator})"


# -- the divide-and-conquer recursion -------------------------------------


def _pairwise_coprime(gens) -> bool:
    seen = 0
    for g in gens:
        mask = 0
        for j, e in enumerate(g):
            if e:
                mask |= 1 << j
        if seen & mask:
            return False
        seen |= mask
    return True


def _pivot(gens, k: int) -> tuple[int, int]:
    """(j, e): the most frequent variable x_j among the mixed (non-pure-power)
    generators, at the lower median e of its positive exponents there.  For
    any such e, (mixed generators, exponent sum) falls lexicographically on
    both branches: I + (x_j^e) drops at least one mixed generator and adds a
    pure power; I : x_j^e mixes none and lowers some g_j.  The median splits
    the mixed generators between the branches, where the least e would
    recurse once per generator on (x, y)^n."""
    mixed = [g for g in gens if sum(1 for e in g if e) > 1]
    counts = [0] * k
    for g in mixed:
        for j, e in enumerate(g):
            if e:
                counts[j] += 1
    j = max(range(k), key=lambda i: (counts[i], -i))
    exps = sorted(g[j] for g in mixed if g[j] > 0)
    return j, exps[(len(exps) - 1) // 2]


# A node with at most this many minimal generators ends the recursion at its
# Taylor sum, which has at most 2^TAYLOR_GENS terms before merging.
TAYLOR_GENS = 8


def _classes(gens) -> list[list]:
    """`gens` split into classes that share no variable: the connected
    components of the graph that joins two generators with a common one."""
    classes: list[tuple[int, list]] = []  # (variable mask, generators)
    for g in gens:
        mask = 0
        for j, e in enumerate(g):
            if e:
                mask |= 1 << j
        members = [g]
        rest = []
        for other_mask, other in classes:
            if other_mask & mask:
                mask |= other_mask
                members += other
            else:
                rest.append((other_mask, other))
        rest.append((mask, members))
        classes = rest
    return [members for _, members in classes]


def _taylor(gens: list) -> dict[int, int]:
    """{degree: coefficient} of the Taylor sum over the subsets S of `gens` of
    (-1)^|S| lambda^(deg lcm S), built one generator at a time as
    N_(G + g) = N_G - lcm(g, N_G) on lcm exponent tuples, merging equal lcms
    and dropping zero terms."""
    terms = {(0,) * len(gens[0]): 1}
    for g in gens:
        for m, c in list(terms.items()):
            m = tuple(map(max, m, g))
            terms[m] = terms.get(m, 0) - c
        terms = {m: c for m, c in terms.items() if c}
    by_degree: dict[int, int] = {}
    for m, c in terms.items():
        degree = sum(m)
        by_degree[degree] = by_degree.get(degree, 0) + c
    return by_degree


def _taylor_numerator(gens) -> dict[int, int]:
    """{degree: coefficient} of the numerator for a small or pairwise-coprime
    generator set: the product of the Taylor sums of its classes that share
    no variable (the sum over a union of such classes factors)."""
    poly = {0: 1}
    for members in _classes(gens):
        factor = _taylor(members)
        product: dict[int, int] = {}
        for i, a in poly.items():
            for j, b in factor.items():
                product[i + j] = product.get(i + j, 0) + a * b
        poly = {i: c for i, c in product.items() if c}
    return poly


def _numerator(k: int, gens: tuple, memo: dict) -> dict[int, int]:
    """{degree: coefficient} of the numerator of the series of R/I for the
    minimal generator tuples `gens`, no zero coefficients (Bigatti's pivot
    recursion: I + (p) and I : p for p = x_j^e, down to a Taylor sum, or to
    the product of the factors 1 - lambda^(deg g) of pairwise-coprime
    generators).  The memo's values are shared: never mutate a result."""
    cached = memo.get(gens)
    if cached is not None:
        return cached
    if len(gens) <= TAYLOR_GENS or _pairwise_coprime(gens):
        result = _taylor_numerator(gens)
    else:
        j, e = _pivot(gens, k)
        pivot = tuple(e if i == j else 0 for i in range(k))
        colon = (g[:j] + (max(g[j] - e, 0),) + g[j + 1:] for g in gens)
        result = dict(_numerator(k, minimalize(gens + (pivot,)), memo))
        for degree, c in _numerator(k, minimalize(colon), memo).items():
            c += result.get(degree + e, 0)
            if c:
                result[degree + e] = c
            else:
                del result[degree + e]
    memo[gens] = result
    return result


@lru_cache(maxsize=256)
def hilbert_series(ideal: MonomialIdeal) -> HilbertSeries:
    """Exact Hilbert series of R/I, computed once per ideal.  The unit ideal
    yields the flagged zero-ring series with numerator 1 - lambda^0 = 0, whose
    invariants raise `ZeroRing` when read."""
    terms = _numerator(ideal.k, ideal.exps, {})
    numerator = [0] * (max(terms) + 1) if terms else []
    for degree, c in terms.items():
        numerator[degree] = c
    return HilbertSeries(ideal.k, numerator)


def hilbert_data_from_series(series: HilbertSeries) -> HilbertSeries:
    """The series itself, which carries `.dim`, `.multiplicity` and
    `.polynomial_value`; only the benchmark's checks still call this name."""
    return series


# -- rational reconstruction of a series from initial values ----------------


# Reconstruction succeeds once the convolved coefficients vanish on the last
# TAIL_ZEROS values, and at most MAX_TERMS + 4 values are read.
TAIL_ZEROS = 5
MAX_TERMS = 64


def reconstruct_numerator(values: list[int], denom_power: int):
    """Numerator of sum(values[n] * lambda^n) * (1-lambda)^denom_power, or None.

    The values must be an initial segment of a sequence that is eventually
    polynomial of degree < denom_power; success requires the convolved
    coefficients to vanish on the last TAIL_ZEROS positions.
    """
    coeffs = list(values)
    for _ in range(denom_power):  # times (1 - lambda), truncated
        coeffs = coeffs[:1] + [b - a for a, b in zip(coeffs, coeffs[1:])]
    if TAIL_ZEROS > len(values):
        return None
    if any(c != 0 for c in coeffs[len(values) - TAIL_ZEROS:]):
        return None
    return pstrip(coeffs)


def initial_terms(k: int) -> int:
    """How many values `reconstruct_series` reads before its first attempt,
    for a denominator (1 - lambda)^k."""
    return max(2 * k + 6, TAIL_ZEROS + 2)


def reconstruct_series(value_fn, k: int) -> HilbertSeries:
    """Grow values value_fn(0..m-1), two at a time from m = initial_terms(k),
    until the rational reconstruction has TAIL_ZEROS vanishing convolved
    coefficients.  The last two of them are the check that the candidate
    numerator, of degree at most m - TAIL_ZEROS - 1, predicts the two newest
    values."""
    values: list[int] = []
    for m in range(initial_terms(k), MAX_TERMS + 5, 2):
        while len(values) < m:
            values.append(value_fn(len(values)))
        numerator = reconstruct_numerator(values, k)
        if numerator is not None:
            return HilbertSeries(k, numerator)
    raise ReconstructionFailed(f"series did not stabilize within {MAX_TERMS} terms")
