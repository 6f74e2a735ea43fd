"""Hilbert series of monomial quotients by Bigatti's pivot recursion.

The series of R/I is computed exactly as N(lambda)/(1-lambda)^k from the short
exact sequence 0 -> R/(I:p) -> R/I -> R/(I+(p)) -> 0 for a pivot monomial p
(A. M. Bigatti, "Computation of Hilbert-Poincare series", JPAA 119, 1997).
The recursion runs on minimal sets of exponent tuples, memoized by the set,
on sparse numerators {degree: coefficient}.  It ends at a node with at most
TAYLOR_GENS generators, at the product of the Taylor sums over the classes of
generators that share no variable (Miller-Sturmfels, *Combinatorial
Commutative Algebra*, 2005, ch. 4), or at pairwise-coprime generators, at the
product of the factors 1 - lambda^(deg g).  `HilbertSeries` keeps N sparse:
d and e are read at lambda = 1, from the least c with N = Q * (1-lambda)^c and
Q(1) != 0, and H(n), P(n) and Q from `expansions`, the one evaluator of
N/(1-lambda)^t read at both ends: H is its expansion at lambda = 0, and P - H
is minus its expansion at lambda = infinity (Bruns-Herzog, *Cohen-Macaulay
Rings*, sec. 4.1 and 4.4), so both are exact integers for every n.  A dense
coefficient list is laid out only for a printed field; `cohomology` reads its
graded lengths from the same evaluator.  `hilbert_series` is cached per
ideal, so the CLI and the bounds run one recursion per ideal.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import accumulate
from math import comb

from .errors import ReconstructionFailed, ZeroRing
from .monomials import MonomialIdeal, minimalize


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
    """N(lambda)/(1-lambda)^k for the sparse terms N = {degree: coefficient},
    with no zero coefficients.  On first read, N = Q * (1-lambda)^c with
    Q(1) != 0 gives the dimension d = k - c and the multiplicity e = Q(1)."""

    __slots__ = ("k", "terms", "_moment")

    def __init__(self, k: int, terms: dict[int, int]):
        self.k = k
        self.terms = terms
        self._moment = None

    @property
    def is_zero_ring(self) -> bool:
        return not self.terms

    @property
    def numerator(self) -> list[int]:
        """N's coefficients up to its degree ([] for the zero ring), laid out
        densely only for the fields that are printed."""
        out = [0] * (max(self.terms) + 1) if self.terms else []
        for e, a in self.terms.items():
            out[e] = a
        return out

    def _cancelled(self) -> tuple[int, int]:
        """(c, Q(1)) for N = Q * (1-lambda)^c, Q(1) != 0: the c-th derivative
        of N at 1 over c! is the moment m_c = sum of a * C(e, c) over the terms,
        so c is the least index with m_c != 0 and Q(1) = (-1)^c * m_c.  Each
        term's binomial runs up exactly, b <- b * (e - c) // (c + 1)."""
        if self._moment is None:
            if not self.terms:
                raise ZeroRing("invariants of the zero ring are undefined")
            degrees, moments = list(self.terms), list(self.terms.values())
            c = 0
            while not sum(moments):
                if c == self.k:
                    raise ValueError("numerator has more (1-lambda) factors than the ring allows")
                moments = [b * (e - c) // (c + 1) for e, b in zip(degrees, moments)]
                c += 1
            self._moment = (c, (-1) ** c * sum(moments))
        return self._moment

    @property
    def reduced_numerator(self) -> list[int]:
        """Q = N/(1-lambda)^c, of degree deg N - c."""
        c = self._cancelled()[0]
        return expansions(self.terms, c, 0, max(self.terms) - c)[0]

    @property
    def dim(self) -> int:
        return self.k - self._cancelled()[0]

    @property
    def multiplicity(self) -> int:
        return self._cancelled()[1]

    def coefficient(self, n: int) -> int:
        """H(n): the coefficient of lambda^n in N/(1-lambda)^k expanded at 0,
        which reads only the terms of N of degree at most n."""
        return expansions({e: a for e, a in self.terms.items() if e <= n}, self.k, n, n)[0][0]

    def polynomial_value(self, n: int) -> int:
        """P(n): H(n) minus the coefficient of lambda^n in N/(1-lambda)^k
        expanded at infinity, which vanishes for n > deg N - k."""
        (h,), (tail,) = expansions(self.terms, self.k, n, n)
        return h - tail

    def window(self, lo: int, hi: int) -> list[tuple[int, int, int]]:
        """(n, H(n), P(n)) for lo <= n <= hi from the two expansions of
        N/(1-lambda)^k: H at 0, and P = H minus the expansion at infinity, so
        P(n) = H(n) for n > deg N - k and P = 0 when d = 0."""
        h, tail = expansions(self.terms, self.k, lo, hi)
        return [(n, h_n, h_n - t_n) for n, h_n, t_n in zip(range(lo, hi + 1), h, tail)]

    def __eq__(self, other):
        return isinstance(other, HilbertSeries) and self.k == other.k and self.terms == other.terms

    def __repr__(self):
        return f"HilbertSeries({self.k}, {self.terms})"


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
    """{degree: coefficient} of the numerator for a small generator set: the
    product of the Taylor sums of its classes that share no variable (the sum
    over a union of such classes factors)."""
    poly = {0: 1}
    for members in _classes(gens):
        factor = _taylor(members)
        product: dict[int, int] = {}
        for i, a in poly.items():
            for j, b in factor.items():
                product[i + j] = product.get(i + j, 0) + a * b
        poly = {i: c for i, c in product.items() if c}
    return poly


def _add_shifted(result: dict[int, int], terms: dict[int, int], shift: int, sign: int) -> None:
    """result += sign * lambda^shift * terms, in place, dropping zero terms."""
    for degree, c in terms.items():
        degree += shift
        c = result.get(degree, 0) + sign * c
        if c:
            result[degree] = c
        else:
            del result[degree]


def _numerator(k: int, gens: tuple, memo: dict) -> dict[int, int]:
    """{degree: coefficient} of the numerator of the series of R/I for the
    minimal generator tuples `gens`, no zero coefficients (Bigatti's pivot
    recursion: I + (p) and I : p for p = x_j^e, down to a Taylor sum, or to
    the product of the factors 1 - lambda^(deg g) of pairwise-coprime
    generators).  The memo's values are shared: never mutate a result."""
    cached = memo.get(gens)
    if cached is not None:
        return cached
    if len(gens) <= TAYLOR_GENS:
        result = _taylor_numerator(gens)
    elif _pairwise_coprime(gens):
        result = {0: 1}
        for g in gens:
            _add_shifted(result, dict(result), sum(g), -1)
    else:
        j, e = _pivot(gens, k)
        pivot = tuple(e if i == j else 0 for i in range(k))
        colon = (g[:j] + (max(g[j] - e, 0),) + g[j + 1:] for g in gens)
        result = dict(_numerator(k, minimalize(gens + (pivot,)), memo))
        _add_shifted(result, _numerator(k, minimalize(colon), memo), e, 1)
    memo[gens] = result
    return result


@lru_cache(maxsize=256)
def hilbert_series(ideal: MonomialIdeal) -> HilbertSeries:
    """Exact Hilbert series of R/I, computed once per ideal.  The unit ideal
    yields the flagged zero-ring series with numerator 1 - lambda^0 = 0, whose
    invariants raise `ZeroRing` when read."""
    return HilbertSeries(ideal.k, _numerator(ideal.k, ideal.exps, {}))


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
    """{degree: coefficient} of the numerator of
    sum(values[n] * lambda^n) * (1-lambda)^denom_power, or None.

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
    return {e: c for e, c in enumerate(coeffs) if c}


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
