"""Hilbert series of monomial quotients by Bigatti's pivot recursion.

The series of R/I is computed exactly as N(lambda)/(1-lambda)^k from the short
exact sequence 0 -> R/(I:p) -> R/I -> R/(I+(p)) -> 0 for a pivot monomial p,
with the pairwise-coprime product formula as base case (A. M. Bigatti,
"Computation of Hilbert-Poincare series", JPAA 119, 1997).  The recursion runs
on minimal sets of exponent tuples, memoized by the set.  `HilbertSeries` is
the one entry point for the invariants: from the reduced form
Q(lambda)/(1-lambda)^d it reads off dimension and multiplicity, and H(n) and
the Hilbert polynomial P(n) are one integer binomial sum over the numerator:
H(n) sums the terms with i <= n, P(n) all of them, with C(x, m) read as a
polynomial in x (Bruns-Herzog, *Cohen-Macaulay Rings*, sec. 4.1), so both are
exact integers for every n.  `hilbert_series` is cached per ideal, so the
CLI and the bounds run one recursion per ideal.
"""

from __future__ import annotations

from functools import lru_cache
from math import factorial, prod

from .errors import ReconstructionFailed, ZeroRing
from .monomials import MonomialIdeal, minimalize

# -- integer polynomials as coefficient lists (zero polynomial = []) -----


def pstrip(p: list[int]) -> list[int]:
    while p and p[-1] == 0:
        p.pop()
    return p


def padd(p, q):
    n = max(len(p), len(q))
    return pstrip([(p[i] if i < len(p) else 0) + (q[i] if i < len(q) else 0) for i in range(n)])


def pshift(p, s: int):
    return [0] * s + list(p) if p else []


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


def _binomial(x: int, m: int) -> int:
    """C(x, m) = x(x-1)...(x-m+1)/m! as a polynomial in x, read at any integer
    x; exact, since a product of m consecutive integers is divisible by m!."""
    return prod(range(x - m + 1, x + 1)) // factorial(m)


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
        """H(n): the coefficient of lambda^n in the expansion of N/(1-lambda)^k,
        sum over i <= n of N_i * C(n - i + k - 1, k - 1)."""
        if n < 0:
            return 0
        if self.k == 0:
            return self.numerator[n] if n < len(self.numerator) else 0
        return self._binomial_sum(self.numerator[: n + 1], n)

    def polynomial_value(self, n: int) -> int:
        """P(n): the same sum over every i, a polynomial in n.  It equals H(n)
        for n > deg N - k, where each term with i > n has 0 <= n - i + k - 1
        < k - 1 and vanishes."""
        return self._binomial_sum(self.numerator, n) if self.k else 0

    def _binomial_sum(self, terms: list[int], n: int) -> int:
        return sum(c * _binomial(n - i + self.k - 1, self.k - 1) for i, c in enumerate(terms))

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


def _numerator(k: int, gens: tuple, memo: dict) -> list[int]:
    """Numerator of the series of R/I for the minimal generator tuples `gens`
    (Bigatti's pivot recursion: I + (p) and I : p for p = x_j^e)."""
    cached = memo.get(gens)
    if cached is not None:
        return cached
    if _pairwise_coprime(gens):
        result = [1]
        for g in gens:
            result = padd(result, pshift([-c for c in result], sum(g)))
    else:
        j, e = _pivot(gens, k)
        pivot = tuple(e if i == j else 0 for i in range(k))
        colon = (g[:j] + (max(g[j] - e, 0),) + g[j + 1:] for g in gens)
        result = padd(
            _numerator(k, minimalize(gens + (pivot,)), memo),
            pshift(_numerator(k, minimalize(colon), memo), e),
        )
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


def reconstruct_series(value_fn, k: int) -> HilbertSeries:
    """Grow values value_fn(0..m-1), two at a time, until the rational
    reconstruction has TAIL_ZEROS vanishing convolved coefficients.  The last
    two of them are the check that the candidate numerator, of degree at most
    m - TAIL_ZEROS - 1, predicts the two newest values."""
    values: list[int] = []
    for m in range(max(2 * k + 6, TAIL_ZEROS + 2), MAX_TERMS + 5, 2):
        while len(values) < m:
            values.append(value_fn(len(values)))
        numerator = reconstruct_numerator(values, k)
        if numerator is not None:
            return HilbertSeries(k, numerator)
    raise ReconstructionFailed(f"series did not stabilize within {MAX_TERMS} terms")
