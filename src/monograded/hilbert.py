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
exact integers for every n.  `hilbert_data` caches them per ideal for the
bounds.
"""

from __future__ import annotations

from dataclasses import dataclass
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


def pmul(p, q):
    if not p or not q:
        return []
    out = [0] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        if a:
            for j, b in enumerate(q):
                out[i + j] += a * b
    return pstrip(out)


def pshift(p, s: int):
    return [0] * s + list(p) if p else []


def peval_one(p) -> int:
    return sum(p)


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


def one_minus_lambda_power(d: int) -> list[int]:
    return [(-1) ** i * _binomial(d, i) for i in range(d + 1)]


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
                raise ZeroRing("zero ring has no reduced Hilbert series")
            q = list(self.numerator)
            cancelled = 0
            while peval_one(q) == 0:
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
        return peval_one(self.reduced()[0])

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
    """(j, e): the most frequent variable x_j among non-pure-power generators,
    at the least positive exponent e it takes there."""
    mixed = [g for g in gens if sum(1 for e in g if e) > 1]
    counts = [0] * k
    for g in mixed:
        for j, e in enumerate(g):
            if e:
                counts[j] += 1
    j = max(range(k), key=lambda i: (counts[i], -i))
    return j, min(g[j] for g in mixed if g[j] > 0)


def _numerator(k: int, gens: tuple, memo: dict) -> list[int]:
    """Numerator of the series of R/I for the minimal generator tuples `gens`
    (Bigatti's pivot recursion: I + (p) and I : p for p = x_j^e)."""
    cached = memo.get(gens)
    if cached is not None:
        return cached
    if _pairwise_coprime(gens):
        result = [1]
        for g in gens:
            result = pmul(result, padd([1], pshift([-1], sum(g))))
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


def hilbert_series(ideal: MonomialIdeal) -> HilbertSeries:
    """Exact Hilbert series of R/I.  The unit ideal yields the flagged zero-ring
    series with numerator 0."""
    if ideal.is_unit:
        return HilbertSeries(ideal.k, [])
    return HilbertSeries(ideal.k, _numerator(ideal.k, ideal.exps, {}))


# -- Hilbert data ----------------------------------------------------------


@dataclass(frozen=True)
class HilbertData:
    """Series plus the derived numeric invariants of a monomial quotient."""

    series: HilbertSeries
    dim: int
    multiplicity: int

    def polynomial_value(self, n: int) -> int:
        return self.series.polynomial_value(n)


def hilbert_data_from_series(series: HilbertSeries) -> HilbertData:
    q, d = series.reduced()
    return HilbertData(series, d, peval_one(q))


@lru_cache(maxsize=256)
def hilbert_data(ideal: MonomialIdeal) -> HilbertData:
    """Hilbert data of R/I, computed once per ideal (the bounds read it twice)."""
    if ideal.is_unit:
        raise ZeroRing("invariants of the zero ring are undefined")
    return hilbert_data_from_series(hilbert_series(ideal))


# -- rational reconstruction of a series from initial values ----------------


# Reconstruction succeeds once the convolved coefficients vanish on the last
# TAIL_ZEROS values; a candidate must then match VERIFY_POINTS further values,
# and at most MAX_TERMS values are read.
TAIL_ZEROS = 3
VERIFY_POINTS = 2
MAX_TERMS = 64


def reconstruct_numerator(values: list[int], denom_power: int):
    """Numerator of sum(values[n] * lambda^n) * (1-lambda)^denom_power, or None.

    The values must be an initial segment of a sequence that is eventually
    polynomial of degree < denom_power; success requires the convolved
    coefficients to vanish on the last TAIL_ZEROS positions.
    """
    factor = one_minus_lambda_power(denom_power)
    coeffs = [0] * len(values)
    for i, v in enumerate(values):
        if v:
            for j, f in enumerate(factor):
                if i + j < len(values):
                    coeffs[i + j] += v * f
    if TAIL_ZEROS > len(values):
        return None
    if any(c != 0 for c in coeffs[len(values) - TAIL_ZEROS:]):
        return None
    return pstrip(coeffs)


def reconstruct_series(value_fn, k: int) -> HilbertSeries:
    """Grow values value_fn(0..m) until the rational reconstruction stabilizes,
    then check the candidate against VERIFY_POINTS further values."""
    values: list[int] = []
    m = max(2 * k + 4, TAIL_ZEROS + 2)
    while len(values) <= MAX_TERMS:
        while len(values) < m:
            values.append(value_fn(len(values)))
        numerator = reconstruct_numerator(values, k)
        if numerator is not None:
            series = HilbertSeries(k, numerator)
            if all(
                series.coefficient(len(values) + i) == value_fn(len(values) + i)
                for i in range(VERIFY_POINTS)
            ):
                return series
        m += 2
    raise ReconstructionFailed(f"series did not stabilize within {MAX_TERMS} terms")
