"""Brute-force reference computations used as independent test oracles."""

from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from math import comb, factorial, gcd, prod
from operator import add

from monograded.errors import ComputationError, NotAReduction, ZeroRing
from monograded.cohomology import CohomologyTable
from monograded.filtration import (
    RR_MAX_STEPS, Reduction, _product_rows, power_cache, reduction_number_wrt,
)
from monograded.hilbert import HilbertSeries, hilbert_series
from monograded.monomials import MonomialIdeal, minimalize
from monograded.semigroup import NumericalSemigroup
from monograded.truncation import Echelon, TruncatedAlgebra


class ContainmentViolation(ComputationError):
    """An operation required B to be contained in A, but it is not."""


# -- polynomials with rational coefficients --------------------------------


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


def reduction_polys(reduction: Reduction) -> list[PolyElement]:
    """The generators of a reduction, given as integer terms, as polynomials."""
    return [PolyElement(len(terms[0][0]), dict(terms)) for terms in reduction]


def monomial_reduction(ideal: MonomialIdeal) -> Reduction:
    """The monomial ideal as a candidate reduction, one generator per monomial."""
    return [((g, 1),) for g in ideal.exps]


# -- the Hilbert polynomial with rational coefficients ---------------------


def binomial_poly(shift: int, m: int) -> list[Fraction]:
    """Coefficients in n of C(n + shift, m) = prod_{t=0}^{m-1} (n + shift - t) / m!."""
    coeffs = [Fraction(1)]
    for t in range(m):
        constant = Fraction(shift - t)
        out = [Fraction(0)] * (len(coeffs) + 1)
        for i, c in enumerate(coeffs):
            out[i + 1] += c
            out[i] += c * constant
        coeffs = out
    inv = Fraction(1, factorial(m))
    return [c * inv for c in coeffs]


def binomial(x: int, m: int) -> int:
    """C(x, m) = x(x-1)...(x-m+1)/m! as a polynomial in x, read at any integer
    x; exact, since a product of m consecutive integers is divisible by m!."""
    return prod(range(x - m + 1, x + 1)) // factorial(m)


def binomial_sum(terms: list[int], n: int, d: int) -> int:
    """Sum of terms[i] * C(n - i + d - 1, d - 1), for any integer n: over the
    terms with i <= n the coefficient of lambda^n in
    sum(terms[i] * lambda^i) / (1-lambda)^d, over all of them its Hilbert
    polynomial at n."""
    return sum(c * binomial(n - i + d - 1, d - 1) for i, c in enumerate(terms))


def reference_window(numerator: list[int], t: int, lo: int, hi: int) -> list[tuple[int, int, int]]:
    """(n, H(n), P(n)) for lo <= n <= hi, each a binomial sum over the dense
    numerator N of N/(1-lambda)^t: H over the terms of degree at most n, P over
    all of them (P = 0 when t = 0)."""
    rows = []
    for n in range(lo, hi + 1):
        if n < 0:
            h = 0
        elif t == 0:
            h = numerator[n] if n < len(numerator) else 0
        else:
            h = binomial_sum(numerator[: n + 1], n, t)
        rows.append((n, h, binomial_sum(numerator, n, t) if t else 0))
    return rows


def pstrip(p: list[int]) -> list[int]:
    while p and p[-1] == 0:
        p.pop()
    return p


def pdiv_one_minus(p: list[int]) -> list[int]:
    """Divide a coefficient list by (1 - lambda); requires p(1) == 0."""
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


def reference_reduced(series: HilbertSeries) -> tuple[list[int], int]:
    """(Q, d) with N = Q * (1-lambda)^(k-d) and Q(1) != 0, by dividing the
    dense numerator by (1 - lambda) while its coefficients sum to zero."""
    if series.is_zero_ring:
        raise ZeroRing("invariants of the zero ring are undefined")
    q = series.numerator
    cancelled = 0
    while sum(q) == 0:
        q = pdiv_one_minus(q)
        cancelled += 1
    if cancelled > series.k:
        raise ValueError("numerator has more (1-lambda) factors than the ring allows")
    return q, series.k - cancelled


def poly_value(coeffs, n: int) -> Fraction:
    acc = Fraction(0)
    power = Fraction(1)
    for c in coeffs:
        acc += c * power
        power *= n
    return acc


def fraction_hilbert_polynomial(series: HilbertSeries) -> list[Fraction]:
    """Coefficients of P(n), lowest degree first (empty for dimension zero):
    sum of Q_i * C(n - i + d - 1, d - 1) over the reduced numerator Q."""
    q, d = reference_reduced(series)
    acc = [Fraction(0)] * d
    for i, c in enumerate(q):
        if c and d:
            for idx, coeff in enumerate(binomial_poly(d - 1 - i, d - 1)):
                acc[idx] += c * coeff
    return acc


def postulation_degree(series: HilbertSeries) -> int:
    """H(n) = P(n) for all n strictly above deg Q - d."""
    q, d = reference_reduced(series)
    return len(q) - 1 - d


def serre_difference(ideal: MonomialIdeal, n: int) -> int:
    """H(n) - P(n), H counted on standard monomials."""
    return ideal.graded_length(n) - hilbert_series(ideal).polynomial_value(n)


def serre_difference_table(ideal: MonomialIdeal, lo: int, hi: int) -> dict[int, int]:
    """H(n) - P(n) for lo <= n <= hi, H counted on standard monomials."""
    series = hilbert_series(ideal)
    return {n: ideal.graded_length(n) - series.polynomial_value(n) for n in range(lo, hi + 1)}


def multiplicity_samuel(ideal: MonomialIdeal, n_bound: int | None = None) -> int:
    """Hilbert-Samuel multiplicity from the colength sequence ell(R/I^n).

    The d-th finite differences must take one value on d+2 consecutive windows
    and that value must survive two further verification points.  This is a
    stabilization rule, not a proof.
    """
    d = ideal.k
    if n_bound is None:
        n_bound = 6 * d + 14
    powers = [MonomialIdeal.unit(ideal.k), ideal]  # tuple products: independent of the bitsets
    values = [0, ideal.quotient_length()]
    while len(values) <= n_bound:
        values.append(tuple_power(powers, len(values)).quotient_length())
        diffs = values
        for _ in range(d):
            diffs = [b - a for a, b in zip(diffs, diffs[1:])]
        if len(diffs) >= 4 and len(set(diffs[-4:])) == 1:
            e = diffs[-1]
            if e <= 0:
                raise ComputationError("stabilized leading difference is not positive")
            return e
    raise ComputationError(f"colength differences did not stabilize below n = {n_bound}")


# -- truncated images and their Nakayama certificates ---------------------


class NotCertified(ComputationError):
    """Truncation stabilization was not reached within the allowed bound."""


def columns_below_degree(algebra: TruncatedAlgebra, t: int) -> int:
    """Number of basis monomials of degree < t."""
    return algebra.degree_starts[max(0, min(t, algebra.N + 1))]


def ideal_columns(algebra: TruncatedAlgebra, ideal: MonomialIdeal | None, top: int):
    """Ascending columns of the monomials of degree <= top in the monomial
    ideal (None: the unit ideal), marked as multiples of its generators."""
    if ideal is None:
        return range(columns_below_degree(algebra, top + 1))
    index, monomials = algebra.index, algebra.monomials
    cols = set()
    for g in ideal.exps:
        for u in monomials[: columns_below_degree(algebra, top + 1 - sum(g))]:
            cols.add(index[tuple(map(add, g, u))])
    return sorted(cols)


def pivots_below(ech: Echelon, col_bound: int) -> int:
    """dim of the projection of the row space to the first `col_bound` columns."""
    return sum(1 for c in ech.pivots if c < col_bound)


def degree_in_span(algebra: TruncatedAlgebra, ech: Echelon, t: int) -> bool:
    """Whether every monomial of degree t is a pivot column of `ech`."""
    lo, hi = algebra.degree_starts[t], algebra.degree_starts[t + 1]
    return pivots_below(ech, hi) - pivots_below(ech, lo) == hi - lo


class PolyProduct:
    """The ideal (polys)*M, kept factored: spanned by q*w for q in the nonzero
    polys (or exponent tuples) and w a monomial of the monomial ideal M (None:
    the unit ideal)."""

    __slots__ = ("polys", "ideal")

    def __init__(self, polys, ideal: MonomialIdeal | None):
        polys = (p if isinstance(p, PolyElement) else PolyElement.from_monomial(p) for p in polys)
        self.polys = [p for p in polys if not p.is_zero]
        self.ideal = ideal


def echelon_contains(ech: Echelon, row: dict[int, int]) -> bool:
    """Whether the row lies in the row space of `ech`."""
    return not ech.reduce(row)


def echelon_contains_all(ech: Echelon, other: Echelon) -> bool:
    """Whether the row space of `other` lies inside that of `ech`."""
    return all(echelon_contains(ech, row) for row in other.pivots.values())


def ideal_image(gens, algebra: TruncatedAlgebra, until_full_degree: bool = False) -> Echelon:
    """Row-reduced image of the ideal generated by `gens` in the truncation.

    `gens` is a list of generators or a `PolyProduct`.  Rows q*w come by
    ascending degree of w.  No later row has a term below degree
    deg w + mindeg q, so with `until_full_degree` it stops at the first such
    settled degree 1 <= t < N inside the span.
    """
    ech = Echelon()
    product = gens if isinstance(gens, PolyProduct) else PolyProduct(gens, None)
    if not product.polys:
        return ech
    # q*w survives the truncation iff deg w + mindeg q <= N: a column prefix.
    N, index, monomials = algebra.N, algebra.index, algebra.monomials
    factors = [(p.integer_terms(), columns_below_degree(algebra, N + 1 - p.min_degree))
               for p in product.polys]
    least = min(p.min_degree for p in product.polys)
    t = 1  # the next degree to test for fullness
    for col in ideal_columns(algebra, product.ideal, N - least):
        w = monomials[col]
        while until_full_degree and t < min(sum(w) + least, N):
            if degree_in_span(algebra, ech, t):
                return ech
            t += 1
        for terms, bound in factors:
            if col >= bound:
                continue
            row = {}
            for exps, c in terms:
                j = index.get(tuple(map(add, exps, w)))
                if j is not None:
                    row[j] = c
            ech.add(row)
    return ech


def certified_truncation(gens, k: int, max_t: int):
    """Least t <= max_t with ell(S/(A+m^t)) = ell(S/(A+m^(t+1))), plus the proof
    data; the equality forces m^t inside A + m^(t+1) and hence inside A by
    Nakayama, provided A is m-primary (otherwise no t stabilizes).

    The proof records `stable_length` = ell(S/A) and `image_dim` =
    dim (A + m^t)/m^t.  The truncation size is grown geometrically so that
    small certificates are found inside small algebras; each image stops at
    its first settled degree inside the span, which is the least t."""
    if not isinstance(gens, PolyProduct):
        gens = PolyProduct(gens, None)
    # the largest least degree of a generator q*g, as for the expanded list
    gen_degrees = [0] if gens.ideal is None else [sum(g) for g in gens.ideal.exps]
    floor = 1
    if gens.polys and gen_degrees:
        floor = max(p.min_degree for p in gens.polys) + max(gen_degrees)
    attempt = min(max(4, floor + 2), max_t)
    while True:
        algebra = TruncatedAlgebra(k, attempt)
        ech = ideal_image(gens, algebra, until_full_degree=True)
        for t in range(1, attempt):
            if degree_in_span(algebra, ech, t):  # ell(S/(A+m^t)) = ell(S/(A+m^(t+1)))
                dim = pivots_below(ech, columns_below_degree(algebra, t))
                return t, {"t": t, "stable_length": columns_below_degree(algebra, t) - dim,
                           "image_dim": dim}
        if attempt >= max_t:
            raise NotCertified(f"no truncation certificate up to degree {max_t}")
        attempt = min(attempt * 2, max_t)


# -- Valabrega-Valla levels --------------------------------------------------


@dataclass
class VVLevel:
    """Level n of the Valabrega-Valla test as colengths; t is the least degree
    certified with m^t inside J*I^(n-1).  By 0 -> R/(J cap I^n) -> R/J + R/I^n
    -> R/(J + I^n) -> 0 and J*I^(n-1) inside J cap I^n, the level holds iff
    ell_prod = ell_j + ell_power - ell_sum."""

    t: int
    ell_prod: int  # R/J*I^(n-1)
    ell_sum: int  # R/(J + I^n)
    ell_power: int  # R/I^n
    ell_j: int  # R/J

    @property
    def holds(self) -> bool:  # I^n intersect J = J*I^(n-1)
        return self.ell_prod + self.ell_sum == self.ell_power + self.ell_j


def vv_levels(ideal: MonomialIdeal, reduction, r: int | None = None) -> list[VVLevel]:
    """The levels of `vv_cm_certificate` that need a computation, up to the
    first that fails; `r` must be r_J(I) of this reduction.

    ell(R/J*I^(n-1)) is the truncation certificate's, ell(R/I^n) the power
    cache's, and ell(R/(J + I^n)) is ell(R/I^n) minus the rank of the rows q*u
    in S/I^n, u a standard monomial of I^n.  Level 1 holds as J lies in I; its
    certificate is J's and gives ell(R/J).  Levels 2..r follow; level r + 1
    holds as J*I^r = I^(r+1) lies in J."""
    if r is None:
        r = reduction_number_wrt(reduction, ideal)
    cache = power_cache(ideal)
    max_deg = max(map(sum, ideal.exps))
    levels = []
    for n in range(1, max(r, 1) + 1):
        prod_gens = PolyProduct(reduction_polys(reduction), cache.power(n - 1))
        t, proof = certified_truncation(prod_gens, ideal.k, max(max_deg * (n + 2), 8))
        ell_prod, ell_power = proof["stable_length"], cache.colength(n)
        if n == 1:  # J*I^0 = J, and J + I = I as J lies in I
            ell_j, ell_sum = ell_prod, ell_power
        else:
            standard = standard_monomials(cache.power(n))
            ech = Echelon()
            for row in _product_rows(reduction, standard, {u: j for j, u in enumerate(standard)}):
                ech.add(row)
            ell_sum = ell_power - ech.dim
        levels.append(VVLevel(t, ell_prod, ell_sum, ell_power, ell_j))
        if not levels[-1].holds:
            break
    return levels


def vv_cm_certificate(ideal: MonomialIdeal, reduction, r: int | None = None) -> bool:
    """Valabrega-Valla test (Valabrega-Valla, "Form rings and regular
    sequences", Nagoya Math. J. 72, 1978): I^n intersect J = J*I^(n-1) for
    1 <= n <= r_J + 1, which holds iff G is Cohen-Macaulay; `r` must be r_J(I)
    of this reduction.  Only the levels 2..r_J can fail."""
    return vv_levels(ideal, reduction, r=r)[-1].holds


def monomials_upto(k: int, bound: int):
    """All exponent tuples with every coordinate at most `bound` and total
    degree at most `bound` (a convenient finite test window)."""
    for exps in product(range(bound + 1), repeat=k):
        if sum(exps) <= bound:
            yield exps


def divides(a: tuple, b: tuple) -> bool:
    return all(x <= y for x, y in zip(a, b))


def contains_monomial(ideal: MonomialIdeal, exps: tuple) -> bool:
    """Whether the monomial with exponent tuple `exps` lies in the ideal."""
    return any(divides(g, exps) for g in ideal.exps)


def contains_ideal(ideal: MonomialIdeal, other: MonomialIdeal) -> bool:
    """Whether every generator of `other` lies in `ideal`."""
    return all(contains_monomial(ideal, g) for g in other.exps)


def pure_power_variable(exps: tuple):
    """Index of the single supported variable, or None if not a pure power."""
    support = [j for j, e in enumerate(exps) if e]
    return support[0] if len(support) == 1 else None


def box_standard_count(ideal: MonomialIdeal) -> int:
    """ell(R/I) by direct enumeration of the bounding box."""
    bounds = ideal.pure_power_bounds()
    count = 0
    for exps in product(*(range(b) for b in bounds)):
        if not contains_monomial(ideal, exps):
            count += 1
    return count


def standard_monomials(ideal: MonomialIdeal) -> list[tuple[int, ...]]:
    """The monomials outside an m-primary ideal, the basis of R/I, in
    (degree, exps) order.  Grown one coordinate at a time: (e_1..e_j) is a
    standard prefix iff it avoids the generators supported on the first j
    variables."""
    found = [()]
    for j, bound in enumerate(ideal.pure_power_bounds()):  # InfiniteLength unless m-primary
        gens = [g[: j + 1] for g in ideal.exps if not any(g[j + 1:])]
        found = [p + (e,) for p in found for e in range(bound)
                 if not any(divides(g, p + (e,)) for g in gens)]
    return sorted(found, key=lambda u: (sum(u), u))


def brute_colon_matches(ideal: MonomialIdeal, other: MonomialIdeal, computed: MonomialIdeal, bound: int) -> bool:
    """Membership-level check of computed = (ideal : other) up to a degree bound."""
    for m in monomials_upto(ideal.k, bound):
        in_colon = all(
            contains_monomial(ideal, tuple(a + b for a, b in zip(m, g))) for g in other.exps
        )
        if in_colon != contains_monomial(computed, m):
            return False
    return True


def brute_intersection_matches(a: MonomialIdeal, b: MonomialIdeal, computed: MonomialIdeal, bound: int) -> bool:
    for m in monomials_upto(a.k, bound):
        both = contains_monomial(a, m) and contains_monomial(b, m)
        if both != contains_monomial(computed, m):
            return False
    return True


def fraction_rank(rows: list[list]) -> int:
    """Rank over Q by plain Gaussian elimination with Fractions: each pivot
    clears the rows below it."""
    rows = [[Fraction(x) for x in row] for row in rows if any(row)]
    rank = 0
    ncols = len(rows[0]) if rows else 0
    for col in range(ncols):
        pivot = None
        for i in range(rank, len(rows)):
            if rows[i][col]:
                pivot = i
                break
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        inv = 1 / rows[rank][col]
        rows[rank] = [x * inv for x in rows[rank]]
        for i in range(rank + 1, len(rows)):
            if rows[i][col]:
                factor = rows[i][col]
                rows[i] = [x - factor * y for x, y in zip(rows[i], rows[rank])]
        rank += 1
    return rank


def _poly_add(p: list[int], q: list[int]) -> list[int]:
    """Sum of two coefficient lists, trailing zeros stripped."""
    out = [a + b for a, b in zip(p, q)] + p[len(q):] + q[len(p):]
    while out and out[-1] == 0:
        out.pop()
    return out


def _poly_mul(p: list[int], q: list[int]) -> list[int]:
    """Product of two coefficient lists, trailing zeros stripped."""
    out = [0] * (len(p) + len(q))
    for i, a in enumerate(p):
        for j, b in enumerate(q):
            out[i + j] += a * b
    return _poly_add(out, [])


def lexfirst_numerator(ideal: MonomialIdeal) -> list[int]:
    """The Hilbert-series numerator of R/I by the pivot recursion with another
    pivot rule: the smallest-index variable of a non-pure-power generator, at
    the least positive exponent it takes there."""
    k = ideal.k

    def numerator(gens: tuple) -> list[int]:
        mixed = [g for g in gens if sum(1 for e in g if e) > 1]
        if not mixed:  # pure powers and 1 are pairwise coprime
            result = [1]
            for g in gens:
                result = _poly_mul(result, _poly_add([1], [0] * sum(g) + [-1]))
            return result
        j = min(min(i for i, e in enumerate(g) if e) for g in mixed)
        e = min(g[j] for g in mixed if g[j] > 0)
        pivot = tuple(e if i == j else 0 for i in range(k))
        colon = minimalize(tuple(max(a - b, 0) for a, b in zip(g, pivot)) for g in gens)
        return _poly_add(numerator(minimalize(gens + (pivot,))), [0] * e + numerator(colon))

    return [] if ideal.is_unit else numerator(ideal.exps)


@dataclass(frozen=True)
class OrthantClass:
    """A class of multidegrees: negative support T plus the value of every
    coordinate outside T."""

    negative: frozenset[int]
    clamped: tuple  # entry j is None for j in T, else an int in [0, rho_j - 1]


def extend_kill_masks(kill_masks: tuple[int, ...], gen_exps, j: int, a_j: int) -> tuple[int, ...]:
    """Kill masks after coordinate j takes the value a_j (-1 for j in T): bit j
    is set for each generator g with g_j > a_j."""
    bit = 1 << j
    return tuple(m | bit if exps[j] > a_j else m for m, exps in zip(kill_masks, gen_exps))


def full_scan_class_dims(k: int, t_mask: int, kill_masks) -> tuple[int, ...]:
    """Cohomology dimensions (h^0..h^k) of one degree's Cech complex, with no
    shortcut: every subset F of the coordinates is tested, and every
    differential between nonempty groups is ranked.

    F carries a basis element iff T lies inside F and no kill mask lies inside
    F; the differentials are the alternating-sign inclusion maps."""
    alive_by_card: list[list[int]] = [[] for _ in range(k + 1)]
    for f_mask in range(1 << k):
        if not t_mask & ~f_mask and all(m & ~f_mask for m in kill_masks):
            alive_by_card[bin(f_mask).count("1")].append(f_mask)

    ranks = [0] * (k + 1)  # rank of d_i : C^i -> C^(i+1)
    for i in range(k):
        source, target = alive_by_card[i], alive_by_card[i + 1]
        if source and target:
            # F -> F + {j} carries the sign (-1)^#{coordinates of F below j}
            ranks[i] = fraction_rank([
                [(-1) ** bin(f & ((g ^ f) - 1)).count("1") if f & g == f else 0 for g in target]
                for f in source
            ])
    return tuple(
        len(alive_by_card[i]) - ranks[i] - (ranks[i - 1] if i else 0) for i in range(k + 1)
    )


def antichains(k: int) -> list[tuple[int, ...]]:
    """Every antichain of subsets of k coordinates, as tuples of bitmasks, with
    the empty antichain and the one holding the empty set: 2, 3, 6, 20, 168
    and 7581 of them for k = 0..5 (the Dedekind numbers)."""
    found = []

    def extend(start: int, chosen: list[int]):
        found.append(tuple(chosen))
        for mask in range(start, 1 << k):
            if all(mask & c not in (c, mask) for c in chosen):
                chosen.append(mask)
                extend(mask + 1, chosen)
                chosen.pop()

    extend(0, [])
    return found


def cech_class_cohomology(ideal: MonomialIdeal, cls: OrthantClass) -> tuple[int, ...]:
    """Dimensions (h^0..h^k) of the per-degree Cech complex at one orthant class."""
    if ideal.is_unit:
        raise ZeroRing("the zero ring has no local cohomology")
    kill_masks = (0,) * len(ideal.exps)
    for j in range(ideal.k):
        a_j = -1 if j in cls.negative else cls.clamped[j]
        kill_masks = extend_kill_masks(kill_masks, ideal.exps, j, a_j)
    return full_scan_class_dims(ideal.k, sum(1 << j for j in cls.negative), kill_masks)


def degree_box_top(table: CohomologyTable) -> int:
    """h^i(R)_n = 0 for every i once n exceeds this value."""
    return sum(r - 1 for r in table.rho)


def aggregated(entries) -> dict[tuple[int, int], dict[int, int]]:
    """Per-class entries (clamp sum, |T|, dims) summed into the shape of
    CohomologyTable.classes: (i, |T|) -> {clamp sum: h^i}, nonzero values only."""
    classes: dict[tuple[int, int], dict[int, int]] = {}
    for clamp_sum, t_size, dims in entries:
        for i, dim in enumerate(dims):
            if dim:
                group = classes.setdefault((i, t_size), {})
                group[clamp_sum] = group.get(clamp_sum, 0) + dim
    return classes


def exhaustive_cohomology_table(ideal: MonomialIdeal) -> CohomologyTable:
    """The cohomology table summed over every orthant class one at a time:
    every negative support T and every value 0..rho_j - 1 of each coordinate
    outside T."""
    rho = ideal.max_exponents()
    entries = []
    for clamped in product(*([None, *range(r)] for r in rho)):
        negative = frozenset(j for j, v in enumerate(clamped) if v is None)
        dims = cech_class_cohomology(ideal, OrthantClass(negative, clamped))
        entries.append((sum(v for v in clamped if v is not None), len(negative), dims))
    return CohomologyTable(ideal.k, rho, aggregated(entries))


def reference_rows(table: CohomologyTable, lo: int, hi: int) -> list[list[int]]:
    """[i, n, h^i(R)_n] for the nonzero values with lo <= n <= hi, ordered by i
    and then n, with one closed-form count per (term, n): the multidegrees of
    total degree n in a class with clamp sum s and |T| = t number
    C(s - n - 1, t - 1) when s - n >= t > 0, and one at n = s when t = 0."""
    values: dict[tuple[int, int], int] = {}
    for (i, t_size), group in table.classes.items():
        for clamp_sum, v in group.items():
            for n in range(lo, min(hi, clamp_sum - t_size) + 1):
                s = clamp_sum - n
                count = int(s == 0) if t_size == 0 else comb(s - 1, t_size - 1)
                values[i, n] = values.get((i, n), 0) + v * count
    return [[i, n, v] for (i, n), v in sorted(values.items()) if v]


def times_monomial(p: PolyElement, exps: tuple) -> PolyElement:
    return PolyElement(p.k, {tuple(a + b for a, b in zip(t, exps)): c for t, c in p.terms.items()})


def expanded_product(polys, ideal: MonomialIdeal) -> list:
    """The generators {q*g} of (polys)*M, one per polynomial and generator."""
    return [times_monomial(p, g) for p in polys for g in ideal.exps]


def _images(a_gens, b_gens, k: int, N: int):
    algebra = TruncatedAlgebra(k, N)
    return ideal_image(a_gens, algebra), ideal_image(b_gens, algebra)


def ideal_equal_mod(a_gens, b_gens, k: int, N: int) -> bool:
    """Whether the two ideals have the same image in S/m^(N+1)."""
    a, b = _images(a_gens, b_gens, k, N)
    return a.dim == b.dim and echelon_contains_all(a, b)


def contains_mod(a_gens, b_gens, k: int, N: int) -> bool:
    """Whether the image of B lies inside the image of A in S/m^(N+1)."""
    a, b = _images(a_gens, b_gens, k, N)
    return echelon_contains_all(a, b)


def subspace_length_between(a_gens, b_gens, k: int, N: int) -> int:
    """ell(A/B) for ideals B inside A, provided m^(N+1) lies in B."""
    a, b = _images(a_gens, b_gens, k, N)
    if not echelon_contains_all(a, b):
        raise ContainmentViolation("second ideal is not contained in the first")
    return a.dim - b.dim


def apery_count(S: NumericalSemigroup, a: int) -> int:
    """#(S \\ (a + S)): the number of Apery elements of a in S."""
    if not S.contains(a) or a <= 0:
        raise ValueError("Apery count needs a positive element of S")
    bound = S.conductor + a
    return sum(1 for s in S.elements_upto(bound - 1) if not S.contains(s - a))


# -- a set-based semigroup engine: the reference for the bitset engine --------


def sieve_semigroup(gens, horizon: int) -> frozenset:
    """The elements of the semigroup <gens> up to `horizon`, by a membership sieve."""
    member = [True] + [False] * horizon
    for n in range(1, horizon + 1):
        member[n] = any(n >= a and member[n - a] for a in gens)
    return frozenset(n for n, m in enumerate(member) if m)


@dataclass(frozen=True)
class SetIdeal:
    """An ideal of S as the set of its elements up to `valid`, exact there;
    `S` holds the semigroup's elements up to a horizon at least `valid`."""

    S: frozenset
    elements: frozenset
    valid: int

    @classmethod
    def generated(cls, S: frozenset, gens, horizon: int) -> "SetIdeal":
        return cls(S, frozenset(g + s for g in gens for s in S if g + s <= horizon), horizon)

    def sumset(self, gens) -> "SetIdeal":
        """E + (gens + S) = {e + g : e in E, g in gens}, as E + S = E."""
        return SetIdeal(self.S, frozenset(e + g for e in self.elements for g in gens
                                          if e + g <= self.valid), self.valid)

    def is_ideal(self, semigroup_gens) -> bool:
        """E + a inside E for every generator a of S, up to `valid` (above the
        threshold the set is full up to `valid`)."""
        below = self.threshold()
        return all(e + a in self.elements or e + a > self.valid
                   for e in self.elements if e < below for a in semigroup_gens)

    def translate(self, shift: int) -> "SetIdeal":
        return SetIdeal(self.S, frozenset(e + shift for e in self.elements
                                          if e + shift <= self.valid), self.valid)

    def colon(self, gens) -> "SetIdeal":
        """{z in S : z + g in self for every g in gens}, the definition of
        (self : (gens)) for an ideal self."""
        valid = self.valid - max(gens)
        return SetIdeal(self.S, frozenset(z for z in self.S if z <= valid
                                          and all(z + g in self.elements for g in gens)), valid)

    def intersection(self, other: "SetIdeal") -> "SetIdeal":
        valid = min(self.valid, other.valid)
        both = self.elements & other.elements
        return SetIdeal(self.S, frozenset(e for e in both if e <= valid), valid)

    def threshold(self) -> int:
        """The least c with [c, valid] inside the set."""
        return 1 + max((n for n in range(self.valid + 1) if n not in self.elements), default=-1)

    def length(self) -> int:
        """#(S minus E), counted; exact when the threshold is below `valid`."""
        return sum(1 for s in self.S if s <= self.valid and s not in self.elements)

    def minimal_generators(self, below: int) -> list[int]:
        """The z < below in E with no w != z in E and z - w in S, by brute force."""
        low = sorted(e for e in self.elements if e < below)
        return [z for z in low if not any(w < z and z - w in self.S for w in low)]


def least_full_degree(gens, k: int, N: int):
    """Least 1 <= t < N with every degree-t monomial in the image of the ideal
    in S/m^(N+1), read off the whole image (None if there is none)."""
    algebra = TruncatedAlgebra(k, N)
    image = ideal_image(gens, algebra)
    for t in range(1, N):
        if degree_in_span(algebra, image, t):
            return t
    return None


def reduction_colength(reduction, k: int, max_t: int = 40) -> int:
    """ell(R/J) through a certified truncation of J and a fresh image at t - 1."""
    gens = reduction_polys(reduction)
    t, _ = certified_truncation(gens, k, max_t)
    algebra = TruncatedAlgebra(k, t - 1)
    return len(algebra.monomials) - ideal_image(gens, algebra).dim


def prop34_lengths(ideal: MonomialIdeal, reduction, max_t: int = 40) -> tuple[int, int]:
    """(ell(R/J), ell(I^2/JI)), each on its own certificate, with JI given by
    its expanded generators."""
    ji = expanded_product(reduction_polys(reduction), ideal)
    t, _ = certified_truncation(ji, ideal.k, max_t)
    algebra = TruncatedAlgebra(ideal.k, t - 1)
    ell_i2_ji = len(ideal_columns(algebra, ideal.power(2), t - 1)) - ideal_image(ji, algebra).dim
    return reduction_colength(reduction, ideal.k, max_t), ell_i2_ji


def monomial_reduction_number(
    ideal: MonomialIdeal, monomial_reduction: MonomialIdeal, n_bound: int = 64
) -> int:
    """Least n with J*I^n = I^(n+1) for a monomial J, compared generator by
    generator inside the monomial world."""
    power = MonomialIdeal.unit(ideal.k)
    for n in range(n_bound + 1):
        nxt = power * ideal
        if monomial_reduction * power == nxt:
            return n
        power = nxt
    raise NotAReduction(f"not a reduction within n <= {n_bound}")


def scanned_reduction_number(reduction, ideal: MonomialIdeal, n_bound: int) -> int:
    """Least n with J*I^n = I^(n+1) as `filtration.reduction_number_wrt`
    decides each level, but with every level ranked from n = 0 on, whatever
    the generator count of J."""
    cache = power_cache(ideal)
    for n in range(n_bound + 1):
        columns = {w: j for j, w in enumerate(cache.power(n + 1).exps)}
        ech = Echelon()
        for row in _product_rows(reduction, cache.power(n).exps, columns):
            ech.add(row)
        if ech.dim == len(columns):
            return n
    raise NotAReduction(f"not a reduction within n <= {n_bound}")


def truncated_reduction_number(reduction, ideal: MonomialIdeal, n_bound=None,
                               extra_truncation: int = 0) -> int:
    """Least n with J*I^n = I^(n+1), decided by comparing image dimensions in
    S/m^(t+1), with t the least degree such that m^t lies in I^(n+1) (plus
    `extra_truncation`); by Nakayama equality there is equality of ideals."""
    if n_bound is None:
        n_bound = multiplicity_samuel(ideal) + 2
    cache = power_cache(ideal)
    for n in range(n_bound + 1):
        nxt = cache.power(n + 1)
        t = nxt.smallest_contained_m_power() + extra_truncation
        algebra = TruncatedAlgebra(ideal.k, t)
        jin = PolyProduct(reduction_polys(reduction), cache.power(n))
        if ideal_image(jin, algebra).dim == len(ideal_columns(algebra, nxt, t)):
            return n
    raise NotAReduction(f"not a reduction within n <= {n_bound}")


def all_vv_levels(ideal: MonomialIdeal, reduction, r: int) -> list:
    """Every Valabrega-Valla level n = 1..r + 1, each computed in full, up to
    the first that fails.  All four colengths are read in S/m^t, t the least
    degree certified with m^t inside J*I^(n-1): J*I^(n-1) lies in J, in I^n and
    in J + I^n, so their colengths there are the true ones."""
    cache = power_cache(ideal)
    max_deg = max(map(sum, ideal.exps))
    gens = reduction_polys(reduction)
    levels = []
    for n in range(1, r + 2):
        prod_gens = PolyProduct(gens, cache.power(n - 1))
        power_gens = list(cache.power(n).exps)
        t, _ = certified_truncation(prod_gens, ideal.k, max(max_deg * (n + 2), 8))
        algebra = TruncatedAlgebra(ideal.k, t - 1)

        def colength(gens):
            return len(algebra.monomials) - ideal_image(gens, algebra).dim

        levels.append(VVLevel(
            t=t,
            ell_prod=colength(prod_gens),
            ell_sum=colength(gens + power_gens),
            ell_power=colength(power_gens),
            ell_j=colength(gens),
        ))
        if not levels[-1].holds:
            break
    return levels


# -- the tuple engine's filtration: the reference for the bitset powers ------


def tuple_powers(ideal: MonomialIdeal, top: int) -> list[MonomialIdeal]:
    """I^0, ..., I^top as products of exponent tuples."""
    powers = [MonomialIdeal.unit(ideal.k), ideal]
    tuple_power(powers, top)
    return powers[: top + 1]


def tuple_power(powers: list[MonomialIdeal], n: int) -> MonomialIdeal:
    """I^n from the list I^0, I^1, ..., extended in place as far as n."""
    while len(powers) <= n:
        powers.append(powers[-1] * powers[1])
    return powers[n]


def tuple_ratliff_rush(powers: list[MonomialIdeal], p: int) -> MonomialIdeal:
    """The Ratliff-Rush chain of `filtration.ratliff_rush` for I^p, with the
    members I^(p+n) : I^n taken as tuple colons of `tuple_power`."""
    chain = [tuple_power(powers, p)]
    for n in range(1, RR_MAX_STEPS + 1):
        chain.append(tuple_power(powers, p + n).colon(tuple_power(powers, n)))
        if n >= 2 and chain[-3] == chain[-2] == chain[-1]:
            return chain[-3]
    raise ComputationError(f"Ratliff-Rush chain did not stabilize in {RR_MAX_STEPS} steps")


def tuple_layer(powers: list[MonomialIdeal], n: int) -> list[tuple[int, ...]]:
    """The monomials of I^n outside I^(n+1), in (degree, exps) order."""
    inner = set(standard_monomials(powers[n])) if n else set()  # R/I^0 = 0
    return [u for u in standard_monomials(powers[n + 1]) if u not in inner]


def tuple_h_vector(ideal: MonomialIdeal, reduction: Reduction, r: int) -> list[int]:
    """h_0, ..., h_r of G/J*G as `filtration.cm_h_vector` defines them (without
    its early stop), from tuple powers and their standard monomials."""
    powers = tuple_powers(ideal, r + 1)
    h = [powers[1].quotient_length()]
    for n in range(1, r + 1):
        layer = tuple_layer(powers, n)
        ech = Echelon()
        for row in _product_rows(reduction, tuple_layer(powers, n - 1),
                                 {u: j for j, u in enumerate(layer)}):
            ech.add(row)
        h.append(len(layer) - ech.dim)
    return h
