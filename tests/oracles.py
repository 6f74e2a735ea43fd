"""Brute-force reference computations used as independent test oracles."""

from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from operator import add

from monograded.errors import ComputationError, ContainmentViolation, NotAReduction, ZeroRing
from monograded.cohomology import CohomologyTable, _class_dims, _extend_kill_masks
from monograded.filtration import _product_rows, power_cache, reduction_number_wrt
from monograded.hilbert import padd, pmul, pshift
from monograded.monomials import MonomialIdeal, minimalize
from monograded.semigroup import NumericalSemigroup
from monograded.truncation import Echelon, PolyElement, TruncatedAlgebra


def multiplicity_samuel(ideal: MonomialIdeal, n_bound: int | None = None) -> int:
    """Hilbert-Samuel multiplicity from the colength sequence ell(R/I^n).

    The d-th finite differences must take one value on d+2 consecutive windows
    and that value must survive two further verification points.  This is a
    stabilization rule, not a proof.
    """
    d = ideal.k
    if n_bound is None:
        n_bound = 6 * d + 14
    cache = power_cache(ideal)
    values = [cache.colength(0), cache.colength(1)]
    while len(values) <= n_bound:
        values.append(cache.colength(len(values)))
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


class PolyProduct:
    """The ideal (polys)*M, kept factored: spanned by q*w for q in the nonzero
    polys (or exponent tuples) and w a monomial of the monomial ideal M (None:
    the unit ideal)."""

    __slots__ = ("polys", "ideal")

    def __init__(self, polys, ideal: MonomialIdeal | None):
        polys = (p if isinstance(p, PolyElement) else PolyElement.from_monomial(p) for p in polys)
        self.polys = [p for p in polys if not p.is_zero]
        self.ideal = ideal


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
    factors = [(p.integer_terms(), algebra.columns_below_degree(N + 1 - p.min_degree))
               for p in product.polys]
    least = min(p.min_degree for p in product.polys)
    t = 1  # the next degree to test for fullness
    for col in algebra.ideal_columns(product.ideal, N - least):
        w = monomials[col]
        while until_full_degree and t < min(sum(w) + least, N):
            if algebra.degree_in_span(ech, t):
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
            if algebra.degree_in_span(ech, t):  # ell(S/(A+m^t)) = ell(S/(A+m^(t+1)))
                dim = ech.pivots_below(algebra.columns_below_degree(t))
                return t, {"t": t, "stable_length": algebra.columns_below_degree(t) - dim,
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
    polys = [p.integer_terms() for p in reduction.gens]
    levels = []
    for n in range(1, max(r, 1) + 1):
        prod_gens = PolyProduct(reduction.gens, cache.power(n - 1))
        t, proof = certified_truncation(prod_gens, ideal.k, max(max_deg * (n + 2), 8))
        ell_prod, ell_power = proof["stable_length"], cache.colength(n)
        if n == 1:  # J*I^0 = J, and J + I = I as J lies in I
            ell_j, ell_sum = ell_prod, ell_power
        else:
            standard = cache.power(n).standard_monomials()
            ech = Echelon()
            for row in _product_rows(polys, standard, {u: j for j, u in enumerate(standard)}):
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


def pure_power_variable(exps: tuple):
    """Index of the single supported variable, or None if not a pure power."""
    support = [j for j, e in enumerate(exps) if e]
    return support[0] if len(support) == 1 else None


def box_standard_count(ideal: MonomialIdeal) -> int:
    """ell(R/I) by direct enumeration of the bounding box."""
    bounds = ideal.pure_power_bounds()
    count = 0
    for exps in product(*(range(b) for b in bounds)):
        if not ideal.contains_monomial(exps):
            count += 1
    return count


def brute_colon_matches(ideal: MonomialIdeal, other: MonomialIdeal, computed: MonomialIdeal, bound: int) -> bool:
    """Membership-level check of computed = (ideal : other) up to a degree bound."""
    for m in monomials_upto(ideal.k, bound):
        in_colon = all(
            ideal.contains_monomial(tuple(a + b for a, b in zip(m, g))) for g in other.exps
        )
        if in_colon != computed.contains_monomial(m):
            return False
    return True


def brute_intersection_matches(a: MonomialIdeal, b: MonomialIdeal, computed: MonomialIdeal, bound: int) -> bool:
    for m in monomials_upto(a.k, bound):
        both = a.contains_monomial(m) and b.contains_monomial(m)
        if both != computed.contains_monomial(m):
            return False
    return True


def fraction_rank(rows: list[list]) -> int:
    """Rank over Q by plain Gaussian elimination with Fractions."""
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
        for i in range(len(rows)):
            if i != rank and rows[i][col]:
                factor = rows[i][col]
                rows[i] = [x - factor * y for x, y in zip(rows[i], rows[rank])]
        rank += 1
    return rank


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
                result = pmul(result, padd([1], pshift([-1], sum(g))))
            return result
        j = min(min(i for i, e in enumerate(g) if e) for g in mixed)
        e = min(g[j] for g in mixed if g[j] > 0)
        pivot = tuple(e if i == j else 0 for i in range(k))
        colon = minimalize(tuple(max(a - b, 0) for a, b in zip(g, pivot)) for g in gens)
        return padd(numerator(minimalize(gens + (pivot,))), pshift(numerator(colon), e))

    return [] if ideal.is_unit else numerator(ideal.exps)


@dataclass(frozen=True)
class OrthantClass:
    """A class of multidegrees: negative support T plus the value of every
    coordinate outside T."""

    negative: frozenset[int]
    clamped: tuple  # entry j is None for j in T, else an int in [0, rho_j - 1]


def cech_class_cohomology(ideal: MonomialIdeal, cls: OrthantClass) -> tuple[int, ...]:
    """Dimensions (h^0..h^k) of the per-degree Cech complex at one orthant class."""
    if ideal.is_unit:
        raise ZeroRing("the zero ring has no local cohomology")
    kill_masks = (0,) * len(ideal.exps)
    for j in range(ideal.k):
        a_j = -1 if j in cls.negative else cls.clamped[j]
        kill_masks = _extend_kill_masks(kill_masks, ideal.exps, j, a_j)
    return _class_dims(ideal.k, sum(1 << j for j in cls.negative), kill_masks)


def degree_box_top(table: CohomologyTable) -> int:
    """h^i(R)_n = 0 for every i once n exceeds this value."""
    return sum(r - 1 for r in table.rho)


def exhaustive_cohomology_table(ideal: MonomialIdeal) -> CohomologyTable:
    """The cohomology table with one entry per orthant class: every negative
    support T and every value 0..rho_j - 1 of each coordinate outside T."""
    rho = ideal.max_exponents()
    classes = []
    for clamped in product(*([None, *range(r)] for r in rho)):
        negative = frozenset(j for j, v in enumerate(clamped) if v is None)
        dims = cech_class_cohomology(ideal, OrthantClass(negative, clamped))
        if any(dims):
            classes.append((sum(v for v in clamped if v is not None), len(negative), dims))
    return CohomologyTable(ideal.k, rho, classes)


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
    return a.dim == b.dim and a.contains_all(b)


def contains_mod(a_gens, b_gens, k: int, N: int) -> bool:
    """Whether the image of B lies inside the image of A in S/m^(N+1)."""
    a, b = _images(a_gens, b_gens, k, N)
    return a.contains_all(b)


def subspace_length_between(a_gens, b_gens, k: int, N: int) -> int:
    """ell(A/B) for ideals B inside A, provided m^(N+1) lies in B."""
    a, b = _images(a_gens, b_gens, k, N)
    if not a.contains_all(b):
        raise ContainmentViolation("second ideal is not contained in the first")
    return a.dim - b.dim


def apery_count(S: NumericalSemigroup, a: int) -> int:
    """#(S \\ (a + S)): the number of Apery elements of a in S."""
    if not S.contains(a) or a <= 0:
        raise ValueError("Apery count needs a positive element of S")
    bound = S.conductor + a
    return sum(1 for s in S.elements_upto(bound - 1) if not S.contains(s - a))


def least_full_degree(gens, k: int, N: int):
    """Least 1 <= t < N with every degree-t monomial in the image of the ideal
    in S/m^(N+1), read off the whole image (None if there is none)."""
    algebra = TruncatedAlgebra(k, N)
    image = ideal_image(gens, algebra)
    for t in range(1, N):
        lo, hi = algebra.columns_below_degree(t), algebra.columns_below_degree(t + 1)
        if image.pivots_below(hi) - image.pivots_below(lo) == hi - lo:
            return t
    return None


def reduction_colength(reduction, k: int, max_t: int = 40) -> int:
    """ell(R/J) through a certified truncation of J and a fresh image at t - 1."""
    t, _ = certified_truncation(reduction.gens, k, max_t)
    algebra = TruncatedAlgebra(k, t - 1)
    return algebra.dimension - ideal_image(reduction.gens, algebra).dim


def prop34_lengths(ideal: MonomialIdeal, reduction, max_t: int = 40) -> tuple[int, int]:
    """(ell(R/J), ell(I^2/JI)), each on its own certificate, with JI given by
    its expanded generators."""
    ji = expanded_product(reduction.gens, ideal)
    t, _ = certified_truncation(ji, ideal.k, max_t)
    algebra = TruncatedAlgebra(ideal.k, t - 1)
    ell_i2_ji = len(algebra.ideal_columns(ideal.power(2), t - 1)) - ideal_image(ji, algebra).dim
    return reduction_colength(reduction, ideal.k, max_t), ell_i2_ji


def monomial_reduction_number(
    ideal: MonomialIdeal, monomial_reduction: MonomialIdeal, n_bound: int = 64
) -> int:
    """Least n with J*I^n = I^(n+1) for a monomial J, compared generator by
    generator inside the monomial world."""
    power = MonomialIdeal.unit(ideal.k, ideal.names)
    for n in range(n_bound + 1):
        nxt = power * ideal
        if monomial_reduction * power == nxt:
            return n
        power = nxt
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
        jin = PolyProduct(reduction.gens, cache.power(n))
        if ideal_image(jin, algebra).dim == len(algebra.ideal_columns(nxt, t)):
            return n
    raise NotAReduction(f"not a reduction within n <= {n_bound}")


def all_vv_levels(ideal: MonomialIdeal, reduction, r: int) -> list:
    """Every Valabrega-Valla level n = 1..r + 1, each computed in full, up to
    the first that fails.  All four colengths are read in S/m^t, t the least
    degree certified with m^t inside J*I^(n-1): J*I^(n-1) lies in J, in I^n and
    in J + I^n, so their colengths there are the true ones."""
    cache = power_cache(ideal)
    max_deg = max(map(sum, ideal.exps))
    levels = []
    for n in range(1, r + 2):
        prod_gens = PolyProduct(reduction.gens, cache.power(n - 1))
        power_gens = list(cache.power(n).exps)
        t, _ = certified_truncation(prod_gens, ideal.k, max(max_deg * (n + 2), 8))
        algebra = TruncatedAlgebra(ideal.k, t - 1)

        def colength(gens):
            return algebra.dimension - ideal_image(gens, algebra).dim

        levels.append(VVLevel(
            t=t,
            ell_prod=colength(prod_gens),
            ell_sum=colength(reduction.gens + power_gens),
            ell_power=colength(power_gens),
            ell_j=colength(reduction.gens),
        ))
        if not levels[-1].holds:
            break
    return levels
