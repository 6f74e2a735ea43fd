"""Brute-force reference computations used as independent test oracles."""

from dataclasses import dataclass
from fractions import Fraction
from itertools import product

from monograded.errors import ContainmentViolation, NotAReduction, ZeroRing
from monograded.cohomology import CohomologyTable, _class_dims, _extend_kill_masks
from monograded.filtration import VVLevel, multiplicity_samuel, power_cache
from monograded.hilbert import padd, pmul, pshift
from monograded.monomials import MonomialIdeal, minimalize
from monograded.semigroup import NumericalSemigroup
from monograded.truncation import (
    PolyElement,
    PolyProduct,
    TruncatedAlgebra,
    certified_truncation,
    ideal_image,
)


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
