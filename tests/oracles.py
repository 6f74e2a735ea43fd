"""Brute-force reference computations used as independent test oracles."""

from fractions import Fraction
from itertools import product

from monograded.errors import NotAReduction
from monograded.cohomology import CohomologyTable, OrthantClass, cech_class_cohomology
from monograded.monomials import Monomial, MonomialIdeal
from monograded.truncation import (
    TruncatedAlgebra,
    certified_truncation,
    ideal_image,
    monomial_image_dim,
)


def monomials_upto(k: int, bound: int):
    """All exponent vectors with every coordinate at most `bound` and total
    degree at most `bound` (a convenient finite test window)."""
    for exps in product(range(bound + 1), repeat=k):
        if sum(exps) <= bound:
            yield Monomial(exps)


def box_standard_count(ideal: MonomialIdeal) -> int:
    """ell(R/I) by direct enumeration of the bounding box."""
    bounds = ideal.pure_power_bounds()
    count = 0
    for exps in product(*(range(b) for b in bounds)):
        if not ideal.contains_monomial(Monomial(exps)):
            count += 1
    return count


def brute_colon_matches(ideal: MonomialIdeal, other: MonomialIdeal, computed: MonomialIdeal, bound: int) -> bool:
    """Membership-level check of computed = (ideal : other) up to a degree bound."""
    for m in monomials_upto(ideal.k, bound):
        in_colon = all(ideal.contains_monomial(m * g) for g in other.gens)
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


def expanded_product(polys, ideal: MonomialIdeal) -> list:
    """The generators {q*g} of (polys)*M, one per polynomial and generator."""
    return [p.times_monomial(g.exps) for p in polys for g in ideal.gens]


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
    ell_i2_ji = monomial_image_dim(ideal.power(2), t - 1) - ideal_image(ji, algebra).dim
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
