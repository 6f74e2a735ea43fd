"""Invariants of the I-adic filtration of an m-primary monomial ideal.

The ambient polynomial ring is read as a local ring at the origin.  Ratliff-Rush
closures are colon-stabilizations inside the monomial world, or the powers
themselves once G is certified Cohen-Macaulay; the multiplicity
e(I) is d! times the covolume of the Newton polyhedron; reduction numbers are
exact ranks in the fiber cone (J*I^n = I^(n+1) iff J*I^n spans
I^(n+1)/m*I^(n+1), by Nakayama); the associated graded ring G is
Cohen-Macaulay iff ell(G/J*G) = e(I), each degree of G/J*G an exact rank in
the finite monomial space I^n/I^(n+1).  The fiber cone series, and the
G-series of a G that is not Cohen-Macaulay, are reconstructed from finitely
many length/generator counts: counts are read until their series times
(1 - lambda)^k ends in five zero coefficients, the last two of which check
that the numerator before them predicts the two newest counts (a stopping
rule, not a proof of the tail).
"""

from __future__ import annotations

import random
from functools import lru_cache
from itertools import combinations
from math import gcd
from operator import add, mul, sub

from .errors import ComputationError, NotAReduction
from .hilbert import HilbertSeries, reconstruct_series
from .monomials import MonomialIdeal
from .truncation import Echelon

# Steps of the Ratliff-Rush chain before giving up, and extra samples per
# reduction-number trial whose candidate fails the n-bound.
RR_MAX_STEPS = 64
RESAMPLES = 4


# A candidate reduction: d integer combinations of the minimal generators, each
# a tuple of (exponent tuple, coefficient) terms.
Reduction = list[tuple[tuple[tuple[int, ...], int], ...]]


class PowerCache:
    """Successive powers of an ideal and their colengths, computed once."""

    def __init__(self, ideal: MonomialIdeal):
        self.ideal = ideal
        self._powers = [MonomialIdeal.unit(ideal.k)]
        self._lengths: list[int] = [0]

    def power(self, n: int) -> MonomialIdeal:
        while len(self._powers) <= n:
            self._powers.append(self._powers[-1] * self.ideal)
        return self._powers[n]

    def colength(self, n: int) -> int:
        while len(self._lengths) <= n:
            self._lengths.append(self.power(len(self._lengths)).quotient_length())
        return self._lengths[n]


@lru_cache(maxsize=512)
def power_cache(ideal: MonomialIdeal) -> PowerCache:
    """Shared per-ideal cache of powers and colengths."""
    return PowerCache(ideal)


@lru_cache(maxsize=256)
def ratliff_rush(ideal: MonomialIdeal, power: int = 1) -> MonomialIdeal:
    """Ratliff-Rush closure of I^power, the union of the increasing chain
    (I^(power+n) : I^n), taken at the first repeat plus one confirming step:
    the first n >= 1 with members n - 1, n, n + 1 equal (member 0 is I^power).
    A chain can plateau and grow again, so this stopping rule is not a proof.
    `filtration_report` runs it only when G is not certified Cohen-Macaulay
    (when it is, every power of I is closed; Heinzer-Lantz-Shah 1992).
    """
    cache = power_cache(ideal)
    chain = [cache.power(power)]
    for n in range(1, RR_MAX_STEPS + 1):
        chain.append(cache.power(power + n).colon(cache.power(n)))
        if n >= 2 and chain[-3] == chain[-2] == chain[-1]:
            return chain[-3]
    raise ComputationError(f"Ratliff-Rush chain did not stabilize in {RR_MAX_STEPS} steps")


def h0_G(ideal: MonomialIdeal, n: int) -> int:
    """ell of the degree-n piece of H^0 of the associated graded ring:
    ell((I^n intersect rr(I^(n+1))) / I^(n+1)), by the heuristic chain of
    `ratliff_rush`.  `filtration_report` calls it only when G is not certified
    Cohen-Macaulay; prop3.3's gamma gate always does."""
    cache = power_cache(ideal)
    inner = cache.power(n).intersection(ratliff_rush(ideal, n + 1))
    return cache.colength(n + 1) - inner.quotient_length()


def gamma_positive(ideal: MonomialIdeal, upto: int) -> bool:
    """Whether h^0(G)_n vanishes for 0 <= n <= upto (the depth G_+ >= 1 gate)."""
    return all(h0_G(ideal, n) == 0 for n in range(upto + 1))


def _det(rows) -> int:
    """Determinant of a square integer matrix by fraction-free (Bareiss)
    elimination; every division is exact."""
    m = [list(row) for row in rows]
    sign, prev = 1, 1
    for i in range(len(m) - 1):
        if not m[i][i]:
            j = next((j for j in range(i + 1, len(m)) if m[j][i]), None)
            if j is None:
                return 0
            m[i], m[j], sign = m[j], m[i], -sign
        for j in range(i + 1, len(m)):
            m[j] = [(v * m[i][i] - m[j][i] * w) // prev for v, w in zip(m[j], m[i])]
        prev = m[i][i]
    return sign * m[-1][-1] if m else 1


def _affine_dim(points) -> int:
    """Dimension of the affine hull of a set of exponent tuples (-1 if empty)."""
    points = list(points)
    ech = Echelon()
    for p in points[1:]:
        ech.add(dict(enumerate(map(sub, p, points[0]))))
    return ech.dim if points else -1


def _pulling(face: frozenset, dim: int, walls):
    """Vertex tuples of a pulling triangulation of conv(face), a face of
    dimension `dim` whose facets are among its intersections with the `walls`:
    the cones from its least point (a vertex) over the facets without it."""
    apex = min(face)
    if dim == 0:
        yield (apex,)
        return
    seen = set()
    for wall in walls:
        facet = face & wall
        if apex not in facet and facet not in seen and _affine_dim(facet) == dim - 1:
            seen.add(facet)
            for simplex in _pulling(facet, dim - 1, walls):
                yield (apex, *simplex)


@lru_cache(maxsize=256)
def newton_multiplicity(ideal: MonomialIdeal) -> int:
    """Hilbert-Samuel multiplicity e(I) = e(integral closure of I) = d! times
    the covolume of the Newton polyhedron conv(exponents) + R^d_>=0 (Teissier,
    "Monomes, volumes et multiplicites", 1988; Huneke-Swanson 2006, ch. 1).

    The region under the polyhedron is the union of the cones from the origin
    over its compact facets, so e(I) is the sum of |det| over the simplices of
    a triangulation of those facets.  A compact facet is the hyperplane through
    d affinely independent generators with a strictly positive primitive normal
    and no generator below it; coplanar generators share one normal.  Every
    other facet lies in a coordinate hyperplane, so the faces of a compact
    facet are its intersections with the compact facets and with the sets
    {g : g_i = 0}.  In one variable e(I) is the least exponent.
    """
    bounds = ideal.pure_power_bounds()  # InfiniteLength unless m-primary
    d, gens = ideal.k, ideal.exps
    if d == 1:
        return bounds[0]
    facets = {}
    for points in combinations(gens, d):
        diffs = [list(map(sub, p, points[0])) for p in points[1:]]
        normal = [(-1) ** j * _det([row[:j] + row[j + 1:] for row in diffs]) for j in range(d)]
        if normal[0] < 0:
            normal = [-v for v in normal]
        if min(normal) <= 0:
            continue
        step = gcd(*normal)
        normal = tuple(v // step for v in normal)
        if normal in facets:
            continue
        values = [sum(map(mul, normal, g)) for g in gens]
        level = sum(map(mul, normal, points[0]))
        if min(values) == level:
            facets[normal] = frozenset(g for g, v in zip(gens, values) if v == level)
    walls = [*facets.values(), *(frozenset(g for g in gens if not g[i]) for i in range(d))]
    return sum(abs(_det(simplex))
               for face in facets.values() for simplex in _pulling(face, d - 1, walls))


def mu(ideal: MonomialIdeal, n: int) -> int:
    """Minimal number of generators of I^n."""
    return power_cache(ideal).power(n).num_generators()


def fiber_cone_series(ideal: MonomialIdeal) -> HilbertSeries:
    """Hilbert series of the fiber cone, reconstructed from the mu(I^n) counts."""
    cache = power_cache(ideal)
    return reconstruct_series(lambda n: cache.power(n).num_generators(), ideal.k)


def G_hilbert_series(ideal: MonomialIdeal) -> HilbertSeries:
    """Hilbert series of the associated graded ring, reconstructed from the
    colength differences ell(I^n / I^(n+1))."""
    cache = power_cache(ideal)
    return reconstruct_series(lambda n: cache.colength(n + 1) - cache.colength(n), ideal.k)


# -- reductions ---------------------------------------------------------


def minimal_reduction(ideal: MonomialIdeal, seed: int, coeff_bound: int = 100) -> Reduction:
    """d = k seeded generic combinations of the minimal generators, with
    integer coefficients in [1, coeff_bound].  In one variable an m-primary
    ideal has one generator, and a multiple of it is the reduction (r = 0)."""
    rng = random.Random(seed)
    return [tuple((g, rng.randint(1, coeff_bound)) for g in ideal.exps) for _ in range(ideal.k)]


def _product_rows(polys, monomials, columns: dict):
    """Rows q*w for each monomial w and integer terms q, kept on `columns`
    (monomial -> column index); terms outside the columns are dropped."""
    for w in monomials:
        for terms in polys:
            row = {}
            for g, c in terms:
                j = columns.get(tuple(map(add, g, w)))
                if j is not None:
                    row[j] = c
            yield row


def reduction_number_wrt(
    reduction: Reduction,
    ideal: MonomialIdeal,
    n_bound: int | None = None,
) -> int:
    """Least n with J*I^n = I^(n+1), decided in the fiber cone F(I).

    J*I^n always lies in I^(n+1), so by Nakayama in the local ring at the origin
    equality holds iff J*I^n spans I^(n+1)/m*I^(n+1), whose basis is the
    minimal generators of I^(n+1).  J*I^n is spanned by q*w, q in J and w a
    minimal generator of I^n; a term c*g*w of q*w is a minimal generator of
    I^(n+1) or lies in m*I^(n+1).  So each level is an exact rank over Q: one
    row per (q, w), one column per minimal generator of I^(n+1).
    """
    if n_bound is None:
        n_bound = newton_multiplicity(ideal) + 2
    cache = power_cache(ideal)
    for n in range(n_bound + 1):
        columns = {w: j for j, w in enumerate(cache.power(n + 1).exps)}
        ech = Echelon()
        for row in _product_rows(reduction, cache.power(n).exps, columns):
            if ech.add(row) and ech.dim == len(columns):
                return n
    raise NotAReduction(f"not a reduction within n <= {n_bound}")


def reduction_number(
    ideal: MonomialIdeal,
    trials: int,
    seed: int = 0,
    coeff_bound: int = 100,
    n_bound: int | None = None,
) -> tuple[int, Reduction, list[dict]]:
    """(r, J, trials): the minimum r of r_J over seeded candidate reductions,
    the first candidate J that reaches it, and one {"seed", "r"} record per
    trial.

    Sampling genericity: correct with high probability over the rationals, and
    each candidate that fails the n-bound is resampled a bounded number of
    times before the trial errors out.
    """
    if trials < 1:
        raise ValueError(f"reduction_number needs at least one trial, got {trials}")
    trials_out = []
    best = None  # (r_J, J) of the first trial that reaches the least r_J
    for trial in range(trials):
        r = None
        for attempt in range(RESAMPLES + 1):
            trial_seed = seed * 1_000_003 + trial * 1_009 + attempt
            candidate = minimal_reduction(ideal, trial_seed, coeff_bound)
            try:
                r = reduction_number_wrt(candidate, ideal, n_bound=n_bound)
            except NotAReduction:
                continue
            trials_out.append({"seed": trial_seed, "r": r})
            break
        if r is None:
            raise NotAReduction(
                f"trial {trial}: no reduction found in {RESAMPLES + 1} samples"
            )
        if best is None or r < best[0]:
            best = r, candidate
    return (*best, trials_out)


# -- Cohen-Macaulayness of G ------------------------------------------------


def cm_h_vector(ideal: MonomialIdeal, reduction: Reduction, r: int) -> tuple[bool, list[int]]:
    """(is_cm, h): whether G = gr_I(R) is Cohen-Macaulay, decided by the
    colength of G/J*G, where J* holds the initial forms in I/I^2 of the
    reduction J and `r` must be r_J(I) of this reduction.

    J* is a degree-one system of parameters of G, so ell(G/J*G) >= e(G) = e(I),
    with equality iff G is Cohen-Macaulay (Bruns-Herzog, *Cohen-Macaulay
    Rings*, sec. 4.7).  Its degree-n piece has length h_n = ell(I^n/(J*I^(n-1) +
    I^(n+1))): |I^n minus I^(n+1)| less the rank of the rows q*w, q in J and w a
    monomial of I^(n-1) outside I^n, on the monomials of I^n outside I^(n+1).
    h_n = 0 for n > r, and h_n >= 1 for n <= r (h_n = 0 would give I^n =
    J*I^(n-1) by Nakayama), so the test stops, not Cohen-Macaulay, once
    h_0 + ... + h_n + (r - n) > e.  When r <= 1, JI = I^2 and G is
    Cohen-Macaulay with h = (ell(R/I), e - ell(R/I)) (just ell(R/I) = e when
    r = 0).  When G is Cohen-Macaulay, its Hilbert series is h/(1 - l)^d.
    """
    e = newton_multiplicity(ideal)
    cache = power_cache(ideal)
    h = [cache.colength(1)]
    if r <= 1:
        return True, h + [e - h[0]] * r
    standard = cache.power(1).standard_monomials()
    below = standard  # the monomials of I^(n-1) outside I^n
    for n in range(1, r + 1):
        if sum(h) + r - (n - 1) > e:
            return False, h
        inner = set(standard)
        standard = cache.power(n + 1).standard_monomials()
        layer = [u for u in standard if u not in inner]
        ech = Echelon()
        for row in _product_rows(reduction, below, {u: j for j, u in enumerate(layer)}):
            ech.add(row)
        h.append(len(layer) - ech.dim)
        below = layer
    return sum(h) == e, h


# -- assembled report ---------------------------------------------------


def filtration_report(
    ideal: MonomialIdeal,
    names=None,
    trials: int = 3,
    seed: int = 0,
    coeff_bound: int = 100,
    n_bound: int | None = None,
    powers: int = 4,
) -> dict:
    """Everything the reduction CLI reports for one ideal, whose ideals are
    printed in the variable `names` (the defaults of `ring_names` when None).
    a(G) = deg h - d is given only when G is Cohen-Macaulay.

    A certified Cohen-Macaulay G of dimension d >= 1 has grade G_+ = d >= 1,
    so every power of I is Ratliff-Rush closed (W. Heinzer, D. Lantz, K. Shah,
    "The Ratliff-Rush ideals in a Noetherian ring", Comm. Algebra 20, 1992):
    the closures are I^n and h^0(G)_n = ell((I^n cap I^(n+1)) / I^(n+1)) = 0,
    with proof.  The chain of `ratliff_rush` lies between I^n and its closure,
    so it would return the same I^n; it runs only when G is not certified.
    """
    cache = power_cache(ideal)
    r, reduction, trial_list = reduction_number(
        ideal, trials=trials, seed=seed, coeff_bound=coeff_bound, n_bound=n_bound
    )
    certified, h = cm_h_vector(ideal, reduction, r)
    closure = cache.power if certified else lambda n: ratliff_rush(ideal, n)
    return {
        "ideal": ideal.format(names),
        "e": newton_multiplicity(ideal),
        "colengths": [cache.colength(n) for n in range(powers + 1)],
        "ratliff_rush": [closure(n).format(names) for n in range(1, powers + 1)],
        "mu": [mu(ideal, n) for n in range(1, powers + 1)],
        "h0_G": [0 if certified else h0_G(ideal, n) for n in range(powers)],
        "G_numerator": h if certified else G_hilbert_series(ideal).numerator,
        "trials": trial_list,
        "r": r,
        "vv_certificate": certified,
        "a_G": len(h) - 1 - ideal.k if certified else None,
    }
