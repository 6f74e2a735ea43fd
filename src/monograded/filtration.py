"""Invariants of the I-adic filtration of an m-primary monomial ideal.

The ambient polynomial ring is read as a local ring at the origin.  The powers
I^n are bitsets over a box that holds every monomial outside them
(`PowerCache`), so products, colons I^(n+k) : I^k, intersections, colengths,
minimal generators and the layers I^n minus I^(n+1) are whole-int operations.
Ratliff-Rush closures are stabilizations of the colon chain there, or the
powers themselves once G is certified Cohen-Macaulay; the multiplicity
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
from collections import namedtuple
from functools import lru_cache
from itertools import combinations
from math import gcd, prod
from operator import add, attrgetter, mul, sub

from .errors import ComputationError, NotAReduction
from .hilbert import HilbertSeries, reconstruct_series
from .monomials import MonomialIdeal
from .truncation import Echelon

# Steps of the Ratliff-Rush chain before giving up, and extra samples per
# reduction-number trial whose candidate fails the n-bound.
RR_MAX_STEPS = 64
RESAMPLES = 4
# Bits that the bitsets of one `PowerCache` may hold (512 MiB): the least
# power of two that lets `x^7, y^7, z^7, w^7, x^2*y^2*z^2`, whose G is not
# Cohen-Macaulay, read ell(R/I^14).  A box is laid out only when everything
# it can hold stays below this.
MAX_ENTRY_BITS = 1 << 32
# Bits of bitsets that `power_cache` keeps across lookups (2 MiB, under a
# tenth of the benchmark's peak RSS); the entry returned stays even when it
# alone holds more.
MAX_CACHED_BITS = 1 << 24
# Bytes of a bitset that `_points` reads at a time.
_CHUNK = 1 << 16


# A candidate reduction: d integer combinations of the minimal generators, each
# a tuple of (exponent tuple, coefficient) terms.
Reduction = list[tuple[tuple[tuple[int, ...], int], ...]]


def _repunit(period: int, total: int) -> int:
    """One bit every `period` bits below `total`, built by doubling (a long
    division of 2^total - 1 by 2^period - 1 takes far longer)."""
    repunit, width = 1, period
    while width < total:
        repunit |= repunit << width
        width *= 2
    return repunit & ((1 << total - period + 1) - 1)


class PowerCache:
    """Successive powers of an m-primary ideal I, as bitsets over one box.

    With b_j the exponent of the pure power of x_j in I, the box holds the
    exponent vectors a with a_j <= top*b_j, at bit sum_j a_j*S_j (S_0 = 1,
    S_(j+1) = S_j*N_j, N_j = top*b_j + 1).  The bitset of I^n, n <= top, has
    bit a set iff x^a is in I^n; every point outside the box is in I^n, and
    every minimal generator of I^n lies in the box (it has a_j <= n*b_j).  A
    power past `top` lays the box out again (see `_layout`) and recomputes
    the powers it is asked for.  Products, colons, intersections,
    colengths and minimal generators are whole-int operations; `power` gives
    the boundary `MonomialIdeal`, and every other result is an int or a list
    of exponent tuples, so no caller sees a layout.
    """

    def __init__(self, ideal: MonomialIdeal):
        self.ideal = ideal
        self._bounds = ideal.pure_power_bounds()  # InfiniteLength unless m-primary
        self._ideals: dict[int, MonomialIdeal] = {}
        self._lengths: list[int] = []
        self._top = 0
        self._layout(1)

    def _hold(self, bits: int) -> int:
        """Count a bitset this cache keeps."""
        self.held_bits += bits.bit_length()
        return bits

    def _box(self, top: int) -> tuple[list[int], int, int]:
        """(N_j, box bits, the most bits its bitsets can hold) for the powers up
        to I^top.  Those are the powers I^0..I^top, the closures (p <= top - 2,
        as a chain reads I^(p+2)), one mask per generator and one per
        variable: at most 2*top + |gens| + k bitsets, none longer than the box."""
        sizes = [top * b + 1 for b in self._bounds]
        total = prod(sizes)
        return sizes, total, total * (2 * top + len(self.ideal.exps) + len(sizes))

    def _layout(self, n: int) -> None:
        """Lay the box out for the powers up to I^top, top the least of twice
        the present top and the largest one whose bitsets can hold at most
        MAX_ENTRY_BITS, but at least n; forget every bitset."""
        top = max(n, 2 * self._top)
        while top > n and self._box(top)[2] > MAX_ENTRY_BITS:
            top -= 1
        sizes, total, most = self._box(top)
        if most > MAX_ENTRY_BITS:
            raise ComputationError(
                f"the powers up to I^{top} need a box of {total} bits, whose bitsets"
                f" can hold {most} bits, more than {MAX_ENTRY_BITS}")
        self._top, self._sizes, self._total = top, sizes, total
        strides = self._strides = [prod(sizes[:j]) for j in range(len(sizes))]
        full = (1 << total) - 1
        repunits = [_repunit(stride * size, total) for stride, size in zip(strides, sizes)]

        def below(j: int, v: int) -> int:
            """The points with a_j < v: v*S_j ones in every period S_j*N_j."""
            return ((1 << v * strides[j]) - 1) * repunits[j]

        # (offset, fits) per generator g: x^g shifts a point by offset, and
        # fits holds the points a with a + g still in the box
        self._shifts = []
        for g in self.ideal.exps:
            fits = full
            for j, e in enumerate(g):
                if e:
                    fits &= below(j, sizes[j] - e)
            self._shifts.append((sum(map(mul, g, strides)), fits))
        self._ge1 = [full ^ below(j, 1) for j in range(len(sizes))]  # the points with a_j >= 1
        self._powers = [full]
        self._closures: dict[int, int] = {}
        kept = [full, *self._ge1, *(fits for _, fits in self._shifts)]
        self.held_bits = sum(bits.bit_length() for bits in kept)

    def _bits(self, n: int) -> int:
        """The bitset of I^n, in the box as it is laid out after the call."""
        if n > self._top:
            self._layout(n)
        powers = self._powers
        while len(powers) <= n:
            last = powers[-1]
            product = 0
            for offset, fits in self._shifts:
                product |= (last & fits) << offset
            powers.append(self._hold(product))
        return powers[n]

    def _generators(self, bits: int) -> int:
        """The minimal generators of an ideal's bitset: its points a with no
        a - e_j in it."""
        covered = 0
        for stride, ge1 in zip(self._strides, self._ge1):
            covered |= (bits << stride) & ge1
        return bits & ~covered

    def _points(self, bits: int) -> list[tuple[int, ...]]:
        """The exponent tuples of the set bits, in (degree, exps) order.  The
        bits are read in pieces of _CHUNK bytes, so no text as long as the box
        is built."""
        data = bits.to_bytes((bits.bit_length() + 7) // 8, "little")
        points = []
        for start in range(0, len(data), _CHUNK):
            text = format(int.from_bytes(data[start:start + _CHUNK], "little"), "b")
            last = 8 * start + len(text) - 1
            i = text.find("1")
            while i >= 0:
                index, exps = last - i, []
                for size in self._sizes:
                    index, a = divmod(index, size)
                    exps.append(a)
                points.append(tuple(exps))
                i = text.find("1", i + 1)
        points.sort(key=lambda t: (sum(t), t))
        return points

    def _ideal_of(self, bits: int) -> MonomialIdeal:
        """The ideal of a bitset in the present box."""
        return MonomialIdeal._from_minimal(self.ideal.k, tuple(self._points(self._generators(bits))))

    def power(self, n: int) -> MonomialIdeal:
        ideal = self._ideals.get(n)
        if ideal is None:
            bits = self._bits(n)
            ideal = self._ideals[n] = self._ideal_of(bits)
        return ideal

    def colength(self, n: int) -> int:
        """ell(R/I^n): the box size less the points of I^n in it."""
        while len(self._lengths) <= n:
            bits = self._bits(len(self._lengths))
            self._lengths.append(self._total - bits.bit_count())
        return self._lengths[n]

    def layer(self, n: int) -> list[tuple[int, ...]]:
        """The monomials of I^n outside I^(n+1), in (degree, exps) order."""
        inner = self._bits(n + 1)  # first: it may lay the box out again
        return self._points(self._bits(n) & ~inner)

    def _colon_by_ideal(self, bits: int, t: int) -> int:
        """X : I for the bitset of an ideal X containing I^t, t <= top.  A point
        a outside I^(t-1) has a_j < (t-1)*b_j, so a_j + g_j < t*b_j < N_j for
        every generator g (g_j <= b_j): no shift wraps there.  The points of
        I^(t-1) all lie in X : I."""
        colon = -1
        for offset, _ in self._shifts:
            colon &= bits >> offset
        return colon | self._powers[t - 1]

    def _closure(self, p: int) -> int:
        """The bitset of the Ratliff-Rush chain's value for I^p (see
        `ratliff_rush`): member n is I^(p+n) : I^n, taken as n colons by I
        (J : I^n = (J : I) : I^(n-1)).  Only the three newest members are
        kept."""
        closure = self._closures.get(p)
        if closure is None:
            top, n = self._top, 0
            newest = [self._bits(p)]  # members n-2, n-1, n
            while not (len(newest) == 3 and newest[0] == newest[1] == newest[2]):
                n += 1
                if n > RR_MAX_STEPS:
                    raise ComputationError(
                        f"Ratliff-Rush chain did not stabilize in {RR_MAX_STEPS} steps")
                member = self._bits(p + n)
                if self._top != top:  # laid out again: start over in the new box
                    top, n, newest = self._top, 0, [self._bits(p)]
                    continue
                for i in range(n):
                    member = self._colon_by_ideal(member, p + n - i)
                newest = [*newest[-2:], member]
            closure = self._closures[p] = self._hold(newest[0])
        return closure

    def closure(self, p: int) -> MonomialIdeal:
        bits = self._closure(p)
        return self._ideal_of(bits)

    def h0(self, n: int) -> int:
        """ell((I^n cap rr(I^(n+1))) / I^(n+1)), rr by the chain of `ratliff_rush`."""
        closure = self._closure(n + 1)
        inner = self._bits(n) & closure
        inner_length = self._total - inner.bit_count()
        return self.colength(n + 1) - inner_length


CacheInfo = namedtuple("CacheInfo", "hits misses maxsize currsize")


class _Entries:
    """The `PowerCache` of each ideal, least recently used first."""

    def __init__(self):
        self.caches: dict[MonomialIdeal, PowerCache] = {}
        self.hits = self.misses = 0

    def held_bits(self) -> int:
        return sum(map(attrgetter("held_bits"), self.caches.values()))

    def info(self):
        return CacheInfo(self.hits, self.misses, MAX_CACHED_BITS, len(self.caches))

    def clear(self) -> None:
        self.caches.clear()
        self.hits = self.misses = 0


_ENTRIES = _Entries()


def power_cache(ideal: MonomialIdeal) -> PowerCache:
    """Shared per-ideal cache of powers and colengths.  Once the entries hold
    more than MAX_CACHED_BITS bits in all, the least recently used are dropped,
    down to the one returned; `cache_info().maxsize` is that bound."""
    entries = _ENTRIES
    caches = entries.caches
    cache = caches.pop(ideal, None)
    if cache is None:
        entries.misses += 1
        cache = PowerCache(ideal)
    else:
        entries.hits += 1
    caches[ideal] = cache
    held = entries.held_bits()
    while held > MAX_CACHED_BITS and len(caches) > 1:
        held -= caches.pop(next(iter(caches))).held_bits
    return cache


power_cache.cache_info = _ENTRIES.info
power_cache.cache_clear = _ENTRIES.clear


def ratliff_rush(ideal: MonomialIdeal, power: int = 1) -> MonomialIdeal:
    """Ratliff-Rush closure of I^power, the union of the increasing chain
    (I^(power+n) : I^n), taken at the first repeat plus one confirming step:
    the first n >= 1 with members n - 1, n, n + 1 equal (member 0 is I^power).
    A chain can plateau and grow again, so this stopping rule is not a proof.
    `filtration_report` runs it only when G is not certified Cohen-Macaulay
    (when it is, every power of I is closed; Heinzer-Lantz-Shah 1992).
    """
    return power_cache(ideal).closure(power)


def h0_G(ideal: MonomialIdeal, n: int) -> int:
    """ell of the degree-n piece of H^0 of the associated graded ring:
    ell((I^n intersect rr(I^(n+1))) / I^(n+1)), by the heuristic chain of
    `ratliff_rush`.  `filtration_report` calls it only when G is not certified
    Cohen-Macaulay; prop3.3's gamma gate always does."""
    return power_cache(ideal).h0(n)


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
    below = cache.layer(0)  # the monomials of I^(n-1) outside I^n
    for n in range(1, r + 1):
        if sum(h) + r - (n - 1) > e:
            return False, h
        layer = cache.layer(n)
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
