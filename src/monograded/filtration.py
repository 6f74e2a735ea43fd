"""Invariants of the I-adic filtration of an m-primary monomial ideal.

The ambient polynomial ring is read as a local ring at the origin.  Ratliff-Rush
closures are colon-stabilizations inside the monomial world; reduction numbers
are exact ranks in the fiber cone (J*I^n = I^(n+1) iff J*I^n spans
I^(n+1)/m*I^(n+1), by Nakayama); the Valabrega-Valla test is a colength
identity at the levels that can fail, with only J*I^(n-1) certified by
truncated linear algebra; the associated graded and fiber cone series are
reconstructed exactly from finitely many length/generator counts with a
verified polynomial tail.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import lru_cache
from operator import add

from .errors import CertificateFailed, ComputationError, NotAReduction
from .hilbert import (
    HilbertData,
    HilbertSeries,
    hilbert_data_from_series,
    reconstruct_series,
)
from .monomials import MonomialIdeal
from .truncation import Echelon, PolyElement, PolyProduct, certified_truncation

# Steps of the Ratliff-Rush chain before giving up, and extra samples per
# reduction-number trial whose candidate fails the n-bound.
RR_MAX_STEPS = 64
RESAMPLES = 4


@dataclass
class Reduction:
    """A candidate minimal reduction: d seeded generic combinations of the
    minimal generators, with integer coefficients in [1, coeff_bound]."""

    gens: list[PolyElement]
    seed: int
    coeff_bound: int

    @property
    def size(self) -> int:
        return len(self.gens)


class PowerCache:
    """Successive powers of an ideal and their colengths, computed once."""

    def __init__(self, ideal: MonomialIdeal):
        self.ideal = ideal
        self._powers = [MonomialIdeal.unit(ideal.k, ideal.names)]
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
    """
    cache = power_cache(ideal)
    current = cache.power(power)
    for n in range(1, RR_MAX_STEPS):
        nxt = cache.power(power + n).colon(cache.power(n))
        if nxt == current:
            confirm = cache.power(power + n + 1).colon(cache.power(n + 1))
            if confirm == current:
                return current
        current = nxt
    raise ComputationError(f"Ratliff-Rush chain did not stabilize in {RR_MAX_STEPS} steps")


def h0_G(ideal: MonomialIdeal, n: int) -> int:
    """ell of the degree-n piece of H^0 of the associated graded ring:
    ell((I^n intersect rr(I^(n+1))) / I^(n+1))."""
    cache = power_cache(ideal)
    inner = cache.power(n).intersection(ratliff_rush(ideal, n + 1))
    return cache.power(n + 1).quotient_length() - inner.quotient_length()


def gamma_positive(ideal: MonomialIdeal, upto: int) -> bool:
    """Whether h^0(G)_n vanishes for 0 <= n <= upto (the depth G_+ >= 1 gate)."""
    return all(h0_G(ideal, n) == 0 for n in range(upto + 1))


def multiplicity_samuel(ideal: MonomialIdeal, n_bound: int | None = None) -> int:
    """Hilbert-Samuel multiplicity from the colength sequence ell(R/I^n).

    The d-th finite differences must take one value on d+2 consecutive windows
    and that value must survive two further verification points.
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


def mu(ideal: MonomialIdeal, n: int) -> int:
    """Minimal number of generators of I^n."""
    return power_cache(ideal).power(n).num_generators()


def fiber_cone_series(ideal: MonomialIdeal) -> HilbertSeries:
    """Hilbert series of the fiber cone, reconstructed from the mu(I^n) counts."""
    cache = power_cache(ideal)
    return reconstruct_series(lambda n: cache.power(n).num_generators(), ideal.k)


def G_hilbert_data(ideal: MonomialIdeal) -> HilbertData:
    """Hilbert data of the associated graded ring, reconstructed from the
    colength differences ell(I^n / I^(n+1))."""
    cache = power_cache(ideal)
    series = reconstruct_series(
        lambda n: cache.colength(n + 1) - cache.colength(n), ideal.k
    )
    return hilbert_data_from_series(series)


# -- reductions ---------------------------------------------------------


def minimal_reduction(ideal: MonomialIdeal, seed: int, coeff_bound: int = 100) -> Reduction:
    """d = k seeded generic integer combinations of the minimal generators.

    In one variable the minimal-degree generator itself is the reduction."""
    gens = ideal.exps
    if ideal.k == 1:
        return Reduction([PolyElement.from_monomial(gens[0])], seed, coeff_bound)
    rng = random.Random(seed)
    combos = []
    for _ in range(ideal.k):
        coeffs = [rng.randint(1, coeff_bound) for _ in gens]
        combos.append(PolyElement.combination(gens, coeffs))
    return Reduction(combos, seed, coeff_bound)


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
        n_bound = multiplicity_samuel(ideal) + 2
    cache = power_cache(ideal)
    polys = [p.integer_terms() for p in reduction.gens]
    for n in range(n_bound + 1):
        columns = {w: j for j, w in enumerate(cache.power(n + 1).exps)}
        ech = Echelon()
        for row in _product_rows(polys, cache.power(n).exps, columns):
            if ech.add(row) and ech.dim == len(columns):
                return n
    raise NotAReduction(f"not a reduction within n <= {n_bound}")


def reduction_number(
    ideal: MonomialIdeal,
    trials: int = 5,
    seed: int = 0,
    coeff_bound: int = 100,
    n_bound: int | None = None,
) -> tuple[int, list[dict]]:
    """Minimum of r_J over seeded candidate reductions.

    Sampling genericity: correct with high probability over the rationals, and
    each candidate that fails the n-bound is resampled a bounded number of
    times before the trial errors out.
    """
    if n_bound is None:
        n_bound = multiplicity_samuel(ideal) + 2
    trials_out = []
    best = None
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
        best = r if best is None else min(best, r)
    return best, trials_out


# -- Valabrega-Valla certificate and the a-invariant of G -------------------


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


def vv_levels(
    ideal: MonomialIdeal,
    reduction: Reduction,
    r: int | None = None,
    max_truncation: int | None = None,
) -> list[VVLevel]:
    """The levels of `vv_cm_certificate` that need a computation, up to the
    first that fails; `r` must be r_J(I) of this reduction.

    ell(R/J*I^(n-1)) is the truncation certificate's, ell(R/I^n) the power
    cache's, and ell(R/(J + I^n)) is ell(R/I^n) minus the rank of the rows q*u
    in S/I^n, u a standard monomial of I^n.  Level 1 holds as J lies in I; its
    certificate is J's and gives ell(R/J).  Levels 2..r follow; level r + 1
    holds as J*I^r = I^(r+1) lies in J.  Level 2 has ell(I^2/JI) = ell_prod - ell_power."""
    if r is None:
        r = reduction_number_wrt(reduction, ideal)
    cache = power_cache(ideal)
    max_deg = max(map(sum, ideal.exps))
    polys = [p.integer_terms() for p in reduction.gens]
    levels = []
    for n in range(1, max(r, 1) + 1):
        prod_gens = PolyProduct(reduction.gens, cache.power(n - 1))
        cap = max(max_deg * (n + 2), 8) if max_truncation is None else max_truncation
        t, proof = certified_truncation(prod_gens, ideal.k, cap)
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


def vv_cm_certificate(
    ideal: MonomialIdeal,
    reduction: Reduction,
    r: int | None = None,
    max_truncation: int | None = None,
) -> bool:
    """Valabrega-Valla test: I^n intersect J = J*I^(n-1) for 1 <= n <= r_J + 1,
    where `r` must be r_J(I) of this reduction.

    Certifies Cohen-Macaulayness of the associated graded ring.  The equality
    holds at n = 1 (J lies in I) and for n > r_J (J*I^r = I^(r+1) lies in J),
    so only the levels 2..r_J are computed.  Each is decided exactly as the
    colength identity ell(R/J*I^(n-1)) + ell(R/(J + I^n)) = ell(R/I^n) +
    ell(R/J), which `vv_levels` reports level by level.
    """
    return vv_levels(ideal, reduction, r=r, max_truncation=max_truncation)[-1].holds


def _a_G(series: HilbertSeries) -> int:
    """deg of the reduced numerator minus dim: the a-invariant of a
    Cohen-Macaulay graded ring with this Hilbert series."""
    q, d = series.reduced()
    return (len(q) - 1) - d


def a_G_if_CM(ideal: MonomialIdeal, reduction: Reduction, r: int | None = None) -> int:
    """a-invariant of the associated graded ring, valid only under the
    Valabrega-Valla certificate: deg of the reduced G-numerator minus dim."""
    if not vv_cm_certificate(ideal, reduction, r=r):
        raise CertificateFailed("Valabrega-Valla certificate does not hold")
    return _a_G(G_hilbert_data(ideal).series)


# -- assembled report ---------------------------------------------------


@dataclass
class FiltrationReport:
    """Everything the reduction CLI reports for one ideal."""

    ideal: MonomialIdeal
    multiplicity: int
    colengths: list[int]
    ratliff_rush: list[str]
    mu_table: list[int]
    h0_table: list[int]
    g_numerator: list[int]
    reduction_trials: list[dict]
    reduction_number: int
    vv_certificate: bool
    a_G: int | None

    def to_dict(self) -> dict:
        return {
            "ideal": self.ideal.format(),
            "e": self.multiplicity,
            "colengths": self.colengths,
            "ratliff_rush": self.ratliff_rush,
            "mu": self.mu_table,
            "h0_G": self.h0_table,
            "G_numerator": self.g_numerator,
            "trials": self.reduction_trials,
            "r": self.reduction_number,
            "vv_certificate": self.vv_certificate,
            "a_G": self.a_G,
        }


def filtration_report(
    ideal: MonomialIdeal,
    trials: int = 3,
    seed: int = 0,
    coeff_bound: int = 100,
    n_bound: int | None = None,
    powers: int = 4,
    max_truncation: int | None = None,
) -> FiltrationReport:
    e = multiplicity_samuel(ideal)
    cache = power_cache(ideal)
    r, trial_list = reduction_number(
        ideal, trials=trials, seed=seed, coeff_bound=coeff_bound, n_bound=n_bound
    )
    best = min(trial_list, key=lambda tr: tr["r"])
    candidate = minimal_reduction(ideal, best["seed"], coeff_bound)
    certified = vv_cm_certificate(
        ideal, candidate, r=best["r"], max_truncation=max_truncation
    )
    g_series = G_hilbert_data(ideal).series
    return FiltrationReport(
        ideal=ideal,
        multiplicity=e,
        colengths=[cache.colength(n) for n in range(powers + 1)],
        ratliff_rush=[ratliff_rush(ideal, n).format() for n in range(1, powers + 1)],
        mu_table=[mu(ideal, n) for n in range(1, powers + 1)],
        h0_table=[h0_G(ideal, n) for n in range(powers)],
        g_numerator=g_series.numerator,
        reduction_trials=trial_list,
        reduction_number=r,
        vv_certificate=certified,
        a_G=_a_G(g_series) if certified else None,
    )
