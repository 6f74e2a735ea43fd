"""Verification harness for the inequalities on a-invariants and reduction numbers.

Every checker evaluates both sides of one inequality on a concrete instance,
with every hypothesis machine-checked; `hypothesis-unverified` and `skipped`
are first-class outcomes, never silently folded into the pass column.  The
reduction-number bounds prop3.3 and prop3.4 are checked where the associated
graded ring G is Cohen-Macaulay, decided exactly as ell(G/J*G) = e(I); its
h-vector then gives the lengths they need.  `BOUNDS` maps each bound's name
to its checker, the instances it applies to and its corpus; corpus runs are
seeded and deterministic.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from math import gcd
from typing import Callable, NamedTuple

from . import cohomology, filtration, hilbert, semigroup
from .errors import ComputationError
from .monomials import MonomialIdeal

HOLDS = "holds"
SHARP = "sharp"
VIOLATED = "violated"
UNVERIFIED = "hypothesis-unverified"
SKIPPED = "skipped"

# Seeded candidate reductions per instance; r(I) is the least r_J among them.
PROP_3_3_TRIALS = 3
PROP_3_4_TRIALS = 2


@dataclass
class BoundReport:
    instance_id: str
    bound: str
    lhs: int | None
    rhs: int | None
    status: str
    witness: dict = field(default_factory=dict)

    @property
    def gap(self) -> int | None:
        if self.lhs is None or self.rhs is None:
            return None
        if self.witness.get("direction") == ">=":
            return self.lhs - self.rhs
        return self.rhs - self.lhs

    def to_dict(self) -> dict:
        return {
            "instance": self.instance_id,
            "bound": self.bound,
            "lhs": self.lhs,
            "rhs": self.rhs,
            "status": self.status,
            "gap": self.gap,
            "witness": self.witness,
        }


def _status_le(lhs: int, rhs: int) -> str:
    if lhs > rhs:
        return VIOLATED
    return SHARP if lhs == rhs else HOLDS


def verify_main_bound(ideal: MonomialIdeal, instance_id: str = "") -> BoundReport:
    """a(R) <= e(R) - ell(R_1) + (d-1)(ell(R_0)-1) + EG(R) over a field, where
    the middle term vanishes because ell(R_0) = 1."""
    e = hilbert.hilbert_series(ideal).multiplicity  # the zero ring fails here
    table = cohomology.cohomology_table(ideal)
    d = table.dim
    ell_r0 = 1
    ell_r1 = ideal.graded_length(1)
    lhs = table.a_invariant
    eg = table.eg_invariant
    rhs = e - ell_r1 + (d - 1) * (ell_r0 - 1) + eg
    witness = {
        "direction": "<=",
        "a": lhs,
        "e": e,
        "l_R1": ell_r1,
        "l_R0": ell_r0,
        "eg": eg,
        "dim": d,
        "depth": table.depth,
    }
    return BoundReport(instance_id, "thm2.1", lhs, rhs, _status_le(lhs, rhs), witness)


def verify_eg_inequality(ideal: MonomialIdeal, instance_id: str = "") -> BoundReport:
    """e(R) >= 1 + codim(R) - EG(R) over a field.

    codim(R) is the intrinsic embedding codimension ell(R_1) - dim(R); it
    equals (variables - dim) exactly when the ideal has no linear generators.
    """
    series = hilbert.hilbert_series(ideal)
    lhs = series.multiplicity  # the zero ring fails here
    table = cohomology.cohomology_table(ideal)
    codim = ideal.graded_length(1) - series.dim
    eg = table.eg_invariant
    rhs = 1 + codim - eg
    witness = {
        "direction": ">=",
        "e": lhs,
        "codim": codim,
        "eg": eg,
    }
    return BoundReport(instance_id, "eg-lower", lhs, rhs, _status_le(rhs, lhs), witness)


def verify_prop_3_1(ideal: semigroup.SemigroupIdeal, instance_id: str = "") -> BoundReport:
    """d = 1: r(I) <= e(I) - [ell(I/(I cap rr(I^2))) - 1] <= e(I)."""
    r, j = semigroup.reduction_number_sg(ideal)
    e = semigroup.multiplicity_sg(ideal)
    inner = semigroup.intersection_sg(ideal, semigroup.rr_sg(ideal, 2))
    ell_mid = semigroup.length_between_sg(ideal, inner)
    mid = e - (ell_mid - 1)
    status = VIOLATED if mid > e else _status_le(r, mid)
    witness = {
        "direction": "<=",
        "r": r,
        "e": e,
        "middle": mid,
        "l_I_over_I_cap_rrI2": ell_mid,
        "principal_reduction": j,
        "semigroup": list(ideal.S.gens),
        "ideal": list(ideal.gens),
    }
    return BoundReport(instance_id, "prop3.1", r, mid, status, witness)


def verify_prop_3_3(ideal: MonomialIdeal, instance_id: str = "", seed: int = 0) -> BoundReport:
    """d = 2: r(I) <= 1 + e(I) - ell(I/I^2) + ell(R/I) + h^1(G)_0, with the
    depth gate gamma(I) >= 1 checked through vanishing of h^0(G)_n.

    h^1(G)_0 is known only when G is Cohen-Macaulay, where it vanishes.  The
    gate then passes (depth G >= 1), so it runs only when G is not
    Cohen-Macaulay and decides between skipped and hypothesis-unverified.
    """
    if ideal.k != 2:
        raise ComputationError("prop3.3 checker needs a plane (two-variable) ideal")
    r, reduction, _ = filtration.reduction_number(ideal, trials=PROP_3_3_TRIALS, seed=seed)
    certificate, h = filtration.cm_h_vector(ideal, reduction, r)
    if not certificate:
        if not filtration.gamma_positive(ideal, r + 1):
            witness = {"reason": "gamma gate failed: h^0(G) does not vanish", "r": r}
            return BoundReport(instance_id, "prop3.3", None, None, SKIPPED, witness)
        witness = {"reason": "no guarded route: certificate false and r > 1", "r": r}
        return BoundReport(instance_id, "prop3.3", None, None, UNVERIFIED, witness)
    cache = filtration.power_cache(ideal)
    e = sum(h)
    ell_r_i = cache.colength(1)
    ell_i_i2 = cache.colength(2) - cache.colength(1)
    rhs = 1 + e - ell_i_i2 + ell_r_i
    witness = {
        "direction": "<=",
        "r": r,
        "e": e,
        "l_R_I": ell_r_i,
        "l_I_I2": ell_i_i2,
        "h1_G_0": 0,
        "path": "cm-certificate",
        "vv_certificate": True,
    }
    return BoundReport(instance_id, "prop3.3", r, rhs, _status_le(r, rhs), witness)


def verify_prop_3_4(ideal: MonomialIdeal, instance_id: str = "", seed: int = 0) -> BoundReport:
    """d >= 3: r_J(I) <= 1 + ell(I^2/JI) + h^(d-1)(G)_(2-d), where a
    Cohen-Macaulay G kills the cohomology term.  Then J is a parameter ideal
    of a Cohen-Macaulay ring, so ell(R/J) = e(I), and ell(I^2/JI) = h_2 + ...
    + h_r from the h-vector of G/J*G."""
    if ideal.k < 3:
        raise ComputationError("prop3.4 checker needs at least three variables")
    r_j, reduction, _ = filtration.reduction_number(ideal, trials=PROP_3_4_TRIALS, seed=seed)
    certificate, h = filtration.cm_h_vector(ideal, reduction, r_j)
    if not certificate:  # the Valabrega-Valla condition holds iff G is Cohen-Macaulay
        witness = {"reason": "Valabrega-Valla certificate false", "r": r_j}
        return BoundReport(instance_id, "prop3.4", None, None, UNVERIFIED, witness)
    e = sum(h)
    ell_i2_ji = sum(h[2:])
    rhs = 1 + ell_i2_ji
    witness = {
        "direction": "<=",
        "r_J": r_j,
        "l_I2_JI": ell_i2_ji,
        "l_R_J": e,
        "e": e,
        "vv_certificate": True,
    }
    return BoundReport(instance_id, "prop3.4", r_j, rhs, _status_le(r_j, rhs), witness)


# -- seeded corpora -------------------------------------------------------


def random_m_primary_ideal(rng: random.Random, k: int, deg_bound: int) -> MonomialIdeal:
    """A pure power of each variable plus a few random under-staircase monomials."""
    pure = [rng.randint(1, deg_bound) for _ in range(k)]
    gens = [tuple(a if i == j else 0 for i in range(k)) for j, a in enumerate(pure)]
    for _ in range(rng.randint(0, k + 1)):
        exps = tuple(rng.randint(0, max(a - 1, 0)) for a in pure)
        if sum(exps) > 0:
            gens.append(exps)
    return MonomialIdeal(k, gens)


def random_semigroup_ideal(rng: random.Random, lo: int = 3, hi: int = 15) -> semigroup.SemigroupIdeal:
    """A random numerical semigroup with generators in [lo, hi] and a random
    monomial ideal over it."""
    while True:
        count = rng.randint(2, 4)
        gens = sorted(rng.sample(range(lo, hi + 1), count))
        if gcd(*gens) == 1:
            break
    S = semigroup.NumericalSemigroup(gens)
    candidates = [s for s in S.elements_upto(gens[0] + S.conductor + 4) if s > 0]
    size = rng.randint(1, min(3, len(candidates)))
    return semigroup.SemigroupIdeal(S, rng.sample(candidates, size))


def instance_seed(seed: int, index: int) -> int:
    return seed * 1_000_003 + index


def corpus_monomial(seed: int, count: int, k: int, deg_bound: int = 6):
    """Deterministic stream of (instance_id, ideal)."""
    for i in range(count):
        rng = random.Random(instance_seed(seed, i))
        yield f"mono-k{k}-s{seed}-{i}", random_m_primary_ideal(rng, k, deg_bound)


def corpus_semigroup(seed: int, count: int):
    for i in range(count):
        rng = random.Random(instance_seed(seed, i))
        yield f"sg-s{seed}-{i}", random_semigroup_ideal(rng)


class Bound(NamedTuple):
    """A checkable bound: `check(instance, instance_id, seed)`, whether it
    `applies` to an instance, and its seeded `corpus(seed, count, k, deg_bound)`
    of (instance_id, instance) pairs."""

    check: Callable
    applies: Callable
    corpus: Callable


def _unseeded(check) -> Callable:
    return lambda instance, instance_id, seed: check(instance, instance_id)


def _monomial(instance) -> bool:
    return isinstance(instance, MonomialIdeal)


BOUNDS = {
    "thm2.1": Bound(_unseeded(verify_main_bound), _monomial, corpus_monomial),
    "eg-lower": Bound(_unseeded(verify_eg_inequality), _monomial, corpus_monomial),
    "prop3.1": Bound(
        _unseeded(verify_prop_3_1),
        # an ideal that holds 0 is the whole ring, not m-primary
        lambda instance: (isinstance(instance, semigroup.SemigroupIdeal)
                          and instance.min_element > 0),
        lambda seed, count, k, deg: corpus_semigroup(seed, count),
    ),
    "prop3.3": Bound(
        verify_prop_3_3,
        lambda instance: _monomial(instance) and instance.k == 2 and instance.is_m_primary(),
        lambda seed, count, k, deg: corpus_monomial(seed, count, 2, deg),
    ),
    "prop3.4": Bound(
        verify_prop_3_4,
        lambda instance: _monomial(instance) and instance.k >= 3 and instance.is_m_primary(),
        lambda seed, count, k, deg: corpus_monomial(seed, count, max(k, 3), min(deg, 3)),
    ),
}


def aggregate(reports: list[BoundReport]) -> dict:
    counts = {HOLDS: 0, SHARP: 0, VIOLATED: 0, UNVERIFIED: 0, SKIPPED: 0}
    gaps = []
    for rep in reports:
        counts[rep.status] += 1
        if rep.gap is not None:
            gaps.append(rep.gap)
    return {
        "total": len(reports),
        "holds": counts[HOLDS],
        "sharp": counts[SHARP],
        "violations": counts[VIOLATED],
        "hypothesis_unverified": counts[UNVERIFIED],
        "skipped": counts[SKIPPED],
        "max_gap": max(gaps) if gaps else None,
        "min_gap": min(gaps) if gaps else None,
    }


def run_corpus(
    bound: str,
    seed: int,
    count: int,
    k: int = 2,
    deg_bound: int = 6,
) -> tuple[list[BoundReport], dict]:
    """Run one named bound over a seeded corpus and aggregate the outcomes."""
    spec = BOUNDS.get(bound)
    if spec is None:
        raise ValueError(f"unknown bound {bound!r}")
    reports = [
        spec.check(instance, instance_id, instance_seed(seed, i))
        for i, (instance_id, instance) in enumerate(spec.corpus(seed, count, k, deg_bound))
    ]
    return reports, aggregate(reports)
