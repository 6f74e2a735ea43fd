"""Seeded inputs for the benchmark workloads.

A workload is a sequence of blocks.  A block is a list of ops (one
`monograded.cli.main` call each) whose composition is fixed by the workload;
the seed draws the concrete inputs.  The benchmark clears the package's caches
before each block, so a block is one cold session and repeats only share cache
entries inside their own block.

Inputs are generated here, without the package under test, so that a change
to the package cannot change what the benchmark feeds it.  The package's
corpus generator (`bounds.random_m_primary_ideal`) is replicated below;
`test_smoke.py` checks that the replica still yields the package's corpora.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass, field
from math import gcd, prod

NAMES = ("x", "y", "z", "w", "u", "v")
WORKLOADS = ("cohomology-wide", "verify-3var", "cli-mix")

# cohomology-wide: (max exponent per variable, generator count).  The
# multiset of maxima is permuted per op; fixing it fixes the number of orthant
# classes the engine enumerates, which is what an op's cost scales with, so
# the per-run mix does not depend on the seed.  Random sizes made a run's mean
# cost vary by a factor of two between seeds.
COHOMOLOGY_SLOTS = (
    ((5, 6, 6, 7), 4),
    ((6, 6, 7, 7), 5),
    ((7, 7, 7, 7), 6),
    ((2, 3, 4, 5, 6), 5),
    ((2, 3, 4, 5, 7), 4),
    ((2, 2, 4, 6, 7), 5),
    ((2, 3, 5, 5, 7), 4),
)

# verify-3var: the first VERIFY_BLOCK instances of the prop3.4 corpus at corpus
# seed 0, each with its own instance seed, in an order drawn from the seed.
# Single instances of that corpus cost up to 10 s, so drawing the ideals from
# the workload seed made throughput spread by about 30% between seeds; and
# with seeded reduction coefficients, rare draws made one op run for minutes
# (coefficient growth in the exact elimination), past the time a run may take.
VERIFY_CORPUS_SEED = 0
VERIFY_BLOCK = 120

# cli-mix: ops per kind in one block, with fresh seeded inputs.
MIX_SEEDED = (("hilbert", 16), ("cohomology", 12))
# cli-mix: every block also runs both reproduce examples and, for each of the
# first MIX_POOL instances of the prop3.3 corpus at corpus seed 0, one
# two-variable `reduction` and one `verify --bound all`, each with the
# instance's corpus seed.  These are the same in every block: for about one
# seed in a few hundred the seeded reduction candidate is not a reduction, and
# scanning up to the n-bound before resampling takes 5-10 s instead of 20 ms,
# so seeding these ops made throughput depend on whether a run drew such a seed.
MIX_POOL = 12
# cli-mix: every block runs `verify --bound prop3.1` on the same MIX_POOL + 4
# semigroup ideals, drawn once with SEMIGROUP_RANGE, and on the documented
# Ratliff-Rush plateau example, so that each block has the same number of ops
# that hit that defect (see checks.RR_PLATEAU).  With seeded semigroup ideals
# about 4% of these ops hit it, so the failed count of a run depended on the seed.
SEMIGROUP_POOL = MIX_POOL + 4
PLATEAU_EXAMPLE = ([10, 13, 15], [38, 39])
# Semigroup generators for the prop3.1 ops: wider than the corpus default
# [3, 15], so that sumset work has a visible share.
SEMIGROUP_RANGE = (5, 30)
# cli-mix: the ops of a block run in one fixed order, the same in every block
# and for every seed.  Ops share cache entries inside a block (a `reduction`
# after a `verify` of the same ideal takes about 8% less time), so with a
# seeded order the latency of one op depended on the seed.
MIX_ORDER_SEED = "cli-mix-order"
# Op kinds whose CLI call builds the Cech cohomology table of its ideal.
CECH_KINDS = ("cohomology", "prop3.4", "verify-all")


@dataclass
class Op:
    kind: str
    argv: list[str]
    key: str  # canonical input; equal keys in a block are repeats
    variables: int = 0
    generators: int = 0
    classes: int = 0  # prod(rho_j + 1): orthant classes of the Cech enumeration
    data: dict = field(default_factory=dict)  # what the checks need


# -- monomial ideals as exponent tuples ----------------------------------------


def minimalize(gens) -> list[tuple[int, ...]]:
    kept: list[tuple[int, ...]] = []
    for g in sorted(set(gens), key=lambda t: (sum(t), t)):
        if not any(all(a <= b for a, b in zip(h, g)) for h in kept):
            kept.append(g)
    return kept


def format_monomial(exps, names) -> str:
    parts = [n if e == 1 else f"{n}^{e}" for n, e in zip(names, exps) if e]
    return "*".join(parts) or "1"


def format_ideal(gens, names) -> str:
    return ", ".join(format_monomial(g, names) for g in gens)


def monomial_op(kind: str, argv_head: list[str], gens, tail=(), data=None) -> Op:
    k = len(gens[0])
    names = NAMES[:k]
    text = format_ideal(gens, names)
    rho = [max(g[j] for g in gens) for j in range(k)]
    return Op(
        kind=kind,
        argv=[*argv_head, "--ring", ",".join(names), "--ideal", text, *tail],
        key=f"{kind}:{k}:{text}",
        variables=k,
        generators=len(gens),
        classes=prod(r + 1 for r in rho) if kind in CECH_KINDS else 0,
        data={"k": k, "gens": gens, **(data or {})},
    )


def random_m_primary(rng: random.Random, k: int, deg_bound: int):
    """Replica of `bounds.random_m_primary_ideal`: a pure power of each variable
    plus a few random monomials under the staircase, minimalized."""
    pure = [rng.randint(1, deg_bound) for _ in range(k)]
    gens = [tuple(a if i == j else 0 for i in range(k)) for j, a in enumerate(pure)]
    for _ in range(rng.randint(0, k + 1)):
        exps = tuple(rng.randint(0, max(a - 1, 0)) for a in pure)
        if sum(exps) > 0:
            gens.append(exps)
    return minimalize(gens)


def instance_seed(seed: int, index: int) -> int:
    """Replica of `bounds.instance_seed`."""
    return seed * 1_000_003 + index


def prop34_corpus(seed: int, count: int):
    """Replica of `bounds.corpus_monomial(seed, count, 3, 3)`, as exponent tuples."""
    return [random_m_primary(random.Random(instance_seed(seed, i)), 3, 3) for i in range(count)]


def wide_ideal(rng: random.Random, rho, ngens: int):
    """Random generators, each in at least two variables (so the ideal is not
    m-primary and dim > 0), whose per-variable maxima are exactly rho."""
    k = len(rho)
    while True:
        gens = []
        for _ in range(ngens):
            while True:
                g = [rng.randint(0, r) for r in rho]
                if sum(1 for e in g if e) >= 2:
                    break
            gens.append(g)
        for j in range(k):
            gens[rng.randrange(ngens)][j] = rho[j]
        gens = minimalize(tuple(g) for g in gens)
        if all(max(g[j] for g in gens) == rho[j] for j in range(k)) and all(
            sum(1 for e in g if e) >= 2 for g in gens
        ):
            return gens


def small_ideal(rng: random.Random, k: int, ngens: int, top: int):
    """Random proper nonzero monomial ideal with exponents in [0, top]."""
    gens = []
    while len(gens) < ngens:
        g = tuple(rng.randint(0, top) for _ in range(k))
        if sum(g):
            gens.append(g)
    return minimalize(gens)


# -- numerical semigroups ----------------------------------------------------


def semigroup_members(gens, bound: int) -> list[bool]:
    member = [False] * (bound + 1)
    member[0] = True
    for n in range(1, bound + 1):
        member[n] = any(n >= a and member[n - a] for a in gens)
    return member


def semigroup_conductor(gens) -> int:
    cap = gens[0] * gens[-1] + gens[-1] + 2
    member = semigroup_members(gens, cap)
    gaps = [n for n in range(cap + 1) if not member[n]]
    return gaps[-1] + 1 if gaps else 0


def random_semigroup_ideal(rng: random.Random, lo: int, hi: int):
    """The corpus's semigroup-ideal recipe over generators drawn from [lo, hi]."""
    while True:
        gens = sorted(rng.sample(range(lo, hi + 1), rng.randint(2, 4)))
        if gcd(*gens) == 1:
            break
    bound = gens[0] + semigroup_conductor(gens) + 4
    member = semigroup_members(gens, bound)
    candidates = [s for s in range(1, bound + 1) if member[s]]
    ideal = sorted(rng.sample(candidates, rng.randint(1, min(3, len(candidates)))))
    return gens, ideal


# -- blocks ------------------------------------------------------------------


def cohomology_wide_block(rng: random.Random, seen: set) -> list[Op]:
    ops = []
    for rho, ngens in COHOMOLOGY_SLOTS:
        while True:
            permuted = list(rho)
            rng.shuffle(permuted)
            gens = wide_ideal(rng, permuted, ngens)
            op = monomial_op("cohomology", ["cohomology"], gens)
            if op.key not in seen:  # inputs never repeat within a run
                seen.add(op.key)
                ops.append(op)
                break
    return ops


def prop34_ops(count: int) -> list[Op]:
    """One op per instance of the prop3.4 corpus at VERIFY_CORPUS_SEED, with the
    instance's own seed: what `verify --bound prop3.4 --corpus-seed 0 --vars 3
    --degree-bound 3` runs for its first `count` instances."""
    ops = []
    for i, gens in enumerate(prop34_corpus(VERIFY_CORPUS_SEED, count)):
        tail = ("--bound", "prop3.4", "--corpus-seed", str(instance_seed(VERIFY_CORPUS_SEED, i)))
        ops.append(monomial_op("prop3.4", ["verify"], gens, tail))
    return ops


def cli_mix_pool() -> list[Op]:
    ops = []
    for kind, head, flag, first in (("verify-all", ["verify"], "--corpus-seed", 0),
                                    ("reduction", ["reduction"], "--seed", MIX_POOL)):
        for i in range(first, first + MIX_POOL):
            corpus_seed = instance_seed(0, i)
            gens = random_m_primary(random.Random(corpus_seed), 2, 6)
            tail = ("--bound", "all") if kind == "verify-all" else ()
            ops.append(monomial_op(kind, head, gens, (*tail, flag, str(corpus_seed))))
    semigroup_ideals = [random_semigroup_ideal(random.Random(instance_seed(0, i)), *SEMIGROUP_RANGE)
                        for i in range(SEMIGROUP_POOL)]
    for sg, ideal in semigroup_ideals + [PLATEAU_EXAMPLE]:
        ops.append(prop31_op(sg, ideal))
    ops.append(Op(kind="reproduce-2.2", argv=["reproduce", "example-2.2"], key="reproduce-2.2"))
    ops.append(Op(kind="reproduce-3.2", argv=["reproduce", "example-3.2"], key="reproduce-3.2"))
    return ops


def prop31_op(sg, ideal) -> Op:
    text_s = ",".join(map(str, sg))
    text_i = ",".join(map(str, ideal))
    return Op(
        kind="prop3.1",
        argv=["verify", "--semigroup", text_s, "--ideal", text_i, "--bound", "prop3.1"],
        key=f"prop3.1:{text_s}:{text_i}",
        generators=len(ideal),
        data={"semigroup": sg, "ideal": ideal},
    )


def cli_mix_block(rng: random.Random, pool: list[Op]) -> list[Op]:
    ops = list(pool)
    for kind, count in MIX_SEEDED:
        for i in range(count):
            if kind == "hilbert":
                gens = small_ideal(rng, 3 + i % 4, rng.randint(3, 6), 4)
                ops.append(monomial_op(kind, ["hilbert"], gens, ("--window", "0:8")))
            else:
                gens = small_ideal(rng, rng.choice((2, 3)), rng.randint(2, 4), 4)
                ops.append(monomial_op(kind, ["cohomology"], gens))
    order = list(range(len(ops)))
    random.Random(MIX_ORDER_SEED).shuffle(order)
    return [ops[i] for i in order]


def blocks(workload: str, seed: int, tiny: bool = False):
    """The endless block sequence of a workload; `tiny` shrinks every block to
    a handful of ops for the smoke test."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    seen: set = set()
    prop34 = prop34_ops(12 if tiny else VERIFY_BLOCK)
    pool = cli_mix_pool()
    for b in itertools.count():
        rng = random.Random(f"{workload}:{seed}:{b}")
        if workload == "cohomology-wide":
            block = cohomology_wide_block(rng, seen)[: 3 if tiny else None]
        elif workload == "verify-3var":
            block = rng.sample(prop34, len(prop34))
        else:
            block = cli_mix_block(rng, pool)
            if tiny:
                kinds = sorted({op.kind for op in block})
                block = [next(op for op in block if op.kind == kind) for kind in kinds]
        yield block
