"""Acceptance suite: every criterion at its stated tolerance (exact equality
unless noted), one printed pass/fail line per criterion.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines stream.
"""

import io
import json
import random
import sys
import time

from monograded import cli
from monograded.bounds import (
    random_m_primary_ideal,
    run_corpus,
    verify_eg_inequality,
    verify_main_bound,
    verify_prop_3_1,
)
from monograded.cohomology import cohomology_table
from monograded.errors import NotAReduction
from monograded.filtration import (
    G_hilbert_data,
    cm_h_vector,
    minimal_reduction,
    newton_multiplicity,
    ratliff_rush,
    reduction_number,
    reduction_number_wrt,
)
from monograded.monomials import MonomialIdeal, parse_ideal
from monograded.semigroup import (
    NumericalSemigroup,
    SemigroupIdeal,
    ideal_power_sg,
    length_sg,
    multiplicity_sg,
    reduction_number_sg,
    rr_sg,
)
from oracles import (
    monomial_reduction,
    monomial_reduction_number,
    pure_power_variable,
    serre_difference_table,
)


def check(num: int, description: str, passed: bool, detail: str = ""):
    status = "PASS" if passed else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"[criterion {num}] {status}: {description}{suffix}")
    assert passed, f"criterion {num} failed: {description}{suffix}"


def test_criterion_1_example_22_reproduction():
    start = time.time()
    result, mismatches = cli.reproduce_example_22()
    elapsed = time.time() - start
    exact = (
        result["hilbert_reduced_numerator"] == [1, 2]
        and result["dim"] == 2
        and result["e"] == 3
        and result["depth"] == 1
        and result["a"] == 0
        and result["h1_0"] == 1
        and result["eg"] == 1
        and result["bound"]["status"] == "sharp"
        and result["intersection_matches"] is True
        and result["aux_a_invariants"] == {"R/J": 0, "R/K": 0, "R/(J+K)": -1}
    )
    check(
        1,
        "worked fiber-cone example reproduced exactly",
        not mismatches and exact and elapsed < 60.0,
        f"{elapsed:.2f}s",
    )


def test_criterion_2_generator_counts_and_reconstruction():
    result, mismatches = cli.reproduce_example_22()
    ok = result["mu"] == [3 * n + 1 for n in range(1, 7)] and result[
        "fiber_reduced_numerator"
    ] == [1, 2]
    check(2, "mu(I^n) = 3n+1 for n=1..6 and mu-series reconstructs to (1+2l)/(1-l)^2", ok)


def test_criterion_3_example_32_reproduction():
    start = time.time()
    result, mismatches = cli.reproduce_example_32()
    elapsed = time.time() - start
    exact = (
        result["I2_equals_m2"] is True
        and result["rr_I2_equals_I2"] is True
        and result["e"] == 4
        and result["l_I_I2"] == 3
        and result["r"] == 2
        and result["principal_reduction"] == 4
        and result["bound"]["status"] == "sharp"
    )
    check(
        3,
        "numerical semigroup example reproduced exactly",
        not mismatches and exact and elapsed < 1.0,
        f"{elapsed * 1000:.0f}ms",
    )


def _serre_corpus(total: int):
    produced = 0
    index = 0
    while produced < total:
        k = 2 + (index % 2)
        rng = random.Random(990_000 + index)
        ideal = random_m_primary_ideal(rng, k, 6)
        if index % 3 == 2:
            # leave the Artinian world: drop one pure power
            gens = ideal.exps
            pures = [g for g in gens if pure_power_variable(g) is not None]
            rest = [g for g in gens if g != pures[0]]
            if rest:
                ideal = MonomialIdeal(k, rest)
        if ideal.is_zero or ideal.is_unit:
            index += 1
            continue
        yield ideal
        produced += 1
        index += 1


def test_criterion_4_grothendieck_serre_identity():
    start = time.time()
    instances = 0
    failures = 0
    for ideal in _serre_corpus(102):
        table = cohomology_table(ideal)
        rho_sum = sum(table.rho)
        serre = serre_difference_table(ideal, -rho_sum, rho_sum)
        for n, difference in serre.items():
            alternating = sum((-1) ** i * table.h(i, n) for i in range(ideal.k + 1))
            if alternating != difference:
                failures += 1
        instances += 1
    elapsed = time.time() - start
    check(
        4,
        "alternating cohomology sums equal H(n)-P(n) across the full window",
        instances >= 100 and failures == 0 and elapsed < 600.0,
        f"{instances} ideals, {failures} failures, {elapsed:.1f}s",
    )


def test_criterion_5_main_bound_corpus():
    violations_main = 0
    violations_eg = 0
    instances = 0
    for k in (2, 3, 4):
        for i in range(34):
            rng = random.Random(550_000 + 100 * k + i)
            ideal = random_m_primary_ideal(rng, k, 6)
            if verify_main_bound(ideal, f"c5-{k}-{i}").status == "violated":
                violations_main += 1
            if verify_eg_inequality(ideal, f"c5-{k}-{i}").status == "violated":
                violations_eg += 1
            instances += 1
    check(
        5,
        "a-invariant bound and EG lower bound hold on the random corpus",
        instances >= 100 and violations_main == 0 and violations_eg == 0,
        f"{instances} ideals",
    )


def test_criterion_6_prop31_corpus():
    reports, agg = run_corpus("prop3.1", seed=0, count=50)
    example = verify_prop_3_1(
        SemigroupIdeal(NumericalSemigroup((4, 5, 6, 7)), (4, 5, 6)), "ex3.2"
    )
    check(
        6,
        "one-dimensional reduction-number bound holds on 50 semigroups, sharp on the worked example",
        agg["total"] >= 50 and agg["violations"] == 0 and example.status == "sharp",
        f"holds={agg['holds']} sharp={agg['sharp']}",
    )


def _plane_instance(rng: random.Random, closed: bool):
    a, b = rng.randint(2, 5), rng.randint(2, 5)
    gens = [(a, 0), (0, b)]
    for _ in range(rng.randint(1, 3)):
        i = rng.randint(1, a - 1)
        if closed:
            j_min = -(-b * (a - i) // a)  # ceil(b(a-i)/a)
            if j_min >= b:
                continue
            j = rng.randint(j_min, b - 1)
        else:
            j_max = (b * (a - i) - 1) // a
            if j_max < 1:
                continue
            j = rng.randint(1, j_max)
        gens.append((i, j))
    ideal = MonomialIdeal(2, gens)
    param = MonomialIdeal(2, [(a, 0), (0, b)])
    return ideal, param


def test_criterion_7_oracle_equivalence():
    # (a) single-variable instances against the sumset engine
    nat = NumericalSemigroup((1,))
    single_agree = 0
    for i in range(22):
        rng = random.Random(770_000 + i)
        gens = sorted(rng.sample(range(1, 13), rng.randint(1, 3)))
        sg = SemigroupIdeal(nat, gens)
        mono = MonomialIdeal(1, [(g,) for g in gens])
        r_mono, _, _ = reduction_number(mono, trials=1, seed=i)
        r_sg, _ = reduction_number_sg(sg)
        same = (
            r_mono == r_sg
            and newton_multiplicity(mono) == multiplicity_sg(sg)
            and all(
                mono.power(n).quotient_length() == length_sg(ideal_power_sg(sg, n))
                for n in (1, 2, 3)
            )
            and {g[0] for g in ratliff_rush(mono).exps} == set(rr_sg(sg).gens)
        )
        if same:
            single_agree += 1

    # (b) plane instances with monomial parameter reductions
    plane_agree = 0
    plane_total = 0
    for i in range(24):
        rng = random.Random(880_000 + i)
        ideal, param = _plane_instance(rng, closed=True)
        reduction = monomial_reduction(param)
        r_linear = reduction_number_wrt(reduction, ideal)
        r_brute = monomial_reduction_number(ideal, param)
        plane_total += 1
        if r_linear == r_brute:
            plane_agree += 1

    # non-reduction outcomes agree too
    refusals_agree = True
    for i in range(4):
        rng = random.Random(881_000 + i)
        ideal, param = _plane_instance(rng, closed=False)
        if param == ideal:
            continue
        if newton_multiplicity(ideal) == newton_multiplicity(param):
            continue  # extras did not cut the multiplicity; J is a reduction
        reduction = monomial_reduction(param)
        linear_refused = brute_refused = False
        try:
            reduction_number_wrt(reduction, ideal, n_bound=8)
        except NotAReduction:
            linear_refused = True
        try:
            monomial_reduction_number(ideal, param, n_bound=8)
        except NotAReduction:
            brute_refused = True
        refusals_agree = refusals_agree and linear_refused and brute_refused

    check(
        7,
        "truncation oracle matches the sumset engine and the monomial brute-force oracle",
        single_agree >= 20 and plane_agree >= 20 and plane_agree == plane_total and refusals_agree,
        f"single-variable {single_agree}/22, plane {plane_agree}/{plane_total}",
    )


def _diagonal_closure(a: int, b: int) -> MonomialIdeal:
    """All monomials on or above the Newton diagonal of (x^a, y^b): the
    integral closure of the parameter ideal, hence Ratliff-Rush closed with
    Cohen-Macaulay associated graded ring."""
    gens = [
        (i, j)
        for i in range(a + 1)
        for j in range(b + 1)
        if i * b + j * a >= a * b
    ]
    return MonomialIdeal(2, gens)


def test_criterion_8_engine_self_consistency():
    instances = []
    maximal = parse_ideal("x, y", ("x", "y"))
    for s in (1, 2, 3, 4):
        instances.append(maximal.power(s))
    for a, b in ((2, 3), (3, 3), (2, 5), (4, 2), (3, 4), (5, 2), (2, 2)):
        instances.append(MonomialIdeal(2, [(a, 0), (0, b)]))
    for a, b in ((2, 3), (3, 4), (4, 5), (5, 3), (3, 3), (4, 4), (2, 5), (3, 5)):
        instances.append(_diagonal_closure(a, b))
    for i in range(8):
        rng = random.Random(660_000 + i)
        ideal, _ = _plane_instance(rng, closed=True)
        instances.append(ideal)

    certified = 0
    bridge_ok = True
    newton_ok = True
    for idx, ideal in enumerate(instances):
        g_data = G_hilbert_data(ideal)
        if newton_multiplicity(ideal) != g_data.multiplicity:
            newton_ok = False
        reduction = minimal_reduction(ideal, seed=idx)
        try:
            r_j = reduction_number_wrt(reduction, ideal)
        except NotAReduction:
            continue
        is_cm, h = cm_h_vector(ideal, reduction, r_j)
        if is_cm:
            certified += 1
            a_g = len(h) - 1 - ideal.k
            if r_j != a_g + ideal.k:
                bridge_ok = False
    check(
        8,
        "r_J = a(G) + d on certified instances; Newton multiplicity = Q(1) of the G-series",
        certified >= 20 and bridge_ok and newton_ok,
        f"{certified} certified instances of {len(instances)}",
    )


def test_criterion_9_determinism():
    argv = ["verify", "--bound", "all", "--count", "8", "--corpus-seed", "12"]

    def run():
        buffer = io.StringIO()
        old = sys.stdout
        sys.stdout = buffer
        try:
            code = cli.main(argv)
        finally:
            sys.stdout = old
        return code, buffer.getvalue()

    code1, out1 = run()
    code2, out2 = run()
    json.loads(out1)  # well-formed
    check(
        9,
        "repeated verify runs with one seed emit byte-identical JSON",
        code1 == 0 and code2 == 0 and out1 == out2,
        f"{len(out1)} bytes",
    )
