import random

import pytest

from monograded.bounds import (
    BOUNDS,
    HOLDS,
    SHARP,
    SKIPPED,
    UNVERIFIED,
    aggregate,
    corpus_monomial,
    corpus_semigroup,
    instance_seed,
    random_m_primary_ideal,
    run_corpus,
    verify_eg_inequality,
    verify_main_bound,
    verify_prop_3_1,
    verify_prop_3_3,
    verify_prop_3_4,
)
from monograded.errors import ComputationError
from monograded.filtration import reduction_number
from monograded.monomials import MonomialIdeal, parse_ideal
from monograded.semigroup import NumericalSemigroup, SemigroupIdeal

from oracles import prop34_lengths

XY = ("x", "y")
ABCD = ("a", "b", "c", "d")
N_IDEAL = parse_ideal("b*d, b*c, b^2, c^3", ABCD)


def test_main_bound_examples():
    report = verify_main_bound(N_IDEAL, "ex")
    assert (report.lhs, report.rhs, report.status) == (0, 0, SHARP)
    assert report.witness["e"] == 3 and report.witness["l_R1"] == 4
    poly = verify_main_bound(MonomialIdeal.zero(2), "poly")
    assert (poly.lhs, poly.rhs, poly.status) == (-2, -1, HOLDS)


def test_eg_inequality_examples():
    report = verify_eg_inequality(N_IDEAL, "ex")
    assert (report.lhs, report.rhs, report.status) == (3, 2, HOLDS)
    poly = verify_eg_inequality(MonomialIdeal.zero(2), "poly")
    assert (poly.lhs, poly.rhs, poly.status) == (1, 1, SHARP)
    hyper = verify_eg_inequality(parse_ideal("x^2", XY), "hyper")
    assert (hyper.lhs, hyper.rhs, hyper.status) == (2, 2, SHARP)


def test_prop31_examples():
    S = NumericalSemigroup((4, 5, 6, 7))
    report = verify_prop_3_1(SemigroupIdeal(S, (4, 5, 6)), "ex3.2")
    assert (report.lhs, report.rhs, report.status) == (2, 2, SHARP)
    assert report.witness["e"] == 4
    nat = verify_prop_3_1(SemigroupIdeal(NumericalSemigroup((1,)), (1,)), "nat")
    assert nat.status in (HOLDS, SHARP)
    assert nat.lhs == 0 and nat.witness["e"] == 1
    # hand-checked: S = <3,4,5>, I = m: r = 1, e = 3, l(I/(I cap rr(I^2))) = 3
    hand = verify_prop_3_1(SemigroupIdeal(NumericalSemigroup((3, 4, 5)), (3, 4, 5)), "m345")
    assert (hand.lhs, hand.rhs, hand.status) == (1, 1, SHARP)
    assert hand.witness["l_I_over_I_cap_rrI2"] == 3


def test_prop33_examples():
    m2 = parse_ideal("x^2, x*y, y^2", XY)
    report = verify_prop_3_3(m2, "m2")
    # 1 + e - l(I/I^2) + l(R/I) + h^1(G)_0 = 1 + 4 - 7 + 3 + 0 = 1
    assert report.lhs == 1 and report.rhs == 1 and report.status == SHARP
    assert report.witness["path"] == "cm-certificate"
    assert report.witness["l_I_I2"] == 7 and report.witness["l_R_I"] == 3
    maximal = parse_ideal("x, y", XY)
    report = verify_prop_3_3(maximal, "m")
    assert report.lhs == 0 and report.rhs == 1 and report.status == HOLDS
    stair = parse_ideal("x^4, x^3*y, x*y^3, y^4", XY)
    report = verify_prop_3_3(stair, "stair")
    assert report.status == SKIPPED
    assert "gamma" in report.witness["reason"]
    with pytest.raises(ComputationError):
        verify_prop_3_3(MonomialIdeal(3, [(1, 0, 0), (0, 1, 0), (0, 0, 1)]))


def test_prop34_examples():
    maximal = MonomialIdeal(3, [(1, 0, 0), (0, 1, 0), (0, 0, 1)])
    report = verify_prop_3_4(maximal, "m")
    assert (report.lhs, report.rhs, report.status) == (0, 1, HOLDS)
    report = verify_prop_3_4(maximal.power(2), "m2")
    assert (report.lhs, report.rhs, report.status) == (1, 1, SHARP)
    report = verify_prop_3_4(maximal.power(3), "m3")
    assert (report.lhs, report.rhs, report.status) == (2, 2, SHARP)
    assert report.witness["l_R_J"] == report.witness["e"]
    with pytest.raises(ComputationError):
        verify_prop_3_4(parse_ideal("x^2, y^2", XY))


def test_prop34_witnesses_match_separate_certificates():
    # the lengths read off the Valabrega-Valla levels against a recomputation
    # of ell(R/J) and ell(I^2/JI), each on its own certificate
    maximal = MonomialIdeal(3, [(1, 0, 0), (0, 1, 0), (0, 0, 1)])
    instances = [(f"m^{p}", maximal.power(p), 0) for p in (1, 2, 3)]
    instances += [(iid, ideal, instance_seed(0, i))
                  for i, (iid, ideal) in enumerate(corpus_monomial(0, 40, 3, 3))]
    compared = set()
    for iid, ideal, seed in instances:
        rep = verify_prop_3_4(ideal, iid, seed=seed)
        if "l_R_J" not in rep.witness:
            continue
        _, reduction, _ = reduction_number(ideal, trials=2, seed=seed)
        l_r_j, l_i2_ji = prop34_lengths(ideal, reduction)
        assert rep.witness["l_R_J"] == l_r_j, iid
        if "l_I2_JI" in rep.witness:
            assert rep.witness["l_I2_JI"] == l_i2_ji, iid
            compared.add(rep.witness["r_J"])
    assert {0, 1, 2} <= compared


def test_statuses_and_no_violations_on_corpora():
    for bound, kwargs in (
        ("thm2.1", {"k": 2}),
        ("thm2.1", {"k": 4}),
        ("eg-lower", {"k": 3}),
        ("prop3.1", {}),
    ):
        reports, agg = run_corpus(bound, seed=3, count=25, **kwargs)
        assert agg["violations"] == 0
        assert agg["total"] == 25
        for report in reports:
            assert report.status in (HOLDS, SHARP, UNVERIFIED, SKIPPED)


def test_corpus_determinism():
    first = [r.to_dict() for r in run_corpus("thm2.1", seed=9, count=8, k=3)[0]]
    second = [r.to_dict() for r in run_corpus("thm2.1", seed=9, count=8, k=3)[0]]
    assert first == second
    other = [r.to_dict() for r in run_corpus("thm2.1", seed=10, count=8, k=3)[0]]
    assert first != other


def test_corpus_gives_each_instance_its_own_seed(monkeypatch):
    seen = []
    spec = BOUNDS["thm2.1"]

    def record(instance, instance_id, seed):
        seen.append(seed)
        return spec.check(instance, instance_id, seed)

    monkeypatch.setitem(BOUNDS, "thm2.1", spec._replace(check=record))
    run_corpus("thm2.1", seed=7, count=3)
    assert seen == [instance_seed(7, i) for i in range(3)]


def test_corpus_generators_deterministic():
    a = [(i, ideal.format()) for i, ideal in corpus_monomial(4, 6, 2)]
    b = [(i, ideal.format()) for i, ideal in corpus_monomial(4, 6, 2)]
    assert a == b
    sa = [(i, ideal.gens) for i, ideal in corpus_semigroup(4, 6)]
    sb = [(i, ideal.gens) for i, ideal in corpus_semigroup(4, 6)]
    assert sa == sb


def test_random_ideals_are_m_primary():
    rng = random.Random(137)
    for _ in range(30):
        k = rng.randint(2, 4)
        ideal = random_m_primary_ideal(rng, k, 6)
        assert ideal.is_m_primary()
        rho = ideal.max_exponents()
        assert all(r <= 6 for r in rho)


def test_aggregate_counts_and_gaps():
    reports, agg = run_corpus("prop3.1", seed=0, count=10)
    assert agg["total"] == 10
    assert agg["holds"] + agg["sharp"] == 10
    assert agg["min_gap"] is not None and agg["min_gap"] >= 0
    again = aggregate(reports)
    assert again == agg


def test_each_bound_applies_to_its_instances():
    instances = {
        "plane": parse_ideal("x^2, x*y, y^3", XY),
        "plane, not m-primary": parse_ideal("x^2, x*y", XY),
        "three variables": parse_ideal("x^2, y^2, z^2, x*y", ("x", "y", "z")),
        "three variables, not m-primary": parse_ideal("x^2, y*z", ("x", "y", "z")),
        "unit": MonomialIdeal.unit(2),
        "semigroup": SemigroupIdeal(NumericalSemigroup((4, 5, 6, 7)), (4, 5, 6)),
    }
    applies = {
        name: [bound for bound, spec in BOUNDS.items() if spec.applies(instance)]
        for name, instance in instances.items()
    }
    assert applies == {
        "plane": ["thm2.1", "eg-lower", "prop3.3"],
        "plane, not m-primary": ["thm2.1", "eg-lower"],
        "three variables": ["thm2.1", "eg-lower", "prop3.4"],
        "three variables, not m-primary": ["thm2.1", "eg-lower"],
        "unit": ["thm2.1", "eg-lower"],
        "semigroup": ["prop3.1"],
    }


def test_unknown_bound_rejected():
    with pytest.raises(ValueError):
        run_corpus("prop9.9", seed=0, count=1)
