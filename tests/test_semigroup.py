import random

import pytest

from monograded.errors import ComputationError
from monograded.bounds import random_semigroup_ideal, verify_prop_3_1
from monograded.filtration import newton_multiplicity, ratliff_rush, reduction_number
from monograded.monomials import MonomialIdeal
from monograded.semigroup import (
    NumericalSemigroup,
    SemigroupIdeal,
    colon_sg,
    ideal_power_sg,
    ideal_product_sg,
    intersection_sg,
    length_between_sg,
    length_sg,
    multiplicity_sg,
    reduction_number_sg,
    rr_sg,
    translate_sg,
)

from oracles import apery_count

S4567 = NumericalSemigroup((4, 5, 6, 7))
NAT = NumericalSemigroup((1,))


def test_semigroup_basics():
    assert S4567.conductor == 4
    assert S4567.frobenius == 3
    assert S4567.gaps() == [1, 2, 3]
    assert NAT.frobenius == -1
    assert NumericalSemigroup((2, 3)).frobenius == 1
    assert S4567.contains(11) and not S4567.contains(3)
    with pytest.raises(ValueError):
        NumericalSemigroup((4, 6))
    with pytest.raises(ValueError):
        NumericalSemigroup(())


def test_ideal_construction_and_normalization():
    ideal = SemigroupIdeal(S4567, (4, 5, 6))
    assert ideal.gens == (4, 5, 6)
    assert ideal.contains(8) and not ideal.contains(7)
    # generators that are redundant get dropped
    over_nat = SemigroupIdeal(NAT, (3, 5, 7))
    assert over_nat.gens == (3,)
    with pytest.raises(ValueError):
        SemigroupIdeal(S4567, (3,))
    with pytest.raises(ValueError):
        SemigroupIdeal(S4567, ())


def test_worked_example_values():
    ideal = SemigroupIdeal(S4567, (4, 5, 6))
    maximal = SemigroupIdeal(S4567, (4, 5, 6, 7))
    i2 = ideal_power_sg(ideal, 2)
    assert i2 == ideal_power_sg(maximal, 2)
    assert rr_sg(ideal, 2) == i2
    assert length_sg(ideal) == 2
    assert length_sg(i2) == 5
    assert length_between_sg(ideal, i2) == 3
    assert multiplicity_sg(ideal) == 4
    assert reduction_number_sg(ideal) == (2, 4)


def test_multiplicity_is_apery_count():
    ideal = SemigroupIdeal(S4567, (4, 5, 6))
    assert apery_count(S4567, multiplicity_sg(ideal)) == 4
    assert apery_count(S4567, 4) == len({0, 5, 6, 7})
    rng = random.Random(107)
    for _ in range(15):
        ideal = random_semigroup_ideal(rng)
        assert multiplicity_sg(ideal) == apery_count(ideal.S, ideal.min_element)


def test_reduction_examples():
    assert reduction_number_sg(SemigroupIdeal(NAT, (1,))) == (0, 1)
    s23 = NumericalSemigroup((2, 3))
    assert reduction_number_sg(SemigroupIdeal(s23, (2, 3))) == (1, 2)


def test_colon_and_translate():
    ideal = SemigroupIdeal(S4567, (4, 5, 6))
    i2 = ideal_power_sg(ideal, 2)
    quot = colon_sg(i2, ideal)
    assert quot.gens == (4, 5, 6, 7)
    shifted = translate_sg(ideal, 4)
    assert all(shifted.contains(4 + e) for e in ideal.elements_upto(20))
    assert not shifted.contains(11)  # 7 is not in the ideal


def test_product_matches_elementwise_sumset():
    rng = random.Random(109)
    for _ in range(15):
        a = random_semigroup_ideal(rng)
        b = SemigroupIdeal(a.S, (a.S.gens[-1],))
        prod = ideal_product_sg(a, b)
        bound = prod.threshold + 4
        a_els = set(a.elements_upto(bound))
        b_els = set(b.elements_upto(bound))
        sums = {x + y for x in a_els for y in b_els if x + y <= bound}
        assert set(prod.elements_upto(bound)) == sums


def test_intersection_membership():
    ideal = SemigroupIdeal(S4567, (4, 5, 6))
    i2 = ideal_power_sg(ideal, 2)
    inter = intersection_sg(ideal, i2)
    bound = inter.threshold + 5
    for n in range(bound):
        assert inter.contains(n) == (ideal.contains(n) and i2.contains(n))


def test_prop31_chain_random():
    rng = random.Random(113)
    for _ in range(25):
        ideal = random_semigroup_ideal(rng)
        r, _ = reduction_number_sg(ideal)
        e = multiplicity_sg(ideal)
        inner = intersection_sg(ideal, rr_sg(ideal, 2))
        ell = length_between_sg(ideal, inner)
        assert ell >= 1
        assert r <= e - (ell - 1) <= e


def test_rr_closure_past_a_plateau():
    # (I^(2+n) : I^n) is equal for n = 2..6 and grows at n = 7, so the first
    # repeat of the chain is not the Ratliff-Rush closure.
    ideal = SemigroupIdeal(NumericalSemigroup((10, 13, 15)), (38, 39))
    chain = [colon_sg(ideal_power_sg(ideal, 2 + n), ideal_power_sg(ideal, n)) for n in range(2, 8)]
    assert chain[0] == chain[4] != chain[5]
    r, _ = reduction_number_sg(ideal)
    assert rr_sg(ideal, 2) == colon_sg(ideal_power_sg(ideal, r + 5), ideal_power_sg(ideal, r + 3))
    report = verify_prop_3_1(ideal)
    assert report.witness["middle"] == 15
    assert report.status != "violated"


def test_colengths_eventually_linear_with_slope_e():
    rng = random.Random(127)
    for _ in range(10):
        ideal = random_semigroup_ideal(rng)
        r, _ = reduction_number_sg(ideal)
        e = multiplicity_sg(ideal)
        lengths = [length_sg(ideal_power_sg(ideal, n)) for n in range(2 * r + 5)]
        diffs = [b - a for a, b in zip(lengths, lengths[1:])]
        assert all(d == e for d in diffs[r:])


def test_sumset_engine_agrees_with_monomial_engine_over_nat():
    rng = random.Random(131)
    for _ in range(12):
        gens = sorted(rng.sample(range(1, 10), rng.randint(1, 3)))
        sg_ideal = SemigroupIdeal(NAT, gens)
        mono_ideal = MonomialIdeal(1, [(g,) for g in gens])
        assert length_sg(sg_ideal) == mono_ideal.quotient_length()
        assert multiplicity_sg(sg_ideal) == newton_multiplicity(mono_ideal)
        for n in (2, 3):
            assert length_sg(ideal_power_sg(sg_ideal, n)) == mono_ideal.power(n).quotient_length()
        r_sum, _ = reduction_number_sg(sg_ideal)
        r_mono, _, _ = reduction_number(mono_ideal, trials=1, seed=0)
        assert r_sum == r_mono
        rr_set = rr_sg(sg_ideal)
        rr_mono = ratliff_rush(mono_ideal)
        assert set(g[0] for g in rr_mono.exps) == set(rr_set.gens)


def test_minimal_generators_of_derived_ideals():
    # powers, colons and closures are built from element sets; their generators
    # are the elements z of E with no other w in E and z - w in S
    rng = random.Random(149)
    for _ in range(30):
        ideal = random_semigroup_ideal(rng)
        S, square = ideal.S, ideal_power_sg(ideal, 2)
        for derived in (square, colon_sg(square, ideal), rr_sg(ideal), intersection_sg(ideal, square)):
            elements = derived.elements_upto(derived.threshold + S.gens[0])
            brute = [z for z in elements
                     if not any(w != z and S.contains(z - w) for w in elements if w <= z)]
            assert list(derived.gens) == brute


def test_unit_ideal_allowed_as_colon_value():
    ideal = SemigroupIdeal(S4567, (4, 5, 6))
    whole = colon_sg(ideal, ideal)
    assert whole.contains(0)
    assert length_sg(whole) == 0
