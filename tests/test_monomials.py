import random

import pytest

from monograded.errors import DimensionMismatch, InfiniteLength, ZeroIdealColon
from monograded.monomials import (
    Monomial,
    MonomialIdeal,
    compositions,
    minimalize,
    parse_ideal,
    parse_monomial,
)
from monograded.bounds import random_m_primary_ideal

from oracles import (
    box_standard_count,
    brute_colon_matches,
    brute_intersection_matches,
    contains_ideal,
    contains_monomial,
    divides,
    monomials_upto,
    standard_monomials,
)

XY = ("x", "y")
ABCD = ("a", "b", "c", "d")


def mono(text, names):
    return parse_monomial(text, names).exps


def test_divides_lcm_product():
    # lcm, divisibility and products of monomials, as principal ideals
    b, c3 = parse_ideal("b", ABCD), parse_ideal("c^3", ABCD)
    assert b.intersection(c3) == parse_ideal("b*c^3", ABCD)
    assert contains_monomial(parse_ideal("x", XY), mono("x^3", XY))
    assert not contains_monomial(parse_ideal("x^3", XY), mono("x", XY))
    assert parse_ideal("x^2*y^4", XY) * parse_ideal("x*y^5", XY) == parse_ideal("x^3*y^9", XY)


def test_dimension_mismatch_raises():
    with pytest.raises(DimensionMismatch):
        parse_ideal("x", XY).intersection(parse_ideal("b", ABCD))
    with pytest.raises(DimensionMismatch):
        parse_ideal("x", XY) + parse_ideal("b", ABCD)
    with pytest.raises(DimensionMismatch):
        parse_ideal("x*y", XY).colon_monomial((1, 1, 1))


def test_ideal_boundary_checks_exponent_tuples():
    with pytest.raises(ValueError, match="negative exponent"):
        MonomialIdeal(2, [(1, -1)])
    with pytest.raises(DimensionMismatch):
        MonomialIdeal(2, [(1, 0), (1, 0, 0)])
    with pytest.raises(ValueError, match="negative exponent"):
        Monomial((0, -2))
    with pytest.raises(ValueError, match="negative exponent"):
        parse_ideal("x*y", XY).colon_monomial((-1, 0))
    ideal = MonomialIdeal(2, [[0, 7], (3, 0), (1, 5), (2, 4), (2, 5)])
    assert ideal.exps == ((3, 0), (1, 5), (2, 4), (0, 7))
    assert ideal == parse_ideal("x^3, x^2*y^4, x*y^5, y^7", XY)
    assert {g.exps for g in ideal.gens} == set(ideal.exps)
    assert sorted(g.degree for g in ideal.gens) == [3, 6, 6, 7]
    # the boundary value is accepted back as input
    assert MonomialIdeal(2, ideal.gens) == ideal
    assert contains_monomial(ideal, mono("x^2*y^6", XY))
    assert ideal.colon_monomial(parse_monomial("x*y^4", XY)) == parse_ideal("x, y", XY)


def test_minimalize_examples():
    gens = {mono(t, ABCD) for t in ("b*c", "b*d", "b^2", "c^3", "c^3*d", "b^2*c^3")}
    expected = tuple(mono(t, ABCD) for t in ("b*d", "b*c", "b^2", "c^3"))  # (degree, exps) order
    assert minimalize(gens) == expected
    assert minimalize([mono("x", XY), mono("x^2", XY)]) == (mono("x", XY),)
    assert MonomialIdeal(2, ()).is_zero


def test_minimalize_idempotent_random():
    rng = random.Random(11)
    for _ in range(40):
        k = rng.randint(1, 4)
        gens = {
            tuple(rng.randint(0, 4) for _ in range(k))
            for _ in range(rng.randint(0, 6))
        }
        once = minimalize(gens)
        assert minimalize(once) == once


def test_sum_product_power():
    m2 = parse_ideal("x^2, x*y, y^2", XY)
    fourth = m2 * m2
    assert fourth == parse_ideal("x^4, x^3*y, x^2*y^2, x*y^3, y^4", XY)
    ideal = parse_ideal("x^3, x^2*y^4, x*y^5, y^7", XY)
    assert ideal.power(0).is_unit
    assert ideal.power(2).num_generators() == 7  # mu(I^2) = 3*2 + 1
    assert ideal.power(1) == ideal


def test_intersection_examples():
    j = parse_ideal("b, c^3", ABCD)
    k = parse_ideal("c, d, b^2", ABCD)
    assert j.intersection(k) == parse_ideal("b*d, b*c, b^2, c^3", ABCD)
    ideal = parse_ideal("x^2, y^3", XY)
    assert ideal.intersection(MonomialIdeal.unit(2)) == ideal
    assert parse_ideal("x", XY).intersection(parse_ideal("y", XY)) == parse_ideal("x*y", XY)


def test_colon_examples():
    ideal = parse_ideal("x^3, x^2*y^4, x*y^5, y^7", XY)
    assert ideal.colon(parse_ideal("x", XY)) == parse_ideal("x^2, x*y^4, y^5", XY)
    assert parse_ideal("x^2*y, y^3", XY).colon(parse_ideal("y", XY)) == parse_ideal("x^2, y^2", XY)
    with pytest.raises(ZeroIdealColon):
        ideal.colon(MonomialIdeal.zero(2))


def test_saturation_m_primary_is_unit():
    assert parse_ideal("x^2, x*y, y^2", XY).saturation().is_unit
    assert parse_ideal("x^3, y^7", XY).saturation().is_unit
    # (x) is saturated already
    assert parse_ideal("x", XY).saturation() == parse_ideal("x", XY)
    # x * m saturates to (x)
    mixed = parse_ideal("x^2, x*y", XY)
    assert mixed.saturation() == parse_ideal("x", XY)


def test_membership_and_m_primary():
    ideal = parse_ideal("x^3, x^2*y^4, x*y^5, y^7", XY)
    assert contains_monomial(ideal, mono("x^3*y", XY))
    assert not contains_monomial(ideal, mono("x^2*y^3", XY))
    assert ideal.is_m_primary()
    assert not parse_ideal("x*y", XY).is_m_primary()
    assert not MonomialIdeal.unit(2).is_m_primary()


def test_quotient_length_examples():
    assert parse_ideal("x^2, x*y, y^2", XY).quotient_length() == 3
    n_ideal = parse_ideal("b*d, b*c, b^2, c^3", ABCD)
    assert n_ideal.graded_length(1) == 4
    ideal = parse_ideal("x^3, x^2*y^4, x*y^5, y^7", XY)
    l1 = ideal.quotient_length()
    l2 = ideal.power(2).quotient_length()
    assert (l1, l2) == (16, 52)
    # identity: ell(R/I^2) - ell(R/I) = ell(I/I^2), both sides by brute force
    assert l2 - l1 == box_standard_count(ideal.power(2)) - box_standard_count(ideal)


def test_quotient_length_matches_box_oracle_random():
    rng = random.Random(5)
    for _ in range(25):
        k = rng.randint(1, 3)
        ideal = random_m_primary_ideal(rng, k, 5)
        assert ideal.quotient_length() == box_standard_count(ideal)


def test_standard_monomials_match_quotient_length_random():
    rng = random.Random(17)
    for k in (1, 2, 3, 4):
        for _ in range(8):
            ideal = random_m_primary_ideal(rng, k, 5 if k < 4 else 3)
            if rng.random() < 0.5:
                ideal = ideal.power(2)
            standard = standard_monomials(ideal)
            assert len(standard) == ideal.quotient_length()
            assert standard == sorted(set(standard), key=lambda u: (sum(u), u))
            assert not any(contains_monomial(ideal, u) for u in standard)
            # the complement is an order ideal: dividing a standard monomial keeps it standard
            found = set(standard)
            for u in standard:
                for j in range(k):
                    if u[j]:
                        assert u[:j] + (u[j] - 1,) + u[j + 1:] in found


def test_quotient_length_requires_artinian():
    with pytest.raises(InfiniteLength):
        parse_ideal("x", XY).quotient_length()
    with pytest.raises(InfiniteLength):
        standard_monomials(parse_ideal("x", XY))


def test_smallest_contained_m_power_matches_standard_monomials():
    # m^t lies in I iff t exceeds the largest degree of a standard monomial,
    # read here from the oracle's enumeration, not from the Hilbert series
    rng = random.Random(23)
    for k in (1, 2, 3, 4):
        for _ in range(8):
            ideal = random_m_primary_ideal(rng, k, 5 if k < 4 else 3)
            top = max(map(sum, standard_monomials(ideal)))
            assert ideal.smallest_contained_m_power() == 1 + top
    for ideal in (MonomialIdeal.unit(2), parse_ideal("x", XY), parse_ideal("x^2, x*y", XY)):
        with pytest.raises(InfiniteLength):
            ideal.smallest_contained_m_power()


def test_graded_length_sums_match_enumeration():
    rng = random.Random(7)
    bound = 6
    for _ in range(15):
        k = rng.randint(1, 3)
        ideal = random_m_primary_ideal(rng, k, 4)
        direct = sum(
            1 for m in monomials_upto(k, bound) if not contains_monomial(ideal, m)
        )
        assert sum(ideal.graded_length(n) for n in range(bound + 1)) == direct


def test_colon_contains_and_product_inside_random():
    rng = random.Random(13)
    for _ in range(25):
        k = rng.randint(1, 3)
        a = random_m_primary_ideal(rng, k, 4)
        b = random_m_primary_ideal(rng, k, 4)
        quot = a.colon(b)
        assert contains_ideal(quot, a)
        assert contains_ideal(a, quot * b)
        assert brute_colon_matches(a, b, quot, 7)


def test_intersection_matches_brute_force_random():
    rng = random.Random(17)
    for _ in range(25):
        k = rng.randint(1, 3)
        a = random_m_primary_ideal(rng, k, 4)
        b = random_m_primary_ideal(rng, k, 4)
        assert brute_intersection_matches(a, b, a.intersection(b), 8)


def test_results_are_minimalized_random():
    rng = random.Random(19)
    for _ in range(20):
        k = rng.randint(1, 3)
        a = random_m_primary_ideal(rng, k, 4)
        b = random_m_primary_ideal(rng, k, 4)
        for result in (a + b, a * b, a.intersection(b), a.colon(b)):
            gens = result.exps
            for i, g in enumerate(gens):
                for j, h in enumerate(gens):
                    assert i == j or not divides(g, h)


def test_compositions_count():
    assert len(list(compositions(5, 3))) == 21  # C(7, 2)
    assert list(compositions(2, 1)) == [(2,)]


def test_parse_and_format_roundtrip():
    ideal = parse_ideal("x^3, x^2*y^4, x*y^5, y^7", XY)
    assert parse_ideal(ideal.format().strip("()"), XY) == ideal
    assert parse_ideal("", XY).is_zero
    assert parse_ideal("1", XY).is_unit
    assert str(parse_monomial("x^2*y", XY)) == "x^2*y"
    assert str(parse_monomial("1", XY)) == "1"
    for text in ("x^2,,y", "x^2, y,", ", y"):
        with pytest.raises(ValueError, match="empty monomial"):
            parse_ideal(text, XY)
    with pytest.raises(ValueError):
        parse_ideal("q^2", XY)
    # an ideal is its ring size and generators: names are given to format
    uv = parse_ideal("u^2, u*v", ("u", "v"))
    assert uv == parse_ideal("x^2, x*y", XY)
    assert uv.format() == "(x*y, x^2)"
    assert (uv * uv).format(("u", "v")) == "(u^2*v^2, u^3*v, u^4)"
    for names in (("x", ""), ("x", "x y"), ("x", "1"), ("x", "x^2"), ("x", "x")):
        with pytest.raises(ValueError):
            parse_ideal("x", names)
        with pytest.raises(ValueError):
            parse_monomial("x", names)
        with pytest.raises(ValueError):
            uv.format(names)
