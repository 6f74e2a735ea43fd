import random
from fractions import Fraction

import pytest

from monograded.bounds import random_m_primary_ideal
from monograded.filtration import minimal_reduction
from monograded.monomials import MonomialIdeal, parse_ideal
from monograded.truncation import Echelon, TruncatedAlgebra

from oracles import (
    ContainmentViolation,
    NotCertified,
    PolyElement,
    PolyProduct,
    certified_truncation,
    contains_mod,
    echelon_contains,
    echelon_contains_all,
    expanded_product,
    fraction_rank,
    ideal_equal_mod,
    ideal_columns,
    ideal_image,
    least_full_degree,
    reduction_polys,
    subspace_length_between,
    times_monomial,
)

XY = ("x", "y")


def polys(ideal: MonomialIdeal) -> list[PolyElement]:
    return [PolyElement.from_monomial(g) for g in ideal.exps]


def test_certified_truncation_examples():
    t, proof = certified_truncation(polys(parse_ideal("x^2, x*y, y^2", XY)), 2, 10)
    assert t == 2 and proof["t"] == 2
    t, _ = certified_truncation(polys(parse_ideal("x^2, y^2", XY)), 2, 10)
    assert t == 3
    with pytest.raises(NotCertified):
        certified_truncation([PolyElement.from_monomial((1, 0))], 2, 10)


def test_truncated_algebra_dimension():
    from math import comb

    for k in (1, 2, 3):
        for n in (0, 2, 5):
            assert len(TruncatedAlgebra(k, n).monomials) == comb(n + k, k)


def test_certified_truncation_non_monomial_generators():
    # (x+y, x*y) contains x^2 and y^2, so m^2 lies inside; length 2
    gens = [
        PolyElement(2, {(1, 0): 1, (0, 1): 1}),
        PolyElement(2, {(1, 1): 1}),
    ]
    t, proof = certified_truncation(gens, 2, 12)
    assert t == 2
    assert proof["stable_length"] == 2
    algebra = TruncatedAlgebra(2, t - 1)
    image = ideal_image(gens, algebra)
    assert len(algebra.monomials) - image.dim == 2  # ell(R/(x+y, xy))


def test_certified_truncation_matches_monomial_oracle():
    rng = random.Random(67)
    for _ in range(20):
        k = rng.randint(1, 3)
        ideal = random_m_primary_ideal(rng, k, 4)
        t, _ = certified_truncation(polys(ideal), k, 30)
        assert t == ideal.smallest_contained_m_power()


def test_certificate_monotone_under_containment():
    rng = random.Random(71)
    for _ in range(15):
        k = rng.randint(2, 3)
        small = random_m_primary_ideal(rng, k, 4)
        extra = tuple(rng.randint(0, 2) for _ in range(k))
        if sum(extra) == 0:
            continue
        big = small + MonomialIdeal(k, [extra])
        t_small, _ = certified_truncation(polys(small), k, 30)
        t_big, _ = certified_truncation(polys(big), k, 30)
        assert t_big <= t_small


def test_ideal_equal_mod_examples():
    m2 = parse_ideal("x^2, x*y, y^2", XY)
    param = parse_ideal("x^2, y^2", XY)
    ji = PolyProduct(polys(param), m2)
    i2 = m2.power(2)
    t = i2.smallest_contained_m_power()
    assert ideal_equal_mod(ji, polys(i2), 2, t)
    # one generator cannot reduce a two-dimensional ideal
    ji_bad = PolyProduct([PolyElement.from_monomial((4, 0))], m2)
    assert not ideal_equal_mod(ji_bad, polys(i2), 2, t)


def test_contains_mod_example():
    m2 = parse_ideal("x^2, x*y, y^2", XY)
    a = PolyProduct([PolyElement.from_monomial((1, 0))], m2)
    b = [PolyElement.from_monomial((3, 0))]
    assert contains_mod(a, b, 2, 5)
    assert not contains_mod(b, a, 2, 5)


def test_equal_mod_matches_monomial_equality_random():
    rng = random.Random(73)
    for _ in range(15):
        k = rng.randint(1, 2)
        a = random_m_primary_ideal(rng, k, 4)
        b = a + MonomialIdeal(k, [tuple(rng.randint(0, 3) for _ in range(k))])
        if b.is_unit:
            continue
        n = max(a.smallest_contained_m_power(), b.smallest_contained_m_power())
        assert ideal_equal_mod(polys(a), polys(a), k, n)
        assert ideal_equal_mod(polys(a), polys(b), k, n) == (a == b)


def test_subspace_length_between_examples():
    m2 = parse_ideal("x^2, x*y, y^2", XY)
    param = parse_ideal("x^2, y^2", XY)
    ji = PolyProduct(polys(param), m2)
    i2 = m2.power(2)
    assert subspace_length_between(polys(i2), ji, 2, i2.smallest_contained_m_power()) == 0
    maximal = parse_ideal("x, y", XY)
    assert subspace_length_between(polys(maximal), polys(maximal.power(2)), 2, 4) == 2
    jm = PolyProduct(polys(maximal), maximal)
    assert subspace_length_between(polys(maximal.power(2)), jm, 2, 4) == 0


def test_subspace_length_matches_monomial_counts():
    rng = random.Random(79)
    for _ in range(15):
        k = rng.randint(1, 2)
        big = random_m_primary_ideal(rng, k, 4)
        small = big * random_m_primary_ideal(rng, k, 3)
        n = small.smallest_contained_m_power()
        expected = small.quotient_length() - big.quotient_length()
        assert subspace_length_between(polys(big), polys(small), k, n) == expected


def test_containment_violation_detected():
    a = parse_ideal("x^2, y^2", XY)
    b = parse_ideal("x, y", XY)
    with pytest.raises(ContainmentViolation):
        subspace_length_between(polys(a), polys(b), 2, 4)


def test_monomial_image_dim_is_count():
    rng = random.Random(83)
    for _ in range(10):
        k = rng.randint(1, 3)
        ideal = random_m_primary_ideal(rng, k, 4)
        n = rng.randint(2, 6)
        algebra = TruncatedAlgebra(k, n)
        built = ideal_image(polys(ideal), algebra)
        assert built.dim == len(ideal_columns(algebra, ideal, n))


def _random_polys(rng, k: int, count: int) -> list[PolyElement]:
    coeffs = (1, 2, -3, 5, Fraction(1, 2), Fraction(-2, 3))
    polys = []
    for _ in range(count):
        terms = {tuple(rng.randint(0, 2) for _ in range(k)): rng.choice(coeffs)
                 for _ in range(rng.randint(1, 4))}
        polys.append(PolyElement(k, terms))
    return polys


def test_factored_image_matches_expanded_generators():
    rng = random.Random(97)
    for _ in range(24):
        k = rng.randint(2, 3)
        polys = _random_polys(rng, k, rng.randint(1, 3))
        gens = [tuple(rng.randint(0, 3) for _ in range(k)) for _ in range(rng.randint(1, 4))]
        ideal = MonomialIdeal(k, gens)
        factored = PolyProduct(polys, ideal)
        expanded = expanded_product(polys, ideal)
        for n in (2, 4, 6):
            algebra = TruncatedAlgebra(k, n)
            a = ideal_image(factored, algebra)
            b = ideal_image(expanded, algebra)
            assert a.dim == b.dim
            assert echelon_contains_all(a, b) and echelon_contains_all(b, a)


def test_certificate_dim_matches_fresh_image():
    rng = random.Random(101)
    for trial in range(16):
        k = rng.randint(2, 3)
        ideal = random_m_primary_ideal(rng, k, 3)
        reduction = reduction_polys(minimal_reduction(ideal, seed=trial))
        for gens in (reduction, PolyProduct(reduction, ideal.power(rng.randint(0, 2)))):
            t, proof = certified_truncation(gens, k, 30)
            algebra = TruncatedAlgebra(k, t - 1)
            fresh = ideal_image(gens, algebra).dim
            assert proof["image_dim"] == fresh
            assert proof["stable_length"] == len(algebra.monomials) - fresh
            # the early stop finds the least full degree of the whole image
            assert t == least_full_degree(gens, k, t + 2)
            if not isinstance(gens, list):
                assert certified_truncation(expanded_product(gens.polys, gens.ideal), k, 30) == (t, proof)


def test_echelon_exactness_against_fraction_rank():
    rng = random.Random(89)
    for _ in range(30):
        rows = [
            {c: rng.randint(-4, 4) for c in rng.sample(range(8), rng.randint(1, 4))}
            for _ in range(rng.randint(1, 8))
        ]
        ech = Echelon()
        for row in rows:
            ech.add(dict(row))
        # every input row lies in the span
        for row in rows:
            assert echelon_contains(ech, dict(row))
        dense = [[row.get(c, 0) for c in range(8)] for row in rows]
        assert ech.dim == fraction_rank(dense)


def test_poly_element_arithmetic():
    p = PolyElement(2, {(1, 0): 1, (0, 1): Fraction(1, 2)})
    q = times_monomial(p, (1, 1))
    assert q.terms == {(2, 1): 1, (1, 2): Fraction(1, 2)}
    assert (p + p).terms == {(1, 0): 2, (0, 1): Fraction(1, 1)}
    prod = p * p
    assert prod.terms[(2, 0)] == 1 and prod.terms[(0, 2)] == Fraction(1, 4)
    assert PolyElement(2, {(0, 0): 0}).is_zero
    # rows clear denominators without changing the span
    assert sorted(c for _, c in p.integer_terms()) == [1, 2]
