import random
from math import comb

import pytest

from monograded.errors import ZeroRing
from monograded.bounds import random_m_primary_ideal
from monograded.hilbert import (
    _binomial,
    hilbert_data,
    hilbert_series,
    reconstruct_numerator,
    reconstruct_series,
)
from monograded.monomials import MonomialIdeal, parse_ideal

from oracles import (
    binomial_poly,
    fraction_hilbert_polynomial,
    lexfirst_numerator,
    poly_value,
    postulation_degree,
    serre_difference,
    serre_difference_table,
)

XY = ("x", "y")
ABCD = ("a", "b", "c", "d")

N_IDEAL = parse_ideal("b*d, b*c, b^2, c^3", ABCD)


def test_fiber_presentation_series():
    series = hilbert_series(N_IDEAL)
    assert series.reduced_numerator == [1, 2]
    assert series.dim == 2
    assert series.multiplicity == 3
    assert series.numerator == [1, 0, -3, 2]  # (1+2l)(1-l)^2


def test_single_pure_power_series():
    for m in (1, 2, 5):
        series = hilbert_series(parse_ideal(f"x^{m}", ("x",)))
        assert series.reduced_numerator == [1] * m
        assert series.dim == 0
        assert series.multiplicity == m


def test_zero_and_unit_ideal_series():
    for k in (1, 2, 3):
        series = hilbert_series(MonomialIdeal.zero(k))
        assert series.numerator == [1]
        assert series.dim == k
        assert series.multiplicity == 1
    unit = hilbert_series(MonomialIdeal.unit(2))
    assert unit.is_zero_ring
    assert unit.numerator == []
    with pytest.raises(ZeroRing):
        unit.reduced()
    with pytest.raises(ZeroRing):
        hilbert_data(MonomialIdeal.unit(2))


def test_numerator_constant_term_and_positivity_random():
    rng = random.Random(23)
    for _ in range(30):
        k = rng.randint(1, 4)
        ideal = random_m_primary_ideal(rng, k, 5)
        series = hilbert_series(ideal)
        assert series.numerator[0] == 1
        assert series.multiplicity > 0


def test_pivot_independence_random():
    rng = random.Random(29)
    for _ in range(40):
        k = rng.randint(1, 4)
        ideal = random_m_primary_ideal(rng, k, 6)
        assert hilbert_series(ideal).numerator == lexfirst_numerator(ideal)


def test_series_coefficients_match_graded_length():
    rng = random.Random(31)
    for _ in range(20):
        k = rng.randint(1, 3)
        ideal = random_m_primary_ideal(rng, k, 5)
        series = hilbert_series(ideal)
        for n in range(12):
            assert series.coefficient(n) == ideal.graded_length(n)


def test_serre_difference_examples():
    k_ideal = parse_ideal("c, d, b^2", ABCD)
    assert k_ideal.graded_length(0) == 1
    data = hilbert_data(k_ideal)
    assert data.polynomial_value(0) == 2
    assert serre_difference(k_ideal, 0) == -1

    for n in range(0, 6):
        assert serre_difference(MonomialIdeal.zero(2), n) == 0

    m2 = parse_ideal("x^2, x*y, y^2", XY)
    data = hilbert_data(m2)
    assert data.dim == 0 and all(data.polynomial_value(n) == 0 for n in range(-5, 5))
    assert m2.graded_length(2) == 0
    assert serre_difference(m2, 2) == 0
    assert sum(serre_difference(m2, n) for n in (0, 1)) == 3


def test_multiplicity_dim_codim_examples():
    data = hilbert_data(N_IDEAL)
    assert (data.multiplicity, data.dim, N_IDEAL.k - data.dim) == (3, 2, 2)
    data = hilbert_data(MonomialIdeal.zero(2))
    assert (data.multiplicity, data.dim) == (1, 2)
    data = hilbert_data(parse_ideal("x^3, y^7", XY))
    assert (data.multiplicity, data.dim) == (21, 0)


def test_polynomial_agrees_beyond_postulation():
    rng = random.Random(37)
    for _ in range(20):
        k = rng.randint(1, 3)
        ideal = random_m_primary_ideal(rng, k, 5)
        series = hilbert_series(ideal)
        data = hilbert_data(ideal)
        start = postulation_degree(series) + 1
        for n in range(start, start + 5):
            assert ideal.graded_length(n) == data.polynomial_value(n)


def _ideals_with_and_without_pure_powers(seed: int, count: int):
    """Seeded m-primary ideals in k = 1..5 variables, each also with the pure
    powers of a random set of variables dropped (dimension up to k)."""
    rng = random.Random(seed)
    for _ in range(count):
        k = rng.randint(1, 5)
        ideal = random_m_primary_ideal(rng, k, 4)
        yield ideal
        free = {j for j in range(k) if rng.random() < 0.5}
        kept = [g for g in ideal.exps if not any(g[j] == sum(g) for j in free)]
        yield MonomialIdeal(k, kept) if kept else MonomialIdeal.zero(k)


def test_multiplicity_normalization_against_leading_coefficient():
    # P has degree d - 1 with leading coefficient e/(d-1)!, so its
    # (d-1)-th forward difference is the constant e
    for ideal in _ideals_with_and_without_pure_powers(149, 40):
        data = hilbert_data(ideal)
        if data.dim == 0:
            continue
        for n in (-4, 0, 7):
            values = [data.polynomial_value(n + t) for t in range(data.dim)]
            for _ in range(data.dim - 1):
                values = [b - a for a, b in zip(values, values[1:])]
            assert values == [data.multiplicity]


def test_polynomial_value_matches_fraction_reference():
    dims = set()
    for ideal in _ideals_with_and_without_pure_powers(151, 60):
        data = hilbert_data(ideal)
        reference = fraction_hilbert_polynomial(data.series)
        dims.add(data.dim)
        for n in range(-10, 16):
            assert data.polynomial_value(n) == poly_value(reference, n)
    assert dims >= {0, 1, 2, 3, 4}


def test_binomial_matches_comb():
    for m in range(6):
        reference = binomial_poly(0, m)  # C(n, m) as a polynomial in n
        for x in range(-10, 12):
            assert _binomial(x, m) == poly_value(reference, x)
            if x >= 0:
                assert _binomial(x, m) == comb(x, m)


def test_serre_difference_table_matches_pointwise():
    table = serre_difference_table(N_IDEAL, -4, 4)
    for n in range(-4, 5):
        assert table[n] == serre_difference(N_IDEAL, n)


def test_reconstruct_numerator():
    values = [3 * n + 1 for n in range(8)]
    assert reconstruct_numerator(values, 2) == [1, 2]
    # constant sequence over one (1 - lambda)
    assert reconstruct_numerator([5] * 6, 1) == [5]
    # not yet stabilized: too little data
    assert reconstruct_numerator([1, 10, 100], 2) is None


def test_reconstruct_series_verifies_tail():
    calls = []

    def fn(n):
        calls.append(n)
        return 3 * n + 1

    series = reconstruct_series(fn, 2)
    assert series.reduced_numerator == [1, 2]
    assert series.dim == 2
    # the verification points were actually evaluated
    assert max(calls) >= len(set(calls)) - 1
