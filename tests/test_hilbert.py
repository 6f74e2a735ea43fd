import random
from dataclasses import replace
from fractions import Fraction

import pytest

from monograded.errors import ComputationError, NonIntegralValue, ZeroRing
from monograded.bounds import random_m_primary_ideal
from monograded.hilbert import (
    binomial_poly,
    hilbert_data,
    hilbert_function,
    hilbert_series,
    codim,
    krull_dim,
    multiplicity,
    poly_value,
    reconstruct_numerator,
    reconstruct_series,
    serre_difference,
    serre_difference_table,
)
from monograded.monomials import MonomialIdeal, parse_ideal

from oracles import lexfirst_numerator

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
    assert hilbert_function(k_ideal, 0) == 1
    data = hilbert_data(k_ideal)
    assert data.polynomial_value(0) == 2
    assert serre_difference(k_ideal, 0) == -1

    for n in range(0, 6):
        assert serre_difference(MonomialIdeal.zero(2), n) == 0

    m2 = parse_ideal("x^2, x*y, y^2", XY)
    data = hilbert_data(m2)
    assert data.dim == 0 and data.hilbert_polynomial == ()
    assert hilbert_function(m2, 2) == 0
    assert serre_difference(m2, 2) == 0
    assert sum(serre_difference(m2, n) for n in (0, 1)) == 3


def test_multiplicity_dim_codim_examples():
    assert multiplicity(N_IDEAL) == 3
    assert krull_dim(N_IDEAL) == 2
    assert codim(N_IDEAL) == 2
    assert multiplicity(MonomialIdeal.zero(2)) == 1
    assert codim(MonomialIdeal.zero(2)) == 0
    ci = parse_ideal("x^3, y^7", XY)
    assert multiplicity(ci) == 21
    assert krull_dim(ci) == 0


def test_polynomial_agrees_beyond_postulation():
    rng = random.Random(37)
    for _ in range(20):
        k = rng.randint(1, 3)
        ideal = random_m_primary_ideal(rng, k, 5)
        series = hilbert_series(ideal)
        data = hilbert_data(ideal)
        start = series.postulation_degree + 1
        for n in range(start, start + 5):
            assert ideal.graded_length(n) == data.polynomial_value(n)


def test_multiplicity_normalization_against_leading_coefficient():
    from math import factorial

    rng = random.Random(149)
    for _ in range(20):
        k = rng.randint(1, 3)
        ideal = random_m_primary_ideal(rng, k, 5)
        if rng.random() < 0.5:
            # non-Artinian variants too: drop a pure power
            gens = ideal.exps[1:]
            if gens:
                ideal = MonomialIdeal(k, gens)
        if ideal.is_unit or ideal.is_zero:
            continue
        data = hilbert_data(ideal)
        if data.dim >= 1:
            lead = data.hilbert_polynomial[-1]
            assert lead * factorial(data.dim - 1) == data.multiplicity


def test_polynomial_integer_valued_at_negatives():
    data = hilbert_data(N_IDEAL)
    for n in range(-6, 6):
        value = poly_value(data.hilbert_polynomial, n)
        assert value.denominator == 1


def test_non_integral_polynomial_value_raises():
    # n/2 is not integer-valued; the check must not be an assert, which -O drops
    data = replace(hilbert_data(N_IDEAL), hilbert_polynomial=(Fraction(0), Fraction(1, 2)))
    assert data.polynomial_value(2) == 1
    with pytest.raises(NonIntegralValue) as excinfo:
        data.polynomial_value(1)
    assert isinstance(excinfo.value, ComputationError)


def test_binomial_poly_matches_comb():
    from math import comb

    for shift in range(-3, 4):
        for m in range(4):
            coeffs = binomial_poly(shift, m)
            for n in range(m - shift, m - shift + 6):
                expected = Fraction(comb(n + shift, m))
                assert poly_value(coeffs, n) == expected


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
