import random
from math import comb

import pytest

from monograded import hilbert
from monograded.errors import ZeroRing
from monograded.bounds import random_m_primary_ideal
from monograded.filtration import G_hilbert_series
from monograded.hilbert import (
    TAYLOR_GENS,
    HilbertSeries,
    _classes,
    expansions,
    hilbert_series,
    reconstruct_numerator,
    reconstruct_series,
)
from monograded.monomials import MonomialIdeal, parse_ideal

from oracles import (
    binomial,
    _poly_mul,
    binomial_poly,
    fraction_hilbert_polynomial,
    lexfirst_numerator,
    poly_value,
    postulation_degree,
    reference_reduced,
    reference_window,
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
    with pytest.raises(ZeroRing, match="invariants of the zero ring are undefined"):
        unit.dim
    with pytest.raises(ZeroRing):
        unit.multiplicity


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


def _seeded_ideals(seed: int, count: int):
    """Seeded ideals in 1..7 variables with 0..16 minimal generators: monomials
    of one degree, an antichain, and in about half of them the pure powers of
    every variable, which make the ideal m-primary."""
    rng = random.Random(seed)
    for _ in range(count):
        k = rng.randint(1, 7)
        m_primary = rng.random() < 0.5
        degree = rng.randint(2, 5)
        gens = set()
        for _ in range(rng.randint(0, 16 - k if m_primary else 16)):
            exps = [0] * k
            for _ in range(degree):
                exps[rng.randrange(k)] += 1
            gens.add(tuple(exps))
        if m_primary:
            gens |= {tuple(degree + 1 if i == j else 0 for i in range(k)) for j in range(k)}
        yield MonomialIdeal(k, gens)


def test_taylor_base_matches_the_oracle_on_seeded_ideals():
    # the Taylor base ends the recursion at TAYLOR_GENS generators or fewer;
    # the oracle runs the pivot recursion with another rule all the way down
    sizes, primary = set(), set()
    for ideal in _seeded_ideals(41, 200):
        hilbert_series.cache_clear()
        assert hilbert_series(ideal).numerator == lexfirst_numerator(ideal), ideal.exps
        sizes.add(len(ideal.exps))
        primary.add(ideal.is_m_primary())
    assert min(sizes) == 0 and max(sizes) == 16
    assert any(n <= TAYLOR_GENS for n in sizes) and any(n > TAYLOR_GENS for n in sizes)
    assert primary == {True, False}


def _coprime_gens(k: int, count: int, rng: random.Random):
    """`count` monomials on disjoint runs of k // count variables each."""
    width = k // count
    gens = []
    for g in range(count):
        exps = [0] * k
        for j in range(g * width, (g + 1) * width):
            exps[j] = rng.randint(1, 3) if rng.random() < 0.7 or j == g * width else 0
        gens.append(tuple(exps))
    return gens


@pytest.mark.parametrize("gens, k, classes", [
    # more than TAYLOR_GENS pairwise-coprime generators: the product formula
    ([tuple(3 + j if i == j else 0 for i in range(12)) for j in range(12)], 12, 12),
    (_coprime_gens(20, 10, random.Random(43)), 20, 10),
    # classes that share no variable, with TAYLOR_GENS or fewer generators in all
    ([(2, 1, 0, 0, 0, 0), (0, 3, 0, 0, 0, 0), (3, 0, 0, 0, 0, 0), (0, 0, 2, 2, 0, 0),
      (0, 0, 0, 3, 0, 0), (0, 0, 0, 0, 1, 1), (0, 0, 0, 0, 0, 4)], 6, 3),
    # and with more: the pivot recursion reaches nodes of several classes
    ([(3, 0, 0, 0, 0, 0), (2, 1, 0, 0, 0, 0), (1, 2, 0, 0, 0, 0), (0, 3, 0, 0, 0, 0),
      (0, 0, 2, 0, 0, 0), (0, 0, 1, 1, 0, 0), (0, 0, 0, 2, 0, 0), (0, 0, 0, 0, 4, 0),
      (0, 0, 0, 0, 3, 1), (0, 0, 0, 0, 1, 3), (0, 0, 0, 0, 0, 4)], 6, 3),
    # the zero ideal and the unit ideal
    ([], 3, 0),
    ([(0, 0, 0)], 3, 1),
], ids=["12-pure-powers", "10-coprime", "3-classes-small", "3-classes-large", "zero", "unit"])
def test_taylor_base_matches_the_oracle_on_chosen_ideals(gens, k, classes):
    ideal = MonomialIdeal(k, gens)
    assert len(_classes(ideal.exps)) == classes
    hilbert_series.cache_clear()
    assert hilbert_series(ideal).numerator == lexfirst_numerator(ideal)


def test_coprime_nodes_multiply_their_factors(monkeypatch):
    # x1*x2, x3*x4, ..., x17*x18 and x19^2: more than TAYLOR_GENS
    # pairwise-coprime generators, mixed and pure, end the recursion at the
    # product of their factors 1 - lambda^(deg g), not at the Taylor base
    k = 19
    gens = [tuple(int(i in (2 * g, 2 * g + 1)) for i in range(k)) for g in range(9)]
    ideal = MonomialIdeal(k, gens + [tuple(2 * (i == k - 1) for i in range(k))])
    assert len(ideal.exps) > TAYLOR_GENS
    expected = lexfirst_numerator(ideal)

    def refuse(gens):
        raise AssertionError("a coprime node reached the Taylor base")

    monkeypatch.setattr(hilbert, "_classes", refuse)
    hilbert_series.cache_clear()
    assert hilbert_series(ideal).numerator == expected
    hilbert_series.cache_clear()


def _reference_cases(seed: int, count: int):
    """Seeded series in 1..6 variables of every dimension from 0 to k: ideals
    with the pure powers of a random set of variables dropped, the zero
    ideal, and series reconstructed from values."""
    rng = random.Random(seed)
    for _ in range(count):
        k = rng.randint(1, 6)
        ideal = random_m_primary_ideal(rng, k, 4 if k < 5 else 3)
        free = set(rng.sample(range(k), rng.randint(0, k)))
        kept = [g for g in ideal.exps if not any(g[j] == sum(g) for j in free)]
        yield hilbert_series(MonomialIdeal(k, kept) if kept else MonomialIdeal.zero(k))
    for k in (1, 4, 6):
        yield hilbert_series(MonomialIdeal.zero(k))
    yield reconstruct_series(lambda n: 3 * n + 1, 2)
    yield reconstruct_series(lambda n: comb(n + 2, 2) - comb(n, 2), 3)  # d = 2 of k = 3
    yield G_hilbert_series(parse_ideal("x^4, x^3*y, x*y^2, y^5", XY))
    yield G_hilbert_series(parse_ideal("x^3, y^3, z^3, x*y*z", ("x", "y", "z")))


def test_series_matches_the_dense_division_by_one_minus_lambda():
    # d and e read from the moments of N's terms, Q and the window read
    # through `expansions`, against Q and d from dividing the dense numerator
    # by (1 - lambda) while its coefficients sum to zero
    dims = set()
    for series in _reference_cases(53, 100):
        q, d = reference_reduced(series)
        dims.add((series.k, d))
        assert (series.dim, series.multiplicity, series.reduced_numerator) == (d, sum(q), q)
        assert series.numerator == _poly_mul(q, [comb(series.k - d, i) * (-1) ** i
                                                 for i in range(series.k - d + 1)])
        top = len(q) - 1 - d  # P(n) = H(n) above deg Q - d
        for lo, hi in ((-4, top + 4), (top + 10**6, top + 10**6 + 2), (-10**6, -10**6 + 2)):
            assert series.window(lo, hi) == reference_window(q, d, lo, hi), (series, lo, hi)
    assert {d for _, d in dims} >= set(range(7)) and (6, 6) in dims and (6, 0) in dims
    unit = hilbert_series(MonomialIdeal.unit(3))
    assert unit.numerator == [] and unit.terms == {}
    for read in (reference_reduced, lambda s: s.dim, lambda s: s.multiplicity,
                 lambda s: s.reduced_numerator):
        with pytest.raises(ZeroRing):
            read(unit)
    # (1 - lambda)^2 over one (1 - lambda): more factors than the ring allows
    for read in (reference_reduced, lambda s: s.dim):
        with pytest.raises(ValueError, match="more"):
            read(HilbertSeries(1, {0: 1, 1: -2, 2: 1}))


def test_an_exponent_of_ten_to_the_twelve_reads_d_and_e_from_four_terms():
    # N = (1 - lambda)(1 - lambda^(10^12)); no list of its 10^12 + 2
    # coefficients is laid out to read d, e, H or P
    series = hilbert_series(parse_ideal("x^1000000000000, y", XY))
    assert series.terms == {0: 1, 1: -1, 10**12: -1, 10**12 + 1: 1}
    assert (series.dim, series.multiplicity) == (0, 10**12)
    top = 10**12 - 1
    assert series.window(top - 1, top + 1) == [(top - 1, 1, 0), (top, 1, 0), (top + 1, 0, 0)]
    assert (series.coefficient(5), series.polynomial_value(5)) == (1, 0)


@pytest.mark.parametrize("text, names, d", [
    ("x^2, y^3", XY, 0),
    ("x^4*y^2, x*y^5, y^7", XY, 1),
    ("b*d, b*c, b^2, c^3", ABCD, 2),
    ("x^3*y^2*z, y^4*z^3, x*z^5", ("x", "y", "z"), 2),
    ("0", XY, 2),
], ids=["d0", "d1-of-2", "d2-of-4", "d2-of-3", "d-equals-k"])
def test_window_matches_coefficient_and_polynomial_value(text, names, d):
    ideal = MonomialIdeal.zero(len(names)) if text == "0" else parse_ideal(text, names)
    series = hilbert_series(ideal)
    q, dim = series.reduced_numerator, series.dim
    assert dim == d
    top = len(q) - 1 - d  # P(n) = H(n) above deg Q - d
    windows = [(-6, top + 6), (-9, -2), (top, top), (top + 1, top + 1), (3, 3), (-1, -1),
               (0, top - 1), (-2, top - 2), (10**20, 10**20 + 3), (-10**20 - 3, -10**20)]
    for lo, hi in windows:
        expected = reference_window(series.numerator, series.k, lo, hi)
        assert series.window(lo, hi) == expected, (lo, hi)
        assert [(n, series.coefficient(n), series.polynomial_value(n))
                for n in range(lo, hi + 1)] == expected, (lo, hi)


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
    series = hilbert_series(k_ideal)
    assert series.polynomial_value(0) == 2
    assert serre_difference(k_ideal, 0) == -1

    for n in range(0, 6):
        assert serre_difference(MonomialIdeal.zero(2), n) == 0

    m2 = parse_ideal("x^2, x*y, y^2", XY)
    series = hilbert_series(m2)
    assert series.dim == 0 and all(series.polynomial_value(n) == 0 for n in range(-5, 5))
    assert m2.graded_length(2) == 0
    assert serre_difference(m2, 2) == 0
    assert sum(serre_difference(m2, n) for n in (0, 1)) == 3


def test_multiplicity_dim_codim_examples():
    series = hilbert_series(N_IDEAL)
    assert (series.multiplicity, series.dim, N_IDEAL.k - series.dim) == (3, 2, 2)
    series = hilbert_series(MonomialIdeal.zero(2))
    assert (series.multiplicity, series.dim) == (1, 2)
    series = hilbert_series(parse_ideal("x^3, y^7", XY))
    assert (series.multiplicity, series.dim) == (21, 0)


def test_polynomial_agrees_beyond_postulation():
    rng = random.Random(37)
    for _ in range(20):
        k = rng.randint(1, 3)
        ideal = random_m_primary_ideal(rng, k, 5)
        series = hilbert_series(ideal)
        start = postulation_degree(series) + 1
        for n in range(start, start + 5):
            assert ideal.graded_length(n) == series.polynomial_value(n)


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
        series = hilbert_series(ideal)
        if series.dim == 0:
            continue
        for n in (-4, 0, 7):
            values = [series.polynomial_value(n + t) for t in range(series.dim)]
            for _ in range(series.dim - 1):
                values = [b - a for a, b in zip(values, values[1:])]
            assert values == [series.multiplicity]


def test_polynomial_value_matches_fraction_reference():
    dims = set()
    for ideal in _ideals_with_and_without_pure_powers(151, 60):
        series = hilbert_series(ideal)
        reference = fraction_hilbert_polynomial(series)
        dims.add(series.dim)
        for n in range(-10, 16):
            assert series.polynomial_value(n) == poly_value(reference, n)
    assert dims >= {0, 1, 2, 3, 4}


def test_binomial_matches_comb():
    # the zero ideal in m + 1 variables has 1/(1-lambda)^(m+1) as its series,
    # so its Hilbert polynomial at x - m is C(x, m) as a polynomial in x
    for m in range(6):
        series = hilbert_series(MonomialIdeal.zero(m + 1))
        reference = binomial_poly(0, m)  # C(n, m) as a polynomial in n
        for x in range(-10, 12):
            assert series.polynomial_value(x - m) == poly_value(reference, x) == binomial(x, m)
            if x >= 0:
                assert series.polynomial_value(x - m) == comb(x, m)


def _closed_forms(terms: dict[int, int], t: int, n: int) -> tuple[int, int]:
    """The coefficients of lambda^n in the expansions of N/(1-lambda)^t at 0
    and at infinity, as direct sums over the terms a * lambda^e of N."""
    if t == 0:
        return terms.get(n, 0), terms.get(n, 0)
    at_zero = sum(a * comb(n - e + t - 1, t - 1) for e, a in terms.items() if e <= n)
    at_infinity = sum(a * comb(e - n - 1, t - 1) for e, a in terms.items() if e >= n + t)
    return at_zero, (-1) ** t * at_infinity


def test_expansions_match_the_binomial_sums():
    rng = random.Random(43)
    for _ in range(120):
        base = rng.choice((0, 5, 10**9, 10**18))
        terms = {}
        for _ in range(rng.randint(1, 6)):
            e = base + rng.randint(0, 12)
            terms[e] = terms.get(e, 0) + rng.choice((-1, 1)) * rng.randint(1, 9)
        first, last = min(terms), max(terms)
        for t in range(7):
            width = rng.randint(0, 8)
            windows = [
                (first - 30 - width, first - 30),  # below the terms
                (first - 4, last + 4 + width),  # straddling them
                (last + 1, last + 1 + width),  # above them
                (last + t + 40, last + t + 40 + width),
                (first - 10**18, first - 10**18 + width), (last + 10**18, last + 10**18 + width),
                (first, first), (last, last), (last - t, last - t),
            ]
            for lo, hi in windows:
                at_zero, at_infinity = expansions(terms, t, lo, hi)
                expected = [_closed_forms(terms, t, n) for n in range(lo, hi + 1)]
                assert at_zero == [z for z, _ in expected], (terms, t, lo, hi)
                assert at_infinity == [f for _, f in expected], (terms, t, lo, hi)
                # their difference is the Hilbert polynomial of N/(1-lambda)^t,
                # of degree below t, so its t-th finite difference vanishes
                values = [z - f for z, f in zip(at_zero, at_infinity)]
                for _ in range(t):
                    values = [b - a for a, b in zip(values, values[1:])]
                assert not any(values), (terms, t, lo, hi)


def test_serre_difference_table_matches_pointwise():
    table = serre_difference_table(N_IDEAL, -4, 4)
    for n in range(-4, 5):
        assert table[n] == serre_difference(N_IDEAL, n)


def test_reconstruct_numerator():
    values = [3 * n + 1 for n in range(8)]
    assert reconstruct_numerator(values, 2) == {0: 1, 1: 2}
    # constant sequence over one (1 - lambda)
    assert reconstruct_numerator([5] * 6, 1) == {0: 5}
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
