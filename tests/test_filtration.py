import random

import pytest

from monograded.bounds import random_m_primary_ideal
from monograded.errors import CertificateFailed, NotAReduction
from monograded.filtration import (
    G_hilbert_data,
    PowerCache,
    Reduction,
    a_G_if_CM,
    fiber_cone_series,
    gamma_positive,
    h0_G,
    minimal_reduction,
    mu,
    multiplicity_samuel,
    ratliff_rush,
    reduction_number,
    reduction_number_wrt,
    vv_cm_certificate,
)
from monograded.monomials import MonomialIdeal, parse_ideal
from monograded.truncation import PolyElement

from oracles import monomial_reduction_number, reduction_colength

XY = ("x", "y")
EX_IDEAL = parse_ideal("x^3, x^2*y^4, x*y^5, y^7", XY)
STAIR = parse_ideal("x^4, x^3*y, x*y^3, y^4", XY)


def monomial_reduction(ideal: MonomialIdeal) -> Reduction:
    return Reduction([PolyElement.from_monomial(g) for g in ideal.exps], 0, 1)


def test_ratliff_rush_examples():
    param = parse_ideal("x^2, y^2", XY)
    assert ratliff_rush(param) == param
    maximal = parse_ideal("x, y", XY)
    assert ratliff_rush(maximal) == maximal
    closed = ratliff_rush(STAIR)
    assert closed == STAIR + parse_ideal("x^2*y^2", XY)
    assert closed.contains_monomial(parse_ideal("x^2*y^2", XY).exps[0])


def test_ratliff_rush_against_colon_chain():
    # independent check at small scale: the chain (I^(1+n) : I^n) stabilizes
    cache = PowerCache(STAIR)
    chain = [cache.power(1 + n).colon(cache.power(n)) for n in range(1, 5)]
    assert chain[-1] == chain[-2] == ratliff_rush(STAIR)


def test_h0_examples():
    m2 = parse_ideal("x^2, x*y, y^2", XY)
    for n in range(3):
        assert h0_G(m2, n) == 0
    # the non-closed staircase picks up x^2*y^2 at level 0
    assert h0_G(STAIR, 0) == 1
    assert h0_G(STAIR, 1) == 0
    assert not gamma_positive(STAIR, 1)
    assert gamma_positive(m2, 3)


def test_h0_prop31_term_positive():
    rng = random.Random(97)
    for _ in range(10):
        ideal = random_m_primary_ideal(rng, 2, 5)
        inner = ideal.intersection(ratliff_rush(ideal, 2))
        ell = inner.quotient_length() - ideal.quotient_length()
        assert ell >= 1


def test_multiplicity_samuel_examples():
    assert multiplicity_samuel(parse_ideal("x^2, x*y, y^2", XY)) == 4
    assert multiplicity_samuel(parse_ideal("x^3, y^7", XY)) == 21
    assert multiplicity_samuel(MonomialIdeal(3, [(1, 0, 0), (0, 1, 0), (0, 0, 1)])) == 1


def test_multiplicity_samuel_parameter_ideals():
    rng = random.Random(101)
    for _ in range(8):
        a, b = rng.randint(1, 5), rng.randint(1, 5)
        ideal = MonomialIdeal(2, [(a, 0), (0, b)])
        assert multiplicity_samuel(ideal) == a * b


def test_mu_and_fiber_cone():
    assert [mu(EX_IDEAL, n) for n in range(1, 7)] == [4, 7, 10, 13, 16, 19]
    maximal = parse_ideal("x, y", XY)
    for n in range(1, 6):
        assert mu(maximal, n) == n + 1
    series = fiber_cone_series(EX_IDEAL)
    assert series.reduced_numerator == [1, 2]
    assert series.dim == 2


def test_minimal_reduction_shapes():
    red = minimal_reduction(parse_ideal("x^2, x*y, y^2", XY), seed=3)
    assert red.size == 2
    assert red.seed == 3
    again = minimal_reduction(parse_ideal("x^2, x*y, y^2", XY), seed=3)
    assert [p.terms for p in red.gens] == [p.terms for p in again.gens]
    single = minimal_reduction(parse_ideal("x^4", ("x",)), seed=9)
    assert single.size == 1
    assert list(single.gens[0].terms) == [(4,)]


def test_minimal_reduction_follows_generator_order():
    # seeded coefficients go to the generators in (degree, exps) order
    red = minimal_reduction(EX_IDEAL, seed=0)
    assert [p.terms for p in red.gens] == [
        {(3, 0): 50, (1, 5): 98, (2, 4): 54, (0, 7): 6},
        {(3, 0): 34, (1, 5): 66, (2, 4): 63, (0, 7): 52},
    ]
    assert [list(p.terms) for p in red.gens] == [[(3, 0), (1, 5), (2, 4), (0, 7)]] * 2


def test_reduction_number_examples():
    m2 = parse_ideal("x^2, x*y, y^2", XY)
    param = parse_ideal("x^2, y^2", XY)
    assert reduction_number_wrt(monomial_reduction(param), m2) == 1
    assert monomial_reduction_number(m2, param) == 1
    maximal = parse_ideal("x, y", XY)
    r, trials = reduction_number(maximal, trials=2, seed=0)
    assert r == 0 and all(t["r"] == 0 for t in trials)
    # J = (x^3, y^7) inside the worked ideal: proper subideal forces r >= 1
    param2 = parse_ideal("x^3, y^7", XY)
    r2 = reduction_number_wrt(monomial_reduction(param2), EX_IDEAL)
    assert r2 >= 1
    assert r2 == monomial_reduction_number(EX_IDEAL, param2)


def test_reduction_number_truncation_independent():
    m2 = parse_ideal("x^2, x*y, y^2", XY)
    param = parse_ideal("x^2, y^2", XY)
    red = monomial_reduction(param)
    assert reduction_number_wrt(red, m2) == reduction_number_wrt(red, m2, extra_truncation=2)
    red_ex = minimal_reduction(EX_IDEAL, seed=1)
    assert reduction_number_wrt(red_ex, EX_IDEAL) == reduction_number_wrt(
        red_ex, EX_IDEAL, extra_truncation=2
    )


def test_non_reduction_raises():
    m2 = parse_ideal("x^2, x*y, y^2", XY)
    single = Reduction([PolyElement.from_monomial(parse_ideal("x^4", XY).exps[0])], 0, 1)
    with pytest.raises(NotAReduction):
        reduction_number_wrt(single, m2, n_bound=5)
    with pytest.raises(NotAReduction):
        monomial_reduction_number(m2, parse_ideal("x^4", XY), n_bound=5)


def test_g_series_examples():
    m2 = parse_ideal("x^2, x*y, y^2", XY)
    data = G_hilbert_data(m2)
    assert data.series.numerator == [3, 1]
    assert data.multiplicity == 4
    maximal = parse_ideal("x, y", XY)
    assert G_hilbert_data(maximal).series.numerator == [1]


def test_vv_certificate_and_a_invariant():
    m2 = parse_ideal("x^2, x*y, y^2", XY)
    red = minimal_reduction(m2, seed=5)
    assert vv_cm_certificate(m2, red)
    assert a_G_if_CM(m2, red) == -1
    maximal = parse_ideal("x, y", XY)
    red_m = minimal_reduction(maximal, seed=5)
    assert vv_cm_certificate(maximal, red_m)
    assert a_G_if_CM(maximal, red_m) == -2
    # reduction number bridge: r = a(G) + d on these certified instances
    assert reduction_number_wrt(red, m2) == a_G_if_CM(m2, red) + 2
    assert reduction_number_wrt(red_m, maximal) == a_G_if_CM(maximal, red_m) + 2


def test_vv_certificate_false_for_shallow_staircase():
    red = minimal_reduction(STAIR, seed=7)
    r = reduction_number_wrt(red, STAIR)
    assert not vv_cm_certificate(STAIR, red, r=r)
    with pytest.raises(CertificateFailed):
        a_G_if_CM(STAIR, red, r=r)


def test_reduction_colength_equals_multiplicity():
    for ideal in (
        parse_ideal("x^2, x*y, y^2", XY),
        parse_ideal("x^2, y^3", XY),
        MonomialIdeal(3, [(1, 0, 0), (0, 1, 0), (0, 0, 1)]).power(2),
    ):
        red = minimal_reduction(ideal, seed=11)
        reduction_number_wrt(red, ideal)  # confirms J is a reduction
        assert reduction_colength(red, ideal.k) == multiplicity_samuel(ideal)


def test_samuel_multiplicity_matches_g_series_random():
    rng = random.Random(103)
    for _ in range(10):
        ideal = random_m_primary_ideal(rng, 2, 4)
        data = G_hilbert_data(ideal)
        assert multiplicity_samuel(ideal) == data.multiplicity


def test_reduction_engines_agree_on_random_monomial_subideals():
    # the certified-truncation decision and the lattice brute force must agree
    # on every monomial candidate, reduction or not
    rng = random.Random(163)
    compared = 0
    for _ in range(60):
        ideal = random_m_primary_ideal(rng, 2, 4)
        gens = ideal.exps
        subset = [g for g in gens if rng.random() < 0.7]
        if not subset or len(subset) == len(gens):
            continue
        candidate = MonomialIdeal(2, subset)
        wrapped = Reduction([PolyElement.from_monomial(g) for g in candidate.exps], 0, 1)
        try:
            r_linear = reduction_number_wrt(wrapped, ideal, n_bound=6)
        except NotAReduction:
            r_linear = None
        try:
            r_brute = monomial_reduction_number(ideal, candidate, n_bound=6)
        except NotAReduction:
            r_brute = None
        assert r_linear == r_brute
        compared += 1
    assert compared >= 12


def test_vv_levels_match_monomial_oracle():
    # with a monomial parameter J both sides of each Valabrega-Valla level are
    # monomial ideals, so the truncated-subspace verdict has a lattice oracle
    rng = random.Random(139)
    checked = 0
    for _ in range(12):
        a, b = rng.randint(2, 4), rng.randint(2, 4)
        param = MonomialIdeal(2, [(a, 0), (0, b)])
        extras = [
            (i, j)
            for i in range(1, a)
            for j in range(1, b)
            if i * b + j * a >= a * b and rng.random() < 0.5
        ]
        ideal = param + MonomialIdeal(2, extras) if extras else param
        try:
            r = monomial_reduction_number(ideal, param, n_bound=10)
        except NotAReduction:
            continue
        red = monomial_reduction(param)
        oracle = all(
            ideal.power(n).intersection(param) == param * ideal.power(n - 1)
            for n in range(1, r + 2)
        )
        assert vv_cm_certificate(ideal, red, r=r) == oracle
        checked += 1
    assert checked >= 8
