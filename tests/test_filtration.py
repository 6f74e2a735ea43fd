import random

import pytest

from monograded import filtration
from monograded.bounds import corpus_monomial, instance_seed, random_m_primary_ideal
from monograded.errors import ComputationError, InfiniteLength, NotAReduction
from monograded.filtration import (
    G_hilbert_series,
    PowerCache,
    cm_h_vector,
    fiber_cone_series,
    gamma_positive,
    h0_G,
    minimal_reduction,
    mu,
    newton_multiplicity,
    power_cache,
    ratliff_rush,
    reduction_number,
    reduction_number_wrt,
)
from monograded.hilbert import reconstruct_series
from monograded.monomials import MonomialIdeal, parse_ideal

from oracles import (
    all_vv_levels,
    contains_monomial,
    monomial_reduction,
    monomial_reduction_number,
    multiplicity_samuel,
    reduction_colength,
    truncated_reduction_number,
    tuple_h_vector,
    tuple_layer,
    tuple_power,
    tuple_powers,
    tuple_ratliff_rush,
    vv_cm_certificate,
    vv_levels,
)

XY = ("x", "y")
EX_IDEAL = parse_ideal("x^3, x^2*y^4, x*y^5, y^7", XY)
STAIR = parse_ideal("x^4, x^3*y, x*y^3, y^4", XY)
XYZ = ("x", "y", "z")
HARD = parse_ideal("x^5, y^5, z^5, x^2*y^2, y^2*z^2, x*z^3", XYZ)
HARD_LADDER = {  # A is HARD; none of A-D has a Cohen-Macaulay G
    "A": HARD,
    "B": parse_ideal("x^6, y^6, z^6, x^2*y^3, y^2*z^3, x^3*z^2", XYZ),
    "C": parse_ideal("x^7, y^7, z^7, x^3*y^2, y^3*z^2, x^2*z^4, x*y*z^3", XYZ),
    "D": parse_ideal("x^10, y^10, z^10, x^4*y^3, y^4*z^3, x^3*z^5, x^2*y^2*z^2", XYZ),
}


def test_ratliff_rush_examples():
    param = parse_ideal("x^2, y^2", XY)
    assert ratliff_rush(param) == param
    maximal = parse_ideal("x, y", XY)
    assert ratliff_rush(maximal) == maximal
    closed = ratliff_rush(STAIR)
    assert closed == STAIR + parse_ideal("x^2*y^2", XY)
    assert contains_monomial(closed, parse_ideal("x^2*y^2", XY).exps[0])


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
    assert len(red) == 2
    assert red == minimal_reduction(parse_ideal("x^2, x*y, y^2", XY), seed=3)
    assert red != minimal_reduction(parse_ideal("x^2, x*y, y^2", XY), seed=4)
    # one variable: a single term on the one generator, x^4
    [[(exps, _)]] = minimal_reduction(parse_ideal("x^4", ("x",)), seed=9)
    assert exps == (4,)


def test_minimal_reduction_follows_generator_order():
    # seeded coefficients go to the generators in (degree, exps) order
    red = minimal_reduction(EX_IDEAL, seed=0)
    assert red == [
        (((3, 0), 50), ((1, 5), 98), ((2, 4), 54), ((0, 7), 6)),
        (((3, 0), 34), ((1, 5), 66), ((2, 4), 63), ((0, 7), 52)),
    ]


def test_reduction_number_examples():
    m2 = parse_ideal("x^2, x*y, y^2", XY)
    param = parse_ideal("x^2, y^2", XY)
    assert reduction_number_wrt(monomial_reduction(param), m2) == 1
    assert monomial_reduction_number(m2, param) == 1
    maximal = parse_ideal("x, y", XY)
    r, red, trials = reduction_number(maximal, trials=2, seed=0)
    assert r == 0 and all(t["r"] == 0 for t in trials)
    assert red == minimal_reduction(maximal, trials[0]["seed"])
    # J = (x^3, y^7) inside the worked ideal: proper subideal forces r >= 1
    param2 = parse_ideal("x^3, y^7", XY)
    r2 = reduction_number_wrt(monomial_reduction(param2), EX_IDEAL)
    assert r2 >= 1
    assert r2 == monomial_reduction_number(EX_IDEAL, param2)


def test_reduction_number_keeps_the_first_least_trial(monkeypatch):
    # scripted r_J of three trials: 2, 1, 1; J is the second trial's candidate
    script = iter([2, 1, 1])
    monkeypatch.setattr(filtration, "reduction_number_wrt", lambda *args, **kwargs: next(script))
    r, red, trials = reduction_number(EX_IDEAL, trials=3, seed=0)
    assert r == 1 and [t["r"] for t in trials] == [2, 1, 1]
    assert red == minimal_reduction(EX_IDEAL, trials[1]["seed"])
    assert red != minimal_reduction(EX_IDEAL, trials[2]["seed"])
    with pytest.raises(ValueError):
        reduction_number(EX_IDEAL, trials=0)


def test_fiber_route_matches_truncated_oracle():
    # the fiber-cone rank against image dimensions in truncations S/m^(t+1),
    # at the least t and two degrees past it
    m2 = parse_ideal("x^2, x*y, y^2", XY)
    cases = [(monomial_reduction(parse_ideal("x^2, y^2", XY)), m2)]
    cases += [(minimal_reduction(EX_IDEAL, seed=1), EX_IDEAL)]
    for k, deg_bound in ((2, 6), (3, 3)):
        for _, ideal in corpus_monomial(0, 60, k, deg_bound):
            cases += [(minimal_reduction(ideal, seed), ideal) for seed in (0, 1)]
    seen = set()
    for red, ideal in cases:
        r = reduction_number_wrt(red, ideal)
        assert truncated_reduction_number(red, ideal) == r
        assert truncated_reduction_number(red, ideal, extra_truncation=2) == r
        seen.add((ideal.k, r))
    assert {(2, 0), (2, 1), (2, 2), (3, 0), (3, 1), (3, 2)} <= seen


def test_non_reduction_raises():
    m2 = parse_ideal("x^2, x*y, y^2", XY)
    single = monomial_reduction(parse_ideal("x^4", XY))
    with pytest.raises(NotAReduction):
        reduction_number_wrt(single, m2, n_bound=5)
    for extra in (0, 2):
        with pytest.raises(NotAReduction):
            truncated_reduction_number(single, m2, n_bound=5, extra_truncation=extra)
    with pytest.raises(NotAReduction):
        monomial_reduction_number(m2, parse_ideal("x^4", XY), n_bound=5)


def test_g_series_examples():
    m2 = parse_ideal("x^2, x*y, y^2", XY)
    series = G_hilbert_series(m2)
    assert series.numerator == [3, 1]
    assert series.multiplicity == 4
    maximal = parse_ideal("x, y", XY)
    assert G_hilbert_series(maximal).numerator == [1]


def test_vv_certificate_and_a_invariant():
    # a(G) = deg h - d, and the bridge r_J = a(G) + d on certified instances
    for text, a_g in (("x^2, x*y, y^2", -1), ("x, y", -2)):
        ideal = parse_ideal(text, XY)
        red = minimal_reduction(ideal, seed=5)
        r = reduction_number_wrt(red, ideal)
        assert vv_cm_certificate(ideal, red)
        is_cm, h = cm_h_vector(ideal, red, r)
        assert is_cm and len(h) - 1 - ideal.k == a_g
        assert r == a_g + ideal.k
        assert filtration.filtration_report(ideal)["a_G"] == a_g


def test_vv_certificate_false_for_shallow_staircase():
    red = minimal_reduction(STAIR, seed=7)
    r = reduction_number_wrt(red, STAIR)
    assert not vv_cm_certificate(STAIR, red, r=r)
    assert not cm_h_vector(STAIR, red, r)[0]


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
        assert multiplicity_samuel(ideal) == G_hilbert_series(ideal).multiplicity


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
        wrapped = monomial_reduction(candidate)
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


def test_trimmed_vv_levels_match_all_levels():
    # levels 1 and r_J + 1 hold without computation; the computed levels are
    # the all-levels oracle's, and so is the verdict
    # m^3 and (x^2, y^2, z^2, xyz)^2 in three variables: r_J = 2 and G is
    # Cohen-Macaulay, so the oracle's last level is the skipped level r_J + 1
    cube = parse_ideal("x, y, z", XYZ).power(3)
    square = parse_ideal("x^2, y^2, z^2, x*y*z", XYZ).power(2)
    cases = [(STAIR, minimal_reduction(STAIR, seed=7))]
    cases += [(ideal, minimal_reduction(ideal, seed=0)) for ideal in (cube, square)]
    for k, deg_bound, trials in ((2, 6, 3), (3, 3, 2)):
        for i, (_, ideal) in enumerate(corpus_monomial(0, 40, k, deg_bound)):
            _, red, _ = reduction_number(ideal, trials=trials, seed=instance_seed(0, i))
            cases.append((ideal, red))
    seen = set()
    for ideal, red in cases:
        r = reduction_number_wrt(red, ideal)
        levels = vv_levels(ideal, red, r=r)
        oracle = all_vv_levels(ideal, red, r)
        assert levels == oracle[: len(levels)]
        assert levels[-1].holds == oracle[-1].holds
        assert vv_cm_certificate(ideal, red, r=r) == oracle[-1].holds
        seen.add((ideal.k, r, oracle[-1].holds))
    assert {0, 1, 2} <= {r for k, r, _ in seen if k == 3}
    assert {(3, 2, True), (3, 2, False), (2, 1, True)} <= seen


def test_hard_ideal_reduction_and_vv_failure():
    # the truncated route did not finish n = 3 here; the VV test fails at level 2
    red = minimal_reduction(HARD, seed=0)
    assert reduction_number_wrt(red, HARD) == 3
    levels = vv_levels(HARD, red, r=3)
    assert len(levels) == 2 and not levels[-1].holds
    assert not vv_cm_certificate(HARD, red, r=3)


def test_filtration_report_runs_one_certificate(monkeypatch):
    # the report's a(G) and G-numerator read the verdict it already has
    calls = []
    real = filtration.cm_h_vector

    def counting(*args, **kwargs):
        calls.append(args[0])
        return real(*args, **kwargs)

    monkeypatch.setattr(filtration, "cm_h_vector", counting)
    m2 = parse_ideal("x^2, x*y, y^2", XY)
    report = filtration.filtration_report(m2)
    assert calls == [m2]
    assert report["vv_certificate"] and report["a_G"] == -1 and report["G_numerator"] == [3, 1]
    shallow = filtration.filtration_report(STAIR)
    assert calls == [m2, STAIR]
    assert not shallow["vv_certificate"] and shallow["a_G"] is None
    assert shallow["G_numerator"] == G_hilbert_series(STAIR).numerator


@pytest.mark.parametrize("k, deg_bound, count, cm_count", [(2, 6, 200, 192), (3, 3, 120, 108)])
def test_certified_cm_closures_are_the_powers(k, deg_bound, count, cm_count):
    # Heinzer-Lantz-Shah: a Cohen-Macaulay G has every power Ratliff-Rush
    # closed, so the heuristic chain must return I^n and h^0(G)_n must vanish
    certified_count = 0
    for _, ideal in corpus_monomial(0, count, k, deg_bound):
        r, reduction, _ = reduction_number(ideal, trials=3)
        certified, _ = cm_h_vector(ideal, reduction, r)
        if not certified:
            continue
        certified_count += 1
        assert r <= 1
        for n in range(1, 5):
            assert ratliff_rush(ideal, n) == power_cache(ideal).power(n)
            assert h0_G(ideal, n) == 0
    assert certified_count == cm_count


def test_filtration_report_skips_the_chain_when_certified(monkeypatch):
    calls = []

    def counting(name):
        real = getattr(filtration, name)

        def wrapper(*args):
            calls.append(name)
            return real(*args)
        return wrapper

    for name in ("ratliff_rush", "h0_G"):
        monkeypatch.setattr(filtration, name, counting(name))
    square = parse_ideal("x^5, x^2*y^2, y^5", XY)
    report = filtration.filtration_report(square)
    assert report["vv_certificate"] and calls == []
    assert report["ratliff_rush"] == [power_cache(square).power(n).format() for n in range(1, 5)]
    assert report["h0_G"] == [0, 0, 0, 0]
    hard = filtration.filtration_report(HARD)
    assert not hard["vv_certificate"]
    assert "ratliff_rush" in calls and "h0_G" in calls


# -- the Newton multiplicity and the colength of G/J*G -------------------------


def test_newton_multiplicity_named_cases():
    # six coplanar generators on one facet; a linear generator; one variable
    assert newton_multiplicity(parse_ideal("x, y, z", XYZ).power(2)) == 8
    assert newton_multiplicity(parse_ideal("x, y^3, z^2", XYZ)) == 6
    assert newton_multiplicity(parse_ideal("x^3", ("x",))) == 3
    assert newton_multiplicity(parse_ideal("x^3, y^7", XY)) == 21
    assert newton_multiplicity(STAIR) == 16
    assert newton_multiplicity(HARD) == multiplicity_samuel(HARD)
    for text in ("x^2, x*y", "x^2, y^2, x*y"):
        with pytest.raises(InfiniteLength):
            newton_multiplicity(parse_ideal(text, XYZ))
    with pytest.raises(InfiniteLength):
        newton_multiplicity(MonomialIdeal.unit(2))


def test_newton_multiplicity_matches_samuel_oracle():
    # seeded corpora in 1..4 variables, with linear generators and
    # coplanar facets among them
    seen = set()
    for k, deg_bound, count in ((1, 9, 30), (2, 6, 120), (3, 3, 100), (3, 5, 40), (4, 2, 40)):
        for _, ideal in corpus_monomial(3, count, k, deg_bound):
            assert newton_multiplicity(ideal) == multiplicity_samuel(ideal), ideal
            seen.add(k)
    assert seen == {1, 2, 3, 4}


def _cm_cases():
    # A (r_J = 3, not CM), and m^3 and (x^2, y^2, z^2, xyz)^2 (r_J = 2, CM)
    cube = parse_ideal("x, y, z", XYZ).power(3)
    square = parse_ideal("x^2, y^2, z^2, x*y*z", XYZ).power(2)
    cases = [(ideal, minimal_reduction(ideal, seed=0)) for ideal in (HARD, cube, square)]
    for k, deg_bound, count in ((2, 6, 60), (3, 3, 60), (3, 4, 20), (4, 2, 20)):
        for i, (_, ideal) in enumerate(corpus_monomial(5, count, k, deg_bound)):
            cases.append((ideal, minimal_reduction(ideal, seed=i)))
    return cases


def test_cm_h_vector_matches_vv_oracle():
    # Cohen-Macaulay iff ell(G/J*G) = e, against the Valabrega-Valla levels
    seen = set()
    for ideal, red in _cm_cases():
        r = reduction_number_wrt(red, ideal)
        is_cm, h = cm_h_vector(ideal, red, r=r)
        oracle = all_vv_levels(ideal, red, r)
        assert is_cm == oracle[-1].holds == vv_cm_certificate(ideal, red, r=r), ideal
        assert h[0] == ideal.quotient_length() and all(v >= 1 for v in h[1:])
        seen.add((ideal.k, r, is_cm))
    assert {(3, 2, True), (3, 2, False), (3, 3, False), (2, 1, True), (3, 0, True)} <= seen
    assert {(2, 2, False), (4, 1, True)} <= seen


def test_cm_h_vector_is_the_g_numerator():
    # when G is Cohen-Macaulay its series is h/(1 - l)^d (checked in up to
    # three variables, where the reconstruction is quick), and
    # ell(I^2/JI) = h_2 + ... + h_r = e + (d - 1) ell(R/I) - ell(I/I^2)
    checked = 0
    for ideal, red in _cm_cases():
        is_cm, h = cm_h_vector(ideal, red, reduction_number_wrt(red, ideal))
        if not is_cm:
            continue
        cache = power_cache(ideal)
        d, e = ideal.k, newton_multiplicity(ideal)
        if d <= 3:
            assert h == G_hilbert_series(ideal).numerator
            checked += 1
        assert sum(h) == e
        assert sum(h[2:]) == e + (d - 1) * cache.colength(1) - (cache.colength(2) - cache.colength(1))
    assert checked >= 100


def test_cm_h_vector_stop_rule():
    # A: e = 76 and r_J = 3; h_0 + h_1 + 2 = 77 > e, so the test stops before h_2
    red = minimal_reduction(HARD, seed=0)
    assert newton_multiplicity(HARD) == 76
    assert cm_h_vector(HARD, red, r=3) == (False, [46, 29])
    # here h_0 + h_1 + 1 = 59 <= e = 60, and only h_2 takes the sum past e
    late = parse_ideal("y^3, x*y*z^2, x^3*z, z^5, x^5, y^2*z^4", XYZ)
    red = minimal_reduction(late, seed=14)
    assert reduction_number_wrt(red, late) == 2 and newton_multiplicity(late) == 60
    assert cm_h_vector(late, red, r=2) == (False, [38, 20, 6])
    # independent: a Cohen-Macaulay G would have this nonnegative h as its numerator
    assert G_hilbert_series(late).numerator == [38, 16, 7, -1]


# -- the bitset powers against the tuple engine --------------------------------


def _bitset_cases():
    cases = [pytest.param([ideal], 4, id=f"hard-{name}") for name, ideal in HARD_LADDER.items()]
    for k, deg_bound, count, top in ((2, 6, 25, 5), (3, 3, 25, 4), (4, 2, 12, 3)):
        ideals = [ideal for _, ideal in corpus_monomial(7, count, k, deg_bound)]
        cases.append(pytest.param(ideals, top, id=f"corpus-k{k}"))
    return cases


@pytest.mark.parametrize("ideals, top", _bitset_cases())
def test_bitset_engine_matches_tuple_engine(ideals, top):
    # powers, colengths, mu, layers, colons I^t : I^k, Ratliff-Rush closures
    # and h^0(G) against products, colons, intersections and standard
    # monomials of exponent tuples
    for ideal in ideals:
        powers = tuple_powers(ideal, top)
        cache = PowerCache(ideal)
        for n in range(top + 1):
            assert cache.power(n) == powers[n]
            assert cache.colength(n) == (powers[n].quotient_length() if n else 0)
            assert mu(ideal, n) == powers[n].num_generators()
        for n in range(top):
            assert cache.layer(n) == tuple_layer(powers, n)
        for t in range(2, top + 1):
            for k in range(1, t):
                bits = cache._bits(t)
                for i in range(k):
                    bits = cache._colon_by_ideal(bits, t - i)
                assert cache._ideal_of(bits) == powers[t].colon(powers[k]), (ideal, t, k)
        for p in (1, 2):
            closure = tuple_ratliff_rush(powers, p)
            assert cache.closure(p) == ratliff_rush(ideal, p) == closure
            inner = powers[p - 1].intersection(closure)
            expected = powers[p].quotient_length() - inner.quotient_length()
            assert cache.h0(p - 1) == h0_G(ideal, p - 1) == expected


def test_bitset_box_laid_out_again_mid_work():
    # a cache starts with the box of I^1, so every chain, layer loop and
    # colength sequence below lays it out again while it runs
    b = HARD_LADDER["B"]
    cache = PowerCache(b)
    assert cache._top == 1
    powers = tuple_powers(b, 1)
    closure = tuple_ratliff_rush(powers, 2)
    assert closure != powers[2]  # B^2 is not Ratliff-Rush closed
    inner = powers[1].intersection(closure)
    assert cache.h0(1) == powers[2].quotient_length() - inner.quotient_length()
    assert cache._top >= 4
    assert cache.closure(2) == closure
    fresh = PowerCache(b)
    assert fresh.layer(1) == tuple_layer(powers, 1)  # needs I^2: laid out again
    assert fresh._top == 2
    # cm_h_vector's layers from a cold cache, in a G that is Cohen-Macaulay
    square = parse_ideal("x^2, y^2, z^2, x*y*z", XYZ).power(2)
    red = minimal_reduction(square, seed=0)
    r = reduction_number_wrt(red, square)
    power_cache.cache_clear()
    is_cm, h = cm_h_vector(square, red, r)
    assert r == 2 and is_cm and h == tuple_h_vector(square, red, r)
    assert power_cache(square)._top >= r + 1
    # the G-series from a cold cache, whose colength differences run past
    # every box it lays out, against tuple colengths
    power_cache.cache_clear()
    powers = tuple_powers(STAIR, 1)

    def length(n):
        return tuple_power(powers, n).quotient_length() if n else 0

    expected = reconstruct_series(lambda n: length(n + 1) - length(n), 2)
    assert G_hilbert_series(STAIR).numerator == expected.numerator != []
    assert expected.numerator[-1] != 0


def test_box_grows_only_as_far_as_the_entry_bound_allows(monkeypatch):
    cache = PowerCache(STAIR)
    cache.power(4)
    assert cache._top == 4
    # doubling to I^8 would pass the bound: the box is laid out for the
    # largest top that stays below it
    monkeypatch.setattr(filtration, "MAX_ENTRY_BITS", cache._box(6)[2])
    powers = tuple_powers(STAIR, 6)
    assert cache.power(5) == powers[5] and cache._top == 6
    assert cache.power(6) == powers[6] and cache.colength(6) == powers[6].quotient_length()
    assert cache.closure(4) == tuple_ratliff_rush(powers, 4)
    # a power whose own box passes the bound is refused before it is laid out
    with pytest.raises(ComputationError, match=r"up to I\^7 need a box of 841 bits"):
        cache.power(7)
    assert cache._top == 6 and cache.power(6) == powers[6]


@pytest.mark.parametrize("name", ["B", "C"])
def test_entry_holds_no_more_than_its_box_bound(name):
    # after a whole report (powers, layers, closures, h^0, the G-series) an
    # entry holds at most 2*top + |gens| + k bitsets, none longer than the box
    ideal = HARD_LADDER[name]
    power_cache.cache_clear()
    filtration.filtration_report(ideal)
    cache = power_cache(ideal)
    held = [*cache._powers, *cache._closures.values(), *cache._ge1,
            *(fits for _, fits in cache._shifts)]
    assert cache.held_bits == sum(bits.bit_length() for bits in held)
    assert len(held) <= 2 * cache._top + len(ideal.exps) + ideal.k
    assert cache.held_bits <= cache._box(cache._top)[2] <= filtration.MAX_ENTRY_BITS
    assert max(bits.bit_length() for bits in held) <= cache._total


def test_where_the_entry_bound_refuses_in_four_variables():
    # a G that is not Cohen-Macaulay in four variables reads ell(R/I^14): its
    # box fits the bound for pure powers x_j^7 and is refused from x_j^8
    wxyz = ("x", "y", "z", "w")
    seven = PowerCache(parse_ideal("x^7, y^7, z^7, w^7, x^2*y^2*z^2", wxyz))
    assert seven._box(14)[2] <= filtration.MAX_ENTRY_BITS < seven._box(15)[2]
    eight = PowerCache(parse_ideal("x^8, y^8, z^8, w^8, x^2*y^2*z^2", wxyz))
    assert eight._box(13)[2] <= filtration.MAX_ENTRY_BITS < eight._box(14)[2]
    with pytest.raises(ComputationError, match=r"up to I\^14 need a box of 163047361 bits"):
        eight.power(14)


def test_power_cache_is_bounded_by_the_bits_it_holds(monkeypatch):
    ideals = list(dict.fromkeys(ideal for _, ideal in corpus_monomial(11, 14, 3, 3)))
    held = []
    for ideal in ideals[:3]:
        cache = PowerCache(ideal)
        cache.power(4)
        held.append(cache.held_bits)
    monkeypatch.setattr(filtration, "MAX_CACHED_BITS", 2 * max(held))
    power_cache.cache_clear()
    for ideal in ideals:
        # the bound holds after every lookup; the entry returned may then grow
        cache = power_cache(ideal)
        caches = list(filtration._ENTRIES.caches.values())
        assert caches[-1] is cache  # the most recent entry always stays
        total = filtration._ENTRIES.held_bits()
        assert total <= filtration.MAX_CACHED_BITS or len(caches) == 1
        cache.power(4)
        assert cache.held_bits >= sum(bits.bit_length() for bits in cache._powers)
    assert 1 < power_cache.cache_info().currsize < len(ideals)
    # a dropped entry is computed again, to the same powers
    first = power_cache(ideals[0])
    assert power_cache.cache_info().misses == len(ideals) + 1
    assert first.power(4) == tuple_powers(ideals[0], 4)[4]
    # one entry larger than the bound stays, alone
    monkeypatch.setattr(filtration, "MAX_CACHED_BITS", 1)
    power_cache(ideals[1]).power(2)
    assert power_cache.cache_info().currsize == 1
    assert power_cache.cache_info().maxsize == 1
