import random
from itertools import combinations_with_replacement
from math import comb

import pytest

from monograded import cohomology
from monograded.bounds import random_m_primary_ideal
from monograded.cohomology import _class_dims, cohomology_table, integer_rank
from monograded.errors import ZeroRing
from monograded.hilbert import hilbert_series
from monograded.monomials import MonomialIdeal, parse_ideal

from oracles import (
    OrthantClass,
    cech_class_cohomology,
    degree_box_top,
    exhaustive_cohomology_table,
    fraction_rank,
    full_scan_class_dims,
    pure_power_variable,
    serre_difference_table,
)

XY = ("x", "y")
ABCD = ("a", "b", "c", "d")
N_IDEAL = parse_ideal("b*d, b*c, b^2, c^3", ABCD)


def test_class_cohomology_polynomial_ring_negative_orthant():
    dims = cech_class_cohomology(MonomialIdeal.zero(1), OrthantClass(frozenset({0}), (None,)))
    assert dims == (0, 1)


def test_class_cohomology_point():
    ideal = parse_ideal("x", ("x",))
    dims = cech_class_cohomology(ideal, OrthantClass(frozenset(), (0,)))
    assert dims == (1, 0)
    # localizing at x kills everything
    dims = cech_class_cohomology(ideal, OrthantClass(frozenset({0}), (None,)))
    assert dims == (0, 0)


def test_fiber_cone_table():
    table = cohomology_table(N_IDEAL)
    assert table.dim == 2
    assert table.depth == 1
    assert table.a_invariant == 0
    assert table.h(1, 0) == 1
    assert table.eg_invariant == 1


def test_h_examples():
    assert cohomology_table(N_IDEAL).h(1, 0) == 1
    assert cohomology_table(MonomialIdeal.zero(2)).h(2, -2) == 1
    assert cohomology_table(parse_ideal("c, d, b^2", ABCD)).h(1, 0) == 1


def test_auxiliary_a_invariants():
    j_ideal = parse_ideal("b, c^3", ABCD)
    k_ideal = parse_ideal("c, d, b^2", ABCD)
    assert cohomology_table(j_ideal).a_invariant == 0
    assert cohomology_table(k_ideal).a_invariant == 0
    assert cohomology_table(j_ideal + k_ideal).a_invariant == -1


def test_polynomial_ring_closed_form():
    for k in (1, 2, 3):
        ideal = MonomialIdeal.zero(k)
        table = cohomology_table(ideal)
        assert table.dim == k and table.depth == k
        assert table.a_invariant == -k
        for n in range(-k - 5, 3):
            expected = comb(-n - 1, k - 1) if n <= -k else 0
            assert table.h(k, n) == expected
        for i in range(k):
            assert all(table.h(i, n) == 0 for n in range(-8, 8))


def test_shift_oracle_pure_powers():
    # a(k[x_1..x_k]/(x_1^m)) = a(polynomial ring) + m = -k + m
    for k in (1, 2, 3):
        for m in (1, 2, 4, 6):
            exps = tuple(m if j == 0 else 0 for j in range(k))
            ideal = MonomialIdeal(k, [exps])
            assert cohomology_table(ideal).a_invariant == -k + m


def test_complete_intersection_closed_forms():
    # pure powers in distinct variables: Cohen-Macaulay with
    # a = sum(exponents) - k, EG = 0, and depth = dim
    rng = random.Random(157)
    for _ in range(15):
        k = rng.randint(1, 4)
        count = rng.randint(1, k)
        variables = rng.sample(range(k), count)
        exponents = {j: rng.randint(1, 5) for j in variables}
        gens = [tuple(exponents[j] if i == j else 0 for i in range(k)) for j in variables]
        ideal = MonomialIdeal(k, gens)
        table = cohomology_table(ideal)
        assert table.depth == table.dim == k - count
        assert table.a_invariant == sum(exponents.values()) - k
        assert table.eg_invariant == 0


def test_clamp_at_rho_or_above_kills_cohomology():
    rng = random.Random(151)
    for _ in range(10):
        k = rng.randint(2, 3)
        ideal = random_m_primary_ideal(rng, k, 4)
        rho = ideal.max_exponents()
        j = rng.randrange(k)
        clamped = tuple(
            rho[i] + rng.randint(0, 2) if i == j else min(rng.randint(0, 3), max(rho[i] - 1, 0))
            for i in range(k)
        )
        dims = cech_class_cohomology(ideal, OrthantClass(frozenset(), clamped))
        assert dims == (0,) * (k + 1)


def test_zero_ring_raises():
    with pytest.raises(ZeroRing):
        cohomology_table(MonomialIdeal.unit(2))
    with pytest.raises(ZeroRing):
        cech_class_cohomology(MonomialIdeal.unit(2), OrthantClass(frozenset(), (0, 0)))


def test_vanishing_box():
    rng = random.Random(41)
    for _ in range(15):
        k = rng.randint(2, 3)
        ideal = random_m_primary_ideal(rng, k, 5)
        table = cohomology_table(ideal)
        top = degree_box_top(table)
        for i in range(k + 1):
            for n in range(top + 1, top + 5):
                assert table.h(i, n) == 0


def test_depth_dim_and_cm_detection():
    rng = random.Random(43)
    for _ in range(15):
        k = rng.randint(2, 3)
        ideal = random_m_primary_ideal(rng, k, 5)
        table = cohomology_table(ideal)
        assert table.depth <= table.dim
        assert table.dim == hilbert_series(ideal).dim
    # complete intersections of pure powers are Cohen-Macaulay
    ci = parse_ideal("x^2, y^3", XY)
    # dim R/ci = 0: depth equals dim
    table = cohomology_table(ci)
    assert table.depth == table.dim == 0
    hyper = parse_ideal("x^2", XY)
    table = cohomology_table(hyper)
    assert table.depth == table.dim == 1
    # the fiber presentation is not Cohen-Macaulay
    assert cohomology_table(N_IDEAL).depth < cohomology_table(N_IDEAL).dim


def test_h0_sum_equals_saturation_length():
    rng = random.Random(47)
    checked = 0
    for _ in range(25):
        k = rng.randint(2, 3)
        ideal = random_m_primary_ideal(rng, k, 4)
        if rng.random() < 0.5:
            # drop one pure power to leave the Artinian world
            gens = ideal.exps
            pures = [g for g in gens if pure_power_variable(g) is not None]
            rest = [g for g in gens if g != pures[0]]
            if not rest:
                continue
            ideal = MonomialIdeal(k, rest)
        if ideal.is_zero or ideal.is_unit:
            continue
        table = cohomology_table(ideal)
        top = degree_box_top(table)
        h0_total = sum(table.h(0, n) for n in range(0, top + 2))
        saturation = ideal.saturation()
        sat_length = sum(
            ideal.graded_length(n) - saturation.graded_length(n)
            for n in range(0, top + 2)
        )
        assert h0_total == sat_length
        checked += 1
    assert checked >= 15


def test_grothendieck_serre_identity_spot():
    rng = random.Random(53)
    for _ in range(12):
        k = rng.randint(2, 3)
        ideal = random_m_primary_ideal(rng, k, 5)
        table = cohomology_table(ideal)
        rho_sum = sum(table.rho)
        serre = serre_difference_table(ideal, -rho_sum, rho_sum)
        for n, difference in serre.items():
            alternating = sum((-1) ** i * table.h(i, n) for i in range(k + 1))
            assert alternating == difference


def test_integer_rank_matches_fraction_oracle():
    rng = random.Random(59)
    for _ in range(40):
        rows = rng.randint(0, 5)
        cols = rng.randint(1, 5)
        matrix = [[rng.randint(-3, 3) for _ in range(cols)] for _ in range(rows)]
        assert integer_rank(matrix) == fraction_rank(matrix)


def test_top_cohomology_nonvanishing():
    rng = random.Random(61)
    for _ in range(15):
        k = rng.randint(1, 3)
        ideal = random_m_primary_ideal(rng, k, 4)
        table = cohomology_table(ideal)
        d = hilbert_series(ideal).dim
        assert table.dim == d
        assert any(table.h(d, n) > 0 for n in range(-sum(table.rho) - k, degree_box_top(table) + 1))
        for i in range(d + 1, k + 1):
            assert all(
                table.h(i, n) == 0
                for n in range(-sum(table.rho) - k, degree_box_top(table) + 1)
            )


def test_eg_invariant_definition():
    # EG = sum of C(d-1, q) h^q(R)_{1-q} over q < d, checked against h()
    for ideal in (N_IDEAL, parse_ideal("x^2", XY), MonomialIdeal.zero(3)):
        table = cohomology_table(ideal)
        d = table.dim
        expected = sum(comb(d - 1, q) * table.h(q, 1 - q) for q in range(d))
        assert table.eg_invariant == expected
    assert cohomology_table(N_IDEAL).depth == 1


def oracle_ideals():
    """Seeded ideals in 2-5 variables of every shape the breakpoint classes
    must handle, with exponents small enough for the exhaustive oracle."""
    rng = random.Random(2005)
    for k in (2, 3, 4, 5):
        top = 5 if k <= 3 else 3
        for _ in range(4):
            yield random_m_primary_ideal(rng, k, top)
        for _ in range(6):
            # not m-primary: generators with zero exponents, some variables free
            count = rng.randint(1, 4)
            gens = [tuple(rng.randint(0, top) * (rng.random() < 0.6) for _ in range(k))
                    for _ in range(count)]
            gens = [g for g in gens if any(g)] or [(top,) + (0,) * (k - 1)]
            yield MonomialIdeal(k, gens)
        yield MonomialIdeal(k, [tuple(rng.randint(1, top) for _ in range(k))])
        powers = rng.sample(range(k), rng.randint(1, k))
        yield MonomialIdeal(k, [
            tuple(rng.randint(1, top) if i == j else 0 for i in range(k)) for j in powers
        ])
        yield MonomialIdeal.zero(k)


def test_breakpoint_table_matches_exhaustive_enumeration():
    for ideal in oracle_ideals():
        table = cohomology_table(ideal)
        oracle = exhaustive_cohomology_table(ideal)
        assert (table.dim, table.depth) == (oracle.dim, oracle.depth), ideal
        assert table.a_invariant == oracle.a_invariant, ideal
        assert table.eg_invariant == oracle.eg_invariant, ideal
        rho_sum = sum(table.rho)
        for i in range(ideal.k + 1):
            for n in range(-rho_sum - ideal.k - 1, rho_sum + 2):
                assert table.h(i, n) == oracle.h(i, n), (ideal, i, n)


def test_window_rows_match_h():
    for ideal in oracle_ideals():
        table = cohomology_table(ideal)
        rho_sum = sum(table.rho)
        for lo, hi in ((-rho_sum, rho_sum), (-2, 1), (3, 2)):
            expected = [[i, n, table.h(i, n)] for i in range(ideal.k + 1)
                        for n in range(lo, hi + 1) if table.h(i, n)]
            assert table.rows(lo, hi) == expected, (ideal, lo, hi)


def aggregated(classes):
    """One entry per (clamp sum, |T|), dims summed, as CohomologyTable.classes."""
    totals = {}
    for clamp_sum, t_size, dims in classes:
        total = totals.setdefault((clamp_sum, t_size), [0] * len(dims))
        for i, dim in enumerate(dims):
            total[i] += dim
    return [(s, t, tuple(dims)) for (s, t), dims in sorted(totals.items()) if any(dims)]


def test_warm_complex_memo_matches_cold_and_exhaustive():
    # The class complexes are memoized across tables: building the tables again
    # in reverse order, with the memo warm, must give the same classes.
    ideals = list(dict.fromkeys(oracle_ideals()))

    def build(order):
        cohomology_table.cache_clear()
        return {ideal: cohomology_table(ideal).classes for ideal in order}

    _class_dims.cache_clear()
    cold = build(ideals)
    hits = _class_dims.cache_info().hits
    warm = build(ideals[::-1])
    assert _class_dims.cache_info().hits > hits
    assert cold == warm
    for ideal in ideals:
        assert cold[ideal] == aggregated(exhaustive_cohomology_table(ideal).classes), ideal


def shifted_class_dims(k, t_mask, family):
    """_class_dims on the masks restricted to the coordinates outside T,
    renumbered 0, 1, ... in order, with the dims shifted up by |T|."""
    outside = [j for j in range(k) if not t_mask >> j & 1]
    projected = tuple(sum(1 << b for b, j in enumerate(outside) if m >> j & 1) for m in family)
    return (0,) * (k - len(outside)) + _class_dims(len(outside), projected)


def test_class_dims_matches_full_scan_on_every_small_family():
    for k in (1, 2, 3):
        for t_mask in range(1 << k):
            for size in range(4):
                for family in combinations_with_replacement(range(1 << k), size):
                    case = (k, t_mask, family)
                    assert shifted_class_dims(*case) == full_scan_class_dims(*case), case


def test_class_dims_matches_full_scan_on_random_families():
    rng = random.Random(211)
    for _ in range(6000):
        k = rng.choice((4, 5))
        t_mask = rng.randrange(1 << k)
        family = {rng.randrange(1, 1 << k) for _ in range(rng.randint(1, 6))}
        if rng.random() < 0.5:
            # the table passes the inclusion-minimal masks, where cones show
            family = {m for m in family if not any(o & m == o != m for o in family)}
        case = (k, t_mask, tuple(family))
        assert shifted_class_dims(*case) == full_scan_class_dims(*case), case


def test_void_and_cone_classes_take_no_rank(monkeypatch):
    calls = []

    def counting_rank(rows):
        calls.append(rows)
        return integer_rank(rows)

    monkeypatch.setattr(cohomology, "integer_rank", counting_rank)
    _class_dims.cache_clear()
    # void: the kill mask {x_0} lies inside T = {x_0}, so its projection is empty
    void = (3, 0b001, (0b001, 0b110))
    # cone: x_2 lies outside T = {} and outside every kill mask
    cone = (3, 0b000, (0b001, 0b010))
    for case in (void, cone):
        assert shifted_class_dims(*case) == (0, 0, 0, 0) == full_scan_class_dims(*case)
    assert calls == []
    # three vertices, no edge: the counter does see a class that needs ranks
    three_points = (3, 0b000, (0b011, 0b101, 0b110))
    assert shifted_class_dims(*three_points) == (0, 2, 0, 0) == full_scan_class_dims(*three_points)
    assert calls
