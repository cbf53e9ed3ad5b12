import hashlib
import json
import random
from fractions import Fraction as F
from itertools import combinations_with_replacement
from math import lcm

import pytest
from hypothesis import given, settings, strategies as st

from bnchains import (
    AmbiguousSpecialPointError,
    BNParams,
    ChainGeometry,
    Interior,
    Node,
    RankDeficiencyError,
    Tableau,
    TropicalDivisor,
    TropicalTooLargeError,
    check_genericity,
    divisor_from_tableau,
    effective_vanishing_from_tableau,
    enumerate_tableaux,
    is_equivalent_to_effective,
    point_on_loop,
    rank_at_least,
    reduce_to_q0,
    solve_special_point,
    tropical_rank,
    tropical_vanishing_table,
)
from bnchains import serialize
from bnchains.tropical import (
    _MAX_SWEEP_WIDTH,
    _least_carries,
    _loop_step,
    _split,
    special_multiplicity,
)
from bnchains.verify import random_generic_geometry, sweep_params

from worked_example import (
    PARAMS_662,
    TROP_CASES_662,
    TROP_EPSILON_662,
    TROP_TABLE_662,
    tableau_662,
)


def circle(l=13, m=1):
    return ChainGeometry(((F(l), F(m)),))


@pytest.fixture
def geom662():
    return ChainGeometry(tuple((F(10 + k), F(1)) for k in range(6)))


def test_geometry_validation():
    with pytest.raises(ValueError):
        ChainGeometry(((F(0), F(1)),))
    with pytest.raises(ValueError):
        ChainGeometry(())
    geom = circle()
    assert geom.g == 1 and geom.circumference(1) == 14


def test_point_canonicalization():
    geom = circle()
    assert point_on_loop(geom, 1, F(0)) == Node(0)
    assert point_on_loop(geom, 1, F(13)) == Node(1)
    assert point_on_loop(geom, 1, F(14)) == Node(0)
    assert point_on_loop(geom, 1, F(17)) == Interior(1, F(3))
    # -1 mod 14 = 13, which is the node position
    assert point_on_loop(geom, 1, F(-1)) == Node(1)
    assert point_on_loop(geom, 1, F(-5, 2)) == Interior(1, F(23, 2))


def test_divisor_normalization():
    d = TropicalDivisor(((Node(0), 1), (Node(0), 2), (Interior(1, F(3)), 1)))
    assert d.degree == 4
    assert d.multiplicity(Node(0)) == 3
    zero = TropicalDivisor(((Node(0), 1), (Node(0), -1)))
    assert zero.points == () and zero.degree == 0
    total = d - d
    assert total.points == ()


def test_genericity_examples():
    g6 = ChainGeometry(tuple([(F(13), F(1))] * 6))
    assert check_genericity(g6).generic
    bad = ChainGeometry(tuple([(F(13), F(1))] * 5 + [(F(1), F(3))]))
    report = check_genericity(bad)
    assert not report.generic and report.failing_loops == (6,)
    assert check_genericity(ChainGeometry(((F(1), F(1)),))).generic  # g=1 vacuous


def test_loop_class_examples():
    geom = circle()
    # interior points enter through their loop's (degree, class), nodes apart;
    # a loop is (degree, class, l, c, n) in integer units of 1/n
    nodes, loops = _split(geom, TropicalDivisor(((Node(0), 2), (Interior(1, F(11)), 1))))
    assert nodes == [2, 0] and loops == [(1, 11, 13, 14, 1)]
    assert _split(geom, TropicalDivisor(())) == ([0, 0], [(0, 0, 13, 14, 1)])
    # chips carried into Q_1 join the class at l_1 = 13: 3 * 13 = 11 mod 14
    assert _loop_step((0, 0, 13, 14, 1), 3) == (2, 11)
    # n is the lcm of the denominators of l = 13/2, m = 1/3 and the class 5/4
    geom = ChainGeometry(((F(13, 2), F(1, 3)),))
    _, loops = _split(geom, TropicalDivisor(((Interior(1, F(5, 4)), 1),)))
    assert loops == [(1, 15, 78, 82, 12)]
    # 5/4 + 13/2 = 11/12 mod 41/6: one of the two chips moves, one stays at 11/12
    assert _loop_step(loops[0], 1) == (1, 11)
    assert reduce_to_q0(geom, TropicalDivisor(((Interior(1, F(5, 4)), 1), (Node(1), 1)))).x == (
        Interior(1, F(11, 12)),
    )


def test_loop_reduce_examples():
    geom = circle()
    red = reduce_to_q0(geom, TropicalDivisor(((Node(0), 2),)))
    assert red.u == 2 and red.x == (None,)
    red = reduce_to_q0(geom, TropicalDivisor(((Node(1), 3),)))
    assert red.u == 2 and red.x == (Interior(1, F(11)),)
    red = reduce_to_q0(geom, TropicalDivisor(((Node(1), 1), (Interior(1, F(1)), 1))))
    assert red.u == 2 and red.x == (None,)


def test_reduce_examples():
    geom = circle()
    red = reduce_to_q0(geom, TropicalDivisor(((Node(0), 3),)))
    assert red.u == 3 and red.epsilon == (0,)
    p = Interior(1, F(5))
    red = reduce_to_q0(geom, TropicalDivisor(((p, 1),)))
    assert red.u == 0 and red.epsilon == (1,) and red.x == (p,)


def test_reduce_worked_example(geom662):
    divisor = divisor_from_tableau(tableau_662(), geom662)
    red = reduce_to_q0(geom662, divisor)
    assert red.u == 2
    assert red.epsilon == TROP_EPSILON_662


def test_effectivity_examples():
    geom = circle()
    assert is_equivalent_to_effective(geom, TropicalDivisor(((Node(1), 2),)))
    d = TropicalDivisor(((Interior(1, F(5)), 1), (Node(0), -1)))
    assert not is_equivalent_to_effective(geom, d)
    d = TropicalDivisor(((Node(1), 1), (Node(0), -1)))
    assert not is_equivalent_to_effective(geom, d)
    # degree-0 trivial class is effective (the zero divisor)
    d = TropicalDivisor(((Interior(1, F(13) + F(1)), 0),))
    assert is_equivalent_to_effective(geom, d)


def test_solve_special_point():
    g6 = ChainGeometry(tuple([(F(13), F(1))] * 6))
    x = solve_special_point(g6, 1, 2)
    assert x == Interior(1, F(11))
    assert solve_special_point(circle(1, 1), 1, 0) == Node(1)
    assert solve_special_point(circle(), 1, 0) == Node(1)
    with pytest.raises(ValueError):
        solve_special_point(g6, 1, -1)


def test_vanishing_table_worked_example(geom662):
    divisor = divisor_from_tableau(tableau_662(), geom662)
    table = tropical_vanishing_table(geom662, divisor, 2)
    assert tuple(row.orders for row in table.u) == TROP_TABLE_662
    assert table.case_tags == TROP_CASES_662
    assert table.epsilon == TROP_EPSILON_662


def test_vanishing_table_trivial_cases():
    geom = circle()
    table = tropical_vanishing_table(geom, TropicalDivisor(((Node(0), 2),)), 0)
    assert table.u[0].orders == (2,)
    assert table.case_tags == ("a",)  # no leftover, bottom order positive
    table = tropical_vanishing_table(geom, TropicalDivisor(((Node(0), 0),)), 0)
    assert table.case_tags == ("b",)


def test_vanishing_table_case_c():
    # leftover special at t0 = 1 with adjacent collision u_1 + 1 = u_0
    geom = circle()
    x = solve_special_point(geom, 1, 1)  # 1*Q_0 + x = 2*Q_1
    divisor = TropicalDivisor(((Node(0), 2), (x, 1)))
    table = tropical_vanishing_table(geom, divisor, 2)
    assert table.case_tags == ("c",)
    assert table.u[1].orders == (2, 1, 0)


def test_vanishing_table_case_e():
    geom = circle()
    divisor = TropicalDivisor(((Node(0), 2), (Interior(1, F(5)), 1)))
    table = tropical_vanishing_table(geom, divisor, 2)
    assert table.case_tags == ("e",)
    assert table.u[1].orders == (2, 1, 0)


def test_vanishing_table_case_d_at_node():
    # two interior special steps open a gap above the bottom order, after
    # which a leftover at the node Q_3 is 2-special and the 0 climbs to 1
    geom = ChainGeometry(tuple([(F(13), F(1))] * 3))
    x1 = solve_special_point(geom, 1, 2)
    x2 = solve_special_point(geom, 2, 1)
    divisor = TropicalDivisor(((Node(0), 2), (x1, 1), (x2, 1), (Node(3), 1)))
    table = tropical_vanishing_table(geom, divisor, 2)
    assert table.case_tags == ("d", "d", "d")
    assert [row.orders for row in table.u] == [
        (2, 1, 0),
        (3, 1, 0),
        (3, 2, 0),
        (3, 2, 1),
    ]
    assert table.x[2] == Node(3)


def test_vanishing_table_case_c_at_node():
    # a node leftover whose climb collides with the next order up
    geom = circle()
    divisor = TropicalDivisor(((Node(0), 2), (Node(1), 1)))
    table = tropical_vanishing_table(geom, divisor, 2)
    assert table.case_tags == ("c",)
    assert table.u[1].orders == (2, 1, 0)


def test_vanishing_table_rank_deficiency():
    geom = circle()
    with pytest.raises(RankDeficiencyError):
        tropical_vanishing_table(geom, TropicalDivisor(((Node(0), 1),)), 2)


def test_ambiguous_special_point():
    # non-generic loop (l/m = 1/2): 3*l = c, so orders 0 and 3 collide
    geom = ChainGeometry(((F(1), F(2)),))
    x = point_on_loop(geom, 1, F(2))  # = (0+1)*l ... and (3+1)*l = 4 mod 3 = 1? no
    # coordinates: (u+1)*l mod 3 for u = 0..: 1, 2, 0, 1, 2, ...
    divisor = TropicalDivisor(((Node(0), 4), (Interior(1, F(2)), 1)))
    # u(0) = (4,3,2,1,0) for r = 4: (u_t+1)*l mod 3 = (5,4,3,2,1) mod 3 = (2,1,0,2,1)
    with pytest.raises(AmbiguousSpecialPointError):
        tropical_vanishing_table(geom, divisor, 4)


def test_divisor_from_tableau_worked_example(geom662):
    divisor = divisor_from_tableau(tableau_662(), geom662)
    assert divisor.degree == 6
    assert divisor.multiplicity(Node(0)) == 2
    # loop 1: u = 2, coord = 3*10 mod 11 = 8
    assert divisor.multiplicity(Interior(1, F(8))) == 1
    assert divisor.multiplicity(Interior(2, F(10))) == 1
    assert divisor.multiplicity(Interior(3, F(9))) == 1
    assert divisor.multiplicity(Interior(5, F(13))) == 1


def test_divisor_from_tableau_all_in_last_column():
    p = BNParams(2, 0, 0)  # kbar = 2, single column = last column
    t = Tableau(p, ((1,), (2,)))
    geom = ChainGeometry(((F(5), F(2)), (F(7), F(3))))
    divisor = divisor_from_tableau(t, geom)
    assert divisor.points == ()  # r = 0 and every index in the last column


def test_divisor_from_tableau_mixed_rule():
    # placed first-column indices give special points, last-column indices
    # contribute nothing, the free index gets a sampled generic point
    p = BNParams(5, 4, 1)
    t = Tableau(p, ((1, 2), (3, 4)))
    assert t.free_indices == (5,)
    geom = ChainGeometry(tuple([(F(9), F(1))] * 5))
    divisor = divisor_from_tableau(t, geom)
    assert divisor.degree == 4
    assert divisor.multiplicity(Node(0)) == 1
    assert divisor.multiplicity(solve_special_point(geom, 1, 1)) == 1
    assert divisor.multiplicity(solve_special_point(geom, 3, 1)) == 1
    sampled = [
        pt for pt, _ in divisor.points if isinstance(pt, Interior) and pt.loop == 5
    ]
    assert len(sampled) == 1


def test_divisor_from_tableau_generic_sampling_deterministic():
    p = BNParams(5, 4, 1)
    t = next(iter(enumerate_tableaux(p)))
    geom = ChainGeometry(tuple([(F(9), F(1))] * 5))
    d1 = divisor_from_tableau(t, geom, seed=7)
    d2 = divisor_from_tableau(t, geom, seed=7)
    d3 = divisor_from_tableau(t, geom, seed=8)
    assert d1 == d2
    assert d1 != d3
    assert d1.degree == 4
    # the sampled point sits on the free loop and avoids special congruences
    free = t.free_indices[0]
    pts = [pt for pt, _ in d1.points if isinstance(pt, Interior) and pt.loop == free]
    assert len(pts) == 1
    x = pts[0]
    c = geom.circumference(free)
    l = geom.ell(free)
    specials = {((u + 1) * l) % c for u in range(p.d + 1)}
    assert x.coord not in specials and x.coord not in (F(0), l)


def test_special_multiplicity_matches_the_set_of_special_residues():
    # reference: list the d + 1 special residues (u + 1) * l mod c
    rng = random.Random(11)
    for _ in range(3_000):
        c = rng.randrange(2, 200)
        ell = rng.randrange(1, c)
        d = rng.choice([0, 1, 2, rng.randrange(0, 3 * c)])
        x = rng.randrange(0, c)
        specials = {(u + 1) * ell % c for u in range(d + 1)}
        u = special_multiplicity(ChainGeometry(((F(ell), F(c - ell)),)), 1, F(x))
        assert (u is not None and u <= d) == (x in specials), (ell, c, d, x)


def test_special_multiplicity_is_the_least_u_solve_special_point_gives():
    # reference: try u = 0, 1, ... through solve_special_point; in units of
    # 1/n the point (u + 1) * l mod c repeats within c * n steps.  Small
    # loops are far from generic (l / m = 1, 2, 1/2, ...), so many
    # coordinates are special for several u
    rng = random.Random(15)
    lengths = [F(1), F(2), F(3), F(1, 2), F(3, 2), F(2, 3), F(5, 6)]
    found = 0
    for _ in range(2_000):
        geom = ChainGeometry(tuple((rng.choice(lengths), rng.choice(lengths)) for _ in range(2)))
        k = rng.randrange(1, 3)
        c = geom.circumference(k)
        if rng.random() < 0.5:
            coord = rng.randrange(1, 20) * geom.ell(k) % c
        else:
            coord = c * F(rng.randrange(0, 24), 24)
        pt = point_on_loop(geom, k, coord)
        n = lcm(*(x.denominator for x in (*geom.lengths[k - 1], coord)))
        least = next(
            (u for u in range(int(c * n)) if solve_special_point(geom, k, u) == pt), None
        )
        assert special_multiplicity(geom, k, coord) == least, (geom, k, coord)
        found += least is not None
    assert 1_000 < found < 2_000, found


def test_rank_examples_on_circle():
    geom = circle()
    two_x = TropicalDivisor(((Interior(1, F(5)), 2),))
    assert tropical_rank(geom, two_x) == 1
    assert tropical_rank(geom, TropicalDivisor(((Node(0), 1),))) == 0
    assert rank_at_least(geom, TropicalDivisor(((Node(0), 1),)), 0)
    assert not rank_at_least(geom, TropicalDivisor(((Node(0), 1),)), 1)
    anti = TropicalDivisor(((Node(0), -1),))
    assert tropical_rank(geom, anti) == -1


def test_rank_worked_example(geom662):
    divisor = divisor_from_tableau(tableau_662(), geom662)
    assert rank_at_least(geom662, divisor, 2)
    assert not rank_at_least(geom662, divisor, 3)
    assert tropical_rank(geom662, divisor) == 2


def test_closed_form_agreement_all_662(geom662):
    for t in enumerate_tableaux(PARAMS_662):
        divisor = divisor_from_tableau(t, geom662)
        table = tropical_vanishing_table(geom662, divisor, 2)
        for i in range(7):
            expected = effective_vanishing_from_tableau(t, i)
            assert table.u[i] == expected


def params_strategy(max_g=5):
    return (
        st.tuples(
            st.integers(1, max_g), st.integers(0, 2 * max_g), st.integers(0, 3)
        )
        .map(lambda t: BNParams(*t))
        .filter(lambda p: p.rho >= 0 and p.kbar >= 0)
    )


@st.composite
def tableau_and_geometry(draw):
    params = draw(params_strategy())
    tableaux = list(enumerate_tableaux(params))
    t = tableaux[draw(st.integers(0, len(tableaux) - 1))]
    bound = max(2 * params.g - 2, 1)
    lengths = []
    for _ in range(params.g):
        num = draw(st.integers(bound, 3 * bound))
        den = draw(st.integers(1, 3))
        lengths.append((F(num, den), F(1)))
    geom = ChainGeometry(tuple(lengths))
    if not check_genericity(geom).generic:
        geom = ChainGeometry(tuple((F(bound + i), F(1)) for i in range(params.g)))
    seed = draw(st.integers(0, 10))
    return t, geom, seed


@given(tableau_and_geometry())
@settings(max_examples=50, deadline=None)
def test_tableau_divisor_matches_closed_form(data):
    t, geom, seed = data
    p = t.params
    divisor = divisor_from_tableau(t, geom, seed=seed)
    assert divisor.degree == p.d
    table = tropical_vanishing_table(geom, divisor, p.r)
    for i in range(p.g + 1):
        assert table.u[i] == effective_vanishing_from_tableau(t, i)
        assert table.u[i][p.r] == 0


@given(tableau_and_geometry())
@settings(max_examples=25, deadline=None)
def test_tableau_divisor_rank_certification(data):
    t, geom, seed = data
    p = t.params
    divisor = divisor_from_tableau(t, geom, seed=seed)
    assert rank_at_least(geom, divisor, p.r)
    assert not rank_at_least(geom, divisor, p.r + 1)


@given(tableau_and_geometry())
@settings(max_examples=30, deadline=None)
def test_reduction_soundness(data):
    t, geom, seed = data
    divisor = divisor_from_tableau(t, geom, seed=seed)
    red = reduce_to_q0(geom, divisor)
    rebuilt = {Node(0): red.u}
    for eps, x in zip(red.epsilon, red.x):
        if eps:
            rebuilt[x] = rebuilt.get(x, 0) + 1
    assert all(e in (0, 1) for e in red.epsilon)
    for k, x in enumerate(red.x, start=1):
        if x is not None:
            assert x != Node(k - 1)
    residue = reduce_to_q0(geom, divisor - TropicalDivisor.from_dict(rebuilt))
    assert residue.u == 0 and not any(residue.epsilon)


def _rank_at_least_by_witnesses(geom, divisor, r):
    """Reference rank test: reduce D - E for every effective node divisor E of degree r."""
    if r <= 0:
        return is_equivalent_to_effective(geom, divisor) if r == 0 else True
    base = divisor.as_dict()
    for combo in combinations_with_replacement(range(geom.g + 1), r):
        test = dict(base)
        for j in combo:
            test[Node(j)] = test.get(Node(j), 0) - 1
        if not is_equivalent_to_effective(geom, TropicalDivisor.from_dict(test)):
            return False
    return True


def _rank_by_climb(geom, divisor):
    """Reference rank: r climbs while ``rank_at_least`` holds, one sweep per r."""
    if not is_equivalent_to_effective(geom, divisor):
        return -1
    r = 0
    while r + 1 <= divisor.degree and rank_at_least(geom, divisor, r + 1):
        r += 1
    return r


def _random_geometry(rng, g, generic):
    if generic:
        bound = max(2 * g - 2, 1)
        return ChainGeometry(
            tuple((F(bound + rng.randrange(0, 4), rng.randrange(1, 3)), F(1)) for _ in range(g))
        )
    # half-integer lengths with small ratios: many special points coincide
    return ChainGeometry(
        tuple((F(rng.randrange(1, 5), 2), F(rng.randrange(1, 5), 2)) for _ in range(g))
    )


def _random_divisor(rng, geom, max_points=4):
    support = {}
    for _ in range(rng.randrange(0, max_points + 1)):
        mult = rng.choice([-2, -1, 1, 1, 2, 3])
        if rng.random() < 0.4:
            pt = Node(rng.randrange(0, geom.g + 1))
        else:
            k = rng.randrange(1, geom.g + 1)
            pt = point_on_loop(geom, k, geom.circumference(k) * F(rng.randrange(1, 12), 12))
        support[pt] = support.get(pt, 0) + mult
    return TropicalDivisor.from_dict(support)


def test_rank_sweep_matches_witness_search():
    rng = random.Random(20170124)
    kinds = set()
    for _ in range(2000):
        g = rng.randrange(1, 6)
        generic = rng.random() < 0.5
        geom = _random_geometry(rng, g, generic)
        divisor = _random_divisor(rng, geom)
        kinds.add((generic, check_genericity(geom).generic))
        for r in range(-1, max(divisor.degree, 0) + 2):
            expected = _rank_at_least_by_witnesses(geom, divisor, r)
            assert rank_at_least(geom, divisor, r) == expected, (geom, divisor, r)
        assert tropical_rank(geom, divisor) == _rank_by_climb(geom, divisor), (geom, divisor)
    assert (False, False) in kinds and (True, True) in kinds


@st.composite
def geometry_divisor_rank(draw):
    g = draw(st.integers(1, 4))
    lengths = tuple(
        (F(draw(st.integers(1, 12)), draw(st.integers(1, 3))), F(draw(st.integers(1, 3)), 2))
        for _ in range(g)
    )
    geom = ChainGeometry(lengths)
    support = {}
    for _ in range(draw(st.integers(0, 4))):
        mult = draw(st.integers(-2, 3))
        if draw(st.booleans()):
            pt = Node(draw(st.integers(0, g)))
        else:
            k = draw(st.integers(1, g))
            pt = point_on_loop(geom, k, geom.circumference(k) * F(draw(st.integers(1, 11)), 12))
        support[pt] = support.get(pt, 0) + mult
    divisor = TropicalDivisor.from_dict(support)
    r = draw(st.integers(-1, max(divisor.degree, 0) + 1))
    return geom, divisor, r


@given(geometry_divisor_rank())
@settings(max_examples=200, deadline=None)
def test_rank_sweep_matches_witness_search_property(data):
    geom, divisor, r = data
    assert rank_at_least(geom, divisor, r) == _rank_at_least_by_witnesses(geom, divisor, r)
    assert tropical_rank(geom, divisor) == _rank_by_climb(geom, divisor)


def test_rank_rejects_points_outside_chain():
    geom = ChainGeometry(((F(5), F(2)), (F(7), F(3))))
    for bad in (Node(3), Interior(3, F(1))):
        divisor = TropicalDivisor(((Node(0), 2), (bad, 1)))
        for r in (0, 1, 2):
            with pytest.raises(ValueError):
                rank_at_least(geom, divisor, r)
        with pytest.raises(ValueError):
            tropical_rank(geom, divisor)
        with pytest.raises(ValueError):
            reduce_to_q0(geom, divisor)


def test_rank_above_canonical_degree_is_riemann_roch():
    # on any metric graph of genus g a class of degree d > 2g - 2 has rank
    # d - g (Riemann-Roch, Gathmann-Kerber), a check of the sweep that does
    # not go through the witness search
    rng = random.Random(2)
    for _ in range(300):
        g = rng.randrange(1, 5)
        geom = _random_geometry(rng, g, generic=rng.random() < 0.5)
        divisor = _random_divisor(rng, geom)
        degree = rng.randrange(2 * g - 1, 2 * g + 3)
        # top up Q_0 to the target degree, keeping the rest of the support
        divisor = divisor + TropicalDivisor(((Node(0), degree - divisor.degree),))
        assert divisor.degree == degree
        assert tropical_rank(geom, divisor) == degree - g


def test_sampled_points_scale_loops_by_1009():
    # free indices get coordinates c * j / 1009, so their loops are scaled by
    # a multiple of 1009 on top of the denominators of l and m
    geom = ChainGeometry(tuple((F(9 + k, 1 + k % 3), F(1, 1 + k % 2)) for k in range(5)))
    assert check_genericity(geom).generic
    scaled = 0
    for params in (BNParams(5, 4, 1), BNParams(5, 5, 1), BNParams(5, 6, 2)):
        assert params.rho > 0
        for t in enumerate_tableaux(params):
            for seed in (0, 1, 7):
                divisor = divisor_from_tableau(t, geom, seed=seed)
                _, loops = _split(geom, divisor)
                for pt, _ in divisor.points:
                    if isinstance(pt, Interior) and pt.coord.denominator % 1009 == 0:
                        scaled += 1
                        assert loops[pt.loop - 1][4] % 1009 == 0
                assert tropical_rank(geom, divisor) == params.r == _rank_by_climb(geom, divisor)
                table = tropical_vanishing_table(geom, divisor, params.r)
                for i in range(params.g + 1):
                    assert table.u[i] == effective_vanishing_from_tableau(t, i)
                red = reduce_to_q0(geom, divisor)
                rebuilt = {Node(0): red.u}
                for eps, x in zip(red.epsilon, red.x):
                    if eps:
                        rebuilt[x] = rebuilt.get(x, 0) + 1
                residue = reduce_to_q0(geom, divisor - TropicalDivisor.from_dict(rebuilt))
                assert residue.u == 0 and not any(residue.epsilon)
    assert scaled > 100


def test_sweep_width_cap():
    geom = circle()
    big = TropicalDivisor(((Node(0), 10**12),))
    with pytest.raises(TropicalTooLargeError):
        tropical_rank(geom, big)
    with pytest.raises(TropicalTooLargeError):
        rank_at_least(geom, big, _MAX_SWEEP_WIDTH + 1)
    with pytest.raises(TropicalTooLargeError):
        tropical_vanishing_table(geom, big, 10**12)
    # the cap is on the sweep's width, not on the divisor
    assert rank_at_least(geom, big, 5)
    assert tropical_vanishing_table(geom, big, 2).u[0].orders == (10**12, 10**12 - 1, 10**12 - 2)


def test_geometry_units_are_invisible():
    # the integer units a geometry holds are fixed by its lengths, and equal
    # lengths given as ints, Fractions or other spellings of the same
    # rationals give equal, equally hashed and equally printed geometries
    spellings = [
        ChainGeometry(((13, 1), (F(7, 2), 2))),
        ChainGeometry(((F(13), F(1)), (F(7, 2), F(2)))),
        ChainGeometry(((F(26, 2), F(3, 3)), (F(14, 4), F(8, 4)))),
        ChainGeometry((("13", "1"), ("7/2", "2"))),
    ]
    first = spellings[0]
    assert first._units == ((13, 14, 1), (7, 11, 2))
    for geom in spellings:
        assert geom == first and hash(geom) == hash(first)
        assert repr(geom) == repr(first) and "_units" not in repr(geom)
        assert geom._units == first._units
        assert json.dumps(serialize.geometry_to_obj(geom)) == json.dumps(
            serialize.geometry_to_obj(first)
        )
    assert len(set(spellings)) == 1
    assert first != ChainGeometry(((13, 1), (F(7, 2), 3)))


def test_floats_and_bools_are_refused():
    geom = circle()
    for bad in (0.1, 1.0, True, False):
        with pytest.raises(ValueError):
            ChainGeometry(((bad, 1),))
        with pytest.raises(ValueError):
            ChainGeometry(((1, bad),))
        with pytest.raises(ValueError):
            Interior(1, bad)
        with pytest.raises(ValueError):
            point_on_loop(geom, 1, bad)
        with pytest.raises(ValueError):
            special_multiplicity(geom, 1, bad)
    assert Interior(1, 3) == Interior(1, "3") == Interior(1, F(3))
    x = F(3, 2)
    assert Interior(1, x).coord is x


def _fractional_geometry(rng, g):
    # arcs with denominators up to 6, half of them generic; the rest are
    # small half-integer loops whose special points often land on nodes
    if rng.random() < 0.5:
        return _random_geometry(rng, g, generic=False)
    def arc(top):
        return F(rng.randrange(1, top), rng.randrange(1, 7))

    return ChainGeometry(tuple((arc(30), arc(7)) for _ in range(g)))


def _fractional_divisor(rng, geom):
    support = {}
    for _ in range(rng.randrange(0, 6)):
        mult = rng.choice([-2, -1, 1, 1, 2, 3])
        if rng.random() < 0.3:
            pt = Node(rng.randrange(0, geom.g + 1))
        else:
            k = rng.randrange(1, geom.g + 1)
            pt = point_on_loop(geom, k, F(rng.randrange(0, 200), rng.randrange(1, 10)))
        support[pt] = support.get(pt, 0) + mult
    return TropicalDivisor.from_dict(support)


def test_solve_special_point_matches_point_on_loop():
    rng = random.Random(31)
    on_nodes = 0
    for _ in range(400):
        geom = _fractional_geometry(rng, rng.randrange(1, 4))
        for k in range(-1, geom.g + 2):
            for u in range(-2, 12):
                if u < 0 or not 1 <= k <= geom.g:
                    with pytest.raises(ValueError):
                        solve_special_point(geom, k, u)
                    continue
                pt = solve_special_point(geom, k, u)
                assert pt == point_on_loop(geom, k, (u + 1) * geom.ell(k)), (geom, k, u)
                on_nodes += isinstance(pt, Node)
    assert on_nodes > 1_000, on_nodes


def _split_reference(geom, divisor):
    """``_split`` from the Fractions: each loop scaled by the lcm of all its denominators."""
    nodes = [0] * (geom.g + 1)
    on_loop = [[] for _ in range(geom.g)]
    for pt, mult in divisor.points:
        if isinstance(pt, Node):
            nodes[pt.index] += mult
        else:
            on_loop[pt.loop - 1].append((pt.coord, mult))
    loops = []
    for k, points in enumerate(on_loop, start=1):
        l, m = geom.lengths[k - 1]
        n = lcm(l.denominator, m.denominator, *(x.denominator for x, _ in points))
        c = geom.circumference(k)
        cls = sum(x * mult for x, mult in points) % c
        loops.append((sum(mult for _, mult in points), cls * n, l * n, c * n, n))
    return nodes, loops


def _least_carries_reference(geom, divisor, width):
    """The sweep of ``_least_carries`` as its docstring states it, through ``_loop_step``."""
    nodes, loops = _split_reference(geom, divisor)
    best = [nodes[geom.g] - j for j in range(width + 1)]
    for k in range(geom.g, 0, -1):
        best = [
            nodes[k - 1]
            + min(_loop_step(loops[k - 1], best[i])[0] - (j - i) for i in range(j + 1))
            for j in range(width + 1)
        ]
    return best


def test_integer_paths_match_fraction_references():
    rng = random.Random(47)
    scaled = 0
    for _ in range(1_000):
        geom = _fractional_geometry(rng, rng.randrange(1, 5))
        ratios = [geom.ell(k) / geom.em(k) for k in range(1, geom.g + 1)]
        failing = tuple(
            k
            for k, q in enumerate(ratios, start=1)
            if max(q.numerator, q.denominator) < 2 * geom.g - 2
        )
        assert check_genericity(geom).failing_loops == failing, geom
        divisor = _fractional_divisor(rng, geom)
        nodes, loops = _split(geom, divisor)
        assert (nodes, loops) == _split_reference(geom, divisor), (geom, divisor)
        scaled += sum(n > unit for (_, _, _, _, n), (_, _, unit) in zip(loops, geom._units))
        for width in range(0, max(divisor.degree, 0) + 3):
            assert _least_carries(nodes, loops, width) == _least_carries_reference(
                geom, divisor, width
            ), (geom, divisor, width)
    assert scaled > 300, scaled


def _golden_outputs():
    # every tableau with g <= 5, on two seeded generic geometries per (g, d, r)
    # with fractional arcs, and two sampling seeds each
    rng = random.Random(2017)
    for params in sweep_params(5):
        geoms = [random_generic_geometry(params.g, rng) for _ in range(2)]
        for t in enumerate_tableaux(params):
            for geom in geoms:
                for seed in (0, 1):
                    divisor = divisor_from_tableau(t, geom, seed=seed)
                    red = reduce_to_q0(geom, divisor)
                    yield {
                        "divisor": serialize.divisor_to_obj(divisor),
                        "table": serialize.table_to_obj(
                            tropical_vanishing_table(geom, divisor, params.r)
                        ),
                        "reduced": [
                            red.u,
                            list(red.epsilon),
                            [None if x is None else serialize.point_to_obj(x) for x in red.x],
                        ],
                        "rank": tropical_rank(geom, divisor),
                    }


def test_tableau_outputs_golden_digest():
    # one SHA-256 over the divisor JSON, vanishing table (rows, epsilon, x and
    # case tags), reduced representative and rank of every case above, so a
    # change to any byte of them shows here
    digest = hashlib.sha256()
    count = 0
    for entry in _golden_outputs():
        digest.update(json.dumps(entry, sort_keys=True).encode() + b"\n")
        count += 1
    assert (count, digest.hexdigest()) == (
        524,
        "a9435996377bcb3e61bc8305109e903bfea52e9e9c82197027382fe2c63a8b35",
    )
