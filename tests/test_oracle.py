import random
from fractions import Fraction as F
from itertools import combinations_with_replacement

import pytest
from hypothesis import given, settings, strategies as st

from bnchains import (
    ChainGeometry,
    ChipConfig,
    Interior,
    Node,
    OracleTooLargeError,
    TropicalDivisor,
    bn_rank,
    chips_from_divisor,
    dhar_reduce,
    is_equivalent_to_effective,
    is_winnable,
    point_on_loop,
    reduce_to_q0,
    subdivide_chain,
    tropical_rank,
)
from bnchains.oracle import _reduce_in_place


def cycle_graph(l=13, m=1):
    return subdivide_chain(ChainGeometry(((F(l), F(m)),)))


def test_subdivide_examples():
    g1 = cycle_graph()
    assert g1.vertex_count == 14
    assert g1.node_vertices == (0, 13)
    assert g1.scale == 1
    g2 = subdivide_chain(ChainGeometry(((F(1, 2), F(1, 2)),)))
    assert g2.scale == 2 and g2.vertex_count == 2
    assert g2.degree(0) == 2  # two parallel edges
    g3 = subdivide_chain(ChainGeometry(((F(13), F(1)), (F(9), F(2)))))
    assert g3.vertex_count == 14 + 11 - 1
    assert g3.node_vertices[1] == 13
    # the shared node has degree 4
    assert g3.degree(13) == 4


def test_subdivide_registers_markers():
    geom = ChainGeometry(((F(13), F(1)),))
    pt = Interior(1, F(11, 2))
    graph = subdivide_chain(geom, [pt, Node(1)])
    assert graph.scale == 2
    assert graph.vertex_count == 28
    assert graph.vertex_of(pt) == 11
    assert graph.vertex_of(Node(1)) == 26
    with pytest.raises(ValueError):
        graph.vertex_of(Interior(1, F(1, 3)))


def test_subdivide_cap():
    geom = ChainGeometry(((F(13), F(1)),))
    with pytest.raises(OracleTooLargeError):
        subdivide_chain(geom, subdiv_cap=10)


def test_dhar_reduce_matches_loop_class():
    # 3 chips near the far end of a 14-cycle: class arithmetic pins the
    # reduced form at 2 chips on q plus one at the class coordinate
    graph = cycle_graph()
    reduced = dhar_reduce(graph, ChipConfig({13: 3}), 0)
    geom = ChainGeometry(((F(13), F(1)),))
    chain = reduce_to_q0(geom, TropicalDivisor(((Node(1), 3),)))
    assert reduced == ChipConfig({0: chain.u, int(chain.x[0].coord): 1})
    assert reduced == ChipConfig({0: 2, 11: 1})


def test_dhar_reduce_idempotent_and_fixed_points():
    graph = cycle_graph()
    cfg = ChipConfig({13: 3, 5: 1})
    once = dhar_reduce(graph, cfg, 0)
    twice = dhar_reduce(graph, once, 0)
    assert once == twice
    at_q = ChipConfig({0: 4})
    assert dhar_reduce(graph, at_q, 0) == at_q


def test_dhar_reduce_is_q_reduced_and_equivalent():
    graph = cycle_graph(9, 4)
    cfg = ChipConfig({3: 2, 7: -1, 11: 2})
    reduced = dhar_reduce(graph, cfg, 0)
    # equivalence: on the n-cycle with vertex v at position v, Pic is Z x Z/n
    # by (degree, sum of v * D(v) mod n), so equal degree and equal sum mod n
    # is exactly D - D' = L f for some integer firing vector f
    n = graph.vertex_count
    assert n == 13
    assert all(
        sorted(graph.adjacency[v]) == sorted({(v - 1) % n, (v + 1) % n})
        for v in range(n)
    )

    def moment(config):
        return sum(v * c for v, c in config.items()) % n

    assert reduced.degree == cfg.degree
    assert moment(reduced) == moment(cfg)
    # q-reduced: non-negative off q and burning consumes everything
    assert all(reduced[v] >= 0 for v in range(1, graph.vertex_count))
    from bnchains.oracle import _burn

    chips = [reduced[v] for v in range(graph.vertex_count)]
    unburnt, _ = _burn(graph.adjacency, chips, 0)
    assert unburnt == []


def test_winnability_examples():
    graph = cycle_graph()
    assert is_winnable(graph, ChipConfig({5: 1, 9: 2}), 0)
    assert not is_winnable(graph, ChipConfig({3: 1, 5: -1}), 0)
    # x + y - z winnable iff the class lands on a lattice point, always here
    assert is_winnable(graph, ChipConfig({3: 1, 5: 1, 9: -1}), 0)


def test_winnability_independent_of_base_vertex():
    graph = cycle_graph(9, 4)
    rng = random.Random(5)
    for _ in range(25):
        chips = {rng.randrange(13): rng.choice([-2, -1, 1, 2]) for _ in range(3)}
        cfg = ChipConfig(chips)
        answers = {is_winnable(graph, cfg, q) for q in (0, 3, 9)}
        assert len(answers) == 1


def test_bn_rank_examples():
    graph = cycle_graph()
    assert bn_rank(graph, ChipConfig({5: 1})) == 0
    assert bn_rank(graph, ChipConfig({5: 2})) == 1
    assert bn_rank(graph, ChipConfig({3: 1, 5: -2})) == -1
    with pytest.raises(OracleTooLargeError):
        bn_rank(graph, ChipConfig({5: 9}))


def test_bn_rank_degree_zero():
    graph = cycle_graph()
    assert bn_rank(graph, ChipConfig({})) == 0
    assert bn_rank(graph, ChipConfig({3: 1, 5: -1})) == -1


@given(st.integers(0, 2**30))
@settings(max_examples=40, deadline=None)
def test_dhar_idempotence_random(seed):
    rng = random.Random(seed)
    graph = cycle_graph(rng.randrange(3, 10), rng.randrange(1, 5))
    chips = {
        rng.randrange(graph.vertex_count): rng.randrange(-3, 4) for _ in range(4)
    }
    cfg = ChipConfig(chips)
    q = rng.randrange(graph.vertex_count)
    once = dhar_reduce(graph, cfg, q)
    assert dhar_reduce(graph, once, q) == once
    assert once.degree == cfg.degree
    assert all(once[v] >= 0 for v in range(graph.vertex_count) if v != q)


def test_cross_validation_small_random():
    # winnability agrees with the exact class arithmetic on random inputs
    rng = random.Random(11)
    for trial in range(60):
        g = rng.randrange(1, 4)
        lengths = tuple(
            (F(rng.randrange(1, 5)), F(rng.randrange(1, 5), 2)) for _ in range(g)
        )
        geom = ChainGeometry(lengths)
        support = {}
        for _ in range(rng.randrange(1, 4)):
            if rng.random() < 0.5:
                pt = Node(rng.randrange(0, g + 1))
            else:
                k = rng.randrange(1, g + 1)
                c = geom.circumference(k)
                pt = point_on_loop(geom, k, c * F(rng.randrange(1, 8), 8))
            support[pt] = support.get(pt, 0) + rng.choice([-2, -1, 1, 2])
        divisor = TropicalDivisor.from_dict(support)
        graph = subdivide_chain(geom, [pt for pt, _ in divisor.points])
        tropical = is_equivalent_to_effective(geom, divisor)
        oracle = is_winnable(graph, chips_from_divisor(graph, divisor), 0)
        assert tropical == oracle, (geom, divisor)


def test_rank_cross_validation_small():
    rng = random.Random(23)
    done = 0
    trial = 0
    while done < 12:
        trial += 1
        g = rng.randrange(1, 4)
        bound = max(2 * g - 2, 1)
        geom = ChainGeometry(
            tuple((F(bound + rng.randrange(0, 3)), F(1)) for _ in range(g))
        )
        support = {}
        for _ in range(rng.randrange(1, 3)):
            if rng.random() < 0.5:
                pt = Node(rng.randrange(0, g + 1))
            else:
                k = rng.randrange(1, g + 1)
                c = geom.circumference(k)
                pt = point_on_loop(geom, k, c * F(rng.randrange(1, 4), 4))
            support[pt] = support.get(pt, 0) + rng.randrange(1, 3)
        divisor = TropicalDivisor.from_dict(support)
        if divisor.degree > g + 2:
            continue
        graph = subdivide_chain(geom, [pt for pt, _ in divisor.points])
        assert tropical_rank(geom, divisor) == bn_rank(
            graph, chips_from_divisor(graph, divisor)
        ), (geom, divisor)
        done += 1


def _cold_bn_rank(graph, config):
    """Reference rank: one cold reduction per effective degree-(r+1) witness."""
    degree = config.degree
    adjacency = graph.adjacency
    n = graph.vertex_count
    base = [0] * n
    for v, c in config.items():
        base[v] = c
    q = 0

    def winnable(chips):
        work = list(chips)
        _reduce_in_place(adjacency, work, q)
        return work[q] >= 0

    if not winnable(base):
        return -1
    r = 0
    while r + 1 <= degree:
        passed = True
        for combo in combinations_with_replacement(range(n), r + 1):
            test = list(base)
            for v in combo:
                test[v] -= 1
            if not winnable(test):
                passed = False
                break
        if not passed:
            break
        r += 1
    return r


# 1/2 twice: a loop with both arcs 1/2 is a pair of parallel edges at scale 2
HALF_LENGTHS = [F(1, 2)] + [F(k, 2) for k in range(1, 7)]


def _random_multigraph(rng, max_vertices):
    """Chain-of-loops model with half-integer arcs, so often with parallel edges."""
    while True:
        g = rng.randrange(1, 4)
        geom = ChainGeometry(
            tuple((rng.choice(HALF_LENGTHS), rng.choice(HALF_LENGTHS)) for _ in range(g))
        )
        graph = subdivide_chain(geom)
        if graph.vertex_count <= max_vertices:
            return graph


def test_bn_rank_matches_cold_witness_search():
    rng = random.Random(2024)
    ranks = []
    for _ in range(300):
        degree = rng.randrange(-2, 6)
        # keep the cold search's passing levels, C(n + d - 1, d) witnesses, small
        max_vertices = {5: 12, 4: 16}.get(degree, 25)
        graph = _random_multigraph(rng, max_vertices)
        n = graph.vertex_count
        negative = rng.randrange(0, 3)
        if degree < 0:
            negative = max(negative, -degree)
        chips = {}
        for sign, count in ((1, degree + negative), (-1, negative)):
            for _ in range(count):
                v = rng.randrange(n)
                chips[v] = chips.get(v, 0) + sign
        cfg = ChipConfig(chips)
        assert cfg.degree == degree
        rank = bn_rank(graph, cfg)
        assert rank == _cold_bn_rank(graph, cfg), (graph.adjacency, cfg)
        ranks.append(rank)
    # every rank a degree <= 5 configuration on a graph of genus >= 1 can have
    assert set(ranks) == set(range(-1, 5))


@st.composite
def _reduction_case(draw):
    lengths = st.sampled_from(HALF_LENGTHS)
    loops = draw(st.lists(st.tuples(lengths, lengths), min_size=1, max_size=3))
    graph = subdivide_chain(ChainGeometry(tuple(loops)))
    vertex = st.integers(0, graph.vertex_count - 1)
    chips = draw(st.dictionaries(vertex, st.integers(-3, 4), max_size=6))
    return graph, ChipConfig(chips), draw(vertex), draw(vertex)


@given(_reduction_case())
@settings(max_examples=200, deadline=None)
def test_warm_rereduction_equals_cold_reduction(case):
    # bn_rank re-reduces each root's reduced form at the next root in place
    graph, cfg, q, w = case
    chips = [cfg[v] for v in range(graph.vertex_count)]
    _reduce_in_place(graph.adjacency, chips, q)
    _reduce_in_place(graph.adjacency, chips, w)
    warm = ChipConfig({v: c for v, c in enumerate(chips) if c})
    assert warm == dhar_reduce(graph, cfg, w)
