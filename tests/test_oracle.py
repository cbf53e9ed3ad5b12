import ast
import random
import sys
import time
from fractions import Fraction as F
from itertools import combinations_with_replacement
from math import comb

import pytest
from hypothesis import given, settings, strategies as st

from bnchains import (
    BNParams,
    ChainGeometry,
    ChipConfig,
    Interior,
    Node,
    OracleTooLargeError,
    TropicalDivisor,
    bn_rank,
    chips_from_divisor,
    dhar_reduce,
    divisor_from_tableau,
    enumerate_tableaux,
    is_equivalent_to_effective,
    is_winnable,
    oracle,
    point_on_loop,
    reduce_to_q0,
    solve_special_point,
    subdivide_chain,
    tropical_rank,
)
from bnchains.oracle import (
    DiscreteGraph,
    _bfs_distances,
    _burn,
    _dfs_order,
    _fire_unburnt,
    _reaches,
    _settle_debt,
)
from bnchains.verify import run_suite, sweep_params


def _reduce_in_place(adjacency, chips, q):
    """Turn ``chips`` into its q-reduced form, through the public ``dhar_reduce``."""
    graph = DiscreteGraph(tuple(adjacency), (q,), {}, 1)
    reduced = dhar_reduce(graph, ChipConfig(dict(enumerate(chips))), q)
    chips[:] = [reduced[v] for v in range(len(chips))]


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
    chips = [reduced[v] for v in range(graph.vertex_count)]
    boundary, burnt = _burn(graph.adjacency, chips, 0)
    assert not boundary and all(burnt)


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


def _all_roots_bn_rank(graph, config):
    """Reference rank: each effective E of degree r - 1 against every root.

    D - E is reduced cold at q = 0 and re-reduced in place as the root walks
    all vertices in depth-first order, so an F of degree r is checked once
    for each of its splits F = E + w.
    """
    degree = config.degree
    adjacency = graph.adjacency
    n = graph.vertex_count
    base = [0] * n
    for v, c in config.items():
        base[v] = c
    q = 0
    reduced = list(base)
    _reduce_in_place(adjacency, reduced, q)
    if reduced[q] < 0:
        return -1
    walk = _dfs_order(adjacency, q)

    def every_root_keeps_a_chip(removed):
        work = list(base)
        for v in removed:
            work[v] -= 1
        for w in walk:
            _reduce_in_place(adjacency, work, w)
            if work[w] < 1:
                return False
        return True

    r = 0
    while r + 1 <= degree and all(
        every_root_keeps_a_chip(removed)
        for removed in combinations_with_replacement(range(n), r)
    ):
        r += 1
    return r


def _random_config(rng, n, degree):
    """Degree ``degree`` on n vertices, with up to two negative chips."""
    negative = max(rng.randrange(0, 3), -degree)
    chips = {}
    for sign, count in ((1, degree + negative), (-1, negative)):
        for _ in range(count):
            v = rng.randrange(n)
            chips[v] = chips.get(v, 0) + sign
    cfg = ChipConfig(chips)
    assert cfg.degree == degree
    return cfg


def test_bn_rank_matches_cold_witness_search():
    rng = random.Random(2024)
    ranks = []
    for _ in range(300):
        degree = rng.randrange(-2, 6)
        # keep the cold search's passing levels, C(n + d - 1, d) witnesses, small
        max_vertices = {5: 12, 4: 16}.get(degree, 25)
        graph = _random_multigraph(rng, max_vertices)
        cfg = _random_config(rng, graph.vertex_count, degree)
        rank = bn_rank(graph, cfg)
        context = (graph.adjacency, cfg)
        assert rank == _cold_bn_rank(graph, cfg) == _all_roots_bn_rank(graph, cfg), context
        ranks.append(rank)
    # every rank a degree <= 5 configuration on a graph of genus >= 1 can have
    assert set(ranks) == set(range(-1, 5))


def test_bn_rank_matches_all_roots_walk_beyond_cold_reach():
    # 30-50 vertices: the cold search would reduce every degree-(r + 1) F cold
    rng = random.Random(8)
    ranks = []
    for _ in range(40):
        while True:
            g = rng.randrange(3, 6)
            geom = ChainGeometry(
                tuple((F(rng.randrange(4, 10)), F(rng.randrange(1, 4))) for _ in range(g))
            )
            graph = subdivide_chain(geom)
            if 30 <= graph.vertex_count <= 50:
                break
        cfg = _random_config(rng, graph.vertex_count, rng.randrange(g - 1, g + 3))
        rank = bn_rank(graph, cfg)
        assert rank == _all_roots_bn_rank(graph, cfg), (geom, cfg)
        ranks.append(rank)
    assert set(ranks) == {-1, 0, 1, 2}


def _relabelled(graph, cfg, perm):
    """The same graph and configuration with vertex v renamed perm[v]."""
    adjacency = [()] * graph.vertex_count
    for v, nbrs in enumerate(graph.adjacency):
        adjacency[perm[v]] = tuple(perm[w] for w in nbrs)
    nodes = tuple(perm[v] for v in graph.node_vertices)
    moved = DiscreteGraph(tuple(adjacency), nodes, {}, graph.scale)
    return moved, ChipConfig({perm[v]: c for v, c in cfg.items()})


def test_bn_rank_reduces_once_per_effective_divisor(monkeypatch):
    # on a tree D - F is winnable whenever its degree is >= 0, so every level
    # passes: one root check for D and at most one per effective F of degree
    # 1..deg D, fewer as a root an earlier check of the same E left a chip on
    # is skipped.  The relabelling puts the walk out of vertex order.
    rng = random.Random(4)
    n = 12
    edges = [(rng.randrange(v), v, 1) for v in range(1, n)]
    tree = DiscreteGraph(_subdivided_multigraph(n, edges), (0,), {}, 1)
    perm = list(range(n))
    rng.shuffle(perm)
    graph, cfg = _relabelled(tree, ChipConfig({3: 2, 7: 1}), perm)
    assert _dfs_order(graph.adjacency, 0) != list(range(n))
    calls = [0]
    original_reaches = oracle._reaches

    def counting_reaches(adjacency, chips, q, least):
        calls[0] += 1
        return original_reaches(adjacency, chips, q, least)

    monkeypatch.setattr(oracle, "_reaches", counting_reaches)
    assert bn_rank(graph, cfg) == 3
    assert calls[0] == 450 < 1 + comb(n, 1) + comb(n + 1, 2) + comb(n + 2, 3)


def _first_failing_level(adjacency, chips):
    """The least r with an effective F of degree r and D - F not winnable.

    Returns r and the failing F at that level, at most two of them, each
    found by a cold reduction; (None, []) when no level up to deg D fails.
    """
    n = len(adjacency)
    for level in range(1, sum(chips) + 1):
        failing = []
        for combo in combinations_with_replacement(range(n), level):
            test = list(chips)
            for v in combo:
                test[v] -= 1
            _reduce_in_place(adjacency, test, 0)
            if test[0] < 0:
                failing.append(combo)
                if len(failing) == 2:
                    break
        if failing:
            return level, failing
    return None, []


def test_bn_rank_checks_the_one_failing_divisor():
    # at the failing level of these configurations D - F is winnable for all
    # effective F but one, so bn_rank returns the lower rank only if the F it
    # checks include that one; relabellings move vertex 0 and the walk out of
    # vertex order, so a split that mixed vertex numbers with walk positions
    # would check another set of F
    rng = random.Random(31)
    found = {}
    for _ in range(400):
        base = rng.randrange(3, 6)
        pairs = [(rng.randrange(v), v) for v in range(1, base)]
        pairs += [(rng.randrange(base), rng.randrange(base)) for _ in range(rng.randrange(1, 6))]
        adjacency = _subdivided_multigraph(base, [(a, b, 1 + (a == b)) for a, b in pairs])
        n = len(adjacency)
        chips = [rng.randrange(1, 3) for _ in range(n)]
        if sum(chips) > 8:
            continue
        level, failing = _first_failing_level(adjacency, chips)
        if level is None or len(failing) != 1:
            continue
        found[level] = found.get(level, 0) + 1
        graph = DiscreteGraph(adjacency, (0,), {}, 1)
        cfg = ChipConfig(dict(enumerate(chips)))
        assert bn_rank(graph, cfg) == level - 1, (adjacency, chips)
        for _ in range(8):
            perm = list(range(n))
            rng.shuffle(perm)
            assert bn_rank(*_relabelled(graph, cfg, perm)) == level - 1, (adjacency, chips, perm)
    assert sum(found.values()) >= 10 and len(found) >= 2, found


def _canonical(graph):
    """K = sum of (deg v - 2) v, of degree 2g - 2 and rank g - 1 (Riemann-Roch)."""
    return ChipConfig({v: graph.degree(v) - 2 for v in range(graph.vertex_count)})


@st.composite
def _relabelling_case(draw):
    lengths = st.sampled_from(HALF_LENGTHS)
    loops = draw(st.lists(st.tuples(lengths, lengths), min_size=1, max_size=3))
    graph = subdivide_chain(ChainGeometry(tuple(loops)))
    perm = draw(st.permutations(range(graph.vertex_count)))
    if draw(st.booleans()):
        # special, so a warm start from the wrong class changes the answer
        return graph, _canonical(graph), perm
    vertex = st.integers(0, graph.vertex_count - 1)
    chips = {}
    for sign, most in ((1, 4), (-1, 2)):
        for v in draw(st.lists(vertex, max_size=most)):
            chips[v] = chips.get(v, 0) + sign
    return graph, ChipConfig(chips), perm


@given(_relabelling_case())
@settings(max_examples=150, deadline=None)
def test_bn_rank_is_invariant_under_relabelling(case):
    # moving vertex 0 moves q and the walk out of vertex order; a split
    # F = E + w or a seed that mixed vertex numbers with walk positions
    # would check the wrong F
    graph, cfg, perm = case
    rank = bn_rank(graph, cfg)
    assert bn_rank(*_relabelled(graph, cfg, perm)) == rank
    if cfg == _canonical(graph):
        assert rank == len(graph.node_vertices) - 2  # g - 1


@st.composite
def _reduction_case(draw):
    lengths = st.sampled_from(HALF_LENGTHS)
    loops = draw(st.lists(st.tuples(lengths, lengths), min_size=1, max_size=3))
    graph = subdivide_chain(ChainGeometry(tuple(loops)))
    vertex = st.integers(0, graph.vertex_count - 1)
    chips = draw(st.dictionaries(vertex, st.integers(-3, 4), max_size=6))
    shift = draw(st.dictionaries(vertex, st.integers(-2, 2), max_size=3))
    return graph, ChipConfig(chips), ChipConfig(shift), draw(vertex), draw(vertex)


@given(_reduction_case())
@settings(max_examples=200, deadline=None)
def test_warm_rereduction_equals_cold_reduction(case):
    # bn_rank re-reduces each root's reduced form at the next root in place,
    # and starts each E from the previous E's reduced form shifted by E_prev - E
    graph, cfg, shift, q, w = case
    chips = [cfg[v] for v in range(graph.vertex_count)]
    _reduce_in_place(graph.adjacency, chips, q)
    for v, c in shift.items():
        chips[v] += c
    _reduce_in_place(graph.adjacency, chips, w)
    warm = ChipConfig({v: c for v, c in enumerate(chips) if c})
    shifted = ChipConfig({v: cfg[v] + shift[v] for v in range(graph.vertex_count)})
    assert warm == dhar_reduce(graph, shifted, w)


def _ball_settle_debt(adjacency, chips, q):
    """Reference debt settling: fire the whole ball {dist < L} for each layer L."""
    n = len(adjacency)
    if all(chips[v] >= 0 for v in range(n) if v != q):
        return
    dist = _bfs_distances(adjacency, q)
    layers = {}
    for v in range(n):
        if v != q:
            layers.setdefault(dist[v], []).append(v)
    inflow = [sum(1 for w in adjacency[v] if dist[w] < dist[v]) for v in range(n)]
    for level in sorted(layers, reverse=True):
        debtors = [v for v in layers[level] if chips[v] < 0]
        if not debtors:
            continue
        times = max((-chips[v] + inflow[v] - 1) // inflow[v] for v in debtors)
        for u in range(n):
            if dist[u] < level:
                for w in adjacency[u]:
                    if dist[w] >= level:
                        chips[u] -= times
                        chips[w] += times


def _unit_step_reduce(adjacency, chips, q):
    """Reference reduction: each pass fires the unburnt set, moving chips one edge.

    Returns the number of burn passes.
    """
    _ball_settle_debt(adjacency, chips, q)
    n = len(adjacency)
    passes = 0
    while True:
        passes += 1
        burnt = [False] * n
        burnt[q] = True
        count = [0] * n
        stack = [q]
        while stack:
            v = stack.pop()
            for w in adjacency[v]:
                if not burnt[w]:
                    count[w] += 1
                    if count[w] > chips[w]:
                        burnt[w] = True
                        stack.append(w)
        unburnt = [v for v in range(n) if not burnt[v]]
        if not unburnt:
            return passes
        times = min(chips[v] // count[v] for v in unburnt if count[v] > 0)
        for v in unburnt:
            for w in adjacency[v]:
                if burnt[w]:
                    chips[v] -= times
                    chips[w] += times


def _subdivided_multigraph(base, edges):
    """Adjacency of a multigraph whose edge (a, b, k) becomes a path of k unit edges.

    Vertices 0..base-1 are the base vertices; the inner vertices of the paths
    follow in edge order.  Parallel base edges of length 1 stay parallel.
    """
    adjacency = [[] for _ in range(base)]
    for a, b, k in edges:
        path = [a] + list(range(len(adjacency), len(adjacency) + k - 1)) + [b]
        adjacency.extend([] for _ in range(k - 1))
        for x, y in zip(path, path[1:]):
            adjacency[x].append(y)
            adjacency[y].append(x)
    return tuple(tuple(nbrs) for nbrs in adjacency)


def _random_edges(rng, base):
    """A spanning tree plus extra edges, some parallel, some cycles at one vertex."""
    pairs = [(rng.randrange(v), v) for v in range(1, base)]
    pairs += [(rng.randrange(base), rng.randrange(base)) for _ in range(rng.randrange(1, 4))]
    if rng.random() < 0.3:
        pairs.append(pairs[0])
    lengths = (1, 1, 2, 3, 5, 8, 13)
    return [(a, b, rng.choice(lengths if a != b else lengths[2:])) for a, b in pairs]


def _random_chips(rng, n, low=-3, high=4):
    chips = [0] * n
    for _ in range(rng.randrange(0, 8)):
        chips[rng.randrange(n)] += rng.randrange(low, high)
    if rng.random() < 0.3:
        chips[rng.randrange(n)] += rng.randrange(5, 15)  # a pile that fires in bundles
    return chips


def _reduction_graphs(rng, count):
    """Subdivided multigraphs with long paths, and chain-of-loops models."""
    for i in range(count):
        if i % 3 == 2:
            yield _random_multigraph(rng, 40).adjacency
        else:
            base = rng.randrange(1, 6)
            yield _subdivided_multigraph(base, _random_edges(rng, base))


def _count_burn_passes(monkeypatch):
    """Wrap ``oracle._burn``; the returned list's one entry counts its calls."""
    passes = [0]
    original_burn = oracle._burn

    def counting_burn(adjacency, chips, q):
        passes[0] += 1
        return original_burn(adjacency, chips, q)

    monkeypatch.setattr(oracle, "_burn", counting_burn)
    return passes


def test_reduction_matches_unit_step_reference(monkeypatch):
    # every root of every graph, so paths start next to q, end at q or run past it
    rng = random.Random(77)
    passes = _count_burn_passes(monkeypatch)
    reference_passes = cases = 0
    for adjacency in _reduction_graphs(rng, 150):
        n = len(adjacency)
        chips = _random_chips(rng, n)
        for q in range(n):
            fast = list(chips)
            _reduce_in_place(adjacency, fast, q)
            slow = list(chips)
            reference_passes += _unit_step_reduce(adjacency, slow, q)
            assert fast == slow, (adjacency, chips, q)
            cases += 1
    assert cases > 2000
    # the paths are long enough that firing by distance saves a third of the passes
    assert passes[0] * 3 < reference_passes * 2


@st.composite
def _multigraph_case(draw):
    base = draw(st.integers(1, 5))
    vertex = st.integers(0, base - 1)
    pairs = [(draw(st.integers(0, v - 1)), v) for v in range(1, base)]
    pairs += draw(st.lists(st.tuples(vertex, vertex), min_size=1, max_size=4))
    # a cycle at one vertex needs two edges, or it would be a self-loop
    edges = [(a, b, max(draw(st.integers(1, 12)), 1 + (a == b))) for a, b in pairs]
    adjacency = _subdivided_multigraph(base, edges)
    vertices = st.integers(0, len(adjacency) - 1)
    chips = [0] * len(adjacency)
    for v, c in draw(st.dictionaries(vertices, st.integers(-4, 9), max_size=7)).items():
        chips[v] = c
    return adjacency, chips, draw(vertices)


@given(_multigraph_case())
@settings(max_examples=300, deadline=None)
def test_reduction_matches_unit_step_reference_property(case):
    adjacency, chips, q = case
    fast = list(chips)
    _reduce_in_place(adjacency, fast, q)
    slow = list(chips)
    _unit_step_reduce(adjacency, slow, q)
    assert fast == slow


def _full_scan_pass(adjacency, chips, q):
    """Reference burn-and-fire pass over the whole unburnt set U.

    Burns from q, lists every unburnt vertex and fires U along every edge out
    of each of them, then carries the bundles along chipless degree-2 paths
    as ``_fire_unburnt`` does.  Returns True, leaving ``chips`` as it is,
    when everything burnt.
    """
    n = len(adjacency)
    burnt = [False] * n
    burnt[q] = True
    count = [0] * n
    stack = [q]
    while stack:
        v = stack.pop()
        for w in adjacency[v]:
            if not burnt[w]:
                count[w] += 1
                if count[w] > chips[w]:
                    burnt[w] = True
                    stack.append(w)
    unburnt = [v for v in range(n) if not burnt[v]]
    if not unburnt:
        return True
    times = min(chips[v] // count[v] for v in unburnt if count[v] > 0)
    behind = []
    ahead = []
    for v in unburnt:
        for w in adjacency[v]:
            if burnt[w]:
                chips[v] -= times
                chips[w] += times
                behind.append(v)
                ahead.append(w)
    if all(w != q and len(adjacency[w]) == 2 for w in ahead):
        starts = list(ahead)
        moving = True
        while moving:
            for i, v in enumerate(ahead):
                a, b = adjacency[v]
                behind[i], ahead[i] = v, b if a == behind[i] else a
                if ahead[i] == q or len(adjacency[ahead[i]]) != 2:
                    moving = False
        for start, end in zip(starts, ahead):
            chips[start] -= times
            chips[end] += times
    return False


def test_boundary_pass_matches_full_scan_pass():
    # a pass fires U through the boundary of the burnt set only; pass by pass
    # it must leave the chips the full scan of U leaves, every root, debt
    # settled first, on graphs with parallel edges
    rng = random.Random(53)
    passes = everything_burnt = parallel = 0
    for i in range(120):
        if i % 2:
            adjacency = _random_multigraph(rng, 40).adjacency
        else:
            base = rng.randrange(1, 6)
            adjacency = _subdivided_multigraph(base, _random_edges(rng, base))
        chips = _random_chips(rng, len(adjacency))
        for q in range(len(adjacency)):
            fast = list(chips)
            _settle_debt(adjacency, fast, q)
            slow = list(fast)
            while True:
                boundary, burnt = _burn(adjacency, fast, q)
                done = _full_scan_pass(adjacency, slow, q)
                assert (not boundary) == done, (adjacency, chips, q)
                if done:
                    break
                parallel += any(
                    burnt[w] and adjacency[v].count(w) > 1
                    for v in boundary
                    for w in adjacency[v]
                )
                _fire_unburnt(adjacency, fast, q, boundary, burnt)
                assert fast == slow, (adjacency, chips, q)
                passes += 1
            everything_burnt += 1
    assert everything_burnt > 1500 and passes > 20_000
    # a boundary vertex with parallel edges into the burnt set fires along each
    assert parallel > 200, parallel


def test_reaches_agrees_with_the_reduced_form():
    # _reaches stops as soon as q holds `least` chips; its answer must be the
    # reduced form's, and what it leaves must be in the class of the input,
    # effective away from q
    rng = random.Random(19)
    outcomes = set()
    stopped_early = 0
    for _ in range(120):
        graph = _random_multigraph(rng, 40)
        n = graph.vertex_count
        chips = _random_chips(rng, n, low=-4, high=4)
        cfg = ChipConfig(dict(enumerate(chips)))
        for q in rng.sample(range(n), min(n, 4)):
            reduced = dhar_reduce(graph, cfg, q)
            for least in (0, 1):
                left = list(chips)
                reached = _reaches(graph.adjacency, left, q, least)
                context = (graph.adjacency, chips, q, least)
                assert reached == (reduced[q] >= least), context
                assert sum(left) == sum(chips), context
                assert all(c >= 0 for v, c in enumerate(left) if v != q), context
                assert left[q] >= least if reached else left[q] < least, context
                left_cfg = ChipConfig(dict(enumerate(left)))
                assert dhar_reduce(graph, left_cfg, q) == reduced, context
                outcomes.add((least, reached))
                stopped_early += left_cfg != reduced
    assert outcomes == {(0, True), (0, False), (1, True), (1, False)}
    assert stopped_early > 100


def test_settle_debt_matches_ball_firing():
    rng = random.Random(91)
    settled = 0
    for adjacency in _reduction_graphs(rng, 150):
        n = len(adjacency)
        chips = _random_chips(rng, n, low=-6, high=3)
        for q in rng.sample(range(n), min(n, 6)):
            fast = list(chips)
            _settle_debt(adjacency, fast, q)
            slow = list(chips)
            _ball_settle_debt(adjacency, slow, q)
            assert fast == slow, (adjacency, chips, q)
            assert all(c >= 0 for v, c in enumerate(fast) if v != q)
            settled += fast != chips
    assert settled > 300


def test_rho_one_divisor_minus_points_is_within_reach(monkeypatch):
    # a sampled point of denominator 1009 puts the (3,3,1) divisor on 18,160
    # vertices; unit steps took 13-59 s per winnability test there, and
    # reducing to the end took 238 burn passes for all twelve
    passes = _count_burn_passes(monkeypatch)
    geom = ChainGeometry(tuple((F(4 + j), F(1)) for j in range(3)))
    tableau = next(iter(enumerate_tableaux(BNParams(3, 3, 1))))
    divisor = divisor_from_tableau(tableau, geom)
    rng = random.Random(3)
    points = [Node(0), Node(2), Node(3)]
    while len(points) < 6:
        k = rng.randrange(1, 4)
        units = rng.randrange(1, 1009 * int(geom.circumference(k)))
        pt = point_on_loop(geom, k, F(units, 1009))
        if isinstance(pt, Interior):
            points.append(pt)
    answers = set()
    for w in points:
        for mult in (1, 2):
            rest = divisor - TropicalDivisor(((w, mult),))
            graph = subdivide_chain(geom, [pt for pt, _ in rest.points])
            assert graph.vertex_count == 18_160
            chips = chips_from_divisor(graph, rest)
            start = time.perf_counter()
            oracle_side = is_winnable(graph, chips, 0)
            assert time.perf_counter() - start < 2.0
            assert oracle_side == is_equivalent_to_effective(geom, rest), (w, mult)
            answers.add(oracle_side)
    # the rank is 1, so D - w is winnable; D - 2w mostly is not
    assert answers == {True, False}
    assert passes[0] <= 231


def test_run_suite_burn_passes_bounded(monkeypatch):
    # a count, not a time: the unit-step reduction took 12,470 passes here,
    # walking every root for every E took 4,724, reducing each root check
    # to the end took 3,498, and checking the roots a held divisor certified
    # took 1,981
    passes = _count_burn_passes(monkeypatch)
    assert run_suite(6, 0).passed
    assert passes[0] <= 1_651


def _worked_style_geometry(g):
    """Loops of length 2g - 2 + j and unit bridges: the worked example at g = 6."""
    bound = max(2 * g - 2, 1)
    return ChainGeometry(tuple((F(bound + j), F(1)) for j in range(g)))


def _tableau_rank_cases(params):
    geom = _worked_style_geometry(params.g)
    for t in enumerate_tableaux(params):
        divisor = divisor_from_tableau(t, geom)
        graph = subdivide_chain(geom, [pt for pt, _ in divisor.points])
        yield geom, divisor, graph, chips_from_divisor(graph, divisor)


@pytest.mark.parametrize(
    "params, bound",
    [(BNParams(4, 6, 3), 4_592), (BNParams(6, 6, 2), 9_999)],
    ids=["4-6-3", "6-6-2"],
)
def test_bn_rank_burn_passes_bounded(monkeypatch, params, bound):
    # a count, not a time: walking every root for every E took 48,128 passes
    # on the (4,6,3) divisor and 105,756 on the five (6,6,2) divisors;
    # reducing each root check to the end took 14,142 and 36,368, and
    # checking the roots a held divisor certified took 6,202 and 14,850
    passes = _count_burn_passes(monkeypatch)
    for _, _, graph, chips in _tableau_rank_cases(params):
        assert bn_rank(graph, chips) == params.r
    assert passes[0] <= bound


def test_rho_zero_tableau_divisors_up_to_genus_five():
    # (5,8,4) has a test of its own below
    checked = 0
    for params in sweep_params(5):
        if params.rho != 0 or params == BNParams(5, 8, 4):
            continue
        for geom, divisor, graph, chips in _tableau_rank_cases(params):
            assert bn_rank(graph, chips) == tropical_rank(geom, divisor) == params.r
            checked += 1
    assert checked == 10


def test_rho_zero_genus_five_degree_eight(monkeypatch):
    # degree 8 on 51 vertices: 822,680 burn passes when each root check
    # reduced to the end, 346,829 when it checked the roots a held divisor
    # certified
    passes = _count_burn_passes(monkeypatch)
    [(geom, divisor, graph, chips)] = _tableau_rank_cases(BNParams(5, 8, 4))
    assert bn_rank(graph, chips) == tropical_rank(geom, divisor) == 4
    assert passes[0] <= 248_110


def _coarse_generic_point(geom, k, d):
    """The coarsest lattice point of loop k off Q_{k-1} and the special points.

    The special coordinates are (u + 1) * l_k mod c_k for u = 0..d, the set
    the sampler of ``divisor_from_tableau`` avoids.  An integer coordinate
    where one exists, else a half-integer one.
    """
    ell, c = geom.ell(k), geom.circumference(k)
    avoid = {(u + 1) * ell % c for u in range(d + 1)} | {0}
    for denominator in (1, 2):
        for j in range(1, int(c * denominator)):
            if F(j, denominator) not in avoid:
                return point_on_loop(geom, k, F(j, denominator))
    raise AssertionError(f"loop {k}: no coarse generic point")


def _coarse_tableau_divisor(t, geom):
    """The tableau's divisor with each free index on its coarsest generic point.

    Placed indices get the special points ``divisor_from_tableau`` gives.
    """
    p = t.params
    support = [(Node(0), p.r)]
    for i in range(1, p.g + 1):
        if not t.is_placed(i):
            support.append((_coarse_generic_point(geom, i, p.d), 1))
        elif t.column_of(i) < p.r:
            s = t.column_of(i)
            u = p.r - s + t.column_fill(i, s) - t.column_fill(i, p.r) - 1
            support.append((solve_special_point(geom, i, u), 1))
    return TropicalDivisor(tuple(support))


# (4,8,4) takes 6-9 s, so it runs under -m slow only
HEAVY_RHO_POSITIVE = {(BNParams(4, 8, 4), ())}

# the 106-vertex divisors, 2-3 s each: walking every root of each E took
# 218,498 and 220,244 burn passes
RHO_POSITIVE_BURN_BOUNDS = {
    (BNParams(5, 8, 3), ()): 139_180,
    (BNParams(5, 7, 3), ((2, 3, 4, 5),)): 137_014,
}


def test_rho_positive_tableau_divisors_up_to_genus_five(monkeypatch):
    # a free point sampled with denominator 1009 gives 7k-18k vertices; any
    # point off the special ones keeps the rank r (Pflueger), and the rank
    # does not depend on which subdivision holds the support, so the coarse
    # point asks the same question on 4-106 vertices
    passes = _count_burn_passes(monkeypatch)
    checked = heavy = 0
    for params in sweep_params(5):
        if params.rho <= 0 or params.d > 8:  # the rank search's degree cap
            continue
        geom = _worked_style_geometry(params.g)
        for t in enumerate_tableaux(params):
            divisor = _coarse_tableau_divisor(t, geom)
            # off the free loops it is the divisor divisor_from_tableau gives
            free = {i for i in range(1, params.g + 1) if not t.is_placed(i)}
            placed = [
                {(pt, m) for pt, m in d.points if isinstance(pt, Node) or pt.loop not in free}
                for d in (divisor, divisor_from_tableau(t, geom))
            ]
            assert placed[0] == placed[1], t
            if (params, t.rows) in HEAVY_RHO_POSITIVE:
                heavy += 1
                continue
            graph = subdivide_chain(geom, [pt for pt, _ in divisor.points])
            assert graph.vertex_count <= 106
            chips = chips_from_divisor(graph, divisor)
            before = passes[0]
            assert bn_rank(graph, chips) == tropical_rank(geom, divisor) == params.r, t
            bound = RHO_POSITIVE_BURN_BOUNDS.get((params, t.rows))
            assert bound is None or passes[0] - before <= bound, t
            checked += 1
    assert (checked, heavy) == (117, 1)


@pytest.mark.slow
def test_rho_positive_genus_four_degree_eight(monkeypatch):
    # rank 4 on 65 vertices: walking every root of each E took 869,624 burn
    # passes
    passes = _count_burn_passes(monkeypatch)
    geom = _worked_style_geometry(4)
    [t] = enumerate_tableaux(BNParams(4, 8, 4))
    divisor = _coarse_tableau_divisor(t, geom)
    graph = subdivide_chain(geom, [pt for pt, _ in divisor.points])
    assert graph.vertex_count == 65
    chips = chips_from_divisor(graph, divisor)
    assert bn_rank(graph, chips) == tropical_rank(geom, divisor) == 4
    assert passes[0] <= 586_972


def test_oracle_imports_no_loop_logic():
    # the oracle checks the loop-class arithmetic, so a faster oracle may take
    # the chain's types from .tropical but none of its logic
    allowed = {"ChainGeometry", "ChainPoint", "Interior", "Node", "TropicalDivisor"}
    tree = ast.parse(open(oracle.__file__, encoding="utf-8").read())
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                assert alias.name.split(".")[0] in sys.stdlib_module_names, alias.name
        elif isinstance(node, ast.ImportFrom) and node.level:
            assert (node.level, node.module) == (1, "tropical"), ast.dump(node)
            imported.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            assert node.module.split(".")[0] in sys.stdlib_module_names, node.module
    assert imported <= allowed
