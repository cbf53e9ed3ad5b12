"""Brute-force chip-firing oracle on an integer subdivision of the chain.

This is the safety net for the exact-rational machinery: the metric chain is
scaled by the least common multiple of all denominators so that every landmark
(node or registered divisor point) is a vertex of a finite multigraph with
unit edges, and then winnability and Baker-Norine rank are computed purely
graph-side with Dhar's burning algorithm.  A pass burns from the root and
fires the unburnt set across the boundary of the burnt set, touching only
the burnt set and that boundary.  Most vertices have degree 2, so when the
firing sends chips only into paths of such vertices, they move along the
paths by a whole distance in one step, as on a metric graph; each step is a
sequence of legal firings, so every reduced form is the one unit steps give.
Rank uses the criterion of Baker and Norine: rank >= r iff D - F is winnable
for every effective F of degree r.  With the vertices numbered in depth-first
order, each F is split once as F = E + w, w at or after the last vertex of
E, and D - F is winnable iff some effective divisor equivalent to D - E has
a chip on w.  Each such check, and each winnability test, reduces toward its
root only until it reaches such a divisor, and to the end only when the
answer is no.  For each E the root walks that suffix of vertices, each check
starting from the divisor the previous one left; the first check of D - E
starts from the divisor the previous E's first check left plus E_prev - E.
A check that succeeds leaves an effective divisor equivalent to D - E, which
certifies every vertex it puts a chip on, so later roots of that E it
certified are skipped.
E and w range over all vertices, not only the nodes.  Nothing here shares
logic with the loop-class arithmetic it cross-checks.
"""

from __future__ import annotations

from collections import deque
from fractions import Fraction
from itertools import combinations_with_replacement, compress
from math import lcm
from typing import Iterable, Mapping

from .tropical import ChainGeometry, ChainPoint, Interior, Node, TropicalDivisor


class OracleTooLargeError(RuntimeError):
    """Requested model exceeds the configured subdivision or degree caps."""


class DiscreteGraph:
    """Unit-edge multigraph model of a chain of loops.

    Loop k becomes a cycle of N*(l_k + m_k) edges, consecutive loops sharing
    the node vertex between them.  ``vertex_of`` maps every chain landmark
    (nodes Q_0..Q_g and registered interior points) to its vertex.
    """

    def __init__(
        self,
        adjacency: tuple[tuple[int, ...], ...],
        node_vertices: tuple[int, ...],
        interior_vertices: dict[tuple[int, Fraction], int],
        scale: int,
    ):
        self.adjacency = adjacency
        self.node_vertices = node_vertices
        self._interior = interior_vertices
        self.scale = scale

    @property
    def vertex_count(self) -> int:
        return len(self.adjacency)

    def degree(self, v: int) -> int:
        return len(self.adjacency[v])

    def vertex_of(self, pt: ChainPoint) -> int:
        if isinstance(pt, Node):
            if not 0 <= pt.index < len(self.node_vertices):
                raise ValueError(f"node Q_{pt.index} outside this chain")
            return self.node_vertices[pt.index]
        try:
            return self._interior[(pt.loop, pt.coord)]
        except KeyError:
            raise ValueError(f"point {pt} is not a registered marker") from None


def subdivide_chain(
    geom: ChainGeometry,
    extra_points: Iterable[ChainPoint] = (),
    subdiv_cap: int = 100_000,
) -> DiscreteGraph:
    """Build the unit-edge model with every landmark on a vertex.

    The scale N is the exact lcm of the denominators of all arc lengths and
    extra-point coordinates, so placement is bit-exact.  Raises
    :class:`OracleTooLargeError` when N * sum(l_k + m_k) exceeds the cap.
    """
    extras = list(extra_points)
    denominators = [1]
    for l, m in geom.lengths:
        denominators.append(l.denominator)
        denominators.append(m.denominator)
    for pt in extras:
        if isinstance(pt, Interior):
            denominators.append(pt.coord.denominator)
    scale = lcm(*denominators)
    total_units = sum(
        int(scale * (l + m)) for l, m in geom.lengths
    )
    if total_units > subdiv_cap:
        raise OracleTooLargeError(
            f"subdivision needs {total_units} unit edges, cap is {subdiv_cap}"
        )
    edges: list[tuple[int, int]] = []
    node_vertices = [0]
    loop_start = [0]  # first non-shared vertex of each loop (1-based access)
    next_vertex = 1
    for k in range(1, geom.g + 1):
        l, m = geom.lengths[k - 1]
        n_k = int(scale * (l + m))
        start = node_vertices[k - 1]
        # positions 0..n_k-1 around loop k; position 0 is Q_{k-1}
        position_to_vertex = [start] + list(range(next_vertex, next_vertex + n_k - 1))
        loop_start.append(next_vertex)
        next_vertex += n_k - 1
        for j in range(n_k):
            edges.append((position_to_vertex[j], position_to_vertex[(j + 1) % n_k]))
        node_vertices.append(position_to_vertex[int(scale * l)])
    interior_vertices: dict[tuple[int, Fraction], int] = {}
    for pt in extras:
        if isinstance(pt, Node):
            continue
        steps = scale * pt.coord
        if steps.denominator != 1:
            raise AssertionError(f"scale {scale} misses coordinate {pt.coord}")
        j = int(steps)
        if j == 0 or j == int(scale * geom.ell(pt.loop)):
            raise ValueError(f"{pt} is a node in disguise; use Node(...)")
        interior_vertices[(pt.loop, pt.coord)] = loop_start[pt.loop] + j - 1
    adjacency: list[list[int]] = [[] for _ in range(next_vertex)]
    for a, b in edges:
        adjacency[a].append(b)
        adjacency[b].append(a)
    return DiscreteGraph(
        tuple(tuple(nbrs) for nbrs in adjacency),
        tuple(node_vertices),
        interior_vertices,
        scale,
    )


class ChipConfig:
    """Integer chip counts on the vertices (finite support, zeros dropped)."""

    __slots__ = ("_chips",)

    def __init__(self, chips: Mapping[int, int]):
        self._chips = {int(v): int(c) for v, c in chips.items() if c != 0}

    @property
    def degree(self) -> int:
        return sum(self._chips.values())

    def __getitem__(self, v: int) -> int:
        return self._chips.get(v, 0)

    def items(self):
        return self._chips.items()

    def __eq__(self, other) -> bool:
        return isinstance(other, ChipConfig) and self._chips == other._chips

    def __repr__(self) -> str:
        inside = ", ".join(f"{v}: {c}" for v, c in sorted(self._chips.items()))
        return f"ChipConfig({{{inside}}})"


def _chip_list(graph: DiscreteGraph, config: ChipConfig) -> list[int]:
    """The chip count of every vertex, as a list indexed by vertex."""
    chips = [0] * graph.vertex_count
    for v, c in config.items():
        chips[v] = c
    return chips


def chips_from_divisor(graph: DiscreteGraph, divisor: TropicalDivisor) -> ChipConfig:
    """Place a marker-supported divisor on the model's vertices."""
    chips: dict[int, int] = {}
    for pt, mult in divisor.points:
        v = graph.vertex_of(pt)
        chips[v] = chips.get(v, 0) + mult
    return ChipConfig(chips)


def _bfs_distances(adjacency, q: int) -> list[int]:
    n = len(adjacency)
    dist = [-1] * n
    dist[q] = 0
    queue = deque([q])
    while queue:
        v = queue.popleft()
        for w in adjacency[v]:
            if dist[w] < 0:
                dist[w] = dist[v] + 1
                queue.append(w)
    return dist


def _settle_debt(adjacency, chips: list[int], q: int) -> None:
    """Make every vertex except q non-negative by firing balls around q.

    Processing layers farthest-first, firing the ball {dist < L} sends chips
    only across the edges from layer L - 1 to layer L, so one descending pass
    over the layers, O(V + E) in all, pushes all debt into q.
    """
    held = chips[q]
    chips[q] = 0
    solvent = min(chips) >= 0
    chips[q] = held
    if solvent:
        return
    dist = _bfs_distances(adjacency, q)
    layers: list[list[int]] = [[] for _ in range(max(dist) + 1)]
    for v, level in enumerate(dist):
        layers[level].append(v)
    for level in range(len(layers) - 1, 0, -1):
        times = 0
        for v in layers[level]:
            if chips[v] < 0:
                inflow = sum(1 for w in adjacency[v] if dist[w] < level)
                times = max(times, (-chips[v] + inflow - 1) // inflow)
        if not times:
            continue
        for u in layers[level - 1]:
            for w in adjacency[u]:
                if dist[w] == level:
                    chips[u] -= times
                    chips[w] += times


def _burn(adjacency, chips: list[int], q: int) -> tuple[dict[int, int], list[bool]]:
    """One pass of Dhar's burning from q, over the burnt set and its boundary.

    Returns the boundary, each unburnt vertex with an edge into the burnt set
    mapped to the number of such edges, and the burnt flags.  The graphs are
    connected, so an empty boundary means everything burnt.
    """
    burnt = [False] * len(adjacency)
    burnt[q] = True
    boundary: dict[int, int] = {}
    stack = [q]
    while stack:
        for w in adjacency[stack.pop()]:
            if burnt[w]:
                continue
            if chips[w] > 0:  # a chipless vertex burns at its first edge
                edges = boundary.get(w, 0) + 1
                if edges <= chips[w]:
                    boundary[w] = edges
                    continue
                del boundary[w]
            burnt[w] = True
            stack.append(w)
    return boundary, burnt


def _reaches(adjacency, chips: list[int], q: int, least: int) -> bool:
    """True iff a divisor equivalent to ``chips`` and effective away from q
    has at least ``least`` chips on q.

    Settles debt, then burns and fires toward q only while q holds fewer
    than ``least`` chips.  After debt is settled every vertex but q is
    non-negative, and each later firing is legal and only adds chips to q,
    so once q holds ``least`` chips ``chips`` is such a divisor.  If the burn
    consumes everything first, ``chips`` is the q-reduced form, which has
    the most chips on q of all divisors effective away from q in the class.
    With ``least`` above the degree, q never holds enough, so the reduction
    runs to the q-reduced form.
    """
    _settle_debt(adjacency, chips, q)
    while chips[q] < least:
        boundary, burnt = _burn(adjacency, chips, q)
        if not boundary:
            return False
        _fire_unburnt(adjacency, chips, q, boundary, burnt)
    return True


def _fire_unburnt(adjacency, chips: list[int], q: int, boundary, burnt) -> None:
    """Fire the unburnt set U of one burn as often as it can, by distance.

    A chip leaving U crosses a boundary edge, and U off the boundary does not
    change, so only the boundary and its edges are touched.  U fires as often
    as every boundary vertex can afford.  If every boundary edge enters a
    vertex of degree 2 other than q, it starts a path of burnt degree-2
    vertices, and the bundle fired into each path moves on by t steps: t is
    the shortest walk from U to q or to a vertex of degree other than 2.
    Each path vertex was burnt from its far side alone, so it holds no chips,
    and no walk turns back into U or meets another.  Moving the bundles t
    steps is firing U plus the first j vertices of every path for j = 1..t-1,
    each a legal firing that sends exactly the bundles one edge on.  Legal
    firings keep the class and keep it non-negative away from q, and the
    q-reduced form is unique, so these steps end where unit steps end.
    """
    times = min(chips[v] // edges for v, edges in boundary.items())
    behind = []
    ahead = []
    along_paths = True
    for v, edges in boundary.items():
        chips[v] -= times * edges
        for w in adjacency[v]:
            if burnt[w]:
                chips[w] += times
                behind.append(v)
                ahead.append(w)
                if along_paths and (w == q or len(adjacency[w]) != 2):
                    along_paths = False
    if along_paths:
        _carry_along_paths(adjacency, chips, q, behind, ahead, times)


def _carry_along_paths(adjacency, chips, q, behind, ahead, times) -> None:
    """Move the bundle on each boundary edge, behind to ahead, until a walk stops.

    All walks step in lockstep from the path's first vertex and stop together
    as soon as one reaches q or a vertex of degree other than 2.
    """
    starts = list(ahead)
    moving = True
    while moving:
        for i, v in enumerate(ahead):
            a, b = adjacency[v]
            w = b if a == behind[i] else a
            behind[i] = v
            ahead[i] = w
            if w == q or len(adjacency[w]) != 2:
                moving = False
    for start, end in zip(starts, ahead):
        chips[start] -= times
        chips[end] += times


def dhar_reduce(graph: DiscreteGraph, config: ChipConfig, q: int) -> ChipConfig:
    """The unique q-reduced configuration linearly equivalent to the input.

    Non-negative away from q, and no non-empty vertex set avoiding q can fire
    without sending some vertex negative.  Computed by settling debt and then
    burning and firing (:func:`_fire_unburnt`) until everything burns; every
    step is a sequence of legal firings, so the answer is the unique q-reduced
    form.
    """
    chips = _chip_list(graph, config)
    _reaches(graph.adjacency, chips, q, config.degree + 1)
    return ChipConfig({v: c for v, c in enumerate(chips) if c})


def is_winnable(graph: DiscreteGraph, config: ChipConfig, q: int) -> bool:
    """True iff the configuration is equivalent to an effective one.

    The reduction toward q stops at the first equivalent effective divisor:
    once debt is settled, as soon as q is out of debt.
    """
    return _reaches(graph.adjacency, _chip_list(graph, config), q, 0)


def _dfs_order(adjacency, q: int) -> list[int]:
    """Depth-first preorder from q: consecutive vertices are mostly adjacent."""
    seen = [False] * len(adjacency)
    order = []
    stack = [q]
    while stack:
        v = stack.pop()
        if seen[v]:
            continue
        seen[v] = True
        order.append(v)
        stack.extend(w for w in reversed(adjacency[v]) if not seen[w])
    return order


def bn_rank(graph: DiscreteGraph, config: ChipConfig, degree_cap: int = 8) -> int:
    """Baker-Norine rank of the configuration D, by suffix walks of the root.

    -1 when D is not winnable.  Otherwise the largest r <= deg D such that
    D - F is winnable for every effective F of degree r, the criterion of
    Baker and Norine.  The vertices are numbered by their position in the
    depth-first order from q = 0, and each F is split once as F = E + w: E
    of degree r - 1, a multiset of positions in lexicographic order, and w
    a root at or after the last position of E.  D - F is winnable iff some
    effective divisor equivalent to D - E has a chip on w, and each check
    reduces toward w only until it reaches one; it reduces to the end only
    when the answer is no, since the w-reduced form has the most chips on w.
    For each E, the first check starts from the divisor the previous E's
    first check left, plus E_prev - E, and each later root of the suffix
    from the divisor the previous root left.  Every start is in the class of
    D - E, so the warm starts change no answer.  A check that succeeds leaves
    an effective divisor equivalent to D - E, and a later root of the same E
    that it puts a chip on is skipped: D - E - w is winnable.  A level fails
    at the first root where no equivalent effective divisor has a chip.
    The orders are fixed, so runs are deterministic.  Degrees above
    ``degree_cap`` raise :class:`OracleTooLargeError`.
    """
    degree = config.degree
    if degree > degree_cap:
        raise OracleTooLargeError(
            f"degree {degree} exceeds rank-search cap {degree_cap}"
        )
    adjacency = graph.adjacency
    n = graph.vertex_count
    q = 0
    effective = _chip_list(graph, config)
    if not _reaches(adjacency, effective, q, 0):
        return -1
    walk = _dfs_order(adjacency, q)

    def every_split_keeps_a_chip(r: int) -> bool:
        # an effective divisor equivalent to D, with E_prev = (), seeds the first E
        seed, seed_removed = effective, ()
        for removed in combinations_with_replacement(range(n), r - 1):
            work = list(seed)
            for p in seed_removed:
                work[walk[p]] += 1
            for p in removed:
                work[walk[p]] -= 1
            first = removed[-1] if removed else 0
            reached = [False] * n  # roots certified for this E
            for p in range(first, n):
                w = walk[p]
                if reached[w]:
                    continue
                if not _reaches(adjacency, work, w, 1):
                    return False
                for v in compress(range(n), work):
                    reached[v] = True
                if p == first:
                    seed, seed_removed = list(work), removed
        return True

    r = 0
    while r + 1 <= degree and every_split_keeps_a_chip(r + 1):
        r += 1
    return r
