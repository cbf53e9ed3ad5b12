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
for every effective F of degree r.  Each F is split once as F = E + w: E of
degree r - 1, a multiset of vertices in lexicographic order, and w a root
at or after the last vertex of E.  Any total order of the vertices splits
each F exactly once, so the numbering changes no answer, only the speed:
:func:`subdivide_chain` numbers the vertices in depth-first preorder from
Q_0, so consecutive roots are mostly adjacent and each warm start below has
little to move.  D - F is winnable iff some effective divisor equivalent to
D - E has a chip on w.  Each such check, and each winnability test, reduces
toward its root only until it reaches such a divisor, and to the end only
when the answer is no, since the w-reduced form has the most chips on w.
For each E the root walks that suffix of vertices, each check starting from
the divisor the previous one left; the first check of D - E starts from the
divisor the first check of the last E checked left, plus E_prev - E.  Every
start is in the class of D - E, so the warm starts change no answer.

A check that succeeds leaves an effective divisor H equivalent to D - E, so
E + H is effective and equivalent to D, and for every effective F of the
level's degree with F <= E + H, D - F is equivalent to E + H - F, which is
effective: D - F is winnable.  Every such F the walk has not reached yet is
recorded under its own split E' + w', whatever its E, and skipped when the
walk reaches it; a skip only passes over an F whose answer is yes.  The
record holds one bitmask of roots per E' still ahead and drops it when the
walk reaches E', so it grows with the checks made, not with the F there
are.  An E whose roots are all skipped leaves the seed as it was, still in
the class of D minus the E that left it, so the next E starts in its own
class and settles any debt.  A level fails at the first F reached, never a
recorded one, where no equivalent effective divisor has a chip on w.  The
orders are fixed, so runs are deterministic.

E and w range over all vertices, not only the nodes.  Nothing here shares
logic with the loop-class arithmetic it cross-checks.  Configurations of
more than :data:`ORACLE_CHIP_CAP` chips, counted without sign, are refused.
"""

from __future__ import annotations

from collections import deque
from fractions import Fraction
from itertools import combinations, combinations_with_replacement, compress
from math import lcm
from typing import Iterable, Mapping

from .tropical import ChainGeometry, ChainPoint, Interior, Node, TropicalDivisor


# is_winnable, bn_rank and dhar_reduce refuse a configuration with more chips
# than this, its counts summed without sign; the reduction moves debt into the
# root about a chip per burn pass, so 2**64 chips against 2**64 - 3 of debt on
# two loops never finished, and 10**4 take 0.1-1.4 s on 13-157 vertices
ORACLE_CHIP_CAP = 10_000

# subdivide_chain refuses a model of more unit edges than the first, at about
# 0.28 KB an edge (a 200,000-edge loop peaked at 72 MB), and bn_rank a divisor
# of higher degree than the second: d·Q_0 on the six loops of the README
# geometry takes 0.03 s at d = 8, 0.5 s at 9 and 12.6 s at 10; 11 ran past 75 s
ORACLE_EDGE_CAP = 100_000
ORACLE_DEGREE_CAP = 8


class OracleTooLargeError(RuntimeError):
    """A model past :data:`ORACLE_EDGE_CAP`, :data:`ORACLE_DEGREE_CAP` or :data:`ORACLE_CHIP_CAP`."""


class DiscreteGraph:
    """Unit-edge multigraph model of a chain of loops.

    Loop k becomes a cycle of N*(l_k + m_k) edges, consecutive loops sharing
    the node vertex between them.  ``vertex_of`` maps every chain landmark
    (nodes Q_0..Q_g and registered interior points) to its vertex.  Every
    vertex number is a valid name: the oracle's answers do not depend on the
    numbering, which changes only how fast :func:`bn_rank` walks the roots.
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
    geom: ChainGeometry, extra_points: Iterable[ChainPoint] = ()
) -> DiscreteGraph:
    """Build the unit-edge model with every landmark on a vertex.

    The scale N is the exact lcm of the denominators of all arc lengths and
    extra-point coordinates, so placement is bit-exact.  The vertices are
    numbered in depth-first preorder from Q_0 = 0: loop k runs on from
    Q_{k-1} along the l-arc through Q_k and back around the m-arc, and loop
    k + 1 starts at the next free number.  An interior point off the chain,
    on no loop 1..g or at a coordinate of at least l_k + m_k, raises
    ``ValueError``.  Raises :class:`OracleTooLargeError` when
    N * sum(l_k + m_k) exceeds :data:`ORACLE_EDGE_CAP`.
    """
    extras = list(extra_points)
    denominators = [1]
    for l, m in geom.lengths:
        denominators.append(l.denominator)
        denominators.append(m.denominator)
    for pt in extras:
        if isinstance(pt, Interior):
            if pt.loop > geom.g or pt.coord >= geom.circumference(pt.loop):
                raise ValueError(f"{pt} is off the chain; use point_on_loop(...)")
            denominators.append(pt.coord.denominator)
    scale = lcm(*denominators)
    total_units = sum(
        int(scale * (l + m)) for l, m in geom.lengths
    )
    if total_units > ORACLE_EDGE_CAP:
        needs = total_units if total_units < 10**100 else "too many"  # str() stops at 4,300 digits
        raise OracleTooLargeError(
            f"subdivision needs {needs} unit edges, cap is {ORACLE_EDGE_CAP}"
        )
    edges: list[tuple[int, int]] = []
    node_vertices = [0]
    loop_start = [0]  # first non-shared vertex of each loop (1-based access)
    next_vertex = 1
    for k in range(1, geom.g + 1):
        l, m = geom.lengths[k - 1]
        n_k = int(scale * (l + m))
        start = node_vertices[k - 1]
        # the vertices j = 0..n_k-1 steps around loop k from Q_{k-1}
        around = [start] + list(range(next_vertex, next_vertex + n_k - 1))
        loop_start.append(next_vertex)
        next_vertex += n_k - 1
        for j in range(n_k):
            edges.append((around[j], around[(j + 1) % n_k]))
        node_vertices.append(around[int(scale * l)])
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


def _chip_list(graph: DiscreteGraph, config: ChipConfig, q: int) -> list[int]:
    """The chip count of every vertex, as a list indexed by vertex.

    Raises ``ValueError`` for a root ``q`` or a chip outside ``0..n-1``, and
    :class:`OracleTooLargeError` when the counts, summed without sign,
    exceed :data:`ORACLE_CHIP_CAP`.
    """
    n = graph.vertex_count
    if not 0 <= q < n:
        raise ValueError(f"root {q} outside the graph's vertices 0..{n - 1}")
    held = sum(abs(c) for _, c in config.items())
    if held > ORACLE_CHIP_CAP:
        shown = held if held < 10**100 else "too many"  # str() stops at 4,300 digits
        raise OracleTooLargeError(
            f"the divisor holds {shown} chips, more than the cap of {ORACLE_CHIP_CAP}"
        )
    chips = [0] * n
    for v, c in config.items():
        if not 0 <= v < n:
            raise ValueError(f"vertex {v} outside the graph's vertices 0..{n - 1}")
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
    form.  More than :data:`ORACLE_CHIP_CAP` chips raise
    :class:`OracleTooLargeError`; a root or a chip outside the graph raises
    ``ValueError``.
    """
    chips = _chip_list(graph, config, q)
    _reaches(graph.adjacency, chips, q, config.degree + 1)
    return ChipConfig({v: c for v, c in enumerate(chips) if c})


def is_winnable(graph: DiscreteGraph, config: ChipConfig, q: int) -> bool:
    """True iff the configuration is equivalent to an effective one.

    The reduction toward q stops at the first equivalent effective divisor:
    once debt is settled, as soon as q is out of debt.  More than
    :data:`ORACLE_CHIP_CAP` chips raise :class:`OracleTooLargeError`; a root
    or a chip outside the graph raises ``ValueError``.
    """
    return _reaches(graph.adjacency, _chip_list(graph, config, q), q, 0)


def _certify(ahead, ends, removed, work) -> None:
    """Record each F of degree r with F <= E + ``work`` not yet behind the walk.

    ``work`` is effective and equivalent to D - E, so for every effective F
    of degree r with F <= E + work, D - F is equivalent to E + work - F,
    which is effective.  F is a sorted tuple of r vertices and the walk
    checks it as E' + w, E' = F[:-1] and w = F[-1], so F is recorded as bit
    w of ``ahead[E']``, and only when E' is E or after it: ``ahead`` holds
    no F the walk has passed.  With the deg D chips of E + work sorted into
    ``held``, each E' is a subset of r - 1 of them, and its roots are the
    chips after its last one; ``ends`` gives, for each subset in the order
    ``combinations`` makes them, the index after its last chip.
    """
    held = list(removed)
    for v in compress(range(len(work)), work):
        held += [v] * work[v]
    held.sort()
    roots = [0] * (len(held) + 1)  # roots[i]: the vertices held[i:], as a bitmask
    for i in range(len(held) - 1, -1, -1):
        roots[i] = roots[i + 1] | 1 << held[i]
    for head, end in zip(combinations(held, len(removed)), ends):
        if head >= removed:
            ahead[head] = ahead.get(head, 0) | roots[end]


def bn_rank(graph: DiscreteGraph, config: ChipConfig) -> int:
    """Baker-Norine rank of the configuration D, by suffix walks of the root.

    -1 when D is not winnable.  Otherwise the largest r <= deg D such that
    D - F is winnable for every effective F of degree r, the criterion of
    Baker and Norine.  Each F is split once as F = E + w, E of degree r - 1
    in lexicographic order of vertex numbers and w a root at or after the
    last vertex of E, and an F below a divisor an earlier check left is
    skipped; the module docstring gives the argument.  Any numbering of the
    vertices gives the same rank and changes only the speed; the depth-first
    preorder of :func:`subdivide_chain` keeps consecutive roots adjacent.
    Runs are deterministic.  Degrees above :data:`ORACLE_DEGREE_CAP` raise
    :class:`OracleTooLargeError`, as do more than :data:`ORACLE_CHIP_CAP`
    chips; a chip outside the graph raises ``ValueError``.
    """
    degree = config.degree
    if degree > ORACLE_DEGREE_CAP:
        shown = f" {degree}" if degree < 10**100 else ""  # str() stops at 4,300 digits
        raise OracleTooLargeError(
            f"degree{shown} exceeds rank-search cap {ORACLE_DEGREE_CAP}"
        )
    adjacency = graph.adjacency
    n = graph.vertex_count
    q = 0
    effective = _chip_list(graph, config, q)
    if not _reaches(adjacency, effective, q, 0):
        return -1

    def every_split_keeps_a_chip(r: int) -> bool:
        # E -> the roots w with E + w certified, as a bitmask, for E still ahead
        ahead: dict[tuple[int, ...], int] = {}
        ends = [c[-1] + 1 if c else 0 for c in combinations(range(degree), r - 1)]
        # an effective divisor equivalent to D, with E_prev = (), seeds the first E
        seed, seed_removed = effective, ()
        for removed in combinations_with_replacement(range(n), r - 1):
            skip = ahead.pop(removed, 0)
            work = list(seed)
            for v in seed_removed:
                work[v] += 1
            for v in removed:
                work[v] -= 1
            first = removed[-1] if removed else 0
            for w in range(first, n):
                if skip >> w & 1:
                    continue
                if not _reaches(adjacency, work, w, 1):
                    return False
                if seed_removed != removed:  # the first check of this E
                    seed, seed_removed = list(work), removed
                _certify(ahead, ends, removed, work)
                skip |= ahead.pop(removed, 0)  # the roots of this E it certified
        return True

    r = 0
    while r + 1 <= degree and every_split_keeps_a_chip(r + 1):
        r += 1
    return r
