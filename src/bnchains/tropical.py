"""Divisors on a metric chain of loops, in exact rational arithmetic.

The chain glues g circles in a path at nodes Q_0..Q_g: loop k has two arcs of
lengths l_k and m_k between Q_{k-1} and Q_k.  Coordinates on loop k run from
Q_{k-1} at 0 along the l-arc (Q_k sits at l_k) and back along the m-arc, taken
modulo the circumference c_k = l_k + m_k.

Linear equivalence on a single loop is class arithmetic in the circle group
R/(c_k Z): two divisors of equal degree are equivalent iff the weighted sums
of their coordinates agree mod c_k.  Everything here (reduction, effectivity,
special points, vanishing tables, rank) reduces to that one fact, which is why
all lengths and coordinates are Fractions and no floats appear anywhere.  A
geometry holds each loop in integer units of 1/n_k, n_k the lcm of the
denominators of l_k and m_k, so the inner loops run on integers; Fractions
appear again only in the points they return.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction
from math import gcd, lcm
from typing import Mapping, Union

from .elliptic import VanishingSequence
from .tableaux import Tableau


class RankDeficiencyError(ValueError):
    """The dynamic vanishing table cannot be maintained (rank too small)."""


class AmbiguousSpecialPointError(ValueError):
    """A leftover point is special for two indices (non-generic geometry)."""


class SamplingError(RuntimeError):
    """Generic-point sampling exhausted its retry budget."""


class TropicalTooLargeError(RuntimeError):
    """A rank sweep or vanishing table of more than ``_MAX_SWEEP_WIDTH`` loop steps."""


# Most loop steps a rank sweep or vanishing table takes, one list entry each:
# g * (width + 1) for a rank sweep of width deg D or r, and (g + 1) * (r + 1)
# for a table, which holds every row.  At the cap a sweep of N * Q_0 took
# 0.16 s on 6 or 30 loops and 0.24 s at 54 MB peak RSS on one loop; a table
# took 0.1 s at 58 MB, against 16 MB for the bare import (Python 3.11, 2 cores).
_MAX_SWEEP_WIDTH = 10**6


def _check_width(rows: int, width: int) -> None:
    """Refuse ``rows`` passes over ``width + 1`` entries past ``_MAX_SWEEP_WIDTH`` steps."""
    steps = rows * (width + 1)
    if steps > _MAX_SWEEP_WIDTH:
        shown = steps if steps < 10**100 else "too many"  # str() stops at 4,300 digits
        raise TropicalTooLargeError(
            f"sweep of {shown} loop steps exceeds the cap {_MAX_SWEEP_WIDTH}"
        )


def _exact(x) -> Fraction:
    """``x`` as a Fraction: a Fraction, an int, or a string such as "-3/4" or "0.25".

    The one reader of outside rationals.  Other types, a zero denominator and
    exponent forms raise ``ValueError``: ``Fraction("1e10000000")`` is 10**(10**7).
    """
    if isinstance(x, Fraction):
        return x
    if type(x) is int or isinstance(x, str) and "e" not in x and "E" not in x:
        try:
            return Fraction(x)
        except ZeroDivisionError:
            raise ValueError(f"zero denominator in the rational {x!r}") from None
    raise ValueError(f"expected a rational as \"p/q\", got {x!r}")


@dataclass(frozen=True)
class ChainGeometry:
    """Arc lengths (l_k, m_k) of the g loops, all positive exact rationals.

    ``_units[k-1]`` is loop k as integers ``(l_k, c_k, n_k)`` in units of
    1/n_k (``_scale``), fixed at construction and left out of ``==``,
    ``hash`` and ``repr``.
    """

    lengths: tuple[tuple[Fraction, Fraction], ...]
    _units: tuple[tuple[int, int, int], ...] = field(
        init=False, repr=False, compare=False
    )

    def __post_init__(self):
        lengths = tuple((_exact(l), _exact(m)) for l, m in self.lengths)
        object.__setattr__(self, "lengths", lengths)
        if not lengths:
            raise ValueError("chain needs at least one loop")
        for k, (l, m) in enumerate(lengths, start=1):
            if l.numerator <= 0 or m.numerator <= 0:
                raise ValueError(f"loop {k}: lengths must be positive, got ({l}, {m})")
        object.__setattr__(self, "_units", tuple(_scale(l, m) for l, m in lengths))

    @property
    def g(self) -> int:
        return len(self.lengths)

    def ell(self, k: int) -> Fraction:
        return self.lengths[k - 1][0]

    def em(self, k: int) -> Fraction:
        return self.lengths[k - 1][1]

    def circumference(self, k: int) -> Fraction:
        l, m = self.lengths[k - 1]
        return l + m


@dataclass(frozen=True)
class Node:
    """The node Q_i, i in 0..g."""

    index: int

    def __post_init__(self):
        if self.index < 0:
            raise ValueError(f"node index must be >= 0, got {self.index}")


@dataclass(frozen=True)
class Interior:
    """A non-node point on loop ``loop`` at canonical coordinate ``coord``."""

    loop: int
    coord: Fraction

    def __post_init__(self):
        if not isinstance(self.coord, Fraction):
            object.__setattr__(self, "coord", _exact(self.coord))
        if self.loop < 1:
            raise ValueError(f"loop index must be >= 1, got {self.loop}")
        if self.coord.numerator <= 0:
            raise ValueError(f"interior coordinate must be positive, got {self.coord}")


ChainPoint = Union[Node, Interior]


def point_on_loop(geom: ChainGeometry, k: int, coord: Fraction) -> ChainPoint:
    """Canonical point of loop k at ``coord`` (any rational, reduced mod c_k)."""
    if not 1 <= k <= geom.g:
        raise ValueError(f"loop {k} outside 1..{geom.g}")
    x = _exact(coord) % geom.circumference(k)
    if x == 0:
        return Node(k - 1)
    if x == geom.ell(k):
        return Node(k)
    return Interior(k, x)


def chain_point_key(pt: ChainPoint) -> tuple:
    """Sort key placing points in left-to-right chain order."""
    if isinstance(pt, Node):
        return (pt.index, 0, 0)
    return (pt.loop - 1, 1, pt.coord)


@dataclass(frozen=True)
class TropicalDivisor:
    """Finite formal sum of chain points with nonzero integer multiplicities."""

    points: tuple[tuple[ChainPoint, int], ...]

    def __post_init__(self):
        # sort on the chain key and coalesce runs of equal keys: equal keys
        # mean equal points, and no Fraction coordinate gets hashed
        entries = sorted(
            (chain_point_key(pt), i, pt, int(mult))
            for i, (pt, mult) in enumerate(self.points)
        )
        merged: list[list] = []
        for key, _, pt, mult in entries:
            if merged and merged[-1][0] == key:
                merged[-1][2] += mult
            else:
                merged.append([key, pt, mult])
        cleaned = tuple((pt, m) for _, pt, m in merged if m != 0)
        object.__setattr__(self, "points", cleaned)

    @classmethod
    def from_dict(cls, d: Mapping[ChainPoint, int]) -> "TropicalDivisor":
        return cls(tuple(d.items()))

    @property
    def degree(self) -> int:
        return sum(m for _, m in self.points)

    def multiplicity(self, pt: ChainPoint) -> int:
        for q, m in self.points:
            if q == pt:
                return m
        return 0

    def as_dict(self) -> dict[ChainPoint, int]:
        return dict(self.points)

    def __add__(self, other: "TropicalDivisor") -> "TropicalDivisor":
        return TropicalDivisor(self.points + other.points)

    def __sub__(self, other: "TropicalDivisor") -> "TropicalDivisor":
        return TropicalDivisor(
            self.points + tuple((pt, -m) for pt, m in other.points)
        )


@dataclass(frozen=True)
class GenericityReport:
    generic: bool
    failing_loops: tuple[int, ...] = ()

    def __bool__(self) -> bool:
        return self.generic


def check_genericity(geom: ChainGeometry) -> GenericityReport:
    """Test the length-ratio condition that makes the chain Brill-Noether general.

    Loop k fails when l_k/m_k in lowest terms p/q has both p and q below
    2g - 2, i.e. the ratio equals a quotient of two positive integers smaller
    than 2g - 2.
    """
    bound = 2 * geom.g - 2
    failing = []
    for k, (ell, c, _) in enumerate(geom._units, start=1):
        # p/q is l_k : (c_k - l_k) in the loop's units, divided by their gcd
        if max(ell, c - ell) // gcd(ell, c) < bound:
            failing.append(k)
    return GenericityReport(not failing, tuple(failing))


@dataclass(frozen=True)
class ReducedChain:
    """Reduced representative u * Q_0 + sum_k epsilon_k * x_k of a divisor.

    ``epsilon[k-1]`` is 0/1 and ``x[k-1]`` the leftover point on loop k (never
    Q_{k-1}, possibly Q_k); ``u`` is maximal among such representatives.
    """

    u: int
    epsilon: tuple[int, ...]
    x: tuple[ChainPoint | None, ...]


_Loop = tuple[int, int, int, int, int]


def _scale(l: Fraction, m: Fraction) -> tuple[int, int, int]:
    """``(l, c, n)``: a loop's l and c = l + m as integers in units of 1/n.

    n is the lcm of the denominators of l and m.
    """
    n = lcm(l.denominator, m.denominator)
    ell = l.numerator * (n // l.denominator)
    return ell, ell + m.numerator * (n // m.denominator), n


def _split(
    geom: ChainGeometry, divisor: TropicalDivisor
) -> tuple[list[int], list[_Loop]]:
    """Node multiplicities at Q_0..Q_g and (deg_k, class_k, l_k, c_k, n_k) per loop.

    Interior points enter only through their loop's degree and class in
    R/(c_k Z), which is all the right-to-left sweeps below need.  Loop k is
    measured in units of 1/n_k: the geometry's n_k, widened to a multiple of
    the denominator of every coordinate on it, so its class, l_k and c_k are
    integers and every later step on it is integer arithmetic.  Points
    outside the chain raise ``ValueError``.
    """
    g = geom.g
    node_mult = [0] * (g + 1)
    loops = [[0, 0, ell, c, n] for ell, c, n in geom._units]
    for pt, mult in divisor.points:
        if isinstance(pt, Node):
            if pt.index > g:
                raise ValueError(f"node Q_{pt.index} outside chain of genus {g}")
            node_mult[pt.index] += mult
        else:
            if pt.loop > g:
                raise ValueError(f"loop {pt.loop} outside chain of genus {g}")
            loop = loops[pt.loop - 1]
            den = pt.coord.denominator
            f = den // gcd(loop[4], den)
            if f > 1:  # widen n_k to a multiple of den, with class, l_k and c_k
                loop[1:] = [v * f for v in loop[1:]]
            loop[0] += mult
            loop[1] += pt.coord.numerator * (loop[4] // den) * mult
    return node_mult, [(deg, cls % c, l, c, n) for deg, cls, l, c, n in loops]


def _loop_step(loop: _Loop, carry: int) -> tuple[int, int]:
    """What loop k passes on to Q_{k-1} when ``carry`` chips arrive at Q_k.

    The carry joins the loop at coordinate l_k, so the loop class becomes
    sigma = class_k + carry * l_k mod c_k, one integer ``%`` in units of
    1/n_k.  All of the degree moves when sigma is zero, all but one
    otherwise, leaving one point at coordinate sigma / n_k.  Returns
    ``(moved, sigma)``.
    """
    degree, cls, l, c, _ = loop
    sigma = (cls + carry * l) % c
    return degree + carry - (sigma != 0), sigma


def _reduce_split(
    node_mult: list[int], loops: list[_Loop]
) -> tuple[int, list[_Loop], list[int]]:
    """``reduce_to_q0`` in integers, of a divisor split by :func:`_split`.

    Returns u, the scaled loops and each loop's sigma.
    """
    g = len(loops)
    sigmas = [0] * g
    carry = node_mult[g]
    for k in range(g, 0, -1):
        moved, sigmas[k - 1] = _loop_step(loops[k - 1], carry)
        carry = node_mult[k - 1] + moved
    return carry, loops, sigmas


def _reduced_chain(u: int, loops: list[_Loop], sigmas: list[int]) -> ReducedChain:
    """The reduced representative, with each leftover at sigma / n_k."""
    leftovers: list[ChainPoint | None] = []
    for k, ((_, _, l, _, n), sigma) in enumerate(zip(loops, sigmas), start=1):
        if sigma == 0:
            leftovers.append(None)
        else:
            leftovers.append(Node(k) if sigma == l else Interior(k, Fraction(sigma, n)))
    return ReducedChain(u, tuple(int(s != 0) for s in sigmas), tuple(leftovers))


def reduce_to_q0(geom: ChainGeometry, divisor: TropicalDivisor) -> ReducedChain:
    """Sweep the chain right to left, concentrating degree at Q_0.

    Works loop by loop from loop g down to loop 1, each time moving as much
    degree as the loop class allows onto the left node (``_loop_step``).
    Negative multiplicities are allowed; the result is the canonical
    representative of the divisor class.
    """
    return _reduced_chain(*_reduce_split(*_split(geom, divisor)))


def is_equivalent_to_effective(geom: ChainGeometry, divisor: TropicalDivisor) -> bool:
    """True iff the divisor class contains an effective divisor.

    The reduced representative has maximal coefficient at Q_0 and one point of
    multiplicity one elsewhere, so the class is effective exactly when that
    coefficient is non-negative.
    """
    return _reduce_split(*_split(geom, divisor))[0] >= 0


def solve_special_point(geom: ChainGeometry, k: int, u: int) -> ChainPoint:
    """The unique x on loop k with u * Q_{k-1} + x equivalent to (u+1) * Q_k.

    Solving in the circle class group gives coord(x) = (u+1) * l_k mod c_k,
    one integer ``%`` in the loop's units of 1/n_k.
    """
    if u < 0:
        raise ValueError(f"multiplicity must be >= 0, got {u}")
    if not 1 <= k <= geom.g:
        raise ValueError(f"loop {k} outside 1..{geom.g}")
    ell, c, n = geom._units[k - 1]
    x = (u + 1) * ell % c
    if x == 0:
        return Node(k - 1)
    if x == ell:
        return Node(k)
    return Interior(k, Fraction(x, n))


def special_multiplicity(geom: ChainGeometry, k: int, coord: Fraction) -> int | None:
    """The least u >= 0 with (u + 1) * l_k = coord mod c_k, or None.  Constant time.

    That is the least u for which :func:`solve_special_point` gives the point
    of loop k at ``coord``.  In units of 1/n, with h = gcd(l_k, c_k), coord
    is such a multiple iff h divides it, and then u + 1 = (coord / h) *
    (l_k / h)^-1 modulo c_k / h; the least u >= 0 is that residue less one,
    taken modulo c_k / h.
    """
    if not 1 <= k <= geom.g:
        raise ValueError(f"loop {k} outside 1..{geom.g}")
    coord = _exact(coord)
    ell, c, n = geom._units[k - 1]
    f = coord.denominator // gcd(n, coord.denominator)
    ell, c, n = ell * f, c * f, n * f
    x = coord.numerator * (n // coord.denominator)
    h = gcd(ell, c)
    if x % h:
        return None
    m = c // h
    return ((x // h) * pow(ell // h, -1, m) - 1) % m


@dataclass(frozen=True)
class TropVanishingTable:
    """Vanishing orders u_t(i) at the nodes plus per-loop reduction data.

    ``u[i]`` is the sequence at Q_i for i = 0..g; ``case_tags[k-1]`` records
    which of the five update cases loop k took:

      a: no leftover, all orders drop by one;
      b: no leftover, bottom order already 0 stays, the rest drop;
      c: leftover special at t0 with adjacent collision, orders unchanged;
      d: leftover special at t0, that order climbs by one;
      e: leftover generic, orders unchanged.
    """

    u: tuple[VanishingSequence, ...]
    epsilon: tuple[int, ...]
    x: tuple[ChainPoint | None, ...]
    case_tags: tuple[str, ...]


def tropical_vanishing_table(
    geom: ChainGeometry, divisor: TropicalDivisor, r: int
) -> TropVanishingTable:
    """Dynamic computation of the node vanishing orders of a rank->=r divisor.

    Seeds u(0) = (u, u-1, ..., u-r) from the reduced representative and walks
    the loops left to right applying the five update cases, detecting
    speciality of each leftover point by integer class comparison in the
    loop's units of 1/n_k (``_split``).  Raises :class:`RankDeficiencyError`
    when the strictly-decreasing non-negative shape cannot be maintained,
    which certifies rank < r, and :class:`TropicalTooLargeError` when the
    table's (g + 1) * (r + 1) entries are more than ``_MAX_SWEEP_WIDTH``.
    """
    if r < 0:
        raise ValueError(f"rank must be >= 0, got {r}")
    _check_width(geom.g + 1, r)
    return _table_from_split(*_split(geom, divisor), r)


def _table_from_split(
    node_mult: list[int], loops: list[_Loop], r: int
) -> TropVanishingTable:
    """:func:`tropical_vanishing_table` of a divisor already split, for 0 <= r within the cap."""
    u0, loops, sigmas = _reduce_split(node_mult, loops)
    if u0 < r:
        raise RankDeficiencyError(
            f"rank deficiency at loop 0: reduced multiplicity {u0} < {r}"
        )
    reduced = _reduced_chain(u0, loops, sigmas)
    u = list(range(u0, u0 - r - 1, -1))
    # rows are valid sequences: this one as u0 >= r, the rest by the check below
    rows = [VanishingSequence._trusted(tuple(u))]
    tags = []
    for i, ((_, _, l, c, _), sigma) in enumerate(zip(loops, sigmas), start=1):
        if sigma == 0:
            if u[r] > 0:
                u = [v - 1 for v in u]
                tags.append("a")
            else:
                u = [v - 1 for v in u[:r]] + [u[r]]
                tags.append("b")
        else:
            # the leftover sits at sigma, in the loop's integer units
            specials = [t for t in range(r + 1) if (u[t] + 1) * l % c == sigma]
            if not specials:
                tags.append("e")
            elif len(specials) > 1:
                raise AmbiguousSpecialPointError(
                    f"loop {i}: leftover special for t = {specials} "
                    "(geometry not generic enough)"
                )
            else:
                t0 = specials[0]
                if t0 > 0 and u[t0] + 1 == u[t0 - 1]:
                    tags.append("c")
                else:
                    u = list(u)
                    u[t0] += 1
                    tags.append("d")
        if u[r] < 0 or any(a <= b for a, b in zip(u, u[1:])):
            raise RankDeficiencyError(  # the ends only: r is up to the sweep cap
                f"rank deficiency at loop {i}: orders from u_0 = {u[0]} to u_{r} = {u[r]} "
                "lose shape"
            )
        rows.append(VanishingSequence._trusted(tuple(u)))
    return TropVanishingTable(
        tuple(rows), reduced.epsilon, reduced.x, tuple(tags)
    )


_SAMPLE_DENOMINATOR = 1009
_SAMPLE_RETRIES = 64


def divisor_from_tableau(
    t: Tableau, geom: ChainGeometry, seed: int = 0
) -> TropicalDivisor:
    """The divisor r * Q_0 + sum epsilon_i x_i encoded by a tableau.

    Indices in the last column contribute nothing; an index in column
    t(i) < r contributes the special point solving
    u * Q_{i-1} + x = (u+1) * Q_i for u = r - t(i) + beta(i,t(i)) - beta(i,r) - 1;
    a free index contributes a sampled interior point validated non-special
    for every multiplicity up to d (and distinct from both nodes).  Sampling
    is deterministic given ``seed``.
    """
    p = t.params
    if p.g != geom.g:
        raise ValueError(f"tableau genus {p.g} != geometry genus {geom.g}")
    rng = None  # made at the first free index; a rho = 0 tableau draws nothing
    support: list[tuple[ChainPoint, int]] = [(Node(0), p.r)]
    for i in range(1, p.g + 1):
        if t.is_placed(i):
            s = t.column_of(i)
            if s == p.r:
                continue
            u = p.r - s + t.column_fill(i, s) - t.column_fill(i, p.r) - 1
            x = solve_special_point(geom, i, u)
        else:
            if rng is None:
                rng = random.Random(seed)
            x = _sample_generic_point(geom, i, p.d, rng)
        support.append((x, 1))
    return TropicalDivisor(tuple(support))


def _sample_generic_point(
    geom: ChainGeometry, k: int, d: int, rng: random.Random
) -> Interior:
    _, c, n = geom._units[k - 1]
    # in units of 1/n the special coordinates are (u + 1) * l mod c, and the
    # candidate c * j / 1009 is one of them only if 1009 divides c * j
    for _ in range(_SAMPLE_RETRIES):
        j = rng.randrange(1, _SAMPLE_DENOMINATOR)
        coord = Fraction(c * j, n * _SAMPLE_DENOMINATOR)
        if c * j % _SAMPLE_DENOMINATOR:
            return Interior(k, coord)
        u = special_multiplicity(geom, k, coord)
        if u is None or u > d:
            return Interior(k, coord)
    raise SamplingError(f"loop {k}: could not sample a generic point")


def _least_carries(node_mult: list[int], loops: list[_Loop], width: int) -> list[int]:
    """Least Q_0 coefficient ``best[j]`` of D - E over node divisors E >= 0 of degree j <= width.

    D comes split by :func:`_split`; its callers check g * (width + 1)
    against ``_MAX_SWEEP_WIDTH`` before they split it.

    ``reduce_to_q0`` sees a node divisor E only through the integer carry
    reaching each node, and loop k passes on (``_loop_step``)

        moved(k, c) = deg_k + c - [class_k + c * l_k != 0 mod c_k],

    which is non-decreasing in c (one more chip moves at least as much).  The
    final coefficient at Q_0 is therefore monotone in every carry, so its
    minimum over E is found by one right-to-left sweep that keeps, for each
    j = 0..width, the least carry ``best[j]`` at Q_k after removing j chips
    from Q_k..Q_g:

        best[j] <- n_{k-1} + min over i <= j of (moved(k, best[i]) - (j - i)).

    ``best[j]`` depends only on ``best[0..j]``, so one sweep serves every j
    at once; ``best[0]`` is ``reduce_to_q0``'s u, and ``best`` is
    non-increasing in j.  With the minimum kept as a running prefix minimum
    the sweep is g * (width + 1) integer steps.
    """
    g = len(loops)
    best = [node_mult[g] - j for j in range(width + 1)]
    for k in range(g, 0, -1):
        degree, cls, l, c, _ = loops[k - 1]
        base = node_mult[k - 1]
        # running minimum of moved(k, best[i]) + i, the _loop_step formula
        # inline; it starts at an upper bound of its j = 0 term
        lowest = degree + best[0]
        for j, carry in enumerate(best):
            step = degree + carry + j - ((cls + carry * l) % c != 0)
            if step < lowest:
                lowest = step
            best[j] = base + lowest - j
    return best


def rank_at_least(geom: ChainGeometry, divisor: TropicalDivisor, r: int) -> bool:
    """Rank test: is D - E effective-equivalent for every node divisor E >= 0 of degree r?

    The nodes Q_0..Q_g are a rank-determining set on the chain, so this is the
    true rank bound; for r < 0 it needs no E.  The E are never listed: one
    integer sweep of width r (``_least_carries``) gives the least Q_0
    coefficient over all of them, and D has rank >= r iff it is
    non-negative.  That is O(g * r) integer steps, where listing the E would
    take C(g + r, r) reductions.
    """
    if r < 0:
        return True
    _check_width(geom.g, r)
    return _least_carries(*_split(geom, divisor), r)[r] >= 0


def tropical_rank(geom: ChainGeometry, divisor: TropicalDivisor) -> int:
    """Exact rank: the largest r with ``rank_at_least``, or -1 when not effective-equivalent.

    No rank exceeds deg D, so one integer sweep of width max(deg D, 0)
    (``_least_carries``) decides every r at once; since ``best`` is
    non-increasing, the rank is the number of its non-negative entries less
    one.  A sweep of g * (deg D + 1) steps above ``_MAX_SWEEP_WIDTH``
    raises :class:`TropicalTooLargeError`.
    """
    degree = divisor.degree
    _check_width(geom.g, degree)
    return _rank_from_split(*_split(geom, divisor), degree)


def _rank_from_split(node_mult: list[int], loops: list[_Loop], degree: int) -> int:
    """:func:`tropical_rank` of a divisor of ``degree`` within the cap, already split."""
    best = _least_carries(node_mult, loops, max(degree, 0))
    return sum(b >= 0 for b in best) - 1
