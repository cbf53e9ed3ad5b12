"""Effective limit linear series and conversion to/from the node-vanishing model.

An effective series keeps just enough degree on every component for one
section instead of concentrating everything: component i carries a bundle of
degree d_i with an (r+1)-dimensional space whose node vanishing is w, and each
node alpha carries an integer a_alpha with

  (a)  sum d_i - sum a_alpha = d,
  (b)  w_q(i)[t] + w_p(i+1)[r-t] >= a_alpha for all t,  r <= a_alpha <= min(d_i, d_{i+1}),
  (c)  a section vanishing to order a_alpha exists on both sides of the node
       (top vanishing order at the node >= a_alpha).

For refined series the conversion with the concentrated model is a bijection:
subtract the minimal vanishing u_r at each node going one way; add back the
side-sums d' of leftover degree going the other.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from itertools import accumulate

from .elliptic import (
    BundleClass,
    EHSeries,
    SeriesCheck,
    VanishingSequence,
    _check_shape,
    _component_problem,
    check_eh_series,
)
from .tableaux import BNParams, Tableau, _unchecked


class NotRefinedError(ValueError):
    """Conversion applied to a series that is not refined (or not valid)."""


@dataclass(frozen=True)
class EffectiveSeries:
    """Per-component degrees, bundles and node vanishing, plus node integers.

    ``degrees[i-1]`` is d_i; ``node_degrees[alpha-1]`` is a_alpha for the node
    Q_alpha joining components alpha and alpha+1.  ``w_p``/``w_q`` hold the
    vanishing at P_i / Q_i of the retained section space.  Construction checks
    shapes and bundle degrees; the series conditions live in
    :func:`check_effective`.  :func:`eh_to_effective`, whose output has those
    shapes and degrees by construction, builds through
    :func:`~bnchains.tableaux._unchecked`.
    """

    params: BNParams
    degrees: tuple[int, ...]
    bundles: tuple[BundleClass, ...]
    w_p: tuple[VanishingSequence, ...]
    w_q: tuple[VanishingSequence, ...]
    node_degrees: tuple[int, ...]

    def __post_init__(self):
        p = self.params
        if len(self.node_degrees) != p.g - 1:
            raise ValueError(f"series needs {p.g - 1} node degrees")
        _check_shape(p, self.degrees, self.bundles, self.w_p, self.w_q)


def check_effective(series: EffectiveSeries) -> SeriesCheck:
    """Validate conditions (a), (b), (c); refined iff (b) holds with equality.

    Then each component's orders must pass :func:`check_vanishing_pair` at
    its own degree d_i.  Reports the first failing node, or else the first
    failing component.
    """
    p = series.params
    r = p.r
    total = sum(series.degrees) - sum(series.node_degrees)
    if total != p.d:
        return SeriesCheck(
            False, False, f"degree bookkeeping: sum d_i - sum a = {total} != {p.d}"
        )
    refined = True
    degrees = series.degrees
    nodes = zip(series.node_degrees, series.w_q, series.w_p[1:])
    for alpha, (a, wq, wp_next) in enumerate(nodes, start=1):
        d_left = degrees[alpha - 1]
        d_right = degrees[alpha]
        if not (r <= a <= min(d_left, d_right)):
            return SeriesCheck(
                False,
                False,
                f"node Q_{alpha}: a = {a} outside [{r}, min({d_left}, {d_right})]",
            )
        wq, wp_next = wq.orders, wp_next.orders
        # w_q[t] + w_p[r - t], t = 0..r
        for t, s in enumerate(map(operator.add, wq, reversed(wp_next))):
            if s < a:
                return SeriesCheck(
                    False,
                    False,
                    f"node Q_{alpha}: w_q[{t}] + w_p[{r - t}] = {s} < a = {a}",
                )
            if s > a:
                refined = False
        if wq[0] < a or wp_next[0] < a:
            return SeriesCheck(
                False,
                False,
                f"node Q_{alpha}: no section vanishing to order a = {a} "
                f"(top orders {wq[0]}, {wp_next[0]})",
            )
    problem = _component_problem(degrees, series.w_p, series.w_q)
    return SeriesCheck(problem is None, refined and problem is None, problem)


def _twist(bundles, vanish_p, vanish_q, lefts, rights):
    """The twist of both conversions: component i by lefts[i-1] P_i + rights[i-1] Q_i.

    A pinned O(aP + bQ) becomes O((a + left)P + (b + right)Q), a free class
    keeps its tag, and the orders at P_i and Q_i shift by left and right.
    """
    twisted = []
    for i, (bundle, left, right) in enumerate(zip(bundles, lefts, rights), start=1):
        degree = bundle.degree + left + right
        if bundle.a is None:
            twisted.append(BundleClass.generic(i, degree, tag=bundle.tag))
        else:
            twisted.append(BundleClass.special(i, degree, bundle.a + left))
    return (
        tuple(twisted),
        tuple([seq.shifted(left) if left else seq for seq, left in zip(vanish_p, lefts)]),
        tuple([seq.shifted(right) if right else seq for seq, right in zip(vanish_q, rights)]),
    )


def eh_to_effective(series: EHSeries) -> EffectiveSeries:
    """Strip the minimal node vanishing off a refined concentrated series.

    At each node set a_alpha = d - u_r(Q-side) - u_r(P-side); on each
    component twist away u_r at its nodes, so d_i = d minus the u_r at the
    node(s) of C_i (end components have a single node) and the node vanishing
    drops by its own minimum.  Rejects non-refined input.  The output has the
    checked shapes, degrees and labels by construction and is built unchecked.
    """
    p = series.params
    verdict = check_eh_series(series)
    if not verdict.valid or not verdict.refined:
        raise NotRefinedError(f"series is not refined: {verdict.problem or 'a node sum exceeds d'}")
    d, r = p.d, p.r
    # -u_r on each side of every node: the P-side of its right component and
    # the Q-side of its left one; the ends of the chain have none
    lefts = [0, *[-seq.orders[r] for seq in series.vanish_p[1:]]]
    rights = [*[-seq.orders[r] for seq in series.vanish_q[:-1]], 0]
    bundles, w_p, w_q = _twist(series.bundles, series.vanish_p, series.vanish_q, lefts, rights)
    return _unchecked(
        EffectiveSeries, params=p, degrees=tuple([b.degree for b in bundles]),
        bundles=bundles, w_p=w_p, w_q=w_q,
        node_degrees=tuple([d + right + left for right, left in zip(rights, lefts[1:])]),
    )


def side_sums(series: EffectiveSeries, j: int) -> tuple[int, int]:
    """Leftover degree on each side of component j.

    d'_left(j) = sum_{m<j} d_m - sum_{alpha<j} a_alpha, and symmetrically on
    the right (the node attaching a side to C_j counts with that side).
    """
    d_left = sum(series.degrees[: j - 1]) - sum(series.node_degrees[: j - 1])
    d_right = sum(series.degrees[j:]) - sum(series.node_degrees[j - 1 :])
    return d_left, d_right


def effective_to_eh(series: EffectiveSeries) -> EHSeries:
    """Re-concentrate a refined effective series.

    Component j regains the side-sums as base points at its nodes: the bundle
    becomes L_{j,j}(d'_left P_j + d'_right Q_j) and the vanishing shifts up by
    the matching side-sum.  Inverse of :func:`eh_to_effective` on refined
    series.  Rejects non-refined input; by condition (b) no side-sum of a
    valid series is negative.  The output has the checked shapes, degrees and
    labels by construction and is built unchecked.
    """
    p = series.params
    verdict = check_effective(series)
    if not verdict.valid or not verdict.refined:
        raise NotRefinedError(verdict.problem or "series is not refined")
    degrees, node_degrees = series.degrees, series.node_degrees
    # side_sums(series, j) for every j, as running sums of d_m - a_m (left)
    # and d_{m+1} - a_m (right); condition (b), r <= a_m <= min(d_m, d_{m+1}),
    # makes every term, and so every side-sum, >= 0
    lefts = list(accumulate(map(operator.sub, degrees, node_degrees), initial=0))
    rights = list(accumulate(map(operator.sub, degrees[:0:-1], node_degrees[::-1]), initial=0))
    bundles, vanish_p, vanish_q = _twist(
        series.bundles, series.w_p, series.w_q, lefts, rights[::-1]
    )
    return _unchecked(
        EHSeries, params=p, bundles=bundles, vanish_p=vanish_p, vanish_q=vanish_q
    )


def effective_vanishing_from_tableau(t: Tableau, i: int) -> VanishingSequence:
    """Node vanishing of the effective series encoded by a tableau.

    Closed form w_s(i) = r - s + beta(i, s) - beta(i, r); the last entry is
    always 0.
    """
    p = t.params
    if not 0 <= i <= p.g:
        raise ValueError(f"component index {i} outside 0..{p.g}")
    fills = t.column_fills
    base = p.r - fills[p.r][i]
    return VanishingSequence._checked(
        tuple([base - s + col[i] for s, col in enumerate(fills)])
    )


@dataclass(frozen=True)
class ConcentrationEntry:
    """Restriction of the series' bundle to one component, degree moved to C_1.

    kind "trivial": the structure sheaf (index in the last column);
    kind "point": O(x) for the point with x + c_p P_i linearly equivalent to
    c_q Q_i (c_q = c_p + 1); kind "generic": O(x) for a free point.
    """

    component: int
    kind: str  # "trivial" | "point" | "generic"
    c_p: int | None = None
    c_q: int | None = None

    @property
    def degree(self) -> int:
        return 0 if self.kind == "trivial" else 1


@dataclass(frozen=True)
class ConcentrationDescription:
    """Degree-d bundle concentrated on component 1: head degree plus leftovers."""

    params: BNParams
    head_degree: int
    entries: tuple[ConcentrationEntry, ...]  # components 2..g

    @property
    def total_degree(self) -> int:
        return self.head_degree + sum(e.degree for e in self.entries)


def describe_concentration(t: Tableau) -> ConcentrationDescription:
    """Describe the bundle obtained by concentrating sections on component 1.

    Component 1 keeps its full retained space (degree d_1); every other
    component keeps degree <= 1: trivial when t(i) = r, otherwise the point
    bundle O(x_i) with x_i + c_p P_i equivalent to c_q Q_i where
    c_q = r + beta(i, t(i)) - t(i) - beta(i, r) and c_p = c_q - 1, and a
    generic point when i is free.
    """
    p = t.params
    fills = t.column_fills
    u_r_1 = p.d - p.r - 1 + fills[p.r][1]
    head = p.d - u_r_1 if p.g > 1 else p.d
    entries = []
    for i in range(2, p.g + 1):
        if not t.is_placed(i):
            entries.append(ConcentrationEntry(i, "generic"))
            continue
        s = t.column_of(i)
        if s == p.r:
            entries.append(ConcentrationEntry(i, "trivial"))
            continue
        c_q = p.r + fills[s][i] - s - fills[p.r][i]
        entries.append(ConcentrationEntry(i, "point", c_p=c_q - 1, c_q=c_q))
    return ConcentrationDescription(p, head, tuple(entries))
