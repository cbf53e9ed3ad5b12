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

from .elliptic import (
    BundleClass,
    EHSeries,
    SeriesCheck,
    VanishingSequence,
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
        if not (
            len(self.degrees) == len(self.bundles) == len(self.w_p) == len(self.w_q) == p.g
        ):
            raise ValueError(f"series needs {p.g} components")
        if len(self.node_degrees) != p.g - 1:
            raise ValueError(f"series needs {p.g - 1} node degrees")
        for i, (d_i, bundle) in enumerate(zip(self.degrees, self.bundles), start=1):
            if bundle.degree != d_i:
                raise ValueError(
                    f"component {i}: bundle degree {bundle.degree} != d_{i} = {d_i}"
                )
            if bundle.component != i:
                raise ValueError(f"component {i}: bundle labeled {bundle.component}")
        for seq in (*self.w_p, *self.w_q):
            if len(seq.orders) != p.k:
                raise ValueError(f"vanishing sequences must have length {p.k}")


def check_effective(series: EffectiveSeries) -> SeriesCheck:
    """Validate conditions (a), (b), (c); refined iff (b) holds with equality."""
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
    return SeriesCheck(True, refined)


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
    # u_r on each side of every node: the Q-side of its left component and
    # the P-side of its right one; the ends of the chain have none
    q_low = [seq.orders[r] for seq in series.vanish_q[:-1]]
    p_low = [seq.orders[r] for seq in series.vanish_p[1:]]
    degrees = []
    bundles = []
    w_p = []
    w_q = []
    sides = zip(series.bundles, series.vanish_p, series.vanish_q, [0, *p_low], [*q_low, 0])
    for i, (bundle, up, uq, left, right) in enumerate(sides, start=1):
        d_i = d - left - right
        degrees.append(d_i)
        w_p.append(up.shifted(-left) if left else up)
        w_q.append(uq.shifted(-right) if right else uq)
        if bundle.a is not None:
            bundles.append(BundleClass.special(i, d_i, bundle.a - left))
        else:
            bundles.append(BundleClass.generic(i, d_i, tag=bundle.tag))
    node_degrees = tuple([d - low_q - low_p for low_q, low_p in zip(q_low, p_low)])
    return _unchecked(
        EffectiveSeries, params=p, degrees=tuple(degrees), bundles=tuple(bundles),
        w_p=tuple(w_p), w_q=tuple(w_q), node_degrees=node_degrees,
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
    series.  Rejects non-refined input and negative side-sums.  The output has
    the checked shapes, degrees and labels by construction and is built
    unchecked.
    """
    p = series.params
    verdict = check_effective(series)
    if not verdict.valid or not verdict.refined:
        raise NotRefinedError(verdict.problem or "series is not refined")
    g, d = p.g, p.d
    degrees, node_degrees = series.degrees, series.node_degrees
    bundles = []
    vanish_p = []
    vanish_q = []
    # side_sums(series, j), kept as running sums
    d_left, d_right = 0, sum(degrees[1:]) - sum(node_degrees)
    sides = zip(series.bundles, series.w_p, series.w_q)
    for j, (bundle, wp, wq) in enumerate(sides, start=1):
        if d_left < 0 or d_right < 0:
            raise ValueError(
                f"component {j}: negative leftover degree ({d_left}, {d_right})"
            )
        if bundle.a is not None:
            bundles.append(BundleClass.special(j, d, bundle.a + d_left))
        else:
            bundles.append(BundleClass.generic(j, d, tag=bundle.tag))
        vanish_p.append(wp.shifted(d_left))
        vanish_q.append(wq.shifted(d_right))
        if j < g:
            # C_j and then the node Q_j move to the left side, C_{j+1} off the right
            a = node_degrees[j - 1]
            d_left += degrees[j - 1] - a
            d_right -= degrees[j] - a
    return _unchecked(
        EHSeries, params=p, bundles=tuple(bundles),
        vanish_p=tuple(vanish_p), vanish_q=tuple(vanish_q),
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
