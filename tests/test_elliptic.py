import pytest
from hypothesis import given, settings, strategies as st

from bnchains import (
    BNParams,
    BundleClass,
    SeriesFamily,
    Tableau,
    UniqueSeries,
    VanishingSequence,
    bundle_from_tableau,
    check_eh_series,
    check_vanishing_pair,
    component_intersection,
    eh_series_from_tableau,
    enumerate_tableaux,
    propagate_vanishing,
    vanishing_from_tableau,
)
from bnchains.elliptic import EHSeries, SeriesCheck
from bnchains.verify import sweep_params

from worked_example import EH_662, PARAMS_662, tableau_662


def seq(*orders):
    return VanishingSequence(tuple(orders))


def test_h0():
    assert BundleClass.special(1, 6, 2).h0() == 6
    assert BundleClass.special(1, 0, 0).h0() == 1
    assert BundleClass.generic(1, 0).h0() == 0
    assert BundleClass.special(1, -2, 1).h0() == 0
    assert BundleClass.special(2, 3, 0).h0() == 3


def test_bundle_equality_rules():
    a = BundleClass.special(1, 6, 2)
    b = BundleClass.special(1, 6, 2)
    c = BundleClass.special(1, 6, 3)
    assert a == b and a != c
    g1 = BundleClass.generic(1, 6)
    assert g1 == BundleClass.generic(1, 6)  # same component, default tag
    assert g1.tag == "gen1"
    assert g1 != BundleClass.generic(1, 6, tag="other")
    assert g1 == BundleClass.generic(1, 6, tag=g1.tag)
    assert g1 != a
    with pytest.raises(ValueError):
        BundleClass(1, 6)  # neither pinned nor tagged
    with pytest.raises(ValueError, match="exactly one of a, tag"):
        BundleClass.special(1, 6, None)


def test_vanishing_sequence_validation():
    with pytest.raises(ValueError):
        seq(2, 2, 0)
    with pytest.raises(ValueError):
        seq(2, 1, -1)
    assert seq(2, 1, 0).orders == (2, 1, 0)


def _reference_vanishing_check(values) -> tuple[int, ...]:
    """The constructor's checks as one loop, the form they had before."""
    orders = tuple(int(v) for v in values)
    if not orders:
        raise ValueError("vanishing sequence must be non-empty")
    for x, y in zip(orders, orders[1:]):
        if x <= y:
            raise ValueError(f"orders not strictly decreasing: {orders}")
    if orders[-1] < 0:
        raise ValueError(f"orders must be non-negative: {orders}")
    return orders


def _outcome(build, values):
    try:
        return build(values)
    except (ValueError, TypeError, OverflowError) as exc:
        return type(exc), str(exc)


_order_entries = st.one_of(
    st.integers(-3, 8),
    st.integers(),
    st.booleans(),
    st.floats(allow_nan=True, allow_infinity=True),
    st.floats(-3, 8),
    st.sampled_from(["2", "-1", "x", None]),
)


@given(
    st.one_of(
        st.lists(_order_entries, max_size=6),
        # mostly decreasing runs, so that accepted sequences are common too
        st.lists(st.integers(-2, 3), max_size=6).map(
            lambda steps: [sum(steps[i:]) for i in range(len(steps))]
        ),
    ),
    st.booleans(),
)
@settings(max_examples=400, deadline=None)
def test_vanishing_constructor_matches_the_loop_check(values, as_tuple):
    values = tuple(values) if as_tuple else values
    expected = _outcome(_reference_vanishing_check, values)
    got = _outcome(lambda v: VanishingSequence(v).orders, values)
    assert got == expected


def test_shifted_below_zero_raises():
    assert seq(3, 1, 0).shifted(2) == seq(5, 3, 2)
    assert seq(5, 4, 2).shifted(-2) == seq(3, 2, 0)
    with pytest.raises(ValueError, match="non-negative"):
        seq(3, 1, 0).shifted(-1)
    with pytest.raises(ValueError, match="non-negative"):
        seq(5, 4, 2).shifted(-3)


def test_check_vanishing_pair_examples():
    res = check_vanishing_pair(6, seq(3, 2, 0), seq(5, 3, 2))
    assert res.ok and res.equality_index is None
    res = check_vanishing_pair(6, seq(6, 4, 3), seq(3, 2, 0))
    assert not res.ok and "two equalities" in res.problem
    res = check_vanishing_pair(2, seq(1, 0), seq(1, 0))
    assert res.ok and res.equality_index is None
    res = check_vanishing_pair(4, seq(3, 2, 0), seq(5, 3, 2))
    assert not res.ok and "exceeds" in res.problem
    res = check_vanishing_pair(6, seq(6, 4, 3), seq(2, 1, 0))
    assert res.ok and res.equality_index == 0


def test_propagate_vanishing_family():
    fam = propagate_vanishing(6, seq(6, 4, 3))
    assert isinstance(fam, SeriesFamily)
    assert fam.vanish_p.orders == (3, 2, 0)
    assert fam.vanish_q.orders == (5, 3, 2)
    assert propagate_vanishing(6, seq(6, 4, 0)) is None  # u_r = 0 blocks the family


def test_propagate_vanishing_unique():
    res = propagate_vanishing(6, seq(6, 4, 3), t0=1)
    assert isinstance(res, UniqueSeries)
    assert res.a == 2
    assert res.vanish_p.orders == (3, 2, 0)
    assert res.vanish_q.orders == (5, 4, 2)
    # adjacent orders block the choice
    assert propagate_vanishing(3, seq(3, 2, 1), t0=1) is None
    # u_r = 0 blocks any t0 != r
    assert propagate_vanishing(6, seq(6, 4, 0), t0=1) is None
    # ... but not t0 = r
    res = propagate_vanishing(6, seq(6, 4, 0), t0=2)
    assert isinstance(res, UniqueSeries) and res.a == 6
    assert res.vanish_q.orders == (5, 3, 0)


def test_propagate_vanishing_rejects_bad_input():
    with pytest.raises(ValueError):
        propagate_vanishing(2, seq(3, 1, 0))
    with pytest.raises(ValueError):
        propagate_vanishing(6, seq(6, 4, 3), t0=5)


@given(
    st.integers(0, 3).flatmap(
        lambda r: st.tuples(
            st.just(r),
            st.lists(
                st.integers(0, 9), min_size=r + 1, max_size=r + 1, unique=True
            ),
        )
    )
)
@settings(max_examples=120, deadline=None)
def test_propagate_vanishing_conditions(data):
    r, raw = data
    orders = tuple(sorted(raw, reverse=True))
    u = seq(*orders)
    d = orders[0] + 2
    fam = propagate_vanishing(d, u)
    assert (fam is not None) == (orders[-1] > 0)
    results = [fam]
    for t0 in range(r + 1):
        res = propagate_vanishing(d, u, t0=t0)
        expected = (t0 == 0 or u[t0] + 1 < u[t0 - 1]) and (t0 == r or u[r] > 0)
        assert (res is not None) == expected
        if res is not None:
            assert res.a == d - u[t0]
            assert res.vanish_q[t0] == u[t0]
        results.append(res)
    # the outputs are built trusted: each passes the constructor's checks
    for res in filter(None, results):
        for x in (res.vanish_p, res.vanish_q):
            assert x == VanishingSequence(x.orders)


def test_vanishing_from_tableau_worked_example():
    t = tableau_662()
    assert vanishing_from_tableau(t, 1).orders == (6, 4, 3)
    assert vanishing_from_tableau(t, 0).orders == (6, 5, 4)
    assert vanishing_from_tableau(t, 6).orders == (2, 1, 0)


def test_bundle_from_tableau_worked_example():
    t = tableau_662()
    assert bundle_from_tableau(t, 2) == BundleClass.special(2, 6, 2)
    assert bundle_from_tableau(t, 4) == BundleClass.special(4, 6, 5)
    free = Tableau(BNParams(5, 4, 1), ((1, 2), (4, 5)))
    b = bundle_from_tableau(free, 3)
    assert not b.is_special and b.degree == 4


def test_eh_series_matches_worked_example():
    series = eh_series_from_tableau(tableau_662())
    for i in range(1, 7):
        a, vp, vq = EH_662[i]
        bundle, got_p, got_q = series.component(i)
        assert bundle.is_special and bundle.a == a
        assert got_p.orders == vp
        assert got_q.orders == vq
    verdict = check_eh_series(series)
    assert verdict.valid and verdict.refined


def test_check_eh_series_perturbed():
    series = eh_series_from_tableau(tableau_662())
    vq = list(series.vanish_q)
    vq[1] = seq(5, 4, 1)  # Q_2 bottom order dropped by one
    broken = EHSeries(series.params, series.bundles, series.vanish_p, tuple(vq))
    verdict = check_eh_series(broken)
    assert not verdict.valid
    assert "Q_2" in verdict.problem


def test_check_eh_series_single_component():
    p = BNParams(1, 1, 0)
    series = EHSeries(
        p,
        (BundleClass.generic(1, 1),),
        (seq(0),),
        (seq(0),),
    )
    verdict = check_eh_series(series)
    assert verdict.valid and verdict.refined


@pytest.mark.parametrize(
    "params, sides, problem",
    [
        # every node sum is d, but component 1's pair sum exceeds d
        (
            BNParams(2, 2, 0),
            [((9,), (2,)), ((0,), (7,))],
            "component 1: vp[0] + vq[0] = 11 exceeds degree 2",
        ),
        # no node at all, and component 1's pair sums equal d twice
        (
            BNParams(1, 2, 1),
            [((2, 0), (2, 0))],
            "component 1: two equalities, at t = 0 and t = 1",
        ),
        # a series broken at a node and at a component reports the node
        (
            BNParams(2, 2, 0),
            [((9,), (1,)), ((0,), (7,))],
            "node Q_1: vanish_q[0] + vanish_p[0] = 1 < 2",
        ),
    ],
)
def test_check_eh_series_checks_each_component(params, sides, problem):
    bundles = tuple(BundleClass.generic(i, params.d) for i in range(1, params.g + 1))
    vanish_p = tuple(seq(*vp) for vp, _ in sides)
    vanish_q = tuple(seq(*vq) for _, vq in sides)
    series = EHSeries(params, bundles, vanish_p, vanish_q)
    assert check_eh_series(series) == SeriesCheck(False, False, problem)


def test_eh_series_smallest_chain():
    p = BNParams(1, 1, 0)
    (t,) = enumerate_tableaux(p)
    series = eh_series_from_tableau(t)
    bundle, vp, vq = series.component(1)
    assert not bundle.is_special
    assert vp.orders == (0,)
    assert vq.orders == (0,)


def test_eh_series_is_a_pure_function():
    # every tableau with a free index up to g = 6: generic classes are named
    # by their component, so building the series twice gives equal values
    seen = 0
    for p in sweep_params(6):
        for t in enumerate_tableaux(p):
            if t.free_indices:
                seen += 1
                series = eh_series_from_tableau(t)
                assert series == eh_series_from_tableau(t)
                for i in t.free_indices:
                    assert series.bundles[i - 1].tag == f"gen{i}"
    assert seen > 0


def test_component_intersection():
    t1 = tableau_662()
    t2 = Tableau(PARAMS_662, ((1, 2, 3), (4, 5, 6)))
    assert not component_intersection(t1, t2).intersects
    self_meet = component_intersection(t1, t1)
    assert self_meet.intersects and self_meet.dimension == 0
    p = BNParams(5, 4, 1)
    a = Tableau(p, ((1, 2), (3, 4)))
    b = Tableau(p, ((1, 2), (3, 5)))
    res = component_intersection(a, b)
    assert res.intersects and res.dimension == 0
    with pytest.raises(ValueError):
        component_intersection(t1, a)


def params_strategy(max_g=6):
    return (
        st.tuples(
            st.integers(1, max_g), st.integers(0, 2 * max_g), st.integers(0, 3)
        )
        .map(lambda t: BNParams(*t))
        .filter(lambda p: p.rho >= 0 and p.kbar >= 0)
    )


@st.composite
def tableau_strategy(draw):
    params = draw(params_strategy())
    tableaux = list(enumerate_tableaux(params))
    index = draw(st.integers(0, len(tableaux) - 1))
    return tableaux[index]


@given(tableau_strategy())
@settings(max_examples=60, deadline=None)
def test_tableau_series_always_refined(t):
    series = eh_series_from_tableau(t)
    verdict = check_eh_series(series)
    assert verdict.valid and verdict.refined
    p = t.params
    for i in range(1, p.g):
        vq = series.vanish_q[i - 1]
        vp = series.vanish_p[i]
        for s in range(p.k):
            assert vq[s] + vp[p.r - s] == p.d
    generic = sum(1 for b in series.bundles if not b.is_special)
    assert generic == p.rho


@given(tableau_strategy())
@settings(max_examples=60, deadline=None)
def test_series_consistent_with_propagation(t):
    # every placed component is the unique extension of the previous node
    # vanishing at its column; the pinned bundle agrees
    p = t.params
    series = eh_series_from_tableau(t)
    for i in range(1, p.g + 1):
        u_prev = vanishing_from_tableau(t, i - 1)
        bundle, vp, vq = series.component(i)
        if t.is_placed(i):
            res = propagate_vanishing(p.d, u_prev, t0=t.column_of(i))
            assert isinstance(res, UniqueSeries)
            assert res.a == bundle.a
            assert res.vanish_p == vp
            assert res.vanish_q == vq
        else:
            res = propagate_vanishing(p.d, u_prev)
            assert isinstance(res, SeriesFamily)
            assert res.vanish_p == vp
            assert res.vanish_q == vq


@given(tableau_strategy())
@settings(max_examples=40, deadline=None)
def test_intersection_symmetry_and_self(t):
    res = component_intersection(t, t)
    assert res.intersects and res.dimension == t.params.rho
