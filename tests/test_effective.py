from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from bnchains import (
    BNParams,
    BundleClass,
    ChainGeometry,
    NotRefinedError,
    check_effective,
    describe_concentration,
    divisor_from_tableau,
    effective_to_eh,
    effective_vanishing_from_tableau,
    eh_series_from_tableau,
    eh_to_effective,
    enumerate_tableaux,
    tropical_vanishing_table,
)
from bnchains.effective import EffectiveSeries, side_sums
from bnchains.elliptic import EHSeries, VanishingSequence
from bnchains.verify import sweep_params

from worked_example import (
    CONCENTRATION_662,
    EFFECTIVE_662,
    NODE_DEGREES_662,
    PARAMS_662,
    tableau_662,
)


def seq(*orders):
    return VanishingSequence(tuple(orders))


@pytest.fixture
def effective_662():
    return eh_to_effective(eh_series_from_tableau(tableau_662()))


def test_effective_matches_worked_example(effective_662):
    eff = effective_662
    assert eff.degrees == (3, 4, 4, 4, 4, 3)
    assert eff.node_degrees == NODE_DEGREES_662
    for i in range(1, 7):
        d_i, a, wp, wq = EFFECTIVE_662[i]
        assert eff.degrees[i - 1] == d_i
        assert eff.bundles[i - 1].is_special and eff.bundles[i - 1].a == a
        assert eff.w_p[i - 1].orders == wp
        assert eff.w_q[i - 1].orders == wq
    verdict = check_effective(eff)
    assert verdict.valid and verdict.refined


def test_node_degrees_satisfy_degree_identity(effective_662):
    eff = effective_662
    assert sum(eff.degrees) - sum(eff.node_degrees) == 6
    # refined node sums reproduce the node degrees
    r = eff.params.r
    for alpha in range(1, 6):
        a = eff.node_degrees[alpha - 1]
        wq = eff.w_q[alpha - 1]
        wp = eff.w_p[alpha]
        assert all(wq[t] + wp[r - t] == a for t in range(r + 1))


def test_component3_example(effective_662):
    assert effective_662.degrees[2] == 4
    assert effective_662.w_q[2].orders == (4, 2, 0)


def test_round_trip_worked_example(effective_662):
    series = eh_series_from_tableau(tableau_662())
    assert effective_to_eh(effective_662) == series


def test_side_sums_worked_example(effective_662):
    # component 1 regains 3 on the right: u_Q(1) = w_Q(1) + 3 = (6,4,3)
    assert side_sums(effective_662, 1) == (0, 3)
    assert side_sums(effective_662, 3) == (1, 1)
    assert side_sums(effective_662, 6) == (3, 0)


@st.composite
def condition_b_shape(draw):
    """r, degrees d_1..d_g and node degrees with r <= a_m <= min(d_m, d_{m+1})."""
    r = draw(st.integers(0, 3))
    degrees = draw(st.lists(st.integers(r, r + 6), min_size=1, max_size=8))
    nodes = [draw(st.integers(r, min(left, right))) for left, right in zip(degrees, degrees[1:])]
    return r, degrees, nodes


@given(condition_b_shape())
@settings(max_examples=200, deadline=None)
def test_side_sums_are_never_negative_under_condition_b(shape):
    # why effective_to_eh needs no check of its own on the side sums
    r, degrees, nodes = shape
    g = len(degrees)
    lowest = seq(*range(r, -1, -1))
    series = EffectiveSeries(
        BNParams(g, sum(degrees) - sum(nodes), r),
        tuple(degrees),
        tuple(BundleClass.generic(i, d_i) for i, d_i in enumerate(degrees, start=1)),
        (lowest,) * g,
        (lowest,) * g,
        tuple(nodes),
    )
    for j in range(1, g + 1):
        left, right = side_sums(series, j)
        assert left >= 0 and right >= 0


def test_eh_to_effective_rejects_non_refined():
    p = BNParams(2, 2, 0)
    from bnchains.elliptic import BundleClass

    series = EHSeries(
        p,
        (BundleClass.generic(1, 2), BundleClass.generic(2, 2)),
        (seq(0), seq(1)),
        (seq(2), seq(0)),
    )
    # node sum 2 + ... : vanish_q(1)[0] + vanish_p(2)[0] = 2 + 1 = 3 > 2, valid not refined
    with pytest.raises(NotRefinedError):
        eh_to_effective(series)


def test_check_effective_detects_raised_node_degree(effective_662):
    eff = effective_662
    raised = list(eff.node_degrees)
    raised[0] = 4
    broken = EffectiveSeries(
        eff.params, eff.degrees, eff.bundles, eff.w_p, eff.w_q, tuple(raised)
    )
    verdict = check_effective(broken)
    assert not verdict.valid  # degree bookkeeping breaks first


def test_check_effective_detects_node_sum_violation(effective_662):
    # raise a_1 and d_1 together so only the node-sum condition fails
    eff = effective_662
    from bnchains.elliptic import BundleClass

    raised = list(eff.node_degrees)
    raised[0] = 4
    degrees = list(eff.degrees)
    degrees[0] = 4
    bundles = list(eff.bundles)
    bundles[0] = BundleClass.special(1, 4, eff.bundles[0].a)
    broken = EffectiveSeries(
        eff.params,
        tuple(degrees),
        tuple(bundles),
        eff.w_p,
        eff.w_q,
        tuple(raised),
    )
    verdict = check_effective(broken)
    assert not verdict.valid
    assert "Q_1" in verdict.problem and "< a = 4" in verdict.problem


def test_check_effective_single_component():
    p = BNParams(1, 1, 0)
    (t,) = enumerate_tableaux(p)
    series = eh_series_from_tableau(t)
    eff = eh_to_effective(series)
    assert eff.degrees == (1,)
    assert eff.node_degrees == ()
    verdict = check_effective(eff)
    assert verdict.valid and verdict.refined
    assert effective_to_eh(eff) == series


def test_effective_vanishing_closed_form():
    t = tableau_662()
    assert effective_vanishing_from_tableau(t, 1).orders == (3, 1, 0)
    assert effective_vanishing_from_tableau(t, 3).orders == (4, 2, 0)
    assert effective_vanishing_from_tableau(t, 0).orders == (2, 1, 0)


def test_describe_concentration_worked_example():
    desc = describe_concentration(tableau_662())
    head, entries = CONCENTRATION_662
    assert desc.head_degree == head
    got = tuple((e.component, e.kind, e.c_p, e.c_q) for e in desc.entries)
    assert got == entries
    assert desc.total_degree == 6


def test_describe_concentration_single_component():
    p = BNParams(1, 1, 0)
    (t,) = enumerate_tableaux(p)
    desc = describe_concentration(t)
    assert desc.head_degree == 1
    assert desc.entries == ()


@pytest.mark.parametrize(
    "tableaux,lengths",
    [
        ([tableau_662()], [(10 + k, 1) for k in range(6)]),
        (list(enumerate_tableaux(PARAMS_662)), [(10 + k, 1) for k in range(6)]),
        (list(enumerate_tableaux(BNParams(1, 1, 0))), [(3, 1)]),
    ],
    ids=["worked-example", "all-662", "smallest-chain"],
)
def test_tropical_table_matches_closed_form(tableaux, lengths):
    # the dynamic tropical table of each tableau divisor is the closed-form w
    geom = ChainGeometry(tuple((Fraction(l), Fraction(m)) for l, m in lengths))
    for t in tableaux:
        table = tropical_vanishing_table(geom, divisor_from_tableau(t, geom), t.params.r)
        for i in range(t.params.g + 1):
            assert list(table.u[i]) == list(effective_vanishing_from_tableau(t, i).orders)


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
def test_round_trip_and_degree_audit(t):
    series = eh_series_from_tableau(t)
    eff = eh_to_effective(series)
    verdict = check_effective(eff)
    assert verdict.valid and verdict.refined
    assert effective_to_eh(eff) == series
    # second round trip is the identity on the effective side
    assert eh_to_effective(effective_to_eh(eff)) == eff
    p = t.params
    assert sum(eff.degrees) - sum(eff.node_degrees) == p.d
    for j in range(1, p.g + 1):
        left, right = side_sums(eff, j)
        assert left >= 0 and right >= 0
        assert eff.degrees[j - 1] + left + right == p.d
    for i in range(p.g + 1):
        assert effective_vanishing_from_tableau(t, i)[p.r] == 0


@given(tableau_strategy())
@settings(max_examples=60, deadline=None)
def test_effective_w_matches_shifted_series(t):
    # the closed form for w at Q_i equals the concentrated orders minus u_r
    p = t.params
    series = eh_series_from_tableau(t)
    eff = eh_to_effective(series)
    for i in range(1, p.g + 1):
        uq = series.vanish_q[i - 1]
        expected = effective_vanishing_from_tableau(t, i)
        if i < p.g:
            assert eff.w_q[i - 1] == uq.shifted(-uq[p.r])
            assert eff.w_q[i - 1] == expected
        else:
            assert eff.w_q[i - 1] == uq


@given(tableau_strategy())
@settings(max_examples=40, deadline=None)
def test_concentration_total_degree(t):
    desc = describe_concentration(t)
    assert desc.total_degree == t.params.d


def _rebuilt(bundles, sequences):
    """The bundles and sequences built again by their public constructors."""
    return (
        tuple(BundleClass(b.component, b.degree, a=b.a, tag=b.tag) for b in bundles),
        *(tuple(VanishingSequence(seq.orders) for seq in side) for side in sequences),
    )


def test_trusted_sequences_pass_the_constructor():
    # shifted and the P-side of eh_series_from_tableau build their sequences
    # unchecked but for the sign, and the series builders and conversions
    # build their bundles and series unchecked; each must pass the full
    # checks unchanged
    for p in sweep_params(8):
        for t in enumerate_tableaux(p):
            series = eh_series_from_tableau(t)
            eff = eh_to_effective(series)
            back = effective_to_eh(eff)
            assert back == series
            for seq in (
                *series.vanish_p, *series.vanish_q, *eff.w_p, *eff.w_q,
                *back.vanish_p, *back.vanish_q,
            ):
                assert VanishingSequence(seq.orders) == seq
            for eh in (series, back):
                bundles, vanish_p, vanish_q = _rebuilt(eh.bundles, (eh.vanish_p, eh.vanish_q))
                assert EHSeries(eh.params, bundles, vanish_p, vanish_q) == eh
            bundles, w_p, w_q = _rebuilt(eff.bundles, (eff.w_p, eff.w_q))
            assert EffectiveSeries(
                eff.params, tuple(eff.degrees), bundles, w_p, w_q, tuple(eff.node_degrees)
            ) == eff
