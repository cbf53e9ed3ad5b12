"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines and timings.  Expected values are frozen from independent derivations
(see worked_example.py); every stated runtime bound is asserted.
"""

import json
import random
import time
from contextlib import contextmanager
from fractions import Fraction as F
from math import comb

from bnchains import (
    BNParams,
    ChainGeometry,
    ChipConfig,
    Node,
    TropicalDivisor,
    VanishingSequence,
    bn_rank,
    check_eh_series,
    check_genericity,
    check_vanishing_pair,
    chips_from_divisor,
    count_components,
    describe_concentration,
    dhar_reduce,
    divisor_from_tableau,
    effective_to_eh,
    effective_vanishing_from_tableau,
    eh_series_from_tableau,
    eh_to_effective,
    enumerate_tableaux,
    hook_count,
    is_equivalent_to_effective,
    is_winnable,
    point_on_loop,
    propagate_vanishing,
    subdivide_chain,
    tropical_rank,
    tropical_vanishing_table,
)
from bnchains import serialize as ser
from bnchains.verify import random_generic_geometry, sweep_params

from worked_example import (
    CONCENTRATION_662,
    EFFECTIVE_662,
    EH_662,
    NODE_DEGREES_662,
    PARAMS_662,
    tableau_662,
)


@contextmanager
def criterion(n, description, budget=None):
    start = time.monotonic()
    try:
        yield
    except BaseException:
        print(f"[acceptance] criterion {n}: FAIL - {description}")
        raise
    elapsed = time.monotonic() - start
    if budget is not None:
        assert elapsed < budget, f"criterion {n} took {elapsed:.1f}s, budget {budget}s"
    print(f"[acceptance] criterion {n}: PASS - {description} ({elapsed:.2f}s)")


GEOM_662 = ChainGeometry(tuple((F(10 + k), F(1)) for k in range(6)))


def test_criterion_1_concentrated_series_golden():
    with criterion(1, "concentrated series table at (6,6,2)", budget=1.0):
        series = eh_series_from_tableau(tableau_662())
        for i in range(1, 7):
            a, vp, vq = EH_662[i]
            bundle, got_p, got_q = series.component(i)
            assert bundle.is_special and bundle.a == a and bundle.degree == 6
            assert got_p.orders == vp
            assert got_q.orders == vq
        verdict = check_eh_series(series)
        assert verdict.valid and verdict.refined


def test_criterion_2_effective_series_golden():
    with criterion(2, "effective series table at (6,6,2)", budget=1.0):
        series = eh_series_from_tableau(tableau_662())
        eff = eh_to_effective(series)
        assert eff.degrees == (3, 4, 4, 4, 4, 3)
        for i in range(1, 7):
            d_i, a, wp, wq = EFFECTIVE_662[i]
            assert eff.degrees[i - 1] == d_i
            assert eff.w_p[i - 1].orders == wp
            assert eff.w_q[i - 1].orders == wq
        # node degrees from a = d - u_r(left side) - u_r(right side)
        expected_a = tuple(
            6 - series.vanish_q[alpha - 1][2] - series.vanish_p[alpha][2]
            for alpha in range(1, 6)
        )
        assert expected_a == NODE_DEGREES_662
        assert eff.node_degrees == expected_a
        # triple check: degree bookkeeping and refined node sums pin the same values
        assert sum(eff.degrees) - sum(eff.node_degrees) == 6
        for alpha in range(1, 6):
            wq, wp = eff.w_q[alpha - 1], eff.w_p[alpha]
            sums = {wq[t] + wp[2 - t] for t in range(3)}
            assert sums == {eff.node_degrees[alpha - 1]}


def test_criterion_3_concentration_golden():
    with criterion(3, "concentration description at (6,6,2)", budget=1.0):
        desc = describe_concentration(tableau_662())
        head, entries = CONCENTRATION_662
        assert desc.head_degree == head
        got = tuple((e.component, e.kind, e.c_p, e.c_q) for e in desc.entries)
        assert got == entries


def test_criterion_4_counting():
    with criterion(4, "component counts and hook formula, g <= 8", budget=10.0):
        assert count_components(BNParams(6, 6, 2)) == 5
        assert count_components(BNParams(5, 4, 1)) == 10
        assert count_components(BNParams(6, 4, 1)) == 5
        for g in range(1, 9):
            for r in range(0, g + 1):
                for d in range(0, 2 * g + 1):
                    p = BNParams(g, d, r)
                    if p.rho < 0:
                        assert count_components(p) == 0
                        assert list(enumerate_tableaux(p)) == []
                        continue
                    tableaux = list(enumerate_tableaux(p))
                    if p.kbar >= 1:
                        expected = comb(g, p.rho) * hook_count(p.k, p.kbar)
                    else:
                        expected = count_components(p)
                    assert len(tableaux) == expected == count_components(p)
        for k in range(1, 5):
            for kbar in range(1, 5):
                shape_params = BNParams(k * kbar, k * kbar + (k - 1) - kbar, k - 1)
                assert shape_params.k == k and shape_params.kbar == kbar
                assert shape_params.rho == 0
                enumerated = len(list(enumerate_tableaux(shape_params)))
                assert hook_count(k, kbar) == enumerated


def test_criterion_5_rank_certification():
    with criterion(
        5, "rank 2 at (6,6,2), tropical and chip-firing oracle", budget=300.0
    ):
        tableaux = list(enumerate_tableaux(PARAMS_662))
        assert len(tableaux) == 5
        assert check_genericity(GEOM_662).generic
        for t in tableaux:
            divisor = divisor_from_tableau(t, GEOM_662)
            assert tropical_rank(GEOM_662, divisor) == 2
            graph = subdivide_chain(GEOM_662, [pt for pt, _ in divisor.points])
            chips = chips_from_divisor(graph, divisor)
            assert bn_rank(graph, chips) == 2


def test_criterion_6_vanishing_agreement():
    with criterion(
        6, "dynamic = closed form = effective vanishing, g <= 8", budget=120.0
    ):
        rng = random.Random(0)
        for p in sweep_params(8):
            geoms = [random_generic_geometry(p.g, rng) for _ in range(3)]
            for t in enumerate_tableaux(p):
                for geom in geoms:
                    divisor = divisor_from_tableau(t, geom, seed=0)
                    table = tropical_vanishing_table(geom, divisor, p.r)
                    for i in range(p.g + 1):
                        closed = VanishingSequence(
                            tuple(
                                p.r - s + t.column_fill(i, s) - t.column_fill(i, p.r)
                                for s in range(p.k)
                            )
                        )
                        effective = effective_vanishing_from_tableau(t, i)
                        assert table.u[i] == closed == effective


def test_criterion_7_round_trips():
    with criterion(7, "conversion and JSON round trips, g <= 8", budget=120.0):
        rng = random.Random(1)
        for p in sweep_params(8):
            for t in enumerate_tableaux(p):
                series = eh_series_from_tableau(t)
                eff = eh_to_effective(series)
                assert effective_to_eh(eff) == series
                assert eh_to_effective(effective_to_eh(eff)) == eff
                obj = json.loads(json.dumps(ser.tableau_to_obj(t)))
                assert ser.tableau_from_obj(obj) == t
                obj = json.loads(json.dumps(ser.eh_series_to_obj(series)))
                assert ser.eh_series_from_obj(obj) == series
                obj = json.loads(json.dumps(ser.effective_series_to_obj(eff)))
                assert ser.effective_series_from_obj(obj) == eff
            if p.g <= 6:
                geom = random_generic_geometry(p.g, rng)
                gobj = json.loads(json.dumps(ser.geometry_to_obj(geom)))
                assert ser.geometry_from_obj(gobj) == geom
                for t in enumerate_tableaux(p):
                    divisor = divisor_from_tableau(t, geom, seed=1)
                    dobj = json.loads(json.dumps(ser.divisor_to_obj(divisor)))
                    assert ser.divisor_from_obj(dobj, geom) == divisor
                    table = tropical_vanishing_table(geom, divisor, p.r)
                    tobj = json.loads(json.dumps(ser.table_to_obj(table)))
                    assert tobj["u"][0] == list(table.u[0].orders)


def _random_divisor(geom, rng, effective, max_points=4, coord_den=8):
    support = {}
    for _ in range(rng.randrange(1, max_points + 1)):
        mult = rng.randrange(1, 4) if effective else rng.choice([-3, -2, -1, 1, 2, 3])
        if rng.random() < 0.4:
            pt = Node(rng.randrange(0, geom.g + 1))
        else:
            k = rng.randrange(1, geom.g + 1)
            c = geom.circumference(k)
            pt = point_on_loop(
                geom, k, c * F(rng.randrange(1, coord_den), coord_den)
            )
        support[pt] = support.get(pt, 0) + mult
    return TropicalDivisor.from_dict(support)


def test_criterion_8_oracle_cross_validation():
    with criterion(
        8, "200 winnability + 50 rank agreements against the oracle", budget=600.0
    ):
        rng = random.Random(2)
        winnability_done = 0
        while winnability_done < 200:
            g = rng.randrange(1, 5)
            lengths = tuple(
                (F(rng.randrange(1, 5)), F(rng.randrange(1, 5), 2))
                for _ in range(g)
            )
            geom = ChainGeometry(lengths)
            divisor = _random_divisor(geom, rng, effective=False)
            if not -6 <= divisor.degree <= 6:
                continue
            tropical_side = is_equivalent_to_effective(geom, divisor)
            graph = subdivide_chain(geom, [pt for pt, _ in divisor.points])
            oracle_side = is_winnable(graph, chips_from_divisor(graph, divisor), 0)
            assert tropical_side == oracle_side, (geom, divisor)
            winnability_done += 1

        rank_done = 0
        while rank_done < 50:
            g = rng.randrange(1, 5)
            bound = max(2 * g - 2, 1)
            geom = ChainGeometry(
                tuple((F(bound + j), F(1)) for j in range(g))
            )
            divisor = _random_divisor(geom, rng, effective=True, max_points=2, coord_den=4)
            if divisor.degree > min(6, g + 2):
                continue
            graph = subdivide_chain(geom, [pt for pt, _ in divisor.points])
            tr = tropical_rank(geom, divisor)
            br = bn_rank(graph, chips_from_divisor(graph, divisor))
            assert tr == br, (geom, divisor)
            rank_done += 1


def test_criterion_9_property_suite():
    with criterion(9, "pair bounds, existence, case tags, idempotence, genericity"):
        rng = random.Random(3)

        # at-most-one-equality: the checker agrees with the direct predicate
        for _ in range(300):
            r = rng.randrange(0, 4)
            d = rng.randrange(0, 10)
            vp = VanishingSequence(
                tuple(sorted(rng.sample(range(0, 10), r + 1), reverse=True))
            )
            vq = VanishingSequence(
                tuple(sorted(rng.sample(range(0, 10), r + 1), reverse=True))
            )
            sums = [vp[t] + vq[r - t] for t in range(r + 1)]
            expected = all(s <= d for s in sums) and sums.count(d) <= 1
            assert check_vanishing_pair(d, vp, vq).ok == expected

        # existence conditions for prescribed-vanishing series
        for _ in range(300):
            r = rng.randrange(0, 4)
            u = VanishingSequence(
                tuple(sorted(rng.sample(range(0, 9), r + 1), reverse=True))
            )
            d = u[0] + rng.randrange(0, 3)
            assert (propagate_vanishing(d, u) is not None) == (u[r] > 0)
            for t0 in range(r + 1):
                ok = (t0 == 0 or u[t0] + 1 < u[t0 - 1]) and (t0 == r or u[r] > 0)
                assert (propagate_vanishing(d, u, t0=t0) is not None) == ok

        # case transitions of the dynamic table on tableau divisors
        for p in sweep_params(5):
            if p.kbar < 1:
                continue
            geom = random_generic_geometry(p.g, rng)
            for t in enumerate_tableaux(p):
                divisor = divisor_from_tableau(t, geom, seed=4)
                table = tropical_vanishing_table(geom, divisor, p.r)
                for i in range(1, p.g + 1):
                    tag = table.case_tags[i - 1]
                    if not t.is_placed(i):
                        assert tag == "e"
                    elif t.column_of(i) == p.r:
                        assert tag == "b"
                        assert table.u[i - 1][p.r] == 0
                    else:
                        assert tag == "d"

        # dhar idempotence on random chains and configurations
        for _ in range(25):
            g = rng.randrange(1, 4)
            geom = ChainGeometry(
                tuple(
                    (F(rng.randrange(1, 6)), F(rng.randrange(1, 6)))
                    for _ in range(g)
                )
            )
            graph = subdivide_chain(geom)
            chips = ChipConfig(
                {
                    rng.randrange(graph.vertex_count): rng.randrange(-3, 4)
                    for _ in range(4)
                }
            )
            q = rng.randrange(graph.vertex_count)
            once = dhar_reduce(graph, chips, q)
            assert dhar_reduce(graph, once, q) == once

        # genericity detection
        bad = ChainGeometry(tuple([(F(13), F(1))] * 5 + [(F(1), F(3))]))
        report = check_genericity(bad)
        assert not report.generic and 6 in report.failing_loops
        assert check_genericity(GEOM_662).generic
