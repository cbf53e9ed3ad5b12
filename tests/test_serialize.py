import hashlib
import json
from fractions import Fraction as F

import pytest
from hypothesis import example, given, settings, strategies as st

from bnchains import (
    BNParams,
    ChainGeometry,
    Interior,
    Node,
    TropicalDivisor,
    VanishingSequence,
    check_effective,
    check_eh_series,
    divisor_from_tableau,
    effective_to_eh,
    eh_series_from_tableau,
    eh_to_effective,
    enumerate_tableaux,
    describe_concentration,
    reduce_to_q0,
    tropical_vanishing_table,
)
from bnchains import serialize as ser
from bnchains.render import render_eh_series, render_effective_series
from bnchains.tropical import _exact
from bnchains.verify import sweep_params

from worked_example import tableau_662


@pytest.fixture
def geom662():
    return ChainGeometry(tuple((F(10 + k), F(1)) for k in range(6)))


def through_json(obj):
    return json.loads(json.dumps(obj))


def test_fraction_strings():
    # rationals are written by frac_to_str and read by tropical._exact alone
    assert ser.frac_to_str(F(13)) == "13/1"
    assert _exact("13/1") == 13
    assert _exact("13") == 13
    assert _exact("-3/4") == F(-3, 4)
    with pytest.raises(ValueError, match="1/0"):
        _exact("1/0")
    for bad in (None, [1], True, 1.5, "1e3", "1E-3"):
        with pytest.raises(ValueError, match="rational"):
            _exact(bad)
    # the readers hand a file's rational to _exact as it is
    geom = ser.geometry_from_obj({"g": 1, "loops": [{"l": "13", "m": "0.75"}]})
    assert geom.lengths == ((F(13), F(3, 4)),)
    assert ser.point_from_obj({"loop": 1, "coord": 2}, geom) == Interior(1, F(2))
    for bad in ("1/0", None, True, 1.5, "1e3"):
        with pytest.raises(ValueError, match="rational"):
            ser.geometry_from_obj({"g": 1, "loops": [{"l": bad, "m": "1/1"}]})
        with pytest.raises(ValueError, match="rational"):
            ser.point_from_obj({"loop": 1, "coord": bad}, geom)


def test_tableau_round_trip():
    t = tableau_662()
    obj = through_json(ser.tableau_to_obj(t))
    assert obj == {"g": 6, "d": 6, "r": 2, "rows": [[1, 2, 4], [3, 5, 6]]}
    assert ser.tableau_from_obj(obj) == t


def test_malformed_input_raises_value_error_naming_field(geom662):
    with pytest.raises(ValueError, match="rows"):
        ser.tableau_from_obj({"g": 6, "d": 6, "r": 2, "rows": 5})
    with pytest.raises(ValueError, match="rows"):
        ser.tableau_from_obj({"g": 6, "d": 6, "r": 2, "rows": [1, 2]})
    with pytest.raises(ValueError, match="divisor"):
        ser.divisor_from_obj([{"node": 0, "mult": 1}], geom662)
    with pytest.raises(ValueError, match="tableau"):
        ser.tableau_from_obj([[1, 2]])
    with pytest.raises(ValueError, match="geometry"):
        ser.geometry_from_obj([])
    with pytest.raises(ValueError, match="^loop:"):
        ser.geometry_from_obj({"g": 1, "loops": [5]})
    with pytest.raises(ValueError, match="^loops:"):
        ser.geometry_from_obj({"g": 1, "loops": None})
    with pytest.raises(ValueError, match="^point:"):
        ser.divisor_from_obj({"points": [5]}, geom662)
    with pytest.raises(ValueError, match="^points:"):
        ser.divisor_from_obj({"points": {"node": 0}}, geom662)
    obj = ser.eh_series_to_obj(eh_series_from_tableau(tableau_662()))
    obj["components"][0] = 5
    with pytest.raises(ValueError, match="^component:"):
        ser.eh_series_from_obj(obj)
    obj["components"] = None
    with pytest.raises(ValueError, match="^components:"):
        ser.eh_series_from_obj(obj)


@pytest.mark.parametrize("bad", [None, [1], {"n": 1}, True, False, 1.5, "1"])
def test_non_integer_scalars_raise_value_error_naming_field(geom662, bad):
    with pytest.raises(ValueError, match="^mult: expected"):
        ser.divisor_from_obj({"points": [{"node": 0, "mult": bad}]}, geom662)
    with pytest.raises(ValueError, match="^node: expected"):
        ser.divisor_from_obj({"points": [{"node": bad, "mult": 1}]}, geom662)
    with pytest.raises(ValueError, match="^g: expected"):
        ser.geometry_from_obj({"g": bad, "loops": [{"l": "3/1", "m": "1/1"}]})
    with pytest.raises(ValueError, match="^r: expected"):
        ser.tableau_from_obj({"g": 1, "d": 1, "r": bad, "rows": []})
    with pytest.raises(ValueError, match="^rows: expected"):
        ser.tableau_from_obj({"g": 1, "d": 0, "r": 0, "rows": [[bad]]})
    obj = ser.effective_series_to_obj(eh_to_effective(eh_series_from_tableau(tableau_662())))
    obj["components"][0]["degree"] = bad
    with pytest.raises(ValueError, match="^degree: expected"):
        ser.effective_series_from_obj(obj)
    obj = ser.eh_series_to_obj(eh_series_from_tableau(tableau_662()))
    obj["components"][0]["vanish_P"] = [bad]
    with pytest.raises(ValueError, match="^vanish_P: expected"):
        ser.eh_series_from_obj(obj)


def test_integral_numbers_are_accepted(geom662):
    parsed = ser.divisor_from_obj({"points": [{"node": 0.0, "mult": 2.0}]}, geom662)
    assert parsed == TropicalDivisor(((Node(0), 2),))


def test_eh_series_round_trip():
    series = eh_series_from_tableau(tableau_662())
    obj = through_json(ser.eh_series_to_obj(series))
    assert obj["components"][0]["bundle"] == {"aP": 0, "bQ": 6}
    assert obj["components"][0]["vanish_Q"] == [6, 4, 3]
    assert ser.eh_series_from_obj(obj) == series


def test_eh_series_round_trip_with_generic():
    p = BNParams(5, 4, 1)
    t = next(iter(enumerate_tableaux(p)))
    series = eh_series_from_tableau(t)
    obj = through_json(ser.eh_series_to_obj(series))
    assert ser.eh_series_from_obj(obj) == series  # tags preserved


@pytest.mark.parametrize("bad", [None, [1, {"x": 2}], {"n": 1}, 3, True])
def test_generic_tag_must_be_a_string(bad):
    obj = ser.eh_series_to_obj(eh_series_from_tableau(tableau_662()))
    obj["components"][0]["bundle"] = {"generic": bad}
    with pytest.raises(ValueError, match="^generic: expected a string"):
        ser.eh_series_from_obj(obj)


def test_eh_series_rejects_degree_mismatch():
    series = eh_series_from_tableau(tableau_662())
    obj = ser.eh_series_to_obj(series)
    obj["components"][0]["bundle"] = {"aP": 1, "bQ": 6}
    with pytest.raises(ValueError):
        ser.eh_series_from_obj(obj)


def test_effective_series_round_trip():
    series = eh_to_effective(eh_series_from_tableau(tableau_662()))
    obj = through_json(ser.effective_series_to_obj(series))
    assert obj["a"] == [3, 3, 4, 3, 3]
    assert obj["components"][0]["degree"] == 3
    assert ser.effective_series_from_obj(obj) == series


def test_geometry_round_trip(geom662):
    obj = through_json(ser.geometry_to_obj(geom662))
    assert obj["loops"][0] == {"l": "10/1", "m": "1/1"}
    assert ser.geometry_from_obj(obj) == geom662
    half = ChainGeometry(((F(1, 2), F(3, 7)),))
    assert ser.geometry_from_obj(through_json(ser.geometry_to_obj(half))) == half


def test_point_and_divisor_round_trip(geom662):
    d = TropicalDivisor(
        ((Node(0), 2), (Interior(1, F(11, 3)), 1), (Node(6), -2))
    )
    obj = through_json(ser.divisor_to_obj(d))
    assert ser.divisor_from_obj(obj, geom662) == d
    # parsing puts points in canonical form: nodes as nodes, coordinates mod l_k + m_k
    node_in_disguise = {"points": [{"loop": 1, "coord": "10/1", "mult": 1}]}
    parsed = ser.divisor_from_obj(node_in_disguise, geom662)
    assert parsed == TropicalDivisor(((Node(1), 1),))
    once_around = {"points": [{"loop": 1, "coord": "12/1", "mult": 1}]}
    parsed = ser.divisor_from_obj(once_around, geom662)
    assert parsed == TropicalDivisor(((Interior(1, 1), 1),))


def test_divisor_from_tableau_round_trip(geom662):
    d = divisor_from_tableau(tableau_662(), geom662)
    obj = through_json(ser.divisor_to_obj(d))
    assert ser.divisor_from_obj(obj, geom662) == d


def test_reduced_and_table_objects(geom662):
    d = divisor_from_tableau(tableau_662(), geom662)
    red = reduce_to_q0(geom662, d)
    assert red.u == 2
    table = tropical_vanishing_table(geom662, d, 2)
    tobj = through_json(ser.table_to_obj(table))
    assert tobj["u"][0] == [2, 1, 0]
    assert tobj["epsilon"] == [1, 1, 1, 0, 1, 0]
    assert tobj["x"] == [None if x is None else ser.point_to_obj(x) for x in red.x]
    assert tobj["cases"] == ["d", "d", "d", "b", "d", "b"]


def test_concentration_object():
    desc = describe_concentration(tableau_662())
    obj = through_json(ser.concentration_to_obj(desc))
    assert obj == {
        "g": 6,
        "d": 6,
        "r": 2,
        "head_degree": 3,
        "entries": [
            {"component": 2, "kind": "point", "cP": 1, "cQ": 2},
            {"component": 3, "kind": "point", "cP": 3, "cQ": 4},
            {"component": 4, "kind": "trivial"},
            {"component": 5, "kind": "point", "cP": 1, "cQ": 2},
            {"component": 6, "kind": "trivial"},
        ],
    }


def _outcome(build, values):
    """What ``build(values)`` gives: the orders with their types, or the error's type and message."""
    try:
        orders = build(values).orders
    except (ValueError, TypeError) as exc:
        return type(exc), str(exc)
    return orders, tuple(map(type, orders))


def _parsed_then_constructed(values):
    """``_seq_from_list`` as it was: every entry read by ``_int``, then the public constructor."""
    return VanishingSequence(tuple([ser._int(v, "vanish_Q") for v in values]))


@given(
    st.one_of(
        st.lists(
            st.one_of(st.integers(-3, 8), st.booleans(), st.sampled_from([3.0, 3.5, -1.0, 0.0])),
            max_size=6,
        ),
        # decreasing runs with equal neighbours and negative tails
        st.lists(st.integers(-1, 3), max_size=6).map(
            lambda steps: [sum(steps[i:]) - 1 for i in range(len(steps))]
        ),
    )
)
@example([])
@example([True, False])
@example([3.0, 2, 0])
@example([3.5, 1])
@example([2, 2, 0])
@example([2, 1, -1])
@settings(max_examples=300, deadline=None)
def test_checked_builders_agree_with_the_constructor(values):
    # the checked builder is the public constructor less its int conversion
    converted = tuple(map(int, values))
    assert _outcome(VanishingSequence._checked, converted) == _outcome(
        VanishingSequence, values
    )
    # the reader gives what reading every entry and then constructing gave
    assert _outcome(lambda v: ser._seq_from_list(v, "vanish_Q"), values) == _outcome(
        _parsed_then_constructed, values
    )


def _models_chain_record(t) -> list:
    series = eh_series_from_tableau(t)
    verdict = check_eh_series(series)
    eff = eh_to_effective(series)
    everdict = check_effective(eff)
    s_text = json.dumps(ser.eh_series_to_obj(series))
    e_text = json.dumps(ser.effective_series_to_obj(eff))
    return [
        s_text,
        e_text,
        effective_to_eh(eff) == series,
        ser.eh_series_from_obj(json.loads(s_text)) == series,
        ser.effective_series_from_obj(json.loads(e_text)) == eff,
        [verdict.valid, verdict.refined, verdict.problem],
        [everdict.valid, everdict.refined, everdict.problem],
        render_eh_series(series),
        render_effective_series(eff),
    ]


def test_models_chain_golden_digest():
    # every tableau with g <= 9 through the models chain the benchmark's
    # models-g9 item runs: both series' JSON and their readers, the round
    # trip, both verdicts and both tables; digest taken at badaad8, before
    # series values were checked once and built unchecked
    digest = hashlib.sha256()
    count = 0
    for params in sweep_params(9):
        for t in enumerate_tableaux(params):
            digest.update(json.dumps(_models_chain_record(t)).encode() + b"\n")
            count += 1
    assert count == 4_061
    assert digest.hexdigest() == (
        "2a65ab4d5eca5bd33eeaeccf14e88743c1c92bffbc35b58f1e62a518624e05ec"
    )
