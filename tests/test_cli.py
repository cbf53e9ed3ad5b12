import hashlib
import json
import os
import subprocess
import sys
import time
from itertools import islice
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from bnchains import BNParams, eh_series_from_tableau, enumerate_tableaux
from bnchains import serialize as ser
from bnchains.cli import ORACLE_CHIP_CAP, SERIES_CAP, _write_json_list, main
from bnchains.verify import RANK_TRIAL_CAP

from worked_example import tableau_662


@pytest.fixture
def tableau_file(tmp_path):
    path = tmp_path / "tableau.json"
    path.write_text(json.dumps(ser.tableau_to_obj(tableau_662())))
    return str(path)


@pytest.fixture
def geometry_file(tmp_path):
    obj = {
        "g": 6,
        "loops": [{"l": f"{10 + k}/1", "m": "1/1"} for k in range(6)],
    }
    path = tmp_path / "geom.json"
    path.write_text(json.dumps(obj))
    return str(path)


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_tableaux_count(capsys):
    code, out, _ = run(capsys, "tableaux", "--g", "6", "--d", "6", "--r", "2", "--count")
    assert code == 0 and out.strip() == "5"
    code, out, _ = run(capsys, "tableaux", "--g", "5", "--d", "3", "--r", "1", "--count")
    assert code == 0 and out.strip() == "0"
    code, out, _ = run(capsys, "tableaux", "--g", "5", "--d", "4", "--r", "1", "--count")
    assert code == 0 and out.strip() == "10"


def test_tableaux_list_json(capsys):
    code, out, _ = run(
        capsys, "tableaux", "--g", "6", "--d", "6", "--r", "2", "--list",
        "--format", "json",
    )
    assert code == 0
    parsed = json.loads(out)
    assert len(parsed) == 5
    assert {"g": 6, "d": 6, "r": 2, "rows": [[1, 2, 4], [3, 5, 6]]} in parsed


@pytest.mark.parametrize("g,d,r", [(6, 6, 2), (5, 4, 1), (5, 3, 1), (2, 3, 1), (10, 9, 2)])
def test_tableaux_list_json_matches_one_dump(capsys, g, d, r):
    # (5, 3, 1) is an empty locus, (2, 3, 1) has kbar = 0, (10, 9, 2) has 420
    code, out, _ = run(
        capsys, "tableaux", "--g", str(g), "--d", str(d), "--r", str(r), "--list",
        "--format", "json",
    )
    objs = [ser.tableau_to_obj(t) for t in enumerate_tableaux(BNParams(g, d, r))]
    assert code == 0
    assert out == json.dumps(objs, indent=2) + "\n"


def test_tableaux_list_json_bytes_fixed(capsys):
    # the 24,024 records of (16, 15, 3); digest taken when each batch of
    # records was still a json.dumps(..., indent=2) of tableau_to_obj dicts
    code, out, _ = run(
        capsys, "tableaux", "--g", "16", "--d", "15", "--r", "3", "--list",
        "--format", "json",
    )
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "d1d1403c87d3e09ef9d2d63f3b508286d734c46ee011193fd6f241c92ac14f95"
    )


@pytest.mark.parametrize("n", [0, 1, 127, 128, 129, 256, 300])
def test_json_list_writer_across_batches(capsys, n):
    # (10, 9, 2) has 420 tableaux, with free indices
    tableaux = list(islice(enumerate_tableaux(BNParams(10, 9, 2)), n))
    _write_json_list(map(ser.tableau_list_entry, tableaux))
    objs = [ser.tableau_to_obj(t) for t in tableaux]
    assert capsys.readouterr().out == json.dumps(objs, indent=2) + "\n"


def test_tableaux_list_closed_stdout_exits_quietly():
    root = Path(__file__).resolve().parent.parent
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(root / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    proc = subprocess.Popen(
        [sys.executable, "-m", "bnchains", "tableaux", "--g", "16", "--d", "15",
         "--r", "3", "--list"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
    )
    head = [proc.stdout.readline() for _ in range(3)]
    proc.stdout.close()  # as `| head -n 3` does
    err = proc.stderr.read()
    assert proc.wait(timeout=120) == 0
    assert err == b""
    assert head[0].split() == [b"1", b"2", b"3", b"4"]


def test_malformed_flags_exit_one(capsys):
    assert run(capsys, "tableaux", "--g", "6")[0] == 1
    assert run(capsys, "nonsense")[0] == 1


def test_eh_table_and_json(capsys, tableau_file):
    code, out, _ = run(capsys, "eh", "--tableau", tableau_file)
    assert code == 0
    assert "O(6Q_1)" in out and "O(2P_2+4Q_2)" in out and "O(6P_6)" in out
    assert "6 4 3" in out
    code, out, _ = run(capsys, "eh", "--tableau", tableau_file, "--format", "json")
    assert code == 0
    series = ser.eh_series_from_obj(json.loads(out))
    assert series.vanish_q[0].orders == (6, 4, 3)


def test_eh_and_effective_json_are_deterministic(capsys, tmp_path):
    # (5, 4, 1) has a free index: two runs in one process print equal bytes
    path = tmp_path / "tableau.json"
    t = next(iter(enumerate_tableaux(BNParams(5, 4, 1))))
    assert t.free_indices
    path.write_text(json.dumps(ser.tableau_to_obj(t)))
    for command in ("eh", "effective"):
        argv = (command, "--tableau", str(path), "--format", "json")
        first = run(capsys, *argv)
        assert first[0] == 0 and '"generic": "gen' in first[1]
        assert run(capsys, *argv) == first


@pytest.mark.parametrize(
    "which,command,digest",
    [
        ("662", "eh", "7084dfa2ff59c4c89516e06fe52ca2729ca163e986059a9089bedcd5227808db"),
        ("662", "effective",
         "9e0f5aa27c2ff28741d292340c0e86ff290a1010944facf2c75b8389d1534dec"),
        ("541", "eh", "092a1079e31fa542ad75bd9d55f84dc2bee07a6583e73e3791b652e306e95cf1"),
        ("541", "effective",
         "db1ef399d5512f4b37fcad4c8a5222222579b6b73fb43312c7beef44f49da979"),
    ],
)
def test_eh_and_effective_json_bytes_fixed(capsys, tmp_path, which, command, digest):
    # the worked (6, 6, 2) tableau, and the first (5, 4, 1) tableau, whose
    # index 1 is free; digests taken when every sequence was built checked
    if which == "662":
        t = tableau_662()
    else:
        t = next(iter(enumerate_tableaux(BNParams(5, 4, 1))))
        assert t.free_indices == (1,)
    path = tmp_path / "tableau.json"
    path.write_text(json.dumps(ser.tableau_to_obj(t)))
    code, out, _ = run(capsys, command, "--tableau", str(path), "--format", "json")
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def _series_argvs(path):
    return [
        (command, "--tableau", str(path), "--format", fmt)
        for command in ("eh", "effective")
        for fmt in ("json", "table")
    ]


@pytest.mark.parametrize(
    "g,r", [(SERIES_CAP + 1, 0), (100_000, 0), (10**9, 0), (1, 10**18), (101, 99)]
)
def test_eh_and_effective_refuse_series_over_the_cap(capsys, tmp_path, g, r):
    # kbar = 0, so the tableau has no rows and the file stays tiny however
    # large the series it encodes; g = 10**5 took 1.5 s and 247 MB uncapped
    path = tmp_path / "tableau.json"
    path.write_text(json.dumps({"g": g, "d": g + r, "r": r, "rows": []}))
    for argv in _series_argvs(path):
        start = time.perf_counter()
        code, out, err = run(capsys, *argv)
        assert time.perf_counter() - start < 1.0
        assert code == 2 and out == ""
        assert "more than the cap" in err and "Traceback" not in err


def test_effective_from_eh_refuses_series_over_the_cap(capsys, tmp_path):
    g = SERIES_CAP + 1
    obj = {
        "g": g,
        "d": 0,
        "r": 0,
        "components": [
            {"bundle": {"generic": "a"}, "vanish_P": [0], "vanish_Q": [0]}
        ] * g,
    }
    path = tmp_path / "eh.json"
    path.write_text(json.dumps(obj))
    code, out, err = run(capsys, "effective", "--from-eh", str(path))
    assert code == 2 and out == ""
    assert "more than the cap" in err and "Traceback" not in err


def test_series_cap_admits_a_series_at_the_cap(capsys, tmp_path):
    g, r = 100, SERIES_CAP // 100 - 1
    path = tmp_path / "tableau.json"
    path.write_text(json.dumps({"g": g, "d": g + r, "r": r, "rows": []}))
    code, out, _ = run(capsys, "eh", "--tableau", str(path), "--format", "json")
    assert code == 0
    assert len(json.loads(out)["components"]) == g


_JSON_LEAVES = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-3, 12),
    st.integers(),
    st.sampled_from([10**9, -(10**18), 2**64, 10**4000]),
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from([0.0, 2.0, 2.5, -1.0]),
    st.text(max_size=4),
)
_JSON = st.recursive(
    _JSON_LEAVES,
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.sampled_from(["g", "rows", "bundle", "aP", "x"]), inner, max_size=4),
    max_leaves=10,
)


def _fuzz_bases() -> list:
    tableaux = [tableau_662(), next(iter(enumerate_tableaux(BNParams(5, 4, 1))))]
    return [ser.tableau_to_obj(t) for t in tableaux] + [
        ser.eh_series_to_obj(eh_series_from_tableau(t)) for t in tableaux
    ]


_FUZZ_BASES = _fuzz_bases()


def _paths(obj, prefix=()):
    """The key path of every value nested inside a JSON value."""
    if isinstance(obj, dict):
        items = obj.items()
    elif isinstance(obj, list):
        items = enumerate(obj)
    else:
        return
    for key, value in items:
        yield prefix + (key,)
        yield from _paths(value, prefix + (key,))


@st.composite
def _series_inputs(draw):
    """A file text for eh / effective: a valid file with a few mutations, or raw text."""
    kind = draw(st.sampled_from(["mutated"] * 4 + ["value", "deep", "digits", "large"]))
    if kind == "value":
        return json.dumps(draw(_JSON))
    if kind == "large":
        # kbar = 0: no rows, however large g and r are
        g = draw(st.sampled_from([1, 2, SERIES_CAP, SERIES_CAP + 1, 10**9, 10**40]))
        r = draw(st.sampled_from([0, 1, 98, 10**6, 10**40]))
        return json.dumps({"g": g, "d": g + r, "r": r, "rows": []})
    if kind == "deep":
        depth = draw(st.sampled_from([10, 500, 900, 950, 990, 1000, 5000, 100_000]))
        nested = draw(
            st.sampled_from(["[" * depth + "]" * depth, '{"g":' * depth + "1" + "}" * depth])
        )
        template = draw(st.sampled_from([
            "{}", '{{"g": 6, "d": 6, "r": 2, "rows": {}}}', '{{"g": {}, "d": 6, "r": 2, "rows": []}}'
        ]))
        return template.format(nested)
    if kind == "digits":
        digits = "1" + "0" * draw(st.sampled_from([4000, 5000]))  # the limit is 4300
        return f'{{"g": {digits}, "d": 6, "r": 2, "rows": []}}'
    obj = json.loads(json.dumps(draw(st.sampled_from(_FUZZ_BASES))))
    for _ in range(draw(st.integers(0, 3))):
        path = draw(st.sampled_from(list(_paths(obj))))
        *head, key = path
        parent = obj
        for step in head:
            parent = parent[step]
        action = draw(st.sampled_from(["replace", "delete", "nudge"]))
        if action == "delete":
            del parent[key]
        elif action == "nudge" and type(parent[key]) is int:
            parent[key] += draw(st.integers(-2, 2))
        else:
            parent[key] = draw(_JSON)
        if not list(_paths(obj)):
            break
    return json.dumps(obj)


@given(
    text=_series_inputs(),
    command=st.sampled_from(
        [("eh", "--tableau"), ("effective", "--tableau"), ("effective", "--from-eh")]
    ),
    fmt=st.sampled_from(["json", "table"]),
)
@settings(
    max_examples=300,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture, HealthCheck.too_slow],
)
def test_series_commands_exit_cleanly_on_any_file(capsys, tmp_path, text, command, fmt):
    # validation happens where a file is read; whatever it holds, eh and
    # effective answer 0, 1 or 2 and never a traceback
    path = tmp_path / "input.json"
    path.write_text(text)
    code, _, err = run(capsys, *command, str(path), "--format", fmt)
    assert code in (0, 1, 2)
    assert "Traceback" not in err


def test_eh_rejects_invalid_tableau(capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"g": 6, "d": 6, "r": 2, "rows": [[2, 1, 4], [3, 5, 6]]}))
    code, _, err = run(capsys, "eh", "--tableau", str(bad))
    assert code == 1
    assert "row 1" in err


def test_eh_param_cross_check(capsys, tableau_file):
    code, _, err = run(capsys, "eh", "--tableau", tableau_file, "--g", "5")
    assert code == 1 and "--g" in err


def test_effective_outputs(capsys, tableau_file):
    code, out, _ = run(capsys, "effective", "--tableau", tableau_file)
    assert code == 0
    assert "O(3Q_1)" in out and "O(2P_2+2Q_2)" in out
    assert "Q_1: 3  Q_2: 3  Q_3: 4  Q_4: 3  Q_5: 3" in out
    assert "concentration, degree 3" in out
    assert "O(2Q_2-P_2)" in out and "O(4Q_3-3P_3)" in out


def test_effective_from_eh_round_trip(capsys, tableau_file, tmp_path):
    code, out, _ = run(capsys, "eh", "--tableau", tableau_file, "--format", "json")
    eh_path = tmp_path / "eh.json"
    eh_path.write_text(out)
    code, out, _ = run(
        capsys, "effective", "--from-eh", str(eh_path), "--format", "json"
    )
    assert code == 0
    eff = ser.effective_series_from_obj(json.loads(out))
    assert eff.degrees == (3, 4, 4, 4, 4, 3)
    assert eff.node_degrees == (3, 3, 4, 3, 3)


def test_effective_rejects_non_refined(capsys, tmp_path):
    obj = {
        "g": 2,
        "d": 2,
        "r": 0,
        "components": [
            {"bundle": {"generic": "a"}, "vanish_P": [0], "vanish_Q": [2]},
            {"bundle": {"generic": "b"}, "vanish_P": [1], "vanish_Q": [0]},
        ],
    }
    path = tmp_path / "eh.json"
    path.write_text(json.dumps(obj))
    code, _, err = run(capsys, "effective", "--from-eh", str(path))
    assert code == 1 and "refined" in err


def test_tropical_divisor_rank_table(capsys, tableau_file, geometry_file, tmp_path):
    code, out, _ = run(
        capsys, "tropical", "divisor", "--tableau", tableau_file,
        "--geometry", geometry_file, "--format", "json",
    )
    assert code == 0
    div_path = tmp_path / "div.json"
    div_path.write_text(out)
    parsed = json.loads(out)
    assert {"node": 0, "mult": 2} in parsed["points"]

    code, out, _ = run(
        capsys, "tropical", "rank", "--divisor", str(div_path),
        "--geometry", geometry_file,
    )
    assert code == 0 and out.strip() == "2"

    code, out, _ = run(
        capsys, "tropical", "table", "--divisor", str(div_path),
        "--geometry", geometry_file, "--r", "2",
    )
    assert code == 0
    assert "Q_0  u = 2 1 0" in out
    assert "case (d)" in out and "case (b)" in out


def test_tropical_divisor_text_legend(capsys, tableau_file, geometry_file):
    code, out, _ = run(
        capsys, "tropical", "divisor", "--tableau", tableau_file,
        "--geometry", geometry_file,
    )
    assert code == 0
    assert out.splitlines()[0] == "2·Q_0 + x_1 + x_2 + x_3 + x_5"
    assert "2·Q_0 + x_1 = 3·Q_1" in out


def test_nongeneric_gate(capsys, tableau_file, tmp_path):
    obj = {"g": 6, "loops": [{"l": "1/1", "m": "3/1"}] * 6}
    path = tmp_path / "bad_geom.json"
    path.write_text(json.dumps(obj))
    code, _, err = run(
        capsys, "tropical", "divisor", "--tableau", tableau_file,
        "--geometry", str(path),
    )
    assert code == 1 and "not generic" in err
    code, _, err = run(
        capsys, "tropical", "divisor", "--tableau", tableau_file,
        "--geometry", str(path), "--allow-nongeneric",
    )
    assert code == 0 and "not generic" in err  # labeled, but proceeds


def test_oracle_commands(capsys, tableau_file, geometry_file, tmp_path):
    code, out, _ = run(
        capsys, "tropical", "divisor", "--tableau", tableau_file,
        "--geometry", geometry_file, "--format", "json",
    )
    div_path = tmp_path / "div.json"
    div_path.write_text(out)
    code, out, _ = run(
        capsys, "oracle", "winnable", "--divisor", str(div_path),
        "--geometry", geometry_file,
    )
    assert code == 0 and out.strip() == "true"
    code, _, err = run(
        capsys, "oracle", "rank", "--divisor", str(div_path),
        "--geometry", geometry_file, "--subdiv-cap", "10",
    )
    assert code == 2 and "cap" in err



def test_oracle_zero_denominator_exits_one(capsys, tmp_path):
    geom_path = tmp_path / "geom.json"
    geom_path.write_text(json.dumps({"g": 1, "loops": [{"l": "1/0", "m": "1/1"}]}))
    div_path = tmp_path / "div.json"
    div_path.write_text(json.dumps({"points": [{"node": 0, "mult": 1}]}))
    code, out, err = run(
        capsys, "oracle", "rank", "--divisor", str(div_path), "--geometry", str(geom_path)
    )
    assert code == 1 and out == ""
    assert "1/0" in err and "Traceback" not in err
    # the same in a divisor coordinate
    geom_path.write_text(json.dumps({"g": 1, "loops": [{"l": "3/1", "m": "1/1"}]}))
    div_path.write_text(json.dumps({"points": [{"loop": 1, "coord": "2/0", "mult": 1}]}))
    code, out, err = run(
        capsys, "oracle", "rank", "--divisor", str(div_path), "--geometry", str(geom_path)
    )
    assert code == 1 and out == ""
    assert "2/0" in err and "Traceback" not in err

def test_tropical_rank_riemann_roch_degree(capsys, geometry_file, tmp_path):
    div_path = tmp_path / "div.json"
    div_path.write_text(json.dumps({"points": [{"node": 0, "mult": 40}]}))
    code, out, _ = run(
        capsys, "tropical", "rank", "--divisor", str(div_path), "--geometry", geometry_file
    )
    assert code == 0 and out.strip() == "34"


def test_tropical_rank_large_multiplicity(capsys, geometry_file, tmp_path):
    # one integer sweep of width 10^5; a climb over r took hours here
    div_path = tmp_path / "div.json"
    div_path.write_text(json.dumps({"points": [{"node": 0, "mult": 10**5}]}))
    start = time.perf_counter()
    code, out, _ = run(
        capsys, "tropical", "rank", "--divisor", str(div_path), "--geometry", geometry_file
    )
    assert time.perf_counter() - start < 1.0
    assert code == 0 and out.strip() == "99994"


def test_tropical_sweep_over_cap_exits_two(capsys, geometry_file, tmp_path):
    div_path = tmp_path / "div.json"
    div_path.write_text(json.dumps({"points": [{"node": 0, "mult": 10**12}]}))
    start = time.perf_counter()
    code, out, err = run(
        capsys, "tropical", "rank", "--divisor", str(div_path), "--geometry", geometry_file
    )
    assert time.perf_counter() - start < 1.0
    assert code == 2 and out == ""
    assert "cap" in err and "Traceback" not in err
    code, out, err = run(
        capsys, "tropical", "table", "--divisor", str(div_path),
        "--geometry", geometry_file, "--r", str(10**12),
    )
    assert code == 2 and out == ""
    assert "cap" in err and "Traceback" not in err


def test_deeply_nested_json_exits_one(capsys, geometry_file, tmp_path):
    div_path = tmp_path / "div.json"
    div_path.write_text("[" * 100_000)
    code, out, err = run(
        capsys, "tropical", "rank", "--divisor", str(div_path), "--geometry", geometry_file
    )
    assert code == 1 and out == ""
    assert "nested" in err and "Traceback" not in err


def test_tropical_divisor_json_bytes_fixed(capsys, tmp_path):
    # sampled points on loops with fractional lengths; bytes pinned from the
    # Fraction-only implementation before the integer loops
    geom_path = tmp_path / "geom.json"
    geom_path.write_text(json.dumps({
        "g": 5,
        "loops": [{"l": f"{9 + k}/{1 + k % 3}", "m": f"1/{1 + k % 2}"} for k in range(5)],
    }))
    tab_path = tmp_path / "tableau.json"
    digest = hashlib.sha256()
    outputs = []
    for params in (BNParams(5, 4, 1), BNParams(5, 5, 1), BNParams(5, 6, 2)):
        for t in enumerate_tableaux(params):
            tab_path.write_text(json.dumps(ser.tableau_to_obj(t)))
            for seed in ("0", "1", "7"):
                code, out, _ = run(
                    capsys, "tropical", "divisor", "--tableau", str(tab_path),
                    "--geometry", str(geom_path), "--seed", seed, "--format", "json",
                )
                assert code == 0
                outputs.append(out)
                digest.update(out.encode())
    assert json.loads(outputs[0]) == {"points": [
        {"node": 0, "mult": 1},
        {"loop": 1, "coord": "8650/1009", "mult": 1},
        {"loop": 2, "coord": "9/2", "mult": 1},
        {"loop": 4, "coord": "23/2", "mult": 1},
    ]}
    assert digest.hexdigest() == (
        "4d4b94fd27842c0f895b409e10c39c3da2ec783bdf67922e463d7b3dc68c51d3"
    )


def test_divisor_file_top_level_array_exits_one(capsys, geometry_file, tmp_path):
    div_path = tmp_path / "div.json"
    div_path.write_text(json.dumps([{"node": 0, "mult": 1}]))
    code, out, err = run(
        capsys, "tropical", "rank", "--divisor", str(div_path), "--geometry", geometry_file
    )
    assert code == 1 and out == ""
    assert "divisor" in err and "Traceback" not in err


_CHAIN_GEOMETRY = {"g": 2, "loops": [{"l": "3/1", "m": "1/1"}, {"l": "5/2", "m": "1/2"}]}
_CHAIN_DIVISOR = {"points": [
    {"node": 0, "mult": 2},
    {"loop": 1, "coord": "1/2", "mult": 1},
    {"loop": 2, "coord": "2/1", "mult": 1},
    {"node": 2, "mult": -1},
]}
# wrong types, bools, floats, huge integers, out-of-range nodes and loops,
# zero, negative and unparsable lengths and coordinates
_CHAIN_VALUES = st.one_of(
    _JSON,
    st.sampled_from([True, False, 0, -1, 2, 3, 10**9, 2**64, 10**30, -(10**18), 1.0, 2.5, 1e300]),
    st.sampled_from(["0/1", "-3/1", "1/0", "7/3", "1/1000003", "10000000000/1", "1e3", "x", ""]),
)


@st.composite
def _chain_inputs(draw):
    """Geometry and divisor file texts: the valid pair with a few mutations, or raw values."""
    objs = json.loads(json.dumps([_CHAIN_GEOMETRY, _CHAIN_DIVISOR]))
    if draw(st.integers(0, 9)) == 0:
        objs[draw(st.integers(0, 1))] = draw(_JSON)
        return [json.dumps(obj) for obj in objs]
    for _ in range(draw(st.integers(0, 3))):
        obj = objs[draw(st.integers(0, 1))]
        paths = list(_paths(obj))
        if not paths:
            break
        *head, key = draw(st.sampled_from(paths))
        parent = obj
        for step in head:
            parent = parent[step]
        action = draw(st.sampled_from(["replace", "replace", "delete", "nudge"]))
        if action == "delete":
            del parent[key]
        elif action == "nudge" and type(parent[key]) is int:
            parent[key] += draw(st.integers(-3, 3))
        else:
            parent[key] = draw(_CHAIN_VALUES)
    return [json.dumps(obj) for obj in objs]


@given(
    texts=_chain_inputs(),
    command=st.sampled_from([
        ("tropical", "rank"),
        ("tropical", "rank", "--allow-nongeneric"),
        ("tropical", "table", "--r", "1"),
        ("tropical", "table", "--r", "2", "--allow-nongeneric"),
        ("tropical", "table", "--r", "-1", "--format", "json"),
        ("oracle", "rank", "--subdiv-cap", "60", "--degree-cap", "3"),
        ("oracle", "winnable", "--subdiv-cap", "60"),
    ]),
)
@settings(
    max_examples=300,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture, HealthCheck.too_slow],
)
def test_chain_commands_exit_cleanly_on_any_file(capsys, tmp_path, texts, command):
    # whatever the geometry and divisor files hold, tropical rank and table
    # and oracle rank and winnable answer 0, 1 or 2 and never a traceback
    geom_path = tmp_path / "geom.json"
    div_path = tmp_path / "div.json"
    for path, text in zip((geom_path, div_path), texts):
        path.write_text(text)
    code, _, err = run(
        capsys, *command[:2], "--geometry", str(geom_path), "--divisor", str(div_path),
        *command[2:],
    )
    assert code in (0, 1, 2)
    assert "Traceback" not in err


@pytest.mark.parametrize("command", ["winnable", "rank"])
def test_oracle_refuses_divisors_over_the_chip_cap(capsys, tmp_path, command):
    # degree 3, but the reduction would move the debt of 2**64 - 3 chips into
    # the root about one chip per burn pass
    geom_path = tmp_path / "geom.json"
    geom_path.write_text(json.dumps(_CHAIN_GEOMETRY))
    div_path = tmp_path / "div.json"
    argv = ("oracle", command, "--divisor", str(div_path), "--geometry", str(geom_path))
    for big, code_wanted in ((2**64, 2), (ORACLE_CHIP_CAP // 2, 0)):
        div_path.write_text(json.dumps({"points": [
            {"loop": 1, "coord": "1/2", "mult": 3 - big},
            {"loop": 2, "coord": "2/1", "mult": big},
        ]}))
        start = time.perf_counter()
        code, out, err = run(capsys, *argv)
        assert time.perf_counter() - start < 1.0
        assert code == code_wanted, err
        assert "Traceback" not in err
    assert out.strip() == ("true" if command == "winnable" else "1")  # d - g at d = 2g - 1


@pytest.mark.parametrize("bad", [None, [1], {"n": 1}, True, 1.5, "1"])
def test_non_integer_scalar_exits_one(capsys, tmp_path, bad):
    geom_path = tmp_path / "geom.json"
    div_path = tmp_path / "div.json"
    geom_path.write_text(json.dumps({"g": 1, "loops": [{"l": "3/1", "m": "1/1"}]}))
    div_path.write_text(json.dumps({"points": [{"node": 0, "mult": bad}]}))
    argv = ("tropical", "rank", "--divisor", str(div_path), "--geometry", str(geom_path))
    code, out, err = run(capsys, *argv)
    assert code == 1 and out == ""
    assert "mult" in err and "Traceback" not in err
    # the same in the geometry file
    geom_path.write_text(json.dumps({"g": bad, "loops": [{"l": "3/1", "m": "1/1"}]}))
    div_path.write_text(json.dumps({"points": [{"node": 0, "mult": 1}]}))
    code, out, err = run(capsys, *argv)
    assert code == 1 and out == ""
    assert "g: expected an integer" in err and "Traceback" not in err


@pytest.mark.parametrize("bad", [None, [1, {"x": 2}], 3, True])
def test_non_string_generic_tag_exits_one(capsys, tmp_path, bad):
    obj = {
        "g": 1,
        "d": 0,
        "r": 0,
        "components": [{"bundle": {"generic": bad}, "vanish_P": [0], "vanish_Q": [0]}],
    }
    path = tmp_path / "eh.json"
    path.write_text(json.dumps(obj))
    code, out, err = run(capsys, "effective", "--from-eh", str(path))
    assert code == 1 and out == ""
    assert "generic: expected a string" in err and "Traceback" not in err


def test_tableau_rows_not_a_list_exits_one(capsys, tmp_path):
    path = tmp_path / "tableau.json"
    path.write_text(json.dumps({"g": 6, "d": 6, "r": 2, "rows": 5}))
    code, out, err = run(capsys, "eh", "--tableau", str(path))
    assert code == 1 and out == ""
    assert "rows" in err and "Traceback" not in err


def test_tropical_divisor_sampling_failure_exits_one(capsys, tmp_path):
    # every coordinate j / 1009 of the circumference is special for some u <= 1008
    tab_path = tmp_path / "tableau.json"
    tab_path.write_text(json.dumps({"g": 1, "d": 1008, "r": 0, "rows": []}))
    geom_path = tmp_path / "geom.json"
    geom_path.write_text(json.dumps({"g": 1, "loops": [{"l": "1/1", "m": "1008/1"}]}))
    code, out, err = run(
        capsys, "tropical", "divisor", "--tableau", str(tab_path),
        "--geometry", str(geom_path), "--allow-nongeneric",
    )
    assert code == 1 and out == ""
    assert "could not sample" in err and "Traceback" not in err


def _tropical_divisor_run(capsys, tmp_path, tableau_obj):
    tab_path = tmp_path / "tableau.json"
    tab_path.write_text(json.dumps(tableau_obj))
    geom_path = tmp_path / "geom.json"
    geom_path.write_text(json.dumps({"g": 1, "loops": [{"l": "3/1", "m": "1/1"}]}))
    start = time.perf_counter()
    code, out, err = run(
        capsys, "tropical", "divisor", "--tableau", str(tab_path),
        "--geometry", str(geom_path), "--format", "json",
    )
    return time.perf_counter() - start, code, out, err


def test_tropical_divisor_samples_in_time_independent_of_d(capsys, tmp_path):
    # a free loop is checked against u = 0..d without listing the d + 1 residues
    elapsed, code, out, _ = _tropical_divisor_run(
        capsys, tmp_path, {"g": 1, "d": 10**12, "r": 0, "rows": []}
    )
    assert elapsed < 1.0
    assert code == 0
    (point,) = json.loads(out)["points"]
    assert point["loop"] == 1


def test_tropical_divisor_refuses_series_over_the_cap(capsys, tmp_path):
    elapsed, code, out, err = _tropical_divisor_run(
        capsys, tmp_path, {"g": 1, "d": 10**18 + 1, "r": 10**18, "rows": []}
    )
    assert elapsed < 1.0
    assert code == 2 and out == ""
    assert "more than the cap" in err and "Traceback" not in err


@pytest.mark.parametrize(
    "g,d,r,message",
    [
        (SERIES_CAP + 1, SERIES_CAP // 2, 0, "above the cap"),
        (200_000, 100_000, 0, "above the cap"),
        (10**4, 9999, 99, "has 16154 digits"),
    ],
    ids=["genus-over-cap", "genus-200000", "count-16154-digits"],
)
def test_tableaux_count_refuses_counts_too_large(capsys, g, d, r, message):
    # above the genus cap the hook product is never started; (10^4, 9999, 99)
    # is within it, but its count passes Python's 4,300-digit limit on int text
    start = time.perf_counter()
    code, out, err = run(capsys, "tableaux", "--g", str(g), "--d", str(d), "--r", str(r))
    assert time.perf_counter() - start < 1.0
    assert code == 2 and out == ""
    assert message in err and "Traceback" not in err


def test_tableaux_count_at_the_genus_cap(capsys):
    # comb(10^4, 5 * 10^3) has 3,009 digits
    code, out, _ = run(
        capsys, "tableaux", "--g", str(SERIES_CAP), "--d", str(SERIES_CAP // 2), "--r", "0"
    )
    assert code == 0
    assert len(out.strip()) == 3_009


def test_verify_small(capsys):
    code, out, _ = run(
        capsys, "verify", "--g-max", "3", "--seed", "0",
        "--winnability-trials", "8", "--rank-trials", "3",
    )
    assert code == 0
    assert "all checks pass" in out


@pytest.mark.parametrize(
    "flag, value",
    [
        ("--g-max", "0"),
        ("--g-max", "-2"),
        ("--geometries", "0"),
        ("--geometries", "-1"),
        ("--winnability-trials", "-1"),
        ("--rank-trials", "-1"),
    ],
)
def test_verify_rejects_out_of_range_counts(capsys, flag, value):
    # unchecked, --g-max 0 reaches randrange with an empty range, and
    # --geometries 0 skips every geometry check yet prints "all checks pass"
    code, out, err = run(capsys, "verify", flag, value)
    assert code == 1 and out == ""
    assert flag in err and "Traceback" not in err


def test_verify_accepts_smallest_counts(capsys):
    code, out, _ = run(
        capsys, "verify", "--g-max", "1", "--geometries", "1",
        "--winnability-trials", "0", "--rank-trials", "0",
    )
    assert code == 0
    assert "all checks pass" in out


@pytest.mark.parametrize(
    "args",
    [
        ["--g-max", "14"],
        ["--g-max", "1000000000"],
        ["--geometries", "1000000000"],
        ["--winnability-trials", "1000000000"],
    ],
)
def test_verify_refuses_sweeps_over_the_cap(capsys, args):
    # --g-max 14 would sweep 642,398 tableaux on 3 geometries each; the cap
    # is checked from the closed-form counts before any work starts
    start = time.perf_counter()
    code, out, err = run(capsys, "verify", *args)
    assert time.perf_counter() - start < 1.0
    assert code == 2 and out == ""
    assert "verify would sweep more than" in err and "Traceback" not in err


@pytest.mark.parametrize("trials", [RANK_TRIAL_CAP + 1, 99_000, 10**9])
def test_verify_caps_rank_trials_apart_from_the_sweep(capsys, trials):
    # each rank trial is an exhaustive bn_rank: --g-max 1 --rank-trials 99000
    # stayed under the sweep cap and ran 27 s
    start = time.perf_counter()
    code, out, err = run(capsys, "verify", "--g-max", "1", "--rank-trials", str(trials))
    assert time.perf_counter() - start < 1.0
    assert code == 2 and out == ""
    assert "--rank-trials" in err and "Traceback" not in err


def test_verify_runs_the_rank_trial_cap(capsys):
    code, out, _ = run(
        capsys, "verify", "--g-max", "1", "--geometries", "1",
        "--winnability-trials", "0", "--rank-trials", str(RANK_TRIAL_CAP),
    )
    assert code == 0
    # three component counts and three tableaux at genus 1
    assert out == f"checks run: {RANK_TRIAL_CAP + 6}\nall checks pass\n"


def test_verify_disagreement_exits_three(capsys, monkeypatch):
    from bnchains import cli as cli_mod
    from bnchains.verify import SuiteResult, VerifyFailure

    def fake_suite(**kwargs):
        return SuiteResult(
            checks_run=1,
            failures=[VerifyFailure("table agreement", "(i=1, s=0)", {"seed": 0})],
        )

    monkeypatch.setattr(cli_mod, "run_suite", fake_suite)
    code, out, _ = run(capsys, "verify", "--g-max", "2")
    assert code == 3
    assert "FAIL [table agreement]" in out
    assert '"seed": 0' in out  # reproducer dump


def test_missing_file_exit_one(capsys):
    code, _, err = run(capsys, "eh", "--tableau", "/nonexistent.json")
    assert code == 1
