import ast
import hashlib
import json
import os
import random

import pytest

from bnchains import serialize
from bnchains import verify as vf
from bnchains.tableaux import BNParams, count_components, enumerate_tableaux
from bnchains.tropical import divisor_from_tableau


def test_sweep_params_bounds():
    params = vf.sweep_params(4)
    assert all(p.g <= 4 and p.rho >= 0 and p.kbar >= 0 for p in params)
    assert BNParams(4, 4, 1) in params
    assert BNParams(4, 2, 1) not in params  # rho = -2


def test_sweep_cap_admits_the_default_sweep():
    # the defaults of verify: 3 geometries, 60 winnability and 15 rank trials
    for g_max in (6, 11):
        vf._check_sweep_size(g_max, 3, 60, 15)
    with pytest.raises(vf.VerifyTooLargeError):
        vf._check_sweep_size(12, 3, 60, 15)
    # a tableau counts its series checks besides each geometry: at one
    # geometry g_max 12 is 75,874 tableaux, 151,748 units, and is refused
    vf._check_sweep_size(10, 10, 60, 15)
    for g_max in (12, 13):
        with pytest.raises(vf.VerifyTooLargeError):
            vf._check_sweep_size(g_max, 1, 0, 0)
    with pytest.raises(vf.VerifyTooLargeError):
        vf._check_sweep_size(1, 10**5, 0, 0)
    # a winnability trial is two units, and g_max 1 three tableaux
    trials = (vf.SWEEP_WORK_CAP - 6) // 2
    vf._check_sweep_size(1, 1, trials, vf.RANK_TRIAL_CAP)
    with pytest.raises(vf.VerifyTooLargeError):
        vf._check_sweep_size(1, 1, trials + 1, 1)
    # rank trials have a cap of their own and are not sweep work
    with pytest.raises(vf.VerifyTooLargeError, match="rank trials"):
        vf._check_sweep_size(1, 1, 0, vf.RANK_TRIAL_CAP + 1)


@pytest.mark.parametrize(
    "counts, message",
    [
        ({"g_max": 0}, "--g-max must be at least 1, got 0"),
        ({"geometries_per_param": 0}, "--geometries must be at least 1, got 0"),
        ({"oracle_winnability_trials": -1}, "--winnability-trials must be at least 0, got -1"),
        ({"oracle_rank_trials": -1}, "--rank-trials must be at least 0, got -1"),
        # checked before the caps: these rank trials are also over theirs
        (
            {"g_max": -1, "oracle_rank_trials": vf.RANK_TRIAL_CAP + 1},
            "--g-max must be at least 1, got -1",
        ),
    ],
)
def test_run_suite_rejects_out_of_range_counts(counts, message):
    # unchecked, g_max 0 ended in randrange's empty range, and no geometries
    # skipped every geometry check yet passed
    with pytest.raises(ValueError) as caught:
        vf.run_suite(**{"g_max": 1, **counts})
    assert str(caught.value) == message


def test_suite_passes_small():
    result = vf.run_suite(
        g_max=3,
        seed=1,
        geometries_per_param=2,
        oracle_winnability_trials=10,
        oracle_rank_trials=4,
    )
    assert result.passed, result.failures
    assert result.checks_run > 20


def _tamper_closed_form(monkeypatch):
    """Raise w_0(g) of the closed form by one on every tableau with r >= 1."""
    from bnchains import effective
    from bnchains.elliptic import VanishingSequence

    original = effective.effective_vanishing_from_tableau

    def tampered(t, i):
        seq = original(t, i)
        if i == t.params.g and t.params.r >= 1:
            orders = list(seq.orders)
            orders[0] += 1
            return VanishingSequence(tuple(orders))
        return seq

    monkeypatch.setattr(vf, "effective_vanishing_from_tableau", tampered)


def test_suite_detects_tampered_closed_form(monkeypatch):
    # a wrong closed form must be caught with the (i, s) locus reported
    _tamper_closed_form(monkeypatch)
    result = vf.run_suite(
        g_max=2,
        seed=1,
        geometries_per_param=1,
        oracle_winnability_trials=0,
        oracle_rank_trials=0,
    )
    assert not result.passed
    assert any("(i=" in f.detail for f in result.failures)
    assert any("tableau" in f.reproducer for f in result.failures)


def _flip_winnability(monkeypatch):
    """Negate the tropical side of every winnability trial."""
    original = vf.is_equivalent_to_effective
    monkeypatch.setattr(
        vf, "is_equivalent_to_effective", lambda geom, divisor: not original(geom, divisor)
    )


def _raise_tropical_rank(monkeypatch):
    """Add one to the tropical side of every rank trial."""
    original = vf.tropical_rank
    monkeypatch.setattr(vf, "tropical_rank", lambda geom, divisor: original(geom, divisor) + 1)


# SHA-256 of the stdout of ``bnchains verify --g-max 5 --seed 3`` under each
# fault, from the sweep in one process, before it was split into shards
# (commit 2a50ee6).  The closed-form fault fails 69 table agreements (33,739
# bytes); the winnability fault fails all 60 winnability trials (27,564
# bytes), whose reproducers pin the random stream the trials draw after the
# geometries.  The rank fault, pinned at commit 2c8101c, fails all 15 rank
# trials (6,044 bytes), which draw after the winnability trials.
PINNED_VERIFY_STDOUT = {
    "closed form": (
        _tamper_closed_form,
        "FAIL [table agreement]",
        69,
        "04e1f13318740f803ac4365f543438ef2cd6e54a1bd36b37ab50bd8f025966f3",
    ),
    "winnability": (
        _flip_winnability,
        "FAIL [winnability agreement]",
        60,
        "ed5db70d44c9e8fb14c6de638db4d1c069a6adfc19298ab979e01384a0fa9f93",
    ),
    "rank": (
        _raise_tropical_rank,
        "FAIL [rank agreement]",
        15,
        "aecdc6f1a01fb27d86a02d0c28821c84eaf07f139f531cc6895d588f7268012c",
    ),
}


def _force_shards(monkeypatch, count):
    monkeypatch.setattr(vf, "_shard_count", lambda triples: min(count, triples))


def _count_forks(monkeypatch) -> list:
    forked = []
    real_fork = os.fork

    def fork():
        pid = real_fork()
        if pid:
            forked.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", fork)
    return forked


def _assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.mark.parametrize("shards", [None, 1, 3])
@pytest.mark.parametrize("fault", sorted(PINNED_VERIFY_STDOUT))
def test_verify_output_is_pinned(capsys, monkeypatch, fault, shards):
    from bnchains.cli import main

    inject, line, failures, digest = PINNED_VERIFY_STDOUT[fault]
    inject(monkeypatch)
    if shards is not None:
        _force_shards(monkeypatch, shards)
    forked = _count_forks(monkeypatch)
    assert main(["verify", "--g-max", "5", "--seed", "3"]) == 3
    out = capsys.readouterr().out
    assert out.count("FAIL") == out.count(line) == failures
    assert hashlib.sha256(out.encode()).hexdigest() == digest
    assert len(forked) == (shards or vf._shard_count(len(vf.sweep_params(5)))) - 1
    _assert_no_child_left()


def test_this_machine_sweeps_in_shards():
    # the tests below force shard counts; the default must use the CPUs too
    cpus = len(os.sched_getaffinity(0))
    assert vf._shard_count(68) == min(cpus, vf.MAX_SHARDS)
    assert vf._shard_count(1) == 1


def _suite_bytes(result) -> tuple:
    failures = [(f.check, f.detail, json.dumps(f.reproducer)) for f in result.failures]
    return result.checks_run, failures


@pytest.mark.parametrize("seed", [0, 3])
def test_shard_count_does_not_change_the_result(monkeypatch, seed):
    assert vf.run_suite(6, seed).checks_run == 441
    _tamper_closed_form(monkeypatch)
    forked = _count_forks(monkeypatch)
    seen = []
    for shards in (1, 2, 3):
        _force_shards(monkeypatch, shards)
        seen.append(_suite_bytes(vf.run_suite(6, seed)))
        _assert_no_child_left()
    assert len(forked) == 0 + 1 + 2
    checks_run, failures = seen[0]
    assert checks_run == 441 and len(failures) > 100
    assert seen[1] == seen[0] and seen[2] == seen[0]


def test_shard_count_does_not_change_a_component_count_failure(monkeypatch):
    # each shard enumerates and counts its own triples; the geometries of
    # the triples after a miscounted one are drawn as if it counted right
    _tamper_closed_form(monkeypatch)
    broken = vf.sweep_params(6)[-1]
    original = vf.enumerate_tableaux
    monkeypatch.setattr(
        vf, "enumerate_tableaux", lambda p: list(original(p))[: -1 if p == broken else None]
    )
    seen = []
    for shards in (1, 2, 3):
        _force_shards(monkeypatch, shards)
        seen.append(_suite_bytes(vf.run_suite(6, 0)))
        _assert_no_child_left()
    checks_run, failures = seen[0]
    assert checks_run == 441 - count_components(broken)
    counts = [f for f in failures if f[0] == "component count"]
    assert counts == [(
        "component count",
        f"{broken}: enumerated {count_components(broken) - 1}, "
        f"closed form {count_components(broken)}",
        json.dumps({"params": [broken.g, broken.d, broken.r]}),
    )]
    assert len(failures) > 100
    assert seen[1] == seen[0] and seen[2] == seen[0]


def test_parent_enumerates_only_its_first_shard(monkeypatch):
    enumerated = []
    original = vf.enumerate_tableaux

    def recorded(params):
        enumerated.append(params)  # in this process only, not in a child
        return original(params)

    monkeypatch.setattr(vf, "enumerate_tableaux", recorded)
    _force_shards(monkeypatch, 2)
    assert vf.run_suite(6, 0).checks_run == 441
    triples = vf.sweep_params(6)
    assert len(triples) == 68
    assert 0 < len(enumerated) < len(triples)
    assert enumerated == triples[: len(enumerated)]


def test_shard_runs_are_contiguous_and_balanced():
    weights = [1, 2, 3, 50, 50, 50, 50, 10]
    for count in range(1, len(weights) + 1):
        for lead in (0, 40, 1000):
            runs = vf._shard_runs(weights, lead, count)
            assert len(runs) == count and all(runs)
            assert [i for run in runs for i in run] == list(range(len(weights)))
    # the first run gives up the weight of the oracle trials
    assert vf._shard_runs(weights, 0, 2) == [range(0, 5), range(5, 8)]
    assert vf._shard_runs(weights, 60, 2) == [range(0, 4), range(4, 8)]
    assert vf._shard_runs(weights, 1000, 3) == [range(0, 1), range(1, 5), range(5, 8)]


def _raise_on(monkeypatch, params, exc):
    original = vf._tableau_failure

    def failing(t, geoms, seed):
        if t.params == params:
            raise exc
        return original(t, geoms, seed)

    monkeypatch.setattr(vf, "_tableau_failure", failing)


def _raised(monkeypatch, shards):
    _force_shards(monkeypatch, shards)
    with pytest.raises(BaseException) as info:
        vf.run_suite(6, 1)
    _assert_no_child_left()
    return type(info.value), str(info.value)


@pytest.mark.parametrize("where", ["child", "parent"])
def test_shard_exception_reaches_the_caller(monkeypatch, capsys, where):
    from bnchains.cli import main
    from bnchains.tropical import RankDeficiencyError

    params = vf.sweep_params(6)[-1 if where == "child" else 2]
    _raise_on(monkeypatch, params, RankDeficiencyError(f"no rank at {params}"))
    forked = _count_forks(monkeypatch)
    serial = _raised(monkeypatch, 1)
    assert serial == (RankDeficiencyError, f"no rank at {params}")
    assert _raised(monkeypatch, 2) == serial
    assert _raised(monkeypatch, 3) == serial
    assert len(forked) == 1 + 2
    # the CLI maps it to exit 1 as before, with the same message
    for shards in (1, 2):
        _force_shards(monkeypatch, shards)
        assert main(["verify", "--g-max", "6", "--seed", "1"]) == 1
        out, err = capsys.readouterr()
        assert (out, err) == ("", f"error: no rank at {params}\n")
        _assert_no_child_left()


def test_failing_parent_kills_its_children(monkeypatch):
    # a child stuck in its shard must not hold up the parent's exception
    import time

    stuck = vf.sweep_params(6)[-1]
    original = vf._tableau_failure

    def failing(t, geoms, seed):
        if t.params.g == 1:
            raise KeyError("first shard")
        if t.params == stuck:
            time.sleep(60)
        return original(t, geoms, seed)

    monkeypatch.setattr(vf, "_tableau_failure", failing)
    start = time.monotonic()
    assert _raised(monkeypatch, 2) == (KeyError, "'first shard'")
    assert time.monotonic() - start < 30


def test_earliest_exception_wins(monkeypatch):
    # a child's exception comes before the oracle trials', as in sweep order
    _raise_on(monkeypatch, vf.sweep_params(6)[-1], KeyError("late shard"))
    monkeypatch.setattr(
        vf, "is_equivalent_to_effective", lambda geom, divisor: 1 / 0
    )
    assert _raised(monkeypatch, 1) == (KeyError, "'late shard'")
    assert _raised(monkeypatch, 2) == (KeyError, "'late shard'")
    monkeypatch.undo()
    monkeypatch.setattr(
        vf, "is_equivalent_to_effective", lambda geom, divisor: 1 / 0
    )
    assert _raised(monkeypatch, 2) == (ZeroDivisionError, "division by zero")


def test_unpicklable_child_exception_keeps_type_and_message(monkeypatch):
    class Local(Exception):
        pass

    _raise_on(monkeypatch, vf.sweep_params(6)[-1], Local("not importable"))
    assert _raised(monkeypatch, 2) == (Local, "not importable")


def _kill_children_on(monkeypatch, params):
    # a child, and only a child, kills itself when it reaches ``params``
    import signal

    parent = os.getpid()
    original = vf._tableau_failure

    def dying(t, geoms, seed):
        if t.params == params and os.getpid() != parent:
            os.kill(os.getpid(), signal.SIGKILL)
        return original(t, geoms, seed)

    monkeypatch.setattr(vf, "_tableau_failure", dying)


def test_child_that_dies_without_answering_is_swept_again(monkeypatch):
    import signal

    _tamper_closed_form(monkeypatch)
    _force_shards(monkeypatch, 1)
    serial = _suite_bytes(vf.run_suite(6, 1))
    _kill_children_on(monkeypatch, vf.sweep_params(6)[-1])
    statuses = []
    real_waitpid = os.waitpid

    def waitpid(pid, options):
        pid, status = real_waitpid(pid, options)
        statuses.append(status)
        return pid, status

    monkeypatch.setattr(os, "waitpid", waitpid)
    _force_shards(monkeypatch, 2)
    assert _suite_bytes(vf.run_suite(6, 1)) == serial
    assert [os.WTERMSIG(status) for status in statuses] == [signal.SIGKILL]
    _assert_no_child_left()


def test_verify_with_a_killed_child_prints_the_one_shard_output(capsys, monkeypatch):
    from bnchains.cli import main

    _force_shards(monkeypatch, 1)
    assert main(["verify"]) == 0
    serial = capsys.readouterr()
    _kill_children_on(monkeypatch, vf.sweep_params(6)[-1])
    forked = _count_forks(monkeypatch)
    _force_shards(monkeypatch, 2)
    assert main(["verify"]) == 0
    assert capsys.readouterr() == serial
    assert len(forked) == 1
    _assert_no_child_left()


def test_interrupted_wait_kills_the_child(monkeypatch):
    # an exception while the parent reads a child's answer, here from an
    # alarm, must not leave the child running
    import signal
    import time

    stuck = vf.sweep_params(6)[-1]
    original = vf._tableau_failure

    def sleepy(t, geoms, seed):
        if t.params == stuck:
            time.sleep(60)
        return original(t, geoms, seed)

    def interrupt(signum, frame):
        raise KeyError("interrupted")

    monkeypatch.setattr(vf, "_tableau_failure", sleepy)
    previous = signal.signal(signal.SIGALRM, interrupt)
    start = time.monotonic()
    try:
        signal.setitimer(signal.ITIMER_REAL, 2.0)
        assert _raised(monkeypatch, 2) == (KeyError, "'interrupted'")
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
    assert time.monotonic() - start < 30


def test_refused_sweep_forks_nothing(capsys, monkeypatch):
    from bnchains.cli import main

    def no_fork():
        raise AssertionError("forked")

    monkeypatch.setattr(os, "fork", no_fork)
    assert main(["verify", "--g-max", "12"]) == 2
    assert "verify would sweep more than" in capsys.readouterr().err
    _assert_no_child_left()


def test_failed_fork_leaves_the_shard_to_the_caller(monkeypatch):
    _tamper_closed_form(monkeypatch)
    _force_shards(monkeypatch, 1)
    serial = _suite_bytes(vf.run_suite(4, 2))

    def no_fork():
        raise OSError("no more processes")

    monkeypatch.setattr(os, "fork", no_fork)
    _force_shards(monkeypatch, 3)
    assert _suite_bytes(vf.run_suite(4, 2)) == serial
    _assert_no_child_left()


def test_threads_keep_the_sweep_in_one_process(monkeypatch):
    import threading

    forked = _count_forks(monkeypatch)
    stop = threading.Event()
    thread = threading.Thread(target=stop.wait)
    thread.start()
    try:
        assert vf._shard_count(68) == 1
        assert vf.run_suite(3, 0).passed
    finally:
        stop.set()
        thread.join()
    assert forked == []


def test_passing_sharded_sweep_imports_neither_pickle_nor_signal():
    # nothing needs pickle, and only a failed sweep signal; a child whose
    # sweep raises answers nothing, and the parent sweeps its shard again
    import subprocess
    import sys
    from pathlib import Path

    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    script = (
        "import os, sys, bnchains.cli\n"
        "from bnchains import verify as vf\n"
        "forks = []\n"
        "fork = os.fork\n"
        "os.fork = lambda: forks.append(1) or fork()\n"
        "vf._shard_count = lambda triples: min(2, triples)\n"
        "last, check = vf.sweep_params(3)[-1], vf._tableau_failure\n"
        "def failing(t, geoms, seed):\n"
        "    if t.params == last:\n"
        "        raise KeyError(last)\n"
        "    return check(t, geoms, seed)\n"
        "if sys.argv[1] == 'raising':\n"
        "    vf._tableau_failure = failing\n"
        "try:\n"
        "    assert vf.run_suite(3, 0).passed and forks\n"
        "except KeyError:\n"
        "    assert sys.argv[1] == 'raising' and forks\n"
        "print(sorted({'pickle', 'signal'} & set(sys.modules)))\n"
    )
    for case in ("passing", "raising"):
        out = subprocess.run(
            [sys.executable, "-c", script, case],
            capture_output=True,
            text=True,
            env=env,
            check=True,
        ).stdout
        assert out == "[]\n", case


def test_suite_detects_wrong_rank(monkeypatch):
    # rank is certified at every genus, past the default verify --g-max 6
    original = vf._rank_from_split
    monkeypatch.setattr(
        vf,
        "_rank_from_split",
        lambda node_mult, loops, degree: original(node_mult, loops, degree) + (len(loops) == 7),
    )
    result = vf.run_suite(
        g_max=7,
        seed=1,
        geometries_per_param=1,
        oracle_winnability_trials=0,
        oracle_rank_trials=0,
    )
    assert {f.check for f in result.failures} == {"rank certification"}
    g7 = [p for p in vf.sweep_params(7) if p.g == 7]
    assert len(result.failures) == sum(count_components(p) for p in g7)
    for failure in result.failures:
        repro = failure.reproducer
        assert repro["tableau"]["g"] == 7
        assert set(repro) == {"tableau", "geometry", "seed"}
    # the reproducer is the check's input: one call replays the failure
    t = serialize.tableau_from_obj(repro["tableau"])
    geom = serialize.geometry_from_obj(repro["geometry"])
    check, detail, _ = vf._tableau_failure(t, [geom], repro["seed"])
    assert (check, detail) == (failure.check, failure.detail)


def _lower_pinned_classes(monkeypatch):
    """Lower a by one in every pinned bundle class with a > 0."""
    from bnchains import elliptic

    original = elliptic.bundle_from_tableau

    def lowered(t, i):
        bundle = original(t, i)
        if bundle.is_special and bundle.a > 0:
            return elliptic.BundleClass.special(i, bundle.degree, bundle.a - 1)
        return bundle

    monkeypatch.setattr(elliptic, "bundle_from_tableau", lowered)


def test_suite_detects_a_wrong_bundle_class(monkeypatch):
    # only the component check reads a bundle class: without it the
    # lowered classes passed all 253 checks
    _lower_pinned_classes(monkeypatch)
    result = vf.run_suite(5, 0)
    assert result.checks_run == 253
    assert len(result.failures) == 96
    for failure in result.failures:
        assert failure.check == "component series"
        assert set(failure.reproducer) == {"tableau"}
        t = serialize.tableau_from_obj(failure.reproducer["tableau"])
        assert vf._tableau_failure(t, [], 0) == (failure.check, failure.detail, None)


def _free_placed_classes(monkeypatch):
    """Give every component the free class, placed indices included."""
    from bnchains import elliptic

    monkeypatch.setattr(
        elliptic, "bundle_from_tableau", lambda t, i: elliptic.BundleClass.generic(i, t.params.d)
    )


def _pin_free_classes(monkeypatch):
    """Pin the class of every free index at a = 0."""
    from bnchains import elliptic

    original = elliptic.bundle_from_tableau

    def pinned(t, i):
        if t.is_placed(i):
            return original(t, i)
        return elliptic.BundleClass.special(i, t.params.d, 0)

    monkeypatch.setattr(elliptic, "bundle_from_tableau", pinned)


@pytest.mark.parametrize(
    "inject, wrong",
    [
        (_free_placed_classes, lambda t: t.placed_indices),
        (_pin_free_classes, lambda t: t.params.rho),
    ],
    ids=["free-where-placed", "pinned-where-free"],
)
def test_suite_detects_a_class_of_the_wrong_kind(monkeypatch, inject, wrong):
    # a class the equality index does not ask for: a free one where the pair
    # has an equality, a pinned one where it has none
    inject(monkeypatch)
    result = vf.run_suite(5, 0)
    assert result.checks_run == 253
    expected = [t for p in vf.sweep_params(5) for t in enumerate_tableaux(p) if wrong(t)]
    assert len(result.failures) == len(expected) > 0
    for failure, t in zip(result.failures, expected):
        assert failure.check == "component series"
        assert failure.reproducer == {"tableau": serialize.tableau_to_obj(t)}
        assert _replay(failure) == (failure.check, failure.detail)


def _raise_closed_form_orders(monkeypatch):
    """Add one to every order of the closed form that series assembly reads."""
    from bnchains import elliptic

    original = elliptic.vanishing_from_tableau
    monkeypatch.setattr(
        elliptic,
        "vanishing_from_tableau",
        lambda t, i: elliptic.VanishingSequence(tuple(v + 1 for v in original(t, i))),
    )


def test_verify_reports_a_series_the_library_refuses(capsys, monkeypatch):
    # the raised orders make the P-side at Q_0 end in -1, so building the
    # series refuses: a failed check with its reproducer, not an error exit
    from bnchains.cli import main

    _raise_closed_form_orders(monkeypatch)
    outs = []
    for shards in (1, 2):
        _force_shards(monkeypatch, shards)
        assert main(["verify", "--g-max", "3"]) == 3
        outs.append(capsys.readouterr().out)
    assert outs[0] == outs[1]
    fails = [line for line in outs[0].splitlines() if line.startswith("FAIL")]
    assert len(fails) == 25
    assert all(line.startswith("FAIL [series validity] orders must be") for line in fails)


def _drop_a_tableau(monkeypatch):
    """Enumerate one tableau too few for the last triple of genus 4."""
    broken = vf.sweep_params(4)[-1]
    original = vf.enumerate_tableaux
    monkeypatch.setattr(
        vf, "enumerate_tableaux", lambda p: list(original(p))[: -1 if p == broken else None]
    )


def _replay(failure) -> tuple:
    """``(check, detail)`` of the failed check re-run on its parsed reproducer."""
    repro = failure.reproducer
    if "params" in repro:
        (replayed,) = vf._sweep([(BNParams(*repro["params"]), [])], 0).failures
        return replayed.check, replayed.detail
    if "tableau" in repro:
        t = serialize.tableau_from_obj(repro["tableau"])
        if "geometry" not in repro:
            return vf._tableau_failure(t, [], 0)[:2]
        geom = serialize.geometry_from_obj(repro["geometry"])
        return vf._tableau_failure(t, [geom], repro["seed"])[:2]
    geom = serialize.geometry_from_obj(repro["geometry"])
    divisor = serialize.divisor_from_obj(repro["divisor"], geom)
    return failure.check, vf._trial_failure(failure.check, geom, divisor)


@pytest.mark.parametrize(
    "inject, check, inputs",
    [
        (_drop_a_tableau, "component count", {"params"}),
        (_lower_pinned_classes, "component series", {"tableau"}),
        (_tamper_closed_form, "table agreement", {"tableau", "geometry", "seed"}),
        (_flip_winnability, "winnability agreement", {"geometry", "divisor"}),
        (_raise_tropical_rank, "rank agreement", {"geometry", "divisor"}),
        (_raise_closed_form_orders, "series validity", {"tableau"}),
    ],
    ids=["count", "tableau", "tableau-on-geometry", "winnability", "rank", "refused-series"],
)
def test_every_reproducer_replays_its_check(monkeypatch, inject, check, inputs):
    # a reproducer is exactly the failed check's input: one call on it,
    # parsed, gives the same check and detail
    inject(monkeypatch)
    result = vf.run_suite(4, 1, 2, 8, 4)
    assert result.failures
    for failure in result.failures:
        assert (failure.check, set(failure.reproducer)) == (check, inputs)
        assert _replay(failure) == (failure.check, failure.detail)


def test_verify_failure_is_built_only_by_the_recorder():
    # _record is the one path from a check to a failure; _collect only
    # decodes the failures a child recorded and sent back as JSON
    from pathlib import Path

    from test_tableaux import _mentions

    import bnchains

    found = set()
    for path in sorted(Path(bnchains.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for kind, scope in _mentions(tree, "VerifyFailure"):
            if kind in ("call", "attribute", "renamed import"):
                found.add((path.stem, kind, ".".join(scope)))
    assert found == {("verify", "call", "_record"), ("verify", "call", "_collect")}


def test_one_split_per_tableau_divisor(monkeypatch):
    # the table and the rank of a tableau divisor come from one split; the
    # soundness residue, a different divisor, is split once more
    from bnchains import tropical

    calls = []
    original = tropical._split

    def counted(geom, divisor):
        calls.append(divisor)
        return original(geom, divisor)

    monkeypatch.setattr(tropical, "_split", counted)
    monkeypatch.setattr(vf, "_split", counted)
    rng = random.Random(5)
    for params in (BNParams(4, 4, 1), BNParams(6, 6, 2), BNParams(5, 6, 2)):
        geoms = [vf.random_generic_geometry(params.g, rng) for _ in range(3)]
        for t in enumerate_tableaux(params):
            calls.clear()
            assert vf._tableau_failure(t, geoms, 0) is None
            assert len(calls) == 2 * len(geoms)
            divisors = [divisor_from_tableau(t, geom, seed=0) for geom in geoms]
            assert calls[::2] == divisors


def test_suite_passes_at_genus_8():
    # every check up to genus 8, rank certification included, with the defaults
    result = vf.run_suite(8, 0)
    assert result.passed, result.failures
    assert result.checks_run == 1_848
    assert result.checks_run == 75 + sum(1 + count_components(p) for p in vf.sweep_params(8))


def test_random_generic_geometry_is_generic():
    import random

    from bnchains import check_genericity

    rng = random.Random(3)
    for g in (1, 2, 4, 6):
        geom = vf.random_generic_geometry(g, rng)
        assert geom.g == g
        assert check_genericity(geom).generic
