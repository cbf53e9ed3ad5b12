"""Built-in agreement suite: every model checked against every other.

The suite sweeps all parameter triples up to a genus bound and, for each
tableau, checks the combinatorial counts, that the concentrated and the
effective series build and convert (the conversions validate their input, so
a refusal is the failure), that each component comes from the one before,
the effective round trip, and the agreement of the three vanishing tables
(closed form, effective, dynamic tropical) on randomized generic geometries.
A budgeted slice of randomized divisors is additionally cross-checked
against the chip-firing oracle.  The calling process draws every geometry;
shards of triples, forked but for the first, enumerate and check their own,
and a shard whose child gives no answer is swept again by the calling
process (see :func:`run_suite`).  Every check is counted, and every failure
built, by ``_record``; ``_collect`` only decodes the ones a child sends
back.  A failure carries a JSON reproducer that is exactly the failed
check's input, and one call on it, parsed, replays the check:

* a component count, ``{"params": [g, d, r]}``:
  ``_sweep([(BNParams(g, d, r), [])], 0)``;
* a tableau check that uses no geometry, ``{"tableau"}``:
  ``_tableau_failure(tableau, [], 0)``;
* a tableau check on a geometry, ``{"tableau", "geometry", "seed"}``:
  ``_tableau_failure(tableau, [geometry], seed)``;
* an oracle trial, ``{"geometry", "divisor"}``:
  ``_trial_failure(check, geometry, divisor)``.
"""

from __future__ import annotations

import json
import os
import random
import threading
from dataclasses import dataclass, field
from fractions import Fraction

from . import serialize
from .effective import effective_to_eh, effective_vanishing_from_tableau, eh_to_effective
from .elliptic import (
    EHSeries,
    SeriesFamily,
    UniqueSeries,
    check_vanishing_pair,
    eh_series_from_tableau,
    propagate_vanishing,
    vanishing_from_tableau,
)
from .oracle import bn_rank, chips_from_divisor, is_winnable, subdivide_chain
from .tableaux import BNParams, Tableau, count_components, enumerate_tableaux, validate_tableau
from .tropical import (
    ChainGeometry,
    Node,
    TropicalDivisor,
    _rank_from_split,
    _split,
    _table_from_split,
    check_genericity,
    divisor_from_tableau,
    is_equivalent_to_effective,
    point_on_loop,
    reduce_to_q0,
    tropical_rank,
)


@dataclass
class VerifyFailure:
    check: str
    detail: str
    reproducer: dict


@dataclass
class SuiteResult:
    checks_run: int = 0
    failures: list[VerifyFailure] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return not self.failures


# Units of work a suite may sweep: per tableau one for its series checks,
# which cost about as much as one geometry, and one per geometry; two per
# winnability trial.  ``verify --g-max 6`` with the defaults sweeps 1,312
# and ``--g-max 11`` 110,604; the tableaux grow about threefold with each
# genus, so ``--g-max 12`` is refused even at one geometry (151,748), where
# it took 22.9 s.  Near the cap ``--g-max 11`` took 11.5 s and ``--g-max 10
# --geometries 10`` (114,432) 10.2 s (2-core machine, Python 3.11).
SWEEP_WORK_CAP = 120_000

# Oracle rank trials are capped apart from the sweep: each is an exhaustive
# ``bn_rank``, a trial on average 0.11-0.13 ms at ``--g-max 1`` and
# 0.23-0.37 ms at ``--g-max 4``, where the trials stop growing (1,000 trials,
# three seeds, 2-core machine, Python 3.11), so the cap bounds them to under
# half a second.
RANK_TRIAL_CAP = 1_000


# Most processes one suite sweeps in, the calling one included: one per
# usable CPU up to this many.
MAX_SHARDS = 8

# The cost of one oracle trial in the unit of a shard's weight, one tableau
# checked on one geometry per loop: a ``--g-max 6`` trial took as long as 10
# to 13 of them (2-core machine, Python 3.11), so the 75 default trials are
# about 15% of that suite.
ORACLE_TRIAL_WEIGHT = 12


class VerifyTooLargeError(RuntimeError):
    """The suite would pass :data:`SWEEP_WORK_CAP` or :data:`RANK_TRIAL_CAP`."""


def _genus_params(g: int) -> list[BNParams]:
    out = []
    for r in range(0, g + 1):
        for d in range(0, 2 * g + 1):
            p = BNParams(g, d, r)
            if p.rho >= 0 and p.kbar >= 0:
                out.append(p)
    return out


def sweep_params(g_max: int) -> list[BNParams]:
    """All (g, d, r) with g <= g_max, rho >= 0 and a non-trivial tableau shape."""
    return [p for g in range(1, g_max + 1) for p in _genus_params(g)]


def _check_sweep_size(
    g_max: int, geometries_per_param: int, winnability_trials: int, rank_trials: int
) -> None:
    """Raise :class:`VerifyTooLargeError` if the suite exceeds a work cap.

    Counts tableaux by the closed form, genus by genus, and stops as soon as
    the cap is passed, so the check is cheap for any flags.
    """
    if rank_trials > RANK_TRIAL_CAP:
        raise VerifyTooLargeError(
            f"verify runs at most {RANK_TRIAL_CAP} oracle rank trials, got "
            f"{rank_trials}; lower --rank-trials"
        )
    work = 2 * winnability_trials
    g = 0
    while work <= SWEEP_WORK_CAP and g < g_max:
        g += 1
        tableaux = sum(count_components(p) for p in _genus_params(g))
        work += (geometries_per_param + 1) * tableaux
    if work > SWEEP_WORK_CAP:
        raise VerifyTooLargeError(
            f"verify would sweep more than {SWEEP_WORK_CAP} units of tableau checks "
            "and winnability trials; lower --g-max, --geometries or --winnability-trials"
        )


def random_generic_geometry(g: int, rng: random.Random) -> ChainGeometry:
    """Generic loop lengths with small denominators, rejection-sampled."""
    bound = max(2 * g - 2, 1)
    while True:
        lengths = []
        for _ in range(g):
            num = rng.randrange(bound, 3 * bound + 1)
            den = rng.randrange(1, 4)
            lengths.append((Fraction(num, den), Fraction(1, rng.randrange(1, 3))))
        geom = ChainGeometry(tuple(lengths))
        if check_genericity(geom).generic:
            return geom


def run_suite(
    g_max: int,
    seed: int = 0,
    geometries_per_param: int = 3,
    oracle_winnability_trials: int = 60,
    oracle_rank_trials: int = 15,
) -> SuiteResult:
    """Run every check up to genus ``g_max``; failures come in sweep order.

    The calling process draws every triple's random geometries, in sweep
    order, and the oracle trials draw after them, so the random stream is
    the same however the work is split.  The triples are cut into contiguous
    shards of about equal work, one per usable CPU (at most
    :data:`MAX_SHARDS`), a triple weighing ``count_components(p) * g`` per
    geometry, and each shard enumerates its own triples' tableaux, checks
    their count, and checks each tableau.  The shards past the first run in
    forked children that send their checks back as JSON over a pipe; the
    calling process sweeps the first shard, made lighter by the weight of
    the oracle trials (:data:`ORACLE_TRIAL_WEIGHT` each), and then runs
    those trials.  A shard no child answers for, or none could be forked
    for, is swept by the calling process, so a child's exception is raised
    again there.  Results are merged in triple order, so the result and the
    first exception in sweep order are the same for any number of shards.
    Every child is waited for, and killed first if the sweep failed, before
    this returns.  Without ``os.fork`` or ``os.sched_getaffinity`` or with
    other threads running, the whole sweep runs in the calling process.
    Counts below their least useful value raise ``ValueError``, named by the
    CLI flag that sets each, before any cap is checked.
    """
    for flag, value, low in (
        ("--g-max", g_max, 1),
        ("--geometries", geometries_per_param, 1),
        ("--winnability-trials", oracle_winnability_trials, 0),
        ("--rank-trials", oracle_rank_trials, 0),
    ):
        if value < low:
            raise ValueError(f"{flag} must be at least {low}, got {value}")
    _check_sweep_size(
        g_max, geometries_per_param, oracle_winnability_trials, oracle_rank_trials
    )
    rng = random.Random(seed)
    sweeps = [
        (params, [random_generic_geometry(params.g, rng) for _ in range(geometries_per_param)])
        for params in sweep_params(g_max)
    ]
    weights = [count_components(p) * p.g * geometries_per_param for p, _ in sweeps]
    lead = ORACLE_TRIAL_WEIGHT * (oracle_winnability_trials + oracle_rank_trials)
    first, *rest = [
        sweeps[run.start : run.stop]
        for run in _shard_runs(weights, lead, _shard_count(len(sweeps)))
    ]

    # per shard past the first: its child's pid and pipe, or two Nones, and the shard
    pending: list[tuple[int | None, int | None, list]] = []
    try:
        for shard in rest:
            pending.append(_fork_sweep(shard, seed))
        parts = [_sweep(first, seed)]
        try:
            oracle = _oracle_checks(
                rng, g_max, oracle_winnability_trials, oracle_rank_trials
            )
        except Exception as exc:  # raised after the shards', as in sweep order
            oracle = exc
        while pending:
            parts.append(_collect(*pending.pop(0), seed))
    finally:
        for pid, fd, _ in pending:
            if pid is not None:
                _kill(pid, fd)
    if isinstance(oracle, Exception):
        raise oracle
    parts.append(oracle)
    return SuiteResult(
        sum(part.checks_run for part in parts),
        [failure for part in parts for failure in part.failures],
    )


def _sweep(shard: list, seed: int) -> SuiteResult:
    """The component count of each ``(params, geometries)`` and every tableau's checks."""
    result = SuiteResult()
    for params, geoms in shard:
        tableaux = list(enumerate_tableaux(params))
        count = count_components(params)
        miscounted = len(tableaux) != count
        detail = f"{params}: enumerated {len(tableaux)}, closed form {count}"
        _record(result, "component count", detail if miscounted else None, params=params)
        if miscounted:
            continue
        for t in tableaux:
            check, detail, geom = _tableau_failure(t, geoms, seed) or (None, None, None)
            on = {} if geom is None else {"geometry": geom, "seed": seed}
            _record(result, check, detail, tableau=t, **on)
    return result


def _record(result: SuiteResult, check: str | None, detail: str | None, **inputs) -> None:
    """Count one check in ``result``, and its failure unless ``detail`` is None.

    The one place a check is counted and a :class:`VerifyFailure` built.  The
    reproducer is ``inputs``, the failed check's input, each serialized under
    its own name in the order given.
    """
    result.checks_run += 1
    if detail is not None:
        to_obj = {
            "params": lambda p: [p.g, p.d, p.r],
            "tableau": serialize.tableau_to_obj,
            "geometry": serialize.geometry_to_obj,
            "divisor": serialize.divisor_to_obj,
            "seed": int,
        }
        repro = {name: to_obj[name](value) for name, value in inputs.items()}
        result.failures.append(VerifyFailure(check, detail, repro))


def _shard_count(triples: int) -> int:
    """Processes to sweep ``triples`` parameter triples in: 1 where forking is unsafe."""
    if (
        not hasattr(os, "fork")
        or not hasattr(os, "sched_getaffinity")
        or threading.active_count() > 1
    ):
        return 1
    return max(1, min(len(os.sched_getaffinity(0)), MAX_SHARDS, triples))


def _shard_runs(weights: list[int], lead: int, count: int) -> list[range]:
    """Cut the indices of ``weights`` into ``count`` contiguous, non-empty runs.

    The first run carries ``lead`` besides its own weights.  Each run in
    turn takes triples while the midpoint of the next stays within an equal
    share of what is left, so a lead above one share leaves the first run a
    single triple and the rest to share alike.  Needs
    ``1 <= count <= len(weights)``.
    """
    left = lead + sum(weights)
    bounds = [0]
    load = lead
    i = 0
    for runs in range(count, 1, -1):
        last = len(weights) - (runs - 1)  # leave a triple to each later run
        load += weights[i]
        i += 1
        while i < last and runs * (2 * load + weights[i]) <= 2 * left:
            load += weights[i]
            i += 1
        bounds.append(i)
        left -= load
        load = 0
    bounds.append(len(weights))
    return [range(a, b) for a, b in zip(bounds, bounds[1:])]


def _fork_sweep(shard: list, seed: int) -> tuple[int | None, int | None, list]:
    """Fork a child that sweeps ``shard``: its pid, the pipe it answers on, and ``shard``.

    The child writes ``[checks_run, failures]`` as JSON and exits 0; if its
    sweep raises, it writes nothing and exits 1.  Where no pipe or child can
    be made, the pid and pipe are None, for :func:`_collect` to sweep here.
    """
    try:
        read_fd, write_fd = os.pipe()
    except OSError:
        return None, None, shard
    try:
        pid = os.fork()
    except OSError:
        os.close(read_fd)
        os.close(write_fd)
        return None, None, shard
    if pid:
        os.close(write_fd)
        return pid, read_fd, shard
    try:
        os.close(read_fd)
        part = _sweep(shard, seed)
        failures = [[f.check, f.detail, f.reproducer] for f in part.failures]
        with os.fdopen(write_fd, "wb") as pipe:
            pipe.write(json.dumps([part.checks_run, failures]).encode())
        os._exit(0)
    finally:
        os._exit(1)


def _kill(pid: int, fd: int) -> None:
    """Kill and reap a child whose answer is no longer wanted."""
    import signal  # only a failed sweep needs it

    os.kill(pid, signal.SIGKILL)
    os.waitpid(pid, 0)
    os.close(fd)


def _collect(pid: int | None, fd: int | None, shard: list, seed: int) -> SuiteResult:
    """The checks of ``shard``: its child's answer, or a sweep here.

    With no child, or a child that exits other than with status 0 (its sweep
    raised, or it was killed), ``shard`` is swept here; the sweep is
    deterministic given ``(shard, seed)``, so an exception the child raised
    is raised again here with its own type, message and traceback.  A read
    cut short kills the child instead.
    """
    if pid is None:
        return _sweep(shard, seed)
    try:
        payload = os.fdopen(fd, "rb", closefd=False).read()
    except BaseException:  # the caller no longer holds the child to kill
        _kill(pid, fd)
        raise
    os.close(fd)
    if os.waitpid(pid, 0)[1]:  # any wait status but a clean exit 0
        return _sweep(shard, seed)
    checks_run, failures = json.loads(payload)
    return SuiteResult(checks_run, [VerifyFailure(*f) for f in failures])


def _tableau_failure(
    t: Tableau, geoms: list[ChainGeometry], seed: int
) -> tuple[str, str, ChainGeometry | None] | None:
    """The first failing check of a tableau as ``(check, detail, geometry)``, else None.

    ``geometry`` is the one the check failed on, or None for the checks that
    use no geometry.  Series and effective validity are the conversions' own
    checks, run once: a ``ValueError`` from building the series or from
    :func:`eh_to_effective` fails the first, one from :func:`effective_to_eh`
    the second, with its message.  Each tableau divisor is split into its
    node and loop data (``tropical._split``) once, and both the dynamic
    vanishing table and the rank are read off that split; the soundness
    residue, a different divisor, is reduced on its own.  So every geometry
    costs two splits.
    """
    params = t.params
    if not validate_tableau(t).ok:
        return "tableau validity", f"{t}", None

    try:
        series = eh_series_from_tableau(t)
        effective = eh_to_effective(series)
    except ValueError as exc:
        return "series validity", str(exc), None
    detail = _component_failure(t, series)
    if detail is not None:
        return "component series", detail, None
    try:
        back = effective_to_eh(effective)
    except ValueError as exc:
        return "effective validity", str(exc), None
    if back != series:
        return "round trip", "effective_to_eh changed the series", None
    closed = [effective_vanishing_from_tableau(t, i) for i in range(params.g + 1)]
    for i, orders in enumerate(closed):
        if orders[params.r] != 0:
            return "effective table", f"w_r({i}) != 0", None

    for geom in geoms:
        divisor = divisor_from_tableau(t, geom, seed=seed)
        if divisor.degree != params.d:
            return "divisor degree", f"degree {divisor.degree} != {params.d}", geom
        try:
            split = _split(geom, divisor)
            table = _table_from_split(*split, params.r)
        except Exception as exc:  # rank deficiency or ambiguity is a failure here
            return "dynamic table", repr(exc), geom
        # the table's seed row, epsilon and x are reduce_to_q0's output, so
        # the divisor minus that representative must reduce to zero
        difference = [*divisor.points, (Node(0), -table.u[0][0])]
        difference.extend((x, -1) for eps, x in zip(table.epsilon, table.x) if eps)
        residue = reduce_to_q0(geom, TropicalDivisor(tuple(difference)))
        if residue.u != 0 or any(residue.epsilon):
            detail = "reduced representative not equivalent to the divisor"
            return "reduction soundness", detail, geom
        if list(table.u) != closed:
            for i, orders in enumerate(closed):
                for s in range(params.k):
                    if table.u[i][s] != orders[s]:
                        detail = f"(i={i}, s={s}): dynamic {table.u[i][s]} vs closed {orders[s]}"
                        return "table agreement", detail, geom
        rank = _rank_from_split(*split, divisor.degree)
        if rank != params.r:
            return "rank certification", f"rank {rank} != {params.r}", geom
    return None


def _component_failure(t: Tableau, series: EHSeries) -> str | None:
    """The first component whose class and orders do not come from the one before.

    With u the closed-form vanishing at Q_{i-1} and e the pair's equality
    index, the component must be what ``propagate_vanishing(d, u, r - e)``
    gives (e indexes the P side, the column the Q side), or without an
    equality ``propagate_vanishing(d, u)``: a pinned class as its
    :class:`UniqueSeries`, a free one as its :class:`SeriesFamily`.  A class
    of the other kind than the equality asks for never matches.
    """
    d, r = t.params.d, t.params.r
    for i in range(1, t.params.g + 1):
        bundle, vp, vq = series.component(i)
        u = vanishing_from_tableau(t, i - 1)
        e = check_vanishing_pair(d, vp, vq).equality_index
        want = propagate_vanishing(d, u, None if e is None else r - e)
        got = SeriesFamily(vp, vq) if bundle.a is None else UniqueSeries(bundle.a, vp, vq)
        if want != got:
            return f"component {i}: {got}, but Q_{i - 1} propagates {want}"
    return None


def random_rational_divisor(
    geom: ChainGeometry,
    rng: random.Random,
    effective: bool = False,
    max_points: int = 4,
    coord_denominator: int = 12,
) -> TropicalDivisor:
    """Small random divisor with coordinates on a coarse rational lattice."""
    support: dict = {}
    for _ in range(rng.randrange(1, max_points + 1)):
        mult = rng.randrange(1, 4) if effective else rng.choice([-3, -2, -1, 1, 2, 3])
        if rng.random() < 0.4:
            pt = Node(rng.randrange(0, geom.g + 1))
        else:
            k = rng.randrange(1, geom.g + 1)
            c = geom.circumference(k)
            coord = c * Fraction(rng.randrange(1, coord_denominator), coord_denominator)
            pt = point_on_loop(geom, k, coord)
        support[pt] = support.get(pt, 0) + mult
    return TropicalDivisor.from_dict(support)


def _small_geometry(g: int, rng: random.Random, generic: bool) -> ChainGeometry:
    lengths = []
    bound = max(2 * g - 2, 1)
    for _ in range(g):
        if generic:
            lengths.append((Fraction(bound + rng.randrange(0, 3)), Fraction(1)))
        else:
            lengths.append(
                (Fraction(rng.randrange(1, 4)), Fraction(rng.randrange(1, 4), 2))
            )
    return ChainGeometry(tuple(lengths))


def _oracle_checks(
    rng: random.Random, g_max: int, winnability_trials: int, rank_trials: int
) -> SuiteResult:
    """The oracle trials: per check in turn, its trials on small random inputs."""
    result = SuiteResult()
    g_cap = min(g_max, 4)
    # per check: trials, generic geometry, divisor shape, admitted degree
    for check, trials, generic, shape, admits in (
        ("winnability agreement", winnability_trials, False, {}, lambda deg, g: -6 <= deg <= 6),
        # lean divisors keep the exhaustive rank sweep at desk scale
        ("rank agreement", rank_trials, True,
         {"effective": True, "max_points": 2, "coord_denominator": 4},
         lambda deg, g: deg <= min(4, g + 2)),
    ):
        done = 0
        while done < trials:
            g = rng.randrange(1, g_cap + 1)
            geom = _small_geometry(g, rng, generic)
            divisor = random_rational_divisor(geom, rng, **shape)
            if admits(divisor.degree, g):
                done += 1
                detail = _trial_failure(check, geom, divisor)
                _record(result, check, detail, geometry=geom, divisor=divisor)
    return result


def _trial_failure(check: str, geom: ChainGeometry, divisor: TropicalDivisor) -> str | None:
    """How the tropical and the oracle answer of an oracle trial differ, or None."""
    winnability = check == "winnability agreement"
    tropical_side = (is_equivalent_to_effective if winnability else tropical_rank)(geom, divisor)
    graph = subdivide_chain(geom, [pt for pt, _ in divisor.points])
    chips = chips_from_divisor(graph, divisor)
    oracle_side = is_winnable(graph, chips, 0) if winnability else bn_rank(graph, chips)
    if tropical_side != oracle_side:
        return f"tropical {tropical_side} vs oracle {oracle_side}"
    return None
