"""Built-in agreement suite: every model checked against every other.

The suite sweeps all parameter triples up to a genus bound and, for each
tableau, checks the combinatorial counts, the node identities of the
concentrated series, the effective round trip, and the agreement of the three
vanishing tables (closed form, effective, dynamic tropical) on randomized
generic geometries.  A budgeted slice of randomized divisors is additionally
cross-checked against the chip-firing oracle.  Every failure carries a JSON
reproducer that is exactly the failed check's input: the tableau, plus the
geometry and seed for a check on a geometry, which
``_tableau_failure(tableau, [geometry], seed)`` replays; the parameter
triple of a component count; the geometry and divisor of an oracle trial.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction

from . import serialize
from .effective import (
    check_effective,
    effective_to_eh,
    effective_vanishing_from_tableau,
    eh_to_effective,
)
from .elliptic import check_eh_series, eh_series_from_tableau
from .oracle import bn_rank, chips_from_divisor, is_winnable, subdivide_chain
from .tableaux import BNParams, Tableau, count_components, enumerate_tableaux, validate_tableau
from .tropical import (
    ChainGeometry,
    Node,
    TropicalDivisor,
    check_genericity,
    divisor_from_tableau,
    is_equivalent_to_effective,
    point_on_loop,
    reduce_to_q0,
    tropical_rank,
    tropical_vanishing_table,
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


# Units of work a suite may sweep: one per tableau on one geometry and one
# per winnability trial.  ``verify --g-max 6`` with the defaults sweeps 954
# and ``--g-max 11`` 82,923; the tableaux grow about threefold with each
# genus, so ``--g-max 12`` (227,682) is refused.
SWEEP_WORK_CAP = 100_000

# Oracle rank trials are capped apart from the sweep: each is an exhaustive
# ``bn_rank``, on average 0.25 ms at ``--g-max 1`` and 0.55 ms at ``--g-max
# 4``, where the trials stop growing (2-core machine, Python 3.11), so the
# cap bounds them to about half a second.
RANK_TRIAL_CAP = 1_000


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
    work = winnability_trials
    g = 0
    while work <= SWEEP_WORK_CAP and g < g_max:
        g += 1
        tableaux = sum(count_components(p) for p in _genus_params(g))
        work += geometries_per_param * tableaux
    if work > SWEEP_WORK_CAP:
        raise VerifyTooLargeError(
            f"verify would sweep more than {SWEEP_WORK_CAP} tableau checks and "
            "winnability trials; lower --g-max, --geometries or --winnability-trials"
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


def _tableau_repro(t: Tableau, geom: ChainGeometry | None, seed: int) -> dict:
    repro: dict = {"tableau": serialize.tableau_to_obj(t)}
    if geom is not None:
        repro["geometry"] = serialize.geometry_to_obj(geom)
        repro["seed"] = seed
    return repro


def run_suite(
    g_max: int,
    seed: int = 0,
    geometries_per_param: int = 3,
    oracle_winnability_trials: int = 60,
    oracle_rank_trials: int = 15,
    subdiv_cap: int = 100_000,
) -> SuiteResult:
    _check_sweep_size(
        g_max, geometries_per_param, oracle_winnability_trials, oracle_rank_trials
    )
    result = SuiteResult()
    rng = random.Random(seed)
    params_list = sweep_params(g_max)

    for params in params_list:
        expected = count_components(params)
        tableaux = list(enumerate_tableaux(params))
        result.checks_run += 1
        if len(tableaux) != expected:
            result.failures.append(
                VerifyFailure(
                    "component count",
                    f"{params}: enumerated {len(tableaux)}, closed form {expected}",
                    {"params": [params.g, params.d, params.r]},
                )
            )
            continue
        geoms = [random_generic_geometry(params.g, rng) for _ in range(geometries_per_param)]
        for t in tableaux:
            result.checks_run += 1
            failure = _tableau_failure(t, geoms, seed)
            if failure is not None:
                check, detail, geom = failure
                result.failures.append(
                    VerifyFailure(check, detail, _tableau_repro(t, geom, seed))
                )

    oracle_trials = _oracle_trials(
        rng, g_max, oracle_winnability_trials, oracle_rank_trials, subdiv_cap
    )
    for check, geom, divisor, tropical_side, oracle_side in oracle_trials:
        result.checks_run += 1
        if tropical_side != oracle_side:
            repro = {
                "geometry": serialize.geometry_to_obj(geom),
                "divisor": serialize.divisor_to_obj(divisor),
            }
            detail = f"tropical {tropical_side} vs oracle {oracle_side}"
            result.failures.append(VerifyFailure(check, detail, repro))
    return result


def _tableau_failure(
    t: Tableau, geoms: list[ChainGeometry], seed: int
) -> tuple[str, str, ChainGeometry | None] | None:
    """The first failing check of a tableau as ``(check, detail, geometry)``, else None.

    ``geometry`` is the one the check failed on, or None for the checks that
    use no geometry.
    """
    params = t.params
    if not validate_tableau(t).ok:
        return "tableau validity", f"{t}", None

    series = eh_series_from_tableau(t)
    verdict = check_eh_series(series)
    if not (verdict.valid and verdict.refined):
        return "series validity", verdict.problem or "not refined", None

    effective = eh_to_effective(series)
    everdict = check_effective(effective)
    if not (everdict.valid and everdict.refined):
        return "effective validity", everdict.problem or "not refined", None
    if effective_to_eh(effective) != series:
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
            table = tropical_vanishing_table(geom, divisor, params.r)
        except Exception as exc:  # rank deficiency or ambiguity is a failure here
            return "dynamic table", repr(exc), geom
        # the table's seed row, epsilon and x are reduce_to_q0's output
        rebuilt = [(Node(0), table.u[0][0])]
        rebuilt.extend((x, 1) for eps, x in zip(table.epsilon, table.x) if eps)
        residue = reduce_to_q0(geom, divisor - TropicalDivisor(tuple(rebuilt)))
        if residue.u != 0 or any(residue.epsilon):
            detail = "reduced representative not equivalent to the divisor"
            return "reduction soundness", detail, geom
        for i, orders in enumerate(closed):
            for s in range(params.k):
                if table.u[i][s] != orders[s]:
                    detail = f"(i={i}, s={s}): dynamic {table.u[i][s]} vs closed {orders[s]}"
                    return "table agreement", detail, geom
        rank = tropical_rank(geom, divisor)
        if rank != params.r:
            return "rank certification", f"rank {rank} != {params.r}", geom
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


def _oracle_trials(
    rng: random.Random,
    g_max: int,
    winnability_trials: int,
    rank_trials: int,
    subdiv_cap: int,
):
    """Per oracle trial, ``(check, geometry, divisor, tropical answer, oracle answer)``."""
    g_cap = min(g_max, 4)
    done = 0
    while done < winnability_trials:
        g = rng.randrange(1, g_cap + 1)
        geom = _small_geometry(g, rng, generic=False)
        divisor = random_rational_divisor(geom, rng)
        if not -6 <= divisor.degree <= 6:
            continue
        done += 1
        tropical_side = is_equivalent_to_effective(geom, divisor)
        graph = subdivide_chain(geom, [pt for pt, _ in divisor.points], subdiv_cap)
        oracle_side = is_winnable(graph, chips_from_divisor(graph, divisor), 0)
        yield "winnability agreement", geom, divisor, tropical_side, oracle_side
    done = 0
    while done < rank_trials:
        g = rng.randrange(1, g_cap + 1)
        geom = _small_geometry(g, rng, generic=True)
        # lean divisors keep the exhaustive rank sweep at desk scale
        divisor = random_rational_divisor(
            geom, rng, effective=True, max_points=2, coord_denominator=4
        )
        if divisor.degree > min(4, g + 2):
            continue
        done += 1
        tropical_side = tropical_rank(geom, divisor)
        graph = subdivide_chain(geom, [pt for pt, _ in divisor.points], subdiv_cap)
        oracle_side = bn_rank(graph, chips_from_divisor(graph, divisor))
        yield "rank agreement", geom, divisor, tropical_side, oracle_side
