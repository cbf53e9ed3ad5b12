"""Command-line front end.

Subcommands::

    tableaux   count or list the tableaux for (g, d, r)
    eh         render the concentrated series of a tableau
    effective  render the effective series of a tableau (or convert a series)
    tropical   divisor | rank | table on a chain-of-loops geometry
    oracle     rank | winnable via the chip-firing model
    verify     run the cross-model agreement suite

Exit codes: 0 success, 1 validation failure (including malformed flags),
2 oracle, tropical, series, verify sweep or verify rank-trial capacity
exceeded, or a tableau genus or count too large, 3 internal disagreement
found by verify.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from . import render, serialize
from .effective import describe_concentration, eh_to_effective
from .elliptic import eh_series_from_tableau
from .oracle import (
    ORACLE_CHIP_CAP,
    ORACLE_DEGREE_CAP,
    ORACLE_EDGE_CAP,
    OracleTooLargeError,
    bn_rank,
    chips_from_divisor,
    is_winnable,
    subdivide_chain,
)
from .tableaux import BNParams, count_components, enumerate_tableaux, validate_tableau
from .tropical import (
    SamplingError,
    TropicalTooLargeError,
    check_genericity,
    divisor_from_tableau,
    tropical_rank,
    tropical_vanishing_table,
)
from .verify import VerifyTooLargeError, run_suite


# eh, effective and tropical divisor refuse a series with more than this many
# vanishing orders on a side, g * (r + 1), and tableaux --count and --list a
# genus above it; at the cap, effective --format json (g = 10**4, r = 0) peaks
# at about 56 MB and writes 2.4 MB
SERIES_CAP = 10_000

# Size a batch of records printed as a JSON list reaches before it is
# written, in characters, which are bytes in JSON's ASCII output
JSON_BATCH_BYTES = 64 * 1024


class CLIError(Exception):
    """Flag or input validation problem; maps to exit code 1."""


class InputTooLargeError(RuntimeError):
    """A series or genus beyond :data:`SERIES_CAP`, or a count too long to print; exit code 2."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise CLIError(message)


def _load_json(path: str) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except RecursionError:
            raise CLIError(f"{path}: JSON nested too deeply") from None


def _emit(obj: dict) -> None:
    print(json.dumps(obj, indent=2))


def _check_series_size(params: BNParams) -> None:
    """Raise :class:`InputTooLargeError` if the series would pass :data:`SERIES_CAP`."""
    size = params.g * (params.r + 1)
    if size > SERIES_CAP:
        shape = (  # str() stops at 4,300 digits, so a long count goes unprinted
            f"of genus {params.g} and dimension {params.r} holds {size}"
            if size < 10**100 else "holds too many"
        )
        raise InputTooLargeError(
            f"a series {shape} vanishing orders a side, more than the cap of {SERIES_CAP}"
        )


def _load_tableau(path: str, args):
    """Read a tableau file, cross-check it with the flags and validate it.

    A tableau whose series would pass :data:`SERIES_CAP` is refused before
    it is validated.
    """
    t = serialize.tableau_from_obj(_load_json(path))
    for flag in ("g", "d", "r"):
        given = getattr(args, flag)
        if given is not None and given != getattr(t.params, flag):
            raise CLIError(
                f"--{flag} {given} does not match tableau file ({getattr(t.params, flag)})"
            )
    _check_series_size(t.params)
    verdict = validate_tableau(t)
    if not verdict.ok:
        raise CLIError(f"invalid tableau: {verdict.problem}")
    return t


def _load_geometry(path: str, args):
    geom = serialize.geometry_from_obj(_load_json(path))
    report = check_genericity(geom)
    if not report.generic:
        if not args.allow_nongeneric:
            raise CLIError(
                f"geometry is not generic (loops {list(report.failing_loops)}); "
                "pass --allow-nongeneric to proceed"
            )
        print(
            f"note: geometry is not generic (loops {list(report.failing_loops)})",
            file=sys.stderr,
        )
    return geom


def _write_json_list(records) -> None:
    """Print a JSON list of records as they come, a batch at a time.

    Each record is already text, as ``json.dumps(objs, indent=2)`` writes it
    inside the list (see :func:`serialize.tableau_list_entry`), so the bytes
    equal those of ``print(json.dumps(objs, indent=2))`` without holding the
    list or its text.  A batch goes out in one ``write`` once its records
    reach :data:`JSON_BATCH_BYTES`, so a write holds about that much, or a
    single record longer than that: at 128 records a write, the records of
    (10^4, 12, 0), each 298,632 bytes, made a 38.2 MB first write after
    2.94 s.  On the 24,024 records of (16, 15, 3) written into an
    ``io.StringIO``, one ``write`` per record peaked 1.6 MB higher than 128
    a write, at the same speed.
    """
    out = sys.stdout
    sep = "[\n  "
    batch: list[str] = []
    size = 0
    for record in records:
        batch.append(record)
        size += len(record)
        if size >= JSON_BATCH_BYTES:
            out.write(sep + ",\n  ".join(batch))
            sep, batch, size = ",\n  ", [], 0
    if batch:
        out.write(sep + ",\n  ".join(batch))
        sep = ",\n  "
    out.write("[]\n" if sep == "[\n  " else "\n]\n")


def cmd_tableaux(args) -> int:
    params = BNParams(args.g, args.d, args.r)
    # a listed record costs O(g), and its free subset holds up to g - 1 ints
    if params.g > SERIES_CAP:
        raise InputTooLargeError(f"genus {params.g} is above the cap of {SERIES_CAP}")
    if params.kbar < 0:
        print("note: kbar < 0, the expected locus is the whole Jacobian", file=sys.stderr)
    if args.list:
        stream = enumerate_tableaux(params)
        if args.format == "json":
            _write_json_list(map(serialize.tableau_list_entry, stream))
        else:
            shown = False
            for t in stream:
                print(render.render_tableau(t))
                print()
                shown = True
            if not shown:
                print("(no tableaux)" if params.kbar < 0 else "(empty locus)")
        return 0
    count = count_components(params)
    try:
        text = str(count)
    except ValueError:  # past Python's limit on the digits of an int as text
        digits = (count.bit_length() - 1) * 3 // 10  # 10**digits <= count, as 2**10 > 10**3
        while 10**digits <= count:
            digits += 1
        raise InputTooLargeError(f"the count has {digits} digits, too many to print") from None
    print(text)
    return 0


def cmd_eh(args) -> int:
    t = _load_tableau(args.tableau, args)
    series = eh_series_from_tableau(t)
    if args.format == "json":
        _emit(serialize.eh_series_to_obj(series))
    else:
        print(render.render_eh_series(series))
    return 0


def cmd_effective(args) -> int:
    if args.tableau:
        t = _load_tableau(args.tableau, args)
        series = eh_series_from_tableau(t)
        effective = eh_to_effective(series)
        desc = describe_concentration(t)
    else:
        series = serialize.eh_series_from_obj(_load_json(args.from_eh))
        _check_series_size(series.params)
        effective = eh_to_effective(series)
        desc = None
    if args.format == "json":
        obj = serialize.effective_series_to_obj(effective)
        if desc is not None:
            obj["concentration"] = serialize.concentration_to_obj(desc)
        _emit(obj)
    else:
        print(render.render_effective_series(effective))
        if desc is not None:
            print()
            print(render.render_concentration(desc))
    return 0


def cmd_tropical_divisor(args) -> int:
    t = _load_tableau(args.tableau, args)
    geom = _load_geometry(args.geometry, args)
    divisor = divisor_from_tableau(t, geom, seed=args.seed)
    if args.format == "json":
        _emit(serialize.divisor_to_obj(divisor))
    else:
        print(render.render_divisor(divisor, geom))
    return 0


def cmd_tropical_rank(args) -> int:
    geom = _load_geometry(args.geometry, args)
    divisor = serialize.divisor_from_obj(_load_json(args.divisor), geom)
    print(tropical_rank(geom, divisor))
    return 0


def cmd_tropical_table(args) -> int:
    geom = _load_geometry(args.geometry, args)
    divisor = serialize.divisor_from_obj(_load_json(args.divisor), geom)
    table = tropical_vanishing_table(geom, divisor, args.r)
    if args.format == "json":
        _emit(serialize.table_to_obj(table))
    else:
        print(render.render_trop_table(table))
    return 0


def cmd_oracle(args) -> int:
    geom = serialize.geometry_from_obj(_load_json(args.geometry))
    divisor = serialize.divisor_from_obj(_load_json(args.divisor), geom)
    graph = subdivide_chain(geom, [pt for pt, _ in divisor.points])
    chips = chips_from_divisor(graph, divisor)
    if args.oracle_command == "rank":
        print(bn_rank(graph, chips))
    else:
        print("true" if is_winnable(graph, chips, 0) else "false")
    return 0


def cmd_verify(args) -> int:
    result = run_suite(
        g_max=args.g_max,
        seed=args.seed,
        geometries_per_param=args.geometries,
        oracle_winnability_trials=args.winnability_trials,
        oracle_rank_trials=args.rank_trials,
    )
    print(f"checks run: {result.checks_run}")
    if result.passed:
        print("all checks pass")
        return 0
    for failure in result.failures:
        print(f"FAIL [{failure.check}] {failure.detail}")
        print(json.dumps(failure.reproducer, indent=2))
    return 3


def build_parser() -> _Parser:
    parser = _Parser(prog="bnchains", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    # option groups that several subcommands share, each declared once
    fmt = _Parser(add_help=False)
    fmt.add_argument("--format", choices=["json", "table"], default="table")
    cross = _Parser(add_help=False)  # optional cross-checks of a tableau file
    for flag in ("--g", "--d", "--r"):
        cross.add_argument(flag, type=int)
    chain = _Parser(add_help=False)
    chain.add_argument("--geometry", required=True, metavar="FILE")
    chain.add_argument("--allow-nongeneric", action="store_true")

    p = sub.add_parser("tableaux", parents=[fmt], help="count or list tableaux for (g, d, r)")
    for flag in ("--g", "--d", "--r"):
        p.add_argument(flag, type=int, required=True)
    group = p.add_mutually_exclusive_group()
    group.add_argument("--count", action="store_true", default=True)
    group.add_argument("--list", action="store_true")
    p.set_defaults(func=cmd_tableaux)

    p = sub.add_parser("eh", parents=[cross, fmt], help="concentrated series of a tableau")
    p.add_argument("--tableau", required=True, metavar="FILE")
    p.set_defaults(func=cmd_eh)

    p = sub.add_parser(
        "effective", parents=[cross, fmt], help="effective series of a tableau or series"
    )
    src = p.add_mutually_exclusive_group(required=True)
    src.add_argument("--tableau", metavar="FILE")
    src.add_argument("--from-eh", dest="from_eh", metavar="FILE")
    p.set_defaults(func=cmd_effective)

    p = sub.add_parser("tropical", help="divisors on a chain of loops")
    tsub = p.add_subparsers(dest="tropical_command", required=True)

    pd = tsub.add_parser(
        "divisor", parents=[chain, cross, fmt], help="tableau divisor with exact coordinates"
    )
    pd.add_argument("--tableau", required=True, metavar="FILE")
    pd.add_argument("--seed", type=int, default=0)
    pd.set_defaults(func=cmd_tropical_divisor)

    pr = tsub.add_parser("rank", parents=[chain], help="exact rank of a divisor")
    pr.add_argument("--divisor", required=True, metavar="FILE")
    pr.set_defaults(func=cmd_tropical_rank)

    pt = tsub.add_parser("table", parents=[chain, fmt], help="dynamic vanishing table of a divisor")
    pt.add_argument("--divisor", required=True, metavar="FILE")
    pt.add_argument("--r", type=int, required=True)
    pt.set_defaults(func=cmd_tropical_table)

    p = sub.add_parser(
        "oracle",
        help=f"chip-firing model queries on divisors of at most {ORACLE_CHIP_CAP} chips, "
        f"on at most {ORACLE_EDGE_CAP} unit edges; rank up to degree {ORACLE_DEGREE_CAP}",
    )
    osub = p.add_subparsers(dest="oracle_command", required=True)
    for name in ("rank", "winnable"):
        po = osub.add_parser(name)
        po.add_argument("--divisor", required=True, metavar="FILE")
        po.add_argument("--geometry", required=True, metavar="FILE")
        po.set_defaults(func=cmd_oracle)

    p = sub.add_parser("verify", help="run the agreement suite")
    p.add_argument("--g-max", dest="g_max", type=int, default=6)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--geometries", type=int, default=3)
    p.add_argument("--winnability-trials", dest="winnability_trials", type=int, default=60)
    p.add_argument("--rank-trials", dest="rank_trials", type=int, default=15)
    p.set_defaults(func=cmd_verify)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except CLIError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except SystemExit as exc:  # --help and friends
        return int(exc.code or 0)
    try:
        code = args.func(args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # The reader closed stdout (as in ``| head``): stop quietly.  Point
        # stdout at devnull so that the flush at exit does not fail again.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 0
    except (
        OracleTooLargeError,
        InputTooLargeError,
        TropicalTooLargeError,
        VerifyTooLargeError,
    ) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except KeyError as exc:  # a JSON object without a field its reader needs
        print(f"error: missing field {exc}", file=sys.stderr)
        return 1
    except (CLIError, SamplingError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
