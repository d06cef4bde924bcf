"""Command-line front end for the q-Fibonomial workbench.

Batch-oriented: every subcommand computes, writes a report, and exits.
Exit codes are part of the contract:

  0  success (including expected findings, e.g. log-concavity failures);
  1  a finding that contradicts a proven statement (oracle mismatch,
     symmetry/unimodality failure in range, sufficiency violation, ...);
  2  refusal (enumeration or a qfibonomial above its cap) or bad usage;
  3  I/O failure while reading or writing files.

FIBWORK_CACHE in the environment overrides --cache-dir for the polynomial
cache location.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import sys
import time
from pathlib import Path

from . import __version__
from .cache import PolyCache, resolve_cache_dir
from .chains import decompose
from .fibonomial import CoefficientCapExceeded, capped_size, qfibonomial
from .products import scan_products
from .svg import chain_gallery_svg, tiling_svg
from .sweeps import (
    CSV_COLUMNS,
    FIBOCAT_CSV_COLUMNS,
    SHAPE_FIELDS,
    SweepRecord,
    fibocatalan_sweep,
    oracle_check,
    shape_fields,
    verify_conjecture,
)
from .tilings import EnumerationCapExceeded, enumerate_tilings

EXIT_OK = 0
EXIT_FINDING = 1
EXIT_REFUSED = 2
EXIT_IO = 3

# --budget presets, per subcommand: the value of each flag left unset.
# soft_ms (the per-pair soft time budget) has no flag, so it always comes
# from the preset.
BUDGETS = {
    "default": {
        "verify-conjecture": dict(max_sum=14, square_max=8, soft_ms=600_000),
        "oracle-check": dict(max_sum=8),
        "fibocatalan-sweep": dict(max_sum=12),
        "lab-scan": dict(k_max=3, r_max=3, value_max=8),
    },
    "extended": {
        "verify-conjecture": dict(max_sum=20, square_max=16, soft_ms=3_600_000),
        "oracle-check": dict(max_sum=10),
        "fibocatalan-sweep": dict(max_sum=16),
        "lab-scan": dict(k_max=5, r_max=6, value_max=15),
    },
}


def _write_text(path: str | None, text: str) -> None:
    if path is None or path == "-":
        sys.stdout.write(text)
    else:
        Path(path).write_text(text)


def _records_csv(columns, rows) -> str:
    buf = io.StringIO()
    w = csv.writer(buf)
    w.writerow(columns)
    for r in rows:
        w.writerow(r)
    return buf.getvalue()


def cmd_fibonomial(args) -> int:
    # raises on a negative side or over the cap, before the cache dir is made
    size = capped_size(args.m, args.n)
    cache = PolyCache(resolve_cache_dir(args.cache_dir))
    params = {"m": args.m, "n": args.n}
    t0 = time.perf_counter()
    stored = cache.get("qfibonomial", params)
    # a well-formed entry can still hold the wrong polynomial: keep it only
    # if it has qfibonomial's length, no trailing zero (str() spells zero
    # "0" only) and a shape of that degree; a hit runs no int() and no
    # shape predicate
    shape = cache.last_shape
    cached = (
        stored is not None
        and len(stored) == size
        and stored[-1] != "0"
        and type(shape) is dict
        and shape.keys() == set(SHAPE_FIELDS)
        and shape["degree"] == size - 1
    )
    if cached:
        payload = {"coeffs": stored}
    else:
        poly = qfibonomial(args.m, args.n)
        payload = poly.to_json_dict()
        shape = shape_fields(poly)
        cache.put("qfibonomial", params, payload["coeffs"], shape)
    # the entry, its checksum (verified by get or made by put) and the
    # report share one set of strings
    record = SweepRecord(
        args.m, args.n, **shape,
        wall_time_ms=int((time.perf_counter() - t0) * 1000),
        checksum=cache.last_checksum,
    )
    if args.format == "csv":
        text = _records_csv(CSV_COLUMNS, [record.csv_row()])
    else:
        payload["record"] = record.to_dict()
        payload["cached"] = cached
        # no indent: any indent sends json to its pure-Python encoder
        text = json.dumps(payload) + "\n"
    _write_text(args.out, text)
    return EXIT_OK


def cmd_verify_conjecture(args) -> int:
    report = verify_conjecture(
        max_sum=args.max_sum, square_max=args.square_max, jobs=args.jobs,
        soft_ms=args.soft_ms,
    )
    if args.format == "csv":
        text = _records_csv(CSV_COLUMNS, [r.csv_row() for r in report.records])
    else:
        text = json.dumps(
            {"records": [r.to_dict() for r in report.records],
             "failures": len(report.failures)},
            indent=1,
        ) + "\n"
    _write_text(args.out, text)
    slow = [r for r in report.records if r.timed_out]
    print(
        f"verify-conjecture: {len(report.records)} pairs "
        f"(m+n <= {args.max_sum}, squares <= {args.square_max}), "
        f"{len(report.failures)} failures, {len(slow)} over soft budget",
        file=sys.stderr,
    )
    if not report.ok:
        for r in report.failures:
            print(
                f"FINDING: ({r.m},{r.n}) symmetric={r.symmetric} "
                f"unimodal={r.unimodal}",
                file=sys.stderr,
            )
        return EXIT_FINDING
    return EXIT_OK


def cmd_oracle_check(args) -> int:
    report = oracle_check(max_sum=args.max_sum)
    print(
        f"oracle-check: {report.pairs_checked} pairs and "
        f"{report.n2_rows_checked} two-row decompositions checked, "
        f"{len(report.mismatches)} mismatches",
        file=sys.stderr,
    )
    if not report.ok:
        for mm in report.mismatches:
            print(
                f"MISMATCH ({mm.m},{mm.n}) {mm.what}: first differing "
                f"exponent {mm.first_diff_exponent}: expected {mm.expected}, "
                f"got {mm.actual}",
                file=sys.stderr,
            )
        return EXIT_FINDING
    return EXIT_OK


def cmd_render(args) -> int:
    if args.select == "chains":
        if args.n != 2:
            raise ValueError("selector 'chains' requires n == 2")
        svg = chain_gallery_svg(decompose(args.m))
    else:
        if args.select == "first":
            index = 0
        else:
            try:
                index = int(args.select)
            except ValueError:
                raise ValueError(
                    f"selector must be 'first', 'chains' or an index, "
                    f"got {args.select!r}"
                ) from None
        chosen = None
        for i, t in enumerate(enumerate_tilings(args.m, args.n)):
            if i == index:
                chosen = t
                break
        if chosen is None:
            raise ValueError(
                f"tiling index {index} out of range for ({args.m},{args.n})"
            )
        svg = tiling_svg(chosen)
    _write_text(args.out, svg)
    return EXIT_OK


def cmd_fibocatalan_sweep(args) -> int:
    report = fibocatalan_sweep(max_sum=args.max_sum)
    if args.format == "csv":
        text = _records_csv(
            FIBOCAT_CSV_COLUMNS,
            [list(vars(r).values()) for r in report.rows],
        )
    else:
        text = json.dumps(
            {"rows": [vars(r) for r in report.rows],
             "violations": len(report.violations)},
            indent=1,
        ) + "\n"
    _write_text(args.out, text)
    print(
        f"fibocatalan-sweep: {len(report.rows)} pairs (m+n <= {args.max_sum}), "
        f"{len(report.violations)} violations",
        file=sys.stderr,
    )
    return EXIT_OK if report.ok else EXIT_FINDING


def cmd_lab_scan(args) -> int:
    report = scan_products(args.k_max, args.r_max, args.value_max, jobs=args.jobs)
    lines = [f.to_json_line() for f in report.findings]
    _write_text(args.out, "".join(line + "\n" for line in lines))
    print(
        f"lab-scan: {report.checked} product specs "
        f"(k <= {args.k_max}, r <= {args.r_max}, values <= {args.value_max}); "
        f"{len(report.sufficiency_violations)} sufficiency violations, "
        f"{len(report.necessity_violations)} necessity findings",
        file=sys.stderr,
    )
    # sufficiency is backed by a proof on the divisibility branch and by
    # exhaustive verification elsewhere: a violation is a headline event
    return EXIT_FINDING if report.sufficiency_violations else EXIT_OK


def cmd_chains(args) -> int:
    blocks = decompose(args.m)
    if args.out:
        _write_text(args.out, chain_gallery_svg(blocks))
    total = sum(b.size for b in blocks)
    print(f"chains: m={args.m}, {len(blocks)} blocks, {total} tilings")
    for b in blocks:
        print(
            f"  degrees [{b.min_degree:>4}, {b.max_degree:>4}]  "
            f"size {b.size:>5}  top-row {list(b.signature)}"
        )
    return EXIT_OK


def int_at_least(lo: int):
    """Argparse type: an integer no smaller than lo.  Range bounds use the
    least value that still leaves their sweep non-empty."""

    def integer(text: str) -> int:
        value = int(text)
        if value < lo:
            raise argparse.ArgumentTypeError(f"must be at least {lo}, got {value}")
        return value

    return integer


COMMANDS = (
    "fibonomial", "verify-conjecture", "oracle-check", "render",
    "fibocatalan-sweep", "lab-scan", "chains",
)


def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The fibwork argument parser, built once per process and command.

    Given the name of a subcommand, only that subcommand's parser is built;
    the usage line still names them all.  Given anything else, all of them
    are.  main passes its first argument, so a process builds one
    sub-parser of seven per command it runs, on that command's first call,
    and later calls reuse it.  That pays only when one process calls main
    many times; the console script calls it once.  Parsing leaves no state
    in a parser: each call gets a fresh namespace, and main fills budget
    presets into that.  A subcommand's handler is looked up when its
    parser is built, so a handler replaced after that is not called.
    """
    return _parser(command if command in COMMANDS else None)


@functools.lru_cache(maxsize=None)
def _parser(only: str | None) -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="fibwork",
        description="Exact q-Fibonomial workbench: polynomials, tilings, "
        "chain decompositions, unimodality sweeps.",
    )
    p.add_argument("--version", action="version", version=f"fibwork {__version__}")
    # a one-command parser spells out every choice in its usage line, as the
    # full parser does; the full parser leaves metavar unset, so its errors
    # still call the argument "command"
    sub = p.add_subparsers(
        dest="command", required=True,
        metavar=None if only is None else "{" + ",".join(COMMANDS) + "}",
    )

    def wanted(name):
        return only is None or only == name

    def common(sp, budget=True, fmt=True, jobs=False, out=True):
        if budget:
            sp.add_argument(
                "--budget", choices=("default", "extended"), default="default",
                help="named workload preset; explicit flags still win",
            )
        if fmt:
            sp.add_argument("--format", choices=("json", "csv"), default="json")
        if jobs:
            sp.add_argument("--jobs", type=int_at_least(1), default=1,
                            help="worker processes for the sweep")
        if out:
            sp.add_argument("--out", default=None,
                            help="output path ('-' or omitted: stdout)")

    if wanted("fibonomial"):
        sp = sub.add_parser("fibonomial", help="compute one qfibonomial(m, n)")
        sp.add_argument("m", type=int)
        sp.add_argument("n", type=int)
        sp.add_argument("--cache-dir", default=None,
                        help=f"polynomial cache directory (env FIBWORK_CACHE wins)")
        common(sp, budget=False)
        sp.set_defaults(fn=cmd_fibonomial)

    if wanted("verify-conjecture"):
        sp = sub.add_parser(
            "verify-conjecture",
            help="symmetry+unimodality sweep over the (m, n) grid",
        )
        sp.add_argument("--max-sum", type=int_at_least(2), default=None)
        sp.add_argument("--square-max", type=int_at_least(0), default=None)
        common(sp, jobs=True)
        sp.set_defaults(fn=cmd_verify_conjecture)

    if wanted("oracle-check"):
        sp = sub.add_parser(
            "oracle-check",
            help="tiling sum and two-row chains vs. algebraic construction",
        )
        sp.add_argument("--max-sum", type=int_at_least(0), default=None)
        common(sp, fmt=False, out=False)
        sp.set_defaults(fn=cmd_oracle_check)

    if wanted("render"):
        sp = sub.add_parser("render", help="SVG of one tiling or a chain gallery")
        sp.add_argument("m", type=int)
        sp.add_argument("n", type=int)
        sp.add_argument("--select", default="first",
                        help="'first', a tiling index, or 'chains' (n=2 only)")
        common(sp, budget=False, fmt=False)
        sp.set_defaults(fn=cmd_render)

    if wanted("fibocatalan-sweep"):
        sp = sub.add_parser(
            "fibocatalan-sweep",
            help="divisibility/nonnegativity sweep for qfibonomial / [F_{m+n}]_q",
        )
        sp.add_argument("--max-sum", type=int_at_least(2), default=None)
        common(sp)
        sp.set_defaults(fn=cmd_fibocatalan_sweep)

    if wanted("lab-scan"):
        sp = sub.add_parser(
            "lab-scan",
            help="predicate-vs-actual unimodality scan over q-analog products",
        )
        sp.add_argument("--k-max", type=int_at_least(1), default=None)
        sp.add_argument("--r-max", type=int_at_least(2), default=None)
        sp.add_argument("--value-max", type=int_at_least(1), default=None)
        common(sp, fmt=False, jobs=True)
        sp.set_defaults(fn=cmd_lab_scan)

    if wanted("chains"):
        sp = sub.add_parser("chains", help="chain decomposition of T(m, 2)")
        sp.add_argument("m", type=int)
        common(sp, budget=False, fmt=False)
        sp.set_defaults(fn=cmd_chains)

    return p


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    args = build_parser(argv[0] if argv else None).parse_args(argv)
    if hasattr(args, "budget"):
        for name, value in BUDGETS[args.budget][args.command].items():
            if getattr(args, name, None) is None:
                setattr(args, name, value)
    try:
        return args.fn(args)
    except (EnumerationCapExceeded, CoefficientCapExceeded) as e:
        print(f"refused: {e}", file=sys.stderr)
        return EXIT_REFUSED
    except ValueError as e:
        print(f"usage error: {e}", file=sys.stderr)
        return EXIT_REFUSED
    except OSError as e:
        print(f"I/O error: {e}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
