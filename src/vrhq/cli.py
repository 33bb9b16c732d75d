"""Command-line front end.

Every subcommand prints one output envelope (see render.py) and exits 0 for
mathematical results, including negative ones such as an empty
counterexample list or a failed witness check.  Exit 2 flags bad usage or
violated preconditions, exit 3 ingestion/parse failures, exit 4 resource
caps.  Caps are configurable, flags taking precedence over VRHQ_* environment
variables over built-in defaults.
"""

from __future__ import annotations

import argparse
import datetime
import os
import time

from . import __version__, bounds, complexes, domination, homology, hypercube
from .errors import (DegenerateScale, DimensionOutOfRange, DimensionTooLarge,
                     DuplicateVertex, IsolatedVertex, OddCount, ParseError,
                     TooLarge, TruncationTooShallow)
from .render import FORMATS, encode, make_envelope

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_INGEST = 3
EXIT_CAP = 4

_USAGE_ERRORS = (OddCount, DuplicateVertex, IsolatedVertex, DegenerateScale,
                 TruncationTooShallow, DimensionOutOfRange, ValueError)
_INGEST_ERRORS = (ParseError, OSError)
_CAP_ERRORS = (TooLarge, DimensionTooLarge, MemoryError)


def _parse_duration(text: str) -> float:
    """Durations like '600s', '10m', '1.5h' or bare seconds."""
    scale = 1.0
    body = text
    if text and text[-1] in "smh":
        scale = {"s": 1.0, "m": 60.0, "h": 3600.0}[text[-1]]
        body = text[:-1]
    try:
        value = float(body) * scale
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad duration {text!r}") from None
    if value < 0:
        raise argparse.ArgumentTypeError("duration must be non-negative")
    return value


def _parse_labels(text: str) -> list[int]:
    try:
        return [int(tok) for tok in text.split(",") if tok != ""]
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad vertex list {text!r}") from None


def _resolve_cap(flag_value, env_name, default):
    if flag_value is not None:
        return flag_value
    env = os.environ.get(env_name)
    if env is not None:
        try:
            return int(env)
        except ValueError:
            raise ValueError(f"{env_name} must be an integer, got {env!r}") from None
    return default


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--format", choices=FORMATS, default="json",
                        help="output encoding (default json)")

    p = argparse.ArgumentParser(
        prog="vrhq",
        description="Connectivity lower bounds for Vietoris-Rips complexes of "
                    "hypercube graphs, with exact domination and homology tools.")
    p.add_argument("--version", action="version", version=f"vrhq {__version__}")
    sub = p.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("bound", parents=[common],
                        help="connectivity lower bound for VR(Q_n; r)")
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--r", type=int, required=True)

    sp = sub.add_parser("table", parents=[common],
                        help="bounds over an (n, r) grid, or the published example rows")
    sp.add_argument("--n-max", type=int)
    sp.add_argument("--r-max", type=int)
    sp.add_argument("--paper", action="store_true",
                    help="emit the eight published reference rows with agreement flags")

    sp = sub.add_parser("counterexamples", parents=[common],
                        help="pairs whose bound exceeds r, forcing H~_{r+1} = 0")
    sp.add_argument("--n-max", type=int, required=True)

    sp = sub.add_parser("gamma-t", parents=[common],
                        help="total domination number, exact or bounded")
    sp.add_argument("--n", type=int)
    sp.add_argument("--r", type=int)
    sp.add_argument("--dimacs", metavar="FILE",
                    help="solve on a DIMACS graph instead of the complement "
                         "Hamming graph on Q_n at scale r")
    sp.add_argument("--time-limit", type=_parse_duration, metavar="DURATION",
                    help="e.g. 600s, 10m; expiry reports bounds, not an error")
    sp.add_argument("--exhaustive", action="store_true",
                    help="use the cardinality-scan oracle (m <= 20)")

    sp = sub.add_parser("complex", parents=[common],
                        help="build VR(Q_n; r) up to max-dim and write it to a file")
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--r", type=int, required=True)
    sp.add_argument("--max-dim", type=int, required=True)
    sp.add_argument("--out", required=True, metavar="FILE")
    sp.add_argument("--max-simplices", type=int)

    sp = sub.add_parser("homology", parents=[common],
                        help="reduced Betti numbers of VR(Q_n; r) or a complex file")
    sp.add_argument("--n", type=int)
    sp.add_argument("--r", type=int)
    sp.add_argument("--complex", metavar="FILE", dest="complex_file")
    sp.add_argument("--up-to", type=int, required=True)
    sp.add_argument("--coefficients", choices=("gf2", "z"), default="gf2")
    sp.add_argument("--max-simplices", type=int)
    sp.add_argument("--snf-cap", type=int)

    sp = sub.add_parser("witness", parents=[common],
                        help="cross-polytope pattern and domination check for a vertex list")
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--r", type=int, required=True)
    sp.add_argument("--vertices", type=_parse_labels, required=True,
                    help="comma-separated vertex labels, e.g. 0,3,5,6")

    return p


def _cmd_bound(args):
    b = bounds.connectivity_lower_bound(args.n, args.r)
    if b.is_contractible:
        return {"n": args.n, "r": args.r, "contractible": True, "alpha": None,
                "k": None, "connectivity": None, "paper_discrepancy": None}
    a = bounds.alpha(args.n, args.r)
    printed = bounds.published_value(args.n, args.r)
    discrepancy = None
    if printed is not None and printed != b.connectivity:
        discrepancy = {"printed": printed, "computed": b.connectivity}
    return {
        "n": args.n, "r": args.r, "contractible": False,
        "alpha": {"numerator": a.numerator, "denominator": a.denominator,
                  "is_integer": a.is_integer},
        "k": b.connectivity + 1,
        "connectivity": b.connectivity,
        "paper_discrepancy": discrepancy,
    }


def _cmd_table(args):
    if args.paper:
        rows = bounds.reference_table()
    else:
        if args.n_max is None:
            raise ValueError("--n-max is required without --paper")
        rows = bounds.grid_table(args.n_max, args.r_max)
    return {"paper": args.paper,
            "rows": [{"n": t.n, "r": t.r, "connectivity": t.connectivity,
                      "printed": t.printed, "agrees": t.agrees} for t in rows]}


def _cmd_counterexamples(args):
    pairs = bounds.counterexample_scan(args.n_max)
    return {"n_max": args.n_max,
            "pairs": [{"n": n, "r": r, "connectivity": c} for n, r, c in pairs]}


def _load_gamma_t_graph(args):
    if args.dimacs is not None:
        if args.n is not None or args.r is not None:
            raise ValueError("--dimacs excludes --n/--r")
        with open(args.dimacs, "r", encoding="utf-8") as fh:
            g = hypercube.read_dimacs(fh.read())
        info = {"kind": "dimacs", "path": args.dimacs, "m": g.m,
                "max_degree": g.max_degree}
    else:
        if args.n is None or args.r is None:
            raise ValueError("either --dimacs or both --n and --r are required")
        g = hypercube.build_hamming_graph(args.n, args.r, complemented=True)
        info = {"kind": "hamming_complement", "n": args.n, "r": args.r,
                "m": g.m, "max_degree": g.max_degree}
    return g, info


def _cmd_gamma_t(args):
    g, info = _load_gamma_t_graph(args)
    if args.exhaustive:
        value = domination.gamma_t_exhaustive(g)
        return {"graph": info, "mode": "exhaustive", "lower": value,
                "upper": value, "exact": value, "status": "exact",
                "witness": None, "nodes": None}
    res = domination.exact_gamma_t(g, time_limit=args.time_limit)
    return {"graph": info, "mode": "branch_and_bound",
            "lower": res.lower, "upper": res.upper, "exact": res.exact,
            "status": res.status, "witness": sorted(res.witness), "nodes": res.nodes}


def _cmd_complex(args):
    cap = _resolve_cap(args.max_simplices, "VRHQ_MAX_SIMPLICES",
                       complexes.DEFAULT_MAX_SIMPLICES)
    k = complexes.vietoris_rips(args.n, args.r, args.max_dim, max_simplices=cap)
    complexes.write_complex_file(k, args.out)
    f = k.f_vector()
    return {"n": args.n, "r": args.r, "max_dim": args.max_dim,
            "f_vector": list(f), "simplex_count": sum(f),
            "euler_characteristic": k.euler_characteristic(), "out": args.out}


def _cmd_homology(args):
    if args.up_to is None or args.up_to < 0:
        raise ValueError("--up-to must be >= 0")
    cap = _resolve_cap(args.max_simplices, "VRHQ_MAX_SIMPLICES",
                       complexes.DEFAULT_MAX_SIMPLICES)
    snf_cap = _resolve_cap(args.snf_cap, "VRHQ_SNF_CAP", homology.DEFAULT_SNF_CAP)
    if args.complex_file is not None:
        if args.n is not None or args.r is not None:
            raise ValueError("--complex excludes --n/--r")
        k = complexes.read_complex_file(args.complex_file)
        source = {"kind": "file", "path": args.complex_file}
    else:
        if args.n is None or args.r is None:
            raise ValueError("either --complex or both --n and --r are required")
        k = complexes.vietoris_rips(args.n, args.r, args.up_to + 1, max_simplices=cap)
        source = {"kind": "hamming", "n": args.n, "r": args.r}
    profile = homology.reduced_homology(k, args.up_to, args.coefficients,
                                        snf_cap=snf_cap)
    return {"source": source, "up_to": args.up_to,
            **profile.to_json_dict()}


def _cmd_witness(args):
    report = complexes.cross_polytope_witness_check(args.n, args.r, args.vertices)
    return {"n": args.n, "r": args.r, "vertices": list(args.vertices),
            "is_matching_complement": report.is_matching_complement,
            "is_cross_polytope_boundary": report.is_cross_polytope_boundary,
            "is_total_dominating_in_complement":
                report.is_total_dominating_in_complement,
            "missing_pairs": [list(p) for p in report.missing_pairs],
            "recovered_pairs": [list(p) for p in report.recovered_pairs]}


_HANDLERS = {
    "bound": _cmd_bound,
    "table": _cmd_table,
    "counterexamples": _cmd_counterexamples,
    "gamma-t": _cmd_gamma_t,
    "complex": _cmd_complex,
    "homology": _cmd_homology,
    "witness": _cmd_witness,
}


def _params_of(args):
    skip = {"command", "format"}
    return {k: v for k, v in sorted(vars(args).items()) if k not in skip}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_USAGE

    started = datetime.datetime.now(datetime.timezone.utc).isoformat()
    t0 = time.monotonic()
    result = None
    status = "ok"
    code = EXIT_OK
    try:
        result = _HANDLERS[args.command](args)
    except _CAP_ERRORS as exc:
        status = {"code": _snake(exc), "message": str(exc)}
        code = EXIT_CAP
    except _INGEST_ERRORS as exc:
        status = {"code": _snake(exc), "message": str(exc)}
        code = EXIT_INGEST
    except _USAGE_ERRORS as exc:
        status = {"code": _snake(exc), "message": str(exc)}
        code = EXIT_USAGE

    envelope = make_envelope(args.command, _params_of(args), result,
                             __version__, started,
                             round(time.monotonic() - t0, 6), status)
    print(encode(envelope, args.format), end="")
    return code


def _snake(exc) -> str:
    name = type(exc).__name__
    out = []
    for i, ch in enumerate(name):
        if ch.isupper() and i and not name[i - 1].isupper():
            out.append("_")
        out.append(ch.lower())
    return "".join(out)


def entry():
    raise SystemExit(main())
