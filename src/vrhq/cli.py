"""Command-line front end.

Every subcommand prints one output envelope (see render.py) and exits 0 for
mathematical results, including negative ones such as an empty
counterexample list or a failed witness check.  Exit 1 flags a result
that failed the check made before it is printed, a bug; exit 2 bad usage or
violated preconditions, exit 3 ingestion/parse failures, exit 4 resource
caps.  A command line that argparse rejects prints no envelope, only its
usage message on stderr.  Caps are configurable, flags taking precedence
over VRHQ_* environment variables over built-in defaults.  Each handler
imports the layers it calls, so a run loads only its subcommand's code.
"""

from __future__ import annotations

import argparse
import gc
import math
import os
import time

from . import __version__
from .errors import (DegenerateScale, DimensionOutOfRange, DimensionTooLarge,
                     DuplicateVertex, IsolatedVertex, OddCount, ParseError,
                     SelfCheckFailed, TooLarge, TruncationTooShallow)
from .render import FORMATS, Rows, encode, make_envelope

EXIT_OK = 0
EXIT_SELF_CHECK = 1
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
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"duration must be finite, got {text!r}")
    if value < 0:
        raise argparse.ArgumentTypeError("duration must be non-negative")
    return value


def _parse_labels(text: str) -> list[int]:
    try:
        return [int(tok) for tok in text.split(",") if tok != ""]
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad vertex list {text!r}") from None


def _resolve_cap(flag_value, flag, env_name, default):
    """The flag's value, else the environment variable's, else the default.
    A cap of 0 is legal; one below 0 is a usage error, named by its source."""
    if flag_value is not None:
        value, source = flag_value, flag
    else:
        env = os.environ.get(env_name)
        if env is None:
            return default
        try:
            value, source = int(env), env_name
        except ValueError:
            raise ValueError(f"{env_name} must be an integer, got {env!r}") from None
    if value < 0:
        raise ValueError(f"{source} must be >= 0, got {value}")
    return value


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
    from . import bounds, hypercube
    hypercube.validate_pair(args.n, args.r)
    if args.r >= args.n:
        # the full simplex on 2^n vertices: no bound to round
        return {"n": args.n, "r": args.r, "contractible": True, "alpha": None,
                "k": None, "connectivity": None, "paper_discrepancy": None}
    # one tail sum: the bound is rounded from alpha, not recomputed
    a = bounds.alpha(args.n, args.r)
    c = bounds.rounded_connectivity(a.numerator, a.denominator)
    printed = bounds.published_value(args.n, args.r)
    discrepancy = None
    if printed is not None and printed != c:
        discrepancy = {"printed": printed, "computed": c}
    return {
        "n": args.n, "r": args.r, "contractible": False,
        "alpha": {"numerator": a.numerator, "denominator": a.denominator,
                  "is_integer": a.is_integer},
        "k": c + 1,
        "connectivity": c,
        "paper_discrepancy": discrepancy,
    }


def _cmd_table(args):
    from . import bounds
    if args.paper:
        if args.n_max is not None or args.r_max is not None:
            raise ValueError("--paper excludes --n-max/--r-max")
        rows = [(n, r, c, printed, c == printed)
                for n, r, c, printed in bounds.reference_table()]
    else:
        if args.n_max is None:
            raise ValueError("--n-max is required without --paper")
        # padded in place, so the 3-tuples and the 5-tuples are never all
        # held at once
        rows = bounds.grid_table(args.n_max, args.r_max)
        for i, row in enumerate(rows):
            rows[i] = row + (None, None)
    return {"paper": args.paper,
            "rows": Rows(("n", "r", "connectivity", "printed", "agrees"), rows)}


def _cmd_counterexamples(args):
    from . import bounds
    return {"n_max": args.n_max,
            "pairs": Rows(("n", "r", "connectivity"),
                          bounds.counterexample_scan(args.n_max))}


def _dimacs_graph(m, edges):
    """The graph of a checked DIMACS file.  An edge covers two vertices, so
    fewer than m / 2 edges leave one isolated: that ends gamma-t here,
    before any list is sized by m."""
    from . import domination, hypercube
    if 2 * len(edges) < m:
        raise IsolatedVertex(domination.UNDEFINED_ON_ISOLATED)
    return hypercube.Graph.from_edges(m, edges)


def _load_gamma_t_graph(args):
    from . import hypercube
    if args.dimacs is not None:
        if args.n is not None or args.r is not None:
            raise ValueError("--dimacs excludes --n/--r")
        with open(args.dimacs, "r", encoding="utf-8") as fh:
            g = hypercube.read_dimacs(fh.read(), build=_dimacs_graph)
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
    from . import domination
    if args.exhaustive and args.time_limit is not None:
        raise ValueError("--exhaustive excludes --time-limit")
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
    from . import complexes
    cap = _resolve_cap(args.max_simplices, "--max-simplices", "VRHQ_MAX_SIMPLICES",
                       complexes.DEFAULT_MAX_SIMPLICES)
    k = complexes.vietoris_rips(args.n, args.r, args.max_dim, max_simplices=cap)
    complexes.write_complex_file(k, args.out)
    f = k.f_vector()
    return {"n": args.n, "r": args.r, "max_dim": args.max_dim,
            "f_vector": list(f), "simplex_count": sum(f),
            "euler_characteristic": k.euler_characteristic(), "out": args.out}


def _cmd_homology(args):
    from . import complexes, homology
    if args.up_to < 0:
        raise ValueError("--up-to must be >= 0")
    snf_cap = None  # the integer pipeline's cap; GF(2) takes none
    if args.coefficients == "z":
        snf_cap = _resolve_cap(args.snf_cap, "--snf-cap", "VRHQ_SNF_CAP",
                               homology.DEFAULT_SNF_CAP)
    elif args.snf_cap is not None:
        raise ValueError("--snf-cap needs --coefficients z, the only pipeline it caps")
    if args.complex_file is not None:
        if args.n is not None or args.r is not None:
            raise ValueError("--complex excludes --n/--r")
        if args.max_simplices is not None:
            raise ValueError("--complex excludes --max-simplices, which caps --n/--r builds")
        k = complexes.read_complex_file(args.complex_file)
        source = {"kind": "file", "path": args.complex_file}
    else:
        if args.n is None or args.r is None:
            raise ValueError("either --complex or both --n and --r are required")
        cap = _resolve_cap(args.max_simplices, "--max-simplices", "VRHQ_MAX_SIMPLICES",
                           complexes.DEFAULT_MAX_SIMPLICES)
        k = complexes.vietoris_rips(args.n, args.r, args.up_to + 1, max_simplices=cap)
        source = {"kind": "hamming", "n": args.n, "r": args.r}
    profile = homology.reduced_homology(k, args.up_to, args.coefficients,
                                        snf_cap=snf_cap)
    return {"source": source, "up_to": args.up_to,
            **profile.to_json_dict()}


def _cmd_witness(args):
    from . import complexes
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


def _utc_now() -> str:
    """The current UTC time in ISO 8601, always with microseconds and +00:00."""
    micros = time.time_ns() // 1000
    seconds = time.strftime("%Y-%m-%dT%H:%M:%S", time.gmtime(micros // 1_000_000))
    return f"{seconds}.{micros % 1_000_000:06d}+00:00"


def _params_of(args):
    skip = {"command", "format"}
    return {k: v for k, v in sorted(vars(args).items()) if k not in skip}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_USAGE

    started = _utc_now()
    t0 = time.monotonic()
    result = None
    status = "ok"
    code = EXIT_OK
    try:
        result = _HANDLERS[args.command](args)
    except _CAP_ERRORS as exc:
        status = _status(exc, args.command)
        code = EXIT_CAP
    except _INGEST_ERRORS as exc:
        status = _status(exc, args.command)
        code = EXIT_INGEST
    except _USAGE_ERRORS as exc:
        status = _status(exc, args.command)
        code = EXIT_USAGE
    except SelfCheckFailed as exc:
        status = _status(exc, args.command)
        code = EXIT_SELF_CHECK

    envelope = make_envelope(args.command, _params_of(args), result,
                             __version__, started,
                             round(time.monotonic() - t0, 6), status)
    print(encode(envelope, args.format), end="")
    return code


def _status(exc, command) -> dict:
    """The envelope status of a failed run.  An exception that carries no
    message, such as a bare MemoryError, gets one naming the subcommand."""
    message = str(exc) or f"{command} failed with {type(exc).__name__}"
    return {"code": _snake(exc), "message": message}


def _snake(exc) -> str:
    name = type(exc).__name__
    out = []
    for i, ch in enumerate(name):
        if ch.isupper() and i and not name[i - 1].isupper():
            out.append("_")
        out.append(ch.lower())
    return "".join(out)


def entry():
    """Run main() and exit with its code: the `vrhq` script and `python -m
    vrhq` both come here.  Interpreter shutdown would run a full garbage
    collection over every tracked object, nearly all of them loaded by
    `site` and the imports; gc.freeze() takes them out of its reach, while
    output is still flushed and atexit handlers and module teardown still
    run.  main() does not freeze: a process calling it would keep its
    objects frozen for good."""
    try:
        code = main()
    finally:
        gc.freeze()
    raise SystemExit(code)
