"""Output envelope assembly and the json/csv/md encoders.

Every command wraps its payload in the same envelope; identical invocations
produce byte-identical output except for the provenance.wall_clock field.
CSV and Markdown render a per-command tabular projection of the result;
JSON always carries the whole envelope.
"""

from __future__ import annotations

import io
import json

FORMATS = ("json", "csv", "md")


def make_envelope(command, params, result, version, started_utc, elapsed_s, status="ok"):
    import sys
    return {
        "command": command,
        "params": params,
        "result": result,
        "provenance": {
            "package": "vrhq",
            "version": version,
            "python": "%d.%d.%d" % sys.version_info[:3],
            "wall_clock": {"started_utc": started_utc, "elapsed_s": elapsed_s},
        },
        "status": status,
    }


def _cell(value):
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (list, tuple)):
        return " ".join(_cell(v) for v in value)
    return str(value)


def _rows_bound(result):
    headers = ["n", "r", "contractible", "alpha_numerator", "alpha_denominator",
               "k", "connectivity", "paper_printed"]
    a = result["alpha"] or {}
    printed = result["paper_discrepancy"]["printed"] if result["paper_discrepancy"] else None
    return headers, [[result["n"], result["r"], result["contractible"],
                      a.get("numerator"), a.get("denominator"),
                      result["k"], result["connectivity"], printed]]


def _rows_table(result):
    headers = ["n", "r", "connectivity", "printed", "agrees"]
    return headers, [[row["n"], row["r"], row["connectivity"], row["printed"], row["agrees"]]
                     for row in result["rows"]]


def _rows_counterexamples(result):
    headers = ["n", "r", "connectivity"]
    return headers, [[p["n"], p["r"], p["connectivity"]] for p in result["pairs"]]


def _rows_gamma_t(result):
    headers = ["kind", "m", "max_degree", "mode", "lower", "upper", "exact",
               "status", "witness"]
    gr = result["graph"]
    return headers, [[gr["kind"], gr["m"], gr["max_degree"], result["mode"],
                      result["lower"], result["upper"], result["exact"],
                      result["status"], result["witness"]]]


def _rows_complex(result):
    headers = ["n", "r", "max_dim", "simplex_count", "euler_characteristic",
               "f_vector", "out"]
    return headers, [[result["n"], result["r"], result["max_dim"],
                      result["simplex_count"], result["euler_characteristic"],
                      result["f_vector"], result["out"]]]


def _rows_homology(result):
    headers = ["dim", "reduced_betti", "torsion"]
    torsion = result["torsion"]
    return headers, [[d, result["reduced_betti"][d],
                      torsion[d] if torsion is not None else None]
                     for d in result["dims"]]


def _rows_witness(result):
    headers = ["n", "r", "vertices", "is_matching_complement",
               "is_cross_polytope_boundary", "is_total_dominating_in_complement",
               "missing_pairs", "recovered_pairs"]
    fmt_pairs = lambda ps: ";".join(f"{a},{b}" for a, b in ps)
    return headers, [[result["n"], result["r"], result["vertices"],
                      result["is_matching_complement"],
                      result["is_cross_polytope_boundary"],
                      result["is_total_dominating_in_complement"],
                      fmt_pairs(result["missing_pairs"]),
                      fmt_pairs(result["recovered_pairs"])]]


_PROJECTIONS = {
    "bound": _rows_bound,
    "table": _rows_table,
    "counterexamples": _rows_counterexamples,
    "gamma-t": _rows_gamma_t,
    "complex": _rows_complex,
    "homology": _rows_homology,
    "witness": _rows_witness,
}


def encode(envelope, fmt: str) -> str:
    if fmt == "json" or envelope["status"] != "ok":
        # tabular formats still need to surface failures
        return json.dumps(envelope, indent=2) + "\n"
    headers, rows = _PROJECTIONS[envelope["command"]](envelope["result"])
    if fmt == "csv":
        import csv
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(headers)
        for row in rows:
            writer.writerow([_cell(v) for v in row])
        return buf.getvalue()
    if fmt == "md":
        lines = ["| " + " | ".join(headers) + " |",
                 "| " + " | ".join("---" for _ in headers) + " |"]
        for row in rows:
            lines.append("| " + " | ".join(_cell(v) for v in row) + " |")
        return "\n".join(lines) + "\n"
    raise ValueError(f"unknown format {fmt!r}")
