"""Output envelope assembly and the json/csv/md encoders.

Every command wraps its payload in the same envelope; identical invocations
produce byte-identical output except for the provenance.wall_clock field.
CSV and Markdown render a per-command tabular projection of the result;
JSON always carries the whole envelope.  A long list of records travels as
`Rows`, a value of the result dict: JSON prints it as the list of objects
json.dumps(indent=2) would, from one % template per row, and CSV prints its
tuples as they are wherever their cells allow.
"""

from __future__ import annotations

import io
from itertools import chain
from operator import itemgetter

FORMATS = ("json", "csv", "md")


class Rows:
    """Records as tuples: each tuple in `tuples` holds one record's values
    in the order of the field names `keys`, of which there is at least one.
    It unpacks as (keys, tuples).  A Rows may stand only as a value of the
    envelope's result dict, where JSON prints it as a list of objects;
    anywhere else json.dumps rejects it."""

    __slots__ = ("keys", "tuples")

    def __init__(self, keys, tuples):
        self.keys = keys
        self.tuples = tuples

    def __iter__(self):
        return iter((self.keys, self.tuples))


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
    return result["rows"]


def _rows_counterexamples(result):
    return result["pairs"]


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


def _json_rows(rows, out):
    """Append rows as json.dumps(indent=2) writes their list of objects as
    a value of the envelope's result: one % template per row, ',' and its
    indent first.  A column of ints prints by %d, a column of None as null
    (its %.0s takes the cell and prints nothing), any other by json.dumps."""
    import json
    keys, tuples = rows
    if not tuples:
        out.append("[]")
        return
    pad = "\n" + "  " * 4
    slots, convert = [], []
    for i in range(len(keys)):
        kinds = set(map(type, map(itemgetter(i), tuples)))
        if kinds == {int}:
            slots.append("%d")
        elif kinds == {type(None)}:
            slots.append("null%.0s")
        else:
            slots.append("%s")
            convert.append(i)
    fields = [pad + json.dumps(key).replace("%", "%%") + ": " + slot
              for key, slot in zip(keys, slots)]
    template = ",\n      {" + ",".join(fields) + "\n      }"
    if convert:
        cell = lambda v: json.dumps(v, indent=2).replace("\n", pad)
        tuples = (tuple([cell(v) if i in convert else v for i, v in enumerate(row)])
                  for row in tuples)
    filled = map(template.__mod__, tuples)
    out.append("[" + next(filled)[1:])
    out.extend(filled)
    out.append("\n    ]")


def _json(envelope):
    """json.dumps(envelope, indent=2), each Rows among the values of
    envelope["result"] written by _json_rows.  json.dumps writes every other
    value, re-indented to its depth: a JSON string holds no raw newline, so
    each of its newlines starts a line to indent."""
    import json
    result = envelope["result"]
    if type(result) is not dict or not any(type(v) is Rows for v in result.values()):
        return json.dumps(envelope, indent=2)
    out = []
    for i, (key, value) in enumerate(envelope.items()):
        out.append(("{" if i == 0 else ",") + "\n  " + json.dumps(key) + ": ")
        if key != "result":
            out.append(json.dumps(value, indent=2).replace("\n", "\n  "))
            continue
        for j, (name, item) in enumerate(result.items()):
            out.append(("{" if j == 0 else ",") + "\n    " + json.dumps(name) + ": ")
            if type(item) is Rows:
                _json_rows(item, out)
            else:
                out.append(json.dumps(item, indent=2).replace("\n", "\n    "))
        out.append("\n  }")
    out.append("\n}")
    return "".join(out)


def _md_cell(value):
    # a bare '|' would end the cell
    return _cell(value).replace("|", "\\|")


def encode(envelope, fmt: str) -> str:
    if fmt == "json" or envelope["status"] != "ok":
        # tabular formats still need to surface failures
        return _json(envelope) + "\n"
    headers, rows = _PROJECTIONS[envelope["command"]](envelope["result"])
    if fmt == "csv":
        import csv
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(headers)
        # csv writes int, str and float cells as _cell does, and None as ""
        kinds = set(map(type, chain.from_iterable(rows)))
        if any(issubclass(t, (bool, list, tuple)) for t in kinds):
            rows = ([_cell(v) for v in row] for row in rows)
        writer.writerows(rows)
        return buf.getvalue()
    if fmt == "md":
        lines = ["| " + " | ".join(headers) + " |",
                 "| " + " | ".join("---" for _ in headers) + " |"]
        for row in rows:
            lines.append("| " + " | ".join(_md_cell(v) for v in row) + " |")
        return "\n".join(lines) + "\n"
    raise ValueError(f"unknown format {fmt!r}")
