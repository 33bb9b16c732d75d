"""Spans around vrhq's public layer calls, and the per-layer metrics from them.

The traced run drives the CLI in process (`vrhq.cli.main(argv)`) with the
public functions of each layer replaced by wrappers that record a span:
name, start, end, parent span and the operation it belongs to, plus a few
counts read off the arguments and the result.  The program itself is not
changed; the originals are put back when the pass ends.  Spans are kept in
memory and written out as JSON at the end of the run.
"""

from __future__ import annotations

import functools
import statistics
import time


def _m(graph):
    return {"m": graph.m}


def _f_vector(k):
    return {"f_vector": list(k.f_vector())}


# (module attribute path, span name, counts from (args, kwargs, result))
PATCHES = (
    ("bounds.grid_table", "bounds.grid_table", lambda a, k, res: {"pairs": len(res)}),
    ("bounds.counterexample_scan", "bounds.counterexample_scan",
     lambda a, k, res: {"pairs": a[0] * (a[0] - 1) // 2}),
    ("cli.encode", "render.encode", lambda a, k, res: {"bytes": len(res)}),
    ("hypercube.build_hamming_graph", "hypercube.build_hamming_graph",
     lambda a, k, res: _m(res)),
    ("complexes.build_hamming_graph", "hypercube.build_hamming_graph",
     lambda a, k, res: _m(res)),
    ("hypercube.read_dimacs", "hypercube.read_dimacs", lambda a, k, res: _m(res)),
    ("domination.greedy_upper_bound", "domination.greedy_upper_bound", None),
    ("domination.exact_gamma_t", "domination.exact_gamma_t",
     lambda a, k, res: {"nodes": res.nodes, "elapsed_s": res.elapsed_s,
                        "time_limit": k.get("time_limit")}),
    ("complexes.cross_polytope_witness_check", "complexes.cross_polytope_witness_check",
     None),
    ("complexes.vietoris_rips", "complexes.vietoris_rips", lambda a, k, res: _f_vector(res)),
    ("complexes.write_complex_file", "complexes.write_complex_file", None),
    ("complexes.read_complex_file", "complexes.read_complex_file",
     lambda a, k, res: _f_vector(res)),
    ("complexes.parse_complex", "complexes.parse_complex", None),
    ("homology.boundary_matrix", "homology.boundary_matrix",
     lambda a, k, res: {"nnz": sum(len(c) for c in res.columns)}),
    ("homology.BoundaryMatrix.gf2_columns", "homology.gf2_columns",
     lambda a, k, res: {"bytes": sum((c.bit_length() + 7) // 8 for c in res)}),
    ("homology.gf2_rank", "homology.gf2_rank",
     lambda a, k, res: {"cols": len(a[0]), "rank": res}),
    ("homology.BoundaryMatrix.dense_rows", "homology.dense_rows", None),
    ("homology.smith_normal_form", "homology.smith_normal_form",
     lambda a, k, res: {"entries": len(a[0]) * (len(a[0][0]) if a[0] else 0),
                        "rank": len(res)}),
)


class Tracer:
    """Records spans in memory; `op` tags every span with its operation.
    `counts_s` is the time spent reading counts off arguments and results,
    outside every span."""

    def __init__(self):
        self.spans = []
        self.op = -1
        self.counts_s = 0.0
        self._stack = []

    def begin(self, name, **attrs):
        span = {"id": len(self.spans), "op": self.op, "name": name,
                "parent": self._stack[-1]["id"] if self._stack else None,
                "start": time.perf_counter(), "end": None, **attrs}
        self.spans.append(span)
        self._stack.append(span)
        return span

    def end(self, span):
        span["end"] = time.perf_counter()
        self._stack.pop()

    def wrap(self, name, fn, counts):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = self.begin(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end(span)
            if counts is not None:
                t0 = time.perf_counter()
                span.update(counts(args, kwargs, result))
                self.counts_s += time.perf_counter() - t0
            return result
        return traced


def wrapper_cost(calls=20000, rounds=5):
    """Seconds a wrapper adds to one call: a no-op called through a wrapper
    less the same no-op called directly, median over `rounds`.  Together
    with Tracer.counts_s this is what tracing adds to a pass."""
    def noop():
        pass

    costs = []
    for _ in range(rounds):
        wrapped = Tracer().wrap("noop", noop, None)
        t0 = time.perf_counter()
        for _ in range(calls):
            noop()
        t1 = time.perf_counter()
        for _ in range(calls):
            wrapped()
        t2 = time.perf_counter()
        costs.append(((t2 - t1) - (t1 - t0)) / calls)
    return statistics.median(costs)


class Patched:
    """Context manager installing the tracer's wrappers into vrhq's modules."""

    def __init__(self, tracer, package):
        self.tracer = tracer
        self.package = package
        self.saved = []

    def __enter__(self):
        for path, name, counts in PATCHES:
            *owner_path, attr = path.split(".")
            owner = self.package
            for part in owner_path:
                owner = getattr(owner, part)
            original = owner.__dict__[attr]
            self.saved.append((owner, attr, original))
            setattr(owner, attr, self.tracer.wrap(name, original, counts))
        return self

    def __exit__(self, *exc):
        for owner, attr, original in reversed(self.saved):
            setattr(owner, attr, original)
        self.saved.clear()
        return False


def self_times(spans):
    """Duration minus the time covered by direct children, per span id."""
    own = {s["id"]: s["end"] - s["start"] for s in spans}
    for s in spans:
        if s["parent"] is not None:
            own[s["parent"]] -= s["end"] - s["start"]
    return own


def composed_betti(spans, op, up_to):
    """Reduced Betti numbers of one homology operation, composed from its
    spans: f-vector of the complex, ranks of the boundary maps in order."""
    mine = [s for s in spans if s["op"] == op]
    f = next(s["f_vector"] for s in mine
             if s["name"] in ("complexes.vietoris_rips", "complexes.read_complex_file"))
    ranks = [s["rank"] for s in mine
             if s["name"] in ("homology.gf2_rank", "homology.smith_normal_form")]
    return [f[i] - ranks[i] - ranks[i + 1] for i in range(up_to + 1)]


def layer_metrics(spans, scale):
    """Per-layer metrics over a set of spans.  `scale` maps a span id to the
    host-speed factor of the pass it ran in; times are multiplied by it,
    counts are as recorded."""
    own = self_times(spans)

    def total(name, selfonly=False):
        return sum((own[s["id"]] if selfonly else s["end"] - s["start"]) * scale[s["id"]]
                   for s in spans if s["name"] == name)

    def counts(name, key):
        return [s[key] for s in spans if s["name"] == name]

    mib = float(1 << 20)
    grid_s = total("bounds.grid_table")
    scan_s = total("bounds.counterexample_scan")
    pairs = sum(counts("bounds.grid_table", "pairs")) + sum(
        counts("bounds.counterexample_scan", "pairs"))
    search_s = total("domination.exact_gamma_t", selfonly=True)
    nodes = sum(counts("domination.exact_gamma_t", "nodes"))
    build_s = total("complexes.vietoris_rips", selfonly=True)
    simplices = sum(sum(f) for f in counts("complexes.vietoris_rips", "f_vector"))
    sizes = counts("hypercube.build_hamming_graph", "m") + counts("hypercube.read_dimacs", "m")
    overruns = [s["elapsed_s"] - s["time_limit"] for s in spans
                if s["name"] == "domination.exact_gamma_t" and s["time_limit"] is not None]
    gf2 = [s for s in spans if s["name"] == "homology.gf2_rank"]
    return {
        "bounds.grid_s": (grid_s, "s"),
        "bounds.scan_s": (scan_s, "s"),
        "bounds.pairs_per_s": (pairs / (grid_s + scan_s), "1/s"),
        "render.encode_s": (total("render.encode"), "s"),
        "render.out_mib": (max(counts("render.encode", "bytes")) / mib, "MiB"),
        "hypercube.build_s": (total("hypercube.build_hamming_graph"), "s"),
        "hypercube.adjacency_mib": (max(m * m / 8 for m in sizes) / mib, "MiB"),
        "hypercube.dimacs_read_s": (total("hypercube.read_dimacs"), "s"),
        "domination.greedy_s": (total("domination.greedy_upper_bound"), "s"),
        "domination.search_s": (search_s, "s"),
        "domination.nodes": (nodes, "count"),
        "domination.nodes_per_s": (nodes / search_s, "1/s"),
        "domination.deadline_overrun_s": (max(overruns), "s"),
        "complexes.build_s": (build_s, "s"),
        "complexes.simplices": (simplices, "count"),
        "complexes.simplices_per_s": (simplices / build_s, "1/s"),
        "complexes.file_io_s": (total("complexes.write_complex_file")
                                + total("complexes.read_complex_file"), "s"),
        "complexes.witness_s": (total("complexes.cross_polytope_witness_check"), "s"),
        "homology.boundary_s": (total("homology.boundary_matrix"), "s"),
        "homology.boundary_nnz": (sum(counts("homology.boundary_matrix", "nnz")), "count"),
        "homology.gf2_pack_s": (total("homology.gf2_columns"), "s"),
        "homology.gf2_packed_mib": (max(counts("homology.gf2_columns", "bytes")) / mib, "MiB"),
        "homology.gf2_rank_s": (total("homology.gf2_rank"), "s"),
        "homology.gf2_cols_zeroed": (sum(s["cols"] - s["rank"] for s in gf2), "count"),
        "homology.dense_s": (total("homology.dense_rows"), "s"),
        "homology.snf_s": (total("homology.smith_normal_form"), "s"),
        "homology.snf_entries": (sum(counts("homology.smith_normal_form", "entries")), "count"),
    }
