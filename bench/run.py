"""Benchmark of the vrhq CLI: one workload per run, outputs checked.

    python3 bench/run.py --workload gamma-t --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 20

A run launches `python3 -m vrhq` from this checkout's `src/` once per
operation, one child at a time (a closed loop with one client), and checks
every output with bench/checks.py.  With `--trace 0` it first times
`vrhq --version` launches (setup_s), then runs whole passes over the
workload until the next pass would end after `--seconds`, and prints the
end-to-end metrics as medians over passes.  With `--trace 1` it runs one
pass of the named workload through the CLI, then drives the CLI in process
with every layer traced, once over each of the four workloads, and prints
the per-layer metrics.  The last line of stdout is one JSON object.

Host speed on a shared machine drifts by tens of percent within minutes.
Every time reported here is therefore scaled by REFERENCE_CALIBRATION_S
over the time of a fixed pure-Python calibration workload, run in a fresh
process before each operation (see Pass.factor): it reads as seconds at a
fixed host speed.  The calibration never touches vrhq, so a change to the
program moves these figures exactly as it moves the raw ones; the raw
figures go to stderr.  The benchmark, its children and the calibration
share one CPU and run without address-space randomisation.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import io
import json
import os
import random
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORKDIR = os.path.join(HERE, ".run")
# inputs, outputs and child working directory of this process, removed at exit
SCRATCH = os.path.join(WORKDIR, f"tmp-{os.getpid()}")
sys.path.insert(0, HERE)

import checks  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

SETUP_LAUNCHES = 15
IMPORT_LAUNCHES = 5
ADDR_NO_RANDOMIZE = 0x0040000
REEXEC_MARK = "VRHQ_BENCH_REEXECUTED"
# Every child is killed once the run has lasted this long, so that a run
# ends within its 180 s budget even if the program hangs.
RUN_DEADLINE_S = 170.0
# Roughly the calibration time on the machine the reference figures in
# README.md were taken on; it fixes the unit of every reported time.
REFERENCE_CALIBRATION_S = 0.09
# One calibration sample moves by tens of percent; three on each side of an
# operation gave the steadiest figures over the four workloads.
CALIBRATION_WINDOW = 3

IMPORT_PROBE = ("import time; t = time.perf_counter(); import vrhq.cli; "
                "print(time.perf_counter() - t)")
# Runs vrhq like `python3 -m vrhq ARGS` and appends the time spent in
# vrhq.cli.main to stderr, so that a child's launch overhead is its wall time
# less that time, both taken in the same process.
MAIN_PROBE = """
import sys, time
from vrhq.cli import main
t = time.perf_counter()
code = main(sys.argv[1:])
sys.stderr.write(f"\\nmain_s {time.perf_counter() - t!r}\\n")
raise SystemExit(code)
"""
# A fixed pure-Python workload shaped like vrhq's hot loops: big-integer
# binomial sums (bounds), AND/XOR/popcount on 2048-bit bitsets (domination,
# GF(2) elimination), dense integer row operations on a small and on a
# 300 x 300 matrix of several MB (Smith normal form) and tuple slicing with
# dict lookups (boundary assembly).  The child prints its
# time.  It runs in a fresh process each time so that no single process's
# speed decides the factor.
CALIBRATION_PROBE = """
import math, time
t0 = time.perf_counter()
acc = 0
for n in list(range(120, 200, 4)) * 8:
    acc += sum(math.comb(n, i) for i in range(n // 2, n + 1)) // (1 << (n - 1))
mask = (1 << 2048) - 1
rows = [(0x9E3779B97F4A7C15 * (i + 1)) ** 40 & mask for i in range(256)]
for a in rows:
    for b in rows[::3]:
        acc += (a & b).bit_count()
        a ^= b
m = [[(i * 31 + j * 17) % 11 - 5 for j in range(70)] for i in range(70)]
for t in range(45):
    p = m[t]
    for i in range(t + 1, 70):
        q = m[i][t] // (p[t] or 1)
        m[i] = [a - q * b for a, b in zip(m[i], p)]
m = [[(i * 13 + j * 7) % 9 - 4 for j in range(300)] for i in range(300)]
for t in range(8):
    p = m[t]
    for i in range(t + 1, 300):
        m[i] = [a - b for a, b in zip(m[i], p)]
simplices = [tuple(range(i, i + 5)) for i in range(4500)]
index = {s[1:]: k for k, s in enumerate(simplices)}
for s in simplices:
    for j in range(len(s)):
        acc += index.get(s[:j] + s[j + 1:], 0) & 1
print(time.perf_counter() - t0)
"""


def steady_process():
    """Pin this process, and so the spawner and every child, to one CPU, and
    switch off address-space randomisation for them (Linux personality flag
    ADDR_NO_RANDOMIZE, inherited by children).  With randomisation on, the
    time of one pure-Python loop varied by 55 % (interquartile range) from
    one process to the next; with it off, by 14 %.  Only this process tree
    is affected."""
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    if sys.platform != "linux":
        return
    personality = ctypes.CDLL(None, use_errno=True).personality
    personality.argtypes = [ctypes.c_ulong]
    personality.restype = ctypes.c_int
    current = personality(0xFFFFFFFF)
    if (current != -1 and not current & ADDR_NO_RANDOMIZE
            and REEXEC_MARK not in os.environ
            and personality(current | ADDR_NO_RANDOMIZE) != -1):
        # the new layout applies from the next exec on; the mark stops a
        # second attempt should the flag not survive the exec
        os.environ[REEXEC_MARK] = "1"
        os.execv(sys.executable, [sys.executable, *sys.argv])


def child_env():
    """The environment of every child: vrhq from this checkout, a fixed hash
    seed, bytecode cached inside the checkout as for an installed package."""
    env = dict(os.environ, PYTHONPATH=SRC, PYTHONHASHSEED="0",
               PYTHONPYCACHEPREFIX=os.path.join(WORKDIR, "pycache"))
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    return env


@dataclass
class Sample:
    wall: float
    cpu: float
    rss_kib: int
    code: int
    out: str
    err: str


class Launcher:
    """Runs `python3 -m vrhq ARGS` through bench/spawn.py and reports its
    wall time and rusage.  Use as a context manager: the spawner is stopped
    and waited for on exit."""

    def __init__(self, deadline):
        self.deadline = deadline
        self.out_path = os.path.join(SCRATCH, "stdout.txt")
        self.err_path = os.path.join(SCRATCH, "stderr.txt")
        self.proc = None

    def __enter__(self):
        self.proc = subprocess.Popen(
            [sys.executable, os.path.join(HERE, "spawn.py")],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True, cwd=SCRATCH,
            env=child_env())
        return self

    def __exit__(self, *exc):
        self.proc.stdin.close()
        try:
            self.proc.wait(timeout=max(1.0, self.deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()
        return False

    def run(self, argv, probe=None):
        """Run `vrhq ARGV`, or with probe set `python3 -c PROBE ARGV`."""
        cmd = [sys.executable, *(("-m", "vrhq") if probe is None else ("-c", probe)), *argv]
        request = {"argv": cmd, "out": self.out_path, "err": self.err_path,
                   "timeout": max(0.0, self.deadline - time.monotonic())}
        self.proc.stdin.write(json.dumps(request) + "\n")
        self.proc.stdin.flush()
        reply = self.proc.stdout.readline()
        checks.expect(reply, "the spawner process died")
        r = json.loads(reply)
        with open(self.out_path, encoding="utf-8") as fh:
            out = fh.read()
        with open(self.err_path, encoding="utf-8") as fh:
            err = fh.read()
        return Sample(r["wall"], r["cpu"], r["maxrss_kib"], r["code"], out, err)

    def calibrate(self):
        s = self.run([], probe=CALIBRATION_PROBE)
        checks.expect(s.code == 0, f"calibration failed: {s.err[-800:]}")
        return float(s.out)


@dataclass
class Pass:
    """Operations measured in sequence, with a calibration before each and
    one after the last."""

    walls: list = field(default_factory=list)
    cpus: list = field(default_factory=list)
    main_s: list = field(default_factory=list)
    calibrations: list = field(default_factory=list)
    rss_kib: int = 0
    attempted: int = 0
    failed: int = 0
    outputs: dict = field(default_factory=dict)

    def factor(self):
        """Host-speed factor: REFERENCE_CALIBRATION_S over the calibration
        time around each operation (the mean of the CALIBRATION_WINDOW
        calibrations on either side), averaged with the operations'
        durations as weights."""
        c, k = self.calibrations, CALIBRATION_WINDOW
        around = [statistics.mean(c[max(0, i + 1 - k):i + 1 + k]) for i in range(len(self.walls))]
        return REFERENCE_CALIBRATION_S * sum(self.walls) / sum(
            w * t for w, t in zip(self.walls, around))


def run_groups(p, groups, rng, execute):
    """Attempt every group, in an order drawn from rng, with execute(argv)
    returning an operation's output, and check each group's outputs.  When
    an operation or a check fails, the group's operations attempted so far
    count as failed and CheckFailed propagates."""
    for group in rng.sample(groups, len(groups)):
        start = p.attempted
        outs = []
        try:
            for argv in group.argvs:
                p.attempted += 1
                outs.append(execute(argv))
                p.outputs[tuple(argv)] = outs[-1]
            p.failed += group.check(outs)
        except checks.CheckFailed:
            p.failed += p.attempted - start
            raise


def cli_pass(groups, rng, launcher, p, probe=None):
    """Fill p with one pass over the groups through the CLI; with MAIN_PROBE
    as probe it also records each child's time in vrhq.cli.main."""
    def execute(argv):
        p.calibrations.append(launcher.calibrate())
        s = launcher.run(argv, probe)
        checks.expect(s.code == 0, f"`vrhq {' '.join(argv)}` exited {s.code}: {s.err[-800:]}")
        p.walls.append(s.wall)
        p.cpus.append(s.cpu)
        p.rss_kib = max(p.rss_kib, s.rss_kib)
        if probe is not None:
            p.main_s.append(float(s.err.rsplit("main_s", 1)[1]))
        return s.out

    run_groups(p, groups, rng, execute)
    p.calibrations.append(launcher.calibrate())
    return p


def inprocess_pass(groups, rng, launcher, package, tracer):
    """The same pass through `vrhq.cli.main` in this process, each operation
    in a `cli.main` span."""
    p = Pass()

    def execute(argv):
        p.calibrations.append(launcher.calibrate())
        buf = io.StringIO()
        tracer.op += 1
        span = tracer.begin("cli.main", argv=argv)
        with contextlib.redirect_stdout(buf):
            code = package.cli.main(argv)
        tracer.end(span)
        p.walls.append(span["end"] - span["start"])
        checks.expect(code == 0, f"in-process `vrhq {' '.join(argv)}` returned {code}")
        return buf.getvalue()

    run_groups(p, groups, rng, execute)
    p.calibrations.append(launcher.calibrate())
    return p


def median_launch(launcher, argv, count, probe=None):
    """Median time of `count` launches, scaled by the mean calibration
    between them; with a probe the time is the one the child prints."""
    launcher.run(argv, probe)  # compiles bytecode on a fresh checkout
    times, cals = [], []
    for _ in range(count):
        cals.append(launcher.calibrate())
        s = launcher.run(argv, probe)
        checks.expect(s.code == 0, f"launch failed: {s.err[-800:]}")
        times.append(s.wall if probe is None else float(s.out))
    cals.append(launcher.calibrate())
    return statistics.median(times) * REFERENCE_CALIBRATION_S / statistics.mean(cals)


def order(name, seed):
    return random.Random(f"order:{name}:{seed}")


def run_untraced(name, seed, seconds, launcher, passes):
    setup_s = median_launch(launcher, ["--version"], SETUP_LAUNCHES)
    groups = workloads.build(name, seed, SCRATCH)
    rng = order(name, seed)
    t_start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        passes.append(Pass())
        cli_pass(groups, rng, launcher, passes[-1])
        took = time.perf_counter() - t0
        if time.perf_counter() - t_start + took > seconds:
            break
    for p in passes:
        log(f"{name}: pass wall {sum(p.walls):.3f} s raw, host-speed factor {p.factor():.4f}")
    return {
        "wall_s": (statistics.median(sum(p.walls) * p.factor() for p in passes), "s"),
        "cpu_s": (statistics.median(sum(p.cpus) * p.factor() for p in passes), "s"),
        "peak_rss_mib": (statistics.median(p.rss_kib / 1024 for p in passes), "MiB"),
        "setup_s": (setup_s, "s"),
    }


@dataclass
class TracedPass:
    """One workload's traced in-process pass: the pass, the span ids it
    recorded and the time the tracer spent reading counts in it."""

    p: Pass
    spans: range
    counts_s: float


class Traced:
    """The traced in-process passes of one invocation, each workload traced
    at most once."""

    def __init__(self, seed, launcher):
        sys.path.insert(0, SRC)
        import vrhq.cli  # noqa: F401  (loads every layer module)
        self.package = sys.modules["vrhq"]
        self.seed = seed
        self.launcher = launcher
        self.tracer = tracing.Tracer()
        self.wrapper_s = tracing.wrapper_cost()
        self.passes = {}

    def workload(self, name, cli_outputs=None):
        """Trace one pass of the workload (once), and check that the Betti
        numbers composed from the layer calls of each homology operation
        equal those the CLI printed, in process and in cli_outputs."""
        if name in self.passes:
            return self.passes[name]
        tracer = self.tracer
        first, counts_s = len(tracer.spans), tracer.counts_s
        with tracing.Patched(tracer, self.package):
            p = inprocess_pass(workloads.build(name, self.seed, SCRATCH), order(name, self.seed),
                               self.launcher, self.package, tracer)
        t = TracedPass(p, range(first, len(tracer.spans)), tracer.counts_s - counts_s)
        self.passes[name] = t
        self.check_betti(t, p.outputs)
        if cli_outputs is not None:
            self.check_betti(t, cli_outputs)
        return t

    def check_betti(self, t, outputs):
        for s in (self.tracer.spans[i] for i in t.spans):
            argv = s["name"] == "cli.main" and s["argv"]
            if not argv or argv[0] != "homology" or tuple(argv) not in outputs:
                continue
            composed = tracing.composed_betti(self.tracer.spans, s["op"],
                                              int(argv[argv.index("--up-to") + 1]))
            printed = json.loads(outputs[tuple(argv)])["result"]["reduced_betti"]
            checks.expect(composed == printed,
                          f"Betti numbers composed from the layer calls {composed} "
                          f"differ from `vrhq {' '.join(argv)}` {printed}")

    def layer_metrics(self):
        scale = {i: t.p.factor() for t in self.passes.values() for i in t.spans}
        return tracing.layer_metrics(self.tracer.spans, scale)


def run_traced(name, seed, launcher, passes, traced):
    """One CLI pass of the workload through MAIN_PROBE, then its traced
    in-process pass; returns the metrics that depend on the workload."""
    passes.append(Pass())
    cli = cli_pass(workloads.build(name, seed, SCRATCH), order(name, seed), launcher,
                   passes[-1], probe=MAIN_PROBE)
    t = traced.workload(name, cli.outputs)
    # what tracing added to the traced pass: the wrappers and the counts
    added = traced.wrapper_s * len(t.spans) + t.counts_s
    return {
        "cli.overhead_s": (sum(w - m for w, m in zip(cli.walls, cli.main_s)) * cli.factor(), "s"),
        "trace.overhead_pct": (100.0 * added / (sum(t.p.walls) - added), "%"),
    }


def log(message):
    print(message, file=sys.stderr, flush=True)


def result_line(correct, attempted, failed, metrics):
    return json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                       "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}})


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=[*workloads.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "vrhq", "__init__.py")):
        log(f"vrhq sources not found under {SRC}; run from a checkout of the repository")
        return 2
    steady_process()
    os.makedirs(SCRATCH, exist_ok=True)
    try:
        return run(args)
    finally:
        shutil.rmtree(SCRATCH, ignore_errors=True)


def run(args):
    names = list(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    results = {}
    with Launcher(time.monotonic() + RUN_DEADLINE_S * len(names)) as launcher:
        traced = None
        if args.trace:
            traced = Traced(args.seed, launcher)
        for name in names:
            passes = []
            try:
                if args.trace:
                    metrics = run_traced(name, args.seed, launcher, passes, traced)
                else:
                    metrics = run_untraced(name, args.seed, args.seconds, launcher, passes)
                correct = True
            except checks.CheckFailed as exc:
                log(f"{name}: wrong output: {exc}")
                correct, metrics = False, {}
            results[name] = [correct, sum(p.attempted for p in passes),
                             sum(p.failed for p in passes), metrics]

        if traced is not None and all(r[0] for r in results.values()):
            # every layer metric is a total over one traced pass of each workload
            try:
                for name in workloads.WORKLOADS:
                    traced.workload(name)
                shared = traced.layer_metrics()
                shared["cli.import_s"] = (
                    median_launch(launcher, [], IMPORT_LAUNCHES, probe=IMPORT_PROBE), "s")
            except checks.CheckFailed as exc:
                log(f"traced pass: wrong output: {exc}")
                for r in results.values():
                    r[0], r[3] = False, {}
            else:
                for r in results.values():
                    r[3] = {**shared, **r[3]}
            trace_path = os.path.join(WORKDIR, f"trace-{args.workload}-{args.seed}.json")
            with open(trace_path, "w", encoding="utf-8") as fh:
                json.dump(traced.tracer.spans, fh)
            log(f"{len(traced.tracer.spans)} spans written to {trace_path}")

    for name, (correct, attempted, failed, metrics) in results.items():
        log(f"{name}: correct {correct}, attempted {attempted}, failed {failed}")
        for key, (value, unit) in metrics.items():
            log(f"  {key:32s} {value:14.6g} {unit}")
    if args.workload == "all":
        print(json.dumps({name: json.loads(result_line(*r)) for name, r in results.items()}))
    else:
        print(result_line(*results[args.workload]))
    return 0 if all(r[0] for r in results.values()) else 1


if __name__ == "__main__":
    raise SystemExit(main())
