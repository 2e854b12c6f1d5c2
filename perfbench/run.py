"""prevtrop benchmark: seeded closed-loop workloads with checked outputs.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload glue --seed 1 --seconds 30 --trace 0

One client runs the workload's job list back to back (a closed loop), pass
after pass, each pass with fresh seeded inputs, until the next pass would
overrun ``--seconds``.  Every job's output is checked against facts from
the generated data and against the stored digest of that seed, pass and
job when ``perfbench/digests.json`` has one.  The last line of standard
output is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics`` (the end-to-end metrics with ``--trace 0``, the per-layer
metrics with ``--trace 1``).

Every time the benchmark reports is corrected for the speed of the host.
A fixed probe runs before and after each timed job or command, and the
job's time is scaled by the probe's reference time over the mean of those
two probe times (see ``Gauge``).  In-process jobs are gauged by a slice of
pure-Python exact arithmetic, whole processes by a bare interpreter start.
On a shared host whose speed drifts by tens of percent within seconds,
this keeps the figures steady while still moving one for one with the
library's own cost.  See perfbench/README.md.
"""

import argparse
import gc
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUP_REPEATS = 9
MAX_PASSES = 200


class Gauge:
    """A probe of host speed and its median time on the reference machine
    (a 2-vCPU x86-64 VM), so corrected times read as seconds there."""

    def __init__(self, read, reference):
        self.read = read
        self.reference = reference

    def correct(self, elapsed, before, after):
        """``elapsed`` scaled to the reference host speed, from the probe
        times taken just before and just after it."""
        return elapsed * 2 * self.reference / (before + after)


def arithmetic_time():
    """Time a fixed slice of exact arithmetic: Fraction elimination on a 7x7
    matrix plus tuple-keyed dict updates, the library's staple operations.
    The garbage collector is held off so the time depends on the host only."""
    gc.disable()
    try:
        start = time.perf_counter()
        n = 7
        rows = [[Fraction((7 * i + 3 * j) % 11 + 5 * (i == j), 1 + (i + j) % 3)
                 for j in range(n)] for i in range(n)]
        for c in range(n):
            p = next(r for r in range(c, n) if rows[r][c])
            rows[c], rows[p] = rows[p], rows[c]
            for r in range(n):
                if r != c and rows[r][c]:
                    f = rows[r][c] / rows[c][c]
                    rows[r] = [a - f * b for a, b in zip(rows[r], rows[c])]
        counts = {}
        for i in range(3000):
            key = (i % 97, i % 13)
            counts[key] = counts.get(key, 0) + i
        return time.perf_counter() - start
    finally:
        gc.enable()


def interpreter_time(env):
    """Time a bare ``python -c pass``.  A timed process spends much of its
    life in process start-up, whose speed drifts unlike pure arithmetic."""
    start = time.perf_counter()
    subprocess.run([sys.executable, "-c", "pass"], env=env, check=True)
    return time.perf_counter() - start


ARITHMETIC = Gauge(arithmetic_time, 0.002)


def process_gauge(env):
    return Gauge(lambda: interpreter_time(env), 0.05)


def child_env():
    env = dict(os.environ)
    extra = env.get("PYTHONPATH")
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + extra if extra else "")
    return env


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("glue", "points", "monoid", "cli"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spans", metavar="FILE",
                        help="with --trace 1, also write the first traced "
                             "pass's spans to FILE as JSON lines")
    parser.add_argument("--setup-only", action="store_true",
                        help="set the workload up once and exit (used to "
                             "time setup_s in fresh interpreters)")
    parser.add_argument("--list-jobs", type=int, metavar="PASSES",
                        help="print the job lists of the first PASSES passes "
                             "as JSON and exit")
    return parser.parse_args(argv)


def quantile(values, q):
    """Nearest-rank quantile of a non-empty list."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * q // 1))
    return ordered[int(rank) - 1]


class Runner:
    """Runs passes of one workload and keeps what the metrics need."""

    def __init__(self, workload, seed, digests, digest, gauge=ARITHMETIC):
        self.workload = workload
        self.gauge = gauge
        self.seed = seed
        self.digest = digest
        self.digests = digests.get(workload.name, {}).get(str(seed), [])
        self.attempted = 0
        self.failed = 0
        self.guarded = 0
        self.problems = []
        self.latencies = []
        self.by_kind = {}
        self.bytes_out = []
        self.raw = []
        self.scales = []

    def golden(self, pass_index):
        if self.workload.name == "cli":
            pass_index = 0          # every cli pass replays one document set
        if pass_index < len(self.digests):
            return self.digests[pass_index].split(",")
        return None

    def run_pass(self, state, pass_index, call=None, tracer=None):
        """Run one pass; returns its corrected wall time (the sum of its
        corrected job latencies)."""
        call = call or self.workload.run
        gauge = self.gauge
        jobs = self.workload.jobs(self.seed, pass_index)
        golden = self.golden(pass_index)
        wall = raw = 0.0
        out_bytes = 0
        before = gauge.read()
        for index, job in enumerate(jobs):
            if tracer is not None:
                tracer.job = index
            start = time.perf_counter()
            try:
                elapsed, output, problems = call(state, job)
            except Exception as err:  # a raising job is a counted failure
                elapsed = time.perf_counter() - start
                output, problems = None, ["raised %s: %s"
                                          % (type(err).__name__, err)]
            if golden is not None and output is not None:
                self.guarded += 1
                if index >= len(golden):
                    problems = problems + ["no digest stored for job"]
                elif self.digest(output) != golden[index]:
                    problems = problems + ["output digest changed"]
            if isinstance(output, bytes):
                out_bytes += len(output)
            after = gauge.read()
            raw += elapsed
            elapsed = gauge.correct(elapsed, before, after)
            before = after
            wall += elapsed
            self.latencies.append(elapsed)
            self.by_kind.setdefault(job["kind"], []).append(elapsed)
            self.attempted += 1
            if problems:
                self.failed += 1
                if len(self.problems) < 10:
                    self.problems.append("pass %d job %d (%s): %s"
                                         % (pass_index, index, job["kind"],
                                            "; ".join(problems)))
        self.bytes_out.append(out_bytes)
        self.raw.append(raw)
        self.scales.append(wall / raw if raw else 1.0)
        return wall


def warm_up(workload, state, seed):
    """The one-time cost a user pays before the first real job."""
    if workload.name in ("glue", "monoid"):
        jobs = workload.jobs(seed, 0)
        workload.run(state, min(jobs, key=lambda j: len(json.dumps(j))))


def timed_median(cmd, repeats, env, gauge):
    """Median corrected wall time of running a command to completion, in
    seconds."""
    samples = []
    before = gauge.read()
    for _ in range(repeats):
        start = time.perf_counter()
        subprocess.run(cmd, cwd=str(ROOT), env=env, check=True,
                       stdout=subprocess.DEVNULL)
        elapsed = time.perf_counter() - start
        after = gauge.read()
        samples.append(gauge.correct(elapsed, before, after))
        before = after
    return statistics.median(samples)


def cli_figures(workloads, seed, env, runner=None):
    """Per-layer cli figures, measured from this process.

    With a cli runner, per-command latencies come from its passes; otherwise
    one call of every subcommand is made on the cli workload's documents.
    """
    gauge = process_gauge(env)
    # the bare interpreter start is the process gauge's own probe, so it is
    # gauged by arithmetic instead
    out = {"cli.interpreter_ms": (
               1000 * timed_median([sys.executable, "-c", "pass"], 5, env,
                                   ARITHMETIC), "ms"),
           "cli.startup_ms": (
               1000 * timed_median([sys.executable, "-m", "prevtrop.cli",
                                    "--help"], 5, env, gauge), "ms")}
    if runner is None:
        cli = workloads.make("cli", ROOT, env)
        state = cli.setup(seed)
        try:
            runner = Runner(cli, seed, {}, workloads.digest, gauge)
            jobs = cli.jobs(seed, 0)
            # the first grading's proj/validate/omega/separated chain, then
            # the first call of every other subcommand
            calls = jobs[:4]
            for job in jobs[4:]:
                if job["kind"] not in {j["kind"] for j in calls}:
                    calls.append(job)
            size = 0
            before = gauge.read()
            for job in calls:
                elapsed, output, problems = cli.run(state, job)
                if problems:
                    raise RuntimeError("cli calls failed: %s" % problems)
                after = gauge.read()
                runner.by_kind.setdefault(job["kind"], []).append(
                    gauge.correct(elapsed, before, after))
                before = after
                size += len(output)
            runner.bytes_out.append(size)
        finally:
            cli.teardown(state)
    for command in workloads.CLI_COMMANDS:
        out["cli.%s.p50_ms" % command] = (
            1000 * statistics.median(runner.by_kind[command]), "ms")
    out["cli.bytes_out"] = (runner.bytes_out[0], "bytes")
    return out


def run_untraced(args, workload, state, runner):
    passes = []
    spent = []
    begin = time.perf_counter()
    for pass_index in range(MAX_PASSES):
        start = time.perf_counter()
        passes.append(runner.run_pass(state, pass_index))
        spent.append(time.perf_counter() - start)
        if time.perf_counter() - begin + statistics.median(spent) > args.seconds:
            break
    return passes


def run_traced(args, workloads, tracer_mod, workload, state, runner, env):
    """Alternate an untraced and a traced run of each pass's job list."""
    metrics = {}
    begin = time.perf_counter()
    if workload.name == "cli":
        run_untraced(args, workload, state, runner)
        metrics.update(cli_figures(workloads, args.seed, env, runner))
        call = workload.run_in_process
        runner.gauge = ARITHMETIC       # the replay runs in this process
        passes_to_trace = 1
    else:
        metrics.update(cli_figures(workloads, args.seed, env))
        call = None
        passes_to_trace = MAX_PASSES
    untraced, traced, layer = [], [], []
    spent = []
    for pass_index in range(passes_to_trace):
        start = time.perf_counter()
        untraced.append(runner.run_pass(state, pass_index, call))
        tracer = tracer_mod.Tracer()
        tracer.install()
        try:
            traced.append(runner.run_pass(state, pass_index, call, tracer))
        finally:
            tracer.uninstall()
        # span times are raw; scale them by the traced pass's correction
        scale = runner.scales[-1]
        layer.append({name: (value * scale if unit == "s" else value, unit)
                      for name, (value, unit)
                      in tracer_mod.layer_metrics(tracer).items()})
        if pass_index == 0:
            metrics["trace.spans"] = (len(tracer.spans), "count")
            if args.spans:
                write_spans(args.spans, tracer)
        spent.append(time.perf_counter() - start)
        if time.perf_counter() - begin + statistics.median(spent) > args.seconds:
            break
    for name, (value, unit) in layer[0].items():
        if unit == "s":
            value = statistics.median(m[name][0] for m in layer)
        metrics[name] = (value, unit)
    metrics["trace.overhead_ratio"] = (
        statistics.median(traced) / statistics.median(untraced), "x")
    return metrics


def write_spans(path, tracer):
    with open(path, "w", encoding="utf-8") as handle:
        for k, (name, start, end, parent, job) in enumerate(tracer.spans):
            handle.write(json.dumps({"id": k, "name": name, "start": start,
                                     "end": end, "parent": parent,
                                     "job": job}) + "\n")


def main(argv=None):
    args = parse_args(sys.argv[1:] if argv is None else argv)
    if not (SRC / "prevtrop" / "__init__.py").is_file():
        print("error: no prevtrop sources under %s; run from the root of a "
              "prevtrop checkout" % SRC, file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    import workloads
    env = child_env()
    workload = workloads.make(args.workload, ROOT, env)

    if args.list_jobs is not None:
        print(json.dumps([workload.jobs(args.seed, k)
                          for k in range(args.list_jobs)], sort_keys=True))
        return 0
    if args.setup_only:
        state = workload.setup(args.seed)
        try:
            warm_up(workload, state, args.seed)
        finally:
            workload.teardown(state)
        return 0

    digest_file = HERE / "digests.json"
    digests = json.loads(digest_file.read_text()) if digest_file.is_file() else {}
    runner = Runner(workload, args.seed, digests, workloads.digest,
                    process_gauge(env) if args.workload == "cli" else ARITHMETIC)
    if not args.trace:
        # setup_s: fresh interpreters that each set the workload up once
        setup_s = timed_median(
            [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
             "--seed", str(args.seed), "--setup-only"], SETUP_REPEATS, env,
            process_gauge(env))
    state = workload.setup(args.seed)
    try:
        warm_up(workload, state, args.seed)
        if args.trace:
            import tracer
            metrics = run_traced(args, workloads, tracer, workload, state,
                                 runner, env)
        else:
            passes = run_untraced(args, workload, state, runner)
            who = resource.RUSAGE_CHILDREN if args.workload == "cli" \
                else resource.RUSAGE_SELF
            raw_wall = statistics.median(runner.raw)
            metrics = {
                "wall_s": (statistics.median(passes), "s"),
                "job_p50_ms": (1000 * statistics.median(runner.latencies), "ms"),
                "job_p90_ms": (1000 * quantile(runner.latencies, 0.9), "ms"),
                "setup_s": (setup_s, "s"),
                "peak_rss_mb": (resource.getrusage(who).ru_maxrss / 1024, "MB"),
            }
    finally:
        workload.teardown(state)

    for line in runner.problems:
        print("FAILED %s" % line, file=sys.stderr)
    print("workload %s seed %d: %d jobs, %d failed (failed_ratio %.4f), "
          "%d checked against stored digests"
          % (args.workload, args.seed, runner.attempted, runner.failed,
             runner.failed / max(1, runner.attempted), runner.guarded))
    for name, (value, unit) in sorted(metrics.items()):
        print("  %-40s %14.6f %s" % (name, value, unit))
    if not args.trace:
        print("  (uncorrected median pass wall %.6f s)" % raw_wall)
    print(json.dumps({
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in sorted(metrics.items())},
    }, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
