"""Self-test of the benchmark's determinism and metric names.

    python3 perfbench/selftest.py [--workload glue ...]

Checks, for every workload:

- the same seed gives an identical job list, also across interpreters
  with different hash seeds;
- a different seed gives a different job list;
- every count metric (unit ``count``, ``bytes`` or ``ratio``) of two traced
  runs of one seed is exactly equal, so a later change may name a count as
  a claim;
- the metrics a run prints are exactly those BENCHMARK.json lists.

Exits 1 and names each failed check; takes a few minutes.
"""

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
NAMES = ("glue", "points", "monoid", "cli")
EXACT_UNITS = ("count", "bytes", "ratio")


def bench(*args, hash_seed="0"):
    env = dict(os.environ, PYTHONHASHSEED=hash_seed)
    proc = subprocess.run([sys.executable, str(HERE / "run.py")] + list(args),
                          cwd=str(ROOT), env=env, capture_output=True,
                          text=True, check=True)
    return proc.stdout.strip().splitlines()[-1]


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", action="append", choices=NAMES)
    args = parser.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    end_to_end = sorted(m["name"] for m in spec["end_to_end"])
    per_layer = sorted(m["name"] for m in spec["per_layer"])
    failures = []

    def check(ok, what):
        print("%s  %s" % ("ok  " if ok else "FAIL", what), flush=True)
        if not ok:
            failures.append(what)

    for name in args.workload or NAMES:
        one = bench("--workload", name, "--seed", "3", "--list-jobs", "2")
        again = bench("--workload", name, "--seed", "3", "--list-jobs", "2",
                      hash_seed="12345")
        other = bench("--workload", name, "--seed", "4", "--list-jobs", "2")
        check(one == again, "%s: seed 3 gives one job list" % name)
        check(one != other, "%s: seeds 3 and 4 give different job lists" % name)

        plain = json.loads(bench("--workload", name, "--seed", "3",
                                 "--seconds", "1", "--trace", "0"))
        check(sorted(plain["metrics"]) == end_to_end,
              "%s: --trace 0 prints exactly the end-to-end metrics" % name)
        check(plain["correct"] and plain["failed"] == 0,
              "%s: every job of the untraced run is correct" % name)
        runs = [json.loads(bench("--workload", name, "--seed", "3",
                                 "--seconds", "1", "--trace", "1"))
                for _ in range(2)]
        check(sorted(runs[0]["metrics"]) == per_layer,
              "%s: --trace 1 prints exactly the per-layer metrics" % name)
        counts = [{k: v["value"] for k, v in run["metrics"].items()
                   if v["unit"] in EXACT_UNITS} for run in runs]
        differ = sorted(k for k in counts[0] if counts[0][k] != counts[1].get(k))
        check(counts[0] and not differ,
              "%s: %d count metrics repeat exactly across two traced runs%s"
              % (name, len(counts[0]),
                 " (differ: %s)" % ", ".join(differ) if differ else ""))
    if failures:
        print("%d check(s) failed" % len(failures))
        return 1
    print("all checks passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
