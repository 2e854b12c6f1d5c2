"""Record the byte-identity guard: a digest of every job's output.

    python3 perfbench/record_digests.py --seeds 1-10

For each workload and seed this runs the first passes' job lists untimed
and stores, per pass, the comma-joined digests of the jobs' sorted-key JSON
output (for ``cli``, of the command's standard output, produced through
``cli.main`` in this process; a subprocess prints the same bytes).  The
benchmark counts a job whose digest differs as failed, so a change that
alters any answer on a recorded seed shows up as ``failed > 0``.  Record
again only when the answers are meant to change, and say so.
"""

import argparse
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

# passes recorded per seed: what a --seconds 30 run reaches on a 2-core
# x86-64 container, with some headroom; later passes run unguarded (their
# facts are still checked).  Every cli pass replays pass 0.
PASSES = {"glue": 3, "points": 24, "monoid": 5, "cli": 1}


def seed_list(text):
    out = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        out.extend(range(int(lo), int(hi or lo) + 1))
    return out


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seeds", type=seed_list, required=True,
                        help="seeds to record, e.g. 1-10 or 0,3,7")
    parser.add_argument("--workload", action="append",
                        help="workloads to record (default: all)")
    args = parser.parse_args()
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    import run
    import workloads
    path = HERE / "digests.json"
    stored = json.loads(path.read_text()) if path.is_file() else {}
    for name in args.workload or workloads.NAMES:
        workload = workloads.make(name, ROOT, run.child_env())
        call = workload.run_in_process if name == "cli" else workload.run
        for seed in args.seeds:
            state = workload.setup(seed)
            passes = []
            try:
                for pass_index in range(PASSES[name]):
                    digests = []
                    for job in workload.jobs(seed, pass_index):
                        _, output, problems = call(state, job)
                        if problems:
                            raise SystemExit("%s seed %d pass %d: %s"
                                             % (name, seed, pass_index, problems))
                        digests.append(workloads.digest(output))
                    passes.append(",".join(digests))
            finally:
                workload.teardown(state)
            stored.setdefault(name, {})[str(seed)] = passes
            path.write_text(json.dumps(stored, indent=1, sort_keys=True) + "\n")
            print("recorded %s seed %d (%d passes)" % (name, seed, len(passes)),
                  flush=True)


if __name__ == "__main__":
    main()
