"""Record the quality references the benchmark's output check compares with.

    python3 perfbench/record.py --workload replay-10x2 --seeds 0 1 2

For each workload seed this runs set-up and one operation, with no reference
to compare against, and stores FAA, forgetting and first-task precision per
training seed in ``perfbench/reference.json``. Re-record only when a change
is meant to alter results, and say so in the change.
"""
import argparse
import json
import os
import sys

import run


def main(argv=None):
    import workloads as W
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(W.WORKLOADS))
    parser.add_argument("--seeds", type=int, nargs="+", required=True)
    args = parser.parse_args(argv)
    wl = W.WORKLOADS[args.workload]
    ref = W.load_reference()
    out = os.path.join(run.OUT_ROOT, f"record-{wl.name}-{os.getpid()}")

    def no_reference(i, q):
        return []

    for seed in args.seeds:
        ctx = W.setup(wl, seed, out)
        quality, problems = W.prepare(wl, ctx, no_reference)
        if not wl.serve:
            res = W.op(wl, ctx, no_reference)
            quality, problems = res.quality, problems + res.problems
        if problems:
            raise SystemExit(f"{wl.name} seed {seed}: {problems}")
        ref["workloads"][wl.name]["seeds"][str(seed)] = quality
        print(wl.name, seed, json.dumps(quality), flush=True)
    run.remove_out(out)
    with open(W.REFERENCE_PATH, "w") as f:
        json.dump(ref, f, indent=1, sort_keys=True)
        f.write("\n")
    return 0


if __name__ == "__main__":
    run.load_package()
    sys.exit(main())
