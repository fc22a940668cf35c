"""Benchmark of whamkit: one workload per invocation.

    python3 perfbench/run.py --workload train_desk --seed 1 --seconds 20 --trace 0

Run from the root of a checkout. The program is imported from ./src, in
this process, with one BLAS thread. The last line of standard output is a
JSON object with `correct`, `attempted`, `failed` and `metrics`: the
end-to-end metrics with --trace 0, the per-layer metrics with --trace 1.
The traced run also writes its spans to .perfbench_runs/. See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
RUNS = os.path.join(ROOT, ".perfbench_runs")

# One BLAS thread, fixed before numpy is first imported.
os.environ["WHAMKIT_THREADS"] = "1"
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("train_desk", "train_b64", "eval_split"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "whamkit", "__init__.py")):
        print(f"error: no whamkit sources under {SRC}", file=sys.stderr)
        return 2
    sys.path[:0] = [SRC, HERE]
    import whamkit
    if os.path.dirname(os.path.dirname(os.path.abspath(whamkit.__file__))) != SRC:
        print(f"error: whamkit was imported from {whamkit.__file__}", file=sys.stderr)
        return 2
    import workloads

    tracer = None
    if args.trace:
        import spans
        tracer = spans.Tracer()
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    workdir = os.path.join(RUNS, f"{name}-pid{os.getpid()}")
    os.makedirs(workdir)
    try:
        run = workloads.Run(workdir, tracer)
        workloads.WORKLOADS[args.workload](args.seed, args.seconds, run)
        result = run.result()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    for problem in run.problems:
        print(f"check failed: {problem}", file=sys.stderr)
    if tracer is not None:
        path = os.path.join(RUNS, f"trace-{name}.json")
        tracer.write(path, {"workload": args.workload, "seed": args.seed,
                            "metrics": result["metrics"]})
        print(f"trace written to {path}")
        for span, entry in sorted(tracer.summary().items(), key=lambda kv: -kv[1]["self_s"]):
            print(f"  {span:28s} calls {entry['calls']:7d}  total {entry['total_s']:9.3f} s"
                  f"  self {entry['self_s']:9.3f} s")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
