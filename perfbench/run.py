"""Run one workload of the agglab benchmark and print its metrics.

    python3 perfbench/run.py --workload triangles-small --seed 1 --seconds 20 --trace 0

Run it from the root of a source tree: the program is imported from
./src. The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics. --trace 0 reports the end-to-end
metrics; --trace 1 wraps agglab's entry points in spans, reports the
per-layer metrics and writes the spans to perfbench/out/. Failed checks
and a one-line summary go to standard error. The exit code is 0 when
every check passed, 1 when one failed and 2 when the sources are missing.
"""

import argparse
import json
import os
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"


def parse_args(argv, workloads):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if args.seconds < 1:
        parser.error("--seconds must be >= 1")
    return args


def main(argv=None):
    if not (SRC / "agglab" / "__init__.py").is_file():
        print(f"perfbench: no agglab sources at {SRC}", file=sys.stderr)
        return 2
    # One process, one BLAS thread: the load is the same on any core count
    # and the measurements do not depend on how BLAS splits small products.
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    sys.path.insert(0, str(SRC))
    import bench

    args = parse_args(argv, sorted(bench.WORKLOADS))
    w = bench.WORKLOADS[args.workload]
    trace_path = HERE / "out" / f"trace-{w.name}-{args.seed}.json"
    result, failures = bench.run(w, args.seed, args.seconds, args.trace, trace_path)
    for line in failures:
        print(f"perfbench: check failed: {line}", file=sys.stderr)
    metrics = ", ".join(f"{k} {v['value']:.6g} {v['unit']}"
                        for k, v in result["metrics"].items())
    print(f"perfbench: {w.name} seed {args.seed}: attempted {result['attempted']}, "
          f"{len(failures)} failed checks; {metrics}", file=sys.stderr)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
