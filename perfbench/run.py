#!/usr/bin/env python3
"""The repo benchmark: one workload per invocation, one JSON result line.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload batch --seed 1 --seconds 15 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off;
``--trace 1`` is the separate traced run that reports the per-layer
metrics.  Standard output carries an environment header line, a details
line and, last, ``{"correct", "attempted", "failed", "metrics"}``.  The
exit code is non-zero when a correctness check fails (the result line
then says ``"correct": false``) and when the run cannot start at all.

See ``perfbench/README.md`` for the workloads and every metric.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys

import common
from tracing import PER_LAYER

WORKLOADS = ("batch", "probe-zm", "probe-e8", "serve")

#: End-to-end metrics and units, in report order.
END_TO_END = (("setup_s", "s"), ("qps", "1/s"), ("recall_at_10", "frac"),
              ("query_p50_ms", "ms"), ("query_p90_ms", "ms"),
              ("closed_rps", "1/s"),
              ("answered_frac", "frac"), ("peak_rss_mb", "MB"))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    root = common.ROOT
    if not os.path.isfile(os.path.join(root, "src", "repro", "__init__.py")):
        print(f"error: no repro sources under {root}/src", file=sys.stderr)
        return 2
    scratch = os.path.join(root, ".bench_build")
    # Everything the program writes (the compiled kernels, temp files)
    # stays inside the checkout.
    os.environ["REPRO_NATIVE_CACHE"] = os.path.join(scratch, "native")
    os.environ["TMPDIR"] = os.path.join(scratch, "tmp")
    os.makedirs(os.environ["TMPDIR"], exist_ok=True)
    # The bounds were measured on the C kernels, and the span wrappers
    # in tracing.py wrap that backend; numba, when installed, would
    # otherwise be preferred.  The server subprocess inherits the pin.
    os.environ["REPRO_NATIVE_BACKEND"] = "cext"
    sys.path.insert(0, os.path.join(root, "src"))

    print(json.dumps({"env": common.environment()}), flush=True)
    traced = bool(args.trace)
    if args.workload == "serve":
        import serve

        values, details, problems, attempted, failed = serve.run(
            args.seed, args.seconds, traced)
    else:
        import inproc

        values, details, problems, attempted, failed = inproc.run(
            common.IN_PROCESS[args.workload], args.seed, args.seconds,
            traced)
    units = PER_LAYER if traced else END_TO_END
    for name, _ in units:
        if not math.isfinite(values[name]):
            problems.append(f"{name} was not measured")
            values[name] = 0.0
    details["problems"] = problems
    print(json.dumps({"details": details}, default=str), flush=True)
    for problem in problems:
        print(f"correctness: {problem}", file=sys.stderr)
    result = {
        "correct": not problems,
        "attempted": int(attempted),
        "failed": int(failed),
        "metrics": {name: {"value": float(values[name]), "unit": unit}
                    for name, unit in units},
    }
    print(json.dumps(result), flush=True)
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
