"""Benchmark of starorder: three workloads, end-to-end and traced metrics.

    python3 perfbench/run.py --workload verify_matrix --seed 1 --seconds 30 --trace 0

Run from the root of a starorder checkout; the program is imported from
./src and nowhere else. The last line of standard output is one JSON
object: {"correct", "attempted", "failed", "metrics"}. With --trace 0 the
metrics are the end-to-end ones, with --trace 1 the per-layer ones from a
traced run (see README.md in this directory).
"""

import os

# one thread in all: BLAS must not start its own pool (set before numpy loads)
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

import hostspeed  # noqa: E402

# starorder's heaviest import is numpy's; it can load only once per process
with hostspeed.Block("py") as _numpy_import:
    import numpy  # noqa: E402, F401

import layers  # noqa: E402
import workloads  # noqa: E402

ROOT = Path.cwd()
SO_MODULES = ("errors", "numerics", "observables", "axioms", "models", "poset", "sampling", "cli")
IMPORT_REPEATS = 3
TRACE_ROUNDS = {"verify_matrix": 3, "verify_finite": 1, "ops_dims": 2}


class Program:
    """The starorder modules, imported afresh from ./src."""

    def __init__(self):
        for name in [m for m in sys.modules if m == "starorder" or m.startswith("starorder.")]:
            del sys.modules[name]
        importlib.import_module("starorder")
        for m in SO_MODULES:
            setattr(self, m, importlib.import_module(f"starorder.{m}"))
        self.package = sys.modules["starorder"]


def import_program():
    src = ROOT / "src"
    if not (src / "starorder" / "__init__.py").is_file():
        sys.exit(f"error: no starorder sources under {src}; run from the root of a checkout")
    sys.path.insert(0, str(src))
    times, prog = [], None
    for _ in range(IMPORT_REPEATS):
        with hostspeed.Block("py") as blk:
            prog = Program()
        times.append(blk.seconds)
    origin = Path(prog.package.__file__).resolve()
    if src.resolve() not in origin.parents:
        sys.exit(f"error: starorder was imported from {origin}, not from {src}")
    return prog, statistics.median(times)


def verdict(results):
    problems = [p for res in results for p in res.problems]
    for p in problems[:20]:
        print(f"check failed: {p}", file=sys.stderr)
    return {"correct": not problems,
            "attempted": sum(res.ops for res in results),
            "failed": sum(res.failed for res in results)}


def end_to_end(results, preps, import_s):
    rates = [res.work / res.seconds for res in results]
    setup = import_s + statistics.median(preps)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return {
        "setup_s": {"value": setup, "unit": "s"},
        "peak_rss_mb": {"value": rss_mb, "unit": "MiB"},
        "ops_per_s": {"value": statistics.median(rates), "unit": "1/s"},
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    prog, import_s = import_program()
    wl = workloads.WORKLOADS[args.workload](prog, ROOT, args.seed)

    if args.trace:
        metrics, results = layers.traced_run(prog, wl, TRACE_ROUNDS[args.workload])
    else:
        results, preps = workloads.run_rounds(wl, args.seconds)
        rounds = [[res.work, round(res.seconds, 4), round(res.raw_seconds, 4)] for res in results]
        print(f"rounds (work, seconds at nominal speed, seconds as measured): {json.dumps(rounds)}", file=sys.stderr)
        metrics = end_to_end(results, preps, _numpy_import.seconds + import_s)
    out = verdict(results)
    out["metrics"] = metrics
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
