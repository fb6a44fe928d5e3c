#!/usr/bin/env python3
"""The locround benchmark: seeded workloads solved in-process and verified.

Run from the root of a source checkout; the package is imported from
``src/`` and nothing is built or installed:

    python3 perfbench/run.py --workload mis-local --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --smoke        # every workload at toy size

``harness.py`` says what a run measures, ``workloads.py`` what each workload
solves and verifies, ``tracing.py`` which layer boundaries a traced run
wraps.  The last line of standard output is the result JSON; metric names
and units come from ``BENCHMARK.json``.  A record with every sample, the
digests, the environment and (traced runs) all spans is written to
``perfbench/results/``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RESULTS = HERE / "results"


def _import_program():
    src = ROOT / "src"
    if not (src / "locround" / "__init__.py").is_file():
        sys.exit(f"perfbench: no locround sources under {src}")
    sys.path.insert(0, str(src))


def _declared():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return ({m["name"]: m["unit"] for m in spec["end_to_end"]},
            {m["name"]: m["unit"] for m in spec["per_layer"]})


def run_one(name, seed, seconds, trace, smoke=False):
    from harness import Run
    from workloads import WORKLOADS

    end_to_end, per_layer = _declared()
    run = Run(WORKLOADS[name], seed, seconds, trace, smoke)
    run.execute()
    result = run.result(per_layer if trace else end_to_end)
    return run, result


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="run every workload, untraced and traced, at toy size")
    args = ap.parse_args(argv)
    _import_program()
    from harness import environment
    from workloads import WORKLOADS

    if args.smoke:
        ok = True
        for name in WORKLOADS:
            for trace in (0, 1):
                run, result = run_one(name, args.seed, 0, trace, smoke=True)
                ok = ok and result["correct"]
                print(f"{name} trace={trace} correct={result['correct']} "
                      f"attempted={result['attempted']} "
                      f"failures={run.failures}")
        print(json.dumps({"smoke": ok, "environment": environment()}))
        return 0 if ok else 1
    if args.workload not in WORKLOADS:
        ap.error(f"--workload must be one of {sorted(WORKLOADS)}")
    run, result = run_one(args.workload, args.seed, args.seconds, args.trace)
    RESULTS.mkdir(exist_ok=True)
    path = RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(run.record(result)))
    env = environment()
    print(f"environment: kernel_backend={env['kernel_backend']} "
          f"python={env['python']} nproc={env['nproc']}")
    print(f"samples: setup={len(run.setup_times)} "
          + " ".join(f"{k}={len(v)}" for k, v in run.times.items())
          + f" visits={run.visits} elapsed={run.elapsed:.1f}s record={path.name}")
    print("median seconds: " + " ".join(
        f"{k}={statistics.median(v):.4f}" for k, v in run.times.items() if v)
        + f" reference={statistics.median(run.ref_times):.4f}")
    for failure in run.failures:
        print(f"FAILED: {failure}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
