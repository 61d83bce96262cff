"""blaschkepick benchmark: one command, three seeded closed-loop workloads.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads: decide-mix, crosscheck-radial, cli-cold (see
workloads.py and BENCHMARK.json for why each exists).  The program is
imported from src/ of the checkout this file sits in; nothing is installed.

With --trace 0 the last stdout line is a JSON object with the end-to-end
metrics; with --trace 1 it carries the per-layer metrics of a traced run.
Lines before it summarize the run (environment, input digest, failures by
type), and a fuller record goes to bench/out/.  BLAS is pinned to one
thread for this process and every process it starts.

Exit codes: 0 after a completed run, 2 when the program's sources are
missing or the arguments are invalid.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import sys
from pathlib import Path

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
WORKLOAD_NAMES = ("decide-mix", "crosscheck-radial", "cli-cold")


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def _version(package: str) -> str:
    # Read from metadata: importing scipy here would add to the benchmark's memory.
    try:
        return importlib.metadata.version(package)
    except importlib.metadata.PackageNotFoundError:
        return "absent"


def environment() -> dict:
    return {
        "python": sys.version.split()[0],
        "numpy": _version("numpy"),
        "scipy": _version("scipy"),
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "threads": {v: os.environ[v] for v in THREAD_VARS},
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "blaschkepick" / "__init__.py").is_file():
        print(f"error: no blaschkepick sources under {SRC}", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("error: --seconds must be positive", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import blaschkepick

    if Path(blaschkepick.__file__).resolve().parent != SRC / "blaschkepick":
        print(f"error: imported blaschkepick from {blaschkepick.__file__}", file=sys.stderr)
        return 2
    from workloads import OUT, WORKLOADS, workload_named_metrics

    workload = WORKLOADS[args.workload]
    env = environment()
    result = workload.run(args.seed, args.seconds, bool(args.trace))

    OUT.mkdir(parents=True, exist_ok=True)
    record = {
        "workload": args.workload,
        "why": workload.why,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": env,
        "attempted": result.attempted,
        "failed": result.failed,
        "correct": result.correct,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in result.metrics.items()},
        **result.record,
    }
    if args.trace:
        from tracing import LAYERS

        record["layer_moves"] = dict(LAYERS)
    (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(json.dumps(record))

    print(f"# workload {args.workload} seed {args.seed}: {workload.why}")
    print("# environment " + json.dumps(env))
    print(f"# inputs sha256 {result.record['inputs_sha256']}")
    print("# outcomes " + json.dumps(result.record["outcomes"]))
    named = workload_named_metrics(args.workload, result) if not args.trace else {}
    for name, (value, unit) in {**result.metrics, **named}.items():
        print(f"# {name} = {value:.6g} {unit}")
    print(
        json.dumps(
            {
                "correct": result.correct,
                "attempted": result.attempted,
                "failed": result.failed,
                "metrics": {k: {"value": v, "unit": u} for k, (v, u) in result.metrics.items()},
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
