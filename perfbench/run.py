"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --profile full --workload batch-wisdm \\
        --seed 1 --seconds 10 --trace 0

Prints one ``name value unit`` line per metric, then, as the last line,
the JSON result ``{"correct", "attempted", "failed", "metrics"}``.
``--trace 0`` reports the end-to-end metrics of BENCHMARK.json; ``--trace
1`` runs the same work with span tracing and reports the per-layer
metrics, writing the spans to ``.perfbench/``.  Run it from the root of a
checkout: the code under test is imported from ``src/``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".perfbench"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--profile", default="full")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro").is_dir():
        print(f"perfbench: no src/repro under {ROOT}; run from a checkout", file=sys.stderr)
        return 2
    # Single-threaded BLAS: on the small matrices of this model, threaded
    # BLAS on a 2-core host was both slower and far noisier (the load
    # generator and the serving process need the other core).  Set before
    # numpy is imported; the serving process inherits it.
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    sys.path[:0] = [str(ROOT), str(ROOT / "src")]
    from perfbench.workloads import PROFILE, WORKLOADS, Run
    from perfbench.metrics import UNITS, provenance

    if args.workload not in WORKLOADS or args.profile != PROFILE.name:
        print(f"perfbench: workloads {sorted(WORKLOADS)}, profile {PROFILE.name}",
              file=sys.stderr)
        return 2
    OUT_DIR.mkdir(exist_ok=True)
    run = Run(WORKLOADS[args.workload], PROFILE, args.seed,
              args.seconds, bool(args.trace), OUT_DIR)
    run.execute()

    values = run.layers if args.trace else run.e2e
    metrics = {name: {"value": values[name], "unit": unit}
               for name, unit in UNITS["per_layer" if args.trace else "end_to_end"].items()}
    stamp = provenance(run, args)
    with open(OUT_DIR / f"result-{args.workload}-{args.seed}-{args.trace}.json", "w") as fh:
        json.dump({"provenance": stamp, "checks": run.checks, "info": run.info,
                   "e2e": run.e2e, "layers": run.layers}, fh, indent=1, default=str)
    if args.trace:
        with open(OUT_DIR / f"trace-{args.workload}-{args.seed}.json", "w") as fh:
            json.dump(run.tracer.export(), fh)

    print(f"# {args.workload} seed={args.seed} profile={args.profile} "
          f"nproc={stamp['nproc']} numpy={stamp['numpy_version']} "
          f"plan={stamp['plan_fingerprint']} dtype={stamp['plan_dtype']}")
    for step in run.info["steps"]:
        print("# serve step rate={rate}/s sent={sent} ok={succeeded} "
              "p50={p50_ms:.1f}ms p95={p95_ms:.1f}ms p99={p99_ms:.1f}ms "
              "goodput={goodput:.1f}/s backlog_growing={backlog_growing}"
              .format(**step))
    for name, metric in metrics.items():
        print(f"{name} {metric['value']:.6g} {metric['unit']}")
    for name, passed in run.checks.items():
        print(f"check {name} {'ok' if passed else 'FAILED'}")
    correct = all(run.checks.values()) and all(
        math.isfinite(m["value"]) for m in metrics.values()
    )
    print(json.dumps({
        "correct": correct,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
