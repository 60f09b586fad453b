"""Metric names and units, and the provenance stamped on every result.

``METRICS`` is the one list of what a run reports; BENCHMARK.json carries
the same names, units and bounds (a test keeps the two equal).
"""

from __future__ import annotations

import dataclasses
import os

from perfbench.workloads import LADDER, PHASES

# name: (unit, better, bound)
END_TO_END = {
    "setup_s": ("s", "lower", 0.25),
    "success_frac": ("frac", "higher", 0.01),
    "peak_rss_mb": ("MB", "lower", 0.15),
    "qerror.p50": ("ratio", "lower", 0.05),
    "qerror.p95": ("ratio", "lower", 0.1),
    "qerror.max": ("ratio", "lower", 0.2),
    "fit_s": ("s", "lower", 0.25),
    "deploy_s": ("s", "lower", 0.25),
    "batch.qps": ("1/s", "higher", 0.25),
    "serve.p50_ms": ("ms", "lower", 0.25),
    "serve.p95_ms": ("ms", "lower", 0.25),
    "serve.qps_at_slo": ("1/s", "higher", 0.25),
}

# name: (unit, better)
PER_LAYER = {
    # serve-side layers (serving process spans, joined to client requests)
    "serve.http.overhead_ms": ("ms", "lower"),
    "serve.http.parse_ms": ("ms", "lower"),
    "serve.service.estimate_ms": ("ms", "lower"),
    "serve.cache.hit_rate": ("frac", "higher"),
    "serve.cache.evictions": ("count", "lower"),
    "serve.batcher.queue_wait_ms": ("ms", "lower"),
    "serve.batcher.mean_batch_size": ("count", "higher"),
    "serve.batcher.batches": ("count", "lower"),
    # inference layers, per query of the offline batch
    "core.inference.constraints_ms": ("ms", "lower"),
    "core.inference.built_per_query": ("count", "lower"),
    "runtime.gmm.range_mass_ms": ("ms", "lower"),
    "runtime.gmm.mass_cache.hit_rate": ("frac", "higher"),
    "runtime.plan.forward_ms": ("ms", "lower"),
    "runtime.plan.forward_calls": ("count", "lower"),
    "runtime.plan.softmax_ms": ("ms", "lower"),
    "runtime.plan.prefix_cache.hit_rate": ("frac", "higher"),
    "runtime.plan.prefix_cache.evictions": ("count", "lower"),
    "ar.progressive.sample_self_ms": ("ms", "lower"),
    "ar.progressive.mean_group_size": ("count", "higher"),
    # write path
    "mixtures.init_s": ("s", "lower"),
    "core.training.train_s": ("s", "lower"),
    "core.training.steps_per_s": ("1/s", "higher"),
    "core.training.step_p50_ms": ("ms", "lower"),
    "reducers.finalise_s": ("s", "lower"),
    "runtime.plan.compile_s": ("s", "lower"),
    "core.persistence.save_s": ("s", "lower"),
    "core.persistence.load_s": ("s", "lower"),
    # load generator health and the trace itself
    "loadgen.lateness_p99_ms": ("ms", "lower"),
    # per serve step, in ladder order (step 1 is the highest rate)
    **{
        f"loadgen.step{number}.{what}": ("count", better)
        for number in range(1, len(LADDER) + 1)
        for what, better in (("sent", "higher"), ("succeeded", "higher"), ("failed", "lower"))
    },
    "trace.overhead_ms": ("ms", "lower"),
    # share of each phase's time the layer spans account for
    **{f"trace.accounted_frac.{phase}": ("frac", "higher") for phase in PHASES},
}

UNITS = {
    "end_to_end": {name: spec[0] for name, spec in END_TO_END.items()},
    "per_layer": {name: spec[0] for name, spec in PER_LAYER.items()},
}


def provenance(run, args) -> dict:
    """Host and model provenance for one run's result file."""
    from repro.bench import runtime_provenance

    describe = run.info.get("describe") or {}
    return {
        "nproc": os.cpu_count(),
        **runtime_provenance(),
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "profile": dataclasses.asdict(run.profile),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": bool(args.trace),
        "plan_fingerprint": describe.get("plan_fingerprint"),
        "plan_dtype": describe.get("plan_dtype"),
        "n_samples": run.profile.n_samples,
        "describe": describe,
    }
