"""Span wrappers around the public entry points of each layer.

Everything here patches attributes from the outside for the duration of
a traced run; nothing in ``src/`` is modified.  Span names are the
``src/repro`` module that owns the layer, so a layer metric reads as the
place to look.  Module-level functions are patched in the module that
calls them (``from x import f`` binds the name at import time).
"""

from __future__ import annotations

import threading
import time

from perfbench.spans import Tracer


def instrument_fit(tracer: Tracer) -> None:
    """Write path: mixtures, training, finalise, compile, persistence."""
    import repro.ar.progressive as progressive
    import repro.core.persistence as persistence
    from repro.core.training import JointTrainer
    from repro.reducers.gmm_reducer import GMMReducer

    tracer.wrap(GMMReducer, "initialise", "mixtures.init")
    tracer.wrap(JointTrainer, "train", "core.training.train")
    tracer.wrap(GMMReducer, "finalise", "reducers.finalise")
    tracer.wrap(progressive, "compile_made", "runtime.plan.compile")
    tracer.wrap(persistence, "save_iam", "core.persistence.save")
    tracer.wrap(persistence, "load_iam", "core.persistence.load")


def instrument_inference(tracer: Tracer) -> list:
    """Read path: constraints, range mass, trunk, softmax, sampling.

    Returns the list of ``RangeMassCache`` instances the batched read path
    touches, filled as it runs (their counters give the memo hit rate).
    """
    import repro.ar.progressive as progressive
    import repro.core.inference as inference
    import repro.runtime.plan as plan
    from repro.runtime.gmm import RangeMassCache

    caches: list = []

    def count_built(table, reducers, queries, *args, **kwargs):
        tracer.count("core.inference.built", len(queries))

    def remember(cache, *args, **kwargs):
        if not any(c is cache for c in caches):
            caches.append(cache)

    tracer.wrap(inference, "build_constraints_batch", "core.inference.constraints",
                before=count_built)
    tracer.wrap(RangeMassCache, "range_mass_batch", "runtime.gmm.range_mass", before=remember)
    tracer.wrap(RangeMassCache, "range_mass", "runtime.gmm.range_mass")
    for method in ("forward_slice", "forward_prefix", "forward_prefix_probs"):
        tracer.wrap(plan.MADEPlan, method, "runtime.plan.forward")
    tracer.wrap(progressive, "softmax_inplace", "runtime.plan.softmax")
    tracer.wrap(plan, "softmax_inplace", "runtime.plan.softmax")
    tracer.wrap(progressive.ProgressiveSampler, "estimate_batch", "ar.progressive.estimate_batch")
    return caches


class ServingProbe:
    """Spans and queue-wait samples for the serving layers.

    The HTTP handler span takes its request id from the ``X-Request-Id``
    header the load generator sends, so the serving process's spans join
    the client's.  Queue wait is measured from ``MicroBatcher.submit`` to
    the start of the batch that carries the query (``ServedModel``'s
    ``run_batch``, which runs on the batcher's worker thread).
    """

    def __init__(self, tracer: Tracer) -> None:
        self.tracer = tracer
        self.queue_waits: list[float] = []
        self._submitted: dict[int, float] = {}
        self._lock = threading.Lock()

    def install(self) -> None:
        import repro.datasets as datasets
        import repro.serve.http as http
        from repro.serve.batcher import MicroBatcher
        from repro.serve.cache import QueryCache
        from repro.serve.service import EstimationService, ServedModel

        tracer = self.tracer
        tracer.wrap(datasets, "load_dataset", "datasets.load")
        tracer.wrap(EstimationService, "load_model", "serve.service.load_model")
        tracer.wrap(http, "parse_estimate_request", "serve.http.parse")
        tracer.wrap(EstimationService, "estimate", "serve.service.estimate")
        tracer.wrap(QueryCache, "get", "serve.cache")
        tracer.wrap(QueryCache, "put", "serve.cache")

        handle = http.ServeHandler.do_POST

        def do_post(handler):
            span = tracer.begin("serve.http.handler", handler.headers.get("X-Request-Id"))
            try:
                return handle(handler)
            finally:
                tracer.end(span)

        submit = MicroBatcher.submit

        def traced_submit(batcher, query, *args, **kwargs):
            with self._lock:
                self._submitted[id(query)] = time.perf_counter()
            span = tracer.begin("serve.batcher.submit")
            try:
                return submit(batcher, query, *args, **kwargs)
            finally:
                tracer.end(span)

        run_batch = ServedModel._run_batch

        def traced_run_batch(model, queries, rngs):
            start = time.perf_counter()
            with self._lock:
                for query in queries:
                    since = self._submitted.pop(id(query), None)
                    if since is not None:
                        self.queue_waits.append(start - since)
            span = tracer.begin("serve.batcher.run_batch", "batch")
            try:
                return run_batch(model, queries, rngs)
            finally:
                tracer.end(span)

        for owner, attr, wrapper in (
            (http.ServeHandler, "do_POST", do_post),
            (MicroBatcher, "submit", traced_submit),
            (ServedModel, "_run_batch", traced_run_batch),
        ):
            tracer.patch(owner, attr, wrapper)
