"""The three workloads and the run that measures them.

Every run goes through the whole life of an estimator on its dataset, in
this order, so that every end-to-end metric is measured on every
workload:

1. set-up, five times (four more end the run; the median of the nine is
   ``setup_s``): load the table, build and label the fixed test set, draw
   this seed's queries;
2. fit: ``IAM.fit`` (``fit_s``);
3. deploy, five times (the median is ``deploy_s``): ``save_iam``, a
   fresh serving process that runs ``EstimationService.load_model``, and
   the first answer over HTTP; the last server stays up;
4. offline batch: ``IAM.estimate_many(batch_size=32)`` over the test set
   (``qerror.*``), then over this seed's distinct queries for half the
   workload's share of ``--seconds`` (``batch.qps``, with step 6);
5. serve: open-loop ``POST /estimate`` through a fixed ladder of arrival
   rates for ``--seconds`` (``serve.*``);
6. the other half of the timed batch, once the server has stopped;
7. output checks on seeded samples.

A traced run (``--trace 1``) does the same work with the layers wrapped
(``perfbench/layers.py``) and then checks how much of each phase the layer
spans account for.

The workloads differ in dataset and in how --seconds is split, so each
stresses other layers (README.md says why each exists).

The CPU-bound figures (``setup_s``, ``fit_s``, ``deploy_s``, ``batch.qps``)
are CPU seconds, not wall seconds: the benchmark runs on a couple of
cores of a shared host, and when the hypervisor hands a core to another
guest the wall clock runs on while the program does not (some runs were
twice as slow as their neighbours).  The kernel leaves that stolen time
out of a process's CPU time.  Every such phase is sequential and single
threaded (BLAS too), so on an idle host its CPU time is its wall time;
the wall times and the run's steal time go to the result file as well.
The serve figures are latencies and stay on the wall clock.
"""

from __future__ import annotations

import contextlib
import http.client
import json
import math
import os
import resource
import statistics
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from perfbench import loadgen
from perfbench.layers import instrument_fit, instrument_inference
from perfbench.server import MODEL, ServerProcess, query_pairs
from perfbench.spans import Span, Tracer, accounting, descendants, layer_self_totals

PHASES = ("fit", "deploy", "batch", "serve")
# Phases whose layer spans must account for their time within 10%.  The
# deploy's share (about 0.92) is only reported: each deploy starts an
# interpreter, about 90 ms no layer can claim, and that share grows as
# `import repro` gets faster.  The serve phase's (about 0.02) is reported
# too: a served request waits mostly in the client's queue and in TCP.
ACCOUNTED = ("fit", "batch")


@dataclass(frozen=True)
class Profile:
    """Model and data scale; pinned by the command in BENCHMARK.json."""

    name: str
    rows: int
    hidden: tuple[int, ...]
    epochs: int
    n_samples: int
    n_components: int
    samples_per_component: int
    n_test_queries: int


# repro.bench's `full` scale with 8 instead of 20 epochs (README.md).
PROFILE = Profile("full", 40_000, (128, 128, 128), 8, 512, 30, 10_000, 200)

# Serve ladder: arrival rates (requests/s) in the order they run, and each
# step's share of --seconds.  The rungs above 30/s are about 1.3x-1.5x
# apart, from well above the present capacity (about 45/s) down to it;
# serve.qps_at_slo is the SLO goodput of the OVERLOADED top rungs, pooled
# (one 0.75 s rung holds about 45 requests, and its goodput alone spread
# by a tenth between seeds; at 60/s and below every request still met the
# limit, so those rungs would only dilute the figure).  The last, sustained
# step reports serve.p50_ms and serve.p95_ms: with about 200 requests in
# it, p95 is the highest percentile with ten samples beyond it (p99 has
# two, and swung by a third between seeds).  The server writes response
# headers and body in two segments, so a client whose connection is in
# delayed-ACK (interactive) mode waits about 40 ms for the body; a
# connection's mode depends on its recent gaps.  At 30/s the two
# connections are busy about 70% of the time and settle in that mode, so
# the ladder comes down into it from overload; come up from low load, runs
# measured a transient and landed in a fast or a slow mode by chance.
# Every request is Zipf-drawn from a pool of distinct queries, about half
# of them QueryCache hits.
LADDER = (120, 90, 60, 45, 30)
STEP_SHARES = (0.075, 0.075, 0.075, 0.075, 0.7)
SUSTAINED = len(LADDER) - 1
OVERLOADED = 2
SLO_MS = 500.0
CONNECTIONS = 2
MISS_S = 1.0  # a failed request counts as this late (past the limit)
# Every run replays the same Poisson arrival times, so runs offer
# identical bursts; --seed picks the queries that arrive.
SCHEDULE_SEED = 0
ZIPF_EXPONENT = 1.0


@dataclass(frozen=True)
class Workload:
    name: str
    dataset: str
    batch_share: float  # of --seconds for the timed batch windows, together
    pool: int  # distinct queries the served requests are Zipf-drawn from


WORKLOADS = {
    w.name: w
    for w in (
        # A HIGGS miss costs the most server time, so its traffic repeats
        # more (about four in five are cache hits instead of half) and
        # its connections are as busy as on the other workloads.
        Workload("fit-higgs", "higgs", 0.4, 100),
        Workload("batch-wisdm", "wisdm", 0.5, 1000),
        Workload("serve-twi-zipf", "twi", 0.4, 1000),
    )
}

DATA_SEED = 0  # table and model are pinned; --seed varies the traffic
TEST_SEED = 200  # fixed accuracy test set, as repro.bench's workloads
BATCH_SIZE = 32
# Timed set-ups, half of them at the end of the run, so that a slow spell
# of the host (they last about a second) does not cover them all.
SETUP_REPEATS = 9
DEPLOY_REPEATS = 5
CHECK_SAMPLE = 16


class DistinctQueries:
    """A seeded stream of distinct queries: 70% paper-style uniform, 30%
    anchored on a tuple (the mix of ``repro.bench.experiments``' workloads)."""

    def __init__(self, table, seed: int) -> None:
        from repro.query.generator import QueryGenerator
        from repro.utils.rng import ensure_rng

        self._generator = QueryGenerator(table, seed=seed)
        self._rng = ensure_rng(seed + 1)
        self._seen: set = set()

    def take(self, n: int) -> list:
        out = []
        while len(out) < n:
            if self._rng.random() < 0.3:
                hint = float(self._rng.choice([0.005, 0.01, 0.03]))
                query = self._generator.generate_centered(selectivity_hint=hint)
            else:
                query = self._generator.generate()
            if query.cache_key() not in self._seen:
                self._seen.add(query.cache_key())
                out.append(query)
        return out


@dataclass
class Inputs:
    table: object
    test: object  # repro.query.workload.Workload: queries + true selectivities
    batch_queries: DistinctQueries  # drawn as the timed batch consumes them
    serve_queries: list  # request i sends serve_queries[i]


def build_inputs(workload: Workload, profile: Profile, seed: int, seconds: float) -> Inputs:
    from repro.datasets import load_dataset
    from repro.query.workload import Workload as Labelled

    table = load_dataset(workload.dataset, n_rows=profile.rows, seed=DATA_SEED)
    test = Labelled.from_queries(
        table, DistinctQueries(table, TEST_SEED).take(profile.n_test_queries)
    )
    n_requests = int(sum(r * s * seconds for r, s in zip(LADDER, STEP_SHARES)) * 1.5) + 64
    pool = DistinctQueries(table, seed + 11).take(workload.pool)
    ranks = loadgen.zipf_ranks(len(pool), n_requests, ZIPF_EXPONENT,
                               np.random.default_rng([seed, 1]))
    serve_queries = [pool[r] for r in ranks]
    return Inputs(table, test, DistinctQueries(table, seed + 7), serve_queries)


def iam_config(profile: Profile):
    from repro.core.config import IAMConfig

    return IAMConfig(
        n_components=profile.n_components,
        hidden_sizes=profile.hidden,
        epochs=profile.epochs,
        n_progressive_samples=profile.n_samples,
        samples_per_component=profile.samples_per_component,
        interval_kind="empirical",
        learning_rate=1e-2,  # as repro.bench's AR estimators
        inference_precision="float64",
        n_workers=0,
        seed=0,
    )


def body(query) -> bytes:
    return json.dumps({"model": MODEL, "predicates": query_pairs(query)}).encode()


def percentile(values, q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    if not ordered:
        return float("nan")
    return ordered[min(len(ordered) - 1, max(0, math.ceil(q / 100.0 * len(ordered)) - 1))]


def mean_ms(seconds: list[float]) -> float:
    return 1e3 * float(np.mean(seconds)) if seconds else 0.0


def post_once(port: int, payload: bytes, request: str) -> int:
    """One ``POST /estimate`` on a fresh connection; the HTTP status."""
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=60)
    try:
        conn.request("POST", "/estimate", body=payload,
                     headers={"Content-Type": "application/json", "X-Request-Id": request})
        response = conn.getresponse()
        response.read()
        return response.status
    finally:
        conn.close()


# ----------------------------------------------------------------------
class OfflineBatch:
    """``IAM.estimate_many(batch_size=32)`` with per-query ``query_seed``
    generators, a chunk of 32 queries at a time; each chunk is a root of
    the batch phase."""

    def __init__(self, run: "Run", estimator) -> None:
        self.run = run
        self.estimator = estimator
        self.model = estimator.model
        self.answered: list[tuple] = []  # (query, answer)
        self.cpu_s: list[float] = []  # CPU seconds of each timed chunk
        self.group_sizes: list[int] = []
        self.prefix_before = self.model.runtime_plan().prefix_cache.stats()

    def rngs(self, chunk) -> list:
        from repro.utils.rng import ensure_rng, query_seed

        return [ensure_rng(query_seed(self.estimator.name, q.cache_key())) for q in chunk]

    def chunk(self, queries) -> tuple[float, list]:
        """Answer one chunk; its wall seconds and its answers."""
        generators = self.rngs(queries)
        start = time.perf_counter()
        with self.run._phase("batch"):
            values = self.model.estimate_many(queries, batch_size=BATCH_SIZE, rngs=generators)
        elapsed = time.perf_counter() - start
        self.group_sizes.extend(self.model.batch_group_sizes() or [])
        self.answered.extend(zip(queries, values))
        return elapsed, list(values)

    def window(self, stream: DistinctQueries, seconds: float) -> None:
        """Distinct queries from ``stream`` for ``seconds``, a chunk at a
        time; each chunk's CPU seconds are kept."""
        deadline = time.perf_counter() + seconds
        while time.perf_counter() < deadline:
            cpu = time.process_time()
            elapsed = self.chunk(stream.take(BATCH_SIZE))[0]
            self.cpu_s.append(time.process_time() - cpu)
            self.run.info.setdefault("batch_chunk_wall_qps", []).append(BATCH_SIZE / elapsed)


class Run:
    """One benchmark run: measures, checks, and collects spans."""

    def __init__(self, workload: Workload, profile: Profile, seed: int,
                 seconds: float, trace: bool, out_dir: Path) -> None:
        self.workload = workload
        self.profile = profile
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.out_dir = out_dir
        self.tracer = Tracer()
        self.tracer.enabled = trace
        # Each phase's roots: the end-to-end time its layers must cover.
        self.roots: dict[str, list[Span]] = {phase: [] for phase in PHASES}
        self.remote: list[Span] = []  # the serving processes' spans
        self.checks: dict[str, bool] = {}
        self.e2e: dict[str, float] = {}
        self.layers: dict[str, float] = {}
        self.attempted = 0  # served requests, the first answers included
        self.failed = 0
        self.info: dict = {}
        self.mass_caches: list = []
        self.test: list = []  # the accuracy test set's queries

    def execute(self) -> None:
        steal = host_steal_s()
        if self.trace:
            instrument_fit(self.tracer)
            self.mass_caches = instrument_inference(self.tracer)
        try:
            inputs = self._setup(SETUP_REPEATS - SETUP_REPEATS // 2)
            estimator = self._fit(inputs)
            server = self._deploy(estimator, inputs)
            batch = OfflineBatch(self, estimator)
            # The timed batch runs in two windows, before and after the
            # serve phase, so that a slow spell of the host falls on one.
            window = self.workload.batch_share * self.seconds / 2
            try:
                self._accuracy(batch, inputs)
                batch.window(inputs.batch_queries, window)
                outcomes, served = self._serve(server, inputs)
                self._check_served(server, outcomes, served, inputs.table.num_rows)
            finally:
                report = self._stop(server)
            batch.window(inputs.batch_queries, window)
            self._finish_batch(batch, inputs.table.num_rows)
            self._setup(SETUP_REPEATS // 2)
        finally:
            self.tracer.restore()
        self.e2e["setup_s"] = statistics.median(self.info["setup_s"])
        self.e2e["peak_rss_mb"] = max(
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, report["peak_rss_mb"]
        )
        self.e2e["success_frac"] = (self.attempted - self.failed) / max(self.attempted, 1)
        self.info["describe"] = report["describe"]
        self.info["server_cache"] = report["cache"]
        # Time the hypervisor gave this VM's cores to other guests during
        # the run: it slows every wall-clock figure, and no CPU-time one.
        self.info["host_steal_s"] = host_steal_s() - steal
        if self.trace:
            self._serve_layers(report, outcomes)
            self._account()

    @contextlib.contextmanager
    def _phase(self, phase: str):
        """A root span of ``phase``: the trace accounting must cover it."""
        with self.tracer.span(f"phase.{phase}", layer=False) as span:
            yield span
        if span is not None:
            self.roots[phase].append(span)

    def _stop(self, server: ServerProcess) -> dict:
        report = server.stop()
        self.remote.extend(self.tracer.adopt(report["spans"]))
        return report

    def _served(self, status: int) -> None:
        self.attempted += 1
        self.failed += status != 200

    # ------------------------------------------------------------------
    def _setup(self, repeats: int) -> Inputs:
        """Time ``repeats`` set-ups; returns the last one's inputs."""
        for _ in range(repeats):
            start, cpu = time.perf_counter(), time.process_time()
            inputs = build_inputs(self.workload, self.profile, self.seed, self.seconds)
            self.info.setdefault("setup_s", []).append(time.process_time() - cpu)
            self.info.setdefault("setup_wall_s", []).append(time.perf_counter() - start)
        return inputs

    def _fit(self, inputs: Inputs):
        from repro.estimators.iam import IAMEstimator

        estimator = IAMEstimator(config=iam_config(self.profile))
        start, cpu = time.perf_counter(), time.process_time()
        with self._phase("fit"):
            estimator.fit(inputs.table)
        self.e2e["fit_s"] = time.process_time() - cpu
        self.info["fit_wall_s"] = time.perf_counter() - start
        summary = estimator.model.trainer.timing_summary()
        self.layers["core.training.steps_per_s"] = summary["steps_per_sec"]
        self.layers["core.training.step_p50_ms"] = summary["p50_step_ms"]
        return estimator

    def _deploy(self, estimator, inputs: Inputs) -> ServerProcess:
        import repro.core.persistence as persistence

        archive = self.out_dir / f"{self.workload.name}-{self.seed}-{self.trace:d}.npz"
        spec = {
            "dataset": self.workload.dataset,
            "rows": self.profile.rows,
            "data_seed": DATA_SEED,
            "archive": str(archive),
            "trace": self.trace,
        }
        first = body(inputs.test.queries[0])
        times = []
        server = None
        for index in range(DEPLOY_REPEATS):
            if server is not None:
                self._stop(server)
            start, cpu = time.perf_counter(), time.process_time()
            with self._phase("deploy"):
                persistence.save_iam(estimator.model, archive)
                server = ServerProcess(spec)
                status = post_once(server.port, first, f"deploy-{index}")
            self.info.setdefault("deploy_wall_s", []).append(time.perf_counter() - start)
            times.append(time.process_time() - cpu + server.cpu_s())
            self._served(status)
        archive.unlink()
        self.e2e["deploy_s"] = statistics.median(times)
        self.info["deploy_s"] = times
        return server

    # ------------------------------------------------------------------
    def _accuracy(self, batch: "OfflineBatch", inputs: Inputs) -> None:
        """q-error on the fixed test set; it also warms the caches."""
        from repro.metrics import q_errors

        test = list(inputs.test.queries)
        values = []
        for index in range(0, len(test), BATCH_SIZE):
            values.extend(batch.chunk(test[index:index + BATCH_SIZE])[1])
        errors = q_errors(inputs.test.true_selectivities, values, inputs.table.num_rows)
        self.e2e["qerror.p50"] = float(np.quantile(errors, 0.5))
        self.e2e["qerror.p95"] = float(np.quantile(errors, 0.95))
        self.e2e["qerror.max"] = float(errors.max())
        self.test = test

    def _finish_batch(self, batch: "OfflineBatch", n_rows: int) -> None:
        # All timed queries over all their CPU seconds: chunks differ in
        # cost by up to 3x with the queries in them, so a median of chunk
        # rates moved with the seed's query mix; CPU time leaves out the
        # time a neighbour on the host held the core.
        self.e2e["batch.qps"] = BATCH_SIZE * len(batch.cpu_s) / sum(batch.cpu_s)
        self.info["batch_chunk_cpu_s"] = batch.cpu_s

        answered = batch.answered
        values = np.array([value for _, value in answered])
        self.checks["batch_in_range"] = bool(
            np.all(np.isfinite(values)) and values.min() >= 1.0 / n_rows and values.max() <= 1.0
        )
        self.tracer.enabled = False
        pick = np.random.default_rng([self.seed, 2]).choice(
            len(answered), size=min(CHECK_SAMPLE, len(answered)), replace=False
        )
        self.checks["batch_bitwise_per_query"] = all(
            batch.estimator.estimate_batch([answered[i][0]], rngs=batch.rngs([answered[i][0]]))[0]
            == answered[i][1]
            for i in pick
        )
        self.tracer.enabled = self.trace

        if self.trace:
            prefix = batch.model.runtime_plan().prefix_cache.stats()
            hits = prefix["hits"] - batch.prefix_before["hits"]
            misses = prefix["misses"] - batch.prefix_before["misses"]
            self.layers["runtime.plan.prefix_cache.hit_rate"] = hits / max(hits + misses, 1)
            self.layers["runtime.plan.prefix_cache.evictions"] = (
                prefix["evictions"] - batch.prefix_before["evictions"]
            )
            self.layers["ar.progressive.mean_group_size"] = (
                float(np.mean(batch.group_sizes)) if batch.group_sizes else 0.0
            )
            self._batch_layers(len(answered))
            self._overhead(batch)

    def _overhead(self, batch: "OfflineBatch") -> None:
        """Tracing overhead per query: chunks of the test set again, each
        run once unwrapped to warm the caches, then timed traced and
        unwrapped, in alternating order over an even number of chunks.
        Their spans belong to no phase."""
        seconds = {True: 0.0, False: 0.0}
        answers = {True: [], False: []}
        test = self.test
        chunks = [test[i:i + BATCH_SIZE] for i in range(0, len(test) - BATCH_SIZE + 1, BATCH_SIZE)]
        chunks = chunks[: len(chunks) // 2 * 2]
        for number, chunk in enumerate(chunks):
            for traced in (None, True, False) if number % 2 else (None, False, True):
                self.tracer.enabled = bool(traced)
                with contextlib.nullcontext() if traced else self.tracer.unpatched():
                    generators = batch.rngs(chunk)
                    start = time.perf_counter()
                    values = batch.model.estimate_many(chunk, batch_size=BATCH_SIZE,
                                                       rngs=generators)
                    elapsed = time.perf_counter() - start
                if traced is not None:
                    seconds[traced] += elapsed
                    answers[traced].extend(values)
        self.tracer.enabled = self.trace
        self.checks["batch_traced_equals_untraced"] = answers[True] == answers[False]
        n_queries = len(answers[True])
        traced_ms, plain_ms = (1e3 * seconds[t] / n_queries for t in (True, False))
        self.layers["trace.overhead_ms"] = traced_ms - plain_ms
        self.info["batch_ms_per_query"] = {"traced": traced_ms, "untraced": plain_ms,
                                           "queries": n_queries}

    def _batch_layers(self, n_queries: int) -> None:
        spans = self._tree("batch")
        totals = layer_self_totals(spans)
        for metric, layer in (
            ("core.inference.constraints_ms", "core.inference.constraints"),
            ("runtime.gmm.range_mass_ms", "runtime.gmm.range_mass"),
            ("runtime.plan.forward_ms", "runtime.plan.forward"),
            ("runtime.plan.softmax_ms", "runtime.plan.softmax"),
            ("ar.progressive.sample_self_ms", "ar.progressive.estimate_batch"),
        ):
            self.layers[metric] = 1e3 * totals.get(layer, 0.0) / max(n_queries, 1)
        by_id = {s.id: s for s in spans}
        outer_forwards = sum(
            1 for s in spans
            if s.name == "runtime.plan.forward" and by_id[s.parent].name != "runtime.plan.forward"
        )
        self.layers["runtime.plan.forward_calls"] = outer_forwards / max(n_queries, 1)
        built = self.tracer.counts.get("core.inference.built", 0)
        self.layers["core.inference.built_per_query"] = built / max(n_queries, 1)
        hits = sum(cache.stats()["hits"] for cache in self.mass_caches)
        misses = sum(cache.stats()["misses"] for cache in self.mass_caches)
        self.layers["runtime.gmm.mass_cache.hit_rate"] = hits / max(hits + misses, 1)

    # ------------------------------------------------------------------
    def _serve(self, server: ServerProcess, inputs: Inputs):
        schedule = np.random.default_rng(SCHEDULE_SEED)
        queries = iter(inputs.serve_queries)
        steps = []
        outcomes: list[loadgen.Outcome] = []
        served: list = []
        connections = loadgen.connect("127.0.0.1", server.port, CONNECTIONS)
        try:
            for rate, share in zip(LADDER, STEP_SHARES):
                offsets = loadgen.poisson_offsets(rate, share * self.seconds, schedule)
                step_queries = [next(queries) for _ in offsets]
                bodies = [body(q) for q in step_queries]
                start = time.perf_counter() + 0.02
                step = loadgen.run_open_loop(
                    connections, bodies, [start + o for o in offsets], request_base=len(outcomes)
                )
                steps.append((rate, share, step))
                outcomes.extend(step)
                served.extend(step_queries)
        finally:
            for conn in connections:
                conn.close()

        goodputs, in_slo = [], []
        for number, (rate, share, step) in enumerate(steps, start=1):
            latencies = [o.latency_from_due(MISS_S) for o in step]
            p50, p95, p99 = (percentile(latencies, q) * 1e3 for q in (50, 95, 99))
            succeeded = sum(o.ok for o in step)
            # SLO goodput: requests answered within the limit of when they
            # fell due, per second of the step's schedule.
            in_slo.append(sum(x * 1e3 <= SLO_MS for x in latencies))
            goodputs.append(in_slo[-1] / (share * self.seconds))
            self.layers[f"loadgen.step{number}.sent"] = len(step)
            self.layers[f"loadgen.step{number}.succeeded"] = succeeded
            self.layers[f"loadgen.step{number}.failed"] = len(step) - succeeded
            self.info.setdefault("steps", []).append({
                "rate": rate, "sent": len(step), "succeeded": succeeded,
                "p50_ms": p50, "p95_ms": p95, "p99_ms": p99, "goodput": goodputs[-1],
                "backlog_growing": loadgen.backlog_growing(step, CONNECTIONS),
            })
            if number - 1 == SUSTAINED:
                self.e2e["serve.p50_ms"] = p50
                self.e2e["serve.p95_ms"] = p95
        self.e2e["serve.qps_at_slo"] = sum(in_slo[:OVERLOADED]) / (
            sum(STEP_SHARES[:OVERLOADED]) * self.seconds
        )
        self.layers["loadgen.lateness_p99_ms"] = (
            percentile([o.lateness for o in outcomes], 99) * 1e3
        )
        for outcome in outcomes:
            self._served(outcome.status)
        return outcomes, served

    def _check_served(self, server, outcomes, queries, n_rows: int) -> None:
        ok = [i for i, o in enumerate(outcomes) if o.ok]
        values = np.array([outcomes[i].selectivity for i in ok])
        self.checks["served_in_range"] = bool(
            len(values) > 0 and np.all(np.isfinite(values))
            and values.min() >= 1.0 / n_rows and values.max() <= 1.0
        )
        pick = np.random.default_rng([self.seed, 4]).choice(
            len(ok), size=min(CHECK_SAMPLE, len(ok)), replace=False
        )
        reference = server.sequential([queries[ok[i]] for i in pick])
        self.checks["served_bitwise_sequential"] = all(
            outcomes[ok[i]].selectivity == ref for i, ref in zip(pick, reference)
        )

    def _serve_layers(self, report: dict, outcomes) -> None:
        describe, cache = report["describe"], report["cache"]
        self.layers["serve.cache.hit_rate"] = cache["hit_rate"]
        self.layers["serve.cache.evictions"] = cache["evictions"]
        self.layers["serve.batcher.batches"] = describe["batches"]
        self.layers["serve.batcher.mean_batch_size"] = describe["mean_batch_size"]
        self.layers["serve.batcher.queue_wait_ms"] = mean_ms(report["queue_waits"])

        keys = {str(o.request) for o in outcomes}
        served = [s for s in self.remote if s.request in keys]
        service = {s.request: s.duration for s in served if s.name == "serve.service.estimate"}
        self.layers["serve.http.parse_ms"] = mean_ms(
            [s.duration for s in served if s.name == "serve.http.parse"]
        )
        self.layers["serve.service.estimate_ms"] = mean_ms(list(service.values()))
        self.layers["serve.http.overhead_ms"] = mean_ms([
            o.done - o.sent - service[str(o.request)]
            for o in outcomes if o.ok and str(o.request) in service
        ])
        loads = [s.duration for s in self.remote if s.name == "core.persistence.load"]
        self.layers["core.persistence.load_s"] = statistics.median(loads) if loads else 0.0
        # Each served request is a root from when it fell due to its reply,
        # over two bookkeeping spans of the client (its wait for a
        # connection, and the round trip); the serving process's handler
        # span nests in the round trip and is the only layer time in it.
        handlers = {s.request: s for s in self.remote if s.name == "serve.http.handler"}
        trips = []
        for outcome in (o for o in outcomes if o.ok):
            key = str(outcome.request)
            root = self.tracer.record("loadgen.request", outcome.due, outcome.done, request=key)
            self.roots["serve"].append(root)
            self.tracer.record("loadgen.wait", outcome.due, outcome.sent, root.id, key)
            trips.append(self.tracer.record(
                "serve.http.roundtrip", outcome.sent, outcome.done, root.id, key
            ))
        self.checks["trace_serve_joined"] = serve_joined(trips, handlers)

    # ------------------------------------------------------------------
    def _tree(self, phase: str) -> list[Span]:
        return self.roots[phase] + descendants(self.tracer.spans, self.roots[phase])

    def _account(self) -> None:
        # The serving processes' start-ups and first answers belong to the
        # deploy that launched them.
        deploys = self.roots["deploy"]
        for span in self.remote:
            if span.name == "serve.process" or (
                span.name == "serve.http.handler" and (span.request or "").startswith("deploy-")
            ):
                owner = next((d for d in deploys if d.start <= span.start <= d.end), None)
                span.parent = None if owner is None else owner.id

        fit = self._tree("fit")
        for metric, layer in (
            ("mixtures.init_s", "mixtures.init"),
            ("core.training.train_s", "core.training.train"),
            ("reducers.finalise_s", "reducers.finalise"),
            ("runtime.plan.compile_s", "runtime.plan.compile"),
        ):
            self.layers[metric] = sum(s.duration for s in fit if s.name == layer)
        saves = [s.duration for s in self._tree("deploy") if s.name == "core.persistence.save"]
        self.layers["core.persistence.save_s"] = float(np.mean(saves)) if saves else 0.0

        self.info["accounting"] = {}
        for phase in PHASES:
            report = accounting(self.tracer.spans, self.roots[phase])
            self.info["accounting"][phase] = report
            self.layers[f"trace.accounted_frac.{phase}"] = report["ratio"]
        for phase in ACCOUNTED:
            ratio = self.info["accounting"][phase]["ratio"]
            self.checks[f"trace_{phase}_within_10pct"] = 0.9 <= ratio <= 1.1


def host_steal_s() -> float:
    """Steal time of all CPUs so far (``/proc/stat``), seconds; NaN off Linux."""
    try:
        with open("/proc/stat") as fh:
            fields = fh.readline().split()
    except OSError:
        return float("nan")
    return int(fields[8]) / os.sysconf("SC_CLK_TCK") if len(fields) > 8 else float("nan")


def serve_joined(trips: list[Span], handlers: dict[str, Span]) -> bool:
    """Did every served request's handler span join its round trip?

    Joins the handler to the trip (as its parent) and checks causality on
    the shared clock: the server started handling after the client sent,
    and before the reply arrived.
    """
    joined = True
    for trip in trips:
        handler = handlers.get(trip.request)
        if handler is None or not trip.start <= handler.start <= trip.end:
            joined = False
            continue
        handler.parent = trip.id
    return joined
