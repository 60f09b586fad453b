"""The serving process: an ``EstimationService`` behind the HTTP front end.

:class:`ServerProcess` starts it as a child interpreter
(``python -m perfbench.server``) so the load generator (the parent) and
the server do not share an interpreter lock.  The child loads the archive
with ``EstimationService.load_model``, binds an ephemeral port and reports
it; then it answers commands, one JSON line each way on stdin/stdout:

- ``{"sequential": [pairs, ...]}``: ``estimate_sequential`` for each
  query, the reference the served answers are checked against;
- ``{"cpu": true}``: the process's CPU seconds so far, its start-up
  included (``deploy_s`` counts them);
- ``{"stop": true}``: shut down and send back the report (cache and
  batcher counters, ``describe()``, peak RSS and, when traced, spans).
"""

from __future__ import annotations

import json
import os
import resource
import subprocess
import sys
import time
from pathlib import Path

from perfbench.spans import Tracer

MODEL = "bench"
ROOT = Path(__file__).resolve().parent.parent


def serve(spec: dict, commands, replies) -> None:
    tracer = Tracer()
    tracer.enabled = spec["trace"]
    # The process's start-up, from its launch to the port: bookkeeping
    # whose layer children are the package import, the table load and
    # load_model; the interpreter's own start is time no layer claims.
    startup = tracer.begin("serve.process", layer=False)
    if startup is not None:
        startup.start = spec["launched"]

    with tracer.span("repro.import"):
        import repro.datasets as datasets
        from repro.query.query import Query
        from repro.serve import EstimationService, ServeConfig
        from repro.serve.http import make_server, start_in_background

    from perfbench.layers import ServingProbe, instrument_fit, instrument_inference

    def reply(message) -> None:
        replies.write(json.dumps(message) + "\n")
        replies.flush()

    probe = ServingProbe(tracer)
    if spec["trace"]:
        instrument_fit(tracer)  # core.persistence.load
        instrument_inference(tracer)
        probe.install()

    table = datasets.load_dataset(spec["dataset"], n_rows=spec["rows"], seed=spec["data_seed"])
    # Default serving knobs, minus the fallback estimator: no deadline is
    # set, so it would never answer, and fitting it would slow deploys.
    service = EstimationService(ServeConfig(fallback_estimator=None))
    service.load_model(MODEL, spec["archive"], table)
    server = make_server(service)
    thread = start_in_background(server)
    tracer.end(startup)
    reply({"port": server.server_address[1]})
    try:
        for line in commands:
            command = json.loads(line)
            if "sequential" in command:
                reply([
                    service.estimate_sequential(MODEL, Query.from_pairs(pairs))
                    for pairs in command["sequential"]
                ])
            elif "cpu" in command:
                reply(time.process_time())
            elif "stop" in command:
                break
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=10)
        report = {
            "describe": service.models()[0],
            "cache": service.cache.stats().as_dict(),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "spans": tracer.export(),
            "queue_waits": list(probe.queue_waits),
        }
        service.close()
        tracer.restore()
        reply(report)


class ServerProcess:
    """Handle on the serving child process."""

    def __init__(self, spec: dict) -> None:
        launched = time.perf_counter()
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(ROOT), str(ROOT / "src")]))
        self.process = subprocess.Popen(
            [sys.executable, "-m", "perfbench.server",
             json.dumps({**spec, "launched": launched})],
            cwd=ROOT, env=env, stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
        )
        try:
            self.port = self._receive()["port"]
        except BaseException:
            self.kill()
            raise

    def _receive(self):
        line = self.process.stdout.readline()
        if not line:
            raise RuntimeError(f"serving process exited with {self.process.wait()}")
        return json.loads(line)

    def sequential(self, queries) -> list[float]:
        self.process.stdin.write(json.dumps({"sequential": [query_pairs(q) for q in queries]}) + "\n")
        self.process.stdin.flush()
        return self._receive()

    def cpu_s(self) -> float:
        """CPU seconds the process has used, from its launch."""
        self.process.stdin.write(json.dumps({"cpu": True}) + "\n")
        self.process.stdin.flush()
        return self._receive()

    def stop(self) -> dict:
        """Stop the server and wait for the process; returns its report."""
        try:
            self.process.stdin.write(json.dumps({"stop": True}) + "\n")
            self.process.stdin.flush()
            return self._receive()
        finally:
            self.kill()

    def kill(self) -> None:
        """Wait for the process to end, killing it if it does not."""
        try:
            self.process.wait(timeout=10)
        except subprocess.TimeoutExpired:
            self.process.kill()
            self.process.wait(timeout=10)
        for stream in (self.process.stdin, self.process.stdout):
            stream.close()


def query_pairs(query) -> list[list]:
    """A query as the ``predicates`` list of a ``POST /estimate`` body."""
    return [[p.column, p.op.value, float(p.value)] for p in query.predicates]


if __name__ == "__main__":
    # Replies go to the original stdout; anything else that prints goes
    # to stderr, so it cannot corrupt the protocol.
    replies = os.fdopen(os.dup(sys.stdout.fileno()), "w")
    os.dup2(sys.stderr.fileno(), sys.stdout.fileno())
    serve(json.loads(sys.argv[1]), sys.stdin, replies)
