"""HTTP front end round-trips against an ephemeral server + CLI selftest."""

from __future__ import annotations

import http.client
import io
import json
import socket
import threading
import urllib.error
import urllib.request

import pytest

from repro.estimators.iam import IAMEstimator
from repro.query.query import Query
from repro.serve import (
    EstimationService,
    ServeConfig,
    Telemetry,
    make_server,
    start_in_background,
)
from repro.serve.http import parse_estimate_request
from repro.serve.service import EstimateResult
from repro.errors import OverloadError, QueryError, SchemaError, UnknownModelError


@pytest.fixture(scope="module")
def http_env(fitted_iam, twi_small):
    estimator = IAMEstimator(config=fitted_iam.config)
    estimator.model = fitted_iam
    estimator._table = twi_small
    service = EstimationService(
        ServeConfig(max_batch_size=8, max_wait_ms=2.0, fallback_estimator=None)
    )
    service.register("twi", estimator)
    server = make_server(service, port=0)
    start_in_background(server)
    base = f"http://127.0.0.1:{server.server_address[1]}"
    yield service, base
    server.shutdown()
    server.server_close()
    service.close()


def _request(url: str, payload: dict | None = None) -> tuple[int, dict]:
    data = None if payload is None else json.dumps(payload).encode()
    req = urllib.request.Request(url, data=data, headers={"Content-Type": "application/json"})
    try:
        with urllib.request.urlopen(req, timeout=30) as response:
            return response.status, json.loads(response.read().decode())
    except urllib.error.HTTPError as exc:
        return exc.code, json.loads(exc.read().decode())


class TestHTTPEndpoints:
    def test_healthz(self, http_env):
        _, base = http_env
        status, body = _request(f"{base}/healthz")
        assert status == 200
        assert body == {"status": "ok", "models": 1}

    def test_estimate_round_trip_matches_sequential(self, http_env, twi_workload):
        service, base = http_env
        query = twi_workload.queries[0]
        payload = {
            "model": "twi",
            "predicates": [[p.column, p.op.value, float(p.value)] for p in query],
        }
        status, body = _request(f"{base}/estimate", payload)
        assert status == 200
        assert body["model"] == "twi"
        assert body["selectivity"] == service.estimate_sequential("twi", query)
        assert body["cardinality"] == pytest.approx(
            body["selectivity"] * service._require_model("twi").num_rows
        )
        assert body["source"] in ("batch", "cache")
        assert body["degraded"] is False

    def test_models_and_metrics(self, http_env, twi_workload):
        service, base = http_env
        query = twi_workload.queries[1]
        payload = {
            "model": "twi",
            "predicates": [[p.column, p.op.value, float(p.value)] for p in query],
        }
        _request(f"{base}/estimate", payload)
        _request(f"{base}/estimate", payload)  # cache hit

        status, body = _request(f"{base}/models")
        assert status == 200
        assert body["models"][0]["name"] == "twi"

        status, metrics = _request(f"{base}/metrics")
        assert status == 200
        assert metrics["cache"]["hits"] >= 1
        assert metrics["telemetry"]["counters"]["requests"] >= 2
        assert "estimate" in metrics["telemetry"]["latency"]

    def test_unknown_model_404(self, http_env):
        _, base = http_env
        status, body = _request(
            f"{base}/estimate", {"model": "nope", "predicates": [["x", "<=", 1.0]]}
        )
        assert status == 404
        assert "nope" in body["error"]

    def test_malformed_bodies_400(self, http_env):
        _, base = http_env
        for payload in (
            {"predicates": [["x", "<=", 1.0]]},  # missing model
            {"model": "twi"},  # missing predicates
            {"model": "twi", "predicates": []},  # empty
            {"model": "twi", "predicates": [["x", "<=="]]},  # malformed triple
            {"model": "twi", "predicates": [["x", "<==", 1.0]]},  # bad operator
            {"model": "twi", "predicates": [["x", "<=", "one"]]},  # non-numeric
        ):
            status, body = _request(f"{base}/estimate", payload)
            assert status == 400, payload
            assert "error" in body

    def test_non_finite_values_400(self, http_env):
        _, base = http_env
        for value in (float("nan"), float("inf"), float("-inf")):
            # json.dumps writes the NaN / Infinity literals json.loads accepts
            status, body = _request(
                f"{base}/estimate",
                {"model": "twi", "predicates": [["latitude", "<=", value]]},
            )
            assert status == 400, value
            assert "finite" in body["error"]

    def test_overflowing_integer_400(self, http_env):
        _, base = http_env
        status, body = _request(
            f"{base}/estimate",
            {"model": "twi", "predicates": [["latitude", "<=", 10**400]]},
        )
        assert status == 400
        assert "finite" in body["error"]

    def test_unknown_column_400(self, http_env):
        service, base = http_env
        status, body = _request(
            f"{base}/estimate",
            {"model": "twi", "predicates": [["no_such_column", "<=", 1.0]]},
        )
        assert status == 400
        assert "no_such_column" in body["error"]

    def test_unknown_paths_404(self, http_env):
        _, base = http_env
        status, _ = _request(f"{base}/nope")
        assert status == 404
        status, _ = _request(f"{base}/nope", {"x": 1})
        assert status == 404


class TestParseEstimateRequest:
    def test_valid(self):
        model, query = parse_estimate_request(
            {"model": "m", "predicates": [["x", "<=", 3], ["y", ">=", 1.5]]}
        )
        assert model == "m"
        assert len(query) == 2

    def test_rejects_non_object(self):
        with pytest.raises(QueryError):
            parse_estimate_request([1, 2, 3])

    def test_rejects_bool_value(self):
        with pytest.raises(QueryError):
            parse_estimate_request({"model": "m", "predicates": [["x", "<=", True]]})

    @pytest.mark.parametrize(
        "value",
        [float("nan"), float("inf"), float("-inf"), 10**400],
        ids=["nan", "inf", "-inf", "1e400-int"],
    )
    def test_rejects_non_finite_and_overflowing_values(self, value):
        with pytest.raises(QueryError, match="finite"):
            parse_estimate_request({"model": "m", "predicates": [["x", "<=", value]]})


def test_unknown_column_does_not_fail_batch_mates(fitted_iam, twi_small, twi_workload):
    """A bad column is rejected before the batcher, so valid requests
    coalesced with it still answer bitwise-equal to the reference."""
    estimator = IAMEstimator(config=fitted_iam.config)
    estimator.model = fitted_iam
    estimator._table = twi_small
    # A long batching window, so concurrent requests share a batch.
    service = EstimationService(
        ServeConfig(max_batch_size=16, max_wait_ms=50.0, fallback_estimator=None)
    )
    service.register("twi", estimator)
    valid = twi_workload.queries[20:24]
    bad = Query.from_pairs([("no_such_column", "<=", 1.0)])
    reference = [service.estimate_sequential("twi", q) for q in valid]
    outcomes: dict[int, object] = {}
    barrier = threading.Barrier(len(valid) + 2, timeout=30)

    def client(index: int, query: Query) -> None:
        barrier.wait()
        try:
            outcomes[index] = service.estimate("twi", query).selectivity
        except Exception as exc:  # recorded for the assertions below
            outcomes[index] = exc

    jobs = list(enumerate(valid)) + [(len(valid), bad), (len(valid) + 1, bad)]
    threads = [threading.Thread(target=client, args=job) for job in jobs]
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        service.close()
    assert not any(t.is_alive() for t in threads)
    assert [outcomes[i] for i in range(len(valid))] == reference
    assert all(isinstance(outcomes[i], SchemaError) for i in range(len(valid), len(jobs)))


# ----------------------------------------------------------------------
# One socket write per response
# ----------------------------------------------------------------------
class _CountingSocket:
    """An accepted socket that records the size of every write to it."""

    def __init__(self, sock: socket.socket, writes: list[int]):
        self._sock = sock
        self._writes = writes

    def __getattr__(self, name):
        return getattr(self._sock, name)

    def send(self, data) -> int:
        self._writes.append(len(data))
        return self._sock.send(data)

    def sendall(self, data) -> None:
        self._writes.append(len(data))
        self._sock.sendall(data)

    def makefile(self, mode: str, buffering: int):
        if "w" not in mode:
            return self._sock.makefile(mode, buffering)
        # The handler's wfile, built as socket.makefile builds it but
        # over this proxy, so its writes reach send() above.
        raw = socket.SocketIO(self, "wb")
        if buffering == 0:
            return raw
        return io.BufferedWriter(raw, buffering if buffering > 0 else io.DEFAULT_BUFFER_SIZE)


class _StubService:
    """The service surface the HTTP layer uses, answering by model name."""

    def __init__(self):
        self.telemetry = Telemetry()

    def model_names(self) -> list[str]:
        return ["m"]

    def models(self) -> list[dict]:
        return [{"name": "m", "rows": 100}]

    def metrics(self) -> dict:
        return {"telemetry": self.telemetry.snapshot()}

    def estimate(self, model: str, query: Query) -> EstimateResult:
        if model == "busy":
            raise OverloadError("queues full")
        if model != "m":
            raise UnknownModelError(f"no model named {model!r}")
        return EstimateResult(model, 0.25, 25.0, "cache", False, 0.1)


@pytest.fixture
def counting_server():
    """A make_server over a stub service whose connections count writes.

    Yields ``(port, connections)``; each accepted connection appends a
    ``(writes, nodelay)`` pair, ``writes`` growing as the handler writes.
    """
    connections: list[tuple[list[int], bool]] = []
    server = make_server(_StubService(), port=0)
    bound = server.RequestHandlerClass

    class CountingHandler(bound):
        def setup(self):
            writes: list[int] = []
            self.request = _CountingSocket(self.request, writes)
            super().setup()
            nodelay = self.connection.getsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY)
            connections.append((writes, bool(nodelay)))

    server.RequestHandlerClass = CountingHandler
    start_in_background(server)
    yield server.server_address[1], connections
    server.shutdown()
    server.server_close()


class TestOneWritePerResponse:
    def test_keep_alive_responses(self, counting_server):
        port, connections = counting_server
        conn = http.client.HTTPConnection("127.0.0.1", port, timeout=30)
        valid = {"model": "m", "predicates": [["x", "<=", 1.0]]}
        cases = [
            ("POST", "/estimate", valid, 200),
            ("POST", "/estimate", {"model": "m"}, 400),
            ("POST", "/estimate", {**valid, "model": "nope"}, 404),
            ("POST", "/estimate", {**valid, "model": "busy"}, 429),
            ("GET", "/healthz", None, 200),
            ("GET", "/models", None, 200),
            ("GET", "/metrics", None, 200),
            ("GET", "/nope", None, 404),
        ]
        try:
            for method, path, payload, expected in cases:
                body = None if payload is None else json.dumps(payload)
                conn.request(method, path, body=body)
                response = conn.getresponse()
                json.loads(response.read())
                assert response.status == expected, (method, path)
                # the client holds the whole response, so all its writes
                # are recorded; one connection serves every case
                (writes, nodelay), = connections
                assert len(writes) == 1, (method, path, writes)
                assert nodelay
                writes.clear()
        finally:
            conn.close()

    @pytest.mark.parametrize(
        "request_line, status",
        [
            (b"GET /healthz extra HTTP/1.1\r\n", 400),  # malformed request line
            (b"BREW /healthz HTTP/1.1\r\n", 501),  # unsupported method
        ],
    )
    def test_stdlib_error_replies(self, counting_server, request_line, status):
        port, connections = counting_server
        with socket.create_connection(("127.0.0.1", port), timeout=30) as client:
            client.sendall(request_line + b"Host: x\r\n\r\n")
            reply = b""
            while chunk := client.recv(65536):  # the server closes after it
                reply += chunk
        assert reply.startswith(f"HTTP/1.1 {status} ".encode())
        (writes, nodelay), = connections
        assert len(writes) == 1, writes
        assert nodelay


def test_cli_selftest_passes(capsys):
    """The CI smoke entry point: fit, serve, verify, exit 0."""
    from repro.serve.__main__ import main

    assert main(["--selftest", "--rows", "1200"]) == 0
    out = capsys.readouterr().out
    assert "selftest ok" in out
