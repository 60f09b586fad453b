"""Self-time arithmetic and the tracer's bookkeeping."""

import threading

import pytest

from perfbench.spans import Span, Tracer, accounting, covered, layer_self_totals, self_times
from perfbench.workloads import serve_joined


def test_covered_merges_overlaps_and_clips_to_the_parent():
    assert covered([], 0.0, 10.0) == 0.0
    assert covered([(1.0, 3.0), (2.0, 5.0)], 0.0, 10.0) == pytest.approx(4.0)
    assert covered([(1.0, 2.0), (4.0, 6.0)], 0.0, 10.0) == pytest.approx(3.0)
    assert covered([(-5.0, 2.0), (8.0, 20.0)], 0.0, 10.0) == pytest.approx(4.0)
    assert covered([(11.0, 12.0)], 0.0, 10.0) == 0.0


def test_self_time_is_duration_minus_children():
    spans = [
        Span(1, "root", 0.0, 10.0),
        Span(2, "a", 1.0, 4.0, parent=1),
        Span(3, "b", 5.0, 9.0, parent=1),
        Span(4, "a.inner", 2.0, 3.0, parent=2),
    ]
    own = self_times(spans)
    assert own == pytest.approx({1: 3.0, 2: 2.0, 3: 4.0, 4: 1.0})
    # Self times below a root partition its duration.
    assert sum(own.values()) == pytest.approx(10.0)


def test_concurrent_children_are_counted_once_in_the_parent():
    spans = [
        Span(1, "request", 0.0, 10.0),
        Span(2, "x", 0.0, 6.0, parent=1),
        Span(3, "x", 4.0, 8.0, parent=1),
    ]
    assert self_times(spans)[1] == pytest.approx(2.0)
    assert layer_self_totals(spans) == pytest.approx({"request": 2.0, "x": 10.0})


def test_accounting_reports_unclaimed_time_and_leaks():
    spans = [
        Span(1, "root", 0.0, 10.0),
        Span(2, "layer", 1.0, 10.0, parent=1),
        Span(3, "root", 20.0, 30.0),
        Span(4, "layer", 20.0, 30.0, parent=3),
    ]
    report = accounting(spans, [spans[0], spans[2]])
    assert report["e2e_s"] == pytest.approx(20.0)
    assert report["layers_s"] == pytest.approx(19.0)
    assert report["unclaimed_s"] == pytest.approx(1.0)
    assert report["ratio"] == pytest.approx(0.95)
    # A child running past its parent claims more than the parent had.
    leaky = [Span(1, "root", 0.0, 10.0), Span(2, "layer", 0.0, 12.0, parent=1)]
    assert accounting(leaky, [leaky[0]])["ratio"] == pytest.approx(1.2)


def test_bookkeeping_spans_claim_no_layer_time():
    # A served request: the client's wait and round trip are bookkeeping;
    # only the server's handler inside the round trip is layer time.
    spans = [
        Span(1, "loadgen.request", 0.0, 10.0, layer=False),
        Span(2, "loadgen.wait", 0.0, 4.0, parent=1, layer=False),
        Span(3, "serve.http.roundtrip", 4.0, 10.0, parent=1, layer=False),
        Span(4, "serve.http.handler", 5.0, 8.0, parent=3),
    ]
    report = accounting(spans, [spans[0]])
    assert report["layers_s"] == pytest.approx(3.0)
    assert report["unclaimed_s"] == pytest.approx(7.0)
    assert report["ratio"] == pytest.approx(0.3)


def test_a_served_request_without_its_handler_fails_the_join():
    trips = [Span(1, "serve.http.roundtrip", 0.0, 10.0, request="0", layer=False),
             Span(2, "serve.http.roundtrip", 10.0, 20.0, request="1", layer=False)]
    handler = Span(3, "serve.http.handler", 2.0, 8.0, request="0")
    assert not serve_joined(trips, {"0": handler})
    # Joined, the handler nests in its round trip and claims its time.
    late = Span(4, "serve.http.handler", 12.0, 18.0, request="1")
    assert serve_joined(trips, {"0": handler, "1": late})
    assert (handler.parent, late.parent) == (1, 2)
    assert accounting(trips + [handler, late], trips)["ratio"] == pytest.approx(0.6)
    # A handler that starts before its request was sent is not its own.
    early = Span(5, "serve.http.handler", 9.0, 18.0, request="1")
    assert not serve_joined(trips, {"0": handler, "1": early})


def test_tracer_nests_per_thread_and_inherits_request_ids():
    tracer = Tracer()
    with tracer.span("outer", request="r1"):
        with tracer.span("inner"):
            pass

    def other():
        with tracer.span("elsewhere"):
            pass

    worker = threading.Thread(target=other)
    worker.start()
    worker.join(timeout=10)
    assert not worker.is_alive()
    by_name = {s.name: s for s in tracer.spans}
    assert by_name["inner"].parent == by_name["outer"].id
    assert by_name["inner"].request == "r1"
    assert by_name["elsewhere"].parent is None


def test_wrap_records_spans_until_restored_and_disabled_records_nothing():
    class Layer:
        def work(self, x):
            return x + 1

    tracer = Tracer()
    tracer.wrap(Layer, "work", "layer.work")
    assert Layer().work(1) == 2
    tracer.enabled = False
    Layer().work(1)
    tracer.restore()
    Layer().work(1)
    assert [s.name for s in tracer.spans] == ["layer.work"]


def test_unpatched_runs_the_originals_then_reinstalls():
    class Layer:
        def work(self, x):
            return x + 1

    original = Layer.work
    tracer = Tracer()
    tracer.wrap(Layer, "work", "layer.work")
    with tracer.unpatched():
        assert Layer.work is original
        Layer().work(1)
    assert Layer.work is not original
    Layer().work(1)
    assert [s.name for s in tracer.spans] == ["layer.work"]
    tracer.restore()
    assert Layer.work is original


def test_adopt_reids_foreign_spans_and_keeps_their_links():
    local = Tracer()
    with local.span("mine"):
        pass
    remote = Tracer()
    with remote.span("theirs"):
        with remote.span("child"):
            pass
    adopted = local.adopt(remote.export())
    ids = [s.id for s in local.spans]
    assert len(set(ids)) == len(ids)
    by_name = {s.name: s for s in adopted}
    assert by_name["child"].parent == by_name["theirs"].id
