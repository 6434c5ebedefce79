"""Metrics registry: instrument identity, labels, aggregation."""

import json

import pytest

from repro.obs import MetricsRegistry


def test_counter_basic():
    reg = MetricsRegistry()
    c = reg.counter("mpi_messages")
    c.inc()
    c.inc(4)
    assert c.value == 5


def test_counter_cannot_decrease():
    reg = MetricsRegistry()
    with pytest.raises(ValueError):
        reg.counter("n").inc(-1)


def test_counter_labels_are_distinct_instruments():
    reg = MetricsRegistry()
    a = reg.counter("collectives", op="bcast")
    b = reg.counter("collectives", op="barrier")
    a.inc(3)
    b.inc(1)
    assert a.value == 3 and b.value == 1
    assert sum(c.value for c in reg.counters("collectives")) == 4


def test_counter_handle_is_cached():
    """Hot paths keep a handle and mutate ``.value`` directly; the same
    (name, labels) must resolve to the same object regardless of label
    order."""
    reg = MetricsRegistry()
    a = reg.counter("x", phase="solve", technique="CR")
    b = reg.counter("x", technique="CR", phase="solve")
    assert a is b
    a.value += 2
    assert reg.counter("x", phase="solve", technique="CR").value == 2


def test_gauge_set_inc_dec():
    reg = MetricsRegistry()
    g = reg.gauge("queue_depth")
    g.set(7.0)
    g.dec(2.0)
    g.inc(1.0)
    assert g.value == 6.0


def test_histogram_observe_and_summary():
    reg = MetricsRegistry()
    h = reg.histogram("phase_seconds", phase="shrink")
    for v in (0.5, 1.5, 2.5):
        h.observe(v)
    assert h.count == 3
    assert h.sum == pytest.approx(4.5)
    assert h.min == 0.5 and h.max == 2.5


def test_histogram_buckets_cumulative():
    reg = MetricsRegistry()
    h = reg.histogram("lat", buckets=(1.0, 10.0))
    h.observe(0.5)
    h.observe(5.0)
    h.observe(50.0)   # beyond the last edge: only count/sum see it
    assert h.bucket_counts == [1, 2]
    assert h.count == 3


def test_counters_query_by_name():
    reg = MetricsRegistry()
    reg.counter("collectives", op="bcast").inc()
    reg.counter("collectives", op="agree").inc(2)
    reg.counter("other").inc(9)
    by_op = {dict(c.labels)["op"]: c.value
             for c in reg.counters("collectives")}
    assert by_op == {"bcast": 1, "agree": 2}
    assert len(reg.counters()) == 3


def test_to_dict_round_trips_json():
    reg = MetricsRegistry()
    reg.counter("messages", technique="RC").inc(3)
    reg.gauge("depth").set(2)
    reg.histogram("phase_seconds", phase="merge").observe(0.25)
    doc = json.loads(json.dumps(reg.to_dict()))
    assert doc["counters"][0]["labels"] == {"technique": "RC"}
    assert doc["gauges"][0]["value"] == 2
    assert doc["histograms"][0]["count"] == 1
