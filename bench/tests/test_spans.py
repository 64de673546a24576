from nocbench.spans import (
    Recorder, child_coverage, covered_ns, layer_self_times_ns, self_times_ns,
)


def span(name, layer, start, end, parent=None):
    return {"name": name, "layer": layer, "start_ns": start, "end_ns": end,
            "parent": parent, "workload": "w"}


def test_nested_self_time():
    spans = [
        span("root", "bench", 0, 100),
        span("sweep", "eval", 10, 90, parent=0),
        span("point", "netsim", 20, 70, parent=1),
    ]
    assert self_times_ns(spans) == [20, 30, 50]
    assert layer_self_times_ns(spans) == {"bench": 20, "eval": 30, "netsim": 50}


def test_overlapping_siblings_are_counted_once():
    spans = [
        span("root", "bench", 0, 100),
        span("a", "eval", 10, 60, parent=0),
        span("b", "serve", 40, 80, parent=0),
    ]
    # Children cover [10, 80): 70 ns, not 50 + 40.
    assert self_times_ns(spans)[0] == 30
    assert child_coverage(spans, 0) == 0.7


def test_zero_length_span():
    spans = [span("root", "bench", 5, 5), span("kid", "eval", 5, 5, parent=0)]
    assert self_times_ns(spans) == [0, 0]
    assert child_coverage(spans, 0) == 1.0


def test_child_outside_parent_is_clipped():
    spans = [span("root", "bench", 10, 20), span("late", "eval", 15, 40, parent=0)]
    assert self_times_ns(spans) == [5, 25]


def test_covered_ns_merges_and_skips_empty():
    assert covered_ns([(0, 10), (5, 15), (20, 30), (25, 25), (40, 35)]) == 25
    assert covered_ns([]) == 0


def test_recorder_nests_by_call_order():
    ticks = iter(range(0, 1000, 10))
    rec = Recorder("w", clock=lambda: next(ticks))
    with rec.span("outer", "bench") as outer:
        with rec.span("inner", "eval"):
            pass
        rec.add("rebuilt", "serve", 1, 2, rec.current)
    assert [s["parent"] for s in rec.spans] == [None, outer, outer]
    assert rec.spans[0]["start_ns"] == 0 and rec.spans[0]["end_ns"] == 30
    assert all(s["workload"] == "w" for s in rec.spans)


def test_disabled_recorder_keeps_nothing():
    rec = Recorder("w", enabled=False)
    with rec.span("outer", "bench") as index:
        assert index is None
        assert rec.add("x", "eval", 0, 1) is None
    assert rec.spans == []
