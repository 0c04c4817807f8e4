"""Tests of the benchmark itself, on tiny inputs.

Run from the root of the repository::

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import os
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import run as bench  # noqa: E402
from checks import check_jobs, check_routing  # noqa: E402
from tracing import LAYER_ENTRY_POINTS, SpanRecorder, aggregate  # noqa: E402
from workloads import build, fingerprint, service_submissions  # noqa: E402


def _span(id_, name, start, end, parent=None):
    return {"id": id_, "name": name, "start": start, "end": end, "parent": parent, "run_id": ""}


class TestAggregate:
    def test_self_time_subtracts_children(self):
        spans = [
            _span("p:0", "outer", 0.0, 10.0),
            _span("p:1", "inner", 1.0, 3.0, "p:0"),
            _span("p:2", "inner", 5.0, 6.0, "p:0"),
        ]
        agg = aggregate(spans)
        assert agg["outer"] == {"calls": 1, "total_s": 10.0, "self_s": 7.0}
        assert agg["inner"] == {"calls": 2, "total_s": 3.0, "self_s": 3.0}

    def test_overlapping_children_are_covered_once(self):
        spans = [
            _span("p:0", "outer", 0.0, 10.0),
            _span("p:1", "a", 1.0, 4.0, "p:0"),
            _span("p:2", "b", 3.0, 5.0, "p:0"),
            _span("p:3", "c", 9.0, 12.0, "p:0"),  # clipped to the parent
        ]
        assert aggregate(spans)["outer"]["self_s"] == pytest.approx(10.0 - 4.0 - 1.0)

    def test_recursion_is_not_counted_twice_in_total(self):
        spans = [
            _span("p:0", "route_net", 0.0, 10.0),
            _span("p:1", "search", 0.0, 2.0, "p:0"),
            _span("p:2", "route_net", 4.0, 8.0, "p:0"),
            _span("p:3", "search", 4.0, 5.0, "p:2"),
        ]
        row = aggregate(spans)["route_net"]
        assert row["calls"] == 2
        assert row["total_s"] == 10.0
        assert row["self_s"] == pytest.approx((10.0 - 2.0 - 4.0) + (4.0 - 1.0))

    def test_processes_do_not_share_parents(self):
        spans = [
            _span("1:0", "job", 0.0, 4.0),
            _span("2:0", "job", 0.0, 4.0),
            _span("2:1", "step", 1.0, 2.0, "2:0"),
        ]
        assert aggregate(spans)["job"]["self_s"] == pytest.approx(4.0 + 3.0)


class _Toy:
    def outer(self, n):
        return [self.inner(i) for i in range(n)]

    def inner(self, i):
        return i * 2


class TestRecorder:
    def test_parent_links_and_restore(self):
        entry = [(__name__, "_Toy.outer", "toy.outer"), (__name__, "_Toy.inner", "toy.inner")]
        original = _Toy.__dict__["inner"]
        rec = SpanRecorder()
        rec.run_id = "r1"
        rec.install(entry)
        try:
            assert _Toy().outer(3) == [0, 2, 4]
        finally:
            rec.uninstall()
        assert _Toy.__dict__["inner"] is original
        spans = rec.to_dicts()
        assert [s["name"] for s in spans] == ["toy.outer"] + ["toy.inner"] * 3
        assert spans[0]["parent"] is None
        assert all(s["parent"] == spans[0]["id"] for s in spans[1:])
        assert all(s["run_id"] == "r1" for s in spans)
        assert all(s["end"] >= s["start"] for s in spans)

    def test_missing_entry_points_are_skipped(self):
        rec = SpanRecorder()
        rec.install([(__name__, "_Toy.gone", "toy.gone"), ("no_such_module", "f", "x")])
        assert rec._installed == []

    def test_dump_continues_sequence(self, tmp_path):
        rec = SpanRecorder()
        rec.record("a", lambda: None, (), {})
        path = str(tmp_path / "spans.jsonl")
        rec.dump(path)
        rec.record("b", lambda: None, (), {})
        rec.dump(path)
        ids = [json.loads(line)["id"] for line in open(path)]
        assert len(set(ids)) == 2


def _route(traced: bool):
    from repro import obs

    grid, netlist, router = build("Test1", 0.1, 7)
    if not traced:
        return netlist, router.route_all(), None
    rec = SpanRecorder()
    rec.install(LAYER_ENTRY_POINTS)
    try:
        with obs.session():
            result = router.route_all()
    finally:
        rec.uninstall()
    return netlist, result, rec


class TestTracedRun:
    def test_traced_routing_reproduces_untraced(self):
        _, plain, _ = _route(traced=False)
        netlist, traced, rec = _route(traced=True)
        assert fingerprint(traced) == fingerprint(plain)
        assert traced.colorings == plain.colorings
        assert check_routing(traced, netlist) == []
        agg = aggregate(rec.to_dicts())
        assert agg["router.route_all"]["calls"] == 1
        assert agg["router.route_net"]["calls"] >= len(netlist)
        assert agg["astar.search"]["found"] <= agg["astar.search"]["calls"]
        # Every wrapped entry point was restored.
        from repro.router import SadpRouter

        assert not hasattr(SadpRouter.route_all, "__wrapped__")

    def test_per_layer_report_names_every_metric(self):
        netlist, _, rec = _route(traced=True)
        from workloads import Pass

        values = bench.per_layer(rec.to_dicts(), {}, Pass(), 1.0)
        assert list(values) == [name for name, _ in bench.PER_LAYER]
        assert values["router.route_all.unattributed_s"] > 0


class TestChecks:
    def test_broken_routes_are_caught(self):
        netlist, result, _ = _route(traced=False)
        routed = [r for r in result.routes.values() if r.success and len(r.segments) > 2]
        a, b = routed[0], routed[1]
        b.segments = b.segments + [a.segments[0]]
        a.segments, a.vias = a.segments[:1], []
        problems = check_routing(result, netlist)
        assert any("claimed by nets" in p for p in problems)
        assert any(f"net {a.net_id} does not" in p for p in problems)
        assert any(f"net {b.net_id} is not one connected path" in p for p in problems)

    def test_job_checks(self):
        subs = service_submissions(3, 4, 0.5)
        assert subs[1] == subs[3] and subs[0] != subs[2]
        snaps = [
            {"job_id": f"j{i}", "status": "done", "artifact_hashes": {"route": "h"}}
            for i in range(4)
        ]
        assert check_jobs(snaps, subs) == [[]] * 4
        snaps[3] = dict(snaps[3], artifact_hashes={"route": "other"})
        snaps[0] = dict(snaps[0], status="failed")
        problems = check_jobs(snaps, subs)
        assert problems[0] and problems[3] and not problems[1]


def test_tail_keeps_ten_samples_beyond():
    values = [float(i) for i in range(1, 121)]
    assert bench.tail(values) == (108.0, "p90 of 120")
    assert bench.tail([3.0, 1.0, 8.0]) == (3.0, "p50 of 3")


def test_benchmark_json_matches_the_metrics_printed():
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(bench.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(bench.PER_LAYER)
    assert sorted(w["name"] for w in spec["workloads"]) == sorted(bench.WORKLOADS)
