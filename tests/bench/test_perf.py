"""The perf bench: payload shape, regression gate, JSON row export."""

import json

import pytest

from repro import obs
from repro.bench.perf import (
    check_against_baseline,
    check_core_equivalence,
    check_guidance_equivalence,
    render_phase_table,
    run_perf,
)
from repro.bench.runner import BenchRow, append_rows_json, rows_to_json


def _row(circuit="Test1", cpu=1.0):
    return BenchRow(
        circuit=circuit,
        router="ours",
        num_nets=10,
        routability_pct=100.0,
        overlay_nm=40.0,
        overlay_units=1.0,
        conflicts=0,
        cpu_s=cpu,
    )


class TestPerfRun:
    @pytest.fixture(scope="class")
    def payload(self):
        return run_perf(
            workloads=["Test1"],
            scales={"Test1": 0.06},
            rounds=1,
            include_phases=False,
            verbose=False,
        )

    def test_payload_shape(self, payload):
        assert payload["schema"] == "repro-bench-perf/1"
        (wl,) = payload["workloads"]
        assert wl["circuit"] == "Test1"
        assert wl["name"] == "Test1"  # explicit name on every row
        for mode in ("fast", "reference", "guided"):
            assert wl[mode]["route_all_s"] > 0
            assert wl[mode]["expansions"] > 0
            assert wl[mode]["expansions_per_s"] > 0
            assert wl[mode]["expansions_per_search"] > 0
        assert "speedup" in wl and wl["speedup"] > 0
        assert "walltime_reduction_pct" in wl
        assert "summary" in payload

    def test_modes_agree_on_quality(self, payload):
        (wl,) = payload["workloads"]
        # Equivalent implementations: identical routing quality. The
        # reference sample ran the object core engine and the dict A*;
        # the fast sample ran the SoA core and flat-array A*.
        assert wl["fast"]["routability_pct"] == wl["reference"]["routability_pct"]
        assert wl["fast"]["overlay_units"] == wl["reference"]["overlay_units"]
        assert wl["fast"]["expansions"] == wl["reference"]["expansions"]
        assert check_core_equivalence(payload) == []

    def test_guidance_ab_fields(self, payload):
        (wl,) = payload["workloads"]
        assert "guidance_speedup" in wl
        assert wl["expansion_reduction"] >= 1.0
        # guided counters appear once the auto trigger actually trips;
        # at smoke scale most searches finish under the trigger, so the
        # counters may legitimately be absent (= zero)
        assert wl["guided"].get("guided_searches", 0) >= 0
        # pruning is invisible to the result, cheaper on expansions
        assert wl["guided"]["routability_pct"] == wl["fast"]["routability_pct"]
        assert wl["guided"]["overlay_units"] == wl["fast"]["overlay_units"]
        assert wl["guided"]["searches"] == wl["fast"]["searches"]
        assert wl["guided"]["expansions"] <= wl["fast"]["expansions"]
        summary = payload["summary"]
        assert "geomean_guidance_speedup" in summary
        assert summary["geomean_expansion_reduction"] >= 1.0
        assert check_guidance_equivalence(payload) == []

    def test_self_check_passes(self, payload):
        assert check_against_baseline(payload, payload, tolerance=0.30) == []

    def test_refuses_to_run_instrumented(self):
        with obs.session():
            with pytest.raises(RuntimeError):
                run_perf(workloads=["Test1"], rounds=1, verbose=False)


class TestPhaseSplit:
    def test_each_sample_carries_its_own_split(self):
        payload = run_perf(
            workloads=["Test1"],
            scales={"Test1": 0.06},
            rounds=1,
            include_reference=True,
            include_phases=True,
            verbose=False,
        )
        (wl,) = payload["workloads"]
        # phases used to be emitted once per workload (misattributing
        # the fast run's profile to every variant); now each sample
        # carries the split of its own instrumented run.
        assert "phases_s" not in wl
        for variant in ("fast", "reference", "guided"):
            phases = wl[variant]["phases_s"]
            # The commit bucket closes the old accounting gap: every
            # phase is a disjoint slice of the instrumented run, so the
            # split never sums past the run's route_all wall time.
            assert set(phases) == {"search", "graph", "flip", "commit"}
            assert wl[variant]["phases_route_all_s"] > 0
            assert sum(phases.values()) <= wl[variant]["phases_route_all_s"]
            assert phases["commit"] > 0
        table = render_phase_table(payload)
        lines = table.splitlines()
        assert len(lines) == 2 + 3  # header + rule + one row per variant
        for variant in ("fast", "reference", "guided"):
            assert any(variant in line for line in lines[2:])

    def test_render_phase_table_skips_unsplit_samples(self):
        payload = {
            "workloads": [
                {
                    "circuit": "Test1",
                    "fast": {"route_all_s": 1.0},  # no phases_s
                }
            ]
        }
        assert len(render_phase_table(payload).splitlines()) == 2


class TestGuidanceGate:
    def test_gate_catches_metric_and_expansion_mismatch(self):
        payload = {
            "workloads": [
                {
                    "circuit": "Test1",
                    "fast": {
                        "routability_pct": 100.0,
                        "overlay_units": 4.0,
                        "searches": 50,
                        "expansions": 1000,
                    },
                    "guided": {
                        "routability_pct": 99.0,
                        "overlay_units": 4.0,
                        "searches": 50,
                        "expansions": 1200,
                    },
                }
            ]
        }
        problems = check_guidance_equivalence(payload)
        assert len(problems) == 2  # routability mismatch + more expansions

    def test_gate_passes_without_guided_sample(self):
        payload = {"workloads": [{"circuit": "Test1", "fast": {}}]}
        assert check_guidance_equivalence(payload) == []


class TestCoreEquivalenceGate:
    def _payload(self, ref_overlay=3.0, ref_searches=12):
        return {
            "workloads": [
                {
                    "circuit": "Test1",
                    "fast": {
                        "routability_pct": 100.0,
                        "overlay_units": 3.0,
                        "searches": 12,
                    },
                    "reference": {
                        "routability_pct": 100.0,
                        "overlay_units": ref_overlay,
                        "searches": ref_searches,
                    },
                }
            ]
        }

    def test_identical_metrics_pass(self):
        assert check_core_equivalence(self._payload()) == []

    def test_overlay_drift_fails(self):
        problems = check_core_equivalence(self._payload(ref_overlay=4.0))
        assert problems and "overlay_units" in problems[0]

    def test_search_count_drift_fails(self):
        problems = check_core_equivalence(self._payload(ref_searches=13))
        assert problems and "searches" in problems[0]

    def test_passes_without_reference_sample(self):
        payload = {"workloads": [{"circuit": "Test1", "fast": {}}]}
        assert check_core_equivalence(payload) == []


class TestRegressionGate:
    def _payload(self, speedup, phases=None):
        wl = {"circuit": "Test1", "speedup": speedup}
        if phases is not None:
            wl["phase_speedups"] = phases
        return {
            "schema": "repro-bench-perf/1",
            "workloads": [wl],
        }

    def test_within_tolerance_passes(self):
        assert (
            check_against_baseline(
                self._payload(1.10), self._payload(1.40), tolerance=0.30
            )
            == []
        )

    def test_regression_fails(self):
        problems = check_against_baseline(
            self._payload(0.90), self._payload(1.40), tolerance=0.30
        )
        assert problems and "Test1" in problems[0]

    def test_disjoint_workloads_flagged(self):
        current = {"workloads": [{"circuit": "Test2", "speedup": 1.5}]}
        problems = check_against_baseline(current, self._payload(1.4))
        assert problems

    def test_phase_ratio_regression_fails(self):
        """A per-phase core ratio collapse fails the gate even when the
        end-to-end speedup still passes."""
        current = self._payload(1.40, phases={"graph": 0.7, "flip": 1.3})
        baseline = self._payload(1.40, phases={"graph": 1.5, "flip": 1.3})
        problems = check_against_baseline(current, baseline, tolerance=0.30)
        assert len(problems) == 1
        assert "graph-phase" in problems[0]

    def test_phase_within_tolerance_passes(self):
        current = self._payload(1.40, phases={"commit": 1.1})
        baseline = self._payload(1.40, phases={"commit": 1.3})
        assert check_against_baseline(current, baseline, 0.30) == []

    def test_phases_missing_on_either_side_are_skipped(self):
        current = self._payload(1.40, phases={"graph": 0.5})
        baseline = self._payload(1.40)  # no phases recorded
        assert check_against_baseline(current, baseline, 0.30) == []
        assert check_against_baseline(baseline, current, 0.30) == []


class TestRowsJson:
    def test_rows_to_json_round_trips(self):
        doc = json.loads(rows_to_json([_row()], caption="t", scale=0.1))
        assert doc["schema"] == "repro-bench-rows/1"
        assert doc["caption"] == "t"
        (row,) = doc["rows"]
        assert row["circuit"] == "Test1"
        assert row["scale"] == 0.1
        assert row["cpu_s"] == 1.0

    def test_append_accumulates(self, tmp_path):
        path = tmp_path / "table.json"
        append_rows_json(path, [_row(cpu=1.0)], scale=0.1)
        append_rows_json(path, [_row("Test2", cpu=2.0)], scale=0.2)
        doc = json.loads(path.read_text())
        assert [r["circuit"] for r in doc["rows"]] == ["Test1", "Test2"]
        assert [r["scale"] for r in doc["rows"]] == [0.1, 0.2]
