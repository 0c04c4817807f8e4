"""Perf-bench ledger integration: recording, gating, provenance."""

from repro.bench.perf import record_to_ledger, run_perf
from repro.obs.ledger import Ledger


def _payload(wall_s=0.5, expansions=1000, phases=None):
    wl = {
        "circuit": "Test1",
        "scale": 0.2,
        "seed": 2014,
        "fast": {
            "route_all_s": wall_s,
            "expansions": expansions,
            "searches": 21,
            "phases_s": phases or {"search": wall_s * 0.6},
        },
    }
    return {
        "schema": "repro-bench-perf/1",
        "config": {"rounds": 1, "seed": 2014},
        "workloads": [wl],
    }


class TestRecordToLedger:
    def test_appends_one_record_per_workload(self, tmp_path):
        problems = record_to_ledger(_payload(), ledger_dir=tmp_path / "runs")
        assert problems == []
        with Ledger(tmp_path / "runs") as led:
            record = led.history()[0]
        assert record.command == "bench-perf"
        assert record.workload == "Test1@0.2"
        assert record.counters["astar_nodes_expanded_total"] == 1000.0
        assert record.phases["search"] > 0

    def test_gate_passes_on_equal_runs(self, tmp_path):
        root = tmp_path / "runs"
        assert record_to_ledger(_payload(), ledger_dir=root) == []
        assert record_to_ledger(_payload(), ledger_dir=root, gate=True) == []

    def test_gate_flags_counter_regression(self, tmp_path):
        root = tmp_path / "runs"
        assert record_to_ledger(_payload(expansions=1000), ledger_dir=root) == []
        problems = record_to_ledger(
            _payload(expansions=2000), ledger_dir=root, gate=True
        )
        assert problems
        assert "regression" in problems[0]
        assert "astar_nodes_expanded_total" in problems[0]

    def test_gate_without_baseline_is_quiet(self, tmp_path):
        problems = record_to_ledger(
            _payload(), ledger_dir=tmp_path / "runs", gate=True
        )
        assert problems == []

    def test_gate_ignores_records_with_other_config(self, tmp_path):
        root = tmp_path / "runs"
        base = _payload(expansions=1000)
        base["config"]["rounds"] = 9  # different config hash
        assert record_to_ledger(base, ledger_dir=root) == []
        problems = record_to_ledger(
            _payload(expansions=2000), ledger_dir=root, gate=True
        )
        assert problems == []  # not comparable, so nothing to gate against


class TestRunPerfPayload:
    def test_payload_carries_provenance(self):
        payload = run_perf(
            workloads=("Test1",),
            scales={"Test1": 0.08},
            rounds=1,
            include_reference=False,
            include_guidance=False,
            include_phases=False,
            verbose=False,
        )
        prov = payload["provenance"]
        assert "repro" in prov
        assert "python" in prov
        assert "numpy" in prov
