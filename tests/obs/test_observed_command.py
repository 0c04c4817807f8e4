"""CLI observability wiring: the ledger default, obs subcommands, prom flag."""

import json

import pytest

from repro import obs
from repro.cli import main
from repro.obs.ledger import Ledger


@pytest.fixture
def netlist_file(tmp_path):
    path = tmp_path / "nets.txt"
    path.write_text("n0 L0 2,2 -> L0 17,2\nn1 L0 2,8 -> L0 17,8\n")
    return str(path)


def _route(netlist_file, *extra):
    return main(
        ["route", netlist_file, "--width", "24", "--height", "24", *extra]
    )


class TestLedgerRecording:
    def test_route_records_by_default(self, netlist_file, tmp_path, monkeypatch):
        ledger_dir = tmp_path / "runs"
        monkeypatch.setenv("REPRO_LEDGER_DIR", str(ledger_dir))
        assert _route(netlist_file) == 0
        with Ledger(ledger_dir) as led:
            runs = led.history()
        assert len(runs) == 1
        record = runs[0]
        assert record.command == "route"
        assert record.outcome == "ok"
        assert record.wall_s > 0
        assert record.counters.get("nets_routed_total") == 2.0
        assert "search" in record.phases
        assert record.resources.get("peak_rss_mb", 0) > 0
        assert "repro" in record.provenance

    def test_no_ledger_opts_out(self, netlist_file, tmp_path, monkeypatch):
        ledger_dir = tmp_path / "runs"
        monkeypatch.setenv("REPRO_LEDGER_DIR", str(ledger_dir))
        assert _route(netlist_file, "--no-ledger") == 0
        assert not (ledger_dir / "records.jsonl").exists()
        assert obs.get_active() is None  # wiring never leaks the backend

    def test_ledger_dir_flag_beats_env(self, netlist_file, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_LEDGER_DIR", str(tmp_path / "env"))
        explicit = tmp_path / "explicit"
        assert _route(netlist_file, "--ledger-dir", str(explicit)) == 0
        with Ledger(explicit) as led:
            assert len(led) == 1

    def test_bench_records_workload_at_scale(self, tmp_path, monkeypatch):
        ledger_dir = tmp_path / "runs"
        monkeypatch.setenv("REPRO_LEDGER_DIR", str(ledger_dir))
        assert main(["bench", "Test1", "--scale", "0.1"]) == 0
        with Ledger(ledger_dir) as led:
            record = led.history()[0]
        assert record.command == "bench"
        assert record.workload == "Test1@0.1"


class TestLegacyRecords:
    """Records written before the router lost its ``workers``/``shard``
    knobs carry a ``parallel_decision`` field, and their config hash
    covers those knobs. Records of the retired perf harness carry
    command ``bench-perf`` and a config hash over ``guidance``. They
    must stay readable and diffable."""

    def _append_legacy(self, ledger_dir, new, run_id, config_extra, **fields):
        import hashlib

        legacy = new.to_dict()
        config = {**legacy["meta"]["config"], **config_extra}
        legacy["meta"] = {**legacy["meta"], "config": config}
        legacy["config_hash"] = hashlib.sha256(
            json.dumps(config, sort_keys=True, default=str).encode("utf-8")
        ).hexdigest()[:12]
        legacy["run_id"] = run_id
        legacy["ts"] = new.ts - 3600.0
        legacy.update(fields)
        with (ledger_dir / "records.jsonl").open("a", encoding="utf-8") as fh:
            fh.write(json.dumps(legacy, sort_keys=True) + "\n")
        return legacy

    def _new_record(self, netlist_file, ledger_dir, monkeypatch):
        monkeypatch.setenv("REPRO_LEDGER_DIR", str(ledger_dir))
        assert _route(netlist_file) == 0
        with Ledger(ledger_dir) as led:
            return led.history()[0]

    def _legacy_and_new(self, netlist_file, ledger_dir, monkeypatch):
        new = self._new_record(netlist_file, ledger_dir, monkeypatch)
        legacy = self._append_legacy(
            ledger_dir,
            new,
            "r20250101-000000-abcdef",
            {"workers": 1, "shard": "auto"},
            parallel_decision={
                "decision": "serial",
                "reason": "predicted batched fraction 0.095 < threshold 0.35",
            },
        )
        return legacy, new

    def test_legacy_record_loads(self, netlist_file, tmp_path, monkeypatch):
        ledger_dir = tmp_path / "runs"
        legacy, _ = self._legacy_and_new(netlist_file, ledger_dir, monkeypatch)
        with Ledger(ledger_dir) as led:
            record = led.get(legacy["run_id"])
            assert len(led) == 2
        assert record.config_hash == legacy["config_hash"]
        assert record.phases == legacy["phases"]

    def test_obs_show_prints_legacy_record(
        self, netlist_file, tmp_path, monkeypatch, capsys
    ):
        legacy, _ = self._legacy_and_new(
            netlist_file, tmp_path / "runs", monkeypatch
        )
        capsys.readouterr()
        assert main(["obs", "show", legacy["run_id"]]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["run_id"] == legacy["run_id"]
        assert payload["config_hash"] == legacy["config_hash"]

    def test_obs_diff_legacy_against_new_reports_config_change(
        self, netlist_file, tmp_path, monkeypatch, capsys
    ):
        legacy, new = self._legacy_and_new(
            netlist_file, tmp_path / "runs", monkeypatch
        )
        assert legacy["config_hash"] != new.config_hash
        capsys.readouterr()
        assert main(["obs", "diff", legacy["run_id"], new.run_id]) == 0
        out = capsys.readouterr().out
        assert legacy["config_hash"] in out
        assert new.config_hash in out
        assert "configs differ" in out
        assert "verdict:" in out


    def test_bench_perf_record_with_guidance(
        self, netlist_file, tmp_path, monkeypatch, capsys
    ):
        ledger_dir = tmp_path / "runs"
        new = self._new_record(netlist_file, ledger_dir, monkeypatch)
        legacy = self._append_legacy(
            ledger_dir,
            new,
            "r20250102-000000-fedcba",
            {"guidance": "auto"},
            command="bench-perf",
        )
        with Ledger(ledger_dir) as led:
            record = led.get(legacy["run_id"])
        assert record.command == "bench-perf"
        assert record.config_hash == legacy["config_hash"] != new.config_hash

        capsys.readouterr()
        assert main(["obs", "show", legacy["run_id"]]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["command"] == "bench-perf"
        assert payload["meta"]["config"]["guidance"] == "auto"

        assert main(["obs", "diff", legacy["run_id"], new.run_id]) == 0
        out = capsys.readouterr().out
        assert legacy["config_hash"] in out
        assert new.config_hash in out
        assert "configs differ" in out

class TestObsSubcommands:
    def _two_runs(self, netlist_file, ledger_dir, monkeypatch):
        monkeypatch.setenv("REPRO_LEDGER_DIR", str(ledger_dir))
        assert _route(netlist_file) == 0
        assert _route(netlist_file) == 0
        with Ledger(ledger_dir) as led:
            runs = led.history()
        return [r.run_id for r in reversed(runs)]  # oldest first

    def test_history_lists_runs(self, netlist_file, tmp_path, monkeypatch, capsys):
        ids = self._two_runs(netlist_file, tmp_path / "runs", monkeypatch)
        assert main(["obs", "history"]) == 0
        out = capsys.readouterr().out
        for run_id in ids:
            assert run_id in out

    def test_history_empty_ledger(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("REPRO_LEDGER_DIR", str(tmp_path / "none"))
        assert main(["obs", "history"]) == 0
        assert "no runs recorded" in capsys.readouterr().out

    def test_diff_two_comparable_runs(
        self, netlist_file, tmp_path, monkeypatch, capsys
    ):
        run_a, run_b = self._two_runs(netlist_file, tmp_path / "runs", monkeypatch)
        assert main(["obs", "diff", run_a, run_b, "--gate"]) == 0
        out = capsys.readouterr().out
        assert "verdict:" in out
        assert "wall_s" in out
        assert "peak_rss_mb" in out

    def test_diff_json_output(self, netlist_file, tmp_path, monkeypatch, capsys):
        run_a, run_b = self._two_runs(netlist_file, tmp_path / "runs", monkeypatch)
        capsys.readouterr()  # drain the route commands' own output
        assert main(["obs", "diff", run_a, run_b, "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["a"] == run_a
        assert payload["verdict"] in ("ok", "regression")

    def test_diff_gate_fails_on_regression(self, tmp_path, monkeypatch, capsys):
        from repro.obs.ledger import make_record

        ledger_dir = tmp_path / "runs"
        monkeypatch.setenv("REPRO_LEDGER_DIR", str(ledger_dir))
        with Ledger(ledger_dir) as led:
            a = make_record("bench", "w", {}, wall_s=1.0)
            b = make_record("bench", "w", {}, wall_s=3.0)
            led.record(a)
            led.record(b)
        assert main(["obs", "diff", a.run_id, b.run_id, "--gate"]) == 1
        assert "REGRESSION" in capsys.readouterr().out

    def test_show_dumps_record_json(self, netlist_file, tmp_path, monkeypatch, capsys):
        (run_a, _) = self._two_runs(netlist_file, tmp_path / "runs", monkeypatch)
        capsys.readouterr()  # drain the route commands' own output
        assert main(["obs", "show", run_a]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["run_id"] == run_a
        assert payload["command"] == "route"


class TestPromFlag:
    def test_prom_port_serves_during_command(
        self, netlist_file, tmp_path, monkeypatch, capsys
    ):
        # port 0 binds a free port; the exporter line reports it on stderr
        monkeypatch.setenv("REPRO_LEDGER_DIR", str(tmp_path / "runs"))
        assert _route(netlist_file, "--prom-port", "0") == 0
        err = capsys.readouterr().err
        assert "/metrics" in err


class TestTraceStillWorks:
    def test_trace_export_includes_resource_record(
        self, netlist_file, tmp_path, monkeypatch
    ):
        monkeypatch.setenv("REPRO_LEDGER_DIR", str(tmp_path / "runs"))
        trace = tmp_path / "run.jsonl"
        assert _route(netlist_file, "--trace", str(trace)) == 0
        types = [
            json.loads(line)["type"]
            for line in trace.read_text().splitlines()
        ]
        assert types[0] == "meta"
        assert "span" in types
        from repro.obs import validate_run_jsonl

        assert validate_run_jsonl(trace) == []
