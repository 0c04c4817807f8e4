"""Run ledger: append-only records, the SQLite index, and run diffing."""

import json

import pytest

from repro.obs.ledger import (
    DiffThresholds,
    Ledger,
    RunRecord,
    default_ledger_dir,
    diff_runs,
    make_record,
)


def _record(workload="Test1@0.2", config=None, **fields):
    return make_record("bench", workload, config or {"scale": 0.2}, **fields)


class TestRunRecord:
    def test_roundtrip(self):
        rec = _record(
            outcome="ok",
            wall_s=1.25,
            phases={"search": 0.8},
            counters={"astar_searches_total": 21.0},
            resources={"peak_rss_mb": 120.0},
        )
        back = RunRecord.from_dict(json.loads(json.dumps(rec.to_dict())))
        assert back.run_id == rec.run_id
        assert back.config_hash == rec.config_hash
        assert back.phases == {"search": 0.8}
        assert back.peak_rss_mb == 120.0

    def test_config_hash_is_stable_and_order_insensitive(self):
        a = make_record("bench", "w", {"x": 1, "y": 2})
        b = make_record("bench", "w", {"y": 2, "x": 1})
        c = make_record("bench", "w", {"x": 1, "y": 3})
        assert a.config_hash == b.config_hash
        assert a.config_hash != c.config_hash

    def test_provenance_attached(self):
        rec = _record()
        assert "repro" in rec.provenance
        assert "python" in rec.provenance


class TestLedger:
    def test_record_and_get(self, tmp_path):
        with Ledger(tmp_path / "runs") as led:
            rec = _record(wall_s=0.5)
            led.record(rec)
            got = led.get(rec.run_id)
        assert got.run_id == rec.run_id
        assert got.wall_s == 0.5

    def test_get_by_unique_prefix_and_ambiguity(self, tmp_path):
        with Ledger(tmp_path / "runs") as led:
            a = _record()
            b = _record()
            led.record(a)
            led.record(b)
            assert led.get(a.run_id[:20] + a.run_id[20:]).run_id == a.run_id
            with pytest.raises(KeyError):
                led.get("r")  # matches both
            with pytest.raises(KeyError):
                led.get("r19700101-000000-000000")  # matches none

    def test_history_newest_first_with_filters(self, tmp_path):
        with Ledger(tmp_path / "runs") as led:
            r1 = _record(workload="Test1@0.2", ts=100.0)
            r2 = _record(workload="Test2@0.2", ts=200.0)
            r3 = _record(workload="Test1@0.2", ts=300.0)
            for rec in (r1, r2, r3):
                led.record(rec)
            all_runs = led.history()
            assert [r.run_id for r in all_runs] == [
                r3.run_id,
                r2.run_id,
                r1.run_id,
            ]
            only_t1 = led.history(workload="Test1@0.2")
            assert [r.run_id for r in only_t1] == [r3.run_id, r1.run_id]
            assert led.history(limit=1)[0].run_id == r3.run_id

    def test_latest_with_filters(self, tmp_path):
        with Ledger(tmp_path / "runs") as led:
            ok = _record(ts=100.0, outcome="ok")
            bad = _record(ts=200.0, outcome="error")
            led.record(ok)
            led.record(bad)
            assert led.latest(outcome="ok").run_id == ok.run_id
            assert led.latest().run_id == bad.run_id
            assert led.latest(workload="nope") is None

    def test_index_rebuilt_after_sqlite_deleted(self, tmp_path):
        root = tmp_path / "runs"
        with Ledger(root) as led:
            rec = _record()
            led.record(rec)
        (root / "index.sqlite").unlink()
        with Ledger(root) as led:
            assert len(led) == 1
            assert led.get(rec.run_id).config_hash == rec.config_hash

    def test_jsonl_is_append_only_source_of_truth(self, tmp_path):
        root = tmp_path / "runs"
        with Ledger(root) as led:
            led.record(_record())
            size_one = (root / "records.jsonl").stat().st_size
            led.record(_record())
            size_two = (root / "records.jsonl").stat().st_size
        assert size_two > size_one
        # a record appended by another process is picked up on open
        extra = _record(wall_s=9.0)
        with (root / "records.jsonl").open("a") as fh:
            fh.write(json.dumps(extra.to_dict()) + "\n")
        with Ledger(root) as led:
            assert len(led) == 3
            assert led.get(extra.run_id).wall_s == 9.0

    def test_reindex_skips_corrupt_lines(self, tmp_path):
        root = tmp_path / "runs"
        with Ledger(root) as led:
            led.record(_record())
        with (root / "records.jsonl").open("a") as fh:
            fh.write("{not json\n")
        with Ledger(root) as led:
            assert led.reindex() == 1

    def test_default_dir_honors_env(self, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_LEDGER_DIR", str(tmp_path / "elsewhere"))
        assert default_ledger_dir() == str(tmp_path / "elsewhere")
        with Ledger() as led:
            assert led.root == tmp_path / "elsewhere"


class TestDiff:
    def test_identical_runs_verdict_ok(self):
        a = _record(wall_s=1.0, phases={"search": 0.5}, counters={"c": 100.0})
        b = _record(wall_s=1.0, phases={"search": 0.5}, counters={"c": 100.0})
        diff = diff_runs(a, b)
        assert diff.verdict == "ok"
        assert diff.comparable
        assert not diff.regressions

    def test_wall_regression_needs_pct_and_floor(self):
        a = _record(wall_s=1.0)
        assert diff_runs(a, _record(wall_s=1.5)).verdict == "regression"
        # +40% but only 4 ms: under the absolute floor, still ok
        tiny_a = _record(wall_s=0.010)
        tiny_b = _record(wall_s=0.014)
        assert diff_runs(tiny_a, tiny_b).verdict == "ok"
        # big in absolute terms but under the fractional threshold
        assert diff_runs(a, _record(wall_s=1.1)).verdict == "ok"

    def test_counter_and_phase_regressions_reported(self):
        a = _record(phases={"search": 1.0}, counters={"exp": 1000.0})
        b = _record(phases={"search": 2.0}, counters={"exp": 2000.0})
        diff = diff_runs(a, b)
        names = {(row.section, row.name) for row in diff.regressions}
        assert ("phase", "search") in names
        assert ("counter", "exp") in names

    def test_improvement_flagged_not_regression(self):
        a = _record(wall_s=2.0)
        b = _record(wall_s=1.0)
        diff = diff_runs(a, b)
        assert diff.verdict == "ok"
        assert any(row.flag == "improvement" for row in diff.rows)

    def test_peak_rss_gates_mean_rss_does_not(self):
        a = _record(resources={"peak_rss_mb": 100.0, "mean_rss_mb": 80.0})
        worse_mean = _record(
            resources={"peak_rss_mb": 100.0, "mean_rss_mb": 140.0}
        )
        assert diff_runs(a, worse_mean).verdict == "ok"
        worse_peak = _record(
            resources={"peak_rss_mb": 160.0, "mean_rss_mb": 80.0}
        )
        assert diff_runs(a, worse_peak).verdict == "regression"

    def test_differing_configs_not_comparable(self):
        a = make_record("bench", "w", {"scale": 0.1})
        b = make_record("bench", "w", {"scale": 0.2})
        diff = diff_runs(a, b)
        assert not diff.comparable
        assert "configs differ" in diff.to_text()

    def test_to_text_mentions_verdict(self):
        text = diff_runs(_record(), _record()).to_text()
        assert "verdict:" in text

    def test_custom_thresholds(self):
        a = _record(wall_s=1.0)
        b = _record(wall_s=1.1)
        strict = DiffThresholds(wall_pct=0.05, wall_min_s=0.01)
        assert diff_runs(a, b, strict).verdict == "regression"

    def test_to_dict_shape(self):
        diff = diff_runs(_record(wall_s=1.0), _record(wall_s=1.0))
        payload = diff.to_dict()
        assert payload["verdict"] == "ok"
        assert payload["rows"][0]["name"] == "wall_s"
