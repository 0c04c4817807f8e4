"""Unit tests for the bench runner and the power-law fit (Fig. 20)."""

import json

import pytest

from repro.baselines import GaoPanTrimRouter
from repro.bench import (
    FIXED_PIN_BENCHMARKS,
    BenchRow,
    fit_power_law,
    run_baseline,
    run_proposed,
    rows_to_table,
)
from repro.bench.runner import append_rows_json, comparison_summary, rows_to_json
from repro.errors import ReproError


class TestRunner:
    def test_run_proposed_row(self):
        row = run_proposed(FIXED_PIN_BENCHMARKS[0], scale=0.12)
        assert row.router == "ours"
        assert row.circuit == "Test1"
        assert row.conflicts == 0
        assert 0 < row.routability_pct <= 100

    def test_run_baseline_same_instance(self):
        row = run_baseline(GaoPanTrimRouter, "gao-pan", FIXED_PIN_BENCHMARKS[0], scale=0.12)
        ours = run_proposed(FIXED_PIN_BENCHMARKS[0], scale=0.12)
        assert row.num_nets == ours.num_nets

    def test_table_formatting(self):
        rows = [
            BenchRow("Test1", "ours", 100, 97.5, 200.0, 10.0, 0, 1.23),
            BenchRow("Test1", "gao-pan", 100, 80.0, 2000.0, 100.0, 12, 0.5),
        ]
        table = rows_to_table(rows, caption="Table III")
        assert "Table III" in table
        assert "ours" in table and "gao-pan" in table
        assert "97.5" in table

    def test_comparison_summary(self):
        ours = [BenchRow("t", "ours", 10, 95.0, 100.0, 5.0, 0, 1.0)]
        theirs = [BenchRow("t", "b", 10, 80.0, 1000.0, 50.0, 9, 2.0)]
        text = comparison_summary(ours, theirs)
        assert "10.00x" in text  # overlay ratio


class TestPowerLaw:
    def test_exact_square_law(self):
        xs = [10, 20, 40, 80]
        ys = [x * x for x in xs]
        fit = fit_power_law(xs, ys)
        assert fit.exponent == pytest.approx(2.0)
        assert fit.r_squared == pytest.approx(1.0)

    def test_prediction(self):
        fit = fit_power_law([1, 2, 4], [3, 6, 12])
        assert fit.exponent == pytest.approx(1.0)
        assert fit.predict(8) == pytest.approx(24)

    def test_validation(self):
        with pytest.raises(ReproError):
            fit_power_law([1], [1])
        with pytest.raises(ReproError):
            fit_power_law([1, 2], [1])
        with pytest.raises(ReproError):
            fit_power_law([0, 2], [1, 2])


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
