"""Tests for the CSV export of experiment results."""

import csv

from repro.analysis.export import export_experiment, export_rows, export_series


class TestExportRows:
    def test_writes_header_and_rows(self, tmp_path):
        rows = [{"query": "q1.1", "ms": 1.5}, {"query": "q1.2", "ms": 2.0}]
        path = export_rows(rows, tmp_path / "rows.csv")
        with path.open() as handle:
            parsed = list(csv.DictReader(handle))
        assert [r["query"] for r in parsed] == ["q1.1", "q1.2"]
        assert float(parsed[1]["ms"]) == 2.0

    def test_union_of_columns(self, tmp_path):
        rows = [{"a": 1}, {"a": 2, "b": 3}]
        path = export_rows(rows, tmp_path / "rows.csv")
        with path.open() as handle:
            parsed = list(csv.DictReader(handle))
        assert set(parsed[0].keys()) == {"a", "b"}

    def test_empty_rows(self, tmp_path):
        path = export_rows([], tmp_path / "empty.csv")
        assert path.read_text() == ""


class TestExportSeries:
    def test_wide_format(self, tmp_path):
        series = {"cpu": {1: 10.0, 2: 20.0}, "gpu": {1: 1.0, 2: 2.0}}
        path = export_series(series, tmp_path / "series.csv", x_name="n")
        with path.open() as handle:
            parsed = list(csv.reader(handle))
        assert parsed[0] == ["n", "cpu", "gpu"]
        assert parsed[1] == ["1", "10.0", "1.0"]

    def test_missing_points_left_blank(self, tmp_path):
        series = {"a": {1: 1.0}, "b": {2: 2.0}}
        path = export_series(series, tmp_path / "series.csv")
        with path.open() as handle:
            parsed = list(csv.reader(handle))
        assert parsed[1][2] == ""
        assert parsed[2][1] == ""


class TestExportExperiment:
    def test_rows_payload(self, tmp_path):
        result = {"rows": [{"x": 1}], "scale_factor_executed": 0.1}
        written = export_experiment(result, tmp_path, "figure16")
        assert [p.name for p in written] == ["figure16.csv"]

    def test_series_payload_uses_x_name(self, tmp_path):
        result = {"series": {"cpu": {0.1: 5.0}}, "x": "selectivity"}
        written = export_experiment(result, tmp_path, "figure12")
        header = written[0].read_text().splitlines()[0]
        assert header.startswith("selectivity,")

    def test_multiple_payloads(self, tmp_path):
        result = {
            "histogram_series": {"cpu": {3: 1.0}},
            "shuffle_series": {"cpu": {3: 2.0}},
            "full_sort_rows": [{"impl": "cpu", "ms": 400.0}],
            "x": "radix_bits",
        }
        written = export_experiment(result, tmp_path, "figure14")
        names = sorted(p.name for p in written)
        assert names == ["figure14_full_sort.csv", "figure14_histogram.csv", "figure14_shuffle.csv"]

    def test_real_experiment_round_trip(self, tmp_path):
        from repro.analysis.experiments import run_figure10

        result = run_figure10(exec_n=1 << 14)
        written = export_experiment(result, tmp_path, "figure10")
        assert written and written[0].exists()
        with written[0].open() as handle:
            parsed = list(csv.DictReader(handle))
        assert {row["query"] for row in parsed} == {"Q1", "Q2"}
