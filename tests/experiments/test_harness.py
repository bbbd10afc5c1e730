"""Experiment harness: config presets, runner, table/figure aggregation, CLI."""

import pytest

from repro.cli import main as cli_main
from repro.experiments.config import (
    METHOD_ORDER,
    ExperimentConfig,
    full_config,
    quick_config,
    tiny_config,
)
from repro.experiments.figures import crossover_free, figure_series
from repro.experiments.report import (
    render_figure,
    render_table_xi,
    render_table_xii,
    render_table_xiii,
    render_table_xiv,
)
from repro.experiments.runner import MeasurementRecord, run_experiment
from repro.experiments.tables import (
    method_columns,
    reduction_percentages,
    table_xi,
    table_xii,
    table_xiii,
    table_xiv,
)


@pytest.fixture(scope="module")
def tiny_records():
    return run_experiment(tiny_config(), verify_against_oracle=True)


class TestConfig:
    def test_presets(self):
        assert tiny_config().number_of_cells == 1
        assert quick_config().number_of_cells == 5 * 3 * 3
        assert full_config().number_of_cells == 5 * 5 * 5 * 2

    def test_invalid_method(self):
        with pytest.raises(ValueError):
            ExperimentConfig(methods=("NOT-A-METHOD",))

    def test_invalid_repetitions(self):
        with pytest.raises(ValueError):
            ExperimentConfig(repetitions=0)

    def test_batch_plan_defaults_to_auto(self):
        assert ExperimentConfig().batch_plan == "auto"


class TestRunner:
    def test_records_shape(self, tiny_records):
        config = tiny_config()
        assert len(tiny_records) == config.number_of_cells * len(config.methods)
        assert {record.method for record in tiny_records} == set(METHOD_ORDER)

    def test_every_method_matches_oracle(self, tiny_records):
        assert all(record.matches_oracle for record in tiny_records)

    def test_elapsed_positive(self, tiny_records):
        assert all(record.elapsed_seconds > 0 for record in tiny_records)

    def test_records_carry_batch_timing_and_auto_plan(self, tiny_records):
        assert all(record.batch_plan == "auto" for record in tiny_records)
        assert all(record.maintenance_seconds >= 0 for record in tiny_records)
        assert any(record.maintenance_seconds > 0 for record in tiny_records)

    def test_ua_runs_single_pass(self, tiny_records):
        ua = [r for r in tiny_records if r.method == "UA-GPNM"]
        inc = [r for r in tiny_records if r.method == "INC-GPNM"]
        assert all(record.refinement_passes == 1 for record in ua)
        assert all(record.refinement_passes > 1 for record in inc)


class TestTables:
    def _fake_records(self):
        rows = []
        for dataset, base in (("email-EU-core", 1.0), ("DBLP", 10.0)):
            for scale, factor in (((6, 20), 1.0), ((10, 60), 2.0)):
                for method, multiplier in (
                    ("UA-GPNM", 1.0),
                    ("UA-GPNM-NoPar", 1.2),
                    ("EH-GPNM", 1.5),
                    ("INC-GPNM", 2.4),
                ):
                    rows.append(
                        MeasurementRecord(
                            dataset=dataset,
                            pattern_size=(8, 8),
                            delta_scale=scale,
                            repetition=0,
                            method=method,
                            elapsed_seconds=base * factor * multiplier,
                            refinement_passes=1,
                            slen_updates=0,
                            recomputed_rows=0,
                            eliminated_updates=0,
                            elimination_relations=0,
                        )
                    )
        return rows

    def test_table_xi_and_xii(self):
        records = self._fake_records()
        xi = table_xi(records)
        assert xi["email-EU-core"]["UA-GPNM"] == pytest.approx(1.5)
        assert "Average" in xi
        xii = table_xii(records)
        assert xii["email-EU-core"]["INC-GPNM"] == pytest.approx(100 * (2.4 - 1) / 2.4)
        assert "UA-GPNM" not in xii["email-EU-core"]

    def test_table_xiii_and_xiv(self):
        records = self._fake_records()
        xiii = table_xiii(records)
        assert list(xiii) == [(6, 20), (10, 60)]
        xiv = table_xiv(records)
        assert xiv[(6, 20)]["EH-GPNM"] == pytest.approx(100 * (1.5 - 1) / 1.5)

    def test_reduction_helpers(self):
        assert reduction_percentages({"UA-GPNM": 1.0, "INC-GPNM": 2.0}) == {"INC-GPNM": 50.0}
        assert reduction_percentages({"EH-GPNM": 2.0}) == {}
        assert method_columns({"x": {"INC-GPNM": 1.0, "UA-GPNM": 1.0}}) == ["UA-GPNM", "INC-GPNM"]

    def test_figure_series_and_crossover(self):
        records = self._fake_records()
        series = figure_series(records, "DBLP")
        assert (8, 8) in series
        assert series[(8, 8)]["UA-GPNM"][(6, 20)] == pytest.approx(10.0)
        assert crossover_free(series, "UA-GPNM", "INC-GPNM")
        assert not crossover_free(series, "INC-GPNM", "UA-GPNM")


class TestRendering:
    def test_renderers_produce_text(self, tiny_records):
        assert "Table XI" in render_table_xi(tiny_records)
        assert "Table XII" in render_table_xii(tiny_records)
        assert "Table XIII" in render_table_xiii(tiny_records)
        assert "Table XIV" in render_table_xiv(tiny_records)
        assert "Figure 5" in render_figure(tiny_records, "email-EU-core")


class TestCLI:
    def test_table_xi_command(self, capsys):
        assert cli_main(["--preset", "tiny", "table-xi"]) == 0
        assert "Table XI" in capsys.readouterr().out

    def test_figure_command(self, capsys):
        assert cli_main(["--preset", "tiny", "--verify", "figure", "--dataset", "email-EU-core"]) == 0
        captured = capsys.readouterr()
        assert "Figure 5" in captured.out
