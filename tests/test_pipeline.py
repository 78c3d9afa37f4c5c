import hashlib
import json
import shutil
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from sinet import ConfigurationError, NodeGroup, SIIMatrix, compute_indicators
from sinet import pipeline as pipeline_module
from sinet.pipeline import PipelineConfig, _parse_analytics, _parse_combo, run_pipeline
from sinet.synthetic import bundled_corpus_config, write_corpus


@pytest.fixture(scope="module")
def corpus_dir(tmp_path_factory):
    directory = tmp_path_factory.mktemp("corpus")
    write_corpus(directory, seed=42)
    return directory


def corpus_config(corpus_dir, out_dir) -> PipelineConfig:
    config = PipelineConfig.from_file(corpus_dir / "corpus.cfg")
    config.output_dir = Path(out_dir)
    return config


class TestConfigParsing:
    def test_bundled_corpus_config_loads(self):
        config = PipelineConfig.from_file(bundled_corpus_config())
        assert [a.asset_id for a in config.assets] == ["ENE", "MAT", "IND", "BNK", "SEC"]
        assert config.em.average_window == 1
        assert config.em.kappa == 2.0
        assert config.nsii_threshold == 0.02
        config.validate()

    def test_defaults_fill_missing_keys(self, tmp_path, corpus_dir):
        (tmp_path / "min.cfg").write_text(
            f"data_dir = {corpus_dir}\n"
            "assets = ENE, MAT\n"
            "asset.ENE.group = industrial\n"
            "asset.MAT.group = financial\n"
        )
        config = PipelineConfig.from_file(tmp_path / "min.cfg")
        assert config.em.average_window == 100
        assert config.nsii_threshold == 0.3
        assert config.te_bins == 10
        assert config.te_bubble_level == 0.0

    def test_missing_group_rejected(self, tmp_path, corpus_dir):
        (tmp_path / "bad.cfg").write_text(
            f"data_dir = {corpus_dir}\nassets = ENE\nasset.ENE.path = ENE.csv\n"
        )
        with pytest.raises(ConfigurationError, match="group"):
            PipelineConfig.from_file(tmp_path / "bad.cfg")

    @pytest.mark.parametrize("lines, message", [
        ("", "config must list assets"),
        ("assets = ENE\nasset.ENE.group = industrial\n", "need at least 2 assets"),
        ("assets = ENE, ENE\nasset.ENE.group = industrial\n", "duplicate asset ids"),
        ("assets = ENE, MAT\nasset.ENE.group = industrial\nasset.MAT.group = insurance\n",
         "asset 'MAT' has unknown group 'insurance'"),
    ])
    def test_bad_asset_list_rejected(self, tmp_path, corpus_dir, lines, message):
        (tmp_path / "bad.cfg").write_text(f"data_dir = {corpus_dir}\n{lines}")
        with pytest.raises(ConfigurationError, match=f"^{message}$"):
            PipelineConfig.from_file(tmp_path / "bad.cfg").validate()

    @pytest.mark.parametrize("line", [
        "em_tolerance = 1e-9", "kapa = 2", "seed = 42",
        "asset.XYZ.path = XYZ.csv", "column.volume = vol",
        # settings that earlier versions accepted
        "average = false", "te_bubble_only = true", "asset.ENE.subsector = bank",
    ])
    def test_unknown_key_rejected(self, tmp_path, corpus_dir, line):
        (tmp_path / "typo.cfg").write_text(
            f"data_dir = {corpus_dir}\nassets = ENE, MAT\n"
            "asset.ENE.group = industrial\nasset.MAT.group = financial\n"
            f"{line}\n"
        )
        key = line.split(" = ")[0]
        with pytest.raises(ConfigurationError, match=f"unknown config key.*'{key}'"):
            PipelineConfig.from_file(tmp_path / "typo.cfg")

    @pytest.mark.parametrize("line, message", [
        ("te_bins = ten", "te_bins: invalid literal for int"),
    ])
    def test_unparseable_value_names_key(self, tmp_path, corpus_dir, line, message):
        (tmp_path / "bad.cfg").write_text(
            f"data_dir = {corpus_dir}\nassets = ENE, MAT\n"
            "asset.ENE.group = industrial\nasset.MAT.group = financial\n"
            f"{line}\n"
        )
        with pytest.raises(ConfigurationError, match=f"^{message}"):
            PipelineConfig.from_file(tmp_path / "bad.cfg")

    def test_em_error_without_a_field_name_passes_unchanged(self, tmp_path, corpus_dir,
                                                           monkeypatch):
        def reject(**_):
            raise ValueError("settings out of range")

        monkeypatch.setattr(pipeline_module, "EMConfig", reject)
        (tmp_path / "ok.cfg").write_text(
            f"data_dir = {corpus_dir}\nassets = ENE, MAT\n"
            "asset.ENE.group = industrial\nasset.MAT.group = financial\nem_tol = 1e-6\n"
        )
        with pytest.raises(ConfigurationError, match="^settings out of range$"):
            PipelineConfig.from_file(tmp_path / "ok.cfg")

    def test_key_values_round_trip(self, tmp_path, corpus_dir):
        config = corpus_config(corpus_dir, tmp_path / "out")
        config.em = replace(config.em, n_min=0.25, n_max=4.0, tol=1e-7)
        config.te_bubble_level = 0.25
        config.column_map = {"price": "close"}
        kv = config.key_values()
        assert "seed" not in kv
        assert PipelineConfig.from_key_values(kv, tmp_path).key_values() == kv

    def test_one_end_of_the_n_interval_keeps_the_other_default(self, tmp_path, corpus_dir):
        (tmp_path / "upper.cfg").write_text(
            f"data_dir = {corpus_dir}\nassets = ENE, MAT\n"
            "asset.ENE.group = industrial\nasset.MAT.group = financial\nn_max = 4.0\n"
        )
        config = PipelineConfig.from_file(tmp_path / "upper.cfg")
        assert (config.em.n_min, config.em.n_max) == (1e-4, 4.0)
        kv = config.key_values()
        assert (kv["n_min"], kv["n_max"]) == ("0.0001", "4.0")
        assert PipelineConfig.from_key_values(kv, tmp_path).key_values() == kv

    def test_bundled_corpus_matches_its_generator(self, tmp_path):
        bundled = bundled_corpus_config().parent
        written = write_corpus(tmp_path, seed=42)
        assert sorted(p.name for p in written) == sorted(
            p.name for p in bundled.iterdir() if p.suffix in (".csv", ".cfg")
        )
        for path in written:
            assert path.read_bytes() == (bundled / path.name).read_bytes(), path.name

    def test_hash_changes_with_content(self, corpus_dir, tmp_path):
        a = corpus_config(corpus_dir, tmp_path / "a")
        b = corpus_config(corpus_dir, tmp_path / "a")
        assert a.config_hash() == b.config_hash()
        b.nsii_threshold = 0.5
        assert a.config_hash() != b.config_hash()

    def test_hash_follows_data_not_location(self, tmp_path):
        hashes = []
        for name in ("a", "b"):
            write_corpus(tmp_path / name, seed=42)
            hashes.append(PipelineConfig.from_file(tmp_path / name / "corpus.cfg").config_hash())
        assert hashes[0] == hashes[1]
        csv = next((tmp_path / "b").glob("*.csv"))
        data = bytearray(csv.read_bytes())
        data[-2] = ord("7") if data[-2] != ord("7") else ord("8")
        csv.write_bytes(bytes(data))
        edited = PipelineConfig.from_file(tmp_path / "b" / "corpus.cfg")
        assert edited.config_hash() != hashes[0]
        assert edited.key_values()[f"asset.{csv.stem}.path"] == str(csv)

    def test_window_order_validated(self, corpus_dir, tmp_path):
        config = corpus_config(corpus_dir, tmp_path / "out")
        config.analysis_start, config.analysis_end = "2007-12-31", "2006-01-02"
        with pytest.raises(ConfigurationError, match="well-ordered"):
            run_pipeline(config)
        assert not (tmp_path / "out").exists()  # validation precedes computation


    @pytest.mark.parametrize("key", ["analysis_start", "analysis_end", "loss_start", "loss_end"])
    @pytest.mark.parametrize("value", ["2006-02", "today", "2006-13-01", " 2006-01-02",
                                       "0000-01-01"])
    def test_loose_date_names_key(self, corpus_dir, tmp_path, key, value):
        config = corpus_config(corpus_dir, tmp_path / "out")
        setattr(config, key, value)
        with pytest.raises(ConfigurationError,
                           match=rf"^{key}: date '{value}' not in YYYY-MM-DD form$"):
            config.validate()

    @pytest.mark.parametrize("setting, key, value, what", [
        ("regressions", "regressions", "SI-to-All, SI-to-Al",
         "unknown indicator 'SI-to-Al' in 'SI-to-Al'"),
        ("correlation_specs", "correlations", "NSII-on-All | NSII-on-Fn",
         "unknown indicator 'NSII-on-Fn' in 'NSII-on-Fn'"),
    ])
    def test_unknown_indicator_names_key(self, corpus_dir, tmp_path, setting, key, value, what):
        config = corpus_config(corpus_dir, tmp_path / "out")
        setattr(config, setting, value)
        with pytest.raises(ConfigurationError, match=f"^{key}: {what}$"):
            config.validate()


class TestComboParsing:
    def test_single_indicator(self):
        assert _parse_combo("NSII-on-IX") == [(1.0, "NSII-on-IX")]

    def test_signed_terms(self):
        assert _parse_combo("NSII-on-Fin - SI-from-IX + SI-to-All") == [
            (1.0, "NSII-on-Fin"),
            (-1.0, "SI-from-IX"),
            (1.0, "SI-to-All"),
        ]

    def test_model_specs(self):
        models, specs = _parse_analytics("SI-to-All | SI-to-Fin, SI-from-Fin |", "")
        assert models == [
            [("SI-to-All", [(1.0, "SI-to-All")])],
            [("SI-to-Fin", [(1.0, "SI-to-Fin")]), ("SI-from-Fin", [(1.0, "SI-from-Fin")])],
        ]
        assert specs == []


class TestRunPipeline:
    def test_produces_all_artifacts(self, corpus_dir, tmp_path):
        config = corpus_config(corpus_dir, tmp_path / "out")
        report = run_pipeline(config)
        assert report.processed == ["ENE", "MAT", "IND", "BNK", "SEC"]
        assert not report.failed
        expected = {
            "sii_matrix.csv", "indicators.csv", "sin.dot", "sin.json",
            "losses.csv", "regressions.json", "regressions.txt",
            "run_report.txt", "run_report.json", "config_echo.cfg",
        }
        names = {p.name for p in (tmp_path / "out").iterdir()}
        assert expected <= names
        for asset in report.processed:
            assert f"probabilities_{asset}.csv" in names
            assert f"params_{asset}.json" in names

    def test_outputs_carry_provenance(self, corpus_dir, tmp_path):
        config = corpus_config(corpus_dir, tmp_path / "out")
        run_pipeline(config)
        expected = config.provenance()
        for name in ("sii_matrix.csv", "indicators.csv", "losses.csv", "sin.dot"):
            text = (tmp_path / "out" / name).read_text()
            assert expected in text.splitlines()[0]
        doc = json.loads((tmp_path / "out" / "sin.json").read_text())
        assert doc["provenance"] == expected

    def test_rerun_is_byte_identical(self, corpus_dir, tmp_path):
        config_a = corpus_config(corpus_dir, tmp_path / "a")
        config_b = corpus_config(corpus_dir, tmp_path / "a")  # same hash
        config_b.output_dir = tmp_path / "b"
        run_pipeline(config_a)
        run_pipeline(config_b)
        names = sorted(p.name for p in (tmp_path / "a").iterdir())
        assert names == sorted(p.name for p in (tmp_path / "b").iterdir())
        # output_dir is not part of the numeric payloads, only of the echo
        for name in names:
            if name == "config_echo.cfg":
                continue
            same = (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()
            assert same, f"{name} differs between identical runs"

    def test_corrupt_asset_is_isolated(self, corpus_dir, tmp_path):
        broken_dir = tmp_path / "data"
        shutil.copytree(corpus_dir, broken_dir)
        target = broken_dir / "IND.csv"
        lines = target.read_text().splitlines()
        lines[5] = lines[5].rsplit(",", 2)[0] + ",-4.0,100"
        target.write_text("\n".join(lines) + "\n")
        config = corpus_config(broken_dir, tmp_path / "out")
        report = run_pipeline(config)
        assert set(report.processed) == {"ENE", "MAT", "BNK", "SEC"}
        assert "IND" in report.failed
        assert "line 6" in report.failed["IND"]
        report_text = (tmp_path / "out" / "run_report.txt").read_text()
        assert "IND" in report_text and "line 6" in report_text

    def test_too_few_survivors_aborts(self, corpus_dir, tmp_path):
        config = corpus_config(corpus_dir, tmp_path / "out")
        config.assets = config.assets[:2]
        empty = tmp_path / "empty.csv"
        empty.write_text("date,price\n2006-01-02,1.0\n")
        object.__setattr__(config.assets[1], "path", empty)
        with pytest.raises(ConfigurationError, match="survived"):
            run_pipeline(config)
        doc = json.loads((tmp_path / "out" / "run_report.json").read_text())
        assert doc["processed"] == ["ENE"]
        assert doc["failed"] == {"MAT": "a log-price series needs at least 2 points"}
        assert doc["skipped"] == ["remaining stages (only 1 asset(s) survived calibration; "
                                  "need at least 2 for the influence matrix)"]
        assert doc["artifacts"] == ["config_echo.cfg", "probabilities_ENE.csv", "params_ENE.json"]
        assert sorted(p.name for p in (tmp_path / "out").iterdir()) == sorted(
            [*doc["artifacts"], "run_report.json", "run_report.txt"])

    def test_stage_failure_after_calibration_writes_the_report(
        self, corpus_dir, tmp_path, monkeypatch
    ):
        def sii_matrix(*args, **kwargs):
            raise ConfigurationError("mask keeps fewer than 2 triples")

        monkeypatch.setattr(pipeline_module, "sii_matrix", sii_matrix)
        config = corpus_config(corpus_dir, tmp_path / "out")
        config.assets = config.assets[:2]
        with pytest.raises(ConfigurationError, match="^mask keeps fewer than 2 triples$"):
            run_pipeline(config)
        doc = json.loads((tmp_path / "out" / "run_report.json").read_text())
        assert doc["processed"] == ["ENE", "MAT"]
        assert doc["skipped"] == ["remaining stages (mask keeps fewer than 2 triples)"]
        assert doc["artifacts"] == ["config_echo.cfg", "probabilities_ENE.csv", "params_ENE.json",
                                    "probabilities_MAT.csv", "params_MAT.json"]
        text = (tmp_path / "out" / "run_report.txt").read_text()
        assert "skipped: remaining stages (mask keeps fewer than 2 triples)\n" in text

    def test_loss_window_optional(self, corpus_dir, tmp_path):
        config = corpus_config(corpus_dir, tmp_path / "out")
        config.loss_start = config.loss_end = None
        report = run_pipeline(config)
        assert any("loss analytics" in s for s in report.skipped)
        names = {p.name for p in (tmp_path / "out").iterdir()}
        assert "losses.csv" not in names
        assert "sin.json" in names

    def test_asset_without_loss_data_is_noted(self, corpus_dir, tmp_path):
        # SEC's prices end with the analysis window, before the loss window:
        # it is calibrated and joins the network, but has no loss, so no
        # node gets a loss color
        data = tmp_path / "data"
        shutil.copytree(corpus_dir, data)
        sec = data / "SEC.csv"
        lines = sec.read_text().splitlines()
        sec.write_text("\n".join([lines[0]] + [line for line in lines[1:]
                                               if line[:10] <= "2007-12-31"]) + "\n")
        report = run_pipeline(corpus_config(data, tmp_path / "out"))
        assert report.processed == ["ENE", "MAT", "IND", "BNK", "SEC"]
        notes = ["SEC: no data in loss window, loss skipped",
                 "losses incomplete; node colors omitted"]
        assert report.skipped == notes
        text = (tmp_path / "out" / "run_report.txt").read_text()
        assert "processed: ENE, MAT, IND, BNK, SEC\n" + "".join(
            f"skipped: {note}\n" for note in notes) + "\nartifacts:\n" in text
        doc = json.loads((tmp_path / "out" / "sin.json").read_text())
        assert [node["id"] for node in doc["nodes"]] == report.processed
        assert all(node["color_value"] is None for node in doc["nodes"])
        losses = (tmp_path / "out" / "losses.csv").read_text()
        assert "SEC" not in losses and "BNK" in losses

    def test_calibration_window_is_keyword_only(self, corpus_dir):
        # a stale positional call must raise, not bind a flag to a date
        config = PipelineConfig.from_file(corpus_dir / "corpus.cfg")
        with pytest.raises(TypeError):
            pipeline_module.calibrate_asset("ENE", corpus_dir / "ENE.csv", {}, config.em,
                                            False, "2006-01-02", "2007-12-31")

    def test_probability_source_smoothing(self, corpus_dir, tmp_path):
        config = corpus_config(corpus_dir, tmp_path / "out")
        config.probability_source = "smoothing"
        report = run_pipeline(config)
        assert report.processed


class TestBubbleOnlyFlag:
    def test_changes_matrix_and_hash(self, corpus_dir, tmp_path):
        base = corpus_config(corpus_dir, tmp_path / "base")
        masked = corpus_config(corpus_dir, tmp_path / "masked")
        masked.te_bubble_level = 0.2
        assert base.config_hash() != masked.config_hash()
        run_pipeline(base)
        run_pipeline(masked)
        a = (tmp_path / "base" / "sii_matrix.csv").read_text()
        b = (tmp_path / "masked" / "sii_matrix.csv").read_text()
        assert a != b

    def test_level_validated(self, corpus_dir, tmp_path):
        config = corpus_config(corpus_dir, tmp_path / "out")
        config.te_bubble_level = 1.5
        with pytest.raises(ConfigurationError, match="te_bubble_level"):
            run_pipeline(config)


class TestNonFiniteSettings:
    @pytest.mark.parametrize("setting, value", [
        ("te_base", float("nan")), ("te_base", float("inf")), ("te_base", float("-inf")),
        ("nsii_threshold", float("nan")), ("nsii_threshold", float("inf")),
        ("nsii_threshold", float("-inf")),
        ("te_bubble_level", float("nan")), ("te_bubble_level", float("inf")),
        ("te_bins", 1), ("te_bins", 2.5), ("te_bins", 4.0), ("probability_source", "posterior"),
    ])
    def test_validate_names_the_setting(self, corpus_dir, tmp_path, setting, value):
        # a NaN te_base or nsii_threshold used to pass and give an all-zero
        # matrix or a graph with no edges
        config = corpus_config(corpus_dir, tmp_path / "out")
        setattr(config, setting, value)
        with pytest.raises(ConfigurationError, match=f"^{setting} must"):
            config.validate()


def four_node_table():
    m = SIIMatrix(("A", "B", "C", "D"), np.array([
        [0.0, 0.1, 0.2, 0.3], [0.05, 0.0, 0.4, 0.1],
        [0.3, 0.2, 0.0, 0.0], [0.1, 0.6, 0.2, 0.0],
    ]))
    groups = NodeGroup({"A": "industrial", "B": "industrial", "C": "industrial",
                        "D": "financial"})
    return compute_indicators(m, groups), m.nodes, groups


class TestLossAnalyticsSpecification:
    """loss_analytics parses its specification once, on entry, and rejects
    a bad expression with the message ``run`` gives, fit or no fit."""

    @pytest.mark.parametrize("regressions, correlations, message", [
        ("SI-to-Al", "NSII-on-All", "regressions: unknown indicator 'SI-to-Al' in 'SI-to-Al'"),
        ("SI-to-All", "NSII-on-Al", "correlations: unknown indicator 'NSII-on-Al' in 'NSII-on-Al'"),
    ])
    def test_unknown_name_raises_when_no_scope_fits(self, regressions, correlations, message):
        table, nodes, groups = four_node_table()
        with pytest.raises(ConfigurationError, match=f"^{message}$"):
            # one loss: every scope has too few observations to fit anything
            pipeline_module.loss_analytics(table, nodes, groups, {"A": 10.0},
                                           regressions, correlations)

    def test_each_expression_is_parsed_once(self, monkeypatch):
        parsed = []

        def counting_parse_combo(raw):
            parsed.append(raw)
            return _parse_combo(raw)

        monkeypatch.setattr(pipeline_module, "_parse_combo", counting_parse_combo)
        table, nodes, groups = four_node_table()
        pipeline_module.loss_analytics(
            table, nodes, groups, {"A": 10.0, "B": 20.0, "C": 35.0, "D": 5.0},
            pipeline_module.DEFAULT_REGRESSIONS, pipeline_module.DEFAULT_CORRELATIONS,
        )
        regressors = [text.strip() for chunk in pipeline_module.DEFAULT_REGRESSIONS.split("|")
                      for text in chunk.split(",")]
        specs = [text.strip() for text in pipeline_module.DEFAULT_CORRELATIONS.split("|")]
        assert parsed == regressors + specs


class TestLossAnalyticsSkips:
    """Entries that no fit fills keep their place, their keys and their
    reason in both outputs."""

    def test_skip_entries_and_lines_are_pinned(self):
        table, nodes, groups = four_node_table()
        doc, text = pipeline_module.loss_analytics(
            table, nodes, groups,
            {"A": 10.0, "B": 20.0, "C": 35.0, "D": 5.0},
            "SI-to-All, SI-to-All", "NSII-on-All - NSII-on-All", "config=abc",
        )
        model, combo = ["SI-to-All", "SI-to-All"], "NSII-on-All - NSII-on-All"
        undefined = "pearson correlation undefined for this input"
        assert json.dumps(doc) == json.dumps({
            "provenance": "config=abc",
            "regressions": [
                {"scope": "all", "model": model, "n_obs": 4,
                 "skipped": "regressor column 1 is collinear"},
                {"scope": "industrial", "model": model, "n_obs": 3,
                 "skipped": "too few observations"},
                {"scope": "financial", "model": model, "n_obs": 1,
                 "skipped": "too few observations"},
            ],
            "correlations": [
                {"scope": "all", "indicator": combo, "n_obs": 4, "skipped": undefined},
                {"scope": "industrial", "indicator": combo, "n_obs": 3, "skipped": undefined},
                {"scope": "financial", "indicator": combo, "n_obs": 1,
                 "skipped": "too few observations"},
            ],
        })
        assert text == (
            "# config=abc\n\n"
            "== regressions: all (4 nodes) ==\n"
            "  SI-to-All + SI-to-All: skipped (regressor column 1 is collinear)\n\n"
            "== correlations: all ==\n"
            f"  {combo}: skipped ({undefined})\n\n"
            "== regressions: industrial (3 nodes) ==\n"
            "  SI-to-All + SI-to-All: skipped (too few observations)\n\n"
            "== correlations: industrial ==\n"
            f"  {combo}: skipped ({undefined})\n\n"
            "== regressions: financial (1 nodes) ==\n"
            "  SI-to-All + SI-to-All: skipped (too few observations)\n\n"
            "== correlations: financial ==\n"
            f"  {combo}: skipped (too few observations)\n\n"
        )


class TestPinnedOutputs:
    """The indicator writer's bytes and the loss analytics outputs, pinned
    for a fixed table."""

    def test_write_indicators_bytes(self, tmp_path):
        m = SIIMatrix(("a", "b", "c"), np.array([
            [0.0, 0.1, 0.25], [1 / 3, 0.0, 0.5], [0.2, 0.125, 0.0],
        ]))
        groups = NodeGroup({"a": "industrial", "b": "financial", "c": "industrial"})
        path = pipeline_module.write_indicators(
            tmp_path / "indicators.csv", compute_indicators(m, groups), "config=abc")
        assert path.read_text() == (
            "# config=abc\n"
            "node,SI-to-All,SI-from-All,SI-to-Fin,SI-from-Fin,SI-to-IX,SI-from-IX,"
            "NSII-on-All,NSII-on-Fin,NSII-on-IX\n"
            "a,0.35,0.5333333333333333,0.1,0.3333333333333333,0.25,0.2,"
            "-0.18333333333333335,-0.2333333333333333,0.04999999999999999\n"
            "b,0.8333333333333333,0.225,0.0,0.0,0.8333333333333333,0.225,"
            "0.6083333333333333,0.0,0.6083333333333333\n"
            "c,0.325,0.75,0.125,0.5,0.2,0.25,-0.425,-0.375,-0.04999999999999999\n"
        )

    def test_loss_analytics_document_and_text(self):
        names = tuple(f"n{k}" for k in range(9))
        m = SIIMatrix(names, np.array([
            [0.0 if i == j else ((i * 37 + j * 11) % 29) / 29 for j in range(9)]
            for i in range(9)
        ]))
        groups = NodeGroup({n: "financial" if k in (1, 4, 6, 8) else "industrial"
                            for k, n in enumerate(names)})
        # n5 has no loss, so every scope leaves it out
        losses = {n: 10 + (k * 13) % 17 + k / 8 for k, n in enumerate(names) if k != 5}
        doc, text = pipeline_module.loss_analytics(
            compute_indicators(m, groups), m.nodes, groups, losses,
            "SI-to-All | NSII-on-Fin - SI-from-IX, SI-to-IX | SI-from-Fin, SI-to-IX, NSII-on-All",
            "NSII-on-All | NSII-on-Fin - SI-from-IX + SI-to-All", "config=abc",
        )
        assert [(e["scope"], e["n_obs"]) for e in doc["correlations"]] == [
            ("all", 8), ("all", 8), ("industrial", 4), ("industrial", 4),
            ("financial", 4), ("financial", 4)]
        assert doc["regressions"][0]["coefficients"] == [0.004464285714286397]
        assert hashlib.sha256(json.dumps(doc).encode()).hexdigest() == (
            "8a42fb4b0fbd28e5ac51b7da30b958ce3b64a126d497a3d39e3dde4fb3977915")
        two, three = "NSII-on-Fin - SI-from-IX + SI-to-IX", "SI-from-Fin + SI-to-IX + NSII-on-All"
        combo = "NSII-on-Fin - SI-from-IX + SI-to-All"
        assert text == (
            "# config=abc\n\n"
            "== regressions: all (8 nodes) ==\n"
            "  SI-to-All: SI-to-All=0.00(0.77) | R2=0.00 adjR2=-0.17 F=0.00\n"
            f"  {two}: NSII-on-Fin - SI-from-IX=1.00(0.71), SI-to-IX=-0.13(0.71)"
            " | R2=0.29 adjR2=0.00 F=1.01\n"
            f"  {three}: SI-from-Fin=-0.05(0.94), SI-to-IX=-0.65(1.19),"
            " NSII-on-All=0.73(1.17) | R2=0.10 adjR2=-0.58 F=0.15\n\n"
            "== correlations: all ==\n"
            "  NSII-on-All: pearson=0.21 spearman=0.19 kendall=0.00\n"
            f"  {combo}: pearson=0.30 spearman=0.33 kendall=0.21\n\n"
            "== regressions: industrial (4 nodes) ==\n"
            "  SI-to-All: SI-to-All=2.45(1.27) | R2=0.65 adjR2=0.48 F=3.72\n"
            f"  {two}: NSII-on-Fin - SI-from-IX=2.43(2.20), SI-to-IX=-1.45(2.20)"
            " | R2=0.56 adjR2=-0.32 F=0.64\n"
            f"  {three}: skipped (too few observations)\n\n"
            "== correlations: industrial ==\n"
            "  NSII-on-All: pearson=0.20 spearman=0.20 kendall=0.00\n"
            f"  {combo}: pearson=0.86 spearman=0.40 kendall=0.33\n\n"
            "== regressions: financial (4 nodes) ==\n"
            "  SI-to-All: SI-to-All=0.21(3.12) | R2=0.00 adjR2=-0.50 F=0.00\n"
            f"  {two}: NSII-on-Fin - SI-from-IX=2.96(3.76), SI-to-IX=0.62(3.76)"
            " | R2=0.39 adjR2=-0.82 F=0.32\n"
            f"  {three}: skipped (too few observations)\n\n"
            "== correlations: financial ==\n"
            "  NSII-on-All: pearson=0.38 spearman=0.20 kendall=0.00\n"
            f"  {combo}: pearson=0.27 spearman=0.40 kendall=0.33\n\n"
        )
