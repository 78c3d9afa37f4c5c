import json
import shutil
from dataclasses import replace
from pathlib import Path

import pytest

from sinet import ConfigurationError
from sinet import pipeline as pipeline_module
from sinet.pipeline import PipelineConfig, _parse_combo, _parse_model_specs, run_pipeline
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
        assert config.average is False
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
        assert config.average is True
        assert config.em.average_window == 100
        assert config.nsii_threshold == 0.3
        assert config.te_bins == 10

    def test_missing_group_rejected(self, tmp_path, corpus_dir):
        (tmp_path / "bad.cfg").write_text(
            f"data_dir = {corpus_dir}\nassets = ENE\nasset.ENE.path = ENE.csv\n"
        )
        with pytest.raises(ConfigurationError, match="group"):
            PipelineConfig.from_file(tmp_path / "bad.cfg")

    @pytest.mark.parametrize("line", [
        "em_tolerance = 1e-9", "kapa = 2", "seed = 42",
        "asset.XYZ.path = XYZ.csv", "column.volume = vol",
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
        ("average = maybe", "average: expected a boolean, got 'maybe'"),
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
        config.em = replace(config.em, n_search=(0.25, 4.0), tol=1e-7)
        config.te_bubble_only = True
        config.column_map = {"price": "close"}
        kv = config.key_values()
        assert "seed" not in kv
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
        assert _parse_model_specs("A | B, C |") == [["A"], ["B", "C"]]


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

    def test_loss_window_optional(self, corpus_dir, tmp_path):
        config = corpus_config(corpus_dir, tmp_path / "out")
        config.loss_start = config.loss_end = None
        report = run_pipeline(config)
        assert any("loss analytics" in s for s in report.skipped)
        names = {p.name for p in (tmp_path / "out").iterdir()}
        assert "losses.csv" not in names
        assert "sin.json" in names

    def test_probability_source_smoothing(self, corpus_dir, tmp_path):
        config = corpus_config(corpus_dir, tmp_path / "out")
        config.probability_source = "smoothing"
        report = run_pipeline(config)
        assert report.ok


class TestBubbleOnlyFlag:
    def test_changes_matrix_and_hash(self, corpus_dir, tmp_path):
        base = corpus_config(corpus_dir, tmp_path / "base")
        masked = corpus_config(corpus_dir, tmp_path / "masked")
        masked.te_bubble_only = True
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
    ])
    def test_validate_names_the_setting(self, corpus_dir, tmp_path, setting, value):
        # a NaN te_base or nsii_threshold used to pass and give an all-zero
        # matrix or a graph with no edges
        config = corpus_config(corpus_dir, tmp_path / "out")
        setattr(config, setting, value)
        with pytest.raises(ConfigurationError, match=f"^{setting} must"):
            config.validate()
