import json
import shutil

import numpy as np
import pytest

from sinet import NodeGroup, SIIMatrix, analysis, compute_indicators, pipeline
from sinet.cli import main
from sinet.errors import NumericalFailureError
from sinet.network import ALL_INDICATORS
from sinet.synthetic import write_corpus

INDICATOR_HEADER = ",".join(("node",) + ALL_INDICATORS)


@pytest.fixture(scope="module")
def corpus_dir(tmp_path_factory):
    directory = tmp_path_factory.mktemp("corpus")
    write_corpus(directory, seed=42)
    return directory


@pytest.fixture(scope="module")
def run_dir(tmp_path_factory, corpus_dir):
    out = tmp_path_factory.mktemp("out")
    rc = main(["run", "--config", str(corpus_dir / "corpus.cfg"), "--out-dir", str(out)])
    assert rc == 0
    return out


@pytest.fixture
def groups_file(tmp_path):
    path = tmp_path / "groups.csv"
    path.write_text(
        "node,group,subsector\nENE,industrial,\nMAT,industrial,\n"
        "IND,industrial,\nBNK,financial,bank\nSEC,financial,securities\n"
    )
    return path


def slashed_config(corpus_dir, tmp_path):
    """The corpus config with ENE moved last and named E/NE, so that `run`
    writes its probabilities_E/NE.csv into a directory that does not exist."""
    cfg = tmp_path / "slashed.cfg"
    cfg.write_text((corpus_dir / "corpus.cfg").read_text()
                   .replace("data_dir = .", f"data_dir = {corpus_dir}")
                   .replace("assets = ENE, MAT, IND, BNK, SEC", "assets = MAT, IND, BNK, SEC, ENE")
                   .replace("ENE", "E/NE").replace("E/NE.csv", "ENE.csv"))
    return cfg


def check_run_report(out, config, unreported=()):
    """The run_report.json in ``out`` names each asset of ``config`` but
    ``unreported`` once, in config order, as processed or failed, and its
    artifacts and the two report files are exactly the files in ``out``."""
    assets = [a.asset_id for a in pipeline.PipelineConfig.from_file(config).assets]
    doc = json.loads((out / "run_report.json").read_text())
    for key in ("processed", "failed"):
        assert list(doc[key]) == [a for a in assets if a in doc[key]]
    assert sorted([*doc["processed"], *doc["failed"]], key=assets.index) == [
        a for a in assets if a not in unreported]
    assert sorted(p.name for p in out.iterdir()) == sorted(
        [*doc["artifacts"], "run_report.json", "run_report.txt"])
    return doc


class TestRun:
    def test_produces_artifacts(self, run_dir):
        names = {p.name for p in run_dir.iterdir()}
        assert "sin.json" in names and "sii_matrix.csv" in names

    def test_bad_config_exits_one(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("assets = A, B\nasset.A.group = industrial\nasset.B.group = industrial\n")
        rc = main(["run", "--config", str(cfg), "--out-dir", str(tmp_path / "o")])
        assert rc == 1
        assert "error" in capsys.readouterr().err

    def test_unknown_config_key_exits_one(self, corpus_dir, tmp_path, capsys):
        # q00_init is a deleted key: a config that still sets it must fail, not be ignored
        cfg = tmp_path / "typo.cfg"
        text = (corpus_dir / "corpus.cfg").read_text().replace("data_dir = .", f"data_dir = {corpus_dir}")
        for key, value in (("em_tolerance", "1e-9"), ("q00_init", "0.95")):
            cfg.write_text(text + f"{key} = {value}\n")
            rc = main(["run", "--config", str(cfg), "--out-dir", str(tmp_path / "o")])
            assert rc == 1
            assert f"'{key}'" in capsys.readouterr().err
            assert not (tmp_path / "o").exists()

    def test_echo_of_a_windowless_run_runs_again(self, corpus_dir, tmp_path):
        lines = [line for line in (corpus_dir / "corpus.cfg").read_text().splitlines()
                 if not line.startswith(("analysis_", "loss_"))]
        cfg = tmp_path / "windowless.cfg"
        cfg.write_text("\n".join(lines).replace("data_dir = .", f"data_dir = {corpus_dir}") + "\n")
        assert main(["run", "--config", str(cfg), "--out-dir", str(tmp_path / "a")]) == 0
        echo = tmp_path / "a" / "config_echo.cfg"
        assert main(["run", "--config", str(echo), "--out-dir", str(tmp_path / "b")]) == 0

        def settings(out):
            return [line for line in (out / "config_echo.cfg").read_text().splitlines()
                    if not line.startswith("output_dir =")]

        assert settings(tmp_path / "b") == settings(tmp_path / "a")
        assert not [line for line in settings(tmp_path / "a") if line.endswith("= None")]

    def test_echo_of_a_run_from_a_relative_config_runs_again(
        self, corpus_dir, tmp_path, monkeypatch
    ):
        # the echo holds absolute paths, so it does not resolve the run's
        # relative asset paths against its own directory
        shutil.copytree(corpus_dir, tmp_path / "corpus")
        monkeypatch.chdir(tmp_path)
        assert main(["run", "--config", "corpus/corpus.cfg", "--out-dir", "a"]) == 0
        assert main(["run", "--config", "a/config_echo.cfg", "--out-dir", "b"]) == 0
        assert (tmp_path / "b" / "sii_matrix.csv").read_bytes() == (
            tmp_path / "a" / "sii_matrix.csv").read_bytes()

    def test_bare_run_writes_into_the_working_directory(self, tmp_path, monkeypatch):
        # the bundled corpus, and its outputs go next to the caller
        monkeypatch.chdir(tmp_path)
        assert main(["run"]) == 0
        doc = json.loads((tmp_path / "sinet-out" / "run_report.json").read_text())
        assert doc["processed"] == ["ENE", "MAT", "IND", "BNK", "SEC"]

    def test_asset_path_that_is_a_directory_exits_one(self, corpus_dir, tmp_path, capsys):
        (tmp_path / "SEC.csv").mkdir()
        cfg = tmp_path / "dir.cfg"
        cfg.write_text((corpus_dir / "corpus.cfg").read_text()
                       .replace("data_dir = .", f"data_dir = {corpus_dir}")
                       .replace("SEC.path = SEC.csv", f"SEC.path = {tmp_path / 'SEC.csv'}"))
        rc = main(["run", "--config", str(cfg), "--out-dir", str(tmp_path / "o")])
        assert rc == 1
        assert capsys.readouterr().err == f"error: {tmp_path / 'SEC.csv'} is not a file\n"
        assert not (tmp_path / "o").exists()

    def test_missing_asset_file_exits_one(self, corpus_dir, tmp_path, capsys):
        cfg = tmp_path / "missing.cfg"
        cfg.write_text((corpus_dir / "corpus.cfg").read_text()
                       .replace("data_dir = .", f"data_dir = {corpus_dir}")
                       .replace("SEC.path = SEC.csv", f"SEC.path = {tmp_path / 'SEC.csv'}"))
        rc = main(["run", "--config", str(cfg), "--out-dir", str(tmp_path / "o")])
        assert rc == 1
        assert capsys.readouterr().err == f"error: {tmp_path / 'SEC.csv'} does not exist\n"
        assert not (tmp_path / "o").exists()

    def test_missing_config_file_exits_one(self, tmp_path):
        rc = main(["run", "--config", str(tmp_path / "none.cfg")])
        assert rc == 1

    @pytest.mark.parametrize("key, value, setting", [
        ("te_base", "nan", "te_base"),
        ("te_base", "inf", "te_base"),
        ("nsii_threshold", "nan", "nsii_threshold"),
        ("nsii_threshold", "inf", "nsii_threshold"),
        ("em_tol", "nan", "em_tol"),
        ("kappa", "nan", "kappa"),
        ("kappa", "inf", "kappa"),
        ("n_max", "inf", "n_min/n_max"),
        ("n_min", "nan", "n_min/n_max"),
    ])
    def test_non_finite_setting_exits_one_before_calibration(
        self, corpus_dir, tmp_path, monkeypatch, capsys, key, value, setting
    ):
        def calibrate_asset(*args, **kwargs):
            raise AssertionError("calibration started")

        monkeypatch.setattr(pipeline, "calibrate_asset", calibrate_asset)
        lines = [line for line in (corpus_dir / "corpus.cfg").read_text().splitlines()
                 if not line.startswith(f"{key} =")]
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("\n".join(lines).replace("data_dir = .", f"data_dir = {corpus_dir}")
                       + f"\n{key} = {value}\n")
        rc = main(["run", "--config", str(cfg), "--out-dir", str(tmp_path / "o")])
        assert rc == 1
        assert capsys.readouterr().err.startswith(f"error: {setting} must be")
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("key, value, what", [
        ("analysis_start", "2006-02", "date '2006-02' not in YYYY-MM-DD form"),
        ("analysis_end", "today", "date 'today' not in YYYY-MM-DD form"),
        ("loss_start", "2006-13-01", "date '2006-13-01' not in YYYY-MM-DD form"),
        ("loss_end", "20081231", "date '20081231' not in YYYY-MM-DD form"),
        ("regressions", "SI-to-All | SI-to-Al", "unknown indicator 'SI-to-Al' in 'SI-to-Al'"),
        ("correlations", "NSII-on-Fin - SI-frm-IX",
         "unknown indicator 'SI-frm-IX' in 'NSII-on-Fin - SI-frm-IX'"),
    ])
    def test_loose_date_or_unknown_indicator_exits_one_before_calibration(
        self, corpus_dir, tmp_path, monkeypatch, capsys, key, value, what
    ):
        def calibrate_asset(*args, **kwargs):
            raise AssertionError("calibration started")

        monkeypatch.setattr(pipeline, "calibrate_asset", calibrate_asset)
        lines = [line for line in (corpus_dir / "corpus.cfg").read_text().splitlines()
                 if not line.startswith(f"{key} =")]
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("\n".join(lines).replace("data_dir = .", f"data_dir = {corpus_dir}")
                       + f"\n{key} = {value}\n")
        rc = main(["run", "--config", str(cfg), "--out-dir", str(tmp_path / "o")])
        assert rc == 1
        assert capsys.readouterr().err == f"error: {key}: {what}\n"
        assert not (tmp_path / "o").exists()


class TestRunReport:
    """run_report.json accounts for every configured asset and every file
    the run left in its output directory."""

    def test_clean_run(self, run_dir, corpus_dir):
        doc = check_run_report(run_dir, corpus_dir / "corpus.cfg")
        assert doc["processed"] == ["ENE", "MAT", "IND", "BNK", "SEC"]
        assert doc["failed"] == {}

    def test_run_with_a_corrupt_price_row(self, corpus_dir, tmp_path):
        data = tmp_path / "data"
        shutil.copytree(corpus_dir, data)
        lines = (data / "IND.csv").read_text().splitlines()
        lines[5] = lines[5].rsplit(",", 2)[0] + ",-4.0,100"
        (data / "IND.csv").write_text("\n".join(lines) + "\n")
        out = tmp_path / "o"
        assert main(["run", "--config", str(data / "corpus.cfg"), "--out-dir", str(out)]) == 0
        doc = check_run_report(out, data / "corpus.cfg")
        assert doc["processed"] == ["ENE", "MAT", "BNK", "SEC"]
        assert list(doc["failed"]) == ["IND"]

    def test_run_with_an_asset_outside_the_window(self, corpus_dir, tmp_path, capsys):
        data = tmp_path / "data"
        shutil.copytree(corpus_dir, data)
        lines = (data / "ENE.csv").read_text().splitlines()
        (data / "ENE.csv").write_text("\n".join(
            [lines[0]] + [line for line in lines[1:] if line.startswith("2008-")]) + "\n")
        out = tmp_path / "o"
        assert main(["run", "--config", str(data / "corpus.cfg"), "--out-dir", str(out)]) == 0
        reason = "window [2006-01-02, 2007-12-31] keeps fewer than 2 points of 'ENE'"
        assert f"failed: ENE: {reason}\n" in capsys.readouterr().out
        doc = check_run_report(out, data / "corpus.cfg")
        assert doc["processed"] == ["MAT", "IND", "BNK", "SEC"]
        assert doc["failed"] == {"ENE": reason}

    def test_unwritable_asset_output_exits_two_after_the_report(
        self, corpus_dir, tmp_path, capsys
    ):
        # an output that cannot be written is not a failed calibration
        config, out = slashed_config(corpus_dir, tmp_path), tmp_path / "o"
        assert main(["run", "--config", str(config), "--out-dir", str(out)]) == 2
        error = f"[Errno 2] No such file or directory: '{out / 'probabilities_E/NE.csv'}'"
        assert capsys.readouterr().err == f"error: {error}\n"
        doc = check_run_report(out, config, unreported=["E/NE"])
        assert doc["processed"] == ["MAT", "IND", "BNK", "SEC"]
        assert doc["failed"] == {}
        assert doc["skipped"] == [f"remaining stages ({error})"]
        assert f"\nskipped: remaining stages ({error})\n" in (out / "run_report.txt").read_text()


class TestSimulate:
    def test_writes_path_csv(self, tmp_path):
        out = tmp_path / "path.csv"
        rc = main([
            "simulate", "--p0", "1", "--mu", "1", "--sigma", "0", "--n", "1",
            "--dt", "0.01", "--steps", "200", "--seed", "3", "--out", str(out),
        ])
        assert rc == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "t,log_price"
        assert len(lines) == 102  # deterministic singularity at t_c = 1.0

    def test_bad_arguments_exit_one(self, tmp_path):
        assert main(["simulate", "--p0", "-1"]) == 1

    def test_non_finite_argument_exits_one_naming_it(self, capsys):
        assert main(["simulate", "--mu", "nan"]) == 1
        assert capsys.readouterr().err == "error: mu must be finite\n"

    def test_usage_error_exits_one(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["simulate", "--steps", "many"])
        assert exc.value.code == 1
        err = capsys.readouterr().err
        assert err.startswith("usage: sinet simulate")
        assert "argument --steps: invalid int value: 'many'" in err

    def test_out_bytes_are_pinned(self, tmp_path):
        out = tmp_path / "path.csv"
        rc = main(["simulate", "--p0", "1", "--mu", "0.5", "--sigma", "0.2", "--n", "1",
                   "--dt", "0.1", "--steps", "4", "--seed", "7", "--out", str(out)])
        assert rc == 0
        assert out.read_text() == (
            "t,log_price\n0.0,0.0\n0.1,0.051375194298750454\n0.2,0.12666601735610963\n"
            "0.30000000000000004,0.1644432836448151\n0.4,0.15701428984012292\n"
        )


class TestStageCommands:
    def test_te_prints_value(self, run_dir, capsys):
        rc = main([
            "te",
            "--source", str(run_dir / "probabilities_ENE.csv"),
            "--target", str(run_dir / "probabilities_MAT.csv"),
        ])
        assert rc == 0
        # the stage command prints the run's matrix entry for the pair exactly
        rows = [line.split(",") for line in (run_dir / "sii_matrix.csv").read_text().splitlines()
                if not line.startswith("#")]
        entry = next(row for row in rows if row[0] == "ENE")[rows[0].index("MAT")]
        assert capsys.readouterr().out == entry + "\n"
        assert float(entry) > 0.0

    def test_te_non_finite_base_exits_one(self, run_dir, capsys):
        rc = main([
            "te", "--base", "nan",
            "--source", str(run_dir / "probabilities_ENE.csv"),
            "--target", str(run_dir / "probabilities_MAT.csv"),
        ])
        assert rc == 1
        assert capsys.readouterr().err == "error: base must be finite and exceed 1, got nan\n"

    def test_network_non_finite_threshold_exits_one(self, run_dir, groups_file, tmp_path, capsys):
        rc = main([
            "network", "--matrix", str(run_dir / "sii_matrix.csv"),
            "--groups", str(groups_file), "--threshold", "nan",
            "--out-dir", str(tmp_path / "net"),
        ])
        assert rc == 1
        assert capsys.readouterr().err == (
            "error: threshold must be finite and nonnegative, got nan\n"
        )
        assert not (tmp_path / "net").exists()

    @pytest.mark.parametrize("flag, value, setting", [
        ("--tol", "nan", "tol"), ("--kappa", "nan", "kappa"), ("--kappa", "inf", "kappa"),
    ])
    def test_calibrate_non_finite_setting_exits_one(
        self, corpus_dir, tmp_path, capsys, flag, value, setting
    ):
        rc = main(["calibrate", "--input", str(corpus_dir / "ENE.csv"), flag, value,
                   "--out-dir", str(tmp_path / "o")])
        assert rc == 1
        assert capsys.readouterr().err.startswith(f"error: {setting} must be finite")
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("flag", ["--start", "--end"])
    @pytest.mark.parametrize("value", ["2006-02", "today", "2006-13-01"])
    def test_calibrate_loose_date_exits_one(self, corpus_dir, tmp_path, capsys, flag, value):
        rc = main(["calibrate", "--input", str(corpus_dir / "ENE.csv"), flag, value,
                   "--out-dir", str(tmp_path / "o")])
        assert rc == 1
        assert capsys.readouterr().err == f"error: {flag}: date '{value}' not in YYYY-MM-DD form\n"
        assert not (tmp_path / "o").exists()

    def test_calibrate_input_that_is_a_directory_exits_one(self, tmp_path, capsys):
        (tmp_path / "ENE.csv").mkdir()
        rc = main(["calibrate", "--input", str(tmp_path / "ENE.csv"),
                   "--out-dir", str(tmp_path / "o")])
        assert rc == 1
        assert capsys.readouterr().err == f"error: {tmp_path / 'ENE.csv'} is not a file\n"
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("command, option", [
        ("te", "--source"), ("te", "--target"),
        ("network", "--matrix"), ("network", "--groups"), ("network", "--losses"),
        ("indicators", "--matrix"), ("indicators", "--groups"),
        ("regress", "--indicators"), ("regress", "--groups"), ("regress", "--losses"),
        ("export", "--graph"), ("run", "--config"),
    ])
    def test_input_path_that_is_a_directory_exits_one(
        self, run_dir, groups_file, tmp_path, capsys, command, option
    ):
        inputs = {"--source": run_dir / "probabilities_ENE.csv",
                  "--target": run_dir / "probabilities_MAT.csv",
                  "--matrix": run_dir / "sii_matrix.csv", "--groups": groups_file,
                  "--losses": run_dir / "losses.csv", "--indicators": run_dir / "indicators.csv",
                  "--graph": run_dir / "sin.json", "--config": None}
        options, out = {
            "te": (["--source", "--target"], []),
            "network": (["--matrix", "--groups", "--losses"], ["--out-dir", "o"]),
            "indicators": (["--matrix", "--groups"], ["--out", "o"]),
            "regress": (["--indicators", "--groups", "--losses"], ["--out-dir", "o"]),
            "export": (["--graph"], ["--out", "o"]),
            "run": (["--config"], ["--out-dir", "o"]),
        }[command]
        directory = tmp_path / "input.csv"
        directory.mkdir()
        inputs[option] = directory
        argv = [command]
        for name in options:
            argv += [name, str(inputs[name])]
        rc = main(argv + [str(tmp_path / arg) if arg == "o" else arg for arg in out])
        assert rc == 1
        assert capsys.readouterr().err == f"error: {directory} is not a file\n"
        assert not (tmp_path / "o").exists()

    ONE_INPUT = pytest.mark.parametrize("command, option", [
        ("calibrate", "--input"),  # price table
        ("te", "--source"),  # probabilities table, the tokenizer's first
        ("indicators", "--matrix"),  # pipeline table, the line reader's alone
        ("run", "--config"),  # key-value config
        ("export", "--graph"),  # graph-JSON
    ])

    @staticmethod
    def run_on(command, option, path, run_dir, groups_file, tmp_path):
        """Exit code of ``command`` with ``path`` as ``option`` and its
        other inputs valid; an output goes to ``tmp_path / "o"``."""
        argv = {
            "calibrate": ["--out-dir", "o"],
            "te": ["--target", str(run_dir / "probabilities_MAT.csv")],
            "indicators": ["--groups", str(groups_file), "--out", "o"],
            "run": ["--out-dir", "o"],
            "export": ["--out", "o"],
        }[command]
        return main([command, option, str(path)]
                    + [str(tmp_path / arg) if arg == "o" else arg for arg in argv])

    @ONE_INPUT
    def test_missing_input_exits_one_naming_it(
        self, run_dir, groups_file, tmp_path, capsys, command, option
    ):
        missing = tmp_path / "missing" / "input.csv"
        assert self.run_on(command, option, missing, run_dir, groups_file, tmp_path) == 1
        assert capsys.readouterr().err == f"error: {missing} does not exist\n"
        assert not (tmp_path / "o").exists()

    @ONE_INPUT
    def test_input_not_utf8_exits_one_naming_it(
        self, run_dir, groups_file, tmp_path, capsys, command, option
    ):
        bad = tmp_path / "input.csv"
        bad.write_bytes(b"date,filtering\n2006-01-02,0.5\xff\n")
        assert self.run_on(command, option, bad, run_dir, groups_file, tmp_path) == 1
        assert capsys.readouterr().err == f"error: {bad}: not UTF-8 at byte 29\n"
        assert not (tmp_path / "o").exists()

    def test_network_and_indicators(self, run_dir, groups_file, tmp_path, capsys):
        rc = main([
            "indicators", "--matrix", str(run_dir / "sii_matrix.csv"),
            "--groups", str(groups_file), "--out", str(tmp_path / "ind.csv"),
        ])
        assert rc == 0
        rc = main([
            "network", "--matrix", str(run_dir / "sii_matrix.csv"),
            "--groups", str(groups_file), "--threshold", "0.02",
            "--losses", str(run_dir / "losses.csv"), "--out-dir", str(tmp_path / "net"),
        ])
        assert rc == 0
        assert (tmp_path / "net" / "sin.dot").exists()
        rc = main([
            "regress", "--indicators", str(tmp_path / "ind.csv"),
            "--groups", str(groups_file), "--losses", str(run_dir / "losses.csv"),
            "--out-dir", str(tmp_path / "reg"),
        ])
        assert rc == 0
        doc = json.loads((tmp_path / "reg" / "regressions.json").read_text())
        assert doc["regressions"] and doc["correlations"]

    def test_regress_empty_specs_run_nothing(self, run_dir, groups_file, tmp_path):
        # an empty spec means none, as `regressions =` does in a config
        rc = main([
            "regress", "--indicators", str(run_dir / "indicators.csv"),
            "--groups", str(groups_file), "--losses", str(run_dir / "losses.csv"),
            "--models", "", "--correlations", "", "--out-dir", str(tmp_path / "reg"),
        ])
        assert rc == 0
        doc = json.loads((tmp_path / "reg" / "regressions.json").read_text())
        assert doc["regressions"] == [] and doc["correlations"] == []

    def test_calibrate_single_asset(self, corpus_dir, tmp_path):
        rc = main([
            "calibrate", "--input", str(corpus_dir / "ENE.csv"), "--window", "1",
            "--kappa", "2.0", "--end", "2007-12-31", "--out-dir", str(tmp_path),
        ])
        assert rc == 0
        doc = json.loads((tmp_path / "params_ENE.json").read_text())
        assert 0 < doc["bubble_fraction_filtering"] < 100

    def test_calibrate_writes_what_run_writes(self, corpus_dir, run_dir, tmp_path):
        rc = main([
            "calibrate", "--input", str(corpus_dir / "ENE.csv"), "--window", "1",
            "--kappa", "2.0", "--start", "2006-01-02", "--end", "2007-12-31",
            "--out-dir", str(tmp_path),
        ])
        assert rc == 0

        def body(path):
            return [line for line in path.read_text().splitlines() if not line.startswith("#")]

        name = "probabilities_ENE.csv"
        assert body(tmp_path / name) == body(run_dir / name)
        ours = json.loads((tmp_path / "params_ENE.json").read_text())
        theirs = json.loads((run_dir / "params_ENE.json").read_text())
        assert ours.pop("provenance") != theirs.pop("provenance")
        assert ours == theirs


class TestExport:
    def test_round_trip(self, run_dir, tmp_path):
        out_json = tmp_path / "again.json"
        rc = main([
            "export", "--graph", str(run_dir / "sin.json"),
            "--format", "graph-json", "--out", str(out_json),
        ])
        assert rc == 0
        assert out_json.read_bytes() == (run_dir / "sin.json").read_bytes()

    def test_unknown_format_is_usage_error(self, run_dir, tmp_path):
        rc = main([
            "export", "--graph", str(run_dir / "sin.json"),
            "--format", "gexf", "--out", str(tmp_path / "x"),
        ])
        assert rc == 1

    @pytest.mark.parametrize("edit, what", [
        (lambda doc: {k: v for k, v in doc.items() if k != "nodes"},
         "the document has no 'nodes'"),
        (lambda doc: [doc], "the document is not an object"),
        (lambda doc: {**doc, "edges": [{"source": "ENE", "target": "XYZ", "weight": 0.5}]},
         "edge ('ENE', 'XYZ') has an endpoint that is not a node"),
        (lambda doc: {**doc, "edges": [{"source": "ENE", "target": "ENE", "weight": 0.5}]},
         "self-edges are not allowed"),
        (lambda doc: {**doc, "edges": [{"source": "ENE", "target": "MAT", "weight": 0.5},
                                       {"source": "MAT", "target": "ENE", "weight": 0.5}]},
         "duplicate or bidirectional pair (MAT, ENE)"),
        (lambda doc: {**doc, "edges": [{"source": "ENE", "target": "MAT", "weight": 1.5}]},
         "edge weight 1.5 outside [0, 1]"),
    ], ids=["no-nodes", "list", "unlisted-endpoint", "self-edge", "bidirectional", "weight"])
    def test_malformed_graph_exits_one(self, run_dir, tmp_path, capsys, edit, what):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(edit(json.loads((run_dir / "sin.json").read_text()))))
        out = tmp_path / "g.dot"
        rc = main(["export", "--graph", str(bad), "--format", "dot", "--out", str(out)])
        assert rc == 1
        assert capsys.readouterr().err == f"error: {bad}: {what}\n"
        assert not out.exists()


class TestTeOptions:
    def test_smoothing_column(self, run_dir, capsys):
        rc = main([
            "te", "--source", str(run_dir / "probabilities_ENE.csv"),
            "--target", str(run_dir / "probabilities_MAT.csv"),
            "--column", "smoothing", "--bins", "5", "--base", "2",
        ])
        assert rc == 0
        assert float(capsys.readouterr().out.strip()) >= 0.0

    @pytest.mark.parametrize("bins, code, err", [
        ("40", 0, ""),
        ("41", 1, "error: bin_count must be an integer in [2, 40], got 41\n"),
    ])
    def test_bins_bound(self, run_dir, capsys, bins, code, err):
        rc = main([
            "te", "--source", str(run_dir / "probabilities_ENE.csv"),
            "--target", str(run_dir / "probabilities_MAT.csv"), "--bins", bins,
        ])
        assert rc == code
        assert capsys.readouterr().err == err


class TestMalformedInput:
    @pytest.mark.parametrize("row, what", [
        ("2000-01-04", "missing filtering on line 3"),
        ("2000-01-04,abc,0.5", "unparseable filtering on line 3"),
    ])
    def test_te_bad_row_exits_one_naming_line(self, tmp_path, capsys, row, what):
        path = tmp_path / "f.csv"
        path.write_text(f"date,filtering,smoothing\n2000-01-03,0.5,0.5\n{row}\n")
        rc = main(["te", "--source", str(path), "--target", str(path)])
        assert rc == 1
        assert capsys.readouterr().err == f"error: {path}: {what}\n"

    @pytest.mark.parametrize("command, text, what", [
        ("calibrate", "", "empty file"),
        ("te", "", "empty table"),
        ("te", "# note\n", "empty table"),
    ], ids=["calibrate-empty", "te-empty", "te-comment-only"])
    def test_empty_input_exits_one(self, tmp_path, capsys, command, text, what):
        path = tmp_path / "f.csv"
        path.write_text(text)
        argv = {"calibrate": ["--input", str(path), "--out-dir", str(tmp_path / "o")],
                "te": ["--source", str(path), "--target", str(path)]}[command]
        assert main([command, *argv]) == 1
        assert capsys.readouterr().err == f"error: {path}: {what}\n"
        assert not (tmp_path / "o").exists()

    def test_te_missing_column_exits_one(self, tmp_path, capsys):
        path = tmp_path / "f.csv"
        path.write_text("date,filtering\n2000-01-03,0.5\n2000-01-04,0.6\n2000-01-05,0.4\n")
        rc = main(["te", "--source", str(path), "--target", str(path), "--column", "smoothing"])
        assert rc == 1
        assert capsys.readouterr().err == f"error: {path}: no column 'smoothing'\n"

    def test_indicators_ragged_matrix_exits_one_naming_line(
        self, tmp_path, groups_file, capsys
    ):
        matrix = tmp_path / "m.csv"
        matrix.write_text("node,ENE,MAT\nENE,0.0,0.1\nMAT,0.2\n")
        rc = main(["indicators", "--matrix", str(matrix), "--groups", str(groups_file),
                   "--out", str(tmp_path / "ind.csv")])
        assert rc == 1
        assert capsys.readouterr().err == (
            f"error: {matrix}: 2 cells where the header has 3 on line 3\n"
        )

    @pytest.mark.parametrize("rows, what", [
        ("ENE,0.0,0.1\nMAT,0.2,0.0\nSEC,0.1,0.1\n",
         "row 'SEC' where the header has no node on line 4"),
        ("ENE,0.0,0.1\n", "1 rows where the header has 2 nodes"),
    ], ids=["extra-row", "missing-row"])
    def test_network_row_count_off_exits_one(self, tmp_path, groups_file, capsys, rows, what):
        matrix = tmp_path / "m.csv"
        matrix.write_text(f"node,ENE,MAT\n{rows}")
        rc = main(["network", "--matrix", str(matrix), "--groups", str(groups_file),
                   "--threshold", "0.05", "--out-dir", str(tmp_path / "net")])
        assert rc == 1
        assert capsys.readouterr().err == f"error: {matrix}: {what}\n"

    def test_network_rows_out_of_header_order_exit_one(self, tmp_path, groups_file, capsys):
        matrix = tmp_path / "m.csv"
        matrix.write_text("node,ENE,MAT\nMAT,0.2,0.0\nENE,0.0,0.1\n")
        rc = main(["network", "--matrix", str(matrix), "--groups", str(groups_file),
                   "--threshold", "0.05", "--out-dir", str(tmp_path / "net")])
        assert rc == 1
        assert capsys.readouterr().err == (
            f"error: {matrix}: row 'MAT' where the header has 'ENE' on line 2\n"
        )

    @pytest.mark.parametrize("table, text, what", [
        ("groups", "node,group\nENE,industrial\nENE,financial\n", "duplicate node 'ENE' on line 3"),
        ("losses", "node,max_loss_pct\nENE,nan\n", "non-finite max_loss_pct on line 2"),
        ("groups", "name,group\nENE,industrial\n", "expected columns node,group"),
        ("losses", "node,loss\nENE,10.0\n", "expected columns node,max_loss_pct"),
        ("indicators", "name,SI-to-All\nENE,0.1\n", "first column must be 'node'"),
        ("indicators", "node,SI-to-Fin\nENE,0.1\n", "missing indicator column 'SI-to-All'"),
        ("indicators", f"{INDICATOR_HEADER}\nENE,0.5,0.25,0,0,0,0,1.25,0,0\n",
         "NSII-on-All is not SI-to-All - SI-from-All on line 2"),
        ("indicators", f"{INDICATOR_HEADER}\nENE,0.5,0.25,0,0,0,0,0.25,0,0\n"
         "MAT,0,0,0.5,0.25,0.5,0.25,0,0.5,0.5\n",
         "NSII-on-Fin is not SI-to-Fin - SI-from-Fin on line 3"),
    ])
    def test_regress_bad_node_table_exits_one(
        self, run_dir, groups_file, tmp_path, capsys, table, text, what
    ):
        paths = {"groups": groups_file, "losses": run_dir / "losses.csv",
                 "indicators": run_dir / "indicators.csv"}
        paths[table] = tmp_path / f"{table}.csv"
        paths[table].write_text(text)
        out = tmp_path / "reports"
        rc = main(["regress", "--indicators", str(paths["indicators"]),
                   "--groups", str(paths["groups"]), "--losses", str(paths["losses"]),
                   "--out-dir", str(out)])
        assert rc == 1
        assert capsys.readouterr().err == f"error: {paths[table]}: {what}\n"
        assert not out.exists()

    @pytest.mark.parametrize("flag, key, value", [
        ("--models", "regressions", "SI-to-Al"),
        ("--correlations", "correlations", "NSII-on-Al"),
    ])
    def test_regress_unknown_indicator_exits_one(self, tmp_path, capsys, flag, key, value):
        # two nodes: no scope has enough observations to fit a model
        matrix = SIIMatrix(("ENE", "BNK"), np.array([[0.0, 0.1], [0.2, 0.0]]))
        groups = NodeGroup({"ENE": "industrial", "BNK": "financial"})
        indicators = pipeline.write_indicators(
            tmp_path / "ind.csv", compute_indicators(matrix, groups))
        (tmp_path / "groups.csv").write_text("node,group\nENE,industrial\nBNK,financial\n")
        (tmp_path / "losses.csv").write_text("node,max_loss_pct\nENE,10.0\nBNK,20.0\n")
        out = tmp_path / "reports"
        rc = main(["regress", "--indicators", str(indicators),
                   "--groups", str(tmp_path / "groups.csv"),
                   "--losses", str(tmp_path / "losses.csv"), flag, value,
                   "--out-dir", str(out)])
        assert rc == 1
        assert capsys.readouterr().err == (
            f"error: {key}: unknown indicator {value!r} in {value!r}\n")
        assert not out.exists()

    def test_te_misaligned_files_exit_one(self, tmp_path, capsys):
        # equal lengths, different dates: the pair has no common day
        paths = []
        probabilities = [0.1, 0.9, 0.2, 0.8, 0.3, 0.7, 0.4, 0.6, 0.5, 0.1]
        for year in (2006, 2007):
            path = tmp_path / f"p{year}.csv"
            path.write_text("date,filtering,smoothing\n" + "".join(
                f"{year}-01-{day:02d},{p!r},0.5\n" for day, p in enumerate(probabilities, 2)))
            paths.append(path)
        rc = main(["te", "--source", str(paths[0]), "--target", str(paths[1])])
        assert rc == 1
        assert capsys.readouterr() == (
            "", "error: series 'target' is not aligned with 'source'\n")

    @pytest.mark.parametrize("text, what", [
        ("node,ENE,MAT\nENE,0.0,0.1\nMAT,inf,0.0\n", "non-finite ENE on line 3"),
        ("node,ENE,MAT\nENE,0.0,0.1\nMAT,0.2,0.5\n", "nonzero diagonal on line 3"),
    ], ids=["non-finite", "diagonal"])
    def test_network_bad_matrix_cell_exits_one_naming_line(
        self, tmp_path, groups_file, capsys, text, what
    ):
        matrix = tmp_path / "m.csv"
        matrix.write_text(text)
        rc = main(["network", "--matrix", str(matrix), "--groups", str(groups_file),
                   "--out-dir", str(tmp_path / "net")])
        assert rc == 1
        assert capsys.readouterr().err == f"error: {matrix}: {what}\n"
        assert not (tmp_path / "net").exists()


class TestRuntimeFailure:
    """Failures of the computation or of the output exit with 2."""

    def test_out_dir_that_is_a_file_exits_two(self, corpus_dir, tmp_path, capsys):
        taken = tmp_path / "taken"
        taken.write_text("not a directory\n")
        rc = main(["calibrate", "--input", str(corpus_dir / "ENE.csv"),
                   "--max-iterations", "1", "--out-dir", str(taken)])
        assert rc == 2
        assert capsys.readouterr().err.startswith("error: [Errno 17] File exists: ")

    @pytest.mark.parametrize("command", ["indicators", "export", "simulate", "calibrate", "run"])
    def test_output_in_a_missing_directory_exits_two(
        self, run_dir, corpus_dir, groups_file, tmp_path, capsys, command
    ):
        missing = tmp_path / "missing"
        config = slashed_config(corpus_dir, tmp_path)
        argv = {
            "indicators": ["--matrix", str(run_dir / "sii_matrix.csv"),
                           "--groups", str(groups_file), "--out", str(missing / "ind.csv")],
            "export": ["--graph", str(run_dir / "sin.json"), "--out", str(missing / "x.dot")],
            "simulate": ["--steps", "10", "--out", str(missing / "p.csv")],
            # the asset id names the output files: probabilities_a/b.csv
            "calibrate": ["--input", str(corpus_dir / "ENE.csv"), "--asset-id", "a/b",
                          "--max-iterations", "1", "--out-dir", str(tmp_path)],
            # the asset id E/NE names probabilities_E/NE.csv
            "run": ["--config", str(config), "--out-dir", str(tmp_path / "o")],
        }[command]
        rc = main([command] + argv)
        assert rc == 2
        assert capsys.readouterr().err.startswith("error: [Errno 2] No such file or directory: ")

    def test_numerical_failure_exits_two(self, corpus_dir, tmp_path, monkeypatch, capsys):
        def em_fit(series, config):
            raise NumericalFailureError(7, "EM iteration 3: filter normaliser nan at step 7")

        monkeypatch.setattr(pipeline, "em_fit", em_fit)
        rc = main(["calibrate", "--input", str(corpus_dir / "ENE.csv"),
                   "--out-dir", str(tmp_path / "o")])
        assert rc == 2
        assert capsys.readouterr().err == (
            "error: EM iteration 3: filter normaliser nan at step 7\n"
        )
        assert not (tmp_path / "o").exists()

    def test_unconverged_p_value_exits_two(
        self, run_dir, groups_file, tmp_path, monkeypatch, capsys
    ):
        monkeypatch.setattr(analysis, "_BETA_FRACTION_MAX_TERMS", 1)
        out = tmp_path / "reports"
        rc = main(["regress", "--indicators", str(run_dir / "indicators.csv"),
                   "--groups", str(groups_file), "--losses", str(run_dir / "losses.csv"),
                   "--out-dir", str(out)])
        assert rc == 2
        assert capsys.readouterr().err == (
            "error: incomplete beta fraction: no convergence in 1 terms\n")
        assert not out.exists()
