"""The benchmark's traced run (`benchmarks/run.py --trace 1`) wraps sinet's
public functions by module and attribute name. These checks load
`benchmarks/tracing.py` as it is, without changing it, and fail when a
rename or deletion in sinet would break that run.
"""
import importlib.util
from pathlib import Path

import numpy as np
import pytest

from sinet import EMConfig, LogPriceSeries, hmm, pipeline
from sinet.synthetic import bundled_corpus_config

TRACING = Path(__file__).resolve().parents[1] / "benchmarks" / "tracing.py"


def short_series() -> LogPriceSeries:
    rng = np.random.default_rng(3)
    return LogPriceSeries("A", np.datetime64("2006-01-02") + np.arange(120),
                          np.cumsum(rng.normal(1e-3, 1e-2, 120)))


@pytest.fixture(scope="module")
def tracing():
    spec = importlib.util.spec_from_file_location("benchmark_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_target_resolves(tracing):
    for name, (module, attr, _) in tracing.TARGETS.items():
        assert callable(getattr(module, attr, None)), name


def test_install_wraps_each_target_and_uninstall_restores_it(tracing):
    originals = {name: getattr(module, attr)
                 for name, (module, attr, _) in tracing.TARGETS.items()}
    tracer = tracing.Tracer()
    tracer.install()
    try:
        for name, (module, attr, _) in tracing.TARGETS.items():
            assert getattr(module, attr).__wrapped__ is originals[name], name
        # the spans of em_fit count what EMTrace records
        pipeline.em_fit(short_series(), EMConfig(max_iterations=2))
        counts = [span[5] for span in tracer.spans if span[0] == "hmm.em_fit"]
        assert len(counts) == 1 and set(counts[0]) == {"iterations", "stalled"}
    finally:
        tracer.uninstall()
    for name, (module, attr, _) in tracing.TARGETS.items():
        assert getattr(module, attr) is originals[name], name


def test_pipeline_calls_em_fit_through_its_module_global(tmp_path, monkeypatch):
    # benchmarks/workloads.py swaps pipeline.em_fit to collect each fit
    assert pipeline.em_fit is hmm.em_fit
    fitted = []

    def em_fit(series, config):
        fitted.append(series.asset_id)
        return hmm.em_fit(series, config)

    monkeypatch.setattr(pipeline, "em_fit", em_fit)
    series = short_series()
    path = tmp_path / "A.csv"
    path.write_text("date,price\n" + "".join(
        f"{d},{p!r}\n" for d, p in zip(series.timestamps, np.exp(series.log_prices).tolist())))
    pipeline.calibrate_asset("A", path, {}, EMConfig(average_window=1, max_iterations=1))
    assert fitted == ["A"]


def test_no_writer_span_nests_in_another(tracing, tmp_path):
    # io.write.s sums the writer spans, so a writer that calls another
    # traced writer would count the inner write twice
    writers = tuple(tracing.IO_WRITERS)
    config = pipeline.PipelineConfig.from_file(bundled_corpus_config())
    config.output_dir = tmp_path / "out"
    tracer = tracing.Tracer()
    tracer.install()
    try:
        pipeline.run_pipeline(config)
    finally:
        tracer.uninstall()
    spans = tracer.spans
    written = [span for span in spans if span[0] in writers]
    assert {span[0] for span in written} == set(writers)
    for name, _, _, parent, _, _ in written:
        assert parent < 0 or spans[parent][0] not in writers, name
