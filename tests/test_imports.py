"""Import hygiene: scipy loads only where sinet uses it.

`import sinet` costs numpy's import alone, and so does a calibration;
`scipy.linalg`/`scipy.special` load with the first regression.
`scipy.stats` (1.4-2.1 s and 98 MB peak RSS in a fresh process) and
`scipy.optimize` are never loaded by the library. Each check runs in a fresh
interpreter, because the test process itself has long imported scipy.
"""
import json
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"
SCIPY_PARTS = ("scipy.stats", "scipy.optimize", "scipy.linalg", "scipy.special")


def scipy_loaded_after(code: str) -> list[str]:
    """The SCIPY_PARTS in ``sys.modules`` after ``code`` runs in a fresh
    interpreter that imports sinet from this checkout."""
    program = (
        f"import json, sys\nsys.path.insert(0, {str(SRC)!r})\n{code}\n"
        f"print(json.dumps([m for m in {SCIPY_PARTS!r} if m in sys.modules]))\n"
    )
    done = subprocess.run([sys.executable, "-c", program], capture_output=True,
                          text=True, check=True, timeout=300)
    return json.loads(done.stdout.splitlines()[-1])


@pytest.fixture(scope="module")
def bundled_run(tmp_path_factory):
    """Output directory of `run_pipeline` on the bundled corpus, and the
    scipy parts that run loaded."""
    out = tmp_path_factory.mktemp("bundled")
    loaded = scipy_loaded_after(
        "from sinet.pipeline import PipelineConfig, run_pipeline\n"
        "from sinet.synthetic import bundled_corpus_config\n"
        "config = PipelineConfig.from_file(bundled_corpus_config())\n"
        f"config.output_dir = {str(out)!r}\n"
        "run_pipeline(config)"
    )
    return out, loaded


def test_probe_sees_loaded_modules():
    assert "scipy.special" in scipy_loaded_after("import scipy.special")


@pytest.mark.parametrize("code", [
    "import sinet",
    "import sinet.cli",
    "from sinet.pipeline import PipelineConfig\n"
    "from sinet.synthetic import bundled_corpus_config\n"
    "PipelineConfig.from_file(bundled_corpus_config()).validate()",
    "import numpy as np\n"
    "from sinet import EMConfig, LogPriceSeries, em_fit\n"
    "y = np.cumsum(np.random.default_rng(3).normal(1e-3, 1e-2, 120))\n"
    "series = LogPriceSeries('A', np.datetime64('2006-01-02') + np.arange(120), y)\n"
    "assert em_fit(series, EMConfig(average_window=1))[1].iterations > 1",
], ids=["import", "cli", "config", "em_fit"])
def test_no_scipy_part_loaded(code):
    assert scipy_loaded_after(code) == []


def test_te_on_run_outputs_loads_no_scipy_part(bundled_run):
    out, _ = bundled_run
    assert scipy_loaded_after(
        "from sinet.entropy import sii\n"
        "from sinet.io import read_probabilities_csv\n"
        f"source = read_probabilities_csv({str(out / 'probabilities_ENE.csv')!r})\n"
        f"target = read_probabilities_csv({str(out / 'probabilities_MAT.csv')!r})\n"
        "assert sii(source, target) > 0.0"
    ) == []


def test_run_pipeline_never_loads_scipy_stats(bundled_run):
    out, loaded = bundled_run
    assert (out / "regressions.json").exists()
    assert "scipy.stats" not in loaded


def test_run_pipeline_never_loads_scipy_optimize(bundled_run):
    _, loaded = bundled_run
    assert "scipy.optimize" not in loaded
