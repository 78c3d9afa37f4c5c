"""Import hygiene: no sinet run loads any part of scipy.

`import sinet` costs numpy's import alone, and so do a calibration, a full
`run_pipeline` and `sinet regress`: the regressions' rank check and
p-values are numpy and `math` only. scipy is a test dependency, the oracle
of the statistics tests. Each check runs in a fresh interpreter, because the
test process itself has long imported scipy; one more runs `sinet run` in an
interpreter where scipy cannot be imported at all.
"""
import json
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"
SCIPY_PARTS = ("scipy", "scipy.stats", "scipy.optimize", "scipy.linalg", "scipy.special")

# makes every scipy import fail, as on an install with numpy alone
BLOCK_SCIPY = """
import importlib.abc

class _NoScipy(importlib.abc.MetaPathFinder):
    def find_spec(self, name, path=None, target=None):
        if name == "scipy" or name.startswith("scipy."):
            raise ModuleNotFoundError(f"No module named {name!r}", name=name)
        return None

sys.meta_path.insert(0, _NoScipy())
"""


def run_fresh(code: str) -> subprocess.CompletedProcess:
    """Run ``code`` in a fresh interpreter that imports sinet from this checkout."""
    program = f"import json, sys\nsys.path.insert(0, {str(SRC)!r})\n{code}\n"
    return subprocess.run([sys.executable, "-c", program], capture_output=True,
                          text=True, timeout=300)


def scipy_loaded_after(code: str) -> list[str]:
    """The SCIPY_PARTS in ``sys.modules`` after ``code`` runs in a fresh
    interpreter."""
    done = run_fresh(
        f"{code}\nprint(json.dumps([m for m in {SCIPY_PARTS!r} if m in sys.modules]))")
    assert done.returncode == 0, done.stderr
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


def test_run_pipeline_loads_no_scipy_part(bundled_run):
    out, loaded = bundled_run
    doc = json.loads((out / "regressions.json").read_text())
    assert any("p_values" in entry for entry in doc["regressions"])
    assert loaded == []


def test_run_pipeline_never_loads_scipy_stats(bundled_run):
    out, loaded = bundled_run
    assert (out / "regressions.json").exists()
    assert "scipy.stats" not in loaded


def test_run_pipeline_never_loads_scipy_optimize(bundled_run):
    _, loaded = bundled_run
    assert "scipy.optimize" not in loaded


def test_regress_on_run_outputs_loads_no_scipy_part(bundled_run, tmp_path):
    out, _ = bundled_run
    groups = tmp_path / "groups.csv"
    groups.write_text("node,group\nENE,industrial\nMAT,industrial\nIND,industrial\n"
                      "BNK,financial\nSEC,financial\n")
    reports = tmp_path / "reports"
    assert scipy_loaded_after(
        "from sinet.cli import main\n"
        f"assert main(['regress', '--indicators', {str(out / 'indicators.csv')!r},\n"
        f"             '--groups', {str(groups)!r}, '--losses', {str(out / 'losses.csv')!r},\n"
        f"             '--out-dir', {str(reports)!r}]) == 0"
    ) == []
    doc = json.loads((reports / "regressions.json").read_text())
    assert any("p_values" in entry for entry in doc["regressions"])


def test_run_without_scipy_matches_a_run_with_it(bundled_run, tmp_path):
    out, _ = bundled_run
    blocked = tmp_path / "blocked"
    done = run_fresh(
        f"{BLOCK_SCIPY}\n"
        "try:\n"
        "    import scipy\n"
        "except ModuleNotFoundError:\n"
        "    pass\n"
        "else:\n"
        "    sys.exit('scipy imported through the block')\n"
        "from sinet.cli import main\n"
        f"sys.exit(main(['run', '--out-dir', {str(blocked)!r}]))"
    )
    assert done.returncode == 0, done.stderr
    names = sorted(p.name for p in out.iterdir())
    assert sorted(p.name for p in blocked.iterdir()) == names
    for name in names:
        want, got = (out / name).read_bytes(), (blocked / name).read_bytes()
        if name == "config_echo.cfg":  # the one line that names the directory
            want, got = (
                [line for line in text.splitlines() if not line.startswith(b"output_dir = ")]
                for text in (want, got))
        assert got == want, name
