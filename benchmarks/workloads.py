"""The three benchmark workloads: input generation, one pass, output checks.

Every workload is a closed loop with one client: ``run_pass`` runs one full
pass through sinet's public API and returns its outputs; ``check`` compares
them against checks written here, independent of sinet, and returns
``(attempted, failed, notes)`` in the workload's units (assets or ordered
pairs). Inputs are made before any timing starts. ``warmup_passes`` untimed
passes run first, so that lazy set-up and first-call costs stay out of the
timed passes.

The two EM workloads use fixed data: the bundled corpus, and a long history
generated at data seed 42 (the corpus's own seed). On data made from the run
seed, EM iteration counts and stalls differ so much from seed to seed that
the pass time of one corpus varied by a factor of 3.5 across seeds 0-9, far
more than any change the benchmark has to detect. ``wide_network`` makes
its inputs from the run seed; its cost depends on the input sizes only.
"""
from __future__ import annotations

import csv
import hashlib
import json
import math
from collections import Counter
from pathlib import Path

import numpy as np

import sinet
from sinet import pipeline, synthetic
from sinet import io as sio

LN10 = math.log(10.0)


def sha256(path: Path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def _read_probability_columns(path: Path) -> list[tuple[float, float]]:
    """Parse a probabilities CSV written by the pipeline without sinet."""
    with path.open(newline="") as fh:
        rows = [r for r in csv.reader(fh) if r and not r[0].startswith("#")]
    if rows[0] != ["date", "filtering", "smoothing"]:
        raise ValueError(f"{path.name}: unexpected header {rows[0]}")
    return [(float(r[1]), float(r[2])) for r in rows[1:]]


class _EMWorkload:
    """Shared pass and check for workloads that run ``run_pipeline``."""

    unit = "asset-days"
    fail_unit = "assets"

    def __init__(self, config_path: Path, out_dir: Path):
        self.config = pipeline.PipelineConfig.from_file(config_path)
        self.config.output_dir = out_dir
        self.assets = [a.asset_id for a in self.config.assets]
        self.setup_code = (
            "from sinet.pipeline import PipelineConfig\n"
            f"PipelineConfig.from_file({str(config_path)!r}).validate()\n"
        )
        self.loglik_per_obs = None
        self.units_per_pass = None

    def run_pass(self):
        # Keep each fit's EMTrace for the monotonicity check. The shim wraps
        # whatever em_fit the pipeline looks up, so it also wraps the traced one.
        fits = []
        inner = pipeline.em_fit

        def em_fit(series, config=None):
            out = inner(series, config)
            fits.append((len(series), out[1]))
            return out

        pipeline.em_fit = em_fit
        try:
            report = pipeline.run_pipeline(self.config)
        finally:
            pipeline.em_fit = inner
        return report, fits

    def check(self, out) -> tuple[int, int, list[str]]:
        report, fits = out
        bad = set(report.failed) | (set(self.assets) - set(report.processed))
        notes = [f"{a}: not processed ({report.failed.get(a, 'missing')})" for a in sorted(bad)]
        if len(fits) != len(report.processed):
            notes.append(f"{len(fits)} fits for {len(report.processed)} processed assets")
            bad |= set(self.assets)
        for asset, (length, trace) in zip(report.processed, fits):
            try:
                trace.validate_monotone()
            except ValueError as err:
                bad.add(asset)
                notes.append(f"{asset}: {err}")
            path = Path(self.config.output_dir) / f"probabilities_{asset}.csv"
            values = _read_probability_columns(path)
            if len(values) != length or not all(
                0.0 <= f <= 1.0 and 0.0 <= s <= 1.0 for f, s in values
            ):
                bad.add(asset)
                notes.append(f"{asset}: probabilities missing or outside [0, 1]")
        self.units_per_pass = sum(length for length, _ in fits)
        self.loglik_per_obs = float(np.mean(
            [trace.logliks[-1] / (length - 1) for length, trace in fits]
        ))
        return len(self.assets), len(bad), notes


class Corpus(_EMWorkload):
    """The bundled five-asset corpus, exactly as ``sinet run`` runs it."""

    name = "corpus"
    throughput_name = "asset_days_per_s"
    warmup_passes = 1

    def __init__(self, work: Path, seed: int):
        config_path = synthetic.bundled_corpus_config()
        super().__init__(config_path, work / "out")
        files = [config_path] + [a.path for a in self.config.assets]
        self.inputs = {
            "K": len(self.assets),
            "T": 730,
            "source": "bundled corpus (sinet.synthetic.write_corpus at seed 42)",
            "sha256": {Path(p).name: sha256(p) for p in files},
        }


LONG_DAYS = 11680  # 32 years of daily prices
LONG_EPISODES = ((800, 250), (2600, 200), (4300, 300), (6100, 220), (7900, 260), (9700, 240))
LONG_DATA_SEED = 42


def _long_log_prices(rng, leader_shocks, lag, coupling):
    """Daily log prices: GBM with a share of the leader's lagged shocks, and
    bubble episodes drawn with ``simulate_sa_path`` (n = 0.5, drift-dominant
    so the path stays clear of the singularity), each followed by a 60-day
    sell-off that gives the gain back."""
    n, mu0, sigma0, selloff = 0.5, 1e-4, 0.01, 60
    own = rng.standard_normal(LONG_DAYS)
    lagged = np.concatenate([np.zeros(lag), leader_shocks[: LONG_DAYS - lag]])
    shocks = coupling * lagged + math.sqrt(1.0 - coupling**2) * own
    y = np.zeros(LONG_DAYS + 1)
    t = 0
    for start, length in LONG_EPISODES:
        start += lag
        y[t + 1 : start + 1] = y[t] + np.cumsum(mu0 + sigma0 * shocks[t:start])
        p0 = math.exp(y[start])
        mu = 0.55 * p0 ** (-n) / (n * length)
        while True:
            path = sinet.simulate_sa_path(p0, mu, mu / 1.1, n, 1.0, length,
                                          seed=int(rng.integers(2**31)))
            if not path.hit_critical:
                break
        end = start + length
        y[start + 1 : end + 1] = path.log_prices[1:]
        gain = y[end] - y[start]
        y[end + 1 : end + selloff + 1] = y[end] + np.cumsum(
            -gain / selloff + 1.6 * sigma0 * shocks[end : end + selloff]
        )
        t = end + selloff
    y[t + 1 :] = y[t] + np.cumsum(mu0 + sigma0 * shocks[t:])
    return y


class LongHistory(_EMWorkload):
    """Four 32-year daily series with staged, lag-coupled bubble episodes."""

    name = "long_history"
    throughput_name = "asset_days_per_s"
    # a pass takes about 12 s, so first-call costs are a tiny share of it
    # and a discarded pass would cost more than the run can spare
    warmup_passes = 0

    def __init__(self, work: Path, seed: int):
        data = work / "inputs"
        data.mkdir(parents=True, exist_ok=True)
        leader = np.random.default_rng([LONG_DATA_SEED, 0]).standard_normal(LONG_DAYS)
        specs = (("LA", "industrial", 0, 0.0), ("LB", "industrial", 1, 0.8),
                 ("LC", "financial", 2, 0.6), ("LD", "financial", 0, 0.0))
        dates = np.datetime64("1990-01-01", "D") + np.arange(LONG_DAYS + 1)
        logs = []
        for idx, (name, _, lag, coupling) in enumerate(specs):
            rng = np.random.default_rng([LONG_DATA_SEED, idx + 1])
            y = _long_log_prices(rng, leader, lag, coupling)
            logs.append(y)
            lines = ["date,price"] + [f"{d},{p:.6f}" for d, p in zip(dates, np.exp(y))]
            (data / f"{name}.csv").write_text("\n".join(lines) + "\n")
        # kappa above the series' log range keeps both switch channels live
        kappa = math.ceil(max(np.abs(y).max() for y in logs)) + 1.0
        cfg = ["data_dir = .", "assets = " + ", ".join(s[0] for s in specs)]
        for name, group, _, _ in specs:
            cfg += [f"asset.{name}.path = {name}.csv", f"asset.{name}.group = {group}"]
        cfg += [f"kappa = {kappa}", "loss_start = 2021-01-01", "loss_end = 2021-12-31"]
        (data / "long_history.cfg").write_text("\n".join(cfg) + "\n")
        super().__init__(data / "long_history.cfg", work / "out")
        self.inputs = {
            "K": len(specs),
            "T": LONG_DAYS + 1,
            "average_window": self.config.em.average_window,
            "kappa": kappa,
            "data_seed": LONG_DATA_SEED,
            "sha256": {p.name: sha256(p) for p in sorted(data.iterdir())},
        }


def _bin(values, bins):
    return [min(int(math.floor(v * bins)), bins - 1) for v in values]


def te_by_counting(target, source, bins=10, base=10.0) -> float:
    """Transfer entropy source -> target by dictionary counting."""
    u, v = _bin(target, bins), _bin(source, bins)
    n = len(u) - 1
    triple = Counter(zip(u[1:], u[:-1], v[:-1]))
    target_pair = Counter(zip(u[1:], u[:-1]))
    lagged_pair = Counter(zip(u[:-1], v[:-1]))
    single = Counter(u[:-1])
    te = 0.0
    for (a, b, c), count in triple.items():
        te += count / n * math.log(
            count * single[b] / (target_pair[a, b] * lagged_pair[b, c])
        )
    return max(te / math.log(base), 0.0)


WIDE_K = 96
WIDE_T = 2920
WIDE_CLUSTER = 8
WIDE_THRESHOLD = 0.005
WIDE_SAMPLE = 24


class WideNetwork:
    """Re-analysis of 96 precomputed bubble-probability series: CSV read,
    influence matrix, indicators, network, graph export, loss analytics."""

    name = "wide_network"
    unit = "ordered pairs"
    fail_unit = "pairs"
    throughput_name = "te_pairs_per_s"
    warmup_passes = 1

    def __init__(self, work: Path, seed: int):
        data = work / "inputs"
        data.mkdir(parents=True, exist_ok=True)
        self.out_dir = work / "out"
        self.out_dir.mkdir(parents=True, exist_ok=True)
        rng = np.random.default_rng([seed, 96])
        dates = np.datetime64("2000-01-03", "D") + np.arange(WIDE_T)
        self.names = [f"N{k:02d}" for k in range(WIDE_K)]
        self.values = {}
        groups, losses = [], []
        for c in range(WIDE_K // WIDE_CLUSTER):
            leader = _ar1(rng, WIDE_T + 2) + _regimes(rng, WIDE_T + 2)
            group = "industrial" if c % 2 == 0 else "financial"
            for m in range(WIDE_CLUSTER):
                name = self.names[c * WIDE_CLUSTER + m]
                if m == 0:
                    latent = leader[2:]
                else:
                    lag = 1 + m % 2
                    coupling = rng.uniform(0.4, 0.8)
                    latent = (coupling * leader[2 - lag : WIDE_T + 2 - lag]
                              + math.sqrt(1 - coupling**2) * _ar1(rng, WIDE_T))
                filtering = 1.0 / (1.0 + np.exp(-2.0 * latent))
                smoothing = np.convolve(filtering, np.ones(5) / 5, mode="same")
                self.values[name] = filtering
                sio.write_probabilities_csv(
                    data / f"probabilities_{name}.csv",
                    sinet.ProbabilitySeries(dates, filtering),
                    sinet.ProbabilitySeries(dates, smoothing),
                    provenance=f"benchmark wide_network seed={seed}",
                )
                groups.append(f"{name},{group}")
                losses.append(f"{name},{20.0 + 60.0 * float(filtering[-250:].mean())!r}")
        (data / "groups.csv").write_text("node,group\n" + "\n".join(groups) + "\n")
        (data / "losses.csv").write_text("node,max_loss_pct\n" + "\n".join(losses) + "\n")
        self.groups = sio.read_groups_csv(data / "groups.csv")
        self.losses = sio.read_losses_csv(data / "losses.csv")
        self.paths = {n: data / f"probabilities_{n}.csv" for n in self.names}
        pairs = [(i, j) for i in range(WIDE_K) for j in range(WIDE_K) if i != j]
        self.sample = [pairs[k] for k in rng.choice(len(pairs), WIDE_SAMPLE, replace=False)]
        self.units_per_pass = WIDE_K * (WIDE_K - 1)
        self.loglik_per_obs = None
        self.setup_code = (
            "from pathlib import Path\n"
            "from sinet import io\n"
            f"data = Path({str(data)!r})\n"
            "io.read_groups_csv(data / 'groups.csv')\n"
            "io.read_losses_csv(data / 'losses.csv')\n"
            "sorted(data.glob('probabilities_*.csv'))\n"
        )
        self.inputs = {
            "K": WIDE_K,
            "T": WIDE_T,
            "clusters": WIDE_K // WIDE_CLUSTER,
            "threshold": WIDE_THRESHOLD,
            "sha256": {p.name: sha256(p) for p in sorted(data.iterdir())},
        }

    def run_pass(self):
        probs = {n: sio.read_probabilities_csv(p) for n, p in self.paths.items()}
        matrix = sinet.sii_matrix(probs, 10, 10.0, window="wide_network")
        table = sinet.compute_indicators(matrix, self.groups)
        graph = sinet.build_sin(matrix, self.groups, WIDE_THRESHOLD, self.losses)
        for fmt, name in (("dot", "sin.dot"), ("graph-json", "sin.json")):
            sio.export_graph(graph, fmt, self.out_dir / name)
        doc, text = pipeline.loss_analytics(
            table, matrix.nodes, self.groups, self.losses,
            pipeline.DEFAULT_REGRESSIONS, pipeline.DEFAULT_CORRELATIONS,
        )
        (self.out_dir / "regressions.json").write_text(json.dumps(doc, indent=2) + "\n")
        (self.out_dir / "regressions.txt").write_text(text)
        return matrix, doc

    def check(self, out) -> tuple[int, int, list[str]]:
        matrix, doc = out
        v = np.asarray(matrix.values)
        notes = []
        failed = int(np.count_nonzero(~np.isfinite(v) | (v < 0)))
        if failed:
            notes.append(f"{failed} entries negative or not finite")
        for i, j in self.sample:
            src, dst = self.names[i], self.names[j]
            want = te_by_counting(self.values[dst], self.values[src])
            if not abs(v[i, j] - want) <= 1e-12 + 1e-9 * want:
                failed += 1
                notes.append(f"SII({src}->{dst}) = {v[i, j]!r}, counting gives {want!r}")
        if not any("coefficients" in e for e in doc["regressions"]):
            failed = self.units_per_pass
            notes.append("loss analytics fitted no regression")
        off = ~np.eye(WIDE_K, dtype=bool)
        # transfer entropy is the mean per-observation log-likelihood gain of
        # predicting the target from its own past plus the source's
        self.loglik_per_obs = float(v[off].mean()) * LN10
        return self.units_per_pass, failed, notes


def _ar1(rng, length, phi=0.98, scale=0.2):
    e = rng.standard_normal(length) * scale
    x = np.empty(length)
    x[0] = e[0] / math.sqrt(1 - phi**2)
    for t in range(1, length):
        x[t] = phi * x[t - 1] + e[t]
    return x


def _regimes(rng, length, stay=0.995, level=1.5):
    """A persistent two-state chain mapped to -level / +level."""
    flips = rng.random(length) > stay
    return np.where(np.cumsum(flips) % 2 == 0, -level, level)


WORKLOADS = {w.name: w for w in (Corpus, LongHistory, WideNetwork)}
