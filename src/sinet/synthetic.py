"""Synthetic multi-asset corpus with staged bubble episodes.

Five assets share a calendar. A leader (ENE) runs two bubble episodes inside
the analysis window; two followers repeat its episodes *and* a fraction of
its daily shocks with a one- and two-day lag, one asset runs an independent
episode, and one stays in the normal regime, uncoupled. The lagged shock
coupling is what the transfer-entropy stage should surface as directed
edges; the uncoupled asset should stay isolated. 2008 adds a market-wide
drawdown so the loss analytics have something to measure.
"""
from __future__ import annotations

from pathlib import Path

import numpy as np

N_DAYS = 1095  # 2006-01-02 plus three years of consecutive calendar days
ANALYSIS_DAYS = 730
FEEDBACK_EXPONENT = 0.5

# (asset, group, episodes as [start, end) day indices,
#  lag behind the leader, daily shock coupling to the leader)
ASSETS = (
    ("ENE", "industrial", ((120, 320), (430, 640)), 0, 0.0),
    ("MAT", "industrial", ((120, 320), (430, 640)), 1, 0.8),
    ("IND", "industrial", ((330, 425),), 0, 0.0),
    ("BNK", "financial", ((120, 320), (430, 640)), 1, 0.6),
    ("SEC", "financial", (), 0, 0.0),
)


def _episode_mask(episodes, lag, n_days):
    mask = np.zeros(n_days, dtype=bool)
    for start, end in episodes:
        mask[min(start + lag, n_days) : min(end + lag, n_days)] = True
    return mask


def _simulate_asset(shocks, bubble_mask, p0, mu0, sigma0, crash_start):
    """Daily log prices from a unit shock stream: GBM outside episodes, a
    p^{-n} walk inside, and a drifting sell-off from ``crash_start`` on."""
    n = FEEDBACK_EXPONENT
    y = np.empty(len(bubble_mask) + 1)
    y[0] = np.log(p0)
    t = 0
    while t < len(bubble_mask):
        if not bubble_mask[t]:
            drift = mu0 if t < crash_start else -2.2e-3
            vol = sigma0 if t < crash_start else sigma0 * 1.6
            y[t + 1] = y[t] + drift + vol * shocks[t]
            t += 1
            continue
        # one whole episode in p^{-n} coordinates, drift-dominant so the
        # path stays clear of the singularity
        end = t
        while end < len(bubble_mask) and bubble_mask[end]:
            end += 1
        length = end - t
        u = np.exp(-n * y[t])
        mu1 = u * 0.55 / (n * length)
        sigma1 = mu1 / 1.1
        for k in range(t, end):
            u = u - n * mu1 + n * sigma1 * shocks[k]
            if u <= 0:
                raise RuntimeError("synthetic bubble crossed the singularity")
            y[k + 1] = -np.log(u) / n
        t = end
    return y


def write_corpus(directory, seed: int = 42) -> list[Path]:
    """Write the five asset CSVs plus a ready-to-run pipeline config.

    Deterministic for a fixed seed. Returns the written paths.
    """
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    dates = np.datetime64("2006-01-02", "D") + np.arange(N_DAYS + 1)
    written = []

    leader_shocks = np.random.default_rng(seed).standard_normal(N_DAYS)

    for idx, (name, _, episodes, lag, coupling) in enumerate(ASSETS):
        rng = np.random.default_rng(seed + (idx + 1) * 1000)
        own = rng.standard_normal(N_DAYS)
        shocks = own
        if coupling > 0.0:
            lagged = np.concatenate([np.zeros(lag), leader_shocks[: N_DAYS - lag]])
            shocks = coupling * lagged + np.sqrt(1.0 - coupling**2) * own
        mask = _episode_mask(episodes, lag, N_DAYS)
        # prices near 1 keep log prices inside the corpus kappa bound, so the
        # regime-switch channels stay active (mirrors rescaling the raw
        # series before calibration)
        y = _simulate_asset(
            shocks,
            mask,
            p0=0.8 + 0.25 * idx,
            mu0=2e-4 + 1e-4 * (idx % 3),
            sigma0=0.009 + 0.001 * (idx % 2),
            crash_start=ANALYSIS_DAYS + 40,
        )
        prices = np.exp(y)
        shares = 1e7 * (idx + 2)
        lines = ["date,price,market_cap" if idx < 3 else "date,price"]
        for day, price in zip(dates, prices):
            if idx < 3:
                lines.append(f"{day},{price:.6f},{price * shares:.2f}")
            else:
                lines.append(f"{day},{price:.6f}")
        path = directory / f"{name}.csv"
        path.write_text("\n".join(lines) + "\n")
        written.append(path)

    config_lines = [
        "# synthetic five-asset corpus: run `sinet run` with this file",
        f"# written by sinet.synthetic.write_corpus at seed {seed}",
        "data_dir = .",
        "assets = " + ", ".join(a[0] for a in ASSETS),
    ]
    for name, group, *_ in ASSETS:
        config_lines.append(f"asset.{name}.path = {name}.csv")
        config_lines.append(f"asset.{name}.group = {group}")
    config_lines += [
        "analysis_start = 2006-01-02",
        "analysis_end = 2007-12-31",
        "loss_start = 2008-01-01",
        "loss_end = 2008-12-31",
        # the corpus is generated at daily resolution with drift-dominant
        # episodes, so it is calibrated raw; real price series usually keep
        # the default 100-day pre-averaging
        "average_window = 1",
        "kappa = 2.0",
        "nsii_threshold = 0.02",
        "output_dir = sinet-out",
    ]
    config_path = directory / "corpus.cfg"
    config_path.write_text("\n".join(config_lines) + "\n")
    written.append(config_path)
    return written


def bundled_corpus_config() -> Path:
    """Path of the corpus configuration shipped inside the package."""
    from importlib.resources import files

    return Path(str(files("sinet.data").joinpath("corpus", "corpus.cfg")))
