"""End-to-end batch pipeline: prices -> bubble probabilities -> influence
matrix -> network -> loss analytics.

Per-asset calibration failures are isolated and reported; the run aborts
only when fewer than two assets survive or the configuration itself is
invalid. All outputs are deterministic for a fixed configuration.

Per-asset calibrations and per-pair entropies are independent work units
(nothing is shared between them), so they could be dispatched concurrently;
the implementation runs them in configuration order and writes each output
file once, which keeps reruns byte-identical.
"""
from __future__ import annotations

import hashlib
import json
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

import numpy as np

from . import io as sio
from .analysis import correlations, max_loss, ols_regress, rank_transform
from .entropy import sii_matrix
from .errors import ConfigurationError, SinetError
from .hmm import (
    EMConfig,
    bubble_time_fraction,
    em_fit,
    geometric_average_filter,
    threshold_fractions,
)
from .network import ALL_INDICATORS, NodeGroup, build_sin, compute_indicators
from .series import LogPriceSeries

DEFAULT_REGRESSIONS = (
    "SI-to-All | SI-from-All | SI-to-Fin | SI-from-Fin | SI-to-IX | SI-from-IX"
    " | SI-to-Fin, SI-from-Fin | SI-to-IX, SI-from-IX"
)
DEFAULT_CORRELATIONS = (
    "NSII-on-All | NSII-on-IX | NSII-on-Fin | NSII-on-Fin - SI-from-IX"
)


@dataclass(frozen=True)
class AssetSpec:
    asset_id: str
    path: Path
    group: str
    subsector: Optional[str] = None


@dataclass
class PipelineConfig:
    """Everything `run` needs; every field has a workable default.

    The default configuration points at the synthetic corpus bundled with
    the package, so a bare `run` produces a full set of artifacts.
    """

    assets: list[AssetSpec]
    output_dir: Path = Path("sinet-out")
    column_map: dict = field(default_factory=dict)
    analysis_start: Optional[str] = None
    analysis_end: Optional[str] = None
    loss_start: Optional[str] = None
    loss_end: Optional[str] = None
    average: bool = True
    em: EMConfig = field(default_factory=EMConfig)
    te_bins: int = 10
    te_base: float = 10.0
    te_bubble_only: bool = False
    te_bubble_level: float = 0.5
    nsii_threshold: float = 0.3
    probability_source: str = "filtering"
    regressions: str = DEFAULT_REGRESSIONS
    correlation_specs: str = DEFAULT_CORRELATIONS
    seed: int = 42

    def validate(self) -> None:
        if len(self.assets) < 2:
            raise ConfigurationError("need at least 2 assets")
        ids = [a.asset_id for a in self.assets]
        if len(set(ids)) != len(ids):
            raise ConfigurationError("duplicate asset ids")
        for a in self.assets:
            if a.group not in ("industrial", "financial"):
                raise ConfigurationError(
                    f"asset {a.asset_id!r} has unknown group {a.group!r}"
                )
            if not Path(a.path).exists():
                raise ConfigurationError(f"asset file {a.path} does not exist")
        for start, end, label in (
            (self.analysis_start, self.analysis_end, "analysis"),
            (self.loss_start, self.loss_end, "loss"),
        ):
            if start is not None and end is not None:
                if np.datetime64(start, "D") > np.datetime64(end, "D"):
                    raise ConfigurationError(f"{label} window is not well-ordered")
        if self.te_bins < 2:
            raise ConfigurationError("te_bins must be >= 2")
        if self.te_base <= 1:
            raise ConfigurationError("te_base must exceed 1")
        if not 0.0 <= self.te_bubble_level <= 1.0:
            raise ConfigurationError("te_bubble_level must lie in [0, 1]")
        if self.nsii_threshold < 0:
            raise ConfigurationError("nsii_threshold must be nonnegative")
        if self.probability_source not in ("filtering", "smoothing"):
            raise ConfigurationError("probability_source must be filtering or smoothing")

    # -- serialisation ------------------------------------------------------

    def key_values(self) -> dict[str, str]:
        """Canonical flat key-value image (used for hashing and echoing)."""
        kv: dict[str, str] = {}
        kv["assets"] = ", ".join(a.asset_id for a in self.assets)
        for a in self.assets:
            kv[f"asset.{a.asset_id}.path"] = str(a.path)
            kv[f"asset.{a.asset_id}.group"] = a.group
            if a.subsector:
                kv[f"asset.{a.asset_id}.subsector"] = a.subsector
        for logical, actual in sorted(self.column_map.items()):
            kv[f"column.{logical}"] = actual
        kv["analysis_start"] = str(self.analysis_start)
        kv["analysis_end"] = str(self.analysis_end)
        kv["loss_start"] = str(self.loss_start)
        kv["loss_end"] = str(self.loss_end)
        kv["average"] = str(self.average).lower()
        kv["average_window"] = str(self.em.average_window)
        kv["em_tol"] = repr(self.em.tol)
        kv["em_max_iterations"] = str(self.em.max_iterations)
        kv["n_min"] = repr(self.em.n_search[0])
        kv["n_max"] = repr(self.em.n_search[1])
        kv["kappa"] = repr(self.em.kappa)
        kv["q00_init"] = repr(self.em.q00_init)
        kv["q11_init"] = repr(self.em.q11_init)
        kv["te_bins"] = str(self.te_bins)
        kv["te_base"] = repr(self.te_base)
        kv["te_bubble_only"] = str(self.te_bubble_only).lower()
        kv["te_bubble_level"] = repr(self.te_bubble_level)
        kv["nsii_threshold"] = repr(self.nsii_threshold)
        kv["probability_source"] = self.probability_source
        kv["regressions"] = self.regressions
        kv["correlations"] = self.correlation_specs
        kv["seed"] = str(self.seed)
        kv["output_dir"] = str(self.output_dir)
        return kv

    def config_hash(self) -> str:
        # output_dir does not affect the computation, so it is not hashed
        kv = {k: v for k, v in self.key_values().items() if k != "output_dir"}
        blob = "\n".join(f"{k} = {v}" for k, v in kv.items())
        return hashlib.sha256(blob.encode()).hexdigest()[:12]

    def provenance(self) -> str:
        return (
            f"config={self.config_hash()} "
            f"window={self.analysis_start}..{self.analysis_end}"
        )

    @classmethod
    def from_file(cls, path) -> "PipelineConfig":
        kv = sio.read_key_values(path)
        base = Path(path).parent
        return cls.from_key_values(kv, base)

    @classmethod
    def from_key_values(cls, kv: dict[str, str], base: Path) -> "PipelineConfig":
        def get(key, default=None):
            return kv.get(key, default)

        def get_bool(key, default):
            raw = kv.get(key)
            if raw is None:
                return default
            if raw.lower() in ("true", "yes", "1", "on"):
                return True
            if raw.lower() in ("false", "no", "0", "off"):
                return False
            raise ConfigurationError(f"{key}: expected a boolean, got {raw!r}")

        data_dir = Path(get("data_dir", "."))
        if not data_dir.is_absolute():
            data_dir = base / data_dir
        names = [n.strip() for n in get("assets", "").split(",") if n.strip()]
        if not names:
            raise ConfigurationError("config must list assets")
        assets = []
        for name in names:
            rel = get(f"asset.{name}.path", f"{name}.csv")
            path = Path(rel)
            if not path.is_absolute():
                path = data_dir / path
            group = get(f"asset.{name}.group")
            if group is None:
                raise ConfigurationError(f"asset.{name}.group is required")
            assets.append(
                AssetSpec(name, path, group.strip(), get(f"asset.{name}.subsector"))
            )

        column_map = {}
        for logical in ("date", "price", "market_cap"):
            if f"column.{logical}" in kv:
                column_map[logical] = kv[f"column.{logical}"]

        em = EMConfig(
            average_window=int(get("average_window", "100")),
            tol=float(get("em_tol", "1e-4")),
            max_iterations=int(get("em_max_iterations", "500")),
            n_search=(float(get("n_min", "1e-4")), float(get("n_max", "10.0"))),
            kappa=float(get("kappa", "0.6")),
            q00_init=float(get("q00_init", "0.95")),
            q11_init=float(get("q11_init", "0.95")),
        )
        out_dir = Path(get("output_dir", "sinet-out"))
        if not out_dir.is_absolute():
            out_dir = base / out_dir
        return cls(
            assets=assets,
            output_dir=out_dir,
            column_map=column_map,
            analysis_start=get("analysis_start"),
            analysis_end=get("analysis_end"),
            loss_start=get("loss_start"),
            loss_end=get("loss_end"),
            average=get_bool("average", True),
            em=em,
            te_bins=int(get("te_bins", "10")),
            te_base=float(get("te_base", "10.0")),
            te_bubble_only=get_bool("te_bubble_only", False),
            te_bubble_level=float(get("te_bubble_level", "0.5")),
            nsii_threshold=float(get("nsii_threshold", "0.3")),
            probability_source=get("probability_source", "filtering"),
            regressions=get("regressions", DEFAULT_REGRESSIONS),
            correlation_specs=get("correlations", DEFAULT_CORRELATIONS),
            seed=int(get("seed", "42")),
        )


@dataclass
class RunReport:
    """What happened, asset by asset, plus the artifact inventory."""

    processed: list[str] = field(default_factory=list)
    failed: dict[str, str] = field(default_factory=dict)
    skipped: list[str] = field(default_factory=list)
    artifacts: list[str] = field(default_factory=list)
    summary: dict[str, dict] = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return bool(self.processed)


def _parse_model_specs(raw: str) -> list[list[str]]:
    models = []
    for chunk in raw.split("|"):
        names = [n.strip() for n in chunk.split(",") if n.strip()]
        if names:
            models.append(names)
    return models


def _parse_combo(raw: str) -> list[tuple[float, str]]:
    """Parse 'A - B + C' into signed indicator terms.

    Operators must be space-padded; hyphens inside indicator names (like
    SI-to-Fin) are left alone.
    """
    parts = re.split(r"\s([+-])\s", raw.strip())
    if not parts or not parts[0].strip():
        raise ConfigurationError(f"empty indicator expression {raw!r}")
    terms = [(1.0, parts[0].strip())]
    for k in range(1, len(parts), 2):
        sign = 1.0 if parts[k] == "+" else -1.0
        terms.append((sign, parts[k + 1].strip()))
    return terms


def _combo_values(spec: str, table, nodes) -> np.ndarray:
    values = np.zeros(len(nodes))
    for sign, name in _parse_combo(spec):
        if name not in ALL_INDICATORS:
            raise ConfigurationError(f"unknown indicator {name!r} in {spec!r}")
        values += sign * np.array([table.value(n, name) for n in nodes])
    return values


def run_pipeline(config: PipelineConfig) -> RunReport:
    """Run the full pipeline and write every intermediate artifact.

    Returns the run report (also written to the output directory). Raises
    :class:`ConfigurationError` for invalid configuration; per-asset
    failures are recorded in the report instead of raised.
    """
    config.validate()
    out = Path(config.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    provenance = config.provenance()
    report = RunReport()

    (out / "config_echo.cfg").write_text(
        f"# {provenance}\n"
        + "\n".join(f"{k} = {v}" for k, v in config.key_values().items())
        + "\n"
    )
    report.artifacts.append("config_echo.cfg")

    probs = {}
    losses: dict[str, float] = {}
    loss_notes: list[str] = []
    for spec in config.assets:
        try:
            table = sio.read_price_table(spec.path, config.column_map)
            series = LogPriceSeries(
                spec.asset_id, table["dates"], np.log(table["prices"])
            )
            if config.average:
                series = geometric_average_filter(series, config.em.average_window)
            series = series.window(config.analysis_start, config.analysis_end)
            params, trace, filt, smth = em_fit(series, config.em)

            path = out / f"probabilities_{spec.asset_id}.csv"
            sio.write_probabilities_csv(path, filt.filtering, smth.smoothing, provenance)
            report.artifacts.append(path.name)

            r = params.regime
            hfp, lfp = threshold_fractions(filt.filtering)
            summary = {
                "mu0": r.mu0, "sigma0": r.sigma0, "mu1": r.mu1, "sigma1": r.sigma1,
                "n": r.n, "kappa": r.kappa,
                "q": [[params.q[0, 0], params.q[0, 1]], [params.q[1, 0], params.q[1, 1]]],
                "loglik": trace.logliks[-1],
                "iterations": trace.iterations,
                "converged": trace.converged,
                "stalled": trace.stalled,
                "bubble_fraction_filtering": bubble_time_fraction(filt.filtering),
                "bubble_fraction_smoothing": bubble_time_fraction(smth.smoothing),
                "high_filter_pct": hfp,
                "low_filter_pct": lfp,
            }
            ppath = out / f"params_{spec.asset_id}.json"
            ppath.write_text(
                json.dumps({"provenance": provenance, **summary}, indent=2) + "\n"
            )
            report.artifacts.append(ppath.name)
            report.summary[spec.asset_id] = summary

            probs[spec.asset_id] = (
                filt.filtering if config.probability_source == "filtering" else smth.smoothing
            )

            if config.loss_start is not None or config.loss_end is not None:
                mask = np.ones(len(table["dates"]), dtype=bool)
                if config.loss_start is not None:
                    mask &= table["dates"] >= np.datetime64(config.loss_start, "D")
                if config.loss_end is not None:
                    mask &= table["dates"] <= np.datetime64(config.loss_end, "D")
                values = table.get("caps", table["prices"])[mask]
                if len(values) >= 2:
                    losses[spec.asset_id] = max_loss(values)
                else:
                    loss_notes.append(
                        f"{spec.asset_id}: no data in loss window, loss skipped"
                    )
            report.processed.append(spec.asset_id)
        except (SinetError, ValueError, FileNotFoundError, KeyError) as err:
            report.failed[spec.asset_id] = str(err)

    if len(report.processed) < 2:
        _write_report(out, report, provenance)
        raise ConfigurationError(
            f"only {len(report.processed)} asset(s) survived calibration; "
            "need at least 2 for the influence matrix"
        )

    window_label = f"{config.analysis_start}..{config.analysis_end}"
    matrix = sii_matrix(
        probs, config.te_bins, config.te_base, window=window_label,
        bubble_only=config.te_bubble_only, bubble_level=config.te_bubble_level,
    )
    path = sio.write_matrix_csv(out / "sii_matrix.csv", matrix.nodes, matrix.values, provenance)
    report.artifacts.append(path.name)

    groups = NodeGroup(
        {s.asset_id: s.group for s in config.assets if s.asset_id in probs},
        {s.asset_id: s.subsector for s in config.assets
         if s.asset_id in probs and s.subsector},
    )
    table = compute_indicators(matrix, groups)
    rows = [
        [node] + [float(table.value(node, name)) for name in ALL_INDICATORS]
        for node in matrix.nodes
    ]
    path = sio.write_table_csv(
        out / "indicators.csv", ["node", *ALL_INDICATORS], rows, provenance
    )
    report.artifacts.append(path.name)

    graph_losses = losses if set(losses) >= set(matrix.nodes) else None
    if losses and graph_losses is None:
        loss_notes.append("losses incomplete; node colors omitted")
    graph = build_sin(matrix, groups, config.nsii_threshold, graph_losses)
    for fmt, name in (("dot", "sin.dot"), ("graph-json", "sin.json")):
        path = sio.export_graph(graph, fmt, out / name, provenance)
        report.artifacts.append(path.name)

    if losses:
        rows = [[node, losses[node]] for node in matrix.nodes if node in losses]
        path = sio.write_table_csv(out / "losses.csv", ["node", "max_loss_pct"], rows, provenance)
        report.artifacts.append(path.name)
        doc, text = loss_analytics(
            table, matrix.nodes, groups, losses,
            config.regressions, config.correlation_specs, provenance,
        )
        (out / "regressions.json").write_text(json.dumps(doc, indent=2) + "\n")
        (out / "regressions.txt").write_text(text)
        report.artifacts.extend(["regressions.json", "regressions.txt"])
    else:
        report.skipped.append("loss analytics (no loss window or no loss data)")

    report.skipped.extend(loss_notes)
    _write_report(out, report, provenance)
    return report


def loss_analytics(table, node_order, groups, losses, regressions: str,
                   correlation_specs: str, provenance: str = "") -> tuple[dict, str]:
    """Rank regressions and correlation statistics of losses on indicators.

    Models regress raw losses on cross-sectionally ranked indicator values;
    correlation statistics take the indicator combinations raw (the rank
    statistics re-rank internally). Returns (json document, text summary);
    the text rounds to two decimals, the document keeps full precision.
    """
    scopes = {
        "all": [n for n in node_order if n in losses],
        "industrial": [n for n in node_order
                       if n in losses and groups.group_of(n) == "industrial"],
        "financial": [n for n in node_order
                      if n in losses and groups.group_of(n) == "financial"],
    }
    doc = {"provenance": provenance, "regressions": [], "correlations": []}
    text = [f"# {provenance}", ""]

    for scope, nodes in scopes.items():
        y = np.array([losses[n] for n in nodes])
        text.append(f"== regressions: {scope} ({len(nodes)} nodes) ==")
        for names in _parse_model_specs(regressions):
            entry = {"scope": scope, "model": names, "n_obs": len(nodes)}
            if len(nodes) <= len(names) + 1:
                entry["skipped"] = "too few observations"
                doc["regressions"].append(entry)
                text.append(f"  {' + '.join(names)}: skipped (too few observations)")
                continue
            X = np.column_stack([
                rank_transform(_combo_values(name, table, nodes)) for name in names
            ])
            try:
                res = ols_regress(y, X)
            except (SinetError, ValueError) as err:
                entry["skipped"] = str(err)
                doc["regressions"].append(entry)
                text.append(f"  {' + '.join(names)}: skipped ({err})")
                continue
            entry.update(
                coefficients=[float(c) for c in res.coefficients],
                std_errors=[float(s) for s in res.std_errors],
                p_values=[float(p) for p in res.p_values],
                markers=list(res.markers),
                intercept=res.intercept,
                intercept_std_error=res.intercept_std_error,
                r_squared=res.r_squared,
                adj_r_squared=res.adj_r_squared,
                f_statistic=res.f_statistic,
            )
            doc["regressions"].append(entry)
            coefs = ", ".join(
                f"{name}={c:.2f}{m}({s:.2f})"
                for name, c, s, m in zip(names, res.coefficients, res.std_errors, res.markers)
            )
            text.append(
                f"  {' + '.join(names)}: {coefs} | R2={res.r_squared:.2f} "
                f"adjR2={res.adj_r_squared:.2f} F={res.f_statistic:.2f}"
            )
        text.append("")

        text.append(f"== correlations: {scope} ==")
        for spec in [s.strip() for s in correlation_specs.split("|") if s.strip()]:
            entry = {"scope": scope, "indicator": spec, "n_obs": len(nodes)}
            if len(nodes) < 2:
                entry["skipped"] = "too few observations"
                doc["correlations"].append(entry)
                text.append(f"  {spec}: skipped (too few observations)")
                continue
            values = _combo_values(spec, table, nodes)
            try:
                rep = correlations(values, y)
            except (SinetError, ValueError) as err:
                entry["skipped"] = str(err)
                doc["correlations"].append(entry)
                text.append(f"  {spec}: skipped ({err})")
                continue
            entry.update(pearson=rep.pearson, spearman=rep.spearman, kendall=rep.kendall)
            doc["correlations"].append(entry)
            text.append(
                f"  {spec}: pearson={rep.pearson:.2f} spearman={rep.spearman:.2f} "
                f"kendall={rep.kendall:.2f}"
            )
        text.append("")

    return doc, "\n".join(text) + "\n"


def _write_report(out: Path, report: RunReport, provenance: str) -> None:
    lines = [f"# {provenance}", ""]
    lines.append(f"processed: {', '.join(report.processed) or 'none'}")
    for asset, reason in report.failed.items():
        lines.append(f"failed: {asset}: {reason}")
    for note in report.skipped:
        lines.append(f"skipped: {note}")
    lines.append("")
    lines.append("artifacts:")
    for name in report.artifacts:
        lines.append(f"  {name}")
    (out / "run_report.txt").write_text("\n".join(lines) + "\n")
    doc = {
        "provenance": provenance,
        "processed": report.processed,
        "failed": report.failed,
        "skipped": report.skipped,
        "artifacts": report.artifacts,
        "summary": report.summary,
    }
    (out / "run_report.json").write_text(json.dumps(doc, indent=2) + "\n")
