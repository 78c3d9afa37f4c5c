"""End-to-end batch pipeline: prices -> bubble probabilities -> influence
matrix -> network -> loss analytics.

Per-asset calibration failures are isolated and reported; the run aborts
when fewer than two assets survive, the configuration is invalid or an
output cannot be written. Outputs are deterministic for a fixed configuration.

Per-asset calibrations (:func:`calibrate_asset`) and per-pair entropies are
independent work units (nothing is shared between them), so they could be
dispatched concurrently; the implementation runs them in configuration
order and writes each output file once, which keeps reruns byte-identical.
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
    EMTrace,
    FilterOutput,
    ModelParams,
    SmootherOutput,
    bubble_time_fraction,
    em_fit,
    geometric_average_filter,
    threshold_fractions,
)
from .network import (
    ALL_INDICATORS, FINANCIAL, INDUSTRIAL, NodeGroup, build_sin, compute_indicators,
)
from .series import LogPriceSeries, in_window

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


# Flat config key -> (field, parser), in echo order. A field under ``em.``
# belongs to the EMConfig. Absent keys take the dataclass defaults.
_CONFIG_KEYS = (
    ("analysis_start", "analysis_start", str),
    ("analysis_end", "analysis_end", str),
    ("loss_start", "loss_start", str),
    ("loss_end", "loss_end", str),
    ("average_window", "em.average_window", int),
    ("em_tol", "em.tol", float),
    ("em_max_iterations", "em.max_iterations", int),
    ("n_min", "em.n_min", float),
    ("n_max", "em.n_max", float),
    ("kappa", "em.kappa", float),
    ("te_bins", "te_bins", int),
    ("te_base", "te_base", float),
    ("te_bubble_level", "te_bubble_level", float),
    ("nsii_threshold", "nsii_threshold", float),
    ("probability_source", "probability_source", str),
    ("regressions", "regressions", str),
    ("correlations", "correlation_specs", str),
)
# EMConfig field -> its config key, to name the key in EMConfig's messages
_EM_KEYS = {f[3:]: key for key, f, _ in _CONFIG_KEYS if f.startswith("em.")}


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
    em: EMConfig = field(default_factory=EMConfig)
    te_bins: int = 10
    te_base: float = 10.0
    te_bubble_level: float = 0.0
    nsii_threshold: float = 0.3
    probability_source: str = "filtering"
    regressions: str = DEFAULT_REGRESSIONS
    correlation_specs: str = DEFAULT_CORRELATIONS

    def validate(self) -> None:
        if len(self.assets) < 2:
            raise ConfigurationError("need at least 2 assets")
        ids = [a.asset_id for a in self.assets]
        if len(set(ids)) != len(ids):
            raise ConfigurationError("duplicate asset ids")
        for a in self.assets:
            if a.group not in (INDUSTRIAL, FINANCIAL):
                raise ConfigurationError(
                    f"asset {a.asset_id!r} has unknown group {a.group!r}"
                )
        days = {key: sio.plain_date(getattr(self, key), key)
                for key in ("analysis_start", "analysis_end", "loss_start", "loss_end")
                if getattr(self, key) is not None}
        for label in ("analysis", "loss"):
            start, end = days.get(f"{label}_start"), days.get(f"{label}_end")
            if start is not None and end is not None and start > end:
                raise ConfigurationError(f"{label} window is not well-ordered")
        if not isinstance(self.te_bins, (int, np.integer)) or self.te_bins < 2:
            raise ConfigurationError(f"te_bins must be an integer >= 2, got {self.te_bins!r}")
        if not 1.0 < self.te_base < np.inf:
            raise ConfigurationError(f"te_base must be finite and exceed 1, got {self.te_base!r}")
        if not 0.0 <= self.te_bubble_level <= 1.0:
            raise ConfigurationError("te_bubble_level must lie in [0, 1]")
        if not 0.0 <= self.nsii_threshold < np.inf:
            raise ConfigurationError(
                f"nsii_threshold must be finite and nonnegative, got {self.nsii_threshold!r}"
            )
        if self.probability_source not in ("filtering", "smoothing"):
            raise ConfigurationError("probability_source must be filtering or smoothing")
        _parse_analytics(self.regressions, self.correlation_specs)

    # -- serialisation ------------------------------------------------------

    def key_values(self) -> dict[str, str]:
        """Canonical flat key-value image (used for hashing and echoing); an
        unset window end has no key, so the echo reads back as the same
        config."""
        kv: dict[str, str] = {}
        kv["assets"] = ", ".join(a.asset_id for a in self.assets)
        for a in self.assets:
            kv[f"asset.{a.asset_id}.path"] = str(a.path)
            kv[f"asset.{a.asset_id}.group"] = a.group
        for logical, actual in sorted(self.column_map.items()):
            kv[f"column.{logical}"] = actual
        for key, field_path, _ in _CONFIG_KEYS:
            owner, _, name = field_path.rpartition(".")
            value = getattr(self.em if owner else self, name)
            if value is not None:
                kv[key] = sio.format_value(value)
        kv["output_dir"] = str(self.output_dir)
        return kv

    def config_hash(self) -> str:
        """Hash of the settings and of the input data.

        Each asset enters by the sha256 of its file's bytes instead of its
        path, so one corpus hashes alike in every directory and edited data
        hashes differently. output_dir does not affect the computation and
        is left out.
        """
        kv = self.key_values()
        del kv["output_dir"]
        for a in self.assets:
            kv[f"asset.{a.asset_id}.path"] = hashlib.sha256(sio.read_bytes(a.path)).hexdigest()
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
        names = [n.strip() for n in kv.get("assets", "").split(",") if n.strip()]
        if not names:
            raise ConfigurationError("config must list assets")
        known = {key for key, *_ in _CONFIG_KEYS} | {"data_dir", "assets", "output_dir"}
        known |= {f"asset.{n}.{a}" for n in names for a in ("path", "group")}
        known |= {f"column.{logical}" for logical in sio.DEFAULT_COLUMNS}
        unknown = [key for key in kv if key not in known]
        if unknown:
            raise ConfigurationError(
                "unknown config key(s): " + ", ".join(map(repr, unknown))
            )

        data_dir = base / kv.get("data_dir", ".")
        assets = []
        for name in names:
            path = data_dir / kv.get(f"asset.{name}.path", f"{name}.csv")
            group = kv.get(f"asset.{name}.group")
            if group is None:
                raise ConfigurationError(f"asset.{name}.group is required")
            assets.append(AssetSpec(name, path, group.strip()))
        column_map = {
            logical: kv[f"column.{logical}"]
            for logical in sio.DEFAULT_COLUMNS if f"column.{logical}" in kv
        }
        out_dir = base / kv.get("output_dir", cls.output_dir)

        fields: dict = {}
        em_fields: dict = {}
        for key, field_path, parse in _CONFIG_KEYS:
            if key not in kv:
                continue
            try:
                value = parse(kv[key])
            except ValueError as err:
                raise ConfigurationError(f"{key}: {err}") from None
            if field_path.startswith("em."):
                em_fields[field_path[3:]] = value
            else:
                fields[field_path] = value
        try:
            em = EMConfig(**em_fields)
        except ValueError as err:  # name the config key, not the EMConfig field
            name, sep, rest = str(err).partition(" ")
            raise ConfigurationError(_EM_KEYS.get(name, name) + sep + rest) from None
        return cls(assets=assets, output_dir=out_dir, column_map=column_map, em=em, **fields)


@dataclass
class RunReport:
    """What happened, asset by asset, plus the artifact inventory."""

    processed: list[str] = field(default_factory=list)
    failed: dict[str, str] = field(default_factory=dict)
    skipped: list[str] = field(default_factory=list)
    artifacts: list[str] = field(default_factory=list)
    summary: dict[str, dict] = field(default_factory=dict)


def _parse_combo(raw: str) -> list[tuple[float, str]]:
    """Parse 'A - B + C' into signed indicator terms, rejecting a name that
    is not an indicator.

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
    for _, name in terms:
        if name not in ALL_INDICATORS:
            raise ConfigurationError(f"unknown indicator {name!r} in {raw!r}")
    return terms


def _parse_analytics(regressions: str, correlation_specs: str):
    """Parse the loss-analytics specification once: ``|`` separates
    entries and ``,`` the regressors of one model. Returns the models, each
    a list of ``(text, terms)``, and the correlations, each ``(text,
    terms)``. A bad expression raises ConfigurationError prefixed with its
    config key."""
    def split(raw: str, sep: str) -> list[str]:
        return [text.strip() for text in raw.split(sep) if text.strip()]

    def parse(key: str, texts: list[str]) -> list[tuple[str, list]]:
        try:
            return [(text, _parse_combo(text)) for text in texts]
        except ConfigurationError as err:
            raise ConfigurationError(f"{key}: {err}") from None

    models = [parse("regressions", split(chunk, ",")) for chunk in regressions.split("|")]
    return [m for m in models if m], parse("correlations", split(correlation_specs, "|"))


def _combo_values(terms, table, rows: np.ndarray) -> np.ndarray:
    """The parsed indicator combination ``terms`` at the given rows of
    ``table``."""
    values = np.zeros(len(rows))
    for sign, name in terms:
        values += sign * table.column(name)[rows]
    return values


@dataclass(frozen=True)
class AssetFit:
    """One asset's calibration: its price table and the EM fit on its
    (pre-averaged, windowed) log prices."""

    asset_id: str
    table: dict
    params: ModelParams
    trace: EMTrace
    filt: FilterOutput
    smth: SmootherOutput

    def summary(self) -> dict:
        """Fitted parameters and bubble-time statistics, as written to
        ``params_<id>.json`` and ``run_report.json``."""
        r, q = self.params.regime, self.params.q
        hfp, lfp = threshold_fractions(self.filt.filtering)
        return {
            "mu0": r.mu0, "sigma0": r.sigma0, "mu1": r.mu1, "sigma1": r.sigma1,
            "n": r.n, "kappa": r.kappa,
            "q": [[q[0, 0], q[0, 1]], [q[1, 0], q[1, 1]]],
            "loglik": self.trace.logliks[-1],
            "iterations": self.trace.iterations,
            "converged": self.trace.converged,
            "stalled": self.trace.stalled,
            "bubble_fraction_filtering": bubble_time_fraction(self.filt.filtering),
            "bubble_fraction_smoothing": bubble_time_fraction(self.smth.smoothing),
            "high_filter_pct": hfp,
            "low_filter_pct": lfp,
        }


def calibrate_asset(asset_id: str, path, column_map: dict, em: EMConfig, *,
                    start: Optional[str] = None, end: Optional[str] = None) -> AssetFit:
    """Read one price CSV, pre-average it over ``em.average_window`` days
    (1 keeps the raw prices), restrict it to the analysis window
    [start, end] and fit the regime model by EM."""
    table = sio.read_price_table(path, column_map)
    series = LogPriceSeries(asset_id, table["dates"], np.log(table["prices"]))
    series = geometric_average_filter(series, em.average_window)
    series = series.window(start, end)
    params, trace, filt, smth = em_fit(series, em)
    return AssetFit(asset_id, table, params, trace, filt, smth)


def write_asset_fit(out: Path, fit: AssetFit, provenance: str) -> list[Path]:
    """Write ``probabilities_<id>.csv`` and ``params_<id>.json``."""
    probs = sio.write_probabilities_csv(
        out / f"probabilities_{fit.asset_id}.csv",
        fit.filt.filtering, fit.smth.smoothing, provenance,
    )
    params = out / f"params_{fit.asset_id}.json"
    params.write_text(
        json.dumps({"provenance": provenance, **fit.summary()}, indent=2) + "\n"
    )
    return [probs, params]


def write_indicators(path: Path, table, provenance: str = "") -> Path:
    """Write an indicator table as ``node`` plus one column per indicator."""
    columns = [table.column(name).tolist() for name in ALL_INDICATORS]
    rows = list(zip(table.nodes, *columns))
    return sio.write_table_csv(path, ["node", *ALL_INDICATORS], rows, provenance)


def write_network(out: Path, graph, provenance: str = "") -> list[Path]:
    """Write the network as ``sin.dot`` and ``sin.json``."""
    return [
        sio.export_graph(graph, fmt, out / name, provenance)
        for fmt, name in (("dot", "sin.dot"), ("graph-json", "sin.json"))
    ]


def write_regressions(out: Path, doc: dict, text: str) -> list[Path]:
    """Write the output of :func:`loss_analytics` as ``regressions.json``
    and ``regressions.txt``."""
    json_path, text_path = out / "regressions.json", out / "regressions.txt"
    json_path.write_text(json.dumps(doc, indent=2) + "\n")
    text_path.write_text(text)
    return [json_path, text_path]


def run_pipeline(config: PipelineConfig) -> RunReport:
    """Run the full pipeline and write every intermediate artifact.

    Returns the run report (also written to the output directory). Invalid
    configuration or a missing asset file raises ConfigurationError before
    anything is written. An asset whose calibration fails on its data is
    listed in the report; any other failure raises once the report is written.
    """
    config.validate()
    provenance = config.provenance()  # reads every asset file: a missing one fails here
    out = Path(config.output_dir)
    out.mkdir(parents=True, exist_ok=True)
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
    try:
        for spec in config.assets:
            try:
                fit = calibrate_asset(
                    spec.asset_id, spec.path, config.column_map, config.em,
                    start=config.analysis_start, end=config.analysis_end,
                )
            except (SinetError, ValueError) as err:  # this asset's data
                report.failed[spec.asset_id] = str(err)
                continue
            report.artifacts += [p.name for p in write_asset_fit(out, fit, provenance)]
            report.summary[spec.asset_id] = fit.summary()
            probs[spec.asset_id] = (
                fit.filt.filtering if config.probability_source == "filtering"
                else fit.smth.smoothing
            )

            if config.loss_start is not None or config.loss_end is not None:
                mask = in_window(fit.table["dates"], config.loss_start, config.loss_end)
                values = fit.table.get("caps", fit.table["prices"])[mask]
                if len(values) >= 2:
                    losses[spec.asset_id] = max_loss(values)
                else:
                    loss_notes.append(f"{spec.asset_id}: no data in loss window, loss skipped")
            report.processed.append(spec.asset_id)

        if len(report.processed) < 2:
            raise ConfigurationError(
                f"only {len(report.processed)} asset(s) survived calibration; "
                "need at least 2 for the influence matrix"
            )

        matrix = sii_matrix(probs, config.te_bins, config.te_base,
                            bubble_level=config.te_bubble_level)
        path = sio.write_matrix_csv(out / "sii_matrix.csv", matrix.nodes, matrix.values,
                                    provenance)
        report.artifacts.append(path.name)

        groups = NodeGroup({s.asset_id: s.group for s in config.assets if s.asset_id in probs})
        table = compute_indicators(matrix, groups)
        report.artifacts.append(write_indicators(out / "indicators.csv", table, provenance).name)

        graph_losses = losses if set(losses) >= set(matrix.nodes) else None
        if losses and graph_losses is None:
            loss_notes.append("losses incomplete; node colors omitted")
        graph = build_sin(matrix, groups, config.nsii_threshold, graph_losses)
        report.artifacts += [p.name for p in write_network(out, graph, provenance)]

        if losses:
            rows = [[node, losses[node]] for node in matrix.nodes if node in losses]
            path = sio.write_table_csv(out / "losses.csv", ["node", "max_loss_pct"], rows,
                                       provenance)
            report.artifacts.append(path.name)
            doc, text = loss_analytics(
                table, matrix.nodes, groups, losses,
                config.regressions, config.correlation_specs, provenance,
            )
            report.artifacts += [p.name for p in write_regressions(out, doc, text)]
        else:
            report.skipped.append("loss analytics (no loss window or no loss data)")
    except Exception as err:  # the report lists what was done, and names the error
        report.skipped.append(f"remaining stages ({err})")
        raise
    finally:
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
    The specification is parsed first: an unknown indicator raises
    ConfigurationError before any fit.
    """
    models, specs = _parse_analytics(regressions, correlation_specs)
    row_of = {node: k for k, node in enumerate(table.nodes)}
    nodes = [n for n in node_order if n in losses]
    rows = np.array([row_of[n] for n in nodes], dtype=int)
    labels = np.array([groups.group_of(n) for n in nodes], dtype=object)
    all_losses = np.array([losses[n] for n in nodes])
    scopes = {"all": np.ones(len(nodes), dtype=bool),
              INDUSTRIAL: labels == INDUSTRIAL, FINANCIAL: labels == FINANCIAL}
    doc = {"provenance": provenance, "regressions": [], "correlations": []}
    text = [f"# {provenance}", ""]

    def skip(entry: dict, label: str, reason: str) -> None:
        entry["skipped"] = reason
        text.append(f"  {label}: skipped ({reason})")

    for scope, mask in scopes.items():
        y, scope_rows, n_obs = all_losses[mask], rows[mask], int(mask.sum())
        text.append(f"== regressions: {scope} ({n_obs} nodes) ==")
        for model in models:
            names = [name for name, _ in model]
            label = " + ".join(names)
            entry = {"scope": scope, "model": names, "n_obs": n_obs}
            doc["regressions"].append(entry)
            if n_obs <= len(names) + 1:
                skip(entry, label, "too few observations")
                continue
            X = np.column_stack([
                rank_transform(_combo_values(terms, table, scope_rows)) for _, terms in model
            ])
            try:
                res = ols_regress(y, X)
            except ValueError as err:  # the data cannot support the model
                skip(entry, label, str(err))
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
            coefs = ", ".join(
                f"{name}={c:.2f}{m}({s:.2f})"
                for name, c, s, m in zip(names, res.coefficients, res.std_errors, res.markers)
            )
            text.append(
                f"  {label}: {coefs} | R2={res.r_squared:.2f} "
                f"adjR2={res.adj_r_squared:.2f} F={res.f_statistic:.2f}"
            )
        text.append("")

        text.append(f"== correlations: {scope} ==")
        for spec, terms in specs:
            entry = {"scope": scope, "indicator": spec, "n_obs": n_obs}
            doc["correlations"].append(entry)
            if n_obs < 2:
                skip(entry, spec, "too few observations")
                continue
            values = _combo_values(terms, table, scope_rows)
            try:
                rep = correlations(values, y)
            except (SinetError, ValueError) as err:
                skip(entry, spec, str(err))
                continue
            entry.update(pearson=rep.pearson, spearman=rep.spearman, kendall=rep.kendall)
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
