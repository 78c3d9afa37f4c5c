"""Command-line interface.

One subcommand per stage (simulate, calibrate, te, network, indicators,
regress, export) plus `run` for the whole pipeline. Exit codes: 0 success,
1 validation problem, 2 runtime failure.
"""
from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from . import io as sio
from .entropy import SIIMatrix, sii
from .errors import ConfigurationError, NumericalFailureError, SinetError
from .hmm import EMConfig, bubble_time_fraction, em_fit, geometric_average_filter
from .network import ALL_INDICATORS, build_sin, compute_indicators
from .bubble import simulate_sa_path
from .pipeline import PipelineConfig, loss_analytics, run_pipeline
from .synthetic import bundled_corpus_config


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # usage problems are validation failures
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _build_parser() -> _Parser:
    parser = _Parser(prog="sinet", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="simulate one bubble path")
    p.add_argument("--p0", type=float, default=1.0)
    p.add_argument("--mu", type=float, default=0.05)
    p.add_argument("--sigma", type=float, default=0.1)
    p.add_argument("--n", type=float, default=1.0)
    p.add_argument("--dt", type=float, default=1e-3)
    p.add_argument("--steps", type=int, default=100_000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", type=Path, default=None, help="CSV of (t, log_price)")

    p = sub.add_parser("calibrate", help="fit the regime model to one CSV")
    p.add_argument("--input", type=Path, required=True)
    p.add_argument("--asset-id", default=None)
    p.add_argument("--date-column", default="date")
    p.add_argument("--price-column", default="price")
    p.add_argument("--start", default=None, help="analysis window start (ISO date)")
    p.add_argument("--end", default=None, help="analysis window end (ISO date)")
    p.add_argument("--no-average", action="store_true")
    p.add_argument("--window", type=int, default=100)
    p.add_argument("--kappa", type=float, default=0.6)
    p.add_argument("--tol", type=float, default=1e-4)
    p.add_argument("--max-iterations", type=int, default=500)
    p.add_argument("--out-dir", type=Path, default=Path("."))

    p = sub.add_parser("te", help="transfer entropy between two probability CSVs")
    p.add_argument("--source", type=Path, required=True)
    p.add_argument("--target", type=Path, required=True)
    p.add_argument("--column", default="filtering")
    p.add_argument("--bins", type=int, default=10)
    p.add_argument("--base", type=float, default=10.0)

    p = sub.add_parser("network", help="build the influence network from a matrix")
    p.add_argument("--matrix", type=Path, required=True)
    p.add_argument("--groups", type=Path, required=True)
    p.add_argument("--threshold", type=float, default=0.3)
    p.add_argument("--losses", type=Path, default=None)
    p.add_argument("--out-dir", type=Path, default=Path("."))

    p = sub.add_parser("indicators", help="per-node indicators from a matrix")
    p.add_argument("--matrix", type=Path, required=True)
    p.add_argument("--groups", type=Path, required=True)
    p.add_argument("--out", type=Path, default=Path("indicators.csv"))

    p = sub.add_parser("regress", help="loss regressions/correlations on indicators")
    p.add_argument("--indicators", type=Path, required=True)
    p.add_argument("--groups", type=Path, required=True)
    p.add_argument("--losses", type=Path, required=True)
    p.add_argument("--models", default=None, help="'A, B | C' model list")
    p.add_argument("--correlations", default=None, help="'A | B - C' combo list")
    p.add_argument("--out-dir", type=Path, default=Path("."))

    p = sub.add_parser("run", help="full pipeline from a key-value config file")
    p.add_argument("--config", type=Path, default=None,
                   help="defaults to the bundled synthetic corpus")
    p.add_argument("--out-dir", type=Path, default=None, help="override output_dir")

    p = sub.add_parser("export", help="re-export a graph-JSON file")
    p.add_argument("--graph", type=Path, required=True)
    p.add_argument("--format", dest="fmt", default="dot")
    p.add_argument("--out", type=Path, required=True)
    return parser


def _cmd_simulate(args) -> int:
    path = simulate_sa_path(args.p0, args.mu, args.sigma, args.n, args.dt,
                            args.steps, args.seed)
    if path.hit_critical:
        print(f"hit critical denominator at step {path.critical_time_index} "
              f"(t = {path.critical_time!r})")
    else:
        print(f"no singularity within {args.steps} steps")
    if args.out is not None:
        lines = ["t,log_price"]
        for k, y in enumerate(path.log_prices):
            lines.append(f"{repr(k * args.dt)},{repr(float(y))}")
        args.out.write_text("\n".join(lines) + "\n")
        print(f"wrote {args.out}")
    return 0


def _cmd_calibrate(args) -> int:
    colmap = {"date": args.date_column, "price": args.price_column}
    series = sio.load_price_csv(args.input, colmap, asset_id=args.asset_id)
    if not args.no_average:
        series = geometric_average_filter(series, args.window)
    if args.start or args.end:
        series = series.window(args.start, args.end)
    config = EMConfig(average_window=args.window, tol=args.tol,
                      max_iterations=args.max_iterations, kappa=args.kappa)
    params, trace, filt, smth = em_fit(series, config)
    args.out_dir.mkdir(parents=True, exist_ok=True)
    prob_path = args.out_dir / f"probabilities_{series.asset_id}.csv"
    sio.write_probabilities_csv(prob_path, filt.filtering, smth.smoothing)
    r = params.regime
    doc = {
        "asset": series.asset_id,
        "mu0": r.mu0, "sigma0": r.sigma0, "mu1": r.mu1, "sigma1": r.sigma1,
        "n": r.n, "kappa": r.kappa,
        "q": [[params.q[0, 0], params.q[0, 1]], [params.q[1, 0], params.q[1, 1]]],
        "loglik": trace.logliks[-1],
        "iterations": trace.iterations,
        "converged": trace.converged,
        "stalled": trace.stalled,
        "bubble_fraction_filtering": bubble_time_fraction(filt.filtering),
        "bubble_fraction_smoothing": bubble_time_fraction(smth.smoothing),
    }
    params_path = args.out_dir / f"params_{series.asset_id}.json"
    params_path.write_text(json.dumps(doc, indent=2) + "\n")
    print(f"wrote {prob_path} and {params_path} "
          f"(n={r.n:.4f}, bubble fraction {doc['bubble_fraction_filtering']:.1f}%)")
    return 0


def _cmd_te(args) -> int:
    source = sio.read_probabilities_csv(args.source, args.column)
    target = sio.read_probabilities_csv(args.target, args.column)
    print(repr(sii(source, target, args.bins, args.base)))
    return 0


def _cmd_network(args) -> int:
    nodes, values = sio.read_matrix_csv(args.matrix)
    matrix = SIIMatrix(nodes, values)
    groups = sio.read_groups_csv(args.groups)
    losses = sio.read_losses_csv(args.losses) if args.losses else None
    graph = build_sin(matrix, groups, args.threshold, losses)
    args.out_dir.mkdir(parents=True, exist_ok=True)
    for fmt, name in (("dot", "sin.dot"), ("graph-json", "sin.json")):
        sio.export_graph(graph, fmt, args.out_dir / name)
    print(f"wrote sin.dot and sin.json ({graph.edge_count} edges) to {args.out_dir}")
    return 0


def _cmd_indicators(args) -> int:
    nodes, values = sio.read_matrix_csv(args.matrix)
    matrix = SIIMatrix(nodes, values)
    groups = sio.read_groups_csv(args.groups)
    table = compute_indicators(matrix, groups)
    rows = [
        [node] + [float(table.value(node, name)) for name in ALL_INDICATORS]
        for node in matrix.nodes
    ]
    sio.write_table_csv(args.out, ["node", *ALL_INDICATORS], rows)
    print(f"wrote {args.out}")
    return 0


def _cmd_regress(args) -> int:
    from .pipeline import DEFAULT_CORRELATIONS, DEFAULT_REGRESSIONS

    table = sio.read_indicators_csv(args.indicators)
    groups = sio.read_groups_csv(args.groups)
    losses = sio.read_losses_csv(args.losses)
    doc, text = loss_analytics(
        table, table.nodes, groups, losses,
        args.models or DEFAULT_REGRESSIONS,
        args.correlations or DEFAULT_CORRELATIONS,
    )
    args.out_dir.mkdir(parents=True, exist_ok=True)
    (args.out_dir / "regressions.json").write_text(json.dumps(doc, indent=2) + "\n")
    (args.out_dir / "regressions.txt").write_text(text)
    print(f"wrote regressions.json and regressions.txt to {args.out_dir}")
    return 0


def _cmd_run(args) -> int:
    config_path = args.config if args.config is not None else bundled_corpus_config()
    config = PipelineConfig.from_file(config_path)
    if args.out_dir is not None:
        config.output_dir = args.out_dir
    elif args.config is None:
        # bundled corpus: write next to the caller, not into the package
        config.output_dir = Path.cwd() / "sinet-out"
    report = run_pipeline(config)
    print(f"processed: {', '.join(report.processed)}")
    for asset, reason in report.failed.items():
        print(f"failed: {asset}: {reason}")
    print(f"artifacts in {config.output_dir}: {len(report.artifacts)} files")
    return 0


def _cmd_export(args) -> int:
    graph, provenance = sio.import_graph_json(args.graph)
    sio.export_graph(graph, args.fmt, args.out, provenance)
    print(f"wrote {args.out}")
    return 0


_COMMANDS = {
    "simulate": _cmd_simulate,
    "calibrate": _cmd_calibrate,
    "te": _cmd_te,
    "network": _cmd_network,
    "indicators": _cmd_indicators,
    "regress": _cmd_regress,
    "run": _cmd_run,
    "export": _cmd_export,
}


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except (ConfigurationError, FileNotFoundError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    except (ValueError, SinetError) as err:
        if isinstance(err, NumericalFailureError):
            print(f"error: {err}", file=sys.stderr)
            return 2
        print(f"error: {err}", file=sys.stderr)
        return 1
    except OSError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
