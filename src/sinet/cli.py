"""Command-line interface.

One subcommand per stage (simulate, calibrate, te, network, indicators,
regress, export) plus `run` for the whole pipeline. Exit codes: 0 success,
1 validation problem, 2 runtime failure.
"""
from __future__ import annotations

import argparse
import sys
from pathlib import Path

from . import io as sio
from . import pipeline
from .entropy import SIIMatrix, sii
from .errors import ConvergenceError, NumericalFailureError, SinetError
from .hmm import EMConfig
from .network import build_sin, compute_indicators
from .bubble import simulate_sa_path
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
    p.add_argument("--date-column", default=sio.DEFAULT_COLUMNS["date"])
    p.add_argument("--price-column", default=sio.DEFAULT_COLUMNS["price"])
    p.add_argument("--start", default=None, help="analysis window start (ISO date)")
    p.add_argument("--end", default=None, help="analysis window end (ISO date)")
    p.add_argument("--window", type=int, default=EMConfig.average_window,
                   help="pre-averaging window in days; 1 calibrates raw prices")
    p.add_argument("--kappa", type=float, default=EMConfig.kappa)
    p.add_argument("--tol", type=float, default=EMConfig.tol)
    p.add_argument("--max-iterations", type=int, default=EMConfig.max_iterations)
    p.add_argument("--out-dir", type=Path, default=Path("."))

    p = sub.add_parser("te", help="transfer entropy between two probability CSVs")
    p.add_argument("--source", type=Path, required=True)
    p.add_argument("--target", type=Path, required=True)
    p.add_argument("--column", default=pipeline.PipelineConfig.probability_source)
    p.add_argument("--bins", type=int, default=pipeline.PipelineConfig.te_bins)
    p.add_argument("--base", type=float, default=pipeline.PipelineConfig.te_base)

    p = sub.add_parser("network", help="build the influence network from a matrix")
    p.add_argument("--matrix", type=Path, required=True)
    p.add_argument("--groups", type=Path, required=True)
    p.add_argument("--threshold", type=float, default=pipeline.PipelineConfig.nsii_threshold)
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
    p.add_argument("--models", default=pipeline.DEFAULT_REGRESSIONS,
                   help="'A, B | C' model list; empty runs none")
    p.add_argument("--correlations", default=pipeline.DEFAULT_CORRELATIONS,
                   help="'A | B - C' combo list; empty runs none")
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
        sio.write_table_csv(args.out, ["t", "log_price"], [
            [k * args.dt, y] for k, y in enumerate(path.log_prices.tolist())])
        print(f"wrote {args.out}")
    return 0


def _cmd_calibrate(args) -> int:
    for option, value in (("--start", args.start), ("--end", args.end)):
        if value is not None:
            sio.plain_date(value, option)
    config = EMConfig(average_window=args.window, tol=args.tol,
                      max_iterations=args.max_iterations, kappa=args.kappa)
    fit = pipeline.calibrate_asset(
        args.asset_id or args.input.stem, args.input,
        {"date": args.date_column, "price": args.price_column},
        config, start=args.start, end=args.end,
    )
    args.out_dir.mkdir(parents=True, exist_ok=True)
    provenance = f"input={args.input.name} window={args.start}..{args.end}"
    prob_path, params_path = pipeline.write_asset_fit(args.out_dir, fit, provenance)
    print(f"wrote {prob_path} and {params_path} (n={fit.params.regime.n:.4f}, "
          f"bubble fraction {fit.summary()['bubble_fraction_filtering']:.1f}%)")
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
    pipeline.write_network(args.out_dir, graph)
    print(f"wrote sin.dot and sin.json ({graph.edge_count} edges) to {args.out_dir}")
    return 0


def _cmd_indicators(args) -> int:
    nodes, values = sio.read_matrix_csv(args.matrix)
    matrix = SIIMatrix(nodes, values)
    groups = sio.read_groups_csv(args.groups)
    pipeline.write_indicators(args.out, compute_indicators(matrix, groups))
    print(f"wrote {args.out}")
    return 0


def _cmd_regress(args) -> int:
    table = sio.read_indicators_csv(args.indicators)
    groups = sio.read_groups_csv(args.groups)
    losses = sio.read_losses_csv(args.losses)
    doc, text = pipeline.loss_analytics(table, table.nodes, groups, losses,
                                        args.models, args.correlations)
    args.out_dir.mkdir(parents=True, exist_ok=True)
    pipeline.write_regressions(args.out_dir, doc, text)
    print(f"wrote regressions.json and regressions.txt to {args.out_dir}")
    return 0


def _cmd_run(args) -> int:
    config_path = args.config if args.config is not None else bundled_corpus_config()
    config = pipeline.PipelineConfig.from_file(config_path)
    if args.out_dir is not None:
        config.output_dir = args.out_dir
    elif args.config is None:
        # bundled corpus: write next to the caller, not into the package
        config.output_dir = Path.cwd() / "sinet-out"
    report = pipeline.run_pipeline(config)
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


# The exit code of each failure, the first matching entry deciding: 1 for
# bad input, 2 for a failed computation or an unwritable output. Every
# input is read through io.read_bytes, which reports a missing one as a
# ConfigurationError, so a FileNotFoundError left over is an output in a
# missing directory.
_EXIT_CODES = (
    ((NumericalFailureError, ConvergenceError), 2),
    ((ValueError, SinetError), 1),
    (OSError, 2),
)


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except (ValueError, SinetError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return next(code for kind, code in _EXIT_CODES if isinstance(err, kind))


if __name__ == "__main__":
    sys.exit(main())
