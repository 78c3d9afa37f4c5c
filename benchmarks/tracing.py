"""Span tracing around sinet's public functions, installed from outside the
package.

Each traced function is replaced wherever it is looked up: in the module
that defines it, in every sinet module that imported it by name (``pipeline``
imports ``em_fit``; ``em_fit`` finds ``hamilton_filter`` in the ``hmm``
globals) and on the package itself. A span is the tuple
``(name, start_ns, end_ns, parent_index, pass_id, counts)``; spans stay in
memory and are written out once, when the run ends.

The first part of a span name is its layer, which is the sinet module whose
work it measures. ``analysis.loss_analytics`` wraps
``pipeline.loss_analytics`` because that function is the analysis stage.
"""
from __future__ import annotations

import json
import statistics
import sys
import time
from pathlib import Path

import sinet
from sinet import analysis, bubble, entropy, hmm, network, pipeline
from sinet import io as sio


def _rows(out):
    return {"rows": len(out["prices"])}


def _bytes(out):
    return {"bytes": Path(out).stat().st_size}


def _em(out):
    trace = out[1]
    return {"iterations": trace.iterations, "stalled": int(trace.stalled)}


# span name -> (defining module, attribute, counter over the return value)
TARGETS = {
    "io.read_price_table": (sio, "read_price_table", _rows),
    "io.read_probabilities_csv": (sio, "read_probabilities_csv", None),
    "io.write_probabilities_csv": (sio, "write_probabilities_csv", _bytes),
    "io.write_matrix_csv": (sio, "write_matrix_csv", _bytes),
    "io.write_table_csv": (sio, "write_table_csv", _bytes),
    "io.export_graph": (sio, "export_graph", _bytes),
    "hmm.geometric_average_filter": (hmm, "geometric_average_filter", None),
    "hmm.em_fit": (hmm, "em_fit", _em),
    "hmm.hamilton_filter": (
        hmm, "hamilton_filter", lambda out: {"steps": len(out.pairwise_filtered)}),
    "hmm.kim_smoother": (
        hmm, "kim_smoother", lambda out: {"steps": len(out.pairwise_smoothed)}),
    "hmm.m_step": (hmm, "m_step", None),
    "hmm.solve_feedback_exponent": (hmm, "solve_feedback_exponent", None),
    "bubble.gbm_transition_logdensity": (bubble, "gbm_transition_logdensity", None),
    "bubble.bubble_transition_logdensity": (bubble, "bubble_transition_logdensity", None),
    "entropy.sii_matrix": (
        entropy, "sii_matrix", lambda out: {"pairs": len(out.nodes) * (len(out.nodes) - 1)}),
    "entropy.transfer_entropy": (entropy, "transfer_entropy", None),
    "entropy.discretize": (entropy, "discretize", None),
    "network.compute_indicators": (network, "compute_indicators", None),
    "network.build_sin": (network, "build_sin", lambda out: {"edges": len(out.edges)}),
    "analysis.loss_analytics": (pipeline, "loss_analytics", None),
    "analysis.ols_regress": (analysis, "ols_regress", None),
    "analysis.correlations": (analysis, "correlations", None),
    "pipeline.run_pipeline": (pipeline, "run_pipeline", None),
}

# pipeline's self time is reported as pipeline.run_pipeline.self_s
LAYERS = ("io", "hmm", "bubble", "entropy", "network", "analysis")
IO_WRITERS = ("io.write_probabilities_csv", "io.write_matrix_csv",
              "io.write_table_csv", "io.export_graph")
DENSITIES = ("bubble.gbm_transition_logdensity", "bubble.bubble_transition_logdensity")


class Tracer:
    """Collects spans while installed; ``pass_id`` tags every span recorded."""

    def __init__(self):
        self.spans: list = []
        self.pass_id = -1
        self._stack: list[int] = []
        self._patches: list = []

    def _wrap(self, name, fn, count):
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            t0 = time.perf_counter_ns()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter_ns()
                stack.pop()
                spans[idx] = (name, t0, t1, parent, self.pass_id, None)
            if count is not None:
                spans[idx] = (name, t0, t1, parent, self.pass_id, count(out))
            return out

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        modules = [sinet] + [m for n, m in sys.modules.items() if n.startswith("sinet.")]
        for name, (module, attr, count) in TARGETS.items():
            original = getattr(module, attr)
            wrapper = self._wrap(name, original, count)
            for m in modules:
                for key, value in list(vars(m).items()):
                    if value is original:
                        setattr(m, key, wrapper)
                        self._patches.append((m, key, original))

    def uninstall(self) -> None:
        for m, key, original in reversed(self._patches):
            setattr(m, key, original)
        self._patches.clear()

    def dump(self, path: Path) -> None:
        with path.open("w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


def _pass_totals(spans) -> dict[int, dict]:
    """Per pass: calls, total and self nanoseconds, and counts per span name,
    self nanoseconds per layer, and the time covered by root spans."""
    child_ns = [0] * len(spans)
    for name, t0, t1, parent, _, _ in spans:
        if parent >= 0:
            child_ns[parent] += t1 - t0
    passes: dict[int, dict] = {}
    for idx, (name, t0, t1, parent, pass_id, counts) in enumerate(spans):
        p = passes.setdefault(pass_id, {"names": {}, "layer_self_ns": {}, "root_ns": 0})
        entry = p["names"].setdefault(name, {"calls": 0, "ns": 0, "self_ns": 0})
        dur = t1 - t0
        self_ns = dur - child_ns[idx]
        entry["calls"] += 1
        entry["ns"] += dur
        entry["self_ns"] += self_ns
        for key, value in (counts or {}).items():
            entry[key] = entry.get(key, 0) + value
        layer = name.split(".", 1)[0]
        p["layer_self_ns"][layer] = p["layer_self_ns"].get(layer, 0) + self_ns
        if parent < 0:
            p["root_ns"] += dur
    return passes


def _pass_metrics(p: dict, pass_s: float) -> dict[str, float]:
    names = p["names"]

    def get(name, key="ns"):
        return names.get(name, {}).get(key, 0)

    def secs(*span_names):
        return sum(get(n) for n in span_names) / 1e9

    def ns_per_step(name):
        steps = get(name, "steps")
        return get(name) / steps if steps else 0.0

    em_calls = get("hmm.em_fit", "calls")
    trials = get("hmm.hamilton_filter", "calls") - em_calls
    accepted = get("hmm.em_fit", "iterations") - em_calls
    m = {
        "io.read_price_table.s": secs("io.read_price_table"),
        "io.read_price_table.rows": get("io.read_price_table", "rows"),
        "io.read_probabilities_csv.s": secs("io.read_probabilities_csv"),
        "io.write.s": secs(*IO_WRITERS),
        "io.write.bytes": sum(get(n, "bytes") for n in IO_WRITERS),
        "hmm.geometric_average_filter.s": secs("hmm.geometric_average_filter"),
        "hmm.em_fit.s": secs("hmm.em_fit"),
        "hmm.em_fit.iterations": get("hmm.em_fit", "iterations"),
        "hmm.em_fit.stalled": get("hmm.em_fit", "stalled"),
        "hmm.hamilton_filter.calls": get("hmm.hamilton_filter", "calls"),
        "hmm.hamilton_filter.s": secs("hmm.hamilton_filter"),
        "hmm.hamilton_filter.ns_per_step": ns_per_step("hmm.hamilton_filter"),
        "hmm.kim_smoother.calls": get("hmm.kim_smoother", "calls"),
        "hmm.kim_smoother.s": secs("hmm.kim_smoother"),
        "hmm.kim_smoother.ns_per_step": ns_per_step("hmm.kim_smoother"),
        "hmm.m_step.calls": get("hmm.m_step", "calls"),
        "hmm.m_step.s": secs("hmm.m_step"),
        "hmm.solve_feedback_exponent.calls": get("hmm.solve_feedback_exponent", "calls"),
        "hmm.solve_feedback_exponent.s": secs("hmm.solve_feedback_exponent"),
        "hmm.em.accept_ratio": accepted / trials if trials > 0 else 0.0,
        "bubble.transition_logdensity.s": secs(*DENSITIES),
        "entropy.sii_matrix.s": secs("entropy.sii_matrix"),
        "entropy.sii_matrix.pairs": get("entropy.sii_matrix", "pairs"),
        "entropy.transfer_entropy.calls": get("entropy.transfer_entropy", "calls"),
        "entropy.transfer_entropy.s": secs("entropy.transfer_entropy"),
        "entropy.discretize.s": secs("entropy.discretize"),
        "network.compute_indicators.s": secs("network.compute_indicators"),
        "network.build_sin.s": secs("network.build_sin"),
        "network.build_sin.edges": get("network.build_sin", "edges"),
        "analysis.loss_analytics.s": secs("analysis.loss_analytics"),
        "analysis.ols_regress.calls": get("analysis.ols_regress", "calls"),
        "analysis.ols_regress.s": secs("analysis.ols_regress"),
        "analysis.correlations.calls": get("analysis.correlations", "calls"),
        "analysis.correlations.s": secs("analysis.correlations"),
        "pipeline.run_pipeline.self_s": get("pipeline.run_pipeline", "self_ns") / 1e9,
    }
    for layer in LAYERS:
        m[f"{layer}.self_s"] = p["layer_self_ns"].get(layer, 0) / 1e9
    m["bench.outside_spans_s"] = pass_s - p["root_ns"] / 1e9
    return m


def layer_metrics(tracer: Tracer, traced_s: list[float], untraced_s: list[float]) -> dict:
    """Median over traced passes of every per-pass layer metric, plus the
    tracing overhead: median traced minus median untraced pass time."""
    passes = _pass_totals(tracer.spans)
    empty = {"names": {}, "layer_self_ns": {}, "root_ns": 0}
    rows = [_pass_metrics(passes.get(i, empty), s) for i, s in enumerate(traced_s)]
    out = {name: statistics.median(r[name] for r in rows) for name in rows[0]}
    traced, untraced = statistics.median(traced_s), statistics.median(untraced_s)
    out["trace.traced_run_s"] = traced
    out["trace.untraced_run_s"] = untraced
    out["trace.overhead_s"] = traced - untraced
    out["trace.overhead_frac"] = (traced - untraced) / untraced
    return out


UNITS = {"s": "s", "rows": "count", "bytes": "B", "calls": "count",
         "iterations": "count", "stalled": "count", "ns_per_step": "ns",
         "accept_ratio": "ratio", "steps": "count", "pairs": "count",
         "edges": "count", "self_s": "s", "outside_spans_s": "s",
         "traced_run_s": "s", "untraced_run_s": "s", "overhead_s": "s",
         "overhead_frac": "ratio"}


def unit_of(metric: str) -> str:
    return UNITS[metric.rsplit(".", 1)[1]]
