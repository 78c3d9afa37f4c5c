"""Measurement loop, environment record and result output for one run."""
from __future__ import annotations

import gc
import itertools
import json
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import scipy

from tracing import Tracer, layer_metrics, unit_of
from workloads import WORKLOADS

SETUP_RUNS = 3
TAIL_BEYOND = 10
# On a shared host, wall time swings by 10-40 % within seconds and minutes.
# A speed probe timed just before and just after a pass swings with it, so
# the ref_ metrics scale each pass time to a machine that runs the probe in
# PROBE_REF_S, its median on the machine the bounds were set on (see README).
PROBE_REF_S = 0.016
# After each pass, the probe runs for this share of the pass's time.
PROBE_SHARE = 0.05
_PROBE_GRID = np.linspace(0.1, 1.0, 257)
LIMITS = (
    "Only the benchmark's own processes are timed. There is no system-wide "
    "tracing and no cache is dropped, so setup_s imports from a warm page "
    "cache. Spans are recorded from the benchmark's files around calls into "
    "sinet's public functions, not inside them."
)

END_TO_END_UNITS = {
    "setup_s": "s",
    "ref_run_s": "s",
    "ref_units_per_s": "1/s",
    "peak_rss_mb": "MB",
    "loglik_per_obs": "nat",
}


def setup_times(code: str, src: Path, runs: int) -> list[float]:
    """Wall time of fresh processes that import sinet and load the inputs'
    metadata, as every ``sinet`` command does before its work."""
    program = f"import sys\nsys.path.insert(0, {str(src)!r})\nimport sinet\n{code}"
    times = []
    for _ in range(runs):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", program], check=True,
                       stdout=subprocess.DEVNULL)
        times.append(time.perf_counter() - t0)
    return times


def probe() -> float:
    """Seconds for a fixed piece of work of the two kinds that make up
    sinet's passes: pure-Python arithmetic, then small numpy calls on a
    257-point grid. Its time follows the machine's speed, not sinet's."""
    t0 = time.perf_counter()
    s = 0
    for i in range(100_000):
        s += i * i % 7
    for _ in range(1000):
        s += float(np.exp(_PROBE_GRID * 0.5).sum())
    return time.perf_counter() - t0


def probe_burst(seconds: float) -> list[float]:
    """Probe times of at least three probes run for at least ``seconds``."""
    end = time.perf_counter() + seconds
    samples = []
    for k in itertools.count():
        samples.append(probe())
        if k >= 2 and time.perf_counter() >= end:
            return samples


def tail(values: list[float], beyond: int = TAIL_BEYOND):
    """The highest percentile with at least ``beyond`` samples above it, as
    (percentile, value), or None when there are too few samples."""
    n = len(values)
    if n <= beyond:
        return None
    k = n - beyond
    return 100.0 * k / n, sorted(values)[k - 1]


def environment(nproc: int) -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "nproc": nproc,
        "cpu": cpu,
        "platform": platform.platform(),
    }


def measure_passes(workload, seconds: float, tracer):
    """Closed loop: the next pass starts when the previous one and its check
    are done. With a tracer, untraced and traced passes alternate. The
    workload's warm-up passes run and are checked before the clock starts.
    Garbage from earlier passes is collected before each pass, outside its
    time. The speed probe runs before the first pass and after each pass;
    each untraced pass is also given at the reference speed, scaled by the
    mean probe time just before and just after it. No pass starts that
    would, at the last pass's length, end more than half a pass after the
    deadline."""
    untraced, traced, ref_untraced = [], [], []
    attempted = failed = 0
    notes: list[str] = []
    for _ in range(workload.warmup_passes):
        a, f, n = workload.check(workload.run_pass())
        attempted, failed = attempted + a, failed + f
        notes.extend(n)
    deadline = time.perf_counter() + seconds
    burst = probe_burst(0.0)
    probes = list(burst)
    while True:
        use_trace = tracer is not None and len(untraced) > len(traced)
        gc.collect()
        if use_trace:
            tracer.pass_id = len(traced)
            tracer.install()
        try:
            t0 = time.perf_counter()
            out = workload.run_pass()
            elapsed = time.perf_counter() - t0
        finally:
            if use_trace:
                tracer.uninstall()
        (traced if use_trace else untraced).append(elapsed)
        a, f, n = workload.check(out)
        attempted, failed = attempted + a, failed + f
        notes.extend(n)
        before, burst = burst, probe_burst(PROBE_SHARE * elapsed)
        probes.extend(burst)
        if not use_trace:
            ref_untraced.append(elapsed * PROBE_REF_S / statistics.fmean(before + burst))
        if (time.perf_counter() + 0.5 * elapsed >= deadline
                and (tracer is None or traced)):
            return untraced, traced, ref_untraced, probes, attempted, failed, notes


def run(args, root: Path, src: Path, nproc: int) -> int:
    base = root / ".bench_work"
    work = base / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if work.exists():
        shutil.rmtree(work)
    work.mkdir(parents=True)
    workload = WORKLOADS[args.workload](work, args.seed)
    setup = None if args.trace else setup_times(workload.setup_code, src, SETUP_RUNS)

    tracer = Tracer() if args.trace else None
    untraced, traced, ref_untraced, probes, attempted, failed, notes = measure_passes(
        workload, args.seconds, tracer)

    if tracer is None:
        ref_run_s = statistics.median(ref_untraced)
        metrics = {
            "setup_s": statistics.median(setup),
            "ref_run_s": ref_run_s,
            "ref_units_per_s": workload.units_per_pass / ref_run_s,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "loglik_per_obs": workload.loglik_per_obs,
        }
        units = END_TO_END_UNITS
    else:
        metrics = layer_metrics(tracer, traced, untraced)
        units = {name: unit_of(name) for name in metrics}

    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (base / "results").mkdir(exist_ok=True)
    if tracer is not None:
        (base / "spans").mkdir(exist_ok=True)
        tracer.dump(base / "spans" / f"{stem}.jsonl")
    env = environment(nproc)
    result = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "loop": "closed, 1 client, 1 process",
        "inputs": workload.inputs,
        "environment": env,
        "limits": LIMITS,
        "pass_s": untraced,
        "ref_pass_s": ref_untraced,
        "traced_pass_s": traced,
        "probe_s": probes,
        "setup_runs_s": setup,
        "attempted": attempted,
        "failed": failed,
        "failures": notes[:50],
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    result_path = base / "results" / f"{stem}.json"
    result_path.write_text(json.dumps(result, indent=2) + "\n")

    _print_summary(args, workload, env, result, untraced, probes, setup, attempted, failed,
                   notes)
    print(f"result file: {result_path.relative_to(root)}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": result["metrics"],
    }))
    return 0


def run_all(args, script: Path) -> int:
    """Run every workload in a process of its own, so that each peak_rss_mb
    is that workload's alone, and combine their result lines."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(script), "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True,
        )
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]), flush=True)
        if proc.returncode != 0:
            print(f"error: workload {name} exited with {proc.returncode}", file=sys.stderr)
            return proc.returncode
        last = json.loads(lines[-1])
        combined["correct"] = combined["correct"] and last["correct"]
        combined["attempted"] += last["attempted"]
        combined["failed"] += last["failed"]
        for metric, value in last["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = value
    print(json.dumps(combined))
    return 0


def _print_summary(args, workload, env, result, untraced, probes, setup, attempted, failed,
                   notes):
    print(f"sinet benchmark: workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    print("  loop: closed, 1 client, 1 process, 1 BLAS thread")
    sizes = {k: v for k, v in workload.inputs.items() if k != "sha256"}
    print(f"  inputs: {sizes}")
    metrics = result["metrics"]
    if args.trace == 0:
        t = tail(untraced)
        tail_text = (f"p{t[0]:.1f} = {t[1]:.4f} s with {TAIL_BEYOND} passes above it"
                     if t else f"no tail percentile: needs more than {TAIL_BEYOND} passes")
        detail = {
            "setup_s": f"median of {len(setup)} fresh processes importing sinet "
                       "and loading the inputs' metadata",
            "ref_run_s": f"median of {len(untraced)} passes, at the reference speed",
            "ref_units_per_s": f"{workload.throughput_name}: {workload.unit} per second, "
                               "at the reference speed",
            "peak_rss_mb": "peak resident memory of this process",
            "loglik_per_obs": "mean log-likelihood per observation (see README)",
        }
        for name, m in metrics.items():
            print(f"  {name:<16} {m['value']:>14.6g} {m['unit']:<4} {detail[name]}")
        print(f"  wall time of a pass: median {statistics.median(untraced):.6g} s; {tail_text}")
        print(f"  speed probe: median {statistics.median(probes):.6g} s of {len(probes)}; "
              f"each pass is scaled by {PROBE_REF_S:g} s / its neighbouring probes' mean")
    else:
        for name, m in metrics.items():
            print(f"  {name:<40} {m['value']:>14.6g} {m['unit']}")
    print(f"  fail_frac {failed / attempted:.6g}: {failed} of {attempted} "
          f"{workload.fail_unit} failed their check")
    for note in notes[:5]:
        print(f"    {note}")
    print(f"  environment: python {env['python']}, numpy {env['numpy']}, "
          f"scipy {env['scipy']}, nproc {env['nproc']}, cpu {env['cpu']}")
    print(f"  limits: {LIMITS}")
