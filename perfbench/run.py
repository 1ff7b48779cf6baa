"""The repository benchmark: one command for every workload and metric.

Run from the repository root::

    python3 perfbench/run.py --workload fp-solve --seed 1 --seconds 30 --trace 0

``--trace 0`` measures the end-to-end metrics of ``BENCHMARK.json`` with no
instrumentation: ``setup_s`` is the median over several fresh-interpreter
set-ups, every other timing is the workload's estimate over the timed
rounds (their median; a low quantile, ``workloads.low_decile``, on
des-dumbbell).
``--trace 1`` alternates untraced and traced rounds and reports the
per-layer metrics (self times and counts from ``spans.py``) plus the tracing
overhead.  Every round's outputs are checked; the last line of standard
output is one JSON object, and a failed check makes the exit code 1.  Each
run appends a record with an environment fingerprint to
``perfbench/history.jsonl``.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import ctypes
import datetime
import gc
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
HISTORY_PATH = BENCH_DIR / "history.jsonl"

# Fresh-interpreter set-ups measured per --trace 0 run (median reported):
# at least SETUP_SAMPLES, and more while they have taken less than
# SETUP_SECONDS, so a short set-up gets the extra samples its spread needs.
SETUP_SAMPLES = 3
SETUP_SECONDS = 3.0
# A run always measures at least this many rounds (pairs when traced), even
# when one round is longer than --seconds allows.
MIN_ROUNDS = 3
MIN_TRACED_PAIRS = 1

END_TO_END = {
    "setup_s": "s",
    "leg_a_s": "s",
    "leg_b_s": "s",
    "leg_c_s": "s",
    "peak_rss_mib": "MiB",
}

# Per-layer metrics: every traced run reports all of them; a layer the
# workload does not touch reads 0.  (span name, statistic) pairs are taken
# from the traced rounds, per round.
_SPAN_STATS = [
    ("core.solver.solve", "self_s"),
    ("core.axis.advance", "calls"), ("core.axis.advance", "self_s"),
    ("core.advection.advect_q", "calls"), ("core.advection.advect_q", "self_s"),
    ("core.advection.advect_v", "calls"), ("core.advection.advect_v", "self_s"),
    ("core.diffusion.step", "calls"), ("core.diffusion.step", "self_s"),
    ("core.adi.advance", "calls"), ("core.adi.advance", "self_s"),
    ("numerics.factor_solve", "calls"), ("numerics.factor_solve", "self_s"),
    ("core.moments", "calls"), ("core.moments", "self_s"),
    ("health.check_fp_density", "calls"),
    ("health.check_fp_density", "self_s"),
    ("health.check_fp_half_step", "calls"),
    ("health.check_fp_half_step", "self_s"),
    ("numerics.stationary_null_vector", "self_s"),
    ("design.solve_stationary", "self_s"),
    ("runner.spec.key", "calls"), ("runner.spec.key", "self_s"),
    ("runner.cache.get", "calls"), ("runner.cache.get", "self_s"),
    ("runner.cache.put", "calls"), ("runner.cache.put", "self_s"),
    ("runner.journal.record", "calls"), ("runner.journal.record", "self_s"),
]
_UNITS = {"calls": "count", "self_s": "s"}
PER_LAYER = {
    "core.solver.init_s": "s",
    **{f"{span}.{stat}": _UNITS[stat] for span, stat in _SPAN_STATS},
    "numerics.factorize_sparse.calls": "count",
    "numerics.factorize_sparse.self_s": "s",
    "numerics.stationary_null_vector.iterations": "count",
    "core.generator.assemble_s": "s",
    "fp.cells": "count",
    "fp.bytes_per_step": "B",
    "queueing.simulator.build_s": "s",
    "queueing.simulator.run_s": "s",
    "queueing.events_executed": "count",
    "queueing.us_per_event": "us",
    "dataplane.summary_s": "s",
    "dataplane.retained_bytes": "B",
    "cli.import_s": "s",
    "runner.cache.hits": "count",
    "runner.cache.misses": "count",
    "runner.run_jobs.wait_s": "s",
    "runner.job.busy_s": "s",
    "runner.jobs.attempted": "count",
    "runner.jobs.failed": "count",
    "runner.jobs.retried": "count",
    "trace.untraced_round_s": "s",
    "trace.traced_round_s": "s",
    "trace.overhead_s": "s",
    "trace.overhead_frac": "ratio",
}


def _parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def _prepare_interpreter() -> None:
    """Import ``repro`` from ``src`` with the program's defaults."""
    sys.path.insert(0, str(SRC))
    for name in [name for name in os.environ if name.startswith("REPRO_")]:
        del os.environ[name]


def _setup_sample(args) -> float:
    """Seconds from starting a fresh interpreter to a finished set-up."""
    from workloads import child_env
    argv = [sys.executable, str(Path(__file__).resolve()), "--setup-only",
            "--workload", args.workload, "--seed", str(args.seed)]
    started = time.perf_counter()
    process = subprocess.Popen(argv, stdout=subprocess.PIPE, text=True,
                               env=child_env(), cwd=ROOT)
    try:
        line = process.stdout.readline()
        ready = time.perf_counter()
    finally:
        process.stdout.close()
        code = process.wait()
    if line.strip() != "ready" or code != 0:
        raise RuntimeError(f"set-up child exited {code} with {line!r}")
    return ready - started


def _round(workload, traced: bool = False):
    """One round, starting with no garbage left by the previous one.

    Simulator and solver object graphs are cyclic, so without a collection
    their arrays outlive a round until a full collection happens to run:
    peak RSS would then depend on how many rounds fit, and the collection
    would land inside some timed leg.
    """
    gc.collect()
    started = time.perf_counter()
    current = workload.run_round(traced=traced)
    current.wall = time.perf_counter() - started
    return current


def _timed_rounds(workload, seconds: float):
    rounds = []
    started = time.perf_counter()
    while True:
        rounds.append(_round(workload))
        elapsed = time.perf_counter() - started
        typical = statistics.median(r.wall for r in rounds)
        if len(rounds) >= MIN_ROUNDS and elapsed + typical > seconds:
            return rounds


def _traced_rounds(workload, seconds: float, recorder):
    """Alternating untraced/traced rounds; returns both lists."""
    untraced, traced = [], []
    started = time.perf_counter()
    while True:
        untraced.append(_round(workload))
        if recorder is not None:
            recorder.enabled = True
        try:
            traced.append(_round(workload, traced=True))
        finally:
            if recorder is not None:
                recorder.enabled = False
        elapsed = time.perf_counter() - started
        pair = statistics.median(a.wall + b.wall
                                 for a, b in zip(untraced, traced,
                                                 strict=True))
        if len(traced) >= MIN_TRACED_PAIRS and elapsed + pair > seconds:
            return untraced, traced


def _peak_rss_mib() -> float:
    peak = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
               resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return peak / 1024.0


def layer_metrics(workload, untraced, traced, recorder) -> dict:
    """Per-layer metrics of one traced run (every name in ``PER_LAYER``)."""
    import spans
    import workloads

    rounds = len(traced)
    span_data = list(recorder.spans) if recorder is not None else []
    counters = dict(recorder.counters) if recorder is not None else {}
    for current in traced:
        for process in current.extra.get("spans", ()):
            offset = len(span_data)
            span_data.extend([name, start, end,
                              parent + offset if parent >= 0 else -1, phase]
                             for name, start, end, parent, phase
                             in process["spans"])
            for name, value in process["counters"].items():
                counters[name] = counters.get(name, 0) + value
    per_round = spans.summarize(span_data, "round")
    in_setup = spans.summarize(span_data, "setup")

    def stat(table, name, key, scale=1.0):
        return table.get(name, {}).get(key, 0) * scale

    metrics = {f"{name}.{key}": stat(per_round, name, key, 1.0 / rounds)
               for name, key in _SPAN_STATS}
    metrics["core.solver.init_s"] = stat(in_setup, "core.solver.init",
                                         "total_s")
    # First-use factorizations happen in set-up; the rounds reuse them.
    metrics["numerics.factorize_sparse.calls"] = (
        stat(in_setup, "numerics.factorize_sparse", "calls")
        + stat(per_round, "numerics.factorize_sparse", "calls", 1 / rounds))
    metrics["numerics.factorize_sparse.self_s"] = (
        stat(in_setup, "numerics.factorize_sparse", "self_s")
        + stat(per_round, "numerics.factorize_sparse", "self_s", 1 / rounds))
    metrics["core.generator.assemble_s"] = stat(
        per_round, "core.generator.assemble", "self_s", 1 / rounds)
    metrics["queueing.simulator.build_s"] = stat(
        per_round, "queueing.simulator.build", "total_s", 1 / rounds)
    run_s = stat(per_round, "queueing.simulator.run", "total_s", 1 / rounds)
    metrics["queueing.simulator.run_s"] = run_s
    metrics["dataplane.summary_s"] = stat(per_round, "dataplane.summary",
                                          "total_s", 1 / rounds)
    metrics["runner.run_jobs.wait_s"] = stat(
        per_round, "runner.run_jobs.wait", "total_s", 1 / rounds)
    for name in ("numerics.stationary_null_vector.iterations",
                 "runner.cache.hits", "runner.cache.misses",
                 "runner.jobs.attempted", "runner.jobs.failed",
                 "runner.jobs.retried"):
        metrics[name] = counters.get(name, 0) / rounds

    is_fp = workload.name == workloads.FPSolve.name
    nq, nv = workloads.MARCH_GRID
    metrics["fp.cells"] = nq * nv if is_fp else 0
    # Computed, not measured: one axis substep streams the density through
    # three kernels (read + write each, float64) and reads the dense
    # Crank-Nicolson operator (nq x nq, float64) once.
    metrics["fp.bytes_per_step"] = (3 * 2 * nq * nv + nq * nq) * 8 \
        if is_fp else 0

    events = sum(current.outputs[retention][0] for current in traced
                 for retention in ("full", "moments")
                 if retention in current.outputs) / rounds
    metrics["queueing.events_executed"] = events
    metrics["queueing.us_per_event"] = 1e6 * run_s / events if events else 0
    # Computed: the full-retention leg keeps a float64 time and value per
    # recorded sample; the moments leg keeps O(1) state per series.
    metrics["dataplane.retained_bytes"] = 16 * statistics.fmean(
        current.outputs.get("retained_samples", 0) for current in traced)

    is_campaign = workload.name == workloads.Campaign.name
    metrics["cli.import_s"] = (statistics.median(
        workloads.samples(untraced, "leg_c_s")) if is_campaign else 0)
    metrics["runner.job.busy_s"] = statistics.fmean(
        sum(current.extra.get("journal", ())) for current in traced)

    untraced_s = statistics.median(r.wall for r in untraced)
    traced_s = statistics.median(r.wall for r in traced)
    metrics["trace.untraced_round_s"] = untraced_s
    metrics["trace.traced_round_s"] = traced_s
    metrics["trace.overhead_s"] = traced_s - untraced_s
    metrics["trace.overhead_frac"] = (traced_s - untraced_s) / untraced_s
    missing = set(PER_LAYER) ^ set(metrics)
    if missing:
        raise RuntimeError(f"per-layer metrics out of sync: {missing}")
    return metrics


def _blas_info() -> dict:
    """BLAS library, version and thread count as numpy loaded it."""
    import numpy as np
    info = {}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info = {"name": blas.get("name"), "version": blas.get("version")}
    except (KeyError, TypeError):
        pass
    with open("/proc/self/maps", encoding="utf-8") as handle:
        libraries = sorted({line.split()[-1] for line in handle
                            if "openblas" in line.lower()})
    info["threads"] = None
    for path in libraries:
        library = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            if hasattr(library, symbol):
                info["threads"] = int(getattr(library, symbol)())
                info["library"] = os.path.basename(path)
                return info
    return info


def fingerprint() -> dict:
    """Commit, machine and library versions that a record was taken on."""
    import numpy as np
    try:
        import scipy
        scipy_version = scipy.__version__
    except ImportError:
        scipy_version = None
    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                    capture_output=True, text=True,
                                    check=True).stdout.strip()
        except (OSError, subprocess.CalledProcessError):
            pass
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode())
        digest.update(path.read_bytes())
    cpu = None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            cpu = next((line.split(":", 1)[1].strip() for line in handle
                        if line.startswith("model name")), None)
    except OSError:
        pass
    from repro.health import resolve_health
    from repro.numerics import get_backend
    return {
        "commit": commit,
        "source_sha256": digest.hexdigest()[:16],
        "cpu": cpu or platform.processor(),
        "nproc": os.cpu_count(),
        "blas": _blas_info(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy_version,
        "backend": get_backend().name,
        "health": resolve_health(None),
    }


def main(argv=None) -> int:
    args = _parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no repro package under {SRC}; run from a checkout of "
              "the repository", file=sys.stderr)
        return 2
    _prepare_interpreter()
    import workloads
    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    workload = workloads.WORKLOADS[args.workload](args.seed)

    if args.setup_only:
        workload.setup()
        print("ready", flush=True)
        workload.close()
        return 0

    recorder = None
    try:
        if args.trace:
            setup_samples = []
            if workload.name != workloads.Campaign.name:
                import spans
                recorder = spans.SpanRecorder()
                spans.instrument(recorder)
                recorder.enabled = True
            workload.setup()
            if recorder is not None:
                recorder.enabled = False
                recorder.phase = "round"
            untraced, traced = _traced_rounds(workload, args.seconds,
                                              recorder)
            rounds = untraced + traced
            timed = untraced
        else:
            setup_samples = []
            while (len(setup_samples) < SETUP_SAMPLES
                   or sum(setup_samples) < SETUP_SECONDS):
                setup_samples.append(_setup_sample(args))
            workload.setup()
            rounds = timed = _timed_rounds(workload, args.seconds)
    finally:
        workload.close()

    attempted = sum(current.attempted for current in rounds)
    failed = min(attempted, sum(current.failed_ops for current in rounds))
    failures = [message for current in rounds for message in current.failures]
    if args.trace:
        values = layer_metrics(workload, untraced, traced, recorder)
        units = PER_LAYER
    else:
        values = {slot: workload.estimate(workloads.samples(rounds, slot))
                  for slot in workloads.LEG_SLOTS}
        values["setup_s"] = statistics.median(setup_samples)
        values["peak_rss_mib"] = _peak_rss_mib()
        units = END_TO_END
    metrics = {name: {"value": values[name], "unit": unit}
               for name, unit in units.items()}
    details = workload.details(timed)
    details["fail_frac"] = (failed / attempted, "ratio")

    record = {
        "time": datetime.datetime.now(datetime.timezone.utc).isoformat(
            timespec="seconds"),
        "workload": workload.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "rounds": len(rounds),
        "setup_samples_s": setup_samples,
        "leg_samples_s": {slot: workloads.samples(rounds, slot)
                          for slot in workloads.LEG_SLOTS},
        "metrics": {name: entry["value"] for name, entry in metrics.items()},
        "details": {name: value for name, (value, _) in details.items()},
        "failures": failures,
        "env": fingerprint(),
    }
    with open(HISTORY_PATH, "a", encoding="utf-8") as handle:
        handle.write(json.dumps(record, sort_keys=True) + "\n")

    print(f"workload {workload.name} (seed {args.seed}): {len(rounds)} "
          f"rounds{' (half traced)' if args.trace else ''}")
    for slot, (name, what) in workload.LEGS.items():
        print(f"  {slot} = {name}: {what}")
    for name, (value, unit) in details.items():
        print(f"  {name}: {value:.6g} {unit}")
    env = record["env"]
    print(f"  env: {env['cpu']}, nproc {env['nproc']}, BLAS "
          f"{env['blas'].get('name')} x{env['blas'].get('threads')}, numpy "
          f"{env['numpy']}, scipy {env['scipy']}, commit {env['commit']}")
    for message in failures:
        print(f"FAILED: {message}", file=sys.stderr)
    print(json.dumps({"correct": not failures, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
