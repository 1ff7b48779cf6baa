"""The benchmark's workloads: set-up, one timed round, correctness checks.

Every workload drives the JRJ linear-increase/exponential-decrease law at
the paper's canonical operating point (``mu=1, q_target=10, c0=0.05,
c1=0.2``) through the public API or the CLI only.  A round runs each of
the workload's three legs at least once; the end-to-end slots ``leg_a_s``,
``leg_b_s`` and ``leg_c_s`` name a different leg on each workload (see
``LEGS`` and README.md):

========== ==================== ====================== ======================
workload   leg_a_s              leg_b_s                leg_c_s
========== ==================== ====================== ======================
fp-solve   axis march to t=30   ADI march to t=30      both stationary solves
des-dumbb. full-retention run   moments-retention run  full run + its summary
campaign   cold ``repro run``   warm ``repro run``     ``import repro``
========== ==================== ====================== ======================

``import repro`` happens inside the set-up methods, not at module import,
so the campaign workload (which only starts ``repro`` subprocesses) never
pays it in the benchmark's own interpreter.
"""

from __future__ import annotations

import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional

ROOT = Path(__file__).resolve().parents[1]
STATE_DIR = ROOT / ".perfbench"
REFERENCE_PATH = Path(__file__).resolve().parent / "reference.json"

CANONICAL = {"mu": 1.0, "q_target": 10.0, "c0": 0.05, "c1": 0.2}
SIGMA = 0.5
Q0, RATE0 = 0.0, 0.5
# The marches stop at t=30, in the first overshoot of the queue past its
# target, so that they are short (about 0.7 s axis, 1.4 s ADI) and a run
# holds eight samples of each: the median of a run's marches to t=120 (3-4
# samples of 2-6 s) spread up to 0.25 across runs, of its marches to t=30
# at most 0.10.
T_END = 30.0
Q_MAX, V_MIN, V_MAX = 40.0, -1.5, 1.5
MARCH_GRID = (200, 120)
STATIONARY_GRIDS = ((200, 120), (400, 240))
# The warm-up marches stop here: long enough to build the dense
# Crank-Nicolson operators and the ADI factorizations of the regular
# substeps.  Later substep sizes, which rounding of t makes appear all the
# way to T_END, are built during the first round, which therefore differs
# from later rounds in the last bits (see ``FPSolve.REPEAT_TOLERANCE``).
WARMUP_T_END = 1.0

DES_SOURCES = 64
# Short runs (about 0.3 s each) so that a run of the benchmark holds some
# thirty to forty samples per leg, enough for a low quantile of them to
# settle (see ``low_decile``).
DES_DURATION = 150.0
# The recorded event counts cover this many scenario seeds; a workload seed
# maps onto one of them (``seed % DES_SEEDS``).
DES_SEEDS = 32

CAMPAIGN_MATRIX = "design-gain-grid"
CAMPAIGN_JOBS = 16
# A hung `repro run` must not keep a run past its time limit.
SUBPROCESS_TIMEOUT = 120.0

# Ceilings on the FP error against the Monte-Carlo reference.  The current
# values (first-order upwind advection) are 0.566, 0.0012 and 0.0083; a
# change that buys speed with accuracy past these ceilings fails the run.
ACCURACY_LIMITS = {
    "march_std_err": 0.62,
    "stationary_mean_err": 0.02,
    "stationary_std_err": 0.02,
}
MASS_TOLERANCE = 1e-8
STEPPER_MEAN_AGREEMENT = 0.01
STATIONARY_TOL = 1e-9

# The end-to-end leg slots, in order.
LEG_SLOTS = ("leg_a_s", "leg_b_s", "leg_c_s")


def fp_grid(nq: int, nv: int):
    from repro import GridParameters
    return GridParameters(q_max=Q_MAX, nq=nq, v_min=V_MIN, v_max=V_MAX,
                          nv=nv)


def load_reference() -> dict:
    return json.loads(REFERENCE_PATH.read_text())


def child_env() -> Dict[str, str]:
    """Environment for ``repro`` subprocesses: ``src`` on the path.

    ``REPRO_*`` overrides are dropped so the program's defaults apply; BLAS
    threads and bytecode caching are left as the user's environment has
    them.
    """
    env = {name: value for name, value in os.environ.items()
           if not name.startswith("REPRO_")}
    src = str(ROOT / "src")
    env["PYTHONPATH"] = (src + os.pathsep + env["PYTHONPATH"]
                         if env.get("PYTHONPATH") else src)
    return env


class Round:
    """One round's leg times, outputs and failed checks.

    ``outputs`` must repeat from round to round; ``extra`` holds what need
    not (summary times, spans, journal times).  ``wall`` is the whole
    round's wall time, set by the caller.
    """

    def __init__(self):
        self.legs: Dict[str, List[float]] = {}
        self.outputs: dict = {}
        self.extra: dict = {}
        self.failures: List[str] = []
        self.attempted = 0
        self.failed_ops = 0
        self.wall = 0.0

    def add(self, slot: str, seconds: float) -> None:
        self.legs.setdefault(slot, []).append(seconds)

    def op(self, failures: List[str]) -> None:
        """Count one operation; it failed if any of *failures* is set."""
        self.attempted += 1
        if failures:
            self.failed_ops += 1
            self.failures.extend(failures)

    def fail(self, message: str) -> None:
        """A failed check that spans operations (counts as one failure)."""
        self.failed_ops += 1
        self.failures.append(message)


def samples(rounds: List[Round], slot: str) -> List[float]:
    """Every sample of one leg slot across *rounds*."""
    return [value for current in rounds for value in current.legs[slot]]


def low_decile(values: List[float]) -> float:
    """The tenth-percentile value: the fastest once the fastest tenth of
    *values* is set aside (the fastest itself below ten values).

    For short samples on a shared machine, whose other tenants slow the
    program down in bursts: contention only ever adds time, so a low
    quantile of many samples is what the code costs when the machine lets
    it run.  Over 36-second windows of back-to-back dumbbell simulations
    on a shared 2-core VM, the median of each window spread 0.24
    (quartile spread over median) and this quantile 0.06; at a time of
    steadier, heavier load the fastest single sample spread 0.18 and this
    quantile 0.10.  With eight samples of a second or more (the fp-solve
    marches) it is the fastest sample, which hangs on one lucky moment: in
    one set of ten runs it spread 0.13-0.22 where the median spread
    0.05-0.10.
    """
    return sorted(values)[len(values) // 10]


class Workload:
    name = ""
    #: slot -> (the leg's own metric name, what the leg is)
    LEGS: Dict[str, tuple] = {}
    #: Relative tolerance for outputs repeating across rounds (0: bitwise).
    REPEAT_TOLERANCE = 0.0
    #: How a leg's samples over a run make its reported time (des-dumbbell,
    #: whose samples are short and many, takes ``low_decile``).
    estimate = staticmethod(statistics.median)

    def __init__(self, seed: int):
        self.seed = seed
        self.first: Optional[dict] = None

    def setup(self) -> None:
        raise NotImplementedError

    def run_round(self, traced: bool = False) -> Round:
        raise NotImplementedError

    def compare_with_first(self, current: Round) -> None:
        """Outputs must repeat from round to round (to REPEAT_TOLERANCE)."""
        if self.first is None:
            self.first = current.outputs
        elif not _same(current.outputs, self.first, self.REPEAT_TOLERANCE):
            current.fail(f"{self.name}: outputs differ from the first "
                         f"round: {current.outputs} vs {self.first}")

    def details(self, rounds: List[Round]) -> Dict[str, tuple]:
        """Metrics under their own names: name -> (value, unit)."""
        return {name: (self.estimate(samples(rounds, slot)), "s")
                for slot, (name, _) in self.LEGS.items()}

    def close(self) -> None:
        pass


def _same(left, right, rel_tol: float) -> bool:
    if rel_tol == 0.0 or isinstance(left, (str, int)):
        return left == right
    if isinstance(left, float):
        return math.isclose(left, right, rel_tol=rel_tol)
    if isinstance(left, dict):
        return left.keys() == right.keys() and all(
            _same(left[key], right[key], rel_tol) for key in left)
    return len(left) == len(right) and all(
        _same(a, b, rel_tol) for a, b in zip(left, right, strict=True))


class FPSolve(Workload):
    name = "fp-solve"
    LEGS = {
        "leg_a_s": ("march_axis_s", "axis-stepper march to t=30, 200x120"),
        "leg_b_s": ("march_adi_s", "ADI-stepper march to t=30, 200x120"),
        "leg_c_s": ("stationary_s",
                    "generator stationary solves at 200x120 and 400x240, "
                    "scipy backend (two samples a round)"),
    }
    # The axis march's first round after set-up differs from later ones by
    # a few ulps (see WARMUP_T_END); everything else repeats bit for bit.
    REPEAT_TOLERANCE = 1e-12

    def setup(self) -> None:
        import repro.design
        from repro import (FokkerPlanckSolver, JRJControl, SystemParameters,
                           TimeParameters)
        self.design = repro.design
        self.reference = load_reference()
        control = JRJControl(c0=CANONICAL["c0"], c1=CANONICAL["c1"],
                             q_target=CANONICAL["q_target"])
        self.params = SystemParameters(sigma=SIGMA, **CANONICAL)
        self.solvers = {}
        self.initial = {}
        for stepper in ("axis", "adi"):
            solver = FokkerPlanckSolver(
                SystemParameters(sigma=SIGMA, stepper=stepper, **CANONICAL),
                control, grid_params=fp_grid(*MARCH_GRID))
            self.solvers[stepper] = solver
            self.initial[stepper] = solver.default_initial_density(Q0, RATE0)
            solver.solve(self.initial[stepper],
                         TimeParameters(t_end=WARMUP_T_END))
        self.timing = TimeParameters(t_end=T_END)
        for shape in STATIONARY_GRIDS:
            self._stationary(shape)

    def _stationary(self, shape):
        return self.design.solve_stationary(
            self.params, grid_params=fp_grid(*shape), method="generator",
            backend="scipy")

    def _march(self, stepper: str, current: Round, slot: str):
        started = time.perf_counter()
        result = self.solvers[stepper].solve(self.initial[stepper],
                                             self.timing)
        current.add(slot, time.perf_counter() - started)
        moments = result.final_moments
        failures = []
        values = (moments.mean_q, moments.std_q, moments.mean_v,
                  moments.var_v, moments.mass)
        if not all(math.isfinite(value) for value in values):
            failures.append(f"{stepper} march: non-finite moments {values}")
        mass_error = abs(moments.mass - (1.0 - result.absorbed_mass))
        if not mass_error <= MASS_TOLERANCE:
            failures.append(f"{stepper} march: |mass - (1 - absorbed)| = "
                            f"{mass_error:.3e} > {MASS_TOLERANCE:g}")
        current.outputs[stepper] = [float(value) for value in values]
        return moments, failures

    def _stationary_leg(self, current: Round) -> None:
        started = time.perf_counter()
        solved = [self._stationary(shape) for shape in STATIONARY_GRIDS]
        current.add("leg_c_s", time.perf_counter() - started)
        for shape, stationary in zip(STATIONARY_GRIDS, solved, strict=True):
            estimate = stationary.estimate
            failures = []
            if not estimate.residual < STATIONARY_TOL:
                failures.append(f"stationary {shape}: residual "
                                f"{estimate.residual:.3e}")
            if not (math.isfinite(estimate.mean_queue)
                    and math.isfinite(estimate.std_queue)):
                failures.append(f"stationary {shape}: non-finite moments")
            current.op(failures)
        coarse, fine = (stationary.estimate for stationary in solved)
        outputs = [coarse.mean_queue, coarse.std_queue, fine.mean_queue,
                   fine.std_queue]
        if current.outputs.setdefault("stationary", outputs) != outputs:
            current.fail("stationary solves differ within a round")

    def run_round(self, traced: bool = False) -> Round:
        # The short stationary leg runs twice, between the marches, so its
        # samples spread over the round instead of sharing one slow moment.
        current = Round()
        self._stationary_leg(current)
        axis, failures = self._march("axis", current, "leg_a_s")
        current.op(failures)
        self._stationary_leg(current)
        adi, failures = self._march("adi", current, "leg_b_s")
        gap = abs(axis.mean_q - adi.mean_q) / abs(axis.mean_q)
        if not gap <= STEPPER_MEAN_AGREEMENT:
            failures.append(f"axis and ADI mean_q differ by {gap:.2%}")
        current.op(failures)

        errors = self.accuracy(current.outputs)
        for name, value in errors.items():
            if not value <= ACCURACY_LIMITS[name]:
                current.fail(f"{name} = {value:.4f} exceeds "
                             f"{ACCURACY_LIMITS[name]}")
        self.compare_with_first(current)
        return current

    def accuracy(self, outputs: dict) -> Dict[str, float]:
        transient = self.reference["mc_transient"]
        stationary = self.reference["mc_stationary"]
        march_std_err = max(
            abs(outputs[stepper][1] - transient["std_q"]) / transient["std_q"]
            for stepper in ("axis", "adi"))
        mean_coarse, std_coarse, mean_fine, std_fine = outputs["stationary"]
        # Two-grid Richardson extrapolation of a first-order scheme.
        mean = 2.0 * mean_fine - mean_coarse
        std = 2.0 * std_fine - std_coarse
        return {
            "march_std_err": march_std_err,
            "stationary_mean_err":
                abs(mean - stationary["mean_q"]) / stationary["mean_q"],
            "stationary_std_err":
                abs(std - stationary["std_q"]) / stationary["std_q"],
        }

    def details(self, rounds: List[Round]) -> Dict[str, tuple]:
        result = super().details(rounds)
        for name, value in self.accuracy(rounds[-1].outputs).items():
            result[name] = (value, "rel")
        return result


class DESDumbbell(Workload):
    name = "des-dumbbell"
    LEGS = {
        "leg_a_s": ("des_events_per_s",
                    "Simulator.run with retention='full' (events/s = "
                    "events / leg)"),
        "leg_b_s": ("des_events_per_s_moments",
                    "Simulator.run with retention='moments'"),
        "leg_c_s": ("des_full_answer_s",
                    "full-retention run plus mean_queue, utilization and "
                    "fairness_index of its result"),
    }
    RETENTIONS = (("full", "leg_a_s"), ("moments", "leg_b_s"))
    estimate = staticmethod(low_decile)

    def setup(self) -> None:
        from repro import Simulator, build_scenario
        self.Simulator = Simulator
        self.build_scenario = build_scenario
        self.scenario_seed = self.seed % DES_SEEDS
        self.expected_events = load_reference()["des_events_executed"][
            str(self.scenario_seed)]
        for retention, _ in self.RETENTIONS:
            self._summary(self._simulator(retention).run(20.0))

    def _simulator(self, retention: str):
        config = self.build_scenario("dumbbell", n_sources=DES_SOURCES,
                                     seed=self.scenario_seed)
        return self.Simulator(config, retention=retention)

    @staticmethod
    def _summary(result):
        return (result.mean_queue, result.utilization(),
                result.fairness_index())

    def run_round(self, traced: bool = False) -> Round:
        current = Round()
        summary_seconds = 0.0
        summaries = {}
        for retention, slot in self.RETENTIONS:
            simulator = self._simulator(retention)
            started = time.perf_counter()
            result = simulator.run(DES_DURATION)
            ran = time.perf_counter()
            summaries[retention] = self._summary(result)
            answered = time.perf_counter()
            current.add(slot, ran - started)
            if retention == "full":
                current.add("leg_c_s", answered - started)
            summary_seconds += answered - ran
            failures = []
            if result.events_executed != self.expected_events:
                failures.append(
                    f"{retention}: {result.events_executed} events, recorded "
                    f"{self.expected_events} for scenario seed "
                    f"{self.scenario_seed}")
            if retention == "moments" and summaries["moments"] != \
                    summaries["full"]:
                failures.append(f"full and moments summaries differ: "
                                f"{summaries['full']} vs "
                                f"{summaries['moments']}")
            current.op(failures)
            current.outputs[retention] = [result.events_executed,
                                          *summaries[retention]]
            if retention == "full":
                current.outputs["retained_samples"] = self._retained(result)
        current.extra["summary_s"] = summary_seconds
        self.compare_with_first(current)
        return current

    @staticmethod
    def _retained(result) -> int:
        trace = result.trace
        sinks = [trace.queue_length, *trace.source_rates.values()]
        return sum(len(sink) for sink in sinks)

    def details(self, rounds: List[Round]) -> Dict[str, tuple]:
        events = rounds[-1].outputs["full"][0]
        return {
            "des_events_per_s": (
                events / self.estimate(samples(rounds, "leg_a_s")),
                "events/s"),
            "des_events_per_s_moments": (
                events / self.estimate(samples(rounds, "leg_b_s")),
                "events/s"),
            "des_full_answer_s": (
                self.estimate(samples(rounds, "leg_c_s")), "s"),
            "dataplane.summary_s": (
                self.estimate([r.extra["summary_s"] for r in rounds]), "s"),
            "des_events_executed": (events, "count"),
        }


class Campaign(Workload):
    name = "campaign"
    LEGS = {
        "leg_a_s": ("campaign_cold_s",
                    "cold `repro run`, empty cache, process start to exit"),
        "leg_b_s": ("campaign_warm_s",
                    "warm `repro run`, filled cache, process start to exit"),
        "leg_c_s": ("cli.import_s",
                    "`python3 -c 'import repro'`, process start to exit "
                    "(two samples a round)"),
    }

    def setup(self) -> None:
        self.env = child_env()
        self.tmp_root = STATE_DIR / "tmp" / f"campaign-{os.getpid()}"
        self.tmp_root.mkdir(parents=True, exist_ok=True)
        self._counter = 0
        # Warm-up: a cold and a warm campaign page in what the timed rounds
        # run, so the first timed round is not a cold outlier.
        cache_dir = self._fresh_cache()
        for _ in range(2):
            self._run(self.campaign_argv(cache_dir, None))
        shutil.rmtree(cache_dir, ignore_errors=True)

    def _fresh_cache(self) -> Path:
        self._counter += 1
        return self.tmp_root / f"cache-{self.seed}-{self._counter}"

    def _run(self, argv: List[str]):
        started = time.perf_counter()
        completed = subprocess.run(argv, capture_output=True, text=True,
                                   env=self.env, cwd=ROOT, check=False,
                                   timeout=SUBPROCESS_TIMEOUT)
        return time.perf_counter() - started, completed

    def campaign_argv(self, cache_dir: Path, spans_path: Optional[Path]
                      ) -> List[str]:
        cli = ["run", CAMPAIGN_MATRIX, "--jobs", "2", "--cache-dir",
               str(cache_dir)]
        if spans_path is None:
            return [sys.executable, "-m", "repro.cli", *cli]
        bootstrap = Path(__file__).resolve().parent / "traced_cli.py"
        return [sys.executable, str(bootstrap), str(spans_path), *cli]

    def _import_leg(self, current: Round) -> None:
        seconds, imported = self._run([sys.executable, "-c", "import repro"])
        current.add("leg_c_s", seconds)
        current.op([] if imported.returncode == 0 else
                   [f"import repro failed: {imported.stderr[-500:]}"])

    def run_round(self, traced: bool = False) -> Round:
        # The short import leg runs twice, between the campaigns, so its
        # samples spread over the round instead of sharing one slow moment.
        current = Round()
        cache_dir = self._fresh_cache()
        spans = ([cache_dir.with_name(cache_dir.name + f"-{leg}.json")
                  for leg in ("cold", "warm")] if traced else [None, None])
        try:
            self._import_leg(current)
            seconds, cold = self._run(self.campaign_argv(cache_dir, spans[0]))
            current.add("leg_a_s", seconds)
            cold_rows, cold_summary, failures = _parse_campaign(cold)
            if cold_summary.get("computed") != CAMPAIGN_JOBS or \
                    cold_summary.get("failed") != 0:
                failures.append(f"cold campaign summary {cold_summary}")
            if any(row[1] != "ok" for row in cold_rows):
                failures.append("cold campaign: a job is not 'ok'")
            if traced and not failures:
                current.extra["journal"] = _journal_durations(cold_summary)
            current.op(failures)

            self._import_leg(current)
            seconds, warm = self._run(self.campaign_argv(cache_dir, spans[1]))
            current.add("leg_b_s", seconds)
            warm_rows, warm_summary, failures = _parse_campaign(warm)
            if warm_summary.get("cache hits") != CAMPAIGN_JOBS:
                failures.append(f"warm campaign summary {warm_summary}")
            if any(row[1] != "cached" for row in warm_rows):
                failures.append("warm campaign: a job was not a cache hit")
            if _without_status(warm_rows) != _without_status(cold_rows):
                failures.append("warm campaign output differs from cold")
            current.op(failures)
            current.outputs["rows"] = _without_status(cold_rows)
            if traced:
                current.extra["spans"] = [
                    json.loads(path.read_text()) for path in spans]
        finally:
            shutil.rmtree(cache_dir, ignore_errors=True)
            for path in spans:
                if path is not None and path.exists():
                    path.unlink()
        self.compare_with_first(current)
        return current

    def close(self) -> None:
        shutil.rmtree(self.tmp_root, ignore_errors=True)


def _parse_campaign(completed):
    """Job rows and summary of one ``repro run`` table, plus failures."""
    failures = []
    if completed.returncode != 0:
        failures.append(f"repro run exited {completed.returncode}: "
                        f"{completed.stderr[-500:]}")
    rows, summary = [], {}
    lines = completed.stdout.splitlines()
    for line in lines[3:]:
        if " | " in line:
            rows.append([cell.strip() for cell in line.split("|")])
        elif " : " in line:
            key, value = (part.strip() for part in line.split(" : ", 1))
            try:
                summary[key] = int(value)
            except ValueError:
                summary[key] = value
    if len(rows) != CAMPAIGN_JOBS:
        failures.append(f"repro run printed {len(rows)} job rows, expected "
                        f"{CAMPAIGN_JOBS}")
    return rows, summary, failures


def _without_status(rows):
    return [[row[0], *row[2:]] for row in rows]


def _journal_durations(summary: dict) -> List[float]:
    """Per-job wall times the cold run journaled (its ``duration`` field)."""
    path = Path(summary.get("journal", ""))
    if not path.is_absolute():
        path = ROOT / path
    durations = []
    for line in path.read_text().splitlines():
        record = json.loads(line)
        if record.get("type") == "outcome":
            durations.append(float(record["duration"]))
    return durations


WORKLOADS = {workload.name: workload
             for workload in (FPSolve, DESDumbbell, Campaign)}
