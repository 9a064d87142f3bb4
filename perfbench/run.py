"""End-to-end benchmark of the twophase pipeline at paper scale (n = 10,000).

Run from the repository root:

    python3 perfbench/run.py --workload replicate --seed 1 --seconds 35 --trace 0

Workloads (see README.md): ``replicate`` (one Monte Carlo replicate of the
harness), ``fpca`` (eigensystem fit plus exposure scoring and outlier
flags on a 10,000-subject cohort) and ``cli_chain`` (the on-disk design ->
estimate workflow through ``twophase.cli.dispatch``).  Each is a closed
loop: one process, one client, the next operation starts when the previous
one returns.  ``--trace 0`` reports the end-to-end metrics; ``--trace 1``
runs every operation untraced and then traced on the same inputs, checks
that both give bit-identical outputs and reports per-layer metrics.
Operation times are also normalised by a calibration run between the
pieces of each operation (see :class:`Clock`), because the host's speed
drifts.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The run exits 1
when a correctness check fails.  The full record (environment stamp,
workload metrics, failures and warnings by class, per-layer table) is
written to ``perfbench/results/``.
"""

from __future__ import annotations

import os
import sys

# One client, one BLAS/OpenMP thread (at most nproc): pinned before numpy loads.
THREADS = 1
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(THREADS)

import argparse  # noqa: E402
import contextlib  # noqa: E402
import csv  # noqa: E402
import gc  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import re  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import warnings  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
if not (SRC / "twophase" / "__init__.py").is_file():
    sys.exit(f"twophase sources not found under {SRC}; run from a full checkout")
sys.path.insert(0, str(SRC))

import numpy as np  # noqa: E402

import twophase  # noqa: E402
from twophase import (  # noqa: E402
    allocation,
    cli,
    fileio,
    fpca,
    imputation,
    kernels,
    models,
    multiframe,
    raking,
    records,
    simulate,
    smoothing,
)
from twophase.errors import (  # noqa: E402
    CalibrationError,
    ConvergenceError,
    DegenerateDesignError,
    DomainError,
    IllConditionedError,
    InfeasibleError,
)

import tracing  # noqa: E402

PAPER_N = 10_000
SMOKE_N = 1_500
IMPORT_REPEATS = 5
SETUP_REPEATS = 5
# numpy loads first, untimed: its import (100-200 ms on the reference host,
# varying by tens of percent) is the environment's, and would bury the
# package's own few milliseconds.
IMPORT_PROBE = ("import time, numpy; t = time.perf_counter(); import twophase; "
                "print(time.perf_counter() - t)")
CAL_REPS = 5            # calibration blocks per lap
# ``setup_s`` is reported in seconds of a host whose calibration block
# takes this long: about the median block on the 2-core Intel Xeon the
# bounds were set on.
REF_CAL_S = 0.002
LAP_SUBJECTS = 250      # FPCA subjects scored between laps
LAP_MIN_S = 0.2         # shortest piece that kernel_laps ends

# Fixed inputs of the calibration block; it uses numpy and the interpreter only.
_cal_rng = np.random.default_rng(0)
CAL_MATRIX = _cal_rng.standard_normal((120, 120))
CAL_VECTOR = _cal_rng.standard_normal(50_000)
CAL_LIST = list(range(30_000))


# Failures the package signals on unlucky data.  A workload counts them by
# class and goes on; any other exception is a defect and makes the run
# incorrect.
DOMAIN_ERRORS = (ConvergenceError, InfeasibleError, DegenerateDesignError,
                 CalibrationError, IllConditionedError, DomainError)


def derived_seed(*words: int) -> int:
    return int(np.random.SeedSequence(list(words)).generate_state(1)[0])


# ---------------------------------------------------------------------------
# Workloads.  Each has generate() (the timed set-up); prepare(i) (inputs
# of operation i beyond the set-up's, made outside its timing);
# run(i, tracer, clock) (one operation, calling clock.lap() between its pieces;
# returns the output, units attempted and the failures of failed units;
# only DOMAIN_ERRORS are caught there);
# inspect(output) (correctness problems, output digest and the workload's
# own numbers, computed outside the timed operation); and summary(ops)
# (the workload's named metrics over the run).


class Workload:
    def __init__(self, seed: int, n: int, work: Path):
        self.seed, self.n, self.work = seed, n, work

    def prepare(self, i):
        pass


class Replicate(Workload):
    """``simulate.run_replicate`` over a fixed list of seeds from ``--seed``."""

    unit = "replicates"

    def generate(self):
        self.config = simulate.SimConfig(n=self.n)
        self.spec = simulate.DesignSpec()

    def run(self, i, tracer, clock):
        seed = derived_seed(self.seed, i)
        try:
            return simulate.run_replicate(self.config, self.spec, seed), 1, []
        except DOMAIN_ERRORS as exc:
            return None, 1, [failure(exc)]

    def inspect(self, rows):
        problems = []
        keys = {(r.endpoint, r.estimator) for r in rows}
        want = {(e, m) for e in simulate.ENDPOINTS for m in simulate.ESTIMATORS}
        if len(rows) != len(want) or keys != want:
            problems.append(f"{len(rows)} estimate rows, expected the 2 x 5 grid")
        for r in rows:
            if not (math.isfinite(r.beta) and math.isfinite(r.se) and r.se > 0):
                problems.append(f"{r.endpoint}/{r.estimator}: beta {r.beta} se {r.se}")
        text = repr([(r.endpoint, r.estimator, r.beta.hex(), r.se.hex()) for r in rows])
        return problems, hashlib.sha256(text.encode()).hexdigest(), {}

    def summary(self, ops):
        times = [op["seconds"] for op in ops]
        out = {"replicate_p50_s": metric(statistics.median(times), "s")}
        tail = tail_percentile(times)
        if tail is not None:
            value, pct, n = tail
            out["replicate_tail_s"] = metric(value, "s", percentile=pct, samples=n)
        return out


class Fpca(Workload):
    """Fit the eigensystem on a 10,000-subject cohort, then score and flag it.

    Operation ``i`` uses cohort ``i``, so a run that has time for several
    operations averages over several cohorts: the fit's cost and outcome
    vary from cohort to cohort.
    """

    unit = "fits and subjects"

    def _cohort(self, i):
        self.pop = None  # release the previous cohort first
        self.pop = simulate.generate(simulate.SimConfig(n=self.n),
                                     derived_seed(self.seed, 1, i), include_series=True)
        self.cohort = i

    def generate(self):
        self._cohort(0)

    def prepare(self, i):
        if i != self.cohort:
            self._cohort(i)

    def run(self, i, tracer, clock):
        series, gestation = self.pop.series, self.pop.gestation
        try:
            # The fit is one 15 s call: lap inside it too (not when traced,
            # where the laps would fall inside the smoothing spans).
            with kernel_laps(clock) if tracer is None else contextlib.nullcontext():
                system = fpca.fit_eigensystem(series)
        except DOMAIN_ERRORS as exc:
            return None, 1, [failure(exc)]
        clock.lap()
        fit_s = clock.seconds
        gain = np.full(len(series), np.nan)
        flags: list = []
        failures = []
        for j, s in enumerate(series):
            try:
                gain[j] = fpca.weight_change(s, system, gestation[j])
                flags.append(fpca.flag_outliers(s, system))
            except DOMAIN_ERRORS as exc:
                flags.append(None)
                failures.append(failure(exc))
            if (j + 1) % LAP_SUBJECTS == 0:
                clock.lap()
        clock.lap()
        score_s = clock.seconds - fit_s
        out = {"system": system, "gain": gain, "flags": flags,
               "fit_s": fit_s, "score_s": score_s}
        return out, 1 + len(series), failures

    def inspect(self, out):
        system, gain = out["system"], out["gain"]
        problems = []
        k = system.n_components
        if k < 1:
            problems.append("no eigencomponents")
        qw = smoothing.trapezoid_weights(system.grid)
        gram = (system.eigenfunctions * qw) @ system.eigenfunctions.T
        err = float(np.max(np.abs(gram - np.eye(k)))) if k else 0.0
        if not err < 1e-6:
            problems.append(f"eigenfunctions not orthonormal (max error {err:.3g})")
        finite = np.isfinite(gain)
        if not finite.all():
            problems.append(f"{int((~finite).sum())} subjects without a finite weight_change")
        corr = float(np.corrcoef(gain[finite], self.pop.x[finite])[0, 1])
        h = hashlib.sha256()
        for a in (system.grid, system.mean, system.eigenvalues,
                  system.eigenfunctions, gain):
            h.update(np.ascontiguousarray(a).tobytes())
        h.update(repr((float(system.noise_var).hex(), out["flags"])).encode())
        values = {"fit_s": out["fit_s"], "score_s": out["score_s"],
                  "exposure_corr": corr, "n_components": k,
                  "noise_var": float(system.noise_var),
                  "flagged": sum(len(f) for f in out["flags"] if f is not None)}
        return problems, h.hexdigest(), values

    def summary(self, ops):
        first = ops[0]["values"]  # cohort 0, the same whatever the run's length
        return {
            "fpca_fit_s": metric(statistics.median(op["values"]["fit_s"] for op in ops), "s"),
            "fpca_score_s": metric(
                statistics.median(op["values"]["score_s"] for op in ops), "s"),
            "exposure_corr": metric(first["exposure_corr"], "ratio", better="higher"),
            "n_components": metric(first["n_components"], "count"),
            "noise_var": metric(first["noise_var"], "kg2"),
            "flagged_points": metric(first["flagged"], "count"),
        }


class CliChain(Workload):
    """The on-disk design -> estimate workflow, driven through ``cli.dispatch``."""

    unit = "CLI steps"
    spec = simulate.DesignSpec()
    asthma_budget = spec.asthma_waves[0]

    def __init__(self, seed: int, n: int, work: Path):
        super().__init__(seed, n, work)
        self.inputs = work / "inputs"
        self.ops = work / "ops"

    def generate(self):
        pop = simulate.generate(simulate.SimConfig(n=self.n), derived_seed(self.seed, 2))
        self.inputs.mkdir(parents=True, exist_ok=True)
        fileio.write_dyads(self.inputs / "dyads.csv", fileio.population_to_records(pop))
        fileio.write_truth(self.inputs / "truth.csv", pop)
        # The harness's own obesity grid; ids and bounds as the CLI reads them.
        obesity = [{"id": s.id, "bounds": {k: [None if math.isinf(v) else float(v)
                                               for v in b] for k, b in s.bounds.items()}}
                   for s in simulate.obesity_strata(pop, self.spec)[0]]
        (self.inputs / "strata_O.json").write_text(json.dumps(obesity))
        (self.inputs / "strata_A.json").write_text(json.dumps(self._asthma_leaves(pop)))

    def _asthma_leaves(self, pop):
        # Records carry no asthma outcome, so unlike simulate.asthma_strata
        # the CLI's asthma leaves split on delta_star.
        members = pop.x_star[pop.in_asthma_frame]
        x_bands = bands(np.quantile(members, self.spec.asthma_quantiles))
        return [{"id": f"A:d{d}x{j}", "bounds": {"delta_star": d_band, "x_star": x_band}}
                for d, d_band in enumerate([[None, 0.5], [0.5, None]])
                for j, x_band in enumerate(x_bands)]

    def steps(self, wd: Path, i: int):
        """``(span name, argv)`` for every step of operation ``i``."""
        seed = derived_seed(self.seed, 3, i) % 2 ** 31
        src = self.inputs
        dyads, h = src / "dyads.csv", wd / "h_phase1.csv"
        mps = ["--min-per-stratum", self.spec.min_per_stratum]
        out = [
            ("cli.design.init", ["design", "init", "--frame", "O", "--dyads", dyads,
                                 "--strata", src / "strata_O.json",
                                 "--out", wd / "ledger_O0.json", "--seed", seed]),
            ("cli.estimate.phase1", ["estimate", "--dyads", dyads, "--model", "cox",
                                     "--method", "phase1", "--out", wd / "est_phase1.csv",
                                     "--emit-influence", h]),
        ]

        def wave(frame, k, target, dyads_in, dyads_out):
            ledger_in = wd / f"ledger_{frame}{k - 1}.json"
            ledger_out = wd / f"ledger_{frame}{k}.json"
            alloc, draw = wd / f"alloc_{frame}{k}.json", wd / f"draw_{frame}{k}.json"
            return [
                ("cli.design.allocate", ["design", "allocate", "--ledger", ledger_in,
                                         "--dyads", dyads_in, "--influence", h,
                                         "--target", target, "--wave", k,
                                         "--out", alloc, *mps]),
                ("cli.design.draw", ["design", "draw", "--ledger", ledger_in,
                                     "--dyads", dyads_in, "--allocation", alloc,
                                     "--seed", seed + k, "--wave", k, "--out", draw,
                                     "--update-ledger", ledger_out]),
                ("cli.simulate.reveal", ["simulate", "reveal", "--dyads", dyads_in,
                                         "--truth", src / "truth.csv", "--draw", draw,
                                         "--out", dyads_out]),
            ]

        cumulative = 0
        for k, budget in enumerate(self.spec.obesity_waves, start=1):
            cumulative += budget
            # Wave 1 allocates its budget exactly; later waves the cumulative target.
            out += wave("O", k, budget if k == 1 else cumulative, dyads,
                        wd / f"dyads_{k}.csv")
            dyads = wd / f"dyads_{k}.csv"
        out.append(("cli.design.init", ["design", "init", "--frame", "A",
                                        "--dyads", dyads, "--strata", src / "strata_A.json",
                                        "--out", wd / "ledger_A0.json", "--seed", seed,
                                        "--member-flag", "in_asthma_frame"]))
        out += wave("A", 1, self.asthma_budget, dyads, wd / "dyads_final.csv")
        final = ["estimate", "--dyads", wd / "dyads_final.csv", "--model", "cox",
                 "--ledger", wd / f"ledger_O{len(self.spec.obesity_waves)}.json"]
        out += [
            ("cli.estimate.ipw", final + ["--method", "ipw", "--out", wd / "est_ipw.csv"]),
            ("cli.estimate.raking", final + ["--method", "raking", "--aux", "naive",
                                             "--out", wd / "est_raking_naive.csv"]),
            ("cli.estimate.raking", final + [
                "--method", "raking", "--aux", "mi", "--seed", seed,
                "--mi-replicates", self.spec.mi_replicates_estimator,
                "--out", wd / "est_raking_mi.csv"]),
            ("cli.estimate.ipw", final + ["--method", "ipw", "--frame", "multi",
                                          "--asthma-ledger", wd / "ledger_A1.json",
                                          "--out", wd / "est_multi.csv"]),
        ]
        return [(name, [str(a) for a in argv]) for name, argv in out]

    def run(self, i, tracer, clock):
        wd = self.ops / f"op{i}"
        shutil.rmtree(wd, ignore_errors=True)
        wd.mkdir(parents=True)
        dispatch = cli.dispatch
        attempted, step_s = 0, []
        for name, argv in self.steps(wd, i):
            call = dispatch if tracer is None else tracer.wrap(name, dispatch)
            attempted += 1
            err = io.StringIO()
            t0 = perf_counter()
            try:
                with contextlib.redirect_stderr(err):
                    code = call(argv)
            except SystemExit as exc:  # argparse rejected the arguments
                code = exc.code
            step_s.append((name, perf_counter() - t0))
            clock.lap()
            if code != 0:
                # dispatch reports ``error: <class>: <message>`` on stderr.
                line = (err.getvalue().strip().splitlines() or [f"error: exit {code}"])[-1]
                cls, _, msg = line.removeprefix("error: ").partition(":")
                return {"wd": wd, "steps": step_s}, attempted, [f"{cls} ({name}):{msg}"]
        return {"wd": wd, "steps": step_s, "complete": True}, attempted, []

    def inspect(self, out):
        wd = out["wd"]
        problems = [] if out.get("complete") else ["a CLI step exited non-zero"]
        if not problems:
            problems += self._check_files(wd)
        h = hashlib.sha256()
        for path in sorted(wd.iterdir()):
            h.update(path.name.encode() + b"\0" + path.read_bytes())
        shutil.rmtree(wd)
        steps: dict[str, float] = {}
        for name, seconds in out["steps"]:
            steps[name] = steps.get(name, 0.0) + seconds
        return problems, h.hexdigest(), {"steps": steps}

    def _check_files(self, wd):
        problems = []
        waves = [("O", k, b) for k, b in enumerate(self.spec.obesity_waves, start=1)]
        waves.append(("A", 1, self.asthma_budget))
        drawn = {"O": 0, "A": 0}
        for frame, k, budget in waves:
            alloc = json.loads((wd / f"alloc_{frame}{k}.json").read_text())
            if alloc["total"] != budget or sum(alloc["draws"].values()) != budget:
                problems.append(f"{frame} wave {k}: allocated {alloc['total']}, budget {budget}")
            draw = json.loads((wd / f"draw_{frame}{k}.json").read_text())
            drawn[frame] += sum(len(ids) for ids in draw["by_stratum"].values())
            ledger = json.loads((wd / f"ledger_{frame}{k}.json").read_text())
            sampled = {rid for s in ledger["strata"] for ids in s["drawn"] for rid in ids}
            if len(sampled) != drawn[frame]:
                problems.append(f"{frame} ledger after wave {k}: {len(sampled)} sampled, "
                                f"{drawn[frame]} drawn")
        for path in sorted(wd.glob("est_*.csv")):
            with open(path, newline="") as fh:
                for row in csv.DictReader(fh):
                    beta, se = float(row["beta"]), float(row["se"])
                    if not (math.isfinite(beta) and math.isfinite(se) and se > 0):
                        problems.append(f"{path.name} {row['term']}: beta {beta} se {se}")
        return problems

    def summary(self, ops):
        out = {"chain_s": metric(statistics.median(op["seconds"] for op in ops), "s")}
        for name in ops[0]["values"]["steps"]:
            out[f"{name}_s"] = metric(
                statistics.median(op["values"]["steps"].get(name, 0.0) for op in ops), "s")
        return out


WORKLOADS = {"replicate": Replicate, "fpca": Fpca, "cli_chain": CliChain}


def bands(cuts):
    edges = [None, *(float(c) for c in np.unique(cuts)), None]
    return [[lo, hi] for lo, hi in zip(edges[:-1], edges[1:])]


# ---------------------------------------------------------------------------
# Layers wrapped by the traced run: (module, function, per-call measure).

def traced_layers():
    t = tracing
    table = {
        kernels: [("cox_breslow", t.computed_bytes), ("local_linear_1d", t.computed_bytes),
                  ("local_linear_2d", t.computed_bytes)],
        models: [("fit_cox", t.newton_iters), ("fit_logistic", t.newton_iters),
                 ("sandwich_variance", None)],
        imputation: [("fit_imputation", None), ("impute_once", None),
                     ("mi_influence", None)],
        raking: [("raking_fit", t.calibration), ("calibrate_weights", t.calibration)],
        allocation: [("exact_allocation", None), ("multiwave", None),
                     ("stratum_sd", None), ("draw_sample", None)],
        multiframe: [("combine_frames", None)],
        records: [("build_ledger", None), ("assign_strata", None),
                  ("sampling_probabilities", None), ("apply_draw", None)],
        fileio: [(f, t.file_bytes) for f in ("read_dyads", "write_dyads", "read_truth",
                                               "read_influence", "read_ledger",
                                               "write_ledger")],
        smoothing: [("select_bandwidth_1d", None), ("select_bandwidth_2d", None),
                    ("smooth_1d", None), ("smooth_2d", None)],
        fpca: [("fit_eigensystem", t.eigensystem), ("pace_scores", None),
               ("weight_change", None), ("flag_outliers", None)],
        simulate: [("generate", None), ("run_design", None), ("estimate_obesity", None),
                   ("estimate_asthma", None)],
    }
    return [(mod, fn, measure) for mod, fns in table.items() for fn, measure in fns]


# ---------------------------------------------------------------------------
# Measurement helpers.


def metric(value, unit, **extra):
    return {"value": value, "unit": unit, **extra}


def failure(exc: Exception) -> str:
    return f"{type(exc).__name__}: {str(exc)[:120]}"


def tail_percentile(values):
    """Highest order statistic with at least ten samples above it.

    Returns ``(value, percentile, sample count)``, or None below 11 samples.
    """
    xs = sorted(values)
    if len(xs) < 11:
        return None
    k = len(xs) - 11
    return xs[k], 100.0 * (k + 1) / len(xs), len(xs)


def warning_key(w) -> str:
    prefix = re.sub(r"[-+]?\d+(\.\d+)?(e[-+]?\d+)?", "#", str(w.message))[:80]
    return f"{w.category.__name__}: {prefix}"


def import_seconds() -> float:
    """Seconds to import twophase, as timed in a fresh interpreter."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    done = subprocess.run([sys.executable, "-c", IMPORT_PROBE], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=120, check=True)
    return float(done.stdout.strip().splitlines()[-1])


def set_up(make_workload, clock):
    """Time the set-up: the import, then the workload's generate, repeated.

    Returns the last workload and the median seconds of each part, raw
    and normalised: each repeat is one :class:`Clock` piece, so host
    drift is divided out as it is for the operations.  Every generate
    repeat starts from a fresh workload, with the previous one's inputs
    freed and collected outside the timing.
    """
    imports, generates, workload = [], [], None
    for _ in range(IMPORT_REPEATS):
        clock.start()
        clock.lap(import_seconds())
        imports.append((clock.seconds, clock.norm))
    for _ in range(SETUP_REPEATS):
        workload = None
        gc.collect()
        workload = make_workload()
        clock.start()
        workload.generate()
        clock.lap()
        generates.append((clock.seconds, clock.norm))
    out = {}
    for part, times in (("import", imports), ("generate", generates)):
        out[f"{part}_s"] = statistics.median(t for t, _ in times)
        out[f"{part}_norm"] = statistics.median(n for _, n in times)
    return workload, out


def environment(seed: int) -> dict:
    blas = getattr(np.__config__, "CONFIG", {}).get("Build Dependencies", {}).get("blas", {})
    cpu = platform.processor() or platform.machine()
    with contextlib.suppress(OSError), open("/proc/cpuinfo") as fh:
        cpu = next((line.split(":", 1)[1].strip() for line in fh
                    if line.startswith("model name")), cpu)
    nproc = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
             else os.cpu_count())
    return {
        "kernel_backend": twophase.KERNEL_BACKEND,
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "threads": {v: os.environ[v] for v in
                    ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")},
        "nproc": nproc,
        "cpu": cpu,
        "python": platform.python_version(),
        "seed": seed,
    }


def calibration_seconds() -> float:
    """Median seconds of ``CAL_REPS`` fixed blocks of numpy and interpreter work."""
    times = []
    for _ in range(CAL_REPS):
        t0 = perf_counter()
        np.sort(CAL_VECTOR)
        CAL_MATRIX @ CAL_MATRIX
        np.cumsum(CAL_VECTOR)
        total = 0
        for v in CAL_LIST:
            total += v
        {i: str(i) for i in range(5_000)}
        times.append(perf_counter() - t0)
    return statistics.median(times)


class Clock:
    """Operation timer that runs a calibration at every lap.

    The host's speed drifts by tens of percent within seconds and minutes.
    Workloads call :meth:`lap` between the natural pieces of an operation
    (CLI steps, stretches of the FPCA fit and subject chunks; a replicate
    is one piece).
    Each piece's seconds are divided by the mean of the calibrations just
    before and after it, and ``norm`` sums those ratios.  ``seconds`` sums
    the pieces themselves; calibration time is in neither.  ``on_lap``
    runs at every lap, outside the pieces (it drains recorded warnings).
    A piece timed elsewhere (in a child process) is passed to :meth:`lap`.
    """

    def __init__(self, on_lap):
        self.on_lap = on_lap
        self.cal = calibration_seconds()
        self.calibrations = [self.cal]

    def start(self):
        self.seconds = self.norm = 0.0
        self.t0 = perf_counter()

    def lap_if_due(self):
        if perf_counter() - self.t0 >= LAP_MIN_S:
            self.lap()

    def lap(self, piece=None):
        if piece is None:
            piece = perf_counter() - self.t0
        self.on_lap()
        after = calibration_seconds()
        self.calibrations.append(after)
        self.seconds += piece
        self.norm += piece / (0.5 * (self.cal + after))
        self.cal = after
        self.t0 = perf_counter()


@contextlib.contextmanager
def kernel_laps(clock):
    """Lap ``clock`` after a smoothing kernel call once the piece is due.

    Splits a long call, such as the FPCA fit, into pieces short enough
    for the host's speed to hold between two calibrations.  Only the
    ``kernels`` module attribute is rebound; ``smoothing`` calls through it.
    """
    originals = {name: getattr(kernels, name) for name in ("local_linear_1d",
                                                            "local_linear_2d")}

    def lapping(fn):
        def call(*args, **kwargs):
            out = fn(*args, **kwargs)
            clock.lap_if_due()
            return out
        return call

    for name, fn in originals.items():
        setattr(kernels, name, lapping(fn))
    try:
        yield
    finally:
        for name, fn in originals.items():
            setattr(kernels, name, fn)


def measure_op(workload, i, clock, tracer=None):
    """Run operation ``i`` once, optionally traced, and inspect its output."""
    workload.prepare(i)
    if tracer:
        first = len(tracer.spans)
        tracer.install(tracing.twophase_modules(), traced_layers())
    clock.start()
    problems = []
    try:
        output, attempted, failures = workload.run(i, tracer, clock)
        clock.lap()
    except Exception as exc:  # noqa: BLE001 - not a DOMAIN_ERROR: a defect
        output, attempted, failures = None, 1, [failure(exc)]
        problems.append(f"operation {i} raised {failure(exc)}")
    finally:
        if tracer:
            tracer.uninstall()
    seconds = clock.seconds
    op = {"seconds": seconds, "norm": clock.norm, "attempted": attempted,
          "failures": failures, "problems": problems, "digest": None, "values": {}}
    if output is not None:
        op["problems"], op["digest"], op["values"] = workload.inspect(output)
    if tracer:
        op["untraced_remainder_s"] = seconds - tracer.top_level_seconds(first,
                                                                       len(tracer.spans))
    return op


def run_loop(workload, seconds: float, tracer):
    """Closed loop for ``seconds``; with a tracer each step is an untraced/traced pair."""
    plain, traced, warned = [], [], {}
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")

        def count_warnings():
            for w in caught:
                key = warning_key(w)
                warned[key] = warned.get(key, 0) + 1
            caught.clear()

        start = perf_counter()
        clock = Clock(on_lap=count_warnings)
        i = 0
        while True:
            plain.append(measure_op(workload, i, clock))
            if tracer is not None:
                traced.append(measure_op(workload, i, clock, tracer))
            count_warnings()
            i += 1
            elapsed = perf_counter() - start
            # Start another operation only if it should finish in time.
            if elapsed * (i + 1) / i > seconds:
                break
    return plain, traced, warned, clock.calibrations


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--smoke", action="store_true",
                        help=f"n = {SMOKE_N:,} instead of {PAPER_N:,}, for the smoke test")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())

    work = HERE / "work" / f"{args.workload}-{os.getpid()}"
    results = HERE / "results"
    results.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}" + ("-smoke" if args.smoke else "")
    n = SMOKE_N if args.smoke else PAPER_N
    tracer = tracing.Tracer() if args.trace else None
    try:
        workload, setup = set_up(lambda: WORKLOADS[args.workload](args.seed, n, work),
                                 Clock(on_lap=lambda: None))
        plain, traced, warned, calibrations = run_loop(workload, args.seconds, tracer)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            work.parent.rmdir()

    ops = plain + traced
    attempted = sum(op["attempted"] for op in ops)
    failures: dict[str, int] = {}
    for op in ops:
        for f in op["failures"]:
            cls = f.split(":", 1)[0]
            failures[cls] = failures.get(cls, 0) + 1
    failed = sum(failures.values())
    problems = [p for op in ops for p in op["problems"]]
    if args.trace:
        mismatched = [i for i, (a, b) in enumerate(zip(plain, traced))
                      if a["digest"] != b["digest"]]
        if mismatched:
            problems.append(f"traced outputs differ from untraced ones at operations "
                            f"{mismatched}")
    # Completed operations only: a failed one would look fast.
    done = [op for op in plain if op["digest"] is not None]
    if not done:
        problems.append("no operation completed")
    correct = not problems

    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    measured = {
        "setup_s": metric((setup["import_norm"] + setup["generate_norm"]) * REF_CAL_S, "s",
                          raw_s=setup["import_s"] + setup["generate_s"], **setup),
        "calib_block_s": metric(statistics.median(calibrations), "s",
                                laps=len(calibrations)),
        "peak_rss_mb": metric(peak_rss_mb, "MB"),
        "failed_frac": metric(failed / attempted, "ratio", failed=failed,
                              attempted=attempted),
    }
    if done:
        measured["op_p50_norm"] = metric(statistics.median(op["norm"] for op in done),
                                         "calib")
        measured["op_p50_s"] = metric(statistics.median(op["seconds"] for op in done), "s")
        measured.update(workload.summary(done))

    layer_table = {}
    if args.trace:
        layer_table = tracer.summary(len(traced))
        measured["bench.trace_overhead_s"] = metric(
            statistics.median(b["seconds"] - a["seconds"] for a, b in zip(plain, traced)), "s")
        measured["bench.untraced_remainder_s"] = metric(
            statistics.median(op["untraced_remainder_s"] for op in traced), "s")
        tracer.write(results / f"{stem}.spans.jsonl.gz")

    declared = spec["per_layer" if args.trace else "end_to_end"]
    metrics = {}
    for m in declared:
        name = m["name"]
        if name in measured:
            value = measured[name]["value"]
        else:  # a layer no call reached, or no operation completed
            layer, _, stat = name.rpartition(".")
            value = layer_table.get(layer, {}).get(stat, 0.0)
        metrics[name] = {"value": value, "unit": m["unit"]}

    record = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "seconds": args.seconds, "smoke": args.smoke, "environment": environment(args.seed),
        "correct": correct, "problems": problems[:50], "attempted": attempted,
        "failed": failed, "failures_by_class": failures,
        "failure_messages": sorted({f for op in ops for f in op["failures"]})[:20],
        "warnings": warned, "operations": len(plain), "unit": workload.unit,
        "op_seconds": [op["seconds"] for op in plain],
        "traced_op_seconds": [op["seconds"] for op in traced],
        "digests": [op["digest"] for op in plain],
        "measured": measured, "layers": layer_table,
        "patched_sites": sorted(tracer.sites) if tracer else [],
    }
    (results / f"{stem}.json").write_text(json.dumps(record, indent=1, default=float))

    env = record["environment"]
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"backend {env['kernel_backend']}  numpy {env['numpy']}  blas {env['blas']}  "
          f"threads {THREADS}  nproc {env['nproc']}  cpu {env['cpu']}")
    for name, m in measured.items():
        extra = {k: v for k, v in m.items() if k not in ("value", "unit")}
        print(f"  {name:28s} {m['value']:.6g} {m['unit']}"
              + (f"  {extra}" if extra else ""))
    print(f"  operations {len(plain)}{' untraced + traced pairs' if args.trace else ''}, "
          f"{attempted} {workload.unit} attempted, {failed} failed {failures or ''}")
    for key, count in sorted(warned.items()):
        print(f"  warning x{count}: {key}")
    for p in problems[:20]:
        print(f"  CHECK FAILED: {p}")
    print(f"  record: {(results / stem).relative_to(ROOT)}.json")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
