#!/usr/bin/env python3
"""Benchmark of the ivspline package: two workloads, checked against an independent oracle.

    python3 bench/run.py --workload fit-cv --seed 0 --seconds 30 --trace 0
    python3 bench/run.py --sweep

Workloads (see bench/README.md for why each exists):

  fit-cv       ``ivspline fit --cv --grid-out`` through ``ivspline.cli.main``
               on three n = 2000 CSV datasets, one with a rounded instrument
  mc-monotone  ``ivspline.monte_carlo(..., "constrained", 96)`` at n = 200

A run measures whole rounds of its workload's operations for at least
``--seconds`` seconds, then checks every output (bench/gform.py is the
oracle) and prints one JSON object as its last line.  ``--trace 1`` instead
alternates untraced and traced rounds and reports per-layer metrics from
the traced ones (bench/spans.py).  The exit code is 0 only if every check
passed.  ``--sweep`` times each layer at n = 200, 500, 1000, 2000 and prints
the table kept in bench/README.md.
"""

from __future__ import annotations

import os
import sys

# One BLAS thread (at most nproc).  On a 2-core machine, two OpenBLAS threads
# made an n = 200 constrained replication 6x slower (2.9 s against 0.47 s)
# and an unconstrained one 1.7x slower, and tied each timing to the load on
# both cores.  BLAS reads the setting when numpy loads, so this precedes every
# numpy import, the package's included; set-up subprocesses inherit it.
BLAS_THREADS = 1
NPROC = len(os.sched_getaffinity(0))
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(min(BLAS_THREADS, NPROC))

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402
import scipy  # noqa: E402

import gform  # noqa: E402
import spans  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / "bench" / "out"

WORKLOADS = ("fit-cv", "mc-monotone")

# the paper's design: corr(eps, V) and corr(W, Z)
RHO_EV, RHO_WZ = 0.5, 0.9
FIT_CV_N = 2000
FIT_CV_DATASETS = 3          # the last one has its instrument rounded
ROUNDED_DECIMALS = 1         # about 70 distinct instrument values among 2000 rows
MC_N = 200
MC_REPS = 96                 # replications per monte_carlo call
VERIFY_DRAWS = 2             # untimed MC verification pass: draws through CV -> fit
VERIFY_TILT_DRAWS = 1        # ... and through tilt -> fit_monotone
DETERMINISM_REPS = 2         # replications of the untimed repeat call when a run made one round
SETUP_REPEATS = 4            # fresh interpreters before the timed rounds, and again after them
GRID = np.linspace(-2.0, 2.0, 100)

# Tolerances of the checks; bench/README.md gives the reason for each value.
OBJ_RTOL = 1e-7              # program objective may exceed the oracle optimum by this share
OBJ_RTOL_ROUNDED = 1e-6      # ... on the rounded-instrument dataset, whose system is near singular
FITTED_RTOL = 1e-7           # fit-cv values at the observations vs the oracle's, relative to max |y|
ORACLE_RESIDUAL_MAX = 1e-12  # relative residual the oracle's own saddle solve must reach
CURVE_VALUE_RTOL = 1e-9      # curve CSV ghat vs the artifact's coefficients
FD_RTOL = 1e-9               # difference quotients of ghat vs ghat_prime, relative to max |ghat_prime|
NATURAL_RTOL = 1e-10         # second difference beyond the knots, relative to its cancellation scale
MSE_IDENTITY_RTOL = 1e-12    # mse = bias_sq + variance, pointwise and grid-averaged
MONOTONE_RTOL = 1e-4         # allowed dip of the mean monotone curve, relative to its range
SIMPLEX_ATOL = 1e-12         # |sum p - 1| of the tilt weights
REFIT_RTOL = 1e-7            # monotone refit vs oracle solve on n p y, relative to max |y|
DERIV_SIGN_RTOL = 1e-7       # knot-derivative slack, relative to max |g'| at the knots

SETUP_SNIPPET = """
import numpy as np
import ivspline
rng = np.random.default_rng(0)
w = rng.standard_normal(60)
z = 0.9 * w + 0.4 * rng.standard_normal(60)
y = z ** 2 + 0.5 * rng.standard_normal(60)
fit = ivspline.fit(ivspline.Dataset(y=y, z=z, w=w), 1e-3)
assert np.isfinite(fit.diagnostics["objective"])
"""


class BenchError(Exception):
    """The benchmark cannot run here (for example, the package sources are missing)."""


def import_package():
    """Import ivspline from this checkout's src/, never from an installed copy."""
    if not (SRC / "ivspline" / "__init__.py").is_file():
        raise BenchError(f"package sources not found under {SRC}")
    sys.path.insert(0, str(SRC))
    import ivspline

    if SRC.resolve() not in Path(ivspline.__file__).resolve().parents:
        raise BenchError(f"imported ivspline from {ivspline.__file__}, not from {SRC}")
    import ivspline.cli  # noqa: F401  (the CLI module is not imported by the package)

    return ivspline


def derive(seed: int, *keys: int) -> int:
    """A 32-bit seed for one input stream, split off the run seed."""
    return int(np.random.SeedSequence([seed, *keys]).generate_state(1)[0])


# ---------------------------------------------------------------------------
# inputs, made here from the paper's design without the package
# ---------------------------------------------------------------------------

def g1(z):
    return z**2 / np.sqrt(2.0)


def g3(z):
    s = np.where(z >= 1.0, 1.0, -1.0)
    return (np.sqrt(10.0 / 3.0) * np.log(np.abs(z - 1.0) + 1.0) * s - 0.6 * z + 2.0 * z**3) / 8.0


def draw_design(n: int, seed: int, g) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(y, z, w) with Z = (bW + V)/sqrt(1+b^2), eps = (aV + eta)/sqrt(1+a^2), Y = g(Z) + eps."""
    rng = np.random.default_rng(seed)
    w, v, eta = rng.standard_normal((3, n))
    a = np.sqrt(RHO_EV**2 / (1.0 - RHO_EV**2))
    b = np.sqrt(RHO_WZ**2 / (1.0 - RHO_WZ**2))
    z = (b * w + v) / np.sqrt(1.0 + b**2)
    y = g(z) + (a * v + eta) / np.sqrt(1.0 + a**2)
    return y, z, w


def write_csv(path: Path, y, z, w):
    with open(path, "w", encoding="utf-8") as handle:
        handle.write("y,z,w1\n")
        for row in zip(y, z, w):
            handle.write(",".join(repr(float(v)) for v in row) + "\n")


def fit_digest(artifact: Path, curve: Path) -> str:
    """Hash of a fit's results: the artifact without its diagnostics, and the curve CSV.

    The diagnostics are left out because the condition estimate in them
    changes in its last digits between calls in one process (see CHANGES.md).
    """
    doc = json.loads(artifact.read_text(encoding="utf-8"))
    doc.pop("diagnostics", None)
    h = hashlib.sha256(json.dumps(doc, sort_keys=True).encode())
    h.update(curve.read_bytes())
    return h.hexdigest()


class Checks:
    """Named pass/fail results, printed as they are made."""

    def __init__(self):
        self.results: list[tuple[str, bool, str]] = []

    def add(self, name: str, ok: bool, detail: str):
        ok = bool(ok)
        self.results.append((name, ok, detail))
        print(f"  check {'PASS' if ok else 'FAIL'} {name}: {detail}")

    @property
    def ok(self) -> bool:
        return bool(self.results) and all(ok for _, ok, _ in self.results)


def objective_check(checks, label, oracle: gform.GForm, fitted, lam, rtol=OBJ_RTOL) -> dict:
    """Direction-safe optimality: the fit's g-form score may not exceed the oracle's optimum.

    Returns the oracle's solution at lam.
    """
    best = oracle.solve(lam)
    score = oracle.score(fitted, lam)
    excess = (score - best["objective"]) / best["objective"]
    checks.add(f"{label} oracle solve", best["relative_residual"] <= ORACLE_RESIDUAL_MAX,
               f"relative residual {best['relative_residual']:.1e} <= {ORACLE_RESIDUAL_MAX:.0e}")
    checks.add(f"{label} objective", excess <= rtol,
               f"lambda {lam:.4g}: fit {score:.12e} vs oracle {best['objective']:.12e}, "
               f"excess {excess:.1e} <= {rtol:.0e}")
    return best


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------

class FitCv:
    """``ivspline fit --cv`` on n = 2000 CSV files; one operation is one CLI call."""

    def __init__(self, ivs, seed: int, out: Path):
        self.ivs = ivs
        self.jobs = []
        for k in range(FIT_CV_DATASETS):
            y, z, w = draw_design(FIT_CV_N, derive(seed, 1, k), g1)
            if k == FIT_CV_DATASETS - 1:
                w = np.round(w, ROUNDED_DECIMALS)
            stem = out / f"data{k}"
            csv = stem.with_suffix(".csv")
            write_csv(csv, y, z, w)
            argv = ["fit", "--input", str(csv), "--y", "y", "--z", "z", "--w", "w1", "--cv",
                    "--seed", str(derive(seed, 2, k)), "--out", f"{stem}.fit.json",
                    "--grid-out", f"{stem}.curve.csv"]
            self.jobs.append({"y": y, "z": z, "w": w, "argv": argv,
                              "artifact": Path(f"{stem}.fit.json"),
                              "curve": Path(f"{stem}.curve.csv"), "digests": set(), "codes": []})
        self.attempted = 0
        self.failed = 0

    def run_round(self) -> list[float]:
        times = []
        for job in self.jobs:
            t0 = time.perf_counter()
            code = self.ivs.cli.main(job["argv"])
            times.append(time.perf_counter() - t0)
            self.attempted += 1
            job["codes"].append(code)
            if code != 0:
                self.failed += 1
                continue
            job["digests"].add(fit_digest(job["artifact"], job["curve"]))
        return times

    def check(self, checks: Checks) -> float:
        errors = []
        for k, job in enumerate(self.jobs):
            label = f"fit-cv data{k}"
            ok_calls = sum(1 for c in job["codes"] if c == 0)
            # a failed call is counted in `failed`; the checks below read the last
            # call's files, so a dataset whose last call failed fails here instead
            # of dropping out of the checks
            checks.add(f"{label} last call succeeded", job["codes"][-1] == 0,
                       f"{ok_calls} of {len(job['codes'])} calls exited 0, the last with {job['codes'][-1]}")
            if job["codes"][-1] != 0:
                continue
            checks.add(f"{label} deterministic", len(job["digests"]) == 1,
                       f"{len(job['digests'])} distinct fits over {ok_calls} successful calls")
            doc = json.loads(job["artifact"].read_text(encoding="utf-8"))
            a, delta, knots = np.array(doc["a"]), np.array(doc["delta"]), np.array(doc["knots"])
            lam = float(doc["lambda"])
            checks.add(f"{label} knots", np.array_equal(knots, job["z"]), "artifact knots equal the input z")

            oracle = gform.GForm(job["y"], job["z"], job["w"])
            fitted = gform.radial_value(a, delta, knots, job["z"])
            rounded = k == FIT_CV_DATASETS - 1
            best = objective_check(checks, label, oracle, fitted, lam,
                                   OBJ_RTOL_ROUNDED if rounded else OBJ_RTOL)
            if not rounded:  # the rounded instrument's system is too ill-conditioned
                gap = float(np.abs(fitted - best["fitted"]).max() / np.abs(job["y"]).max())
                checks.add(f"{label} fitted values", gap <= FITTED_RTOL,
                           f"fit vs oracle at the observations {gap:.1e} <= {FITTED_RTOL:.0e}")
            self._check_curve(checks, label, job["curve"], a, delta, knots)
            self._check_natural(checks, label, a, delta, knots)
            errors.append(float(np.mean((gform.radial_value(a, delta, knots, GRID) - g1(GRID)) ** 2)))
        return float(np.mean(errors)) if errors else float("nan")

    @staticmethod
    def _check_curve(checks, label, path, a, delta, knots):
        rows = path.read_text(encoding="utf-8").splitlines()
        ok_header = rows[0].split(",") == ["z", "ghat", "ghat_prime"]
        data = np.array([[float(c) for c in r.split(",")] for r in rows[1:]])
        zs, g, gp = data[:, 0], data[:, 1], data[:, 2]
        own = gform.radial_value(a, delta, knots, zs)
        scale = 1.0 + np.abs(own).max()
        value_err = float(np.abs(g - own).max() / scale)
        checks.add(f"{label} curve values", ok_header and value_err <= CURVE_VALUE_RTOL,
                   f"header ok {ok_header}; ghat vs coefficients {value_err:.1e} <= {CURVE_VALUE_RTOL:.0e}")
        # a difference quotient of ghat differs from the mean of the two ghat_prime
        # values by the trapezoid rule's error on g', known exactly for a cubic spline
        defect = np.diff(g) / np.diff(zs) - 0.5 * (gp[:-1] + gp[1:])
        expected = gform.trapezoid_defect(delta, knots, zs)
        fd_err = float(np.abs(defect - expected).max() / (1.0 + np.abs(gp).max()))
        checks.add(f"{label} ghat_prime vs finite differences", fd_err <= FD_RTOL,
                   f"difference quotient minus trapezoid-rule error {fd_err:.1e} <= {FD_RTOL:.0e} "
                   f"(the error itself is up to {np.abs(expected).max():.1e})")

    @staticmethod
    def _check_natural(checks, label, a, delta, knots):
        lo, hi = knots.min(), knots.max()
        span = hi - lo
        worst = 0.0
        for x in (lo - span * np.array([1.0, 0.5, 0.0]), hi + span * np.array([0.0, 0.5, 1.0])):
            v = gform.radial_value(a, delta, knots, x)
            second = abs(v[0] - 2.0 * v[1] + v[2])
            cancel = np.abs(delta).sum() * np.abs(x[:, None] - knots[None, :]).max() ** 3 / 12.0
            worst = max(worst, second / (1.0 + np.abs(v).max() + cancel))
        checks.add(f"{label} linear beyond the knots", worst <= NATURAL_RTOL,
                   f"second difference / cancellation scale {worst:.1e} <= {NATURAL_RTOL:.0e}")


class MonteCarlo:
    """Constrained ``ivspline.monte_carlo`` on the g3 design at n = 200; one operation is one replication."""

    estimator = "constrained"

    def __init__(self, ivs, seed: int):
        self.ivs = ivs
        self.seed = seed
        self.reps = MC_REPS
        self.cfg = ivs.DgpConfig(n=MC_N, rho_ev=RHO_EV, rho_wz=RHO_WZ, g_id="g3", seed=derive(seed, 3))
        self.cv = ivs.CvConfig(seed=derive(seed, 4))
        self.reports = []
        self.attempted = 0
        self.failed = 0

    def run_round(self) -> list[float]:
        t0 = time.perf_counter()
        report = self.ivs.monte_carlo(self.cfg, self.estimator, self.reps, cv=self.cv)
        elapsed = time.perf_counter() - t0
        self.reports.append(report)
        self.attempted += self.reps
        self.failed += report.failures
        return [elapsed / self.reps] * self.reps

    def check(self, checks: Checks) -> float:
        first = self.reports[0]
        pp = first.per_point
        if len(self.reports) > 1:
            pairs, what = [(first, r) for r in self.reports[1:]], f"{len(self.reports)} timed rounds"
        else:  # one timed round: repeat a shorter call, untimed, to have two reports to compare
            again = [self.ivs.monte_carlo(self.cfg, self.estimator, DETERMINISM_REPS, cv=self.cv)
                     for _ in range(2)]
            pairs, what = [tuple(again)], f"two untimed calls of {DETERMINISM_REPS} replications"
        same = all(
            a.mse == b.mse and np.array_equal(a.per_point["mean_curve"], b.per_point["mean_curve"])
            for a, b in pairs
        )
        checks.add(f"{self.estimator} deterministic", same, f"identical reports from {what}")
        checks.add(f"{self.estimator} replication count", first.replications + first.failures == self.reps,
                   f"{first.replications} + {first.failures} failures = {self.reps}")
        checks.add(f"{self.estimator} grid and truth",
                   np.allclose(first.grid, GRID, rtol=0, atol=1e-15)
                   and np.allclose(pp["truth"], g3(GRID), rtol=1e-13, atol=1e-15),
                   "grid is 100 points on [-2, 2]; truth equals g3")
        point = np.abs(pp["mse"] - pp["bias_sq"] - pp["variance"]).max() / pp["mse"].max()
        bias = np.abs(pp["bias_sq"] - (pp["mean_curve"] - g3(GRID)) ** 2).max() / pp["mse"].max()
        avg = max(abs(first.mse - pp["mse"].mean()), abs(first.bias_sq - pp["bias_sq"].mean()),
                  abs(first.variance - pp["variance"].mean())) / first.mse
        checks.add(f"{self.estimator} mse identity",
                   max(point, bias, avg) <= MSE_IDENTITY_RTOL and np.all(pp["variance"] >= 0),
                   f"pointwise mse-bias_sq-variance {point:.1e}, bias_sq vs mean curve {bias:.1e}, "
                   f"grid averages {avg:.1e} (<= {MSE_IDENTITY_RTOL:.0e})")
        curve = pp["mean_curve"]
        dip = max(0.0, -float(np.diff(curve).min())) / float(curve.max() - curve.min())
        checks.add(f"{self.estimator} mean curve nondecreasing", dip <= MONOTONE_RTOL,
                   f"largest dip / range {dip:.1e} <= {MONOTONE_RTOL:.0e}")
        self._verify(checks)
        return float(first.mse)

    def _verify(self, checks):
        """Untimed pass: a few draws of the design through the public fitting path."""
        ivs = self.ivs
        for k in range(VERIFY_DRAWS):
            y, z, w = draw_design(MC_N, derive(self.seed, 5, k), g3)
            ds = ivs.Dataset(y=y, z=z, w=w)
            lam = ivs.cross_validate(ds, cfg=ivs.CvConfig(seed=derive(self.seed, 6, k))).lambda_star
            model = ivs.fit(ds, lam)
            oracle = gform.GForm(y, z, w)
            label = f"verify draw{k}"
            objective_check(checks, label, oracle, gform.radial_value(model.a, model.delta, model.knots, z), lam)
            if k >= VERIFY_TILT_DRAWS:
                continue
            weights = ivs.tilt(ds, lam)
            p = np.asarray(weights.p)
            checks.add(f"{label} tilt simplex", p.min() >= 0.0 and abs(p.sum() - 1.0) <= SIMPLEX_ATOL,
                       f"min p {p.min():.3e} >= 0, |sum p - 1| {abs(p.sum() - 1.0):.1e} <= {SIMPLEX_ATOL:.0e}")
            mono = ivs.fit_monotone(ds, lam)
            fitted = gform.radial_value(mono.a, mono.delta, mono.knots, z)
            target = oracle.solve(lam, y=MC_N * p * y)["fitted"]
            gap = float(np.abs(fitted - target).max() / np.abs(y).max())
            checks.add(f"{label} monotone refit", gap <= REFIT_RTOL,
                       f"refit vs oracle solve on n p y: {gap:.1e} <= {REFIT_RTOL:.0e}")
            slope = gform.radial_slope(mono.a, mono.delta, mono.knots, z)
            slack = float(slope.min() / np.abs(slope).max())
            checks.add(f"{label} knot derivatives", slack >= -DERIV_SIGN_RTOL,
                       f"min g'(z_i) / max |g'(z_i)| = {slack:.1e} >= -{DERIV_SIGN_RTOL:.0e}; "
                       f"{int((~np.isclose(p, 1.0 / MC_N, rtol=0, atol=1e-15)).sum())} weights moved")


def make_workload(ivs, name: str, seed: int, out: Path):
    if name == "fit-cv":
        return FitCv(ivs, seed, out)
    return MonteCarlo(ivs, seed)


# ---------------------------------------------------------------------------
# measurement
# ---------------------------------------------------------------------------

def measure_setup() -> list[float]:
    """Wall times of fresh interpreters each importing ivspline and completing one small fit."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    times = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        proc = subprocess.run([sys.executable, "-c", SETUP_SNIPPET], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=120)
        times.append(time.perf_counter() - t0)
        if proc.returncode != 0:
            raise BenchError(f"set-up fit failed:\n{proc.stderr}")
    return times


def run(args) -> dict:
    ivs = import_package()
    out = OUT / f"{args.workload}-seed{args.seed}"
    out.mkdir(parents=True, exist_ok=True)
    workload = make_workload(ivs, args.workload, args.seed, out)

    op_times = {False: [], True: []}   # per-operation wall time, untraced / traced rounds
    round_rates = []                   # operations completed per second, untraced rounds
    tracer = spans.Tracer()
    traced_datasets = 0
    # set-up is sampled before and after the timed rounds, so that its median
    # spans the same stretch of machine speed as the workload's figures
    setup_times = [] if args.trace else measure_setup()
    start = time.perf_counter()
    rounds = 0
    while (time.perf_counter() - start < args.seconds
           or (args.trace and (not op_times[False] or not op_times[True]))):
        traced = bool(args.trace) and rounds % 2 == 1
        if traced:
            tracer.install()
        failed_before = workload.failed
        t0 = time.perf_counter()
        try:
            times = workload.run_round()
        finally:
            tracer.uninstall()
        if not traced:
            round_rates.append((len(times) - workload.failed + failed_before) / (time.perf_counter() - t0))
        op_times[traced].extend(times)
        traced_datasets += len(times) if traced else 0
        rounds += 1
    elapsed = time.perf_counter() - start
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if not args.trace:
        setup_times += measure_setup()

    print(f"{args.workload}: {rounds} rounds, {workload.attempted} operations attempted, "
          f"{workload.failed} failed, {elapsed:.1f} s")
    checks = Checks()
    curve_mse = workload.check(checks)

    if args.trace:
        tracer.dump(out / "trace.json")
        layers = spans.layer_metrics(tracer.spans, traced_datasets)
        layers["trace.overhead_s"] = (
            statistics.median(op_times[True]) - statistics.median(op_times[False]), "s")
        layers["curve_mse"] = (curve_mse, "1")
        metrics = layers
    else:
        metrics = {
            "setup_s": (statistics.median(setup_times), "s"),
            "fit_cv_s": (statistics.median(op_times[False]), "s"),
            "mc_reps_per_s": (statistics.median(round_rates), "1/s"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
        }
    for name, (value, unit) in metrics.items():
        print(f"  {name} = {value:.6g} {unit}")
    return {
        "correct": checks.ok,
        "attempted": workload.attempted,
        "failed": workload.failed,
        "metrics": {name: {"value": float(value), "unit": unit} for name, (value, unit) in metrics.items()},
    }


# ---------------------------------------------------------------------------
# layer sweep
# ---------------------------------------------------------------------------

SWEEP_SIZES = (200, 500, 1000, 2000)
SWEEP_TILT_MAX_N = 500   # the barrier tilt grows as n^3 per Newton step; larger n is not timed


def sweep() -> str:
    """Time each layer once per size on one g1 draw; returns a markdown table."""
    ivs = import_package()
    spec = ivs.KernelSpec()
    rows = []
    for n in SWEEP_SIZES:
        y, z, w = draw_design(n, derive(0, 7, n), g1)
        ds = ivs.Dataset(y=y, z=z, w=w)
        cells = {}

        def timed(key, fn, *a, **kw):
            t0 = time.perf_counter()
            value = fn(*a, **kw)
            cells[key] = time.perf_counter() - t0
            return value

        timed("weight matrix", ivs.build_weight_matrix, ds.w, spec)
        timed("design", ivs.build_design, ds.z)
        lam = timed("CV scan", ivs.cross_validate, ds).lambda_star
        timed("fit", ivs.fit, ds, lam)
        path = timed("path init", ivs.PathSolver, ds)
        grid = ivs.default_grid()
        t0 = time.perf_counter()
        for value in grid:
            path.coefficients(value)
        cells["per-lambda solve"] = (time.perf_counter() - t0) / grid.size
        timed("derivative smoother", ivs.derivative_smoother_matrix, ds, lam)
        if n <= SWEEP_TILT_MAX_N:
            tracer = spans.Tracer()
            tracer.install()
            try:
                ivs.fit_monotone(ds, lam)
            finally:
                tracer.uninstall()
            layers = spans.layer_metrics(tracer.spans, 1)
            cells["tilt"] = layers["monotone.tilt_s"][0]
            cells["monotone refit"] = layers["monotone.refit_s"][0]
        cfg = ivs.DgpConfig(n=n, rho_ev=RHO_EV, rho_wz=RHO_WZ, g_id="g1", seed=derive(0, 8, n))
        timed("MC replication", ivs.monte_carlo, cfg, "unconstrained", 2)
        cells["MC replication"] /= 2
        rows.append((n, cells))
        print(f"n={n}: " + ", ".join(f"{k} {v:.4g} s" for k, v in cells.items()), flush=True)

    columns = ["weight matrix", "design", "fit", "path init", "per-lambda solve", "CV scan",
               "derivative smoother", "tilt", "monotone refit", "MC replication"]

    def fmt(v):
        if v is None:
            return "—"
        return f"{v * 1e3:.3g} ms" if v < 1 else f"{v:.3g} s"

    lines = ["| n | " + " | ".join(columns) + " |", "|---" * (len(columns) + 1) + "|"]
    for n, cells in rows:
        lines.append(f"| {n} | " + " | ".join(fmt(cells.get(c)) for c in columns) + " |")
    lines.append("")
    lines.append(f"{NPROC} cores, BLAS threads {os.environ['OPENBLAS_NUM_THREADS']}, {blas_name()}, numpy {np.__version__}, "
                 f"scipy {scipy.__version__}, Python {platform.python_version()}")
    return "\n".join(lines)


def blas_name() -> str:
    info = np.show_config(mode="dicts")
    blas = info.get("Build Dependencies", {}).get("blas", {})
    return f"{blas.get('name', 'unknown BLAS')} {blas.get('version', '')}".strip()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--sweep", action="store_true", help="time each layer at n = 200 ... 2000")
    args = parser.parse_args(argv)
    try:
        if args.sweep:
            print(sweep())
            return 0
        if args.workload is None:
            parser.error("--workload is required")
        result = run(args)
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
