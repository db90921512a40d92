"""Data-generating processes and the Monte Carlo bias/variance/MSE harness.

The design draws (W, V, eta) as independent standard Gaussians and sets

    Z = (beta W + V) / sqrt(1 + beta^2),   beta = sqrt(r_wz^2 / (1 - r_wz^2)),
    eps = (a V + eta) / sqrt(1 + a^2),     a = sqrt(r_ev^2 / (1 - r_ev^2)),
    Y = g(Z) + eps,

so Z and eps are standard Gaussian marginally for any parameter values,
corr(W, Z) = r_wz measures instrument strength, and corr(eps, V) = r_ev the
endogeneity level.  Three test curves are available; the first two are
normalized to unit variance against a standard Gaussian regressor.
"""

from __future__ import annotations

import functools
from collections import Counter
from dataclasses import dataclass, field, replace

import numpy as np

from ._workers import _map
from .datamodel import Dataset, _write_table
from .errors import IvsplineError, SizeError
from .monotone import MonotoneDirection
from .selection import CvConfig, _fit_selected
from .solver import fit  # noqa: F401  (simlab.fit is read by bench/test_bench.py)
from .spline import evaluate

GRID_POINTS = 100
GRID_LO, GRID_HI = -2.0, 2.0
MAX_FAILURE_SHARE = 0.05

_G3_COEF = np.sqrt(10.0 / 3.0)


def evaluation_grid() -> np.ndarray:
    """The fixed reporting grid: 100 equidistant points on [-2, 2]."""
    return np.linspace(GRID_LO, GRID_HI, GRID_POINTS)


@dataclass(frozen=True)
class DgpConfig:
    n: int
    rho_ev: float
    rho_wz: float
    g_id: str = "g1"
    seed: int = 0

    def __post_init__(self):
        if not isinstance(self.n, (int, np.integer)) or self.n < 3:
            raise ValueError(f"n must be an integer of at least 3, got {self.n!r}")
        if not isinstance(self.seed, (int, np.integer)) or self.seed < 0:
            raise ValueError(f"seed must be a non-negative integer, got {self.seed!r}")
        for name, rho in (("rho_ev", self.rho_ev), ("rho_wz", self.rho_wz)):
            if not (np.isfinite(rho) and abs(rho) < 1.0):
                raise ValueError(f"{name} must lie strictly inside (-1, 1), got {rho}")
        if self.g_id not in ("g1", "g2", "g3"):
            raise ValueError(f"g_id must be one of g1, g2, g3, got {self.g_id!r}")


def true_function(g_id: str, z):
    """Evaluate the chosen test curve at z (scalar or array).

    g1: z^2 / sqrt(2)                        (even, unit variance under N(0,1))
    g2: sqrt(3 sqrt(3)) z exp(-z^2 / 2)      (odd, unit variance under N(0,1))
    g3: (sqrt(10/3) log(|z-1|+1) sign(z-1) - 0.6 z + 2 z^3) / 8   (strictly increasing)
    """
    z = np.asarray(z, dtype=float)
    if g_id == "g1":
        return z**2 / np.sqrt(2.0)
    if g_id == "g2":
        return np.sqrt(3.0 * np.sqrt(3.0)) * z * np.exp(-(z**2) / 2.0)
    if g_id == "g3":
        s = np.where(z >= 1.0, 1.0, -1.0)
        return (_G3_COEF * np.log(np.abs(z - 1.0) + 1.0) * s - 0.6 * z + 2.0 * z**3) / 8.0
    raise ValueError(f"unknown test curve {g_id!r}")


def generate(cfg: DgpConfig, rng: np.random.Generator | None = None) -> dict:
    """Draw one sample; returns {'dataset', 'epsilon', 'truth'} with truth = g(Z)."""
    if rng is None:
        rng = np.random.default_rng(cfg.seed)
    w = rng.standard_normal(cfg.n)
    v = rng.standard_normal(cfg.n)
    eta = rng.standard_normal(cfg.n)
    a = np.sqrt(cfg.rho_ev**2 / (1.0 - cfg.rho_ev**2))
    beta = np.sqrt(cfg.rho_wz**2 / (1.0 - cfg.rho_wz**2))
    eps = (a * v + eta) / np.sqrt(1.0 + a**2)
    z = (beta * w + v) / np.sqrt(1.0 + beta**2)
    truth = true_function(cfg.g_id, z)
    dataset = Dataset(y=truth + eps, z=z, w=w.reshape(-1, 1))
    return {"dataset": dataset, "epsilon": eps, "truth": truth}


@dataclass(frozen=True)
class McReport:
    """Grid-averaged squared bias, variance, and MSE plus the pointwise curves.

    The across-replication variance uses the 1/R divisor so that
    mse = bias_sq + variance holds exactly, pointwise, before grid averaging.
    """

    grid: np.ndarray
    bias_sq: float
    variance: float
    mse: float
    per_point: dict = field(repr=False)
    replications: int
    estimator_tag: str
    lambda_stars: np.ndarray = field(repr=False)  # per requested replication; NaN if failed
    failures: int = 0
    failure_types: dict = field(default_factory=dict)  # exception class name -> count


def _rep_rng(master_seed: int, rep: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(entropy=master_seed, spawn_key=(rep, 0)))


def _rep_cv_seed(cv_seed: int, rep: int) -> int:
    return int(np.random.SeedSequence(entropy=cv_seed, spawn_key=(rep, 1)).generate_state(1)[0])


def _fit_on_grid(ds: Dataset, grid, cv: CvConfig, rep: int, constrained: bool) -> tuple[np.ndarray, float]:
    """Fitted grid values and the selected lambda; the constrained fit is increasing."""
    rep_cv = replace(cv, seed=_rep_cv_seed(cv.seed, rep))
    model, result = _fit_selected(ds, rep_cv, MonotoneDirection.INCREASING if constrained else None)
    return evaluate(model, grid), result.lambda_star


def _replicate(cfg: DgpConfig, constrained: bool, cv: CvConfig, grid: np.ndarray,
               rep: int) -> tuple[np.ndarray | None, float, str | None]:
    """Replication ``rep``: its grid values (None if the fit failed), lambda* and failure type name."""
    ds = generate(cfg, _rep_rng(cfg.seed, rep))["dataset"]
    try:
        curve, lambda_star = _fit_on_grid(ds, grid, cv, rep, constrained)
        return curve, lambda_star, None
    except (IvsplineError, np.linalg.LinAlgError) as exc:
        return None, np.nan, type(exc).__name__


def monte_carlo(
    cfg: DgpConfig,
    estimator,
    replications: int,
    cv: CvConfig = CvConfig(),
) -> McReport:
    """Replicate the draw/select/fit/evaluate pipeline and aggregate grid errors.

    ``estimator`` is "unconstrained" or "constrained" (monotone increasing,
    the shape of the one monotone test curve, g3).  Per-replication RNG
    streams are split off the master seed by a counter key, so results are
    reproducible regardless of execution order.
    Replication-level fit failures are excluded and counted, by exception
    type in ``failure_types``; more than 5% failures aborts the report.

    The replications run in forked child processes, one per usable core, at
    one BLAS thread each: child k of w runs replications k, k + w, and so on.
    Results are gathered by index, so the report is bit-identical to a run in
    this process, where the replications run without ``os.fork`` or without
    an OpenBLAS thread setter under numpy's and scipy's BLAS.
    """
    if not isinstance(replications, (int, np.integer)) or replications < 2:
        raise ValueError(f"replications must be an integer of at least 2, got {replications!r}")
    if estimator not in ("unconstrained", "constrained"):
        raise ValueError(f"unknown estimator {estimator!r}")
    if cfg.n < 3 * cv.folds:
        raise SizeError(
            f"cross-validation with {cv.folds} folds needs at least {3 * cv.folds} rows, got n = {cfg.n}"
        )
    grid = evaluation_grid()
    truth = true_function(cfg.g_id, grid)

    replicate = functools.partial(_replicate, cfg, estimator == "constrained", cv, grid)
    results = _map(replicate, replications)

    curves = np.empty((replications, grid.size))
    lambda_stars = np.full(replications, np.nan)
    ok = np.ones(replications, dtype=bool)
    failure_types: Counter[str] = Counter()
    for rep, (curve, lambda_star, failure) in enumerate(results):
        lambda_stars[rep] = lambda_star
        if failure is None:
            curves[rep] = curve
        else:
            ok[rep] = False
            failure_types[failure] += 1

    failures = int((~ok).sum())
    if failures > MAX_FAILURE_SHARE * replications:
        raise IvsplineError(
            f"{failures}/{replications} replications failed (> {MAX_FAILURE_SHARE:.0%}): "
            f"{dict(failure_types)}"
        )
    kept = curves[ok]
    mean_curve = kept.mean(axis=0)
    bias_sq_point = (mean_curve - truth) ** 2
    var_point = ((kept - mean_curve) ** 2).mean(axis=0)
    mse_point = bias_sq_point + var_point
    return McReport(
        grid=grid,
        bias_sq=float(bias_sq_point.mean()),
        variance=float(var_point.mean()),
        mse=float(mse_point.mean()),
        per_point={
            "bias_sq": bias_sq_point,
            "variance": var_point,
            "mse": mse_point,
            "mean_curve": mean_curve,
            "truth": truth,
        },
        replications=int(ok.sum()),
        estimator_tag=estimator,
        failures=failures,
        failure_types=dict(sorted(failure_types.items())),
        lambda_stars=lambda_stars,
    )


def write_report_csv(report: McReport, path) -> None:
    """Per-grid-point rows under header z,bias_sq,variance,mse plus a summary row tagged ALL."""
    pp = report.per_point
    rows = np.column_stack([report.grid, pp["bias_sq"], pp["variance"], pp["mse"]]).tolist()
    rows.append(["ALL", report.bias_sq, report.variance, report.mse])
    _write_table(path, ["z", "bias_sq", "variance", "mse"], rows)
