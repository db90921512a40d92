"""Command-line front end: fit CSV datasets, run simulations, render curve plots.

Exit codes: 0 success, 2 input/schema/flag errors, 3 numerical solver
errors, 4 infeasible monotone tilt.  Every command is deterministic given
its flags and seed; artifacts embed the flags, seed, and library version
needed to regenerate them, and never embed timestamps.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .datamodel import _read_columns, _write_table, load_csv
from .errors import (
    DegenerateInstrumentError,
    InfeasibleConstraintsError,
    IvsplineError,
    ParseError,
    SchemaError,
    SizeError,
)
from .monotone import MonotoneDirection, fit_monotone
from .selection import CvConfig, _fit_selected
from .simlab import DgpConfig, monte_carlo, write_report_csv
from .solver import fit
from .spline import evaluate, evaluate_derivative

CURVE_SAMPLES = 200
CURVE_HEADER = ["z", "ghat", "ghat_prime"]

_INPUT_ERRORS = (SchemaError, ParseError, SizeError, DegenerateInstrumentError, ValueError)

# glibc malloc's mmap threshold: blocks of 4 MiB and more (numpy advises huge
# pages from that size) are mapped on allocation and unmapped on free, and the
# heap is trimmed once 8 MiB of its top is free (twice that, glibc's own ratio);
# and its arena count, held at one
_M_TRIM_THRESHOLD, _M_MMAP_THRESHOLD, _M_ARENA_MAX = -1, -3, -8
_MMAP_THRESHOLD_BYTES = 4 << 20


def _fix_malloc_thresholds() -> None:
    """Keep a command's large arrays off glibc's heap, and its allocations in one arena.

    The settings serve the two routes cross-validation takes.  Where the
    folds run in this process (one usable core, or folds too small for the
    workers), the mmap and trim thresholds keep their n x n matrices off the
    heap, whose free holes depend on where small objects happen to lie; by
    default glibc raises its mmap threshold to the largest mapped block freed
    (up to 32 MiB), and from then on such matrices come from the heap.  On one
    core of a 2-core x86-64 machine the fit-cv benchmark's peak read
    116.8-118.3 MB with the thresholds and 133.8-134.0 MB without, for about
    2% more fit time (fresh pages for every large array).  Where the folds
    run in forked workers the thresholds do not lower the peak (107.5-109.0
    MB without, 109.6-112.9 MB with, on both cores), but the one arena does:
    it keeps the worker pool's result thread, which unpickles the folds'
    predictions (3.2 MB each at n = 2000), on the one trimmed heap; in an
    arena of its own the freed blocks stayed resident, and the peak read
    119.3-119.4 MB instead of 111.3-111.6 MB.  A no-op off Linux or without
    glibc's ``mallopt``.
    """
    if not sys.platform.startswith("linux"):
        return
    mallopt = getattr(ctypes.CDLL(None), "mallopt", None)
    if mallopt is not None:
        mallopt(_M_MMAP_THRESHOLD, _MMAP_THRESHOLD_BYTES)
        mallopt(_M_TRIM_THRESHOLD, 2 * _MMAP_THRESHOLD_BYTES)
        mallopt(_M_ARENA_MAX, 1)


# ---------------------------------------------------------------------------
# structured text documents: indented JSON with shortest round-trip reals
# ---------------------------------------------------------------------------

def write_document(doc: dict, path) -> None:
    # float64 is a float subclass; arrays and other numpy scalars go through tolist()
    text = json.dumps(doc, indent=2, default=lambda value: value.tolist())
    Path(path).write_text(text + "\n", encoding="utf-8")


def read_document(path) -> dict:
    return json.loads(Path(path).read_text(encoding="utf-8"))


# ---------------------------------------------------------------------------
# fit
# ---------------------------------------------------------------------------

def _sample_curve(fit_result) -> dict:
    lo, hi = fit_result.knots.min(), fit_result.knots.max()
    zs = np.linspace(lo, hi, CURVE_SAMPLES)
    return {
        "z": zs,
        "ghat": evaluate(fit_result, zs),
        "ghat_prime": evaluate_derivative(fit_result, zs),
    }


def _write_curve_csv(path, curve: dict) -> None:
    _write_table(path, CURVE_HEADER, np.column_stack([curve[name] for name in CURVE_HEADER]).tolist())


def cmd_fit(args) -> int:
    ds = load_csv(args.input, y=args.y, z=args.z, w=args.w.split(","))
    doc: dict = {
        "format": "ivspline-fit",
        "version": 1,
        "library_version": __version__,
        "provenance": {
            "command": "fit",
            "input": str(args.input),
            "columns": {"y": args.y, "z": args.z, "w": args.w},
            "monotone": args.monotone,
            "seed": args.seed,
        },
        "kernel": {"family": "laplace", "variance": 1.0, "standardize": True},
    }
    direction = None if args.monotone == "none" else MonotoneDirection(args.monotone)
    if args.cv:
        cfg = CvConfig(seed=args.seed)
        model, result = _fit_selected(ds, cfg, direction)
        doc["lambda_selected_by"] = "cv"
        doc["cv"] = {
            "lambda_star": result.lambda_star,
            "lambda_star_index": result.lambda_star_index,
            "boundary_hit": result.boundary_hit,
            "invalid_candidates": result.invalid_candidates,
            "folds": cfg.folds,
            "criterion_weight_matrix": "full-sample",
        }
    else:
        doc["lambda_selected_by"] = "flag"
        if direction is None:
            model = fit(ds, args.lam)
        else:
            model = fit_monotone(ds, args.lam, direction)
    doc["lambda"] = model.lam

    if direction is not None:
        doc["tilt"] = {
            "objective": model.diagnostics["tilt_objective"],
            "kkt_residual": model.diagnostics["tilt_kkt_residual"],
            "active_constraints": model.diagnostics["tilt_active_constraints"],
        }

    doc["a"] = model.a
    doc["delta"] = model.delta
    doc["knots"] = model.knots
    doc["diagnostics"] = {
        key: val for key, val in model.diagnostics.items() if np.isscalar(val)
    }
    curve = _sample_curve(model)
    doc["curve"] = curve
    write_document(doc, args.out)
    if args.grid_out:
        _write_curve_csv(args.grid_out, curve)
    return 0


# ---------------------------------------------------------------------------
# simulate
# ---------------------------------------------------------------------------

def _lambda_star_summary(lambda_stars: np.ndarray, grid: np.ndarray) -> dict:
    """Range and median of the finite selected lambdas, and how many sit on the grid's edge."""
    finite = lambda_stars[np.isfinite(lambda_stars)]
    if not finite.size:
        return dict.fromkeys(("min", "median", "max", "boundary_hits"))
    return {"min": float(finite.min()), "median": float(np.median(finite)), "max": float(finite.max()),
            "boundary_hits": int(np.isin(finite, grid[[0, -1]]).sum())}


def cmd_simulate(args) -> int:
    cfg = DgpConfig(n=args.n, rho_ev=args.rho_ev, rho_wz=args.rho_wz, g_id=f"g{args.g}", seed=args.seed)
    estimator = "constrained" if args.constrained else "unconstrained"
    cv = CvConfig(seed=args.seed)
    report = monte_carlo(cfg, estimator, args.reps, cv=cv)

    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    write_report_csv(report, out_dir / "mcreport.csv")
    write_document(
        {
            "format": "ivspline-mcreport",
            "version": 1,
            "library_version": __version__,
            "provenance": {
                "command": "simulate",
                "g": args.g,
                "n": args.n,
                "rho_ev": args.rho_ev,
                "rho_wz": args.rho_wz,
                "reps": args.reps,
                "seed": args.seed,
                "constrained": bool(args.constrained),
            },
            "estimator": report.estimator_tag,
            "replications": report.replications,
            "failures": report.failures,
            "failure_types": report.failure_types,
            "lambda_star": _lambda_star_summary(report.lambda_stars, cv.grid),
            "variance_divisor": "R",
            "bias_sq": report.bias_sq,
            "variance": report.variance,
            "mse": report.mse,
        },
        out_dir / "summary.json",
    )
    return 0


# ---------------------------------------------------------------------------
# plot
# ---------------------------------------------------------------------------

_PALETTE = ["#1f3b73", "#b0413e", "#3e7748", "#8a5f2b", "#5b4a78", "#3a7b8c"]
_W, _H, _MARGIN = 800.0, 600.0, 70.0


def _read_curve_csv(path) -> tuple[np.ndarray, np.ndarray]:
    zs, gs, _ = _read_columns(path, CURVE_HEADER)
    if not zs.size:
        raise ParseError(f"{path}: no data rows")
    return zs, gs


def _svg_line(x1, y1, x2, y2, color="#444444", width=1.0) -> str:
    return (
        f'<line x1="{x1:.2f}" y1="{y1:.2f}" x2="{x2:.2f}" y2="{y2:.2f}" '
        f'stroke="{color}" stroke-width="{width}" />'
    )


def cmd_plot(args) -> int:
    curves = [(Path(p).stem, *_read_curve_csv(p)) for p in args.curves]
    z_lo = min(c[1].min() for c in curves)
    z_hi = max(c[1].max() for c in curves)
    g_lo = min(c[2].min() for c in curves)
    g_hi = max(c[2].max() for c in curves)
    z_span = (z_hi - z_lo) or 1.0
    g_span = (g_hi - g_lo) or 1.0

    def sx(z):
        return _MARGIN + (z - z_lo) / z_span * (_W - 2 * _MARGIN)

    def sy(g):
        return _H - _MARGIN - (g - g_lo) / g_span * (_H - 2 * _MARGIN)

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_W:.0f}" height="{_H:.0f}" '
        f'viewBox="0 0 {_W:.0f} {_H:.0f}">',
        f'<rect width="{_W:.0f}" height="{_H:.0f}" fill="white" />',
        _svg_line(_MARGIN, _H - _MARGIN, _W - _MARGIN, _H - _MARGIN),
        _svg_line(_MARGIN, _MARGIN, _MARGIN, _H - _MARGIN),
        f'<text x="{_MARGIN:.0f}" y="{_H - _MARGIN + 20:.0f}" font-size="12">{z_lo:.4g}</text>',
        f'<text x="{_W - _MARGIN:.0f}" y="{_H - _MARGIN + 20:.0f}" font-size="12" '
        f'text-anchor="end">{z_hi:.4g}</text>',
        f'<text x="{_MARGIN - 8:.0f}" y="{_H - _MARGIN:.0f}" font-size="12" '
        f'text-anchor="end">{g_lo:.4g}</text>',
        f'<text x="{_MARGIN - 8:.0f}" y="{_MARGIN + 4:.0f}" font-size="12" '
        f'text-anchor="end">{g_hi:.4g}</text>',
    ]
    for k, (name, zs, gs) in enumerate(curves):
        color = _PALETTE[k % len(_PALETTE)]
        points = " ".join(f"{sx(z):.2f},{sy(g):.2f}" for z, g in zip(zs, gs))
        parts.append(
            f'<polyline fill="none" stroke="{color}" stroke-width="1.5" points="{points}" />'
        )
        ly = _MARGIN + 18 * (k + 1)
        parts.append(_svg_line(_W - _MARGIN - 150, ly - 4, _W - _MARGIN - 120, ly - 4, color, 2.0))
        parts.append(
            f'<text x="{_W - _MARGIN - 112:.0f}" y="{ly:.0f}" font-size="12">{name}</text>'
        )
    parts.append("</svg>")
    Path(args.out).write_text("\n".join(parts) + "\n", encoding="utf-8")
    return 0


# ---------------------------------------------------------------------------
# argument parsing and dispatch
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ivspline",
        description="Smoothing-spline instrumental-variable regression toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_fit = sub.add_parser("fit", help="fit a CSV dataset")
    p_fit.add_argument("--input", required=True, help="input CSV path")
    p_fit.add_argument("--y", required=True, help="outcome column name")
    p_fit.add_argument("--z", required=True, help="endogenous regressor column name")
    p_fit.add_argument("--w", required=True, help="instrument column name(s), comma separated")
    group = p_fit.add_mutually_exclusive_group(required=True)
    group.add_argument("--lambda", dest="lam", type=float, help="fixed regularization value")
    group.add_argument("--cv", action="store_true", help="choose lambda by 2-fold cross-validation")
    p_fit.add_argument(
        "--monotone",
        choices=["none", "increasing", "decreasing"],
        default="none",
        help="impose a monotone fit via weight tilting",
    )
    p_fit.add_argument("--seed", type=int, default=0, help="seed for the cross-validation split")
    p_fit.add_argument("--grid-out", default=None, help="curve CSV output path (z,ghat,ghat_prime)")
    p_fit.add_argument("--out", required=True, help="fit artifact output path")
    p_fit.set_defaults(func=cmd_fit)

    p_sim = sub.add_parser("simulate", help="run a Monte Carlo study")
    p_sim.add_argument("--g", type=int, choices=[1, 2, 3], required=True, help="test curve id")
    p_sim.add_argument("--n", type=int, required=True, help="sample size per replication")
    p_sim.add_argument("--rho-ev", type=float, required=True, help="endogeneity level in (-1,1)")
    p_sim.add_argument("--rho-wz", type=float, required=True, help="instrument strength in (-1,1)")
    p_sim.add_argument("--reps", type=int, required=True, help="number of replications")
    p_sim.add_argument("--seed", type=int, default=0)
    p_sim.add_argument("--constrained", action="store_true", help="use the monotone (increasing) estimator")
    p_sim.add_argument("--out-dir", required=True, help="directory for mcreport.csv and summary.json")
    p_sim.set_defaults(func=cmd_simulate)

    p_plot = sub.add_parser("plot", help="render curve CSVs to a single SVG")
    p_plot.add_argument("curves", nargs="+", help="curve CSV file(s)")
    p_plot.add_argument("--out", required=True, help="SVG output path")
    p_plot.set_defaults(func=cmd_plot)

    return parser


def main(argv=None) -> int:
    _fix_malloc_thresholds()
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code is not None else 0
    try:
        return args.func(args)
    except InfeasibleConstraintsError as exc:
        print(f"ivspline: infeasible monotone tilt: {exc}", file=sys.stderr)
        return 4
    except _INPUT_ERRORS as exc:
        print(f"ivspline: input error: {exc}", file=sys.stderr)
        return 2
    except (IvsplineError, np.linalg.LinAlgError) as exc:
        print(f"ivspline: solver error: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"ivspline: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
