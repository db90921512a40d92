"""Tests of the benchmark's own oracle and span bookkeeping.

    PYTHONPATH=src python3 -m pytest -q bench
"""

import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import gform  # noqa: E402
import spans  # noqa: E402


def natural_radial(rng, knots):
    """Random radial coefficients projected onto the natural-spline constraints."""
    c = np.column_stack([np.ones_like(knots), knots])
    delta = rng.standard_normal(knots.size)
    delta -= c @ np.linalg.lstsq(c, delta, rcond=None)[0]
    return np.array([0.3, -0.7]), delta


def exact_roughness(delta, knots):
    """Integral of g''^2 with g'' = (1/2) sum delta_j |x - k_j|, piecewise linear and 0 outside."""
    t = np.sort(knots)
    f = np.abs(t[:, None] - knots[None, :]) @ delta / 2.0
    return float(np.sum(np.diff(t) / 3.0 * (f[:-1] ** 2 + f[:-1] * f[1:] + f[1:] ** 2)))


def small_instance(seed, n=40):
    rng = np.random.default_rng(seed)
    w = rng.standard_normal(n)
    z = 0.8 * w + 0.6 * rng.standard_normal(n)
    return np.sin(2 * z) + 0.3 * rng.standard_normal(n), z, w


def test_reinsch_roughness_matches_exact_integral():
    rng = np.random.default_rng(1)
    knots = rng.uniform(-2, 2, 25)
    a, delta = natural_radial(rng, knots)
    oracle = gform.GForm(np.zeros(25), knots, rng.standard_normal(25))
    values = gform.radial_value(a, delta, knots, oracle.knots)
    assert oracle.roughness_of_values(values) == pytest.approx(exact_roughness(delta, knots), rel=1e-9)
    assert np.abs(oracle.Q.T @ (2.0 + 3.0 * oracle.knots)).max() < 1e-10


def test_third_derivative_pieces_match_sign_sum():
    rng = np.random.default_rng(2)
    knots = rng.uniform(-1, 1, 15)
    delta = rng.standard_normal(15)
    t, pieces = gform.third_derivative_pieces(delta, knots)
    mids = np.concatenate([[t[0] - 1], 0.5 * (t[:-1] + t[1:]), [t[-1] + 1]])
    direct = np.sign(mids[:, None] - knots[None, :]) @ delta / 2.0
    np.testing.assert_allclose(pieces, direct, atol=1e-12)


def test_saddle_solve_is_the_minimum():
    y, z, w = small_instance(3)
    oracle = gform.GForm(y, z, w)
    best = oracle.solve(1e-3)
    assert best["relative_residual"] < 1e-12
    assert oracle.score(best["fitted"], 1e-3) == pytest.approx(best["objective"], rel=1e-9)
    rng = np.random.default_rng(4)
    for _ in range(5):
        assert oracle.score(best["fitted"] + 1e-3 * rng.standard_normal(y.size), 1e-3) > best["objective"]


def test_oracle_agrees_with_package_fit():
    ivs = pytest.importorskip("ivspline")
    y, z, w = small_instance(5)
    for lam in (1e-4, 1e-2):
        fit = ivs.fit(ivs.Dataset(y=y, z=z, w=w), lam)
        best = gform.GForm(y, z, w).solve(lam)
        assert fit.diagnostics["objective"] == pytest.approx(best["objective"], rel=1e-9)
        np.testing.assert_allclose(gform.radial_value(fit.a, fit.delta, fit.knots, z), best["fitted"],
                                   atol=1e-8)


def test_busy_counts_nested_intervals_once():
    assert spans._busy([(0.0, 4.0), (1.0, 2.0), (3.0, 6.0), (8.0, 9.0)]) == pytest.approx(7.0)


def test_layer_metrics_attribute_factorizations_and_self_time():
    # name, parent, start, end, note
    trace = [
        ["simlab.monte_carlo", -1, 0.0, 10.0, None],
        ["simlab.generate", 0, 0.0, 1.0, None],
        ["selection.cross_validate", 0, 1.0, 5.0, (0, 400)],
        ["kernel.build_weight_matrix", 2, 1.0, 2.0, None],
        ["linalg.cholesky", 3, 1.1, 1.2, None],
        ["linalg.cholesky", 3, 1.3, 1.4, None],
        ["solver.path_solve", 2, 2.0, 3.0, True],
        ["solver.path_solve", 2, 3.0, 3.5, False],
        ["simlab.generate", 0, 5.0, 6.0, None],
        ["solver.fit", 0, 6.0, 9.0, None],
        ["linalg.lu_factor", 9, 6.5, 7.0, None],
    ]
    m = {k: v for k, (v, _unit) in spans.layer_metrics(trace, datasets=2).items()}
    assert m["kernel.factorizations"] == 2 and m["kernel.jitter_retries"] == 1
    assert m["solver.factorizations"] == 1
    assert m["kernel.weight_matrix_calls"] == 0.5
    assert m["selection.cv_s"] == pytest.approx(4.0)
    assert m["selection.cv_self_s"] == pytest.approx(1.5)
    assert m["selection.boundary_hits"] == 1
    assert m["solver.path_solve_valid_ratio"] == 0.5
    assert m["simlab.replication_s"] == pytest.approx(5.0)  # 5 s and 5 s


def test_tracer_restores_every_name():
    ivs = pytest.importorskip("ivspline")
    import scipy.linalg

    originals = (ivs.fit, ivs.solver.fit, ivs.simlab.fit, scipy.linalg.lu_factor, ivs.PathSolver.coefficients)
    tracer = spans.Tracer()
    tracer.install()
    try:
        y, z, w = small_instance(6, n=20)
        ivs.fit(ivs.Dataset(y=y, z=z, w=w), 1e-2)
    finally:
        tracer.uninstall()
    names = [s[0] for s in tracer.spans]
    assert names[0] == "solver.fit" and "linalg.lu_factor" in names and "kernel.build_weight_matrix" in names
    assert (ivs.fit, ivs.solver.fit, ivs.simlab.fit, scipy.linalg.lu_factor,
            ivs.PathSolver.coefficients) == originals
