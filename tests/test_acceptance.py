"""End-to-end acceptance suite.

One test per criterion, each printing a single pass/fail line (visible with
pytest -s or in captured output).  The Monte Carlo criteria run at reduced
replication counts and take a few minutes combined.
"""

import warnings

import numpy as np
import pytest
from scipy.optimize import minimize

import ivspline as ivs
from conftest import (
    constraint_residual,
    criterion_quadrature_oracle,
    cubic_design,
    fitted_values,
    qp_oracle,
    random_instance,
    roughness_exact_integral,
    separated_instance,
    weight_values,
    wiggly_instance,
)

# fits produced while checking criteria 3-5, re-examined by criterion 6
_IDENTITY_REGISTRY = []


def _report(criterion, ok, detail):
    print(f"\n[criterion {criterion}] {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, f"criterion {criterion}: {detail}"


def test_criterion_1_table_spot_check():
    # g1, n=200, rho=(0.5, 0.9), 200 replications (reduced from 2000):
    # Bias^2 <= 0.01, Var and MSE in [0.04, 0.10]
    cfg = ivs.DgpConfig(n=200, rho_ev=0.5, rho_wz=0.9, g_id="g1", seed=20260808)
    report = ivs.monte_carlo(cfg, "unconstrained", 200, cv=ivs.CvConfig(seed=101))
    ok = (
        report.bias_sq <= 0.01
        and 0.04 <= report.variance <= 0.10
        and 0.04 <= report.mse <= 0.10
    )
    _report(
        1, ok,
        f"bias_sq={report.bias_sq:.4f} (<=0.01), var={report.variance:.4f}, "
        f"mse={report.mse:.4f} (both in [0.04, 0.10]), failures={report.failures}",
    )


def test_criterion_2_monotonicity_gain():
    # g3, n=200, rho=(0.5, 0.9), 200 replications: constrained variance at
    # most 0.75x unconstrained, constrained Bias^2 <= 0.01
    cfg = ivs.DgpConfig(n=200, rho_ev=0.5, rho_wz=0.9, g_id="g3", seed=20260809)
    cv = ivs.CvConfig(seed=202)
    unconstrained = ivs.monte_carlo(cfg, "unconstrained", 200, cv=cv)
    constrained = ivs.monte_carlo(cfg, "constrained", 200, cv=cv)
    ratio = constrained.variance / unconstrained.variance
    ok = ratio <= 0.75 and constrained.bias_sq <= 0.01
    _report(
        2, ok,
        f"constrained var={constrained.variance:.4f} vs unconstrained "
        f"{unconstrained.variance:.4f} (ratio {ratio:.3f} <= 0.75), "
        f"constrained bias_sq={constrained.bias_sq:.4f} (<=0.01), "
        f"failures={unconstrained.failures}+{constrained.failures}",
    )


def test_criterion_3_oracle_equivalence():
    # 20 random n=8 instances: penalized objective matches the direct
    # first-order-system oracle to 1e-6 relative
    rng = np.random.default_rng(33)
    worst = 0.0
    for trial in range(20):
        ds = random_instance(300 + trial, n=8)
        lam = 10 ** rng.uniform(-3, 0.5)
        fit = ivs.fit(ds, lam)
        _, _, oracle_objective = qp_oracle(ds, lam)
        rel = abs(fit.diagnostics["objective"] - oracle_objective) / abs(oracle_objective)
        worst = max(worst, rel)
        _IDENTITY_REGISTRY.append((ds, fit))
    _report(3, worst <= 1e-6, f"worst objective rel diff {worst:.2e} (<=1e-6, 20 instances)")


def test_criterion_4_closed_form_cross_check():
    # 50 random instances, n in 5..40: hat-matrix fitted values vs block
    # solve to 1e-8 relative
    rng = np.random.default_rng(44)
    worst = 0.0
    for trial in range(50):
        n = int(rng.integers(5, 41))
        ds = random_instance(400 + trial, n=n)
        lam = 10 ** rng.uniform(-3, 1)
        fit = ivs.fit(ds, lam)
        block_path = ivs.build_design(ds.z) @ fit.a + cubic_design(ds.z) @ fit.delta
        closed_path = fitted_values(ds, lam)
        rel = np.abs(closed_path - block_path).max() / (1 + np.abs(block_path).max())
        worst = max(worst, rel)
        if trial % 10 == 0:
            _IDENTITY_REGISTRY.append((ds, fit))
    _report(4, worst <= 1e-8, f"worst fitted-value rel diff {worst:.2e} (<=1e-8, 50 instances)")


def test_criterion_5_limit_behavior():
    # 10 random n=10 instances: lambda=1e-10 interpolates to 1e-4*scale;
    # lambda=1e10 reproduces the weighted linear fit
    worst_interp, worst_delta, worst_slope = 0.0, 0.0, 0.0
    for trial in range(10):
        ds = separated_instance(500 + trial, n=10)
        small = ivs.fit(ds, 1e-10)
        fitted = ivs.evaluate(small, ds.z)
        scale = max(1.0, np.abs(ds.y).max())
        worst_interp = max(worst_interp, np.abs(fitted - ds.y).max() / scale)
        _IDENTITY_REGISTRY.append((ds, small))

        big = ivs.fit(ds, 1e10)
        om = ivs.build_weight_matrix(ds.w, ivs.KernelSpec())
        zlin = np.column_stack([np.ones(ds.n), ds.z])
        omega = weight_values(om)
        a_wls = np.linalg.solve(zlin.T @ omega @ zlin, zlin.T @ omega @ ds.y)
        worst_delta = max(worst_delta, np.linalg.norm(big.delta) / np.linalg.norm(ds.y))
        worst_slope = max(worst_slope, np.abs(big.a - a_wls).max())
        _IDENTITY_REGISTRY.append((ds, big))
    ok = worst_interp <= 1e-4 and worst_delta <= 1e-6 and worst_slope <= 1e-4
    _report(
        5, ok,
        f"interpolation rel err {worst_interp:.2e} (<=1e-4), "
        f"|delta|/|y| at 1e10 {worst_delta:.2e} (<=1e-6), "
        f"weighted-linear coef err {worst_slope:.2e} (<=1e-4)",
    )


def test_criterion_6_spline_identity_suite():
    # every fit produced in criteria 3-5: naturality, constraint residuals,
    # roughness identity, derivative vs finite differences
    assert _IDENTITY_REGISTRY, "criteria 3-5 must run first"
    rng = np.random.default_rng(66)
    worst = {"naturality": 0.0, "constraint": 0.0, "roughness": 0.0, "derivative": 0.0}
    for ds, fit in _IDENTITY_REGISTRY:
        lo, hi = fit.knots.min(), fit.knots.max()
        span = hi - lo
        outside = np.concatenate([lo - span * np.array([0.1, 0.5, 1.0]),
                                  hi + span * np.array([0.1, 0.5, 1.0])])
        nat_scale = 1 + np.abs(fit.delta).sum() * (1 + np.abs(outside).max() + np.abs(fit.knots).max())
        worst["naturality"] = max(
            worst["naturality"],
            np.abs(ivs.evaluate_second_derivative(fit, outside)).max() / nat_scale,
        )

        c_scale = 1 + np.linalg.norm(fit.delta, 1) * np.abs(fit.knots).max()
        worst["constraint"] = max(worst["constraint"], constraint_residual(fit) / c_scale)

        quad_form = ivs.roughness(fit)
        exact = roughness_exact_integral(fit)
        if exact > 1e-12:
            worst["roughness"] = max(worst["roughness"], abs(quad_form - exact) / exact)

        pts = rng.uniform(lo, hi, 10)
        h = 1e-5 * max(1.0, span)
        fd = (ivs.evaluate(fit, pts + h) - ivs.evaluate(fit, pts - h)) / (2 * h)
        exact_d = ivs.evaluate_derivative(fit, pts)
        worst["derivative"] = max(
            worst["derivative"],
            (np.abs(exact_d - fd) / (1 + np.abs(exact_d))).max(),
        )
    ok = (
        worst["naturality"] <= 1e-10
        and worst["constraint"] <= 1e-8
        and worst["roughness"] <= 1e-10
        and worst["derivative"] <= 1e-5
    )
    _report(
        6, ok,
        f"{len(_IDENTITY_REGISTRY)} fits: naturality {worst['naturality']:.2e} (<=1e-10), "
        f"constraints {worst['constraint']:.2e} (<=1e-8), "
        f"roughness {worst['roughness']:.2e} (<=1e-10 rel), "
        f"derivative-vs-FD {worst['derivative']:.2e} (<=1e-5)",
    )


def test_criterion_7_criterion_quadrature_agreement():
    # 10 random n=5 instances, scalar instruments: the V-statistic equals
    # the integral form evaluated by adaptive quadrature, to 1e-6 relative
    rng = np.random.default_rng(77)
    worst = 0.0
    for _ in range(10):
        w = rng.standard_normal(5)
        r = rng.standard_normal(5)
        om = ivs.build_weight_matrix(w.reshape(-1, 1), ivs.KernelSpec(standardize=False))
        value = ivs.moment_criterion(r, om)
        oracle = criterion_quadrature_oracle(r, w)
        worst = max(worst, abs(value - oracle) / abs(oracle))
    _report(7, worst <= 1e-6, f"worst V-statistic vs quadrature rel diff {worst:.2e} (<=1e-6)")


def test_criterion_8_monotone_solver_correctness():
    # uniform fixed point when constraints are inactive; on active n<=8
    # instances the objective is within 1e-8 of sampling and generic-solver
    # oracles; output knot derivatives feasible to -1e-7 slack
    rng = np.random.default_rng(88)
    lin_z = np.linspace(-1, 1, 8) + rng.uniform(-0.05, 0.05, 8)
    ds_lin = ivs.Dataset(y=1 + 2 * lin_z, z=lin_z, w=lin_z + 0.3 * rng.standard_normal(8))
    uniform = ivs.tilt(ds_lin, 0.2)
    uniform_err = np.abs(uniform.p - 1.0 / 8).max()

    worst_gap, worst_slack, n_active = 0.0, 0.0, 0
    for seed in (1, 2, 33):
        ds = wiggly_instance(seed, n=8)
        lam = 0.05
        weights = ivs.tilt(ds, lam)
        if not len(weights.active_constraints):
            continue
        n_active += 1
        smoother = ivs.derivative_smoother_matrix(ds, lam)
        gain = smoother * ds.y[None, :]

        sampled = []
        sampler = np.random.default_rng(seed)
        while len(sampled) < 50:
            cand = sampler.dirichlet(0.5 + 2 * sampler.random(8))
            if np.all(gain @ cand >= 0):
                sampled.append(8 - np.sum(np.sqrt(8 * cand)))
        oracle = min(sampled)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            for s0 in range(5):
                start = np.random.default_rng(s0).dirichlet(np.ones(8))
                res = minimize(
                    lambda p: 8 - np.sum(np.sqrt(np.maximum(8 * p, 0.0))),
                    start, method="SLSQP", bounds=[(1e-12, 1.0)] * 8,
                    constraints=[
                        {"type": "eq", "fun": lambda p: p.sum() - 1.0},
                        {"type": "ineq", "fun": lambda p: gain @ p},
                    ],
                    options={"maxiter": 2000, "ftol": 1e-16},
                )
                if res.success:
                    oracle = min(oracle, res.fun)
        worst_gap = max(worst_gap, weights.objective - oracle)

        refit = ivs.fit_monotone(ds, lam)
        deriv = ivs.evaluate_derivative(refit, refit.knots)
        worst_slack = min(worst_slack, deriv.min() / (1 + np.abs(deriv).max()))
    ok = uniform_err <= 1e-6 and n_active == 3 and worst_gap <= 1e-8 and worst_slack >= -1e-7
    _report(
        8, ok,
        f"uniform fixed point err {uniform_err:.2e} (<=1e-6), "
        f"objective-minus-oracle {worst_gap:.2e} (<=1e-8, {n_active} active instances), "
        f"worst derivative slack {worst_slack:.2e} (>=-1e-7)",
    )


def test_criterion_9_dgp_fidelity():
    # Var(Z), Var(eps) within 3 SE of 1 and corr(W, Z) within 3 SE of the
    # instrument-strength parameter at n = 1e5, three parameter pairs
    n = 100_000
    worst_var, worst_corr = 0.0, 0.0
    for rho_ev, rho_wz in [(0.5, 0.9), (0.8, 0.7), (0.3, 0.5)]:
        cfg = ivs.DgpConfig(n=n, rho_ev=rho_ev, rho_wz=rho_wz, g_id="g1", seed=909)
        out = ivs.generate(cfg)
        three_se_var = 3 * np.sqrt(2.0 / n)
        worst_var = max(
            worst_var,
            abs(out["dataset"].z.var() - 1.0) / three_se_var,
            abs(out["epsilon"].var() - 1.0) / three_se_var,
        )
        corr = np.corrcoef(out["dataset"].w[:, 0], out["dataset"].z)[0, 1]
        worst_corr = max(worst_corr, abs(corr - rho_wz) / (3 * (1 - rho_wz**2) / np.sqrt(n)))
    ok = worst_var <= 1.0 and worst_corr <= 1.0
    _report(
        9, ok,
        f"worst variance deviation {worst_var:.2f} x 3SE, "
        f"worst correlation deviation {worst_corr:.2f} x 3SE (both <= 1)",
    )


def test_rate_smoke_mse_decreases_with_n():
    # asymptotic-rate smoke check: grid-averaged MSE at n=400 is below the
    # MSE at n=100 for the first test curve over 100 replications
    cv = ivs.CvConfig(seed=55)
    small = ivs.monte_carlo(
        ivs.DgpConfig(n=100, rho_ev=0.5, rho_wz=0.9, g_id="g1", seed=606), "unconstrained", 100, cv=cv
    )
    large = ivs.monte_carlo(
        ivs.DgpConfig(n=400, rho_ev=0.5, rho_wz=0.9, g_id="g1", seed=606), "unconstrained", 100, cv=cv
    )
    ok = large.mse < small.mse
    _report(
        "rate-smoke", ok,
        f"mse(n=400)={large.mse:.4f} < mse(n=100)={small.mse:.4f}",
    )
