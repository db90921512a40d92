import numpy as np
import pytest
import scipy.linalg

import ivspline as ivs
from ivspline import monotone, solver
from conftest import (
    build_block_system,
    fitted_values,
    hat_diagnostics,
    near_ties,
    path_spectrum,
    qp_oracle,
    random_instance,
    separated_instance,
)


def linear_dataset(seed=0, n=10, intercept=1.0, slope=2.0):
    rng = np.random.default_rng(seed)
    z = np.linspace(-1, 1, n) + rng.uniform(-0.03, 0.03, n)
    w = z + 0.4 * rng.standard_normal(n)
    return ivs.Dataset(y=intercept + slope * z, z=z, w=w)


class TestFit:
    def test_exact_linear_fixed_point(self):
        # linear data have zero roughness and zero criterion at the truth
        ds = linear_dataset(n=3)
        fit = ivs.fit(ds, 0.37)
        assert np.allclose(fit.delta, 0.0, atol=1e-8)
        assert fit.a == pytest.approx([1.0, 2.0], abs=1e-8)

    @pytest.mark.parametrize("lam", [1e-4, 0.1, 50.0])
    def test_exact_linear_any_lambda(self, lam):
        ds = linear_dataset(seed=4, n=8)
        fit = ivs.fit(ds, lam)
        assert np.allclose(fit.delta, 0.0, atol=1e-8)
        assert fit.a == pytest.approx([1.0, 2.0], abs=1e-7)

    def test_huge_lambda_gives_weighted_linear_fit(self):
        ds = separated_instance(2, n=10, noise=0.3)
        om = ivs.build_weight_matrix(ds.w, ivs.KernelSpec())
        zlin = np.column_stack([np.ones(ds.n), ds.z])
        a_wls = np.linalg.solve(zlin.T @ om.values @ zlin, zlin.T @ om.values @ ds.y)
        fit = ivs.fit(ds, 1e10)
        assert np.linalg.norm(fit.delta) <= 1e-6 * np.linalg.norm(ds.y)
        assert np.abs(fit.a - a_wls).max() <= 1e-4

    def test_tiny_lambda_interpolates(self):
        ds = separated_instance(3, n=10)
        fit = ivs.fit(ds, 1e-10)
        scale = max(1.0, np.abs(ds.y).max())
        assert np.abs(ivs.evaluate(fit, ds.z) - ds.y).max() <= 1e-4 * scale

    @pytest.mark.parametrize("seed", range(6))
    def test_matches_qp_oracle(self, seed):
        rng = np.random.default_rng(seed + 100)
        ds = random_instance(seed, n=8)
        lam = 10 ** rng.uniform(-3, 0.5)
        fit = ivs.fit(ds, lam)
        delta, a, objective = qp_oracle(ds, lam)
        assert fit.diagnostics["objective"] == pytest.approx(objective, rel=1e-6)
        assert np.allclose(fit.delta, delta, atol=1e-6 * (1 + np.abs(delta).max()))
        assert np.allclose(fit.a, a, atol=1e-6 * (1 + np.abs(a).max()))

    def test_constraint_residual_bound(self):
        ds = random_instance(9, n=12)
        fit = ivs.fit(ds, 0.05)
        bound = 1e-8 * (1 + np.linalg.norm(fit.delta) * np.linalg.norm(ds.z))
        assert np.abs(np.column_stack([np.ones(ds.n), ds.z]).T @ fit.delta).max() <= bound

    def test_lambda_validation(self):
        ds = random_instance(0)
        for bad in (0.0, -1.0, np.nan):
            with pytest.raises(ValueError):
                ivs.fit(ds, bad)

    def test_collinear_z_rejected(self):
        ds = ivs.Dataset(y=[1, 2, 3], z=[1.0, 1.0, 1.0], w=[[0.1], [0.5], [0.9]])
        with pytest.raises(ivs.CollinearityError):
            ivs.fit(ds, 0.1)

    def test_constant_instrument_rejected_when_standardizing(self):
        ds = ivs.Dataset(y=[1, 2, 3], z=[1, 2, 3], w=[[5.0], [5.0], [5.0]])
        with pytest.raises(ivs.DegenerateInstrumentError):
            ivs.fit(ds, 0.1)

    def test_two_instrument_columns(self):
        # exercises the product weight through the full solve
        rng = np.random.default_rng(77)
        n = 9
        w = rng.standard_normal((n, 2))
        z = 0.6 * w[:, 0] + 0.4 * w[:, 1] + 0.5 * rng.standard_normal(n)
        y = np.sin(2 * z) + 0.3 * rng.standard_normal(n)
        ds = ivs.Dataset(y=y, z=z, w=w)
        lam = 0.08
        fit = ivs.fit(ds, lam)
        delta, a, objective = qp_oracle(ds, lam)
        assert fit.diagnostics["objective"] == pytest.approx(objective, rel=1e-8)
        assert np.allclose(fit.delta, delta, atol=1e-7 * (1 + np.abs(delta).max()))
        closed = fitted_values(ds, lam)
        d = ivs.build_design(ds.z)
        assert np.allclose(closed, d.linear @ a + d.cubic @ delta, atol=1e-8)

    def test_duplicate_z_values_allowed(self):
        ds = ivs.Dataset(y=[1.0, 2.0, 2.1, 3.0], z=[0.0, 1.0, 1.0, 2.0],
                         w=[[0.0], [0.9], [1.1], [2.0]])
        fit = ivs.fit(ds, 0.1)
        assert np.all(np.isfinite(fit.delta))

    def test_determinism_bit_identical(self):
        ds = random_instance(13, n=15)
        f1 = ivs.fit(ds, 0.03)
        f2 = ivs.fit(ds, 0.03)
        assert np.array_equal(f1.delta, f2.delta)
        assert np.array_equal(f1.a, f2.a)

    def test_scaling_equivariance(self):
        ds = random_instance(14, n=12)
        base = ivs.fit(ds, 0.08)
        scaled = ivs.fit(ds.replace_y(3.0 * ds.y), 0.08)
        assert np.allclose(scaled.a, 3.0 * base.a, rtol=1e-10, atol=1e-12)
        assert np.allclose(scaled.delta, 3.0 * base.delta, rtol=1e-10,
                           atol=1e-10 * np.abs(base.delta).max())
        assert np.allclose(
            fitted_values(ds.replace_y(3.0 * ds.y), 0.08),
            3.0 * fitted_values(ds, 0.08),
            rtol=1e-10, atol=1e-12,
        )

    def test_monotone_tradeoff_in_lambda(self):
        ds = random_instance(15, n=12)
        small = ivs.fit(ds, 0.01)
        large = ivs.fit(ds, 0.5)
        assert small.diagnostics["roughness"] >= large.diagnostics["roughness"] - 1e-10
        assert small.diagnostics["criterion"] <= large.diagnostics["criterion"] + 1e-10

    def test_optimality_against_feasible_perturbations(self):
        ds = random_instance(16, n=9)
        lam = 0.1
        fit = ivs.fit(ds, lam)
        om = ivs.build_weight_matrix(ds.w, ivs.KernelSpec())
        d = ivs.build_design(ds.z)

        def objective(delta, a):
            r = ds.y - d.linear @ a - d.cubic @ delta
            return r @ om.values @ r + lam * delta @ d.cubic @ delta

        base = objective(fit.delta, fit.a)
        rng = np.random.default_rng(0)
        # null-space projector of the two natural-spline constraints
        q, _ = np.linalg.qr(d.linear)
        for _ in range(20):
            v = rng.standard_normal(ds.n)
            v -= q @ (q.T @ v)
            u = rng.standard_normal(2)
            for eps in (1e-3, 1e-2):
                assert objective(fit.delta + eps * v, fit.a + eps * u) >= base - 1e-12


class TestFittedValues:
    @pytest.mark.parametrize("seed", range(5))
    def test_two_paths_agree(self, seed):
        rng = np.random.default_rng(seed + 41)
        n = int(rng.integers(5, 41))
        ds = random_instance(seed + 60, n=n)
        lam = 10 ** rng.uniform(-3, 1)
        fit = ivs.fit(ds, lam)
        d = ivs.build_design(ds.z)
        from_fit = d.linear @ fit.a + d.cubic @ fit.delta
        closed = fitted_values(ds, lam)
        assert np.abs(closed - from_fit).max() <= 1e-8 * (1 + np.abs(from_fit).max())

    def test_exact_linear_reproduces_y(self):
        ds = linear_dataset(seed=8, n=7)
        assert np.abs(fitted_values(ds, 0.2) - ds.y).max() <= 1e-9

    def test_near_interpolation_limit(self):
        ds = separated_instance(4, n=5)
        ghat = fitted_values(ds, 1e-10)
        assert np.abs(ghat - ds.y).max() <= 1e-4 * max(1.0, np.abs(ds.y).max())


class TestHatDiagnostics:
    def test_block_inverse_residual_small(self):
        ds = separated_instance(5, n=5)
        diag = hat_diagnostics(ds, 0.1)
        assert diag["block_inverse_check"] < 1e-8
        assert diag["jitter_applied"] == 0.0

    def test_bottom_right_block_is_negative_gram_inverse(self):
        ds = random_instance(21, n=6)
        lam = 0.15
        system = build_block_system(ds, lam)
        dense_inverse = np.linalg.inv(system.kkt)
        d = ivs.build_design(ds.z)
        gram = d.linear.T @ np.linalg.solve(system.penalized_cubic, d.linear)
        assert np.allclose(dense_inverse[ds.n :, ds.n :], -np.linalg.inv(gram), atol=1e-8)

    def test_near_duplicate_instruments_degrade_conditioning(self):
        # two instrument values one ulp apart: not an exact tie, so not grouped
        z = np.array([0.0, 0.5, 1.0, 1.5])
        w = np.array([0.0, 1.0, 1.0 - 2.0**-53, 2.0])
        ds = ivs.Dataset(y=[0.1, 0.4, 0.5, 0.9], z=z, w=w)
        diag = hat_diagnostics(ds, 0.1)
        assert diag["jitter_applied"] > 0
        assert diag["kkt_condition_estimate"] > 1e6


def paper_draw(g_id, n, seed):
    return ivs.generate(ivs.DgpConfig(n=n, rho_ev=0.5, rho_wz=0.9, g_id=g_id, seed=seed))["dataset"]


def smoother_solve(ds, lam):
    return monotone._smoother(solver._Factored(ds, lam))


class TestRefinement:
    """The solve refines until it is accurate to REFINE_RTOL, and at most _REFINEMENT_STEPS times."""

    @staticmethod
    def capped(monkeypatch, fn, steps=solver._REFINEMENT_STEPS):
        # a zero tolerance never stops early, so the solve makes exactly `steps` corrections
        with monkeypatch.context() as patch:
            patch.setattr(solver, "REFINE_RTOL", 0.0)
            patch.setattr(solver, "_REFINEMENT_STEPS", steps)
            return fn()

    @pytest.mark.parametrize("n", [200, 500])
    @pytest.mark.parametrize("g_id", ["g1", "g2", "g3", "g3-rounded"])
    def test_stop_rule_agrees_with_the_capped_solve(self, monkeypatch, g_id, n):
        ds = paper_draw(g_id[:2], n, seed=n + int(g_id[1]))
        if g_id.endswith("rounded"):  # tied instruments: the rule runs on the (m + 2) system
            ds = ivs.Dataset(y=ds.y, z=ds.z, w=np.round(ds.w, 1))
        for lam in (ivs.cross_validate(ds).lambda_star, 1e-2):
            smoother, steps, eta = smoother_solve(ds, lam)
            capped, capped_steps, _ = self.capped(monkeypatch, lambda: smoother_solve(ds, lam))
            assert capped_steps == solver._REFINEMENT_STEPS and 0 <= steps <= capped_steps
            assert np.abs(smoother - capped).max() <= solver.REFINE_RTOL * np.abs(capped).max()
            fit = ivs.fit(ds, lam)
            reference = self.capped(monkeypatch, lambda: ivs.fit(ds, lam))
            for got, want in ((fit.delta, reference.delta), (fit.a, reference.a)):
                assert np.abs(got - want).max() <= solver.REFINE_RTOL * np.abs(want).max()

    @pytest.mark.parametrize("lam", [1e-5, 1e-2, 2.3])
    def test_ill_conditioned_solve_runs_to_the_cap_bit_for_bit(self, monkeypatch, lam):
        # nearly tied instruments give condition 1e11-1e18: the rule keeps every
        # correction, and the answer is that of fixed-count refinement
        ds = paper_draw("g3", 500, seed=0)
        ds = ivs.Dataset(y=ds.y, z=ds.z, w=near_ties(ds.w))
        smoother, steps, _ = smoother_solve(ds, lam)
        assert steps == solver._REFINEMENT_STEPS
        assert np.array_equal(smoother, self.capped(monkeypatch, lambda: smoother_solve(ds, lam))[0])
        system = solver._Factored(ds, lam)
        rhs = np.vstack([system.design.cubic_deriv.T, system.design.linear_deriv.T])
        sol = scipy.linalg.lu_solve(system.lu, rhs)
        for _ in range(solver._REFINEMENT_STEPS):
            sol = sol + scipy.linalg.lu_solve(system.lu, rhs - system.kkt @ sol)
        assert np.array_equal(smoother, sol[: ds.n].T)

    def test_well_conditioned_solve_stops_before_correcting(self):
        ds = paper_draw("g3", 200, seed=3)
        system = solver._Factored(ds, 1e-5)
        for rhs in (np.concatenate([ds.y, np.zeros(2)]),
                    np.vstack([system.design.cubic_deriv.T, system.design.linear_deriv.T])):
            _, steps, eta = system.solve(rhs)
            assert steps == 0
            assert 0.0 < system.condition * eta <= solver.REFINE_RTOL

    def test_converged_correction_ends_refinement(self):
        # the unrefined bound misses the tolerance, and one correction below it suffices
        ds = paper_draw("g1", 500, seed=501)
        system = solver._Factored(ds, 1e-2)
        _, steps, eta = monotone._smoother(system)
        assert system.condition * eta > solver.REFINE_RTOL
        assert steps == 1

    @pytest.mark.parametrize("cap", [0, 1, 2, 3])
    def test_forced_step_counts(self, monkeypatch, cap):
        ds = random_instance(4, n=30)
        system = solver._Factored(ds, 1e-3)
        rhs = np.concatenate([ds.y, np.zeros(2)])
        _, steps, eta = self.capped(monkeypatch, lambda: system.solve(rhs), cap)
        assert steps == cap
        # no residual is formed at a zero cap, so there is no backward error to report
        assert np.isnan(eta) if cap == 0 else 0.0 <= eta < 1e-14

    def test_fit_reports_refinement(self):
        ds = paper_draw("g1", 200, seed=8)
        diagnostics = ivs.fit(ds, 1e-2).diagnostics
        steps, eta = diagnostics["refinement_steps"], diagnostics["backward_error"]
        assert type(steps) is int and 0 <= steps <= solver._REFINEMENT_STEPS
        assert isinstance(eta, float) and 0.0 <= eta < 1e-14
        assert eta == float(f"{eta:.{solver.CONDITION_DIGITS}g}")


class TestBlockSystem:
    def test_shapes_and_symmetry(self):
        ds = random_instance(31, n=7)
        system = build_block_system(ds, 0.3)
        assert system.kkt.shape == (9, 9)
        assert system.rhs.shape == (9,)
        assert np.array_equal(system.penalized_cubic, system.penalized_cubic.T)
        assert np.array_equal(system.rhs[:7], ds.y)
        assert np.all(system.kkt[7:, 7:] == 0.0)

    def test_penalized_block_positive_definite_on_constraint_space(self):
        # the cubic design alone is indefinite; adding the scaled inverse
        # weight matrix makes it definite on the constraint null space
        ds = random_instance(32, n=10)
        system = build_block_system(ds, 0.05)
        d = ivs.build_design(ds.z)
        q, _ = np.linalg.qr(np.column_stack([np.ones(ds.n), ds.z]))
        basis = np.linalg.svd(np.eye(ds.n) - q @ q.T)[0][:, : ds.n - 2]
        projected = basis.T @ system.penalized_cubic @ basis
        assert np.linalg.eigvalsh(projected).min() > 0


class TestPathSolver:
    @pytest.mark.parametrize("lam", [1e-5, 1e-2, 0.5, 2.3])
    def test_matches_fit(self, lam):
        ds = random_instance(44, n=14)
        solver = ivs.PathSolver(ds)
        delta, a = solver.coefficients(lam)
        fit = ivs.fit(ds, lam)
        assert np.allclose(a, fit.a, rtol=1e-8, atol=1e-10)
        assert np.allclose(delta, fit.delta, rtol=1e-8, atol=1e-8 * (1 + np.abs(fit.delta).max()))

    def test_coefficients_is_one_column_of_path(self):
        ds = random_instance(45, n=20)
        solver = ivs.PathSolver(ds)
        grid = ivs.default_grid()[::40]
        delta, a, valid = solver.path(grid)
        assert delta.shape == (20, grid.size) and a.shape == (2, grid.size)
        assert valid.all()
        for g, lam in enumerate(grid):
            d1, a1 = solver.coefficients(lam)
            assert np.allclose(d1, delta[:, g], rtol=1e-12, atol=1e-12 * np.abs(delta[:, g]).max())
            assert np.allclose(a1, a[:, g], rtol=1e-12, atol=1e-12 * np.abs(a[:, g]).max())

    def test_singular_shift_invalid_in_path_and_coefficients(self):
        ds = random_instance(46, n=20)
        spectrum = path_spectrum(ds)
        assert spectrum.min() < 0
        lam = -spectrum.min()
        solver = ivs.PathSolver(ds)
        assert solver.coefficients(lam) is None
        delta, a, valid = solver.path([0.5 * lam, lam, 2.0 * lam])
        assert valid.tolist() == [True, False, True]
        assert np.all(np.isnan(delta[:, 1])) and np.all(np.isnan(a[:, 1]))
        assert np.all(np.isfinite(delta[:, [0, 2]]))

    def test_path_rejects_nonpositive_lambda(self):
        solver = ivs.PathSolver(random_instance(47, n=10))
        for bad in ([0.1, 0.0], [-1.0], [np.nan]):
            with pytest.raises(ValueError):
                solver.path(bad)
