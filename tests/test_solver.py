import tracemalloc
import warnings
import weakref

import numpy as np
import pytest
import scipy.linalg

import ivspline as ivs
from ivspline import monotone, selection, solver, spline
from conftest import (
    build_block_system,
    cubic_design,
    derivative_design,
    fitted_values,
    hat_diagnostics,
    near_ties,
    path_spectrum,
    qp_oracle,
    random_instance,
    separated_instance,
    transformed_system,
    weight_values,
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
        omega = weight_values(om)
        a_wls = np.linalg.solve(zlin.T @ omega @ zlin, zlin.T @ omega @ ds.y)
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

    @pytest.mark.parametrize("case, lam", [
        pytest.param("one instrument", 1e308, id="1"),
        pytest.param("two instruments", 1e308, id="2"),
        pytest.param("overflowing design", 1e-3, id="overflowing-design"),
    ])
    def test_overflowing_lambda_is_a_conditioning_error(self, case, lam):
        # At lam = 1e308 the bordered matrix is numerically singular on the
        # closed-form (1) and dense (2) routes: its condition estimate is
        # non-finite.  With z scaled by 1e103 the cubic design |z_i - z_j|^3
        # overflows and the matrix has non-finite entries.  Either way it is
        # rejected before any solve, without a RuntimeWarning.
        ds = random_instance(6, n=12)
        if case == "two instruments":
            ds = ivs.Dataset(y=ds.y, z=ds.z, w=np.column_stack([ds.w[:, 0], ds.z]))
        elif case == "overflowing design":
            ds = overflowing_draw()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ivs.ConditioningError, match="non-finite") as err:
                ivs.fit(ds, lam)
        assert err.value.condition_estimate == float("inf")

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
        assert np.allclose(closed, ivs.build_design(ds.z) @ a + cubic_design(ds.z) @ delta, atol=1e-8)

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
        tripled = ivs.Dataset(y=3.0 * ds.y, z=ds.z, w=ds.w)
        scaled = ivs.fit(tripled, 0.08)
        assert np.allclose(scaled.a, 3.0 * base.a, rtol=1e-10, atol=1e-12)
        assert np.allclose(scaled.delta, 3.0 * base.delta, rtol=1e-10,
                           atol=1e-10 * np.abs(base.delta).max())
        assert np.allclose(
            fitted_values(tripled, 0.08),
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
        omega = weight_values(ivs.build_weight_matrix(ds.w, ivs.KernelSpec()))
        linear, cubic = ivs.build_design(ds.z), cubic_design(ds.z)

        def objective(delta, a):
            r = ds.y - linear @ a - cubic @ delta
            return r @ omega @ r + lam * delta @ cubic @ delta

        base = objective(fit.delta, fit.a)
        rng = np.random.default_rng(0)
        # null-space projector of the two natural-spline constraints
        q, _ = np.linalg.qr(linear)
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
        from_fit = ivs.build_design(ds.z) @ fit.a + cubic_design(ds.z) @ fit.delta
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
        assert diag["instrument_groups"] == ds.n

    def test_bottom_right_block_is_negative_gram_inverse(self):
        ds = random_instance(21, n=6)
        lam = 0.15
        system = build_block_system(ds, lam)
        dense_inverse = np.linalg.inv(system.kkt)
        linear = ivs.build_design(ds.z)
        gram = linear.T @ np.linalg.solve(system.penalized_cubic, linear)
        assert np.allclose(dense_inverse[ds.n :, ds.n :], -np.linalg.inv(gram), atol=1e-8)

    def test_near_duplicate_instruments_keep_conditioning_bounded(self):
        # two instrument values one ulp apart: not an exact tie, so not grouped, but
        # the factor stops at rank 3; the system in delta = L u never inverts the
        # weight matrix, so its conditioning does not degrade with the near tie
        z = np.array([0.0, 0.5, 1.0, 1.5])
        w = np.array([0.0, 1.0, 1.0 - 2.0**-53, 2.0])
        ds = ivs.Dataset(y=[0.1, 0.4, 0.5, 0.9], z=z, w=w)
        diag = hat_diagnostics(ds, 0.1)
        assert diag["instrument_groups"] == 3
        assert diag["kkt_condition_estimate"] < 1e3


def paper_draw(g_id, n, seed):
    return ivs.generate(ivs.DgpConfig(n=n, rho_ev=0.5, rho_wz=0.9, g_id=g_id, seed=seed))["dataset"]


def overflowing_draw():
    """A g1 draw (n = 60) with z scaled by 1e103, so |z_i - z_j|^3 overflows."""
    ds = paper_draw("g1", 60, seed=0)
    return ivs.Dataset(y=ds.y, z=1e103 * ds.z, w=ds.w)


def smoother_solve(ds, lam):
    return monotone._smoother(solver._Factored(ds, lam))


def derivative_rhs(z):
    """The smoother's right-hand side B' = [D, 1 (0, 1)]', assembled from the dense derivative design."""
    return np.vstack([derivative_design(z).T, np.tile([0.0, 1.0], (z.shape[0], 1)).T])


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

    @pytest.mark.parametrize("lam", [1e-10, 1e-11, 1e-12])
    def test_ill_conditioned_solve_runs_to_the_cap_bit_for_bit(self, monkeypatch, lam):
        # near interpolation the condition reads 3e11-5e13: the rule keeps every
        # correction, and the answer is that of fixed-count refinement
        ds = paper_draw("g1", 500, seed=501)
        smoother, steps, _ = smoother_solve(ds, lam)
        assert steps == solver._REFINEMENT_STEPS
        assert np.array_equal(smoother, self.capped(monkeypatch, lambda: smoother_solve(ds, lam))[0])
        system = solver._Factored(ds, lam)
        rhs = derivative_rhs(ds.z)
        rhs = np.concatenate([system.omega._apply_lt(rhs[: ds.n]), rhs[ds.n :]])
        sol = scipy.linalg.lu_solve(system.lu, rhs, trans=1)
        for _ in range(solver._REFINEMENT_STEPS):
            sol = sol + scipy.linalg.lu_solve(system.lu, system._residual(rhs, sol)[0], trans=1)
        assert np.array_equal(smoother, system.omega._apply_l(sol[:-2]).T)

    @pytest.mark.parametrize("lam", [1e-5, 1e-2])
    def test_near_ties_leave_the_system_well_conditioned(self, lam):
        # nearly tied instruments made the system in delta, whose block held
        # lam Omega^-1, read condition 1e11-1e18; in u, with delta = L u and L of
        # the weight matrix's numerical rank r, it has order r + 2 (56, not 502)
        # and reads below 1e6
        ds = paper_draw("g3", 500, seed=0)
        ds = ivs.Dataset(y=ds.y, z=ds.z, w=near_ties(ds.w))
        system = solver._Factored(ds, lam)
        assert system.lu[0].shape == (system.omega.rank + 2,) * 2 and system.omega.rank < 100
        assert system.condition < 1e7
        assert smoother_solve(ds, lam)[1] == 0

    def test_well_conditioned_solve_stops_before_correcting(self):
        ds = paper_draw("g3", 200, seed=3)
        system = solver._Factored(ds, 1e-5)
        for rhs in (np.concatenate([ds.y, np.zeros(2)]),
                    derivative_rhs(ds.z)):
            delta, _, steps, eta, e_delta = system.solve(rhs)
            assert steps == 0
            assert 0.0 < system.condition * eta <= solver.REFINE_RTOL
            # the residual's E delta comes back for one column only, with the bits of a new product
            if rhs.ndim == 1:
                assert np.array_equal(e_delta, spline._radial_product(ds.z, ds.z, delta))
            else:
                assert e_delta is None

    def test_converged_correction_ends_refinement(self):
        # the unrefined bound misses the tolerance, and one correction below it suffices
        ds = paper_draw("g1", 500, seed=501)
        system = solver._Factored(ds, 1e-8)
        _, steps, eta = monotone._smoother(system)
        assert system.condition * eta > solver.REFINE_RTOL
        assert steps == 1

    @pytest.mark.parametrize("cap", [0, 1, 2, 3])
    def test_forced_step_counts(self, monkeypatch, cap):
        ds = random_instance(4, n=30)
        system = solver._Factored(ds, 1e-3)
        rhs = np.concatenate([ds.y, np.zeros(2)])
        delta, _, steps, eta, e_delta = self.capped(monkeypatch, lambda: system.solve(rhs), cap)
        assert steps == cap
        # the residual of the returned answer is always formed, at a zero cap too
        assert np.array_equal(e_delta, spline._radial_product(ds.z, ds.z, delta))
        assert 0.0 <= eta < 1e-14

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
        q, _ = np.linalg.qr(np.column_stack([np.ones(ds.n), ds.z]))
        basis = np.linalg.svd(np.eye(ds.n) - q @ q.T)[0][:, : ds.n - 2]
        projected = basis.T @ system.penalized_cubic @ basis
        assert np.linalg.eigvalsh(projected).min() > 0


def scalar_draw(n, seed=7):
    """A tie-free scalar instrument: the closed-form weight-matrix route."""
    return paper_draw("g1", n, seed)


def two_instrument_draw(n, seed=7):
    """Two instrument columns: the dense weight-matrix route."""
    ds = paper_draw("g1", n, seed)
    w = np.column_stack([ds.w[:, 0], np.random.default_rng(seed).standard_normal(n)])
    return ivs.Dataset(y=ds.y, z=ds.z, w=w)


def assembled(monkeypatch, ds, lam):
    """The fit at lam, and the bordered matrix the package assembled for it, copied before its LU."""
    matrices = []
    lu_factor = scipy.linalg.lu_factor
    with monkeypatch.context() as patch:
        # the package factors the F-ordered transpose of the matrix in place
        patch.setattr(scipy.linalg, "lu_factor", lambda a, **kw: matrices.append(a.T.copy()) or lu_factor(a, **kw))
        fit = ivs.fit(ds, lam)
    assert len(matrices) == 1
    return fit, matrices[0]


def rounded_draw(n, seed=7):
    """The scalar draw with its instrument rounded to one decimal: the grouped route."""
    ds = paper_draw("g1", n, seed)
    return ivs.Dataset(y=ds.y, z=ds.z, w=np.round(ds.w, 1))


class TestBlockFill:
    """L'EL is written into the bordered matrix by blocks, and matches the dense product."""

    SIZES = [spline._CUBIC_BLOCK - 1, spline._CUBIC_BLOCK, 2 * spline._CUBIC_BLOCK + 3]

    @pytest.mark.parametrize("n", SIZES)
    @pytest.mark.parametrize("draw", [scalar_draw, two_instrument_draw])
    def test_matrix_equals_the_dense_assembly(self, monkeypatch, draw, n):
        # against [[L'EL + lam I, L'Z], [Z'L, 0]] with L from a dense Cholesky
        # factorization of the weight matrix; they differ by a few ulps of the largest entry
        ds = draw(n)
        for lam in (1e-4, 0.3):
            _, kkt = assembled(monkeypatch, ds, lam)
            dense = transformed_system(ds, lam).kkt
            assert kkt.shape == dense.shape == (n + 2, n + 2)
            assert np.abs(kkt - dense).max() <= 1e-13 * np.abs(dense).max()
            assert np.all(kkt[n:, n:] == 0.0)

    @pytest.mark.parametrize("n", SIZES)
    @pytest.mark.parametrize("draw", [scalar_draw, two_instrument_draw])
    def test_fit_equals_a_solve_on_the_dense_assembly(self, draw, n):
        # within the dense solve's own accuracy: condition (at most 2.1e5 here) times roundoff
        ds = draw(n)
        for lam in (1e-4, 0.3):
            fit = ivs.fit(ds, lam)
            dense = transformed_system(ds, lam)
            sol = np.linalg.solve(dense.kkt, dense.rhs)
            delta = dense.factor @ sol[:n]
            assert np.abs(fit.delta - delta).max() <= 1e-10 * np.abs(delta).max()
            assert np.abs(fit.a - sol[n:]).max() <= 1e-10 * np.abs(sol[n:]).max()
            cubic = cubic_design(ds.z)
            assert fit.diagnostics["roughness"] == pytest.approx(fit.delta @ cubic @ fit.delta, rel=1e-13)

    @pytest.mark.parametrize("lam", [1e-4, 0.3])
    def test_grouped_matrix_equals_the_dense_assembly(self, monkeypatch, lam):
        # G'EG of the rounded instrument's groups, summed by the package a block of
        # columns at a time, against the whole dense E and the dense factor L = G Lbar
        ds = rounded_draw(2 * spline._CUBIC_BLOCK + 3)
        m = ivs.build_weight_matrix(ds.w).m
        fit, kkt = assembled(monkeypatch, ds, lam)
        dense = transformed_system(ds, lam)
        assert kkt.shape == dense.kkt.shape == (m + 2, m + 2)
        assert np.abs(kkt - dense.kkt).max() <= 1e-13 * np.abs(dense.kkt).max()
        sol = np.linalg.solve(dense.kkt, dense.rhs)
        delta = dense.factor @ sol[:m]
        assert np.abs(fit.delta - delta).max() <= 1e-10 * np.abs(delta).max()

    @pytest.mark.parametrize("n", [189, 382, 581])
    def test_reformed_rows_equal_the_assembled_matrix(self, monkeypatch, n):
        # the refinement residual forms K x from L, E by row blocks and L', never
        # from the matrix; at sizes off the row blocks of E and of the factor
        # (128 and 32 rows) it equals the assembled matrix's product, for one
        # column and for n, to a few ulps of its scale
        ds = scalar_draw(n)
        rng = np.random.default_rng(n)
        for lam in (1e-4, 0.3):
            _, kkt = assembled(monkeypatch, ds, lam)
            system = solver._Factored(ds, lam)
            zero = np.zeros((n + 2, n + 2))
            product = -system._residual(zero, np.eye(n + 2))[0]
            assert np.abs(product - kkt).max() <= 1e-13 * np.abs(kkt).max()
            for x in (rng.standard_normal(n + 2), np.asfortranarray(rng.standard_normal((n + 2, n)))):
                product = -system._residual(np.zeros(x.shape), x)[0]
                scale = np.abs(kkt).max() * np.abs(x).max() * np.sqrt(n)
                assert np.abs(product - kkt @ x).max() <= 1e-14 * scale

    @pytest.mark.parametrize("n", SIZES)
    def test_blocks_equal_the_dense_designs(self, n):
        z = scalar_draw(n).z
        assert np.array_equal(spline._radial_design(z, 0, np.empty((n, n))), cubic_design(z))
        assert np.array_equal(spline._derivative_rhs(z), derivative_rhs(z))

    def test_block_product_equals_the_dense_product(self):
        z = scalar_draw(2 * spline._CUBIC_BLOCK + 3).z
        v = np.random.default_rng(0).standard_normal(z.shape[0])
        assert np.array_equal(spline._radial_product(z, z, v), cubic_design(z) @ v)


def traced(build):
    """``build()``'s result and the bytes it keeps allocated, by tracemalloc."""
    tracemalloc.start()
    try:
        result = build()
        return result, tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()


class TestMemoryFootprint:
    def test_factored_system_keeps_only_its_lu(self):
        # the matrix is factored in place and the residuals are formed from
        # L, E and L', so the LU is the one (n + 2)^2 array kept
        n = 1000
        ds = scalar_draw(n, seed=11)
        system, kept = traced(lambda: solver._Factored(ds, 1e-3))
        assert not hasattr(system, "kkt")
        assert kept <= (n + 2) ** 2 * 8 + 1e6

    @pytest.mark.parametrize("route", ["closed form", "grouped"])
    def test_factor_and_fit_peak(self, route):
        # L'EL is written straight into the bordered array and transformed in
        # place, so a factor and a fit peak at that one (m + 2)^2 array (8 MB at
        # n = 1000) plus row blocks; the grouped route builds no n x n E
        if route == "closed form":
            ds, bound = scalar_draw(1000, seed=11), 12.5e6
        else:
            ds, bound = paper_draw("g1", 2000, seed=12), 8e6
            ds = ivs.Dataset(y=ds.y, z=ds.z, w=np.round(ds.w, 1))
        tracemalloc.start()
        try:
            solver._Factored(ds, 1e-3).fit(ds.y)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= bound

    def test_grouped_system_keeps_no_n_by_n_array(self):
        # the rounded instrument's (m + 2) system; one 2000 x 2000 matrix would be 32 MB
        ds = paper_draw("g1", 2000, seed=12)
        ds = ivs.Dataset(y=ds.y, z=ds.z, w=np.round(ds.w, 1))
        system, kept = traced(lambda: solver._Factored(ds, 1e-3))
        assert system.omega.m < 100
        assert kept < 1e6

    def test_path_solver_holds_at_most_three_n_by_n_arrays(self):
        # L'EL is built in place around one transposing copy (two arrays), and
        # eigh's peak is S and evd's 2 n^2 workspace
        n = 1000
        ds = scalar_draw(n, seed=11)
        tracemalloc.start()
        try:
            ivs.PathSolver(ds)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 3 * n * n * 8 + 1e6

    def test_cross_validation_holds_one_fold_solver_at_a_time(self, monkeypatch):
        # each fold's solver, with its n_f x n_f map, is freed before the next fold's is built
        live = weakref.WeakSet()
        held = []

        class Tracked(ivs.PathSolver):
            def __init__(self, ds):
                held.append(len(live))
                super().__init__(ds)
                live.add(self)

        monkeypatch.setattr(selection, "PathSolver", Tracked)
        selection._cross_validate(random_instance(3, n=60), ivs.CvConfig(folds=3))
        assert held == [0, 0, 0]

    def test_smoother_keeps_only_its_matrix(self):
        # the derivative right-hand side is freed on return and nothing is
        # cached on the system, so only L (a view of the solution) stays
        system = solver._Factored(paper_draw("g1", 1000, seed=3), 1e-3)
        (smoother, _, _), kept = traced(lambda: monotone._smoother(system))
        assert kept <= smoother.nbytes + 1e6


class TestPathSolver:
    @pytest.mark.parametrize("lam", [1e-5, 1e-2, 0.5, 2.3])
    def test_matches_fit(self, lam):
        ds = random_instance(44, n=14)
        solver = ivs.PathSolver(ds)
        delta, a = solver.coefficients(lam)
        fit = ivs.fit(ds, lam)
        assert np.allclose(a, fit.a, rtol=1e-8, atol=1e-10)
        assert np.allclose(delta, fit.delta, rtol=1e-8, atol=1e-8 * (1 + np.abs(fit.delta).max()))

    @pytest.mark.parametrize("n", [spline._CUBIC_BLOCK + 5, 1000])
    def test_in_place_congruence_equals_the_two_pass_product(self, n):
        # L'EL from E in sorted order, transformed in place by row blocks and then
        # by column blocks, against two passes of L' over the dense E in
        # observation order; they round alike to a few ulps of the largest entry
        ds = scalar_draw(n)
        om = ivs.build_weight_matrix(ds.w)
        in_place = om._congruence(ds.z, np.empty((n, n)))
        two_pass = om._apply_lt(om._apply_lt(cubic_design(ds.z)).T)
        assert np.abs(in_place - two_pass).max() <= 1e-14 * np.abs(two_pass).max()
        assert np.abs(in_place - in_place.T).max() <= 1e-14 * np.abs(two_pass).max()

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

    def test_overflowing_design_is_a_conditioning_error(self):
        # S = L'EL is scanned once for non-finite entries before eigh, which
        # then skips its own check; no RuntimeWarning escapes the overflow
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ivs.ConditioningError, match="non-finite") as err:
                ivs.PathSolver(overflowing_draw())
        assert err.value.condition_estimate == float("inf")

    def test_path_rejects_nonpositive_lambda(self):
        solver = ivs.PathSolver(random_instance(47, n=10))
        for bad in ([0.1, 0.0], [-1.0], [np.nan]):
            with pytest.raises(ValueError):
                solver.path(bad)
