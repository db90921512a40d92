import warnings

import numpy as np
import pytest
from scipy.optimize import minimize

import ivspline as ivs
from ivspline import monotone, solver
from conftest import near_ties, random_instance, wiggly_instance
import tilt_oracle
from tilt_oracle import barrier_tilt

INC = ivs.MonotoneDirection.INCREASING
DEC = ivs.MonotoneDirection.DECREASING


def increasing_dataset(seed=0, n=8):
    rng = np.random.default_rng(seed)
    z = np.linspace(-1, 1, n) + rng.uniform(-0.05, 0.05, n)
    w = z + 0.3 * rng.standard_normal(n)
    return ivs.Dataset(y=1.0 + 2.0 * z, z=z, w=w)


def decreasing_dataset(seed=0, n=6):
    rng = np.random.default_rng(seed)
    z = np.sort(rng.uniform(-1.5, 1.5, n))
    rng.shuffle(z)
    w = z + 0.3 * rng.standard_normal(n)
    return ivs.Dataset(y=-2.0 * z + 0.1 * rng.standard_normal(n), z=z, w=w)


def paper_draw(g_id, seed):
    cfg = ivs.DgpConfig(n=50, rho_ev=0.5, rho_wz=0.9, g_id=g_id, seed=seed)
    return ivs.generate(cfg)["dataset"]


def slsqp_oracle(ds, lam, direction=INC, starts=5):
    """Generic convex-solver oracle on the simplex program, multi-start."""
    smoother = ivs.derivative_smoother_matrix(ds, lam)
    a = direction.sign * smoother * ds.y[None, :]
    n = ds.n
    best = np.inf
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        for s in range(starts):
            p0 = np.random.default_rng(s).dirichlet(np.ones(n))
            res = minimize(
                lambda p: n - np.sum(np.sqrt(np.maximum(n * p, 0.0))),
                p0,
                method="SLSQP",
                bounds=[(1e-12, 1.0)] * n,
                constraints=[
                    {"type": "eq", "fun": lambda p: p.sum() - 1.0},
                    {"type": "ineq", "fun": lambda p: a @ p},
                ],
                options={"maxiter": 2000, "ftol": 1e-16},
            )
            if res.success:
                best = min(best, res.fun)
    return best


class TestDerivativeSmoother:
    def test_exact_linear_maps_to_slope(self):
        ds = increasing_dataset(1)
        smoother = ivs.derivative_smoother_matrix(ds, 0.3)
        assert np.allclose(smoother @ ds.y, 2.0, atol=1e-8)

    def test_matches_pointwise_derivative(self):
        ds = random_instance(2, n=9)
        lam = 0.05
        smoother = ivs.derivative_smoother_matrix(ds, lam)
        fit = ivs.fit(ds, lam)
        assert np.allclose(smoother @ ds.y, ivs.evaluate_derivative(fit, ds.z), atol=1e-9)

    def test_columns_are_unit_vector_responses(self):
        ds = random_instance(3, n=7)
        lam = 0.1
        smoother = ivs.derivative_smoother_matrix(ds, lam)
        for j in (0, 4):
            unit = np.zeros(ds.n)
            unit[j] = 1.0
            fit_j = ivs.fit(ivs.Dataset(y=unit, z=ds.z, w=ds.w), lam)
            assert np.allclose(smoother[:, j], ivs.evaluate_derivative(fit_j, ds.z), atol=1e-9)


    @pytest.mark.parametrize("lam", [1e-5, 1e-2, 2.3])
    def test_reproduces_linear_outcomes_on_rounded_instrument(self, lam):
        # the fit to y = c + s z is exactly the line, so L 1 = 0 and L z = 1;
        # the rounded instrument's 54 groups give a grouped system of condition 1e4-1e9
        ds = ivs.generate(ivs.DgpConfig(n=500, rho_ev=0.5, rho_wz=0.9, g_id="g3", seed=0))["dataset"]
        ds = ivs.Dataset(y=ds.y, z=ds.z, w=np.round(ds.w, 1))
        smoother = ivs.derivative_smoother_matrix(ds, lam)
        scale = np.abs(smoother).max() * max(1.0, np.abs(ds.z).max())
        assert np.abs(smoother @ np.ones(ds.n)).max() <= 1e-10 * scale
        assert np.abs(smoother @ ds.z - 1.0).max() <= 1e-10 * scale

    @pytest.mark.parametrize("lam", [1e-5, 1e-2, 2.3])
    def test_reproduces_linear_outcomes_on_nearly_tied_instrument(self, lam):
        # the same instrument nudged a few ulps apart: no groups, and the
        # jittered bordered system's condition is 1e11-1e18
        ds = ivs.generate(ivs.DgpConfig(n=500, rho_ev=0.5, rho_wz=0.9, g_id="g3", seed=0))["dataset"]
        ds = ivs.Dataset(y=ds.y, z=ds.z, w=near_ties(ds.w))
        smoother = ivs.derivative_smoother_matrix(ds, lam)
        scale = np.abs(smoother).max() * max(1.0, np.abs(ds.z).max())
        assert np.abs(smoother @ np.ones(ds.n)).max() <= 1e-10 * scale
        assert np.abs(smoother @ ds.z - 1.0).max() <= 1e-10 * scale


class TestTilt:
    @staticmethod
    def assert_exactly_uniform(weights, n):
        # the ascent's first polish returns q = 1 with a zero Newton step, so
        # every certificate of the uniform answer is exactly zero
        assert np.all(weights.p == 1.0 / n)
        assert weights.objective == 0.0
        assert weights.kkt_residual == 0.0
        assert weights.diagnostics["duality_gap"] == 0.0
        assert weights.diagnostics["newton_steps"] == 0
        assert weights.diagnostics["working_set"].size == 0
        assert weights.diagnostics["multipliers"].size == 0

    def test_uniform_when_already_monotone(self):
        # a linear outcome, and the stress-grid draw g3/200/1008 at lambda = 1e-3
        draw = ivs.generate(ivs.DgpConfig(n=200, rho_ev=0.5, rho_wz=0.9, g_id="g3", seed=1008))["dataset"]
        for ds, lam in ((increasing_dataset(4), 0.2), (draw, 1e-3)):
            weights = ivs.tilt(ds, lam, direction=INC)
            self.assert_exactly_uniform(weights, ds.n)
            assert len(weights.active_constraints) == 0

    def test_zero_outcomes_give_uniform(self):
        # every constraint row vanishes, so the program has no rows at all
        ds = ivs.Dataset(y=np.zeros(6), z=np.linspace(0, 1, 6), w=np.linspace(0, 1, 6) + 0.1)
        weights = ivs.tilt(ds, 0.1)
        self.assert_exactly_uniform(weights, ds.n)
        assert weights.diagnostics["slack"].size == 0
        assert weights.active_constraints.size == 0

    def test_simplex_membership(self):
        ds = wiggly_instance(1)
        weights = ivs.tilt(ds, 0.05)
        assert np.all(weights.p >= 0)
        assert weights.p.sum() == pytest.approx(1.0, abs=1e-10)

    @pytest.mark.parametrize("seed", [1, 2, 33])
    def test_active_instances_beat_oracles(self, seed):
        ds = wiggly_instance(seed)
        lam = 0.05
        weights = ivs.tilt(ds, lam)
        assert len(weights.active_constraints) > 0
        assert weights.objective > 0
        assert weights.kkt_residual <= 1e-8
        # one-sided dominance over rejection-sampled feasible points
        smoother = ivs.derivative_smoother_matrix(ds, lam)
        a = smoother * ds.y[None, :]
        rng = np.random.default_rng(5)
        sampled = []
        while len(sampled) < 50:
            cand = rng.dirichlet(0.5 + 2 * rng.random(ds.n))
            if np.all(a @ cand >= 0):
                sampled.append(ds.n - np.sum(np.sqrt(ds.n * cand)))
        assert weights.objective <= min(sampled) + 1e-8
        # and against a generic convex solver
        assert weights.objective <= slsqp_oracle(ds, lam) + 1e-8

    def test_four_point_instance_with_violated_knots(self):
        # tiny instance whose unconstrained fit slopes the wrong way at the
        # knots: the optimum must engage at least one constraint
        rng = np.random.default_rng(5)
        z = np.sort(rng.uniform(-1, 1, 4))
        rng.shuffle(z)
        w = z + 0.4 * rng.standard_normal(4)
        y = 0.6 * z + 0.8 * rng.standard_normal(4)
        ds = ivs.Dataset(y=y, z=z, w=w)
        lam = 0.05
        plain_deriv = ivs.evaluate_derivative(ivs.fit(ds, lam), ds.z)
        assert (plain_deriv < 0).any()
        weights = ivs.tilt(ds, lam)
        assert len(weights.active_constraints) >= 1
        assert weights.objective > 0
        assert weights.kkt_residual <= 1e-8
        # dominance over a fine feasible sample of the 3-simplex
        smoother = ivs.derivative_smoother_matrix(ds, lam)
        gain = smoother * ds.y[None, :]
        sampler = np.random.default_rng(0)
        best = np.inf
        count = 0
        while count < 400:
            cand = sampler.dirichlet(0.3 + 2 * sampler.random(4))
            if np.all(gain @ cand >= 0):
                best = min(best, 4 - np.sum(np.sqrt(4 * cand)))
                count += 1
        assert weights.objective <= best + 1e-8

    def test_constraint_slacks_nonnegative(self):
        ds = wiggly_instance(2)
        lam = 0.05
        weights = ivs.tilt(ds, lam)
        smoother = ivs.derivative_smoother_matrix(ds, lam)
        slack = smoother @ (weights.p * ds.y)
        assert slack.min() >= -1e-12

    def test_multi_start_agreement(self):
        # the barrier oracle, started from two random strictly feasible
        # points, reaches the dual solver's weights
        ds = wiggly_instance(1)
        lam = 0.05
        base = ivs.tilt(ds, lam)
        smoother = ivs.derivative_smoother_matrix(ds, lam)
        a = smoother * ds.y[None, :]
        rng = np.random.default_rng(99)
        tried = 0
        while tried < 2:
            cand = rng.dirichlet(np.ones(ds.n))
            if np.all(a @ cand > 0) and np.all(cand > 0):
                other = barrier_tilt(ds, lam, start=cand)
                assert not other.diagnostics["phase1"]
                assert np.abs(other.p - base.p).max() <= 1e-6
                tried += 1

    def test_infeasible_raises_with_worst_constraint(self):
        ds = decreasing_dataset(0)
        with pytest.raises(ivs.InfeasibleConstraintsError) as err:
            ivs.tilt(ds, 0.5, direction=INC)
        assert err.value.worst_constraint is not None
        assert "knot index" in str(err.value)

    def test_n200_agrees_with_barrier_oracle(self):
        # the paper's constrained design at realistic size, where the
        # generic-solver oracle finds no successful start: the barrier path
        # is the reference, at the cross-validated lambda and at the grid's
        # smallest lambda, with the bounds of the n = 8 tests
        with_active = 0
        for seed in range(1, 7):
            cfg = ivs.DgpConfig(n=200, rho_ev=0.5, rho_wz=0.9, g_id="g3", seed=seed)
            ds = ivs.generate(cfg)["dataset"]
            lam_cv = ivs.cross_validate(ds, cfg=ivs.CvConfig(seed=seed)).lambda_star
            for lam in (lam_cv, 1e-5):
                weights = ivs.tilt(ds, lam)
                oracle = barrier_tilt(ds, lam)
                assert list(weights.active_constraints) == list(oracle.active_constraints)
                assert weights.objective <= oracle.objective + 1e-8
                slack = ivs.derivative_smoother_matrix(ds, lam) @ (weights.p * ds.y)
                assert slack.min() >= -1e-12
                assert weights.p.sum() == pytest.approx(1.0, abs=1e-10)
                with_active += len(weights.active_constraints) > 0
        assert with_active >= 10

    def test_direction_parsing(self):
        assert ivs.MonotoneDirection("increasing") is INC
        assert ivs.MonotoneDirection("decreasing") is DEC
        with pytest.raises(ValueError):
            ivs.MonotoneDirection("sideways")

    def test_near_infeasible_program_raises_instead_of_returning(self):
        # the dual ascent converges here to weights with a KKT residual near
        # 1e7; the phase-I program puts the best margin at roundoff level
        ds = paper_draw("g2", 1011)
        with pytest.raises(ivs.InfeasibleConstraintsError) as err:
            ivs.tilt(ds, 1e-5, direction=INC)
        assert err.value.worst_constraint is not None
        assert "phase-I" in str(err.value)

    @pytest.mark.parametrize("steps", [0, 1, 2, 3])
    def test_near_infeasible_verdict_does_not_hinge_on_refinement(self, monkeypatch, steps):
        # the smoother's last digits change with the refinement count, and so
        # does how the ascent fails (line search, or a KKT residual near 1e7);
        # each failure goes to phase-I, whose margin here is 2.2e-12
        monkeypatch.setattr(solver, "REFINE_RTOL", 0.0)
        monkeypatch.setattr(solver, "_REFINEMENT_STEPS", steps)
        ds = paper_draw("g2", 1011)
        with pytest.raises(ivs.InfeasibleConstraintsError, match="phase-I"):
            ivs.tilt(ds, 1e-5, direction=INC)

    def test_feasible_program_the_dual_cannot_certify_stalls(self):
        # feasible at margin 1.2e-6, yet the dual's answer reads a KKT residual
        # near 7e4: a stall, not an answer and not an infeasibility
        ds = paper_draw("g3", 1015)
        a_rows, _ = monotone._normalized_constraints(DEC.sign * ivs.derivative_smoother_matrix(ds, 1e-5) * ds.y)
        margin, _ = monotone._phase_one(a_rows)
        assert margin > 1e-7
        with pytest.raises(ivs.SolverStallError, match="KKT residual"):
            ivs.tilt(ds, 1e-5, direction=DEC)

    @pytest.mark.parametrize("g_id, seed, direction", [("g3", 1015, DEC), ("g2", 1011, INC), ("g2", 1015, DEC)])
    def test_tied_knots_near_the_edge_of_feasibility_fail_typed(self, g_id, seed, direction):
        # z rounded to one decimal ties knots, whose smoother rows and constraint rows
        # coincide; the dual's Newton system can turn singular there, and phase-I
        # then decides the verdict, as for every other uncertified exit
        ds = paper_draw(g_id, seed)
        ds = ivs.Dataset(y=ds.y, z=np.round(ds.z, 1), w=ds.w)
        with pytest.raises((ivs.InfeasibleConstraintsError, ivs.SolverStallError)):
            ivs.tilt(ds, 1e-5, direction=direction)

    def test_barrier_oracle_phase_one_finds_thin_feasible_weights(self):
        # the best margin here, 1.2e-6, is below the phase-I barrier gap at
        # mu = 1e-8; the oracle must keep shrinking mu to see it
        ds = paper_draw("g3", 1015)
        a_rows, kept = tilt_oracle._constraint_rows(ds, 1e-5, DEC)
        q = tilt_oracle._phase_one(a_rows, float(ds.n))
        assert q.min() >= 0.0
        assert q.sum() == pytest.approx(ds.n, rel=1e-12)
        slack = DEC.sign * ivs.derivative_smoother_matrix(ds, 1e-5) @ (q * ds.y)
        assert slack[kept].min() > 0.0
        # the roundoff-margin program stays infeasible for the oracle too
        ds = paper_draw("g2", 1011)
        a_rows, _ = tilt_oracle._constraint_rows(ds, 1e-5, INC)
        with pytest.raises(ivs.InfeasibleConstraintsError):
            tilt_oracle._phase_one(a_rows, float(ds.n))


class TestFitMonotone:
    def test_reports_both_solves(self):
        # the refit's own solve, and the derivative smoother's solve on the same factorization
        ds = ivs.generate(ivs.DgpConfig(n=200, rho_ev=0.5, rho_wz=0.9, g_id="g3", seed=3))["dataset"]
        diagnostics = ivs.fit_monotone(ds, 1e-5, direction=INC).diagnostics
        _, steps, eta = monotone._smoother(solver._Factored(ds, 1e-5))
        assert diagnostics["smoother_refinement_steps"] == steps
        assert diagnostics["smoother_backward_error"] == eta
        assert 0 <= diagnostics["refinement_steps"] <= solver._REFINEMENT_STEPS
        assert 0.0 <= diagnostics["backward_error"] < 1e-14

    def test_uniform_tilt_reproduces_unconstrained_fit(self):
        ds = increasing_dataset(6)
        lam = 0.2
        constrained = ivs.fit_monotone(ds, lam, direction=INC)
        plain = ivs.fit(ds, lam)
        assert np.allclose(constrained.a, plain.a, atol=1e-10)
        assert np.allclose(constrained.delta, plain.delta, atol=1e-10)

    @pytest.mark.parametrize("seed", [1, 2, 33])
    def test_refit_equals_fit_on_tilted_outcomes(self, seed):
        ds = wiggly_instance(seed)
        lam = 0.05
        p = ivs.tilt(ds, lam, direction=INC).p
        assert np.abs(ds.n * p - 1.0).max() > 1e-3  # the weights really moved
        mono = ivs.fit_monotone(ds, lam, direction=INC)
        plain = ivs.fit(ivs.Dataset(y=ds.n * p * ds.y, z=ds.z, w=ds.w), lam)
        assert np.abs(mono.a - plain.a).max() <= 1e-10 * np.abs(plain.a).max()
        assert np.abs(mono.delta - plain.delta).max() <= 1e-10 * np.abs(plain.delta).max()

    @pytest.mark.parametrize("seed", [1, 2, 33])
    def test_knot_derivatives_feasible(self, seed):
        ds = wiggly_instance(seed)
        lam = 0.05
        fit = ivs.fit_monotone(ds, lam, direction=INC)
        deriv = ivs.evaluate_derivative(fit, fit.knots)
        assert deriv.min() >= -1e-7 * (1 + np.abs(deriv).max())

    def test_mirror_symmetry(self):
        ds = wiggly_instance(8)
        lam = 0.05
        inc = ivs.fit_monotone(ds, lam, direction=INC)
        dec = ivs.fit_monotone(ivs.Dataset(y=-ds.y, z=ds.z, w=ds.w), lam, direction=DEC)
        assert np.abs(inc.a + dec.a).max() <= 1e-7
        assert np.abs(inc.delta + dec.delta).max() <= 1e-7 * (1 + np.abs(inc.delta).max())

    def test_decreasing_direction_on_decreasing_data(self):
        ds = decreasing_dataset(3)
        fit = ivs.fit_monotone(ds, 0.3, direction=DEC)
        deriv = ivs.evaluate_derivative(fit, fit.knots)
        assert deriv.max() <= 1e-7 * (1 + np.abs(deriv).max())
