import math

import numpy as np
import pytest

import ivspline as ivs
from conftest import criterion_quadrature_oracle, kernel_weight, random_instance

SQRT2 = math.sqrt(2.0)


class TestKernelWeight:
    def test_mode_univariate(self):
        # Laplace(0, b) density at zero is 1/(2b); variance 1 gives b = 1/sqrt(2)
        assert kernel_weight(ivs.KernelSpec(), 0.0) == pytest.approx(SQRT2 / 2)

    def test_mode_bivariate(self):
        assert kernel_weight(ivs.KernelSpec(), [0.0, 0.0]) == pytest.approx(0.5)

    def test_unit_lag(self):
        # independent scalar evaluation of the density formula: 0.171907...
        b = math.sqrt(0.5)
        expected = math.exp(-1.0 / b) / (2 * b)
        assert kernel_weight(ivs.KernelSpec(), 1.0) == pytest.approx(expected, rel=1e-14)
        assert expected == pytest.approx(0.1719094915383619, rel=1e-12)

    def test_product_rule(self, rng):
        spec = ivs.KernelSpec(variance=2.5)
        d = rng.standard_normal(3)
        single = [kernel_weight(spec, dk) for dk in d]
        assert kernel_weight(spec, d) == pytest.approx(np.prod(single), rel=1e-13)

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            ivs.KernelSpec(variance=0.0)
        with pytest.raises(TypeError):  # the Laplace family is the only one
            ivs.KernelSpec(family="gaussian")


class TestBuildWeightMatrix:
    def test_single_point(self):
        om = ivs.build_weight_matrix(np.array([[3.7]]), ivs.KernelSpec())
        assert om.values.shape == (1, 1)
        assert om.values[0, 0] == pytest.approx(SQRT2 / 2)

    def test_duplicate_rows_need_jitter(self):
        om = ivs.build_weight_matrix(np.zeros((2, 1)), ivs.KernelSpec(standardize=False))
        assert om.jitter_applied > 0
        assert np.linalg.eigvalsh(om.values).min() > 0

    def test_duplicate_constant_column_standardized_errors(self):
        with pytest.raises(ivs.DegenerateInstrumentError):
            ivs.build_weight_matrix(np.zeros((2, 1)), ivs.KernelSpec())

    def test_three_point_values(self):
        # off-diagonals at lags 1 and 2 from the scalar density formula
        om = ivs.build_weight_matrix(np.array([[-1.0], [0.0], [1.0]]), ivs.KernelSpec())
        b = math.sqrt(0.5)
        lag1 = math.exp(-1.0 / b) / (2 * b) / 9.0
        lag2 = math.exp(-2.0 / b) / (2 * b) / 9.0
        assert om.values[0, 1] == pytest.approx(lag1, rel=1e-13)
        assert om.values[0, 2] == pytest.approx(lag2, rel=1e-13)
        assert np.linalg.eigvalsh(om.values).min() > 0

    def test_diagonal_value(self, rng):
        w = rng.standard_normal((6, 2))
        om = ivs.build_weight_matrix(w, ivs.KernelSpec())
        assert np.allclose(np.diag(om.values), 0.5 / 36.0, rtol=1e-13)

    def test_symmetry(self, rng):
        om = ivs.build_weight_matrix(rng.standard_normal((9, 2)), ivs.KernelSpec())
        assert np.array_equal(om.values, om.values.T)

    @pytest.mark.parametrize("rounded", [False, True])
    def test_exactly_symmetric_for_three_instruments_and_rounded_values(self, rng, rounded):
        # |w_i - w_j| and |w_j - w_i| round identically, so the build needs no
        # averaging with the transpose; rounded instruments add exact ties
        w = rng.standard_normal((300, 3 if not rounded else 1))
        if rounded:
            w = np.round(w, 1)
        om = ivs.build_weight_matrix(w, ivs.KernelSpec())
        assert np.array_equal(om.values, om.values.T)

    @pytest.mark.parametrize("seed", range(5))
    def test_positive_definite_on_random_instances(self, seed):
        rng = np.random.default_rng(seed)
        om = ivs.build_weight_matrix(rng.standard_normal((12, 1)), ivs.KernelSpec())
        eig = np.linalg.eigvalsh(om.values)
        assert eig.min() >= -1e-10 * np.abs(om.values).max()
        assert om.jitter_applied == 0.0

    def test_translation_invariance(self, rng):
        w = rng.standard_normal((8, 1))
        a = ivs.build_weight_matrix(w, ivs.KernelSpec(standardize=False))
        b = ivs.build_weight_matrix(w + 4.25, ivs.KernelSpec(standardize=False))
        assert np.allclose(a.values, b.values, atol=1e-13)

    def test_scale_invariance_with_standardization(self, rng):
        w = rng.standard_normal((8, 2))
        a = ivs.build_weight_matrix(w, ivs.KernelSpec())
        b = ivs.build_weight_matrix(w * [7.0, 0.02], ivs.KernelSpec())
        assert np.allclose(a.values, b.values, rtol=1e-10)

    def test_centering_changes_nothing(self, rng):
        w = rng.standard_normal((8, 1)) + 3.0
        plain = ivs.build_weight_matrix(w, ivs.KernelSpec(standardize=False))
        centered = ivs.build_weight_matrix(w - w.mean(), ivs.KernelSpec(standardize=False))
        assert np.allclose(plain.values, centered.values, atol=1e-14)

    def test_solve_matches_inverse(self, rng):
        om = ivs.build_weight_matrix(rng.standard_normal((7, 1)), ivs.KernelSpec())
        assert np.allclose(om.values @ om.inverse(), np.eye(7), atol=1e-10)


class TestMomentCriterion:
    def test_zero_residuals(self, rng):
        om = ivs.build_weight_matrix(rng.standard_normal((5, 1)), ivs.KernelSpec())
        assert ivs.moment_criterion(np.zeros(5), om) == 0.0

    def test_single_term(self):
        om = ivs.build_weight_matrix(np.array([[0.4]]), ivs.KernelSpec())
        c = 1.7
        assert ivs.moment_criterion(np.array([c]), om) == pytest.approx(c**2 * SQRT2 / 2)

    def test_dimension_mismatch(self, rng):
        om = ivs.build_weight_matrix(rng.standard_normal((5, 1)), ivs.KernelSpec())
        with pytest.raises(ValueError):
            ivs.moment_criterion(np.zeros(4), om)

    def test_nonnegative(self, rng):
        om = ivs.build_weight_matrix(rng.standard_normal((10, 1)), ivs.KernelSpec())
        for _ in range(10):
            assert ivs.moment_criterion(rng.standard_normal(10), om) >= -1e-12

    @pytest.mark.parametrize("seed", [0, 1])
    def test_quadrature_oracle_two_points(self, seed):
        rng = np.random.default_rng(seed)
        w = rng.standard_normal(2)
        r = rng.standard_normal(2)
        om = ivs.build_weight_matrix(w.reshape(-1, 1), ivs.KernelSpec(standardize=False))
        oracle = criterion_quadrature_oracle(r, w)
        assert ivs.moment_criterion(r, om) == pytest.approx(oracle, rel=1e-8)

    def test_quadrature_oracle_standardized(self, rng):
        w = rng.standard_normal(5)
        r = rng.standard_normal(5)
        om = ivs.build_weight_matrix(w.reshape(-1, 1), ivs.KernelSpec())
        w_std = ivs.standardize_instruments(w.reshape(-1, 1)).w_std[:, 0]
        oracle = criterion_quadrature_oracle(r, w_std)
        assert ivs.moment_criterion(r, om) == pytest.approx(oracle, rel=1e-8)

    def test_matches_solver_diagnostic(self):
        ds = random_instance(3)
        f = ivs.fit(ds, 0.1)
        om = ivs.build_weight_matrix(ds.w, ivs.KernelSpec())
        d = ivs.build_design(ds.z)
        r = ds.y - d.linear @ f.a - d.cubic @ f.delta
        assert ivs.moment_criterion(r, om) == pytest.approx(f.diagnostics["criterion"], rel=1e-12)
