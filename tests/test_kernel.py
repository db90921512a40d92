import dataclasses
import math
import tracemalloc

import numpy as np
import pytest
import scipy.linalg
from scipy.linalg import lapack

import ivspline as ivs
from conftest import (
    criterion_quadrature_oracle,
    cubic_design,
    kernel_weight,
    near_ties,
    path_spectrum,
    random_instance,
    transformed_system,
    weight_values,
)
from ivspline.cli import main, read_document
from ivspline.kernel import _attempt_cholesky, _BidiagonalWeightMatrix, _DenseWeightMatrix, _pairwise_weights
from ivspline.solver import _Factored

SQRT2 = math.sqrt(2.0)


def pairwise(om, spec=ivs.KernelSpec()):
    """The package's n^-2 omega(W_i - W_j) on every row of ``om``'s standardized instruments."""
    return _pairwise_weights(om.w, spec)


def factor_product(om):
    """L L' through the package's own factor operations, jitter included."""
    return om._apply_l(om._apply_lt(np.eye(om.n)))


def closed_form_inverse(om):
    """Omega^-1 = P'B'BP of the closed-form route, dense, from the factor's band B and order P.

    B'B is tridiagonal: with beta the band's diagonal and gamma its
    subdiagonal, diagonal beta_i^2 + gamma_i^2 and off-diagonal
    gamma_i beta_{i+1}.  The package never forms it.
    """
    diag, sub = om.band
    off = sub[:-1] * diag[1:]
    sorted_inverse = np.diag(diag * diag + sub * sub) + np.diag(off, 1) + np.diag(off, -1)
    back = np.argsort(om.order)
    return sorted_inverse[np.ix_(back, back)]


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
        values = factor_product(om)
        assert values.shape == (1, 1)
        assert values[0, 0] == pytest.approx(SQRT2 / 2)

    def test_near_duplicate_rows_need_jitter(self):
        # three rows one ulp apart: distinct, so not grouped, but numerically singular
        w = 1.0 - np.arange(3.0)[:, None] * 2.0**-53
        om = ivs.build_weight_matrix(w, ivs.KernelSpec(standardize=False))
        assert om.groups is None
        assert om.jitter_applied > 0
        assert np.linalg.eigvalsh(weight_values(om)).min() > 0

    def test_duplicate_constant_column_standardized_errors(self):
        with pytest.raises(ivs.DegenerateInstrumentError):
            ivs.build_weight_matrix(np.zeros((2, 1)), ivs.KernelSpec())

    def test_three_point_values(self):
        # off-diagonals at lags 1 and 2 from the scalar density formula
        om = ivs.build_weight_matrix(np.array([[-1.0], [0.0], [1.0]]), ivs.KernelSpec())
        b = math.sqrt(0.5)
        lag1 = math.exp(-1.0 / b) / (2 * b) / 9.0
        lag2 = math.exp(-2.0 / b) / (2 * b) / 9.0
        values = pairwise(om)
        assert values[0, 1] == pytest.approx(lag1, rel=1e-13)
        assert values[0, 2] == pytest.approx(lag2, rel=1e-13)
        assert np.linalg.eigvalsh(values).min() > 0
        np.testing.assert_allclose(factor_product(om), values, rtol=1e-13)

    def test_diagonal_value(self, rng):
        w = rng.standard_normal((6, 2))
        om = ivs.build_weight_matrix(w, ivs.KernelSpec())
        assert np.allclose(np.diag(pairwise(om)), 0.5 / 36.0, rtol=1e-13)

    def test_symmetry(self, rng):
        om = ivs.build_weight_matrix(rng.standard_normal((9, 2)), ivs.KernelSpec())
        values = pairwise(om)
        assert np.array_equal(values, values.T)

    @pytest.mark.parametrize("rounded", [False, True])
    def test_exactly_symmetric_for_three_instruments_and_rounded_values(self, rng, rounded):
        # |w_i - w_j| and |w_j - w_i| round identically, so the build needs no
        # averaging with the transpose; rounded instruments add exact ties
        w = rng.standard_normal((300, 3 if not rounded else 1))
        if rounded:
            w = np.round(w, 1)
        om = ivs.build_weight_matrix(w, ivs.KernelSpec())
        values = pairwise(om)
        assert np.array_equal(values, values.T)

    @pytest.mark.parametrize("seed", range(5))
    def test_positive_definite_on_random_instances(self, seed):
        rng = np.random.default_rng(seed)
        om = ivs.build_weight_matrix(rng.standard_normal((12, 1)), ivs.KernelSpec())
        values = pairwise(om)
        eig = np.linalg.eigvalsh(values)
        assert eig.min() >= -1e-10 * np.abs(values).max()
        assert om.jitter_applied == 0.0

    def test_translation_invariance(self, rng):
        w = rng.standard_normal((8, 1))
        a = ivs.build_weight_matrix(w, ivs.KernelSpec(standardize=False))
        b = ivs.build_weight_matrix(w + 4.25, ivs.KernelSpec(standardize=False))
        assert np.allclose(pairwise(a), pairwise(b), atol=1e-13)

    def test_scale_invariance_with_standardization(self, rng):
        w = rng.standard_normal((8, 2))
        a = ivs.build_weight_matrix(w, ivs.KernelSpec())
        b = ivs.build_weight_matrix(w * [7.0, 0.02], ivs.KernelSpec())
        assert np.allclose(pairwise(a), pairwise(b), rtol=1e-10)

    def test_centering_changes_nothing(self, rng):
        w = rng.standard_normal((8, 1)) + 3.0
        plain = ivs.build_weight_matrix(w, ivs.KernelSpec(standardize=False))
        centered = ivs.build_weight_matrix(w - w.mean(), ivs.KernelSpec(standardize=False))
        assert np.allclose(pairwise(plain), pairwise(centered), atol=1e-14)

    def test_solve_matches_inverse(self, rng):
        om = ivs.build_weight_matrix(rng.standard_normal((7, 1)), ivs.KernelSpec())
        assert np.allclose(weight_values(om) @ closed_form_inverse(om), np.eye(7), atol=1e-10)

    def test_jitter_escalates_tenfold_until_the_factor_passes(self, monkeypatch):
        # pairs one ulp apart fail the unjittered factorization; from a start far
        # below the pivot screen the jitter climbs rung by rung, one Cholesky
        # call each, and a cap one rung below the rung that passed is fatal
        w = np.repeat([[0.5], [1.0], [1.5]], 2, axis=0)
        w[1::2] = np.nextafter(w[1::2], 0.0)
        spec = ivs.KernelSpec(standardize=False)
        calls = []
        cholesky = scipy.linalg.cholesky
        monkeypatch.setattr(scipy.linalg, "cholesky", lambda *a, **k: calls.append(1) or cholesky(*a, **k))
        monkeypatch.setattr(ivs.kernel, "JITTER_START", 1e-20)
        om = ivs.build_weight_matrix(w, spec)
        assert om.groups is None
        base = _pairwise_weights(om.w, spec).trace() / 6
        rungs = round(math.log10(om.jitter_applied / base / 1e-20))
        assert rungs >= 2
        assert om.jitter_applied == pytest.approx(1e-20 * 10.0**rungs * base, rel=1e-12)
        assert len(calls) == rungs + 2
        assert np.array_equal(om.chol, _attempt_cholesky(_pairwise_weights(om.w, spec), om.jitter_applied))
        monkeypatch.setattr(ivs.kernel, "JITTER_CAP", 1e-20 * 10.0 ** (rungs - 1))
        calls.clear()
        with pytest.raises(ivs.SingularKernelError, match="jitter cap"):
            ivs.build_weight_matrix(w, spec)
        assert len(calls) == rungs + 1

    @pytest.mark.parametrize("kind", ["rounded", "two instruments"])
    def test_dense_route_holds_only_its_factor(self, rng, kind):
        # one n x n array stays (the factor), and the build peaks at the
        # matrix plus the one copy that is factored in place; the rounded
        # values are nudged apart into near ties, which are not grouped
        n = 2000
        w = near_ties(rng.standard_normal((n, 1))) if kind == "rounded" else rng.standard_normal((n, 2))
        tracemalloc.start()
        try:
            om = ivs.build_weight_matrix(w, ivs.KernelSpec())
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert isinstance(om, _DenseWeightMatrix) and om.groups is None
        held = sum(getattr(om, f.name).nbytes for f in dataclasses.fields(om)
                   if isinstance(getattr(om, f.name), np.ndarray))
        assert held <= 8 * (n * n + 10 * n)
        assert peak <= 2.2 * n * n * 8


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
        w_std = ivs.standardize_instruments(w.reshape(-1, 1))[:, 0]
        oracle = criterion_quadrature_oracle(r, w_std)
        assert ivs.moment_criterion(r, om) == pytest.approx(oracle, rel=1e-8)

    def test_matches_solver_diagnostic(self):
        ds = random_instance(3)
        f = ivs.fit(ds, 0.1)
        om = ivs.build_weight_matrix(ds.w, ivs.KernelSpec())
        r = ds.y - ivs.build_design(ds.z) @ f.a - cubic_design(ds.z) @ f.delta
        assert ivs.moment_criterion(r, om) == pytest.approx(f.diagnostics["criterion"], rel=1e-12)


def g1_draw(n, seed):
    return ivs.generate(ivs.DgpConfig(n=n, rho_ev=0.5, rho_wz=0.9, g_id="g1", seed=seed))["dataset"]


def dpotri_inverse(values):
    """Inverse of a dense SPD matrix by LAPACK dpotrf + dpotri, mirrored to full."""
    chol, info = lapack.dpotrf(values, lower=1)
    assert info == 0
    inv, info = lapack.dpotri(chol, lower=1)
    assert info == 0
    return np.tril(inv) + np.tril(inv, -1).T


class TestClosedFormRoute:
    """A scalar instrument with distinct values: the bidiagonal factor of the OU covariance."""

    @pytest.mark.parametrize("seed", range(5))
    def test_inverse_residual_at_n200_no_worse_than_dpotri(self, seed):
        # At n = 200 both residuals against the double-rounded matrix sit at its
        # rounding floor, so each inverse is scored against the kernel evaluated
        # in extended precision, the matrix the criterion defines.
        if np.finfo(np.longdouble).eps >= np.finfo(float).eps:
            pytest.skip("needs an extended-precision long double")
        ds = g1_draw(200, seed)
        om = ivs.build_weight_matrix(ds.w, ivs.KernelSpec())
        assert isinstance(om, _BidiagonalWeightMatrix)
        closed, dense = closed_form_inverse(om), dpotri_inverse(pairwise(om))
        w = ivs.standardize_instruments(ds.w)[:, 0].astype(np.longdouble)
        b = np.sqrt(np.longdouble(0.5))
        exact = np.exp(-np.abs(w[:, None] - w[None, :]) / b) / (2 * b * 200**2)
        eye = np.eye(200)
        residual_closed = np.abs(exact @ closed.astype(np.longdouble) - eye).max()
        residual_dense = np.abs(exact @ dense.astype(np.longdouble) - eye).max()
        assert residual_closed <= residual_dense
        assert np.abs(closed - dense).max() <= 1e-9 * np.abs(closed).max()

    @pytest.mark.parametrize("seed", [0, 1])
    def test_inverse_residual_at_n2000_no_worse_than_dpotri(self, seed):
        ds = g1_draw(2000, seed)
        om = ivs.build_weight_matrix(ds.w, ivs.KernelSpec())
        assert isinstance(om, _BidiagonalWeightMatrix)
        values = pairwise(om)
        closed, dense = closed_form_inverse(om), dpotri_inverse(values)
        eye = np.eye(2000)
        assert np.abs(values @ closed - eye).max() <= np.abs(values @ dense - eye).max()
        assert np.abs(closed - dense).max() <= 1e-9 * np.abs(closed).max()

    @pytest.mark.parametrize("seed", range(3))
    def test_path_spectrum_same_as_dense_cholesky(self, seed):
        # any factor with L L' = Omega gives L'EL the same eigenvalues
        ds = g1_draw(200, seed)
        om = ivs.build_weight_matrix(ds.w, ivs.KernelSpec())
        cubic = cubic_design(ds.z)
        s_mat = om._apply_lt(om._apply_lt(cubic).T)
        closed = np.linalg.eigvalsh(0.5 * (s_mat + s_mat.T))
        reference = path_spectrum(ds)
        assert np.abs(closed - reference).max() <= 1e-12 * np.abs(reference).max()

    def test_near_tie_keeps_full_relative_accuracy(self):
        # a gap of 1e-9 passes the pivot screen; 1 - a^2 comes from expm1, not
        # from cancellation, so every entry of the inverse stays accurate to
        # roundoff against the closed form evaluated in extended precision
        if np.finfo(np.longdouble).eps >= np.finfo(float).eps:
            pytest.skip("needs an extended-precision long double")
        w = np.array([[0.0], [1e-9], [1.0]])
        om = ivs.build_weight_matrix(w, ivs.KernelSpec(standardize=False))
        assert isinstance(om, _BidiagonalWeightMatrix)
        b = np.sqrt(np.longdouble(0.5))
        gaps = np.diff(w[:, 0]).astype(np.longdouble)
        one_minus_a2, a = -np.expm1(-2 * gaps / b), np.exp(-gaps / b)
        c = 1 / (2 * b * 9)
        diag = np.array([1 / one_minus_a2[0], 1 / one_minus_a2[0] + 1 / one_minus_a2[1] - 1,
                         1 / one_minus_a2[1]]) / c
        off = -a / one_minus_a2 / c
        expected = (np.diag(diag) + np.diag(off, 1) + np.diag(off, -1)).astype(float)
        np.testing.assert_allclose(closed_form_inverse(om), expected, rtol=1e-12)

    def test_tie_free_scalar_instrument_needs_no_jitter(self, rng):
        om = ivs.build_weight_matrix(rng.standard_normal((500, 1)), ivs.KernelSpec())
        assert isinstance(om, _BidiagonalWeightMatrix)
        assert om.jitter_applied == 0.0

    def test_build_stores_no_dense_matrix(self, rng):
        w = rng.standard_normal((2000, 1))
        tracemalloc.start()
        try:
            ivs.build_weight_matrix(w, ivs.KernelSpec())
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1e6  # one dense 2000 x 2000 matrix is 32 MB

    def test_operations_match_dense_matrix(self, rng):
        w = rng.standard_normal((60, 1))
        om = ivs.build_weight_matrix(w, ivs.KernelSpec())
        values = weight_values(om)
        m = rng.standard_normal((60, 4))
        lt = om._apply_lt(m)
        assert np.allclose(lt.T @ lt, m.T @ values @ m, rtol=1e-10)
        l_mat = om._apply_l(np.eye(60))
        assert np.allclose(l_mat @ l_mat.T, values, rtol=1e-10, atol=1e-14 * values.max())
        assert np.allclose(om._quadratic(m), np.einsum("ig,ig->g", values @ m, m), rtol=1e-10)
        z = rng.standard_normal(60)
        s_mat = om._congruence(z, np.empty((60, 60)))
        dense = l_mat.T @ cubic_design(z) @ l_mat
        assert np.allclose(s_mat, dense, rtol=0, atol=1e-13 * np.abs(dense).max())

    @pytest.mark.parametrize("two_instruments", [False, True])
    def test_ties_and_two_instruments_keep_the_dense_route(self, rng, two_instruments):
        # near ties (rounded values nudged a few ulps apart) fail the pivot
        # screen; exact ties are grouped instead (tests/test_ties.py)
        ds = random_instance(7, n=300)
        w = np.column_stack([ds.w[:, 0], rng.standard_normal(300)]) if two_instruments else near_ties(ds.w)
        ds = ivs.Dataset(y=ds.y, z=ds.z, w=w)
        om = ivs.build_weight_matrix(ds.w, ivs.KernelSpec())
        assert isinstance(om, _DenseWeightMatrix) and om.groups is None
        # the bordered matrix holds chol' E chol, transformed in place by blocks;
        # against the dense product it differs by a few ulps of its largest entry
        s_mat = om._congruence(ds.z, np.empty((300, 300)))
        dense = om.chol.T @ cubic_design(ds.z) @ om.chol
        assert np.abs(s_mat - dense).max() <= 1e-14 * np.abs(dense).max()
        for lam in (1e-4, 1e-2):
            fit = _Factored(ds, lam).fit(ds.y)
            oracle = transformed_system(ds, lam)
            sol = np.linalg.solve(oracle.kkt, oracle.rhs)
            delta = oracle.factor @ sol[:300]
            assert np.abs(fit.delta - delta).max() <= 1e-10 * np.abs(delta).max()

    def test_fit_cv_answers_agree_with_dense_route(self, tmp_path, monkeypatch):
        ds = g1_draw(2000, 3)
        csv_in = tmp_path / "d.csv"
        ivs.write_csv(ds, csv_in)
        args = ["fit", "--input", str(csv_in), "--y", "y", "--z", "z", "--w", "w1", "--cv", "--seed", "1"]
        assert main(args + ["--out", str(tmp_path / "closed.json")]) == 0

        def dense(w, spec=ivs.KernelSpec()):
            om = ivs.kernel.build_weight_matrix(w, spec)
            return _DenseWeightMatrix(w=om.w, jitter_applied=0.0, chol=np.linalg.cholesky(pairwise(om, spec)))

        monkeypatch.setattr(ivs.selection, "build_weight_matrix", dense)
        monkeypatch.setattr(ivs.solver, "build_weight_matrix", dense)
        assert main(args + ["--out", str(tmp_path / "dense.json")]) == 0
        closed, reference = (read_document(tmp_path / f"{k}.json") for k in ("closed", "dense"))
        assert closed["lambda"] == reference["lambda"]
        assert closed["diagnostics"]["objective"] == pytest.approx(
            reference["diagnostics"]["objective"], rel=1e-9)
        delta, delta_ref = np.array(closed["delta"]), np.array(reference["delta"])
        assert np.abs(delta - delta_ref).max() <= 1e-8 * np.abs(delta_ref).max()
