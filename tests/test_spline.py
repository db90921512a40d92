import numpy as np
import pytest
from numpy.polynomial import polynomial as P

import ivspline as ivs
from conftest import natural_interpolant, random_instance, roughness_exact_integral
from ivspline.spline import _CUBIC_BLOCK, _derivative_rhs, _radial, _radial_design, _radial_product


def derivative_block(z):
    """D, entries sign(z_i - z_j) (z_i - z_j)^2 / 4, read off the smoother's right-hand side B'."""
    return _derivative_rhs(np.asarray(z, dtype=float))[:-2].T


class TestBuildDesign:
    def test_cubic_entries(self):
        cubic = _radial_design(np.array([0.0, 0.5, 1.0]), 0, np.empty((3, 3)))
        assert cubic[0, 1] == pytest.approx(0.5**3 / 12)
        assert cubic[0, 2] == pytest.approx(1.0 / 12)
        assert np.all(np.diag(cubic) == 0)
        assert np.all(cubic >= 0)
        assert np.array_equal(cubic, cubic.T)

    def test_cubic_deriv_entries(self):
        deriv = derivative_block([0.0, 0.5, 1.0])
        assert deriv[0, 1] == pytest.approx(-0.0625)
        assert deriv[1, 0] == pytest.approx(0.0625)
        assert np.all(np.diag(deriv) == 0)

    def test_antisymmetry_with_duplicate_knots(self):
        deriv = derivative_block([0.0, 1.0, 1.0])
        assert deriv[1, 2] == 0.0 == deriv[2, 1]
        assert np.array_equal(deriv, -deriv.T)

    def test_linear_blocks(self):
        z = np.array([0.3, -0.2, 1.5])
        linear = ivs.build_design(z)
        assert linear.shape == (3, 2)
        assert np.array_equal(linear[:, 0], np.ones(3))
        assert np.array_equal(linear[:, 1], z)
        # the derivative design's linear part: the last two rows of B' are (0, 1) per knot
        assert np.array_equal(_derivative_rhs(z)[-2:].T, [[0, 1], [0, 1], [0, 1]])

    def test_too_small(self):
        with pytest.raises(ivs.SizeError):
            ivs.build_design(np.array([0.0, 1.0]))


def whole_matrix_evaluators(fit, z):
    """Value, first and second derivative at z from whole len(z) x n matrices.

    |d|**3 by power and scaled after the product, and sign(d) d**2 with
    sign(0) = +1: other roundings than the package's row blocks.
    """
    diff = z[:, None] - fit.knots[None, :]
    value = fit.a[0] + fit.a[1] * z + (np.abs(diff) ** 3 @ fit.delta) / 12.0
    first = fit.a[1] + ((np.where(diff >= 0, 1.0, -1.0) * diff**2) @ fit.delta) / 4.0
    second = (np.abs(diff) @ fit.delta) / 2.0
    return value, first, second


class TestRadialBlocks:
    """One blocked product of the basis and its derivatives rounds like the whole block."""

    @pytest.mark.parametrize("order", [0, 1, 2])
    def test_product_equals_the_whole_block(self, order):
        rng = np.random.default_rng(order)
        u = rng.standard_normal(2 * _CUBIC_BLOCK + 37)
        v = rng.standard_normal(150)
        for x in (rng.standard_normal(150), rng.standard_normal((150, 7))):
            product = _radial_product(u, v, x, order)
            assert product.shape == u.shape + x.shape[1:]
            assert np.array_equal(product, _radial(u, v, order) @ x)

    def test_orders_are_the_basis_and_its_derivatives(self):
        d = np.array([-1.5, -0.5, 0.0, 0.5, 2.0])
        assert np.array_equal(_radial(d, np.zeros(1), 0)[:, 0], np.abs(d) ** 3 / 12)
        assert np.array_equal(_radial(d, np.zeros(1), 1)[:, 0], d * np.abs(d) / 4)
        assert np.array_equal(_radial(d, np.zeros(1), 2)[:, 0], np.abs(d) / 2)

    @pytest.mark.parametrize("g_id", ["g1", "g2", "g3"])
    def test_evaluators_equal_the_whole_matrix_formulas(self, g_id):
        # more points than a row block, the knots themselves (d = 0) among them;
        # the derivatives match bit for bit, and the value, which the package
        # cubes by multiplication and scales before the product, within
        # 2 gamma_k sum |terms|, the bound on a k-term sum evaluated two ways
        ds = ivs.generate(ivs.DgpConfig(n=300, rho_ev=0.5, rho_wz=0.7, g_id=g_id, seed=5))["dataset"]
        z = np.concatenate([np.linspace(-4.0, 4.0, 201), ds.z[:100]])
        for lam in (1e-5, 1e-2):
            fit = ivs.fit(ds, lam)
            value, first, second = whole_matrix_evaluators(fit, z)
            assert np.array_equal(ivs.evaluate_derivative(fit, z), first)
            assert np.array_equal(ivs.evaluate_second_derivative(fit, z), second)
            radial = np.abs(z[:, None] - fit.knots) ** 3 @ np.abs(fit.delta) / 12
            terms = np.abs(fit.a[0]) + np.abs(fit.a[1] * z) + radial
            k, u = fit.n + 2, np.finfo(float).eps / 2
            assert np.all(np.abs(ivs.evaluate(fit, z) - value) <= 2 * k * u / (1 - k * u) * terms)
            for point in (z[0], z[250]):
                _, first, second = whole_matrix_evaluators(fit, np.array([point]))
                assert ivs.evaluate_derivative(fit, point) == first[0]
                assert ivs.evaluate_second_derivative(fit, point) == second[0]
                assert isinstance(ivs.evaluate(fit, point), float)


class TestEvaluate:
    def test_pure_linear(self):
        fit = ivs.SplineFit(a=[2.0, 3.0], delta=np.zeros(4), knots=[0, 1, 2, 3], lam=1.0)
        assert ivs.evaluate(fit, 1.5) == pytest.approx(6.5)
        assert ivs.evaluate_derivative(fit, -7.0) == pytest.approx(3.0)
        assert ivs.evaluate_second_derivative(fit, 0.5) == 0.0

    def test_two_knot_interpolation_is_linear(self):
        # two knots admit only the linear natural spline: constraints force delta = 0
        fit = ivs.SplineFit(a=[0.0, 1.0], delta=[0.0, 0.0], knots=[0.0, 1.0], lam=1.0)
        assert ivs.evaluate(fit, 0.5) == pytest.approx(0.5)

    def test_scalar_and_array_forms(self):
        fit = ivs.SplineFit(a=[1.0, 0.0], delta=[0.5, -1.0, 0.5], knots=[-1, 0, 1], lam=1.0)
        vals = ivs.evaluate(fit, np.array([0.2, 0.7]))
        assert vals.shape == (2,)
        assert ivs.evaluate(fit, 0.2) == pytest.approx(vals[0])

    def test_extrapolation_is_collinear(self):
        ds = random_instance(5, n=9)
        fit = ivs.fit(ds, 0.05)
        hi = fit.knots.max()
        pts = hi + np.array([0.5, 1.0, 1.5])
        vals = ivs.evaluate(fit, pts)
        secant = (vals[2] - vals[0]) / (pts[2] - pts[0])
        assert vals[1] == pytest.approx(vals[0] + secant * (pts[1] - pts[0]), rel=1e-9, abs=1e-9)

    def test_derivative_matches_finite_differences(self):
        ds = random_instance(6, n=8)
        fit = ivs.fit(ds, 0.1)
        rng = np.random.default_rng(1)
        pts = rng.uniform(fit.knots.min(), fit.knots.max(), 10)
        h = 1e-5
        fd = (ivs.evaluate(fit, pts + h) - ivs.evaluate(fit, pts - h)) / (2 * h)
        exact = ivs.evaluate_derivative(fit, pts)
        assert np.allclose(exact, fd, rtol=1e-5, atol=1e-6)

    def test_second_derivative_matches_finite_differences(self):
        ds = random_instance(7, n=8)
        fit = ivs.fit(ds, 0.1)
        rng = np.random.default_rng(2)
        pts = rng.uniform(fit.knots.min(), fit.knots.max(), 10)
        h = 1e-5
        fd = (ivs.evaluate_derivative(fit, pts + h) - ivs.evaluate_derivative(fit, pts - h)) / (2 * h)
        exact = ivs.evaluate_second_derivative(fit, pts)
        assert np.allclose(exact, fd, rtol=1e-5, atol=1e-6)

    def test_naturality_outside_knot_range(self):
        ds = random_instance(8, n=10)
        fit = ivs.fit(ds, 0.2)
        scale = 1 + np.abs(fit.delta).sum() * (1 + np.abs(fit.knots).max())
        lo, hi = fit.knots.min(), fit.knots.max()
        outside = np.concatenate([lo - np.array([0.1, 1.0, 5.0]), hi + np.array([0.1, 1.0, 5.0])])
        assert np.all(np.abs(ivs.evaluate_second_derivative(fit, outside)) <= 1e-10 * scale)


class TestRoughness:
    def test_zero_delta(self):
        fit = ivs.SplineFit(a=[1.0, 2.0], delta=np.zeros(3), knots=[0.0, 0.5, 1.0], lam=1.0)
        assert ivs.roughness(fit) == 0.0

    def test_hand_expanded_three_knots(self):
        # delta (1, -2, 1) on knots (0, 1/2, 1) satisfies both constraints;
        # expanding the quadratic form gives exactly 1/12
        delta = np.array([1.0, -2.0, 1.0])
        fit = ivs.SplineFit(a=[0.0, 0.0], delta=delta, knots=[0.0, 0.5, 1.0], lam=1.0)
        assert ivs.roughness(fit) == pytest.approx(1.0 / 12.0, rel=1e-12)
        assert roughness_exact_integral(fit) == pytest.approx(1.0 / 12.0, rel=1e-12)

    def test_dimension_mismatch(self):
        # roughness reads delta and knots off one fit, which rejects unequal lengths
        with pytest.raises(ValueError, match="equal length"):
            ivs.SplineFit(a=[0.0, 0.0], delta=np.zeros(4), knots=[0.0, 0.5, 1.0], lam=1.0)

    @pytest.mark.parametrize("seed", range(5))
    def test_equals_exact_integral_for_solver_fits(self, seed):
        ds = random_instance(seed, n=9)
        fit = ivs.fit(ds, 0.05)
        quad_form = ivs.roughness(fit)
        assert quad_form == fit.diagnostics["roughness"]
        assert quad_form == pytest.approx(roughness_exact_integral(fit), rel=1e-10)


class TestRepresenterProperty:
    @pytest.mark.parametrize("seed", range(6))
    def test_natural_interpolant_minimizes_roughness(self, seed):
        # among smooth interpolants of the same values, the natural cubic
        # spline has the smallest integrated squared second derivative
        rng = np.random.default_rng(seed)
        n = rng.integers(4, 7)
        z = np.sort(rng.uniform(-1.0, 1.0, n))
        while np.diff(z).min() < 0.15:
            z = np.sort(rng.uniform(-1.0, 1.0, n))
        values = rng.standard_normal(n)
        fit = natural_interpolant(z, values)
        assert np.allclose(ivs.evaluate(fit, z), values, atol=1e-9)
        base = ivs.roughness(fit)

        vanish = np.array([1.0])
        for zi in z:
            vanish = P.polymul(vanish, np.array([-zi, 1.0]))
        nodes, weights = np.polynomial.legendre.leggauss(12)
        for _ in range(3):
            bump = P.polymul(rng.standard_normal(3), vanish)
            bump_dd = P.polyder(bump, 2)
            total = 0.0
            for a0, b0 in zip(z[:-1], z[1:]):
                t = 0.5 * (b0 - a0) * nodes + 0.5 * (a0 + b0)
                integrand = (ivs.evaluate_second_derivative(fit, t) + P.polyval(t, bump_dd)) ** 2
                total += 0.5 * (b0 - a0) * float(weights @ integrand)
            assert base <= total + 1e-9 * max(1.0, total)


class TestPermutationEquivariance:
    def test_fit_commutes_with_row_permutation(self):
        ds = random_instance(11, n=9)
        rng = np.random.default_rng(3)
        perm = rng.permutation(ds.n)
        permuted = ivs.Dataset(y=ds.y[perm], z=ds.z[perm], w=ds.w[perm])
        f = ivs.fit(ds, 0.07)
        fp = ivs.fit(permuted, 0.07)
        assert np.allclose(fp.delta, f.delta[perm], atol=1e-9)
        pts = np.linspace(-2, 2, 11)
        assert np.allclose(ivs.evaluate(fp, pts), ivs.evaluate(f, pts), atol=1e-9)


class TestSplineFitInvariants:
    @pytest.mark.parametrize("seed", range(4))
    def test_solver_fit_satisfies_constraints(self, seed):
        ds = random_instance(seed, n=10)
        fit = ivs.fit(ds, 0.1)
        scale = 1e-8 * (1 + np.abs(fit.delta).sum() * np.abs(ds.z).max())
        assert abs(fit.delta.sum()) <= scale
        assert abs(np.dot(fit.delta, fit.knots)) <= scale
