"""Exactly tied instruments: the grouped (m + 2) system against oracles that never group.

With tied instrument rows Omega = G Omegabar G' is singular and its factor
L = G Lbar is n x m, so delta = L u and the fit solves
[[L'EL + lam I, L'Z], [Z'L, 0]] (u; a) = (L'y; 0) with no jitter.  The oracles here work on the n x n matrix rebuilt from
``kernel_weight`` and on the dense cubic design; none of them reaches the
group map.
"""

import tracemalloc

import numpy as np
import pytest
import scipy.linalg

import ivspline as ivs
from conftest import cubic_design, cv_oracle, kernel_weight, qp_oracle
from ivspline.kernel import JITTER_CAP, JITTER_GROWTH, JITTER_START, _pairwise_weights


def rounded_instance(n=300, seed=1):
    """The paper's g1 design with the instrument rounded to one decimal (47 groups at n = 300)."""
    ds = ivs.generate(ivs.DgpConfig(n=n, rho_ev=0.5, rho_wz=0.9, g_id="g1", seed=seed))["dataset"]
    return ivs.Dataset(y=ds.y, z=ds.z, w=np.round(ds.w, 1))


def duplicated_rows_instance(n=300, seed=2):
    """Two instruments drawn from n/3 distinct rows, so most rows are exact duplicates."""
    rng = np.random.default_rng(seed)
    w = rng.standard_normal((n // 3, 2))[rng.integers(0, n // 3, n)]
    z = 0.7 * w[:, 0] + 0.3 * w[:, 1] + 0.5 * rng.standard_normal(n)
    y = np.sin(2 * z) + 0.3 * rng.standard_normal(n)
    return ivs.Dataset(y=y, z=z, w=w)


def binary_instance(n=200, seed=5):
    rng = np.random.default_rng(seed)
    w = (rng.uniform(size=n) < 0.4).astype(float)
    z = 0.9 * w + 0.5 * rng.standard_normal(n)
    y = np.sin(z) + 0.3 * rng.standard_normal(n)
    return ivs.Dataset(y=y, z=z, w=w)


TIED = {"rounded": rounded_instance, "duplicated two instruments": duplicated_rows_instance}


def dense_omega(ds):
    """n^-2 omega(W_i - W_j) on the standardized instruments, from ``kernel_weight`` alone."""
    w = ivs.standardize_instruments(ds.w)
    distinct, index = np.unique(w, axis=0, return_inverse=True)
    spec = ivs.KernelSpec()
    small = np.array([[kernel_weight(spec, a - b) for b in distinct] for a in distinct])
    index = index.reshape(-1)
    return small[np.ix_(index, index)] / ds.n**2


def jittered_dense_fit(ds, lam, omega):
    """The n x n route that tied instruments used to take: jitter until Cholesky passes, then solve.

    The jitter climbs from ``JITTER_START`` by ``JITTER_GROWTH`` until every
    squared pivot exceeds n eps times the largest diagonal entry; the
    bordered system [[E + lam (Omega + jitter I)^-1, Z], [Z', 0]] is then
    LU-solved with two steps of iterative refinement.
    """
    n = ds.n
    base, tau = np.trace(omega) / n, 0.0
    while True:
        assert tau <= JITTER_CAP * (1.0 + 1e-12), "jitter cap reached"
        jittered = omega + tau * base * np.eye(n)
        try:
            chol = np.linalg.cholesky(jittered)
            if (np.diag(chol) ** 2).min() > n * np.finfo(float).eps * jittered.diagonal().max():
                break
        except np.linalg.LinAlgError:
            pass
        tau = tau * JITTER_GROWTH if tau else JITTER_START
    assert tau > 0.0
    linear = ivs.build_design(ds.z)
    inverse = scipy.linalg.cho_solve((chol, True), np.eye(n))
    kkt = np.block([[cubic_design(ds.z) + lam * 0.5 * (inverse + inverse.T), linear],
                    [linear.T, np.zeros((2, 2))]])
    rhs = np.concatenate([ds.y, np.zeros(2)])
    lu = scipy.linalg.lu_factor(kkt)
    sol = scipy.linalg.lu_solve(lu, rhs)
    for _ in range(2):
        sol = sol + scipy.linalg.lu_solve(lu, rhs - kkt @ sol)
    return sol[:n], sol[n:]


def objective(ds, omega, lam, delta, a):
    """(y - Za - E delta)' Omega (y - Za - E delta) + lam delta' E delta."""
    cubic = cubic_design(ds.z)
    r = ds.y - ivs.build_design(ds.z) @ a - cubic @ delta
    return float(r @ omega @ r + lam * delta @ cubic @ delta)


class TestGroupedWeightMatrix:
    @pytest.mark.parametrize("kind", sorted(TIED))
    def test_factor_reproduces_the_dense_matrix(self, kind):
        ds = TIED[kind]()
        om = ivs.build_weight_matrix(ds.w)
        values = dense_omega(ds)
        m = len(om.groups)
        assert m < ds.n and om.jitter_applied == 0.0
        np.testing.assert_allclose(_pairwise_weights(om.w, ivs.KernelSpec()), values, rtol=1e-13, atol=0)
        factor = om._apply_l(np.eye(m))
        assert factor.shape == (ds.n, m)
        assert np.allclose(factor @ factor.T, values, rtol=0, atol=1e-12 * values.max())
        r = np.random.default_rng(0).standard_normal((ds.n, 3))
        np.testing.assert_allclose(om._quadratic(r), np.einsum("ig,ig->g", values @ r, r), rtol=1e-10)

    def test_build_allocates_no_n_by_n_array(self):
        # the closed-form factor on the m distinct values of a rounded scalar
        # instrument; one dense 2000 x 2000 matrix would be 32 MB
        w = np.round(np.random.default_rng(3).standard_normal((2000, 1)), 1)
        tracemalloc.start()
        try:
            om = ivs.build_weight_matrix(w)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(om.groups) < 100
        assert peak < 1e6


class TestGroupedFit:
    @pytest.mark.parametrize("lam", [1e-5, 1e-2])
    @pytest.mark.parametrize("kind", sorted(TIED))
    def test_matches_qp_oracle(self, kind, lam):
        # delta is checked against the oracle's, by the first-order identity
        # lam delta = Omega r through the dense matrix, by its roughness and
        # through the fitted values
        ds = TIED[kind]()
        fit = ivs.fit(ds, lam)
        assert fit.diagnostics["jitter_applied"] == 0.0
        assert fit.diagnostics["instrument_groups"] < ds.n
        delta, a, oracle_objective = qp_oracle(ds, lam)
        linear, cubic = ivs.build_design(ds.z), cubic_design(ds.z)
        values = dense_omega(ds)
        residual = ds.y - linear @ fit.a - cubic @ fit.delta
        assert np.abs(lam * fit.delta - values @ residual).max() <= 1e-10 * lam * np.abs(fit.delta).max()
        assert np.abs(fit.delta - delta).max() <= 1e-8 * np.abs(delta).max()
        assert np.abs(fit.a - a).max() <= 1e-7 * np.abs(a).max()
        fitted = linear @ fit.a + cubic @ fit.delta
        oracle_fitted = linear @ a + cubic @ delta
        assert np.abs(fitted - oracle_fitted).max() <= 1e-9 * np.abs(ds.y).max()
        assert fit.diagnostics["roughness"] == pytest.approx(delta @ cubic @ delta, rel=1e-8)
        assert objective(ds, values, lam, fit.delta, fit.a) <= oracle_objective * (1.0 + 1e-12)

    @pytest.mark.parametrize("lam", [1e-5, 1e-2])
    @pytest.mark.parametrize("kind", sorted(TIED))
    def test_objective_no_higher_than_the_jittered_dense_solve(self, kind, lam):
        ds = TIED[kind]()
        omega = dense_omega(ds)
        fit = ivs.fit(ds, lam)
        delta, a = jittered_dense_fit(ds, lam, omega)
        assert objective(ds, omega, lam, fit.delta, fit.a) <= objective(ds, omega, lam, delta, a)

    def test_delta_is_constant_on_each_group(self):
        ds = rounded_instance()
        fit = ivs.fit(ds, 1e-3)
        for value in np.unique(ds.w):
            group = fit.delta[ds.w[:, 0] == value]
            assert np.all(group == group[0])
        assert fit.constraint_residual() <= 1e-12 * np.abs(fit.delta).sum() * np.abs(ds.z).max()

    def test_cross_validation_matches_brute_force(self):
        ds = rounded_instance()
        cfg = ivs.CvConfig(grid=np.logspace(-5, 0, 12), seed=2)
        result = ivs.cross_validate(ds, cfg)
        oracle = cv_oracle(ds, cfg)
        assert np.all(np.isfinite(result.curve[:, 1]))
        assert np.allclose(result.curve[:, 1], oracle, rtol=1e-8, atol=0)
        assert result.lambda_star_index == int(np.argmin(oracle))


def distinct_instance(n=300, seed=1):
    """The paper's g1 design with its continuous instrument: no two rows tie."""
    return ivs.generate(ivs.DgpConfig(n=n, rho_ev=0.5, rho_wz=0.9, g_id="g1", seed=seed))["dataset"]


class TestQpOracle:
    @pytest.mark.parametrize("lam", [1e-5, 1e-2])
    @pytest.mark.parametrize("kind", ["distinct", *sorted(TIED)])
    def test_delta_meets_the_first_order_identity(self, kind, lam):
        # lam delta = Omega (y - Za - E delta) holds at the minimizer; the
        # oracle must meet it on its own at n = 300 for its delta to be a reference
        ds = distinct_instance() if kind == "distinct" else TIED[kind]()
        delta, a, _ = qp_oracle(ds, lam)
        residual = ds.y - ivs.build_design(ds.z) @ a - cubic_design(ds.z) @ delta
        gap = np.abs(lam * delta - dense_omega(ds) @ residual).max()
        assert gap <= 1e-8 * lam * np.abs(delta).max()


class TestBinaryInstrument:
    @pytest.mark.parametrize("lam", [1e-8, 1e-5, 1e-2, 1.0, 1e3])
    def test_fit_is_the_wald_line(self, lam):
        # with two groups Z'G nu = 0 leaves nu = 0, and G'Z a = G'y passes the
        # line through the two groups' mean (z, y) points
        ds = binary_instance()
        one = ds.w[:, 0] == 1.0
        slope = (ds.y[one].mean() - ds.y[~one].mean()) / (ds.z[one].mean() - ds.z[~one].mean())
        intercept = ds.y[~one].mean() - slope * ds.z[~one].mean()
        fit = ivs.fit(ds, lam)
        assert fit.diagnostics["jitter_applied"] == 0.0
        assert fit.diagnostics["instrument_groups"] == 2
        assert fit.a[1] == pytest.approx(slope, rel=1e-12)
        assert fit.a[0] == pytest.approx(intercept, rel=1e-12)
        assert np.abs(fit.delta).max() <= 1e-12 * abs(slope)

    def test_equal_group_means_of_z_are_collinear(self):
        w = np.array([0.0, 0.0, 0.0, 0.0, 1.0, 1.0, 1.0, 1.0])
        z = np.array([-1.0, 1.0, -0.5, 0.5, -2.0, 2.0, -0.25, 0.25])
        ds = ivs.Dataset(y=np.sin(z), z=z, w=w)
        with pytest.raises(ivs.CollinearityError, match="same mean z"):
            ivs.fit(ds, 1e-2)
        with pytest.raises(ivs.CollinearityError, match="same mean z"):
            ivs.PathSolver(ds)
