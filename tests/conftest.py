"""Shared instance factories and independent oracles used across test modules."""

import os
from types import SimpleNamespace

# One BLAS thread unless the caller chose otherwise: the suite's matrices are
# small (n in the tens to hundreds), where a second OpenBLAS thread costs more
# in synchronization than it gains.  BLAS reads this when numpy loads.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
os.environ.setdefault("OMP_NUM_THREADS", "1")

import numpy as np  # noqa: E402
import pytest  # noqa: E402
import scipy.integrate  # noqa: E402
import scipy.linalg  # noqa: E402

import ivspline as ivs  # noqa: E402
from ivspline.selection import _fold_assignment  # noqa: E402


def random_instance(seed, n=8, noise=0.3, instrument_noise=0.6):
    """Generic instance: relevant instrument, smooth signal, moderate noise."""
    rng = np.random.default_rng(seed)
    w = rng.standard_normal(n)
    z = 0.8 * w + instrument_noise * rng.standard_normal(n)
    y = np.sin(2 * z) + 0.5 * z + noise * rng.standard_normal(n)
    return ivs.Dataset(y=y, z=z, w=w)


def separated_instance(seed, n=10, noise=0.1):
    """Instance with well-separated knots, for interpolation-limit checks.

    Near-tied knots make the exact natural interpolant arbitrarily violent,
    which the small-lambda limit inherits; a jittered equispaced design keeps
    that limit numerically meaningful.
    """
    rng = np.random.default_rng(seed)
    z = np.linspace(-1.5, 1.5, n) + rng.uniform(-0.1, 0.1, n)
    rng.shuffle(z)
    w = z + 0.5 * rng.standard_normal(n)
    y = np.sin(2 * z) + 0.5 * z + noise * rng.standard_normal(n)
    return ivs.Dataset(y=y, z=z, w=w)


def wiggly_instance(seed, n=8, slope=0.6, noise=0.8):
    """Noisy weak-trend instance; increasing-direction tilts often have active constraints."""
    rng = np.random.default_rng(seed)
    z = np.sort(rng.uniform(-1.5, 1.5, n))
    rng.shuffle(z)
    w = z + 0.4 * rng.standard_normal(n)
    y = slope * z + noise * rng.standard_normal(n)
    return ivs.Dataset(y=y, z=z, w=w)


def near_ties(w, decimals=1, step=2.0**-49):
    """w rounded to ``decimals``, with the k-th repeat of each value moved up by k * step.

    The step is a few ulps at the instrument's scale, so no two rows tie
    exactly but repeats stay close enough to fail the weight matrix's pivot
    screen: the near-tie case, where the dense route's pivoted Cholesky
    factor stops below full rank.
    """
    w = np.round(np.asarray(w, dtype=float), decimals)
    flat = w.reshape(-1)
    for value in np.unique(flat):
        rows = np.flatnonzero(flat == value)
        flat[rows] += np.arange(rows.size) * step
    return w


def cubic_design(z):
    """The dense cubic design E, entries |z_i - z_j|^3 / 12, from the formula.

    Cubed by multiplication, the order the package's row blocks use, so the
    entries equal the ones it writes bit for bit.
    """
    d = np.abs(np.subtract.outer(z, z))
    return d * d * d / 12.0


def derivative_design(z):
    """The dense derivative design D, entries sign(z_i - z_j) (z_i - z_j)^2 / 4 with sign(0) = +1."""
    diff = np.subtract.outer(z, z)
    return np.where(diff >= 0, 1.0, -1.0) * diff**2 / 4.0


def kernel_weight(spec, d):
    """Weight omega(d) for an instrument difference d (length-p vector or scalar).

    Product of univariate Laplace densities over the components:
    prod_k (1/(2b)) exp(-|d_k| / b) with b = sqrt(variance / 2).  An array of
    differences (last axis the p components) gives one weight per difference.
    """
    d = np.atleast_1d(np.asarray(d, dtype=float))
    b = np.sqrt(spec.variance / 2.0)
    weight = np.prod(np.exp(-np.abs(d) / b) / (2.0 * b), axis=-1)
    return float(weight) if weight.ndim == 0 else weight


def weight_values(om, spec=ivs.KernelSpec()):
    """The dense n x n weight matrix of ``om`` from ``kernel_weight``: n^-2 omega(W_i - W_j) on ``om.w``."""
    w = om.w
    return kernel_weight(spec, w[:, None, :] - w[None, :, :]) / om.n**2


def weight_inverse(om):
    """Omega^-1 of a weight matrix without ties, by a dense Cholesky solve of ``weight_values``.

    The package never forms this inverse; it is an oracle only.  With tied
    instruments Omega is singular, and there is no inverse.
    """
    assert om.groups is None, "tied instrument rows leave the weight matrix without an inverse"
    factor = scipy.linalg.cho_factor(weight_values(om), lower=True)
    inverse = scipy.linalg.cho_solve(factor, np.eye(om.n))
    return 0.5 * (inverse + inverse.T)


def qp_oracle(ds, lam):
    """Solve the penalized program through its scaled residual c = r / lam.

    The program minimizes r' Omega r + lam delta' E delta over Z' delta = 0,
    with r = y - Za - E delta.  At lam delta = Omega r its first-order
    conditions hold with a zero multiplier on the constraint:
    E (lam delta - Omega r) = 0 in delta, Z' Omega r = 0 in a, and then
    Z' delta = Z' Omega r / lam = 0.  So delta = Omega c, and (c; a) solves
    the (n + 2) system

        [[lam I + E Omega, Z], [Z' Omega, 0]] (c; a) = (y; 0)

    by one dense LU solve.  It needs no inverse of Omega (tied instruments
    leave it singular) and never forms the normal equations X' Omega X of
    the value map X = [E, Z], whose conditioning is the square of X's.
    Shares no code path with the production solver.
    """
    omega = weight_values(ivs.build_weight_matrix(ds.w))
    cubic, linear = cubic_design(ds.z), ivs.build_design(ds.z)
    n = ds.n
    system = np.block([
        [lam * np.eye(n) + cubic @ omega, linear],
        [linear.T @ omega, np.zeros((2, 2))],
    ])
    sol = np.linalg.solve(system, np.concatenate([ds.y, np.zeros(2)]))
    delta, a = omega @ sol[:n], sol[n:]
    r = ds.y - linear @ a - cubic @ delta
    objective = float(r @ omega @ r + lam * delta @ cubic @ delta)
    return delta, a, objective


def build_block_system(ds, lam):
    """The bordered system assembled from dense blocks: penalized_cubic, kkt and rhs.

    penalized_cubic is E + lam Omega^-1, kkt is [[E + lam Omega^-1, Z], [Z', 0]]
    and rhs is (Y; 0); E comes from its formula, Omega^-1 from
    :func:`weight_inverse`.
    """
    linear = ivs.build_design(ds.z)
    penalized = cubic_design(ds.z) + lam * weight_inverse(ivs.build_weight_matrix(ds.w))
    kkt = np.block([[penalized, linear], [linear.T, np.zeros((2, 2))]])
    return SimpleNamespace(penalized_cubic=penalized, kkt=kkt, rhs=np.concatenate([ds.y, np.zeros(2)]))


def weight_factor(om):
    """The n x r factor L = G Lbar of ``om``, rebuilt densely from ``weight_values``.

    Lbar is the lower Cholesky factor of the weights on the distinct rows,
    taken in the order ``om.order`` (the sorted order on the closed-form
    route, where the package's factor is that Cholesky factor by a formula;
    the pivot order on the dense route), with its rows put back in group
    order.  Below full rank r it is the Cholesky factor of the leading
    r x r block in that order, extended to the other rows by a triangular
    solve: the pivoted factor stopped at r.  So this is the package's factor
    up to rounding, and [[L'EL + lam I, L'Z], [Z'L, 0]] is the package's
    bordered matrix.
    """
    values = weight_values(om)
    groups = om.groups
    rows = np.arange(om.n) if groups is None else groups.order[groups.starts]  # one row per group
    permuted = values[np.ix_(rows[om.order], rows[om.order])]
    r = om.rank
    lead = np.linalg.cholesky(permuted[:r, :r])
    factor = np.empty((rows.size, r))
    factor[om.order] = np.vstack([lead, scipy.linalg.solve_triangular(lead, permuted[:r, r:], lower=True).T])
    return factor if groups is None else factor[groups.index]


def transformed_system(ds, lam):
    """The bordered system in the coordinates delta = L u, from dense blocks: factor, kkt and rhs.

    kkt is [[L'EL + lam I, L'Z], [Z'L, 0]] and rhs is (L'Y; 0), with L from
    :func:`weight_factor` and E from its formula; (u; a) solves it and
    delta = L u.
    """
    factor = weight_factor(ivs.build_weight_matrix(ds.w))
    linear = ivs.build_design(ds.z)
    lt_linear = factor.T @ linear
    kkt = np.block([
        [factor.T @ cubic_design(ds.z) @ factor + lam * np.eye(factor.shape[1]), lt_linear],
        [lt_linear.T, np.zeros((2, 2))],
    ])
    return SimpleNamespace(factor=factor, kkt=kkt, rhs=np.concatenate([factor.T @ ds.y, np.zeros(2)]))


def fitted_values(ds, lam):
    """Fitted values by the closed hat-matrix form [P + E Et^-1 (I - P)] Y.

    P = Z (Z' Et^-1 Z)^-1 Z' Et^-1 is the oblique projection onto the linear
    design, with Et = E + lam Omega^-1.  Independent of ``ivs.fit``'s bordered
    solve: it factors Et alone and eliminates the linear part in closed form.
    """
    linear = ivs.build_design(ds.z)
    lu = scipy.linalg.lu_factor(build_block_system(ds, lam).penalized_cubic)
    einv_z = scipy.linalg.lu_solve(lu, linear)
    einv_y = scipy.linalg.lu_solve(lu, ds.y)
    gram = linear.T @ einv_z
    proj_y = linear @ np.linalg.solve(gram, linear.T @ einv_y)
    return proj_y + cubic_design(ds.z) @ scipy.linalg.lu_solve(lu, ds.y - proj_y)


def hat_diagnostics(ds, lam):
    """Numerical health of the bordered system against its analytic block inverse.

    The analytic inverse is assembled from the blocks

        [[Et^-1 (I-P),            Et^-1 Z (Z' Et^-1 Z)^-1],
         [(Z' Et^-1 Z)^-1 Z' Et^-1,   -(Z' Et^-1 Z)^-1   ]]

    with Et = E + lam Omega^-1, and ``block_inverse_check`` is the max-norm
    residual of that inverse times the bordered matrix minus the identity.
    The condition estimate and the system order are those ``ivs.fit`` reports.
    """
    system = build_block_system(ds, lam)
    n = ds.n
    linear = ivs.build_design(ds.z)
    einv = scipy.linalg.lu_solve(scipy.linalg.lu_factor(system.penalized_cubic), np.eye(n))
    einv = 0.5 * (einv + einv.T)
    einv_z = einv @ linear
    gram_inv = np.linalg.inv(linear.T @ einv_z)
    inverse = np.block([
        [einv - einv_z @ gram_inv @ einv_z.T, einv_z @ gram_inv],
        [gram_inv @ einv_z.T, -gram_inv],
    ])
    diagnostics = ivs.fit(ds, lam).diagnostics
    return {
        "kkt_condition_estimate": diagnostics["kkt_condition_estimate"],
        "block_inverse_check": float(np.abs(inverse @ system.kkt - np.eye(n + 2)).max()),
        "instrument_groups": diagnostics["instrument_groups"],
    }


def cv_oracle(ds, cfg):
    """Cross-validation curve by brute force: one ``ivs.fit`` per fold and candidate.

    Refits each training fold at every grid lambda, stitches the held-out
    predictions with ``ivs.evaluate`` and scores each stitched vector against
    the full-sample weight matrix, one candidate at a time.  Shares only the
    fold split with ``cross_validate``.
    """
    assignment = _fold_assignment(ds.n, cfg.folds, cfg.seed)
    omega = weight_values(ivs.build_weight_matrix(ds.w))
    criteria = np.empty(cfg.grid.size)
    for j, lam in enumerate(cfg.grid):
        tilde = np.empty(ds.n)
        for fold in range(cfg.folds):
            held = assignment == fold
            sub = ivs.Dataset(y=ds.y[~held], z=ds.z[~held], w=ds.w[~held])
            tilde[held] = ivs.evaluate(ivs.fit(sub, lam), ds.z[held])
        r = ds.y - tilde
        criteria[j] = r @ omega @ r
    return criteria


def path_spectrum(ds):
    """Eigenvalues of L' E L (Omega = L L'), the spectrum PathSolver shifts by lambda.

    The cubic design is conditionally positive definite of order two only,
    so this spectrum has negative eigenvalues, and lambda = -(one of them)
    makes the shifted system singular.
    """
    chol = np.linalg.cholesky(weight_values(ivs.build_weight_matrix(ds.w)))
    s_mat = chol.T @ cubic_design(ds.z) @ chol
    return np.linalg.eigvalsh(0.5 * (s_mat + s_mat.T))


def criterion_quadrature_oracle(residuals, w, variance=1.0):
    """Integral form of the moment criterion for scalar instruments.

    Expands |n^-1 sum_i r_i exp(i w_i t)|^2 into pair cosines and integrates
    each against the Cauchy(0, 1/b) mixing density with Fourier-weighted
    adaptive quadrature; the total is scaled by the weight function's value
    at zero.  Never evaluates the Laplace closed form it is checking.
    """
    r = np.asarray(residuals, float)
    w = np.asarray(w, float).reshape(-1)
    n = r.size
    b = np.sqrt(variance / 2.0)
    gamma = 1.0 / b

    def density(t):
        return gamma / (np.pi * (t * t + gamma * gamma))

    total = float(np.sum(r * r))
    for i in range(n):
        for j in range(i + 1, n):
            gap = abs(w[i] - w[j])
            if gap == 0.0:
                pair = 1.0
            else:
                val = scipy.integrate.quad(
                    density, 0, np.inf, weight="cos", wvar=gap,
                    epsabs=1e-14, limit=400, full_output=1,
                )[0]
                pair = 2.0 * val
            total += 2.0 * r[i] * r[j] * pair
    return total / (2.0 * b) / n**2


def roughness_exact_integral(fit):
    """Exact integral of the squared second derivative over the knot range.

    The second derivative is piecewise linear between sorted knots, so each
    interval [z0, z1] contributes (z1 - z0)/3 (f0^2 + f0 f1 + f1^2).
    """
    zs = np.sort(fit.knots)
    f = ivs.evaluate_second_derivative(fit, zs)
    h = np.diff(zs)
    return float(np.sum(h / 3.0 * (f[:-1] ** 2 + f[:-1] * f[1:] + f[1:] ** 2)))


def constraint_residual(fit):
    """max(|sum delta|, |sum delta * knots|), the natural-spline constraint violation.

    A second formula for the fit's ``constraint_residual`` diagnostic, which
    reads max |Z' delta| off the solver's linear design.
    """
    return float(max(abs(fit.delta.sum()), abs(np.dot(fit.delta, fit.knots))))


def natural_interpolant(z, values):
    """Natural cubic spline through (z_i, values_i) via the unpenalized bordered system."""
    z = np.asarray(z, float)
    n = z.size
    linear = ivs.build_design(z)
    kkt = np.zeros((n + 2, n + 2))
    kkt[:n, :n] = cubic_design(z)
    kkt[:n, n:] = linear
    kkt[n:, :n] = linear.T
    sol = np.linalg.solve(kkt, np.concatenate([values, np.zeros(2)]))
    return ivs.SplineFit(a=sol[n:], delta=sol[:n], knots=z, lam=1.0)


_FORK = os.fork


def fork_on_cores(monkeypatch, cores):
    """Let the package see ``cores`` usable cores, or no ``os.fork`` with ``cores`` None; the returned list gets each child's pid.

    One entry per child forked by this process, so the list stays empty
    where the tasks run in this process.
    """
    forks = []
    if cores is None:
        monkeypatch.delattr(os, "fork", raising=False)
        return forks

    def fork():
        pid = _FORK()
        if pid:
            forks.append(pid)
        return pid

    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cores)))
    monkeypatch.setattr(os, "fork", fork, raising=False)
    return forks


@pytest.fixture
def rng():
    return np.random.default_rng(0)


@pytest.fixture(autouse=True)
def no_child_process_left():
    """Fail a test that leaves a child process behind, running or unreaped, such as a Monte Carlo worker."""
    yield
    try:
        left = os.waitpid(-1, os.WNOHANG)  # (0, 0) for a running child, (pid, status) for an unreaped one
    except ChildProcessError:  # no child at all
        return
    pytest.fail(f"a child process was left behind: waitpid read {left}")
