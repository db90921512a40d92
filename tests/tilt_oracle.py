"""Primal log-barrier solver for the tilting program, kept as a test oracle.

Solves the same program as :func:`ivspline.tilt` by a route that shares
nothing with it past the derivative smoother: a phase-I pass maximizing the
minimum slack finds a strictly feasible start, a damped-Newton central path
drives the barrier parameter to zero, and nonnegative least squares refits
the multipliers for a KKT certificate.  Each Newton step factors an n x n
matrix, so a tilt costs O(n^3) per step -- 0.3 to 0.5 s at n = 200 on a
2-core machine with one BLAS thread -- which is why it lives here and not
in the package.

The solver works in relative weights q = n p (simplex scaled to sum q = n).
"""

from __future__ import annotations

import numpy as np
import scipy.linalg
import scipy.optimize

import ivspline as ivs

MU_INITIAL = 1.0
MU_SHRINK = 0.2
MU_FLOOR = 1e-10
DECREMENT_TOL = 1e-10
OUTER_CAP = 200
INNER_CAP = 50


def _phi(fval, mu, slacks):
    return fval - mu * float(np.sum(np.log(slacks)))


def _newton_stage(x, mu, fval, fgrad, fhess, rows, eq, eq_rhs, tol, cap):
    """Damped Newton on f(x) - mu sum log(rows @ x) over the hyperplane eq'x = eq_rhs.

    ``x`` must be strictly feasible (rows @ x > 0).  Returns the new iterate,
    whether the stage converged, and the step count.  Convergence means the
    Newton decrement fell below ``tol``, or the decrement stagnated inside
    the quadratic region at the float-representable optimum (with nearly
    active constraints the Hessian stiffness grows like 1/mu and a fixed
    decrement target becomes unrepresentable).
    """
    m = x.size
    converged = False
    steps = 0
    prev_dec = np.inf
    stagnant = 0
    for _ in range(cap):
        s = rows @ x
        w = mu / s**2
        hess = fhess(x) + (rows.T * w) @ rows
        grad = fgrad(x) - rows.T @ (mu / s)
        try:
            cho = scipy.linalg.cho_factor(hess)
            hinv_g = scipy.linalg.cho_solve(cho, grad)
            hinv_e = scipy.linalg.cho_solve(cho, eq)
            nu = -float(eq @ hinv_g) / float(eq @ hinv_e)
            # with the multiplier in hand, solve against the projected
            # gradient directly: the difference of the two O(1) solves above
            # cancels catastrophically near convergence
            projected_grad = grad + nu * eq
            dx = -scipy.linalg.cho_solve(cho, projected_grad)
            # refinement passes; late-stage Hessians are stiff enough
            # (condition ~ 1/mu near active constraints) that the raw solve
            # error would dominate the Newton decrement
            for _ in range(3):
                dx += scipy.linalg.cho_solve(cho, -projected_grad - hess @ dx)
        except scipy.linalg.LinAlgError:
            bordered = np.zeros((m + 1, m + 1))
            bordered[:m, :m] = hess
            bordered[:m, m] = eq
            bordered[m, :m] = eq
            rhs = np.concatenate([-grad, [0.0]])
            sol = np.linalg.solve(bordered, rhs)
            dx, nu = sol[:m], float(sol[m])
            projected_grad = grad + nu * eq
        dec2 = max(float(-projected_grad @ dx), 0.0)
        dec = dec2**0.5
        if dec < tol:
            converged = True
            break
        steps += 1

        ds_dir = rows @ dx
        alpha = 1.0
        shrink = ds_dir < 0
        if shrink.any():
            alpha = min(alpha, 0.99 * float(np.min(-s[shrink] / ds_dir[shrink])))

        def projected(step):
            # candidate re-projected onto the equality hyperplane; Newton
            # preserves it only to solve precision and drift would accumulate
            cand = x + step * dx
            return cand + (eq_rhs - eq @ cand) / (eq @ eq) * eq

        if dec < 1e-3:
            # quadratic region: objective decreases per step are below the
            # floating-point resolution of phi, so an Armijo test is
            # meaningless; take damped pure-Newton polish steps and exit
            # once an already-small decrement stops improving (the
            # float-representable optimum for this barrier parameter)
            if dec >= 0.9 * prev_dec:
                stagnant += 1
                if stagnant >= 3:
                    converged = True
                    break
            else:
                stagnant = 0
            prev_dec = dec
            step = alpha
            cand = projected(step)
            for _ in range(60):
                if np.all(rows @ cand > 0):
                    break
                step *= 0.5
                cand = projected(step)
            else:
                break
            x = cand
            continue

        prev_dec = dec
        phi0 = _phi(fval(x), mu, s)
        accepted = False
        step = alpha
        for _ in range(60):
            cand = projected(step)
            s_cand = rows @ cand
            if np.all(s_cand > 0):
                phi_cand = _phi(fval(cand), mu, s_cand)
                if phi_cand <= phi0 - 0.01 * step * dec2:
                    accepted = True
                    break
            step *= 0.5
        if not accepted:
            # no measurable decrease; the damped full step is safe in-domain
            cand = projected(alpha)
            if not np.all(rows @ cand > 0):
                break
        x = cand
    return x, converged, steps


def _barrier_path(x, fval, fgrad, fhess, rows, eq, eq_rhs, mu_floor, final_tol):
    """Follow the central path mu -> 0; returns (x, mu_final, total steps, stalled).

    A stage that misses its tolerance within the inner cap is retried at the
    same barrier parameter on the next outer round, so a poorly centered
    start spends outer budget instead of failing outright.
    """
    mu = MU_INITIAL
    total = 0
    for _ in range(OUTER_CAP):
        last = mu < mu_floor
        tol = final_tol if last else max(final_tol, 1e-3 * mu)
        x, converged, steps = _newton_stage(
            x, mu, fval, fgrad, fhess, rows, eq, eq_rhs, tol, INNER_CAP
        )
        total += steps
        if converged:
            if last:
                return x, mu, total, False
            mu *= MU_SHRINK
        elif steps == 0:
            break  # line search cannot move; retrying would spin
    return x, mu, total, True


def _constraint_rows(ds, lam, direction):
    """Normalized nonvanishing rows of s * L diag(Y), and their knot indices.

    Row scaling leaves the feasible set unchanged and balances the barrier
    Hessian: near-interpolating smoothers give rows of very different norms.
    """
    a = direction.sign * ivs.derivative_smoother_matrix(ds, lam) * ds.y[None, :]
    scale = np.abs(a).max()
    if scale == 0.0:
        return a[:0], np.array([], dtype=int)
    keep = np.flatnonzero(np.abs(a).max(axis=1) > 1e-14 * scale)
    kept = a[keep]
    return kept / np.linalg.norm(kept, axis=1, keepdims=True), keep


def _phase_one(a: np.ndarray, eq_rhs: float):
    """Maximize the minimum slack of A q >= 0 over the scaled simplex.

    Returns a strictly feasible q, or raises naming the most violated
    constraint if the optimum margin is nonpositive.  Exits as soon as the
    iterate is comfortably strictly feasible: the margin maximizer itself is
    badly centered for the main objective (it can zero out coordinates), so
    an early near-uniform feasible point is the better start.  Otherwise mu
    runs down to ``MU_FLOOR``: a central point's margin trails the best one
    by up to (m + k) mu, so a program whose best margin is 1e-6 at m + k = 100
    shows a positive margin only once mu is well below 1e-8.
    """
    k, m = a.shape
    scale = max(1.0, float(np.abs(a).sum(axis=1).max()))
    q0 = np.ones(m)
    u0 = float((a @ q0).min()) - 1.0
    x = np.concatenate([q0, [u0]])
    rows = np.zeros((m + k, m + 1))
    rows[:m, :m] = np.eye(m)
    rows[m:, :m] = a
    rows[m:, m] = -1.0
    eq = np.concatenate([np.ones(m), [0.0]])

    grad_vec = np.zeros(m + 1)
    grad_vec[m] = -1.0
    zero_hess = np.zeros((m + 1, m + 1))
    early_exit = 1e-6 * scale
    mu = MU_INITIAL
    while mu >= MU_FLOOR:
        x, _, _ = _newton_stage(
            x, mu, lambda x: -x[m], lambda x: grad_vec, lambda x: zero_hess,
            rows, eq, eq_rhs, max(1e-8, 1e-3 * mu), INNER_CAP,
        )
        if float((a @ x[:m]).min()) > early_exit:
            return x[:m]
        mu *= MU_SHRINK

    q, margin = x[:m], float(x[m])
    slack = a @ q
    if margin <= 1e-10 * scale or slack.min() <= 0:
        worst = int(np.argmin(slack))
        raise ivs.InfeasibleConstraintsError(
            f"monotonicity constraints are infeasible; most violated at knot index {worst} "
            f"(best attainable margin {margin:.3e})",
            worst_constraint=worst,
        )
    return q


def _kkt_certificate(q, mu, a):
    """Optimality certificate: stationarity with fitted nonnegative multipliers,
    complementarity products, and the equality violation, all max-combined.

    Multipliers on rows that are active or nearly active are refitted by
    nonnegative least squares (the intercept multiplier enters sign-split);
    the rest keep their exact barrier values mu/slack.  Any nonnegative
    multiplier vector certifies, so the better of the active-set and the
    nearly-active-set fits is reported.
    """
    m = q.size
    grad_f = -0.5 / np.sqrt(q)
    mult_q = mu / q
    base = grad_f - mult_q
    slack = a @ q if a.size else np.zeros(0)
    barrier_mult = mu / slack if slack.size else np.zeros(0)
    eq_violation = abs(float(q.sum()) - m) / m

    def score(refit):
        mult_c = barrier_mult.copy()
        if refit.size:
            cols = np.column_stack([-a[refit].T, np.ones(m), -np.ones(m)])
            sol, _ = scipy.optimize.nnls(cols, -base)
            mult_c[refit] = sol[:-2]
            nu = float(sol[-2] - sol[-1])
        else:
            nu = -float(base.mean())
        r_stat = base - (a.T @ mult_c if a.size else 0.0) + nu
        comp = max(
            float((mult_q * q).max()),
            float((mult_c * slack).max()) if slack.size else 0.0,
        )
        return max(float(np.abs(r_stat).max()), comp, eq_violation)

    if not slack.size:
        return score(np.array([], dtype=int))
    top = max(1.0, float(slack.max()))
    return min(score(np.flatnonzero(slack <= rtol * top)) for rtol in (1e-6, 1e-3))


def barrier_tilt(ds, lam, direction=ivs.MonotoneDirection.INCREASING, start=None):
    """Solve the tilting program by the barrier path; returns a :class:`ivspline.TiltWeights`.

    Uniform weights are returned when they are feasible.  ``start`` supplies
    a strictly feasible simplex vector to start from instead of the phase-I
    point; the program is strictly convex, so every start reaches the same
    optimum.  ``active_constraints`` uses the package's definition (slack at
    most ``ACTIVE_SLACK_RTOL`` relative to the largest slack).
    """
    a_rows, kept = _constraint_rows(ds, lam, direction)
    n = ds.n
    rtol = ivs.monotone.ACTIVE_SLACK_RTOL

    uniform_slack = a_rows @ np.ones(n) if a_rows.size else np.zeros(0)
    if a_rows.size == 0 or uniform_slack.min() >= 0.0:
        active = np.array([], dtype=int)
        if uniform_slack.size:
            top = max(1.0, float(uniform_slack.max()))
            active = kept[np.flatnonzero(uniform_slack <= rtol * top)]
        return ivs.TiltWeights(
            p=np.full(n, 1.0 / n), objective=0.0, kkt_residual=0.0,
            active_constraints=active, diagnostics={"phase1": False, "newton_steps": 0},
        )

    q0 = None
    if start is not None:
        cand = n * np.asarray(start, dtype=float).reshape(-1)
        if cand.size == n and np.all(cand > 0) and np.all(a_rows @ cand > 0):
            q0 = n * cand / cand.sum()
    used_phase1 = q0 is None
    if used_phase1:
        q0 = _phase_one(a_rows, float(n))

    rows = np.vstack([np.eye(n), a_rows])
    q, mu_final, steps, stalled = _barrier_path(
        q0,
        fval=lambda q: n - float(np.sum(np.sqrt(q))),
        fgrad=lambda q: -0.5 / np.sqrt(q),
        fhess=lambda q: np.diag(0.25 * q**-1.5),
        rows=rows,
        eq=np.ones(n),
        eq_rhs=float(n),
        mu_floor=MU_FLOOR,
        final_tol=DECREMENT_TOL,
    )
    if stalled:
        raise ivs.SolverStallError(
            "barrier oracle hit its iteration cap before converging",
            diagnostics={"mu": mu_final, "newton_steps": steps},
        )

    slack = a_rows @ q
    active_local = np.flatnonzero(slack <= rtol * max(1.0, float(slack.max())))
    return ivs.TiltWeights(
        p=q / n,
        objective=float(n - np.sum(np.sqrt(q))),
        kkt_residual=_kkt_certificate(q, mu_final, a_rows),
        active_constraints=kept[active_local],
        diagnostics={"phase1": used_phase1, "newton_steps": steps, "mu_final": mu_final, "slack": slack},
    )
