"""Monotonicity by weight tilting: reweight observations, then refit.

The fitted spline is linear in the outcome vector, so its knot derivatives
are too: a matrix L maps Y to (g'(Z_1), ..., g'(Z_n)).  Monotonicity at the
knots is imposed by tilting the empirical distribution -- replacing the
uniform observation weights 1/n by a simplex vector p chosen as close to
uniform as possible, measured by the root divergence n - sum sqrt(n p_i),
subject to the reweighted fit having correctly signed knot derivatives:

    min  n - sum_i sqrt(n p_i)
    s.t. sum p_i = 1,  p_i >= 0,  s * L (p o Y) >= 0 componentwise,

with s = +1 for increasing and -1 for decreasing.  The refit replaces each
Y_i by its tilted relative weight n p_i times Y_i, so uniform weights
reproduce the unconstrained fit exactly.

The solver works in relative weights q = n p (sum q = n) and on the
normalized nonvanishing rows A of s * L diag(Y).  The Lagrangian is
stationary in q at

    q_i = 1 / (4 d_i^2),   d = nu - A' mu > 0,

for the simplex multiplier nu and the constraint multipliers mu >= 0, which
leaves the concave dual

    g(nu, mu) = n - nu n - sum_i 1 / (4 d_i)

(the tilting program of Hall & Huang 2001, Ann. Statist. 29; the dual is
handled as empirical-likelihood duals are, Owen 2001, ch. 3).  Only the few
constraints active at the optimum carry nonzero multipliers, so the dual is
maximized over a working set W of rows: Newton ascent in (nu, mu_W) costs
O(n |W|^2) per step, a multiplier that reaches zero leaves W, and once the
ascent on W has converged the most violated row outside W joins it.  A
final primal polish, the linearized Newton update of q, puts sum q = n and
A_W q = 0 at roundoff level.

The same iterates certify infeasibility; a separate feasibility pass (a
phase-I linear program) decides every ascent they leave uncertified: a line
search without an ascent step, the step cap, or a final KKT residual above
KKT_TOL.  An iterate with nu <= 0 (and
d > 0, mu >= 0) has A' mu < 0, so mu'(A q) < 0 for every q >= 0 on the
simplex: by Gordan's alternative no feasible weights exist.  Every iterate
bounds the best attainable margin max_q min_j (A q)_j by n max_i (A' mu)_i /
sum mu; the program is infeasible once that bound reaches INFEASIBLE_MARGIN.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

import numpy as np

from .datamodel import Dataset
from .errors import InfeasibleConstraintsError, SolverStallError
from .solver import _Factored
from .spline import SplineFit, _derivative_rhs

# Half the squared Newton decrement estimates the dual's distance to its
# optimum on W; 1e-20 is far below the 1e-8 objective accuracy the tests
# certify, and the quadratic convergence of the last steps jumps past it:
# on 30 draws of the n = 200 g3 design, from up to 5e-10 to below 5e-21.
DECREMENT_TOL = 1e-20
# A row outside W is violated when its normalized slack is below -tol.  The
# polished slacks of W rows (and of exact duplicates of them) are roundoff,
# about sqrt(n) eps max q.
VIOLATION_TOL = 1e-13
# The program counts as infeasible once the dual or the phase-I program shows that
# no weights give every normalized knot slack more than this margin, four orders
# above the slack roundoff and the margin threshold of the barrier oracle's phase-I.
INFEASIBLE_MARGIN = 1e-10
# The tests' bound on a returned KKT residual; certified answers read below 1e-10.
KKT_TOL = 1e-8
# On 258 g1-g3 draws, n in {50, 200, 2000}, lambda in {1e-5, 1e-3}, the ascent took at
# most 118 iterations (90 Newton steps, the rest working-set additions) and halved a
# step at most once; 60 halvings take a step below double precision's 2^-53.
STEP_CAP = 500
LINE_SEARCH_CAP = 60
# There, working-set slacks read at most 9.3e-16 of the largest, all others at least
# 4.5e-9; the few below 1e-6 (11 of 256 certified draws) count as active too.
ACTIVE_SLACK_RTOL = 1e-6
# A constraint row whose largest entry is at most this fraction (about 50 eps) of
# the largest row's is roundoff of a zero row, which normalizing would blow up.
_VANISHING_ROW_RTOL = 1e-14


class MonotoneDirection(enum.Enum):
    INCREASING = "increasing"
    DECREASING = "decreasing"

    @property
    def sign(self) -> float:
        return 1.0 if self is MonotoneDirection.INCREASING else -1.0


@dataclass(frozen=True)
class TiltWeights:
    """Optimal simplex weights of the tilting program plus optimality certificates.

    ``objective`` is n - sum sqrt(n p_i), zero exactly at uniform weights.
    ``kkt_residual`` is read off the dual solution: the max of the
    stationarity residual |d - 1/(2 sqrt(q))|, any negative multiplier, the
    complementarity products mu_j * slack_j on the working set, any negative
    constraint slack, and the simplex violation |sum q - n| / n, all on the
    sum-q = n normalization.
    ``active_constraints`` lists knot indices whose derivative constraint has
    (relatively) vanishing slack at the optimum.
    ``diagnostics`` holds ``newton_steps`` (dual Newton steps), ``slack`` (the
    normalized constraint slacks), ``working_set`` (knot indices of the
    working set), ``multipliers`` (their mu, in the same order) and
    ``duality_gap`` (primal objective minus dual value).
    """

    p: np.ndarray
    objective: float
    kkt_residual: float
    active_constraints: np.ndarray
    diagnostics: dict = field(default_factory=dict)


def derivative_smoother_matrix(ds: Dataset, lam: float) -> np.ndarray:
    """n x n matrix L with L @ Y = fitted first derivative at every knot.

    The fit maps (y; 0) to (delta; a) by M = diag(F, I) K^-1 diag(F', I),
    with K the bordered matrix in the coordinates u = F^-1 delta and F the
    weight matrix's factor (see :mod:`ivspline.solver`).  With B = [D, 1 (0, 1)]
    the derivative design, D_ij = sign(z_i - z_j) (z_i - z_j)^2 / 4,
    L = B M [I; 0].  K is symmetric, so M is too, and L' is the first n rows
    of one solve against B' (:meth:`~ivspline.solver._Factored.solve`, which
    maps through F' and F), refined until it is accurate to
    ``solver.REFINE_RTOL`` or has made ``solver._REFINEMENT_STEPS``
    corrections; refining the derivative design as right-hand sides makes L
    reproduce linear outcomes (L 1 = 0, L z = 1).
    """
    return _smoother(_Factored(ds, lam))[0]


def _smoother(system: _Factored) -> tuple[np.ndarray, int, float]:
    """L, and the refinement steps and backward error of its solve (see :meth:`_Factored.solve`)."""
    delta, _, steps, eta, _ = system.solve(_derivative_rhs(system.knots))
    return delta.T, steps, eta


def _normalized_constraints(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Remove vanishing constraint rows (0 >= 0 for every p) and normalize the rest.

    Row normalization leaves the feasible set untouched but puts every slack
    on one scale: near-interpolating smoothers produce rows of wildly
    different norms, and unit rows let one violation tolerance and one
    ``ACTIVE_SLACK_RTOL`` serve them all and keep the dual Newton system
    balanced.
    """
    row_max = np.abs(a).max(axis=1)
    keep = np.flatnonzero(row_max > _VANISHING_ROW_RTOL * row_max.max())
    kept = a[keep]
    return kept / np.linalg.norm(kept, axis=1, keepdims=True), keep


def _active(slack: np.ndarray) -> np.ndarray:
    """Rows whose slack is at most ``ACTIVE_SLACK_RTOL`` relative to the largest."""
    return np.flatnonzero(slack <= ACTIVE_SLACK_RTOL * max(1.0, float(slack.max(initial=0.0))))


def _margin_bound(x: np.ndarray, d: np.ndarray) -> float:
    """Upper bound, certified by the dual point x = (nu, mu), on max_q min_j (A q)_j.

    For mu >= 0 and any q >= 0 with sum q = n, min_j (A q)_j <= mu'A q /
    sum mu <= n max_i (A' mu)_i / sum mu, and A' mu = nu - d.  Negative
    whenever nu <= 0, which is Gordan's certificate of infeasibility.
    """
    total = float(x[1:].sum())
    if total <= 0.0:
        return np.inf
    return d.size * (float(x[0]) - float(d.min())) / total


def _infeasible(source: str, knot, margin: float) -> InfeasibleConstraintsError:
    return InfeasibleConstraintsError(
        f"monotonicity constraints are infeasible; {source} puts its largest multiplier on knot "
        f"index {knot} (best attainable margin at most {margin:.3e})", worst_constraint=int(knot))


def _phase_one(a: np.ndarray) -> tuple[float, int]:
    """max_q min_j (A q)_j over q >= 0, sum q = n, and the row with the largest multiplier.

    HiGHS solves it at feasibility tolerances of ``INFEASIBLE_MARGIN``, the margin's scale.
    """
    from scipy.optimize import linprog  # a second to import; only uncertified answers get here

    k, n = a.shape
    tol = {f"{kind}_feasibility_tolerance": INFEASIBLE_MARGIN for kind in ("primal", "dual")}
    res = linprog(np.append(np.zeros(n), -1.0), A_ub=np.column_stack([-a, np.ones(k)]), b_ub=np.zeros(k),
                  A_eq=np.append(np.ones(n), 0.0)[None, :], b_eq=[n],
                  bounds=[(0.0, None)] * n + [(None, None)], options=tol)
    # 0.0 - fun, not -fun: a best margin of exactly 0 reads +0, never -0, in the error message
    return (0.0 - res.fun, int(np.argmax(np.abs(res.ineqlin.marginals)))) if res.success else (np.nan, 0)


def _uncertified(a: np.ndarray, kept: np.ndarray, reason: str, steps: int,
                 work: list[int]) -> InfeasibleConstraintsError | SolverStallError:
    """The error for an ascent that ended without a certified answer, decided by phase-I.

    Infeasible when the phase-I program's best margin is at most
    ``INFEASIBLE_MARGIN``; otherwise a stall that names ``reason`` and the margin.
    """
    margin, worst = _phase_one(a)
    if margin <= INFEASIBLE_MARGIN:
        return _infeasible("the phase-I program", kept[worst], margin)
    return SolverStallError(f"{reason}; weights with margin {margin:.3e} exist",
                            diagnostics={"newton_steps": steps, "working_set": kept[work]})


def tilt(ds: Dataset, lam: float,
         direction: MonotoneDirection = MonotoneDirection.INCREASING) -> TiltWeights:
    """Solve the tilting program and return the optimal simplex weights.

    The dual is maximized over a growing working set of constraint rows (see
    the module docstring).  The ascent starts at uniform weights with an
    empty working set, where its gradient is zero, so when uniform weights
    already satisfy the sign constraints its first polish returns them:
    uniform maximizes the objective over the whole simplex, so feasibility
    implies optimality.
    Raises :class:`InfeasibleConstraintsError` when an ascent iterate
    certifies that no weights are feasible.  An ascent that ends uncertified
    -- the line search finds no ascent step, ``STEP_CAP`` iterations pass, or
    the answer's KKT residual exceeds ``KKT_TOL`` -- goes to a phase-I linear
    program: :class:`InfeasibleConstraintsError` when its best margin is at
    most ``INFEASIBLE_MARGIN``, :class:`SolverStallError` otherwise.
    """
    return _tilt(derivative_smoother_matrix(ds, lam), ds.y, direction)


def _tilt(smoother: np.ndarray, y: np.ndarray, direction: MonotoneDirection) -> TiltWeights:
    a_rows, kept = _normalized_constraints(direction.sign * smoother * y[None, :])
    n = y.shape[0]
    work: list[int] = []
    x = np.array([0.5])  # (nu, mu_W); nu = 1/2 with no multipliers gives q = 1
    steps = 0
    for _ in range(STEP_CAP):
        basis = np.column_stack([np.ones(n), -a_rows[work].T])
        d = basis @ x
        q = 0.25 / d**2
        curvature = 0.5 / d**3
        grad = basis.T @ q
        grad[0] -= n
        try:
            step = np.linalg.solve((basis.T * curvature) @ basis, grad)
        except np.linalg.LinAlgError:
            raise _uncertified(a_rows, kept, "tilt Newton system is singular", steps, work) from None
        dec2 = float(grad @ step)
        if dec2 <= DECREMENT_TOL:
            # primal polish: the linearized Newton update of q lands on
            # sum q = n and A_W q = 0 to roundoff
            q = q - curvature * (basis @ step)
            slack = a_rows @ q
            outside = slack.copy()
            outside[work] = np.inf
            # initial=inf: zero outcomes leave no rows, and no row is violated
            if outside.min(initial=np.inf) >= -VIOLATION_TOL:
                # the certificate reads the dual after the same final step,
                # which leaves stationarity second order in its size
                x = x + step
                d = basis @ x
                break
            work.append(int(np.argmin(outside)))
            x = np.append(x, 0.0)
            continue

        alpha, leaving = 1.0, None
        d_step = basis @ step
        falling = np.flatnonzero(step[1:] < 0)
        if falling.size:
            ratios = -x[1:][falling] / step[1:][falling]
            j = int(np.argmin(ratios))
            if ratios[j] < 1.0:
                alpha, leaving = float(ratios[j]), int(falling[j])
        # Armijo test on g(x + alpha step) - g(x) = alpha (sum_i d_step_i /
        # (4 d_i d_new_i) - n step_nu), a form without the cancellation of
        # differencing two O(n) dual values; a full Newton step near the
        # optimum gains dec2 / 2, so it passes at a quarter of that
        for _ in range(LINE_SEARCH_CAP):
            cand = x + alpha * step
            d_new = basis @ cand
            if d_new.min() > 0.0 and (0.25 / (d * d_new)) @ d_step - n * step[0] >= 0.25 * dec2:
                break
            alpha *= 0.5
            leaving = None
        else:
            raise _uncertified(a_rows, kept, "tilt line search found no ascent step", steps, work)
        steps += 1
        x = cand
        if leaving is not None:
            del work[leaving]
            x = np.delete(x, 1 + leaving)
        margin = _margin_bound(x, d_new)
        if margin <= INFEASIBLE_MARGIN:
            raise _infeasible("the dual certificate", kept[work[int(np.argmax(x[1:]))]], margin)
    else:
        raise _uncertified(a_rows, kept, "tilt solver hit its iteration cap before converging", steps, work)

    if not q.min() >= 0.0:
        raise _uncertified(a_rows, kept, f"tilt polish left a negative weight {q.min():.3e}", steps, work)
    mu = x[1:]
    objective = float(n - np.sum(np.sqrt(q)))
    dual = float(n - x[0] * n - np.sum(0.25 / d))
    residual = max(
        abs(float(q.sum()) - n) / n,
        -float(slack.min(initial=0.0)),
        -float(mu.min(initial=0.0)),
        float(np.abs(mu * slack[work]).max(initial=0.0)),
        float(np.abs(d - 0.5 / np.sqrt(q)).max()),
    )
    if residual > KKT_TOL:
        raise _uncertified(a_rows, kept, f"tilt stopped at KKT residual {residual:.3e}", steps, work)
    return TiltWeights(
        p=q / n,
        objective=objective,
        kkt_residual=residual,
        active_constraints=kept[_active(slack)],
        diagnostics={
            "newton_steps": steps,
            "slack": slack,
            "working_set": kept[work],
            "multipliers": mu.copy(),
            "duality_gap": objective - dual,
        },
    )


def fit_monotone(ds: Dataset, lam: float,
                 direction: MonotoneDirection = MonotoneDirection.INCREASING) -> SplineFit:
    """Tilt the observation weights, then refit with the reweighted outcomes.

    Each outcome is scaled by its relative weight n p_i (the ratio of the
    tilted weight to the uniform 1/n), so uniform tilting reproduces the
    unconstrained fit exactly and the refit's knot derivatives inherit the
    sign constraint from the tilting program.  The smoother and the refit
    share one factorization of the bordered system, so the refit is a
    single O(n^2) solve.
    """
    return _fit_monotone(_Factored(ds, lam), ds.y, direction)


def _fit_monotone(system: _Factored, y: np.ndarray, direction: MonotoneDirection) -> SplineFit:
    smoother, steps, eta = _smoother(system)
    weights = _tilt(smoother, y, direction)
    refit = system.fit(y.shape[0] * weights.p * y)
    refit.diagnostics["smoother_refinement_steps"] = steps
    refit.diagnostics["smoother_backward_error"] = eta
    refit.diagnostics["tilt_objective"] = weights.objective
    refit.diagnostics["tilt_kkt_residual"] = weights.kkt_residual
    refit.diagnostics["tilt_active_constraints"] = [int(i) for i in weights.active_constraints]
    return refit
