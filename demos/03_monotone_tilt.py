"""Impose monotonicity by tilting the observation weights.

When the target relationship is known to be increasing, the fitted knot
derivatives can be constrained to be nonnegative: the observations are
reweighted by the simplex vector closest to uniform (in a square-root
divergence) for which the reweighted fit has correctly signed derivatives
at every knot, and the model is refit with those weights.
"""

import numpy as np

import ivspline as ivs

rng = np.random.default_rng(11)
n = 40
z = np.sort(rng.uniform(-2, 2, n))
rng.shuffle(z)
w = z + 0.4 * rng.standard_normal(n)
y = ivs.true_function("g3", z) + 0.9 * rng.standard_normal(n)  # increasing truth, heavy noise
ds = ivs.Dataset(y=y, z=z, w=w)

lam = 1e-4  # light smoothing on purpose, so the unconstrained fit wiggles
plain = ivs.fit(ds, lam)
plain_deriv = ivs.evaluate_derivative(plain, ds.z)
print(f"unconstrained knot derivatives: min {plain_deriv.min():+.4f}, "
      f"{(plain_deriv < 0).sum()} of {n} negative")

weights = ivs.tilt(ds, lam, direction=ivs.MonotoneDirection.INCREASING)
print(f"\ntilt objective (0 would be uniform weights): {weights.objective:.6f}")
print(f"KKT residual of the tilting program: {weights.kkt_residual:.2e}")
print(f"active constraints at knots: {list(weights.active_constraints)}")
diag = weights.diagnostics
print(f"dual working set {[int(k) for k in diag['working_set']]} after {diag['newton_steps']} "
      f"Newton steps, duality gap {diag['duality_gap']:.1e}")
print(f"largest and smallest relative weights n*p: "
      f"{(n * weights.p).max():.3f}, {(n * weights.p).min():.3f}")

constrained = ivs.fit_monotone(ds, lam, direction=ivs.MonotoneDirection.INCREASING)
cons_deriv = ivs.evaluate_derivative(constrained, ds.z)
print(f"\nconstrained knot derivatives: min {cons_deriv.min():+.2e} (>= 0 up to solver slack)")

grid = ivs.evaluation_grid()
truth = ivs.true_function("g3", grid)
for name, fit in [("unconstrained", plain), ("constrained", constrained)]:
    err = np.mean((ivs.evaluate(fit, grid) - truth) ** 2)
    print(f"grid-averaged squared error, {name}: {err:.4f}")
