"""Fit a spline through instrument-weighted moments and inspect its derivatives.

We simulate a small endogenous design: the regressor z is driven by an
instrument w plus a shock that also enters the outcome noise, so ordinary
smoothing of y on z would be biased.  The estimator instead minimizes an
instrument-weighted moment criterion plus a roughness penalty, which has a
closed-form natural-cubic-spline solution.
"""

import numpy as np

import ivspline as ivs

rng = np.random.default_rng(7)
n = 60
instrument = rng.standard_normal(n)
first_stage_shock = rng.standard_normal(n)
z = (2.0 * instrument + first_stage_shock) / np.sqrt(5.0)
noise = (first_stage_shock + rng.standard_normal(n)) / np.sqrt(2.0)  # endogenous
truth = np.sin(2.0 * z) + 0.5 * z
ds = ivs.Dataset(y=truth + 0.5 * noise, z=z, w=instrument)

lam = 0.01
fit = ivs.fit(ds, lam)

print(f"fitted intercept/slope: {fit.a.round(4)}")
print(f"criterion at solution:  {fit.diagnostics['criterion']:.6g}")
print(f"roughness penalty term: {fit.diagnostics['roughness']:.6g}")
print(f"constraint residual:    {fit.diagnostics['constraint_residual']:.2e}")

# the fit is a function defined on the whole real line
grid = np.linspace(-2.5, 2.5, 9)
print("\n   z      truth    ghat     ghat'")
for zv in grid:
    print(
        f"{zv:+.2f}   {np.sin(2*zv) + 0.5*zv:+.3f}   "
        f"{ivs.evaluate(fit, zv):+.3f}   {ivs.evaluate_derivative(fit, zv):+.3f}"
    )

# naturality: the curvature vanishes outside the observed z range,
# so extrapolation is linear
outside = np.array([z.min() - 1.0, z.max() + 1.0])
print("\nsecond derivative outside the knot range:",
      np.abs(ivs.evaluate_second_derivative(fit, outside)).max())

# the two solution routes (bordered LU solve vs the spectral path solver) agree
path_delta, path_a = ivs.PathSolver(ds).coefficients(lam)
print("max gap between the two coefficient routes:",
      max(np.abs(fit.delta - path_delta).max(), np.abs(fit.a - path_a).max()))
