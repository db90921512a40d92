"""A small simulation study: bias, variance, and MSE over replications.

Each replication draws a fresh endogenous sample, selects the
regularization level by 2-fold cross-validation, fits, and evaluates on a
fixed grid of 100 points on [-2, 2].  Pointwise squared bias and
across-replication variance then average over the grid.  Replication seeds
are split deterministically from the master seed, so the report is
bit-reproducible.  The replications run in forked worker processes, one
per core, and the report is the same as a serial run's, bit for bit.

Run time: about 1.5 s on a 2-core machine (2.5 s with the replications
run one at a time).
"""

import ivspline as ivs

cfg = ivs.DgpConfig(n=200, rho_ev=0.5, rho_wz=0.9, g_id="g1", seed=42)
report = ivs.monte_carlo(cfg, "unconstrained", replications=100, cv=ivs.CvConfig(seed=1))

print(f"estimator:     {report.estimator_tag}")
print(f"replications:  {report.replications} (failures: {report.failures})")
print(f"squared bias:  {report.bias_sq:.4f}")
print(f"variance:      {report.variance:.4f}")
print(f"MSE:           {report.mse:.4f}")

# the decomposition holds pointwise by construction
pp = report.per_point
gap = abs(pp["mse"] - pp["bias_sq"] - pp["variance"]).max()
print(f"\nmax |mse - bias^2 - variance| over the grid: {gap:.2e}")

# where does the error live? mostly at the grid edges, where data are scarce
grid = report.grid
for lo, hi in [(-2.0, -1.0), (-1.0, 1.0), (1.0, 2.0)]:
    band = (grid >= lo) & (grid <= hi)
    print(f"MSE on [{lo:+.0f}, {hi:+.0f}]: {pp['mse'][band].mean():.4f}")
