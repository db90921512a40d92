"""Pick the regularization level by 2-fold cross-validation.

The data are split at random into two folds; each fold is predicted by the
fit on the other fold, and the stitched out-of-fold prediction vector is
scored with the full-sample moment criterion over a 400-point grid of
candidate values.
"""

import numpy as np

import ivspline as ivs

cfg = ivs.DgpConfig(n=200, rho_ev=0.5, rho_wz=0.9, g_id="g2", seed=11)
ds = ivs.generate(cfg)["dataset"]

result = ivs.cross_validate(ds, cfg=ivs.CvConfig(seed=3))
print(f"selected lambda: {result.lambda_star:.6g}")
print(f"fold sizes: {np.bincount(result.fold_assignment)}")
print(f"lambda* index: {result.lambda_star_index} (on the grid's edge: {result.boundary_hit})")

# a slice through the criterion curve
curve = result.curve
print("\n lambda       cv criterion")
for idx in [0, 50, 100, 200, 300, 399]:
    marker = "   <- minimum" if curve[idx, 0] == result.lambda_star else ""
    print(f"{curve[idx, 0]:10.6f}   {curve[idx, 1]:.6g}{marker}")

# refit on the full sample at the selected value and score against the truth
fit = ivs.fit(ds, result.lambda_star)
grid = ivs.evaluation_grid()
values = ivs.evaluate(fit, grid)
truth = ivs.true_function("g2", grid)
print(f"\ngrid-averaged squared error of the refit: {np.mean((values - truth) ** 2):.4f}")
