import dataclasses
import multiprocessing

import numpy as np
import pytest

import ivspline as ivs
import ivspline.selection as selection
import ivspline.spline as spline
from conftest import cv_on_cores, cv_oracle, near_ties, path_spectrum, random_instance, weight_values


def linear_noise_free(n=12, seed=0):
    rng = np.random.default_rng(seed)
    z = np.linspace(-1, 1, n) + rng.uniform(-0.02, 0.02, n)
    w = z + 0.3 * rng.standard_normal(n)
    return ivs.Dataset(y=1.0 + 2.0 * z, z=z, w=w)


class TestDefaultGrid:
    def test_size_and_endpoints(self):
        grid = ivs.default_grid()
        assert grid.shape == (400,)
        # p = 1e-5 maps to 1e-5/(1 - 1e-5); p = 0.7 maps to 7/3
        assert grid[0] == pytest.approx(1e-5 / (1 - 1e-5), rel=1e-12)
        assert grid[-1] == pytest.approx(0.7 / 0.3, rel=1e-12)

    def test_strictly_increasing(self):
        assert np.all(np.diff(ivs.default_grid()) > 0)


class TestCvConfig:
    def test_grid_validation(self):
        with pytest.raises(ValueError):
            ivs.CvConfig(grid=[])
        with pytest.raises(ValueError):
            ivs.CvConfig(grid=[0.1, -0.2])
        with pytest.raises(ValueError):
            ivs.CvConfig(folds=1)
        with pytest.raises(ValueError):
            ivs.CvConfig(folds=2.5)
        for seed in (1.5, -1):
            with pytest.raises(ValueError, match="seed"):
                ivs.CvConfig(seed=seed)


class TestCrossValidate:
    def test_needs_enough_rows(self):
        ds = random_instance(1, n=5)
        with pytest.raises(ivs.SizeError):
            ivs.cross_validate(ds)

    def test_tie_break_on_noise_free_linear(self):
        result = ivs.cross_validate(linear_noise_free(), cfg=ivs.CvConfig(seed=3))
        assert result.lambda_star == ivs.default_grid()[0]
        assert result.lambda_star_index == 0
        assert result.boundary_hit

    def test_deterministic_given_seed(self):
        ds = random_instance(2, n=16)
        cfg = ivs.CvConfig(seed=9)
        r1 = ivs.cross_validate(ds, cfg=cfg)
        r2 = ivs.cross_validate(ds, cfg=cfg)
        assert r1.lambda_star == r2.lambda_star
        assert np.array_equal(r1.curve, r2.curve)
        assert np.array_equal(r1.fold_assignment, r2.fold_assignment)

    def test_positional_config_matches_keyword(self):
        ds = random_instance(2, n=16)
        positional = ivs.cross_validate(ds, ivs.CvConfig(seed=9))
        keyword = ivs.cross_validate(ds, cfg=ivs.CvConfig(seed=9))
        for field in dataclasses.fields(ivs.CvResult):
            assert np.array_equal(getattr(positional, field.name), getattr(keyword, field.name))

    def test_fold_assignment_is_balanced_partition(self):
        ds = random_instance(3, n=17)
        result = ivs.cross_validate(ds, cfg=ivs.CvConfig(seed=1))
        counts = np.bincount(result.fold_assignment, minlength=2)
        assert counts.sum() == 17
        assert abs(counts[0] - counts[1]) <= 1

    def test_lambda_star_in_grid(self):
        ds = random_instance(4, n=14)
        result = ivs.cross_validate(ds, cfg=ivs.CvConfig(seed=5))
        assert result.lambda_star in ivs.default_grid()
        assert result.lambda_star == result.curve[np.argmin(result.curve[:, 1]), 0]
        assert result.lambda_star == ivs.default_grid()[result.lambda_star_index]
        assert result.boundary_hit == (result.lambda_star_index in (0, 399))
        assert result.invalid_candidates == int(np.isinf(result.curve[:, 1]).sum())

    def test_curve_invariant_to_fold_relabeling(self, monkeypatch):
        ds = random_instance(5, n=14)
        base = ivs.cross_validate(ds, cfg=ivs.CvConfig(seed=7))
        original = selection._fold_assignment
        monkeypatch.setattr(
            selection, "_fold_assignment", lambda n, folds, seed: 1 - original(n, folds, seed)
        )
        flipped = ivs.cross_validate(ds, cfg=ivs.CvConfig(seed=7))
        assert np.allclose(base.curve[:, 1], flipped.curve[:, 1], rtol=1e-12)
        assert base.lambda_star == flipped.lambda_star

    def test_three_folds_supported_but_flagged(self):
        ds = random_instance(6, n=18)
        result = ivs.cross_validate(ds, cfg=ivs.CvConfig(folds=3, seed=2))
        assert result.lambda_star in ivs.default_grid()

    def test_criterion_matches_manual_assembly(self):
        # stitch the out-of-fold prediction vector by hand at one lambda
        ds = random_instance(7, n=12)
        lam_index = 200
        lam = ivs.default_grid()[lam_index]
        cfg = ivs.CvConfig(seed=11)
        result = ivs.cross_validate(ds, cfg=cfg)
        assignment = result.fold_assignment
        om = ivs.build_weight_matrix(ds.w, ivs.KernelSpec())
        tilde = np.zeros(ds.n)
        for fold in (0, 1):
            held = assignment == fold
            sub = ivs.Dataset(y=ds.y[~held], z=ds.z[~held], w=ds.w[~held])
            f = ivs.fit(sub, lam)
            tilde[held] = ivs.evaluate(f, ds.z[held])
        r = ds.y - tilde
        assert result.curve[lam_index, 1] == pytest.approx(float(r @ weight_values(om) @ r), rel=1e-8)

    def test_custom_grid(self):
        ds = random_instance(8, n=12)
        cfg = ivs.CvConfig(grid=[0.01, 0.1, 1.0], seed=0)
        result = ivs.cross_validate(ds, cfg=cfg)
        assert result.lambda_star in (0.01, 0.1, 1.0)
        assert result.curve.shape == (3, 2)

    def test_interior_winner_is_not_a_boundary_hit(self):
        ds = random_instance(10, n=40)
        cfg = ivs.CvConfig(grid=np.logspace(-5, 1, 40), seed=2)
        result = ivs.cross_validate(ds, cfg=cfg)
        assert 0 < result.lambda_star_index < 39
        assert not result.boundary_hit
        assert result.invalid_candidates == 0

    def test_singular_candidate_counted_invalid(self):
        # a candidate equal to minus a negative eigenvalue of one fold's path
        # spectrum cannot be solved on that fold; the others still compete
        ds = random_instance(11, n=30)
        cfg = ivs.CvConfig(seed=4)
        held = ivs.cross_validate(ds, cfg=cfg).fold_assignment == 0
        sub = ivs.Dataset(y=ds.y[~held], z=ds.z[~held], w=ds.w[~held])
        singular = -path_spectrum(sub).min()
        assert singular > 0
        result = ivs.cross_validate(ds, cfg=ivs.CvConfig(grid=[0.01, singular, 1.0], seed=4))
        assert result.invalid_candidates == 1
        assert np.isinf(result.curve[1, 1])
        assert result.lambda_star in (0.01, 1.0)


class TestBatchedScanAgainstOracle:
    """The batched path scan against one ivs.fit per fold and candidate."""

    def test_custom_grid_n40(self):
        ds = random_instance(12, n=40)
        cfg = ivs.CvConfig(grid=np.logspace(-5, 1, 40), seed=3)
        self.check(ds, cfg)

    def test_default_grid_n16(self):
        self.check(random_instance(13, n=16), ivs.CvConfig(seed=8))

    @staticmethod
    def check(ds, cfg):
        result = ivs.cross_validate(ds, cfg=cfg)
        oracle = cv_oracle(ds, cfg)
        assert np.all(np.isfinite(result.curve[:, 1]))
        assert np.allclose(result.curve[:, 1], oracle, rtol=1e-8, atol=0)
        assert result.lambda_star_index == int(np.argmin(oracle))

    @pytest.mark.parametrize("rounded", [False, True])
    def test_blocked_predictions_equal_the_whole_product(self, rounded):
        # held-out folds of 150 rows, more than one row block of the basis: the
        # curve equals the scan with each fold's whole held-out design bit for bit
        ds = ivs.generate(ivs.DgpConfig(n=300, rho_ev=0.5, rho_wz=0.7, g_id="g3", seed=9))["dataset"]
        if rounded:
            ds = ivs.Dataset(y=ds.y, z=ds.z, w=np.round(ds.w, 1))
        cfg = ivs.CvConfig(seed=1)
        result = ivs.cross_validate(ds, cfg=cfg)
        tilde = np.empty((ds.n, cfg.grid.size))
        valid = np.ones(cfg.grid.size, dtype=bool)
        for fold in range(cfg.folds):
            held = result.fold_assignment == fold
            assert held.sum() > spline._CUBIC_BLOCK
            sub = ivs.Dataset(y=ds.y[~held], z=ds.z[~held], w=ds.w[~held])
            delta, a, ok = ivs.PathSolver(sub).path(cfg.grid)
            valid &= ok
            d = np.abs(np.subtract.outer(ds.z[held], sub.z))
            tilde[held] = (d * d * d / 12.0) @ delta + a[0] + np.outer(ds.z[held], a[1])
        criteria = ivs.build_weight_matrix(ds.w)._quadratic(ds.y[:, None] - tilde)
        criteria[~valid] = np.inf
        assert np.array_equal(result.curve[:, 1], criteria)


def same_cv(a, b):
    """Every field of two CV results, the curve compared bit for bit."""
    return (a.curve.tobytes() == b.curve.tobytes() and a.lambda_star == b.lambda_star
            and a.lambda_star_index == b.lambda_star_index and a.boundary_hit == b.boundary_hit
            and a.invalid_candidates == b.invalid_candidates
            and np.array_equal(a.fold_assignment, b.fold_assignment))


class TestFoldWorkers:
    """The folds run in forked workers only where they are large enough; the answer is the serial one."""

    def test_workers_equal_serial_bit_for_bit(self, monkeypatch):
        # one candidate is singular on fold 0, so both routes count an invalid candidate
        monkeypatch.setattr(selection, "_FOLD_WORKER_MIN_ORDER", 1)
        ds = random_instance(11, n=30)
        held = selection._fold_assignment(ds.n, 2, 4) == 0
        singular = -path_spectrum(ivs.Dataset(y=ds.y[~held], z=ds.z[~held], w=ds.w[~held])).min()
        cfg = ivs.CvConfig(grid=np.sort(np.append(ivs.default_grid()[::20], singular)), seed=4)
        results = {}
        for cores in (1, 2):
            started = cv_on_cores(monkeypatch, cores)
            results[cores] = ivs.cross_validate(ds, cfg)
            assert started == [cores > 1]
        assert results[1].invalid_candidates == 1
        assert same_cv(results[1], results[2])

    @pytest.mark.parametrize("ties", [False, True, "near"])
    def test_no_process_starts_below_the_constant(self, monkeypatch, ties):
        # the rounded instrument leaves about 70 distinct rows among 2000, so
        # its folds' order m is far below the constant although n / 2 is not;
        # nudged a few ulps apart, every row is distinct, but the weight
        # matrix's numerical rank, which bounds m, stays near 70
        if ties:
            ds = ivs.generate(ivs.DgpConfig(n=2000, rho_ev=0.5, rho_wz=0.9, g_id="g1", seed=3))["dataset"]
            ds = ivs.Dataset(y=ds.y, z=ds.z, w=np.round(ds.w, 1) if ties is True else near_ties(ds.w))
            assert ds.n // 2 >= selection._FOLD_WORKER_MIN_ORDER
        else:
            ds = random_instance(12, n=60)

        def no_fork(*args):
            raise AssertionError("the fork context was touched below the fold-size constant")

        monkeypatch.setattr(multiprocessing, "get_context", no_fork)
        started = cv_on_cores(monkeypatch, 2)
        result = ivs.cross_validate(ds, ivs.CvConfig(seed=2))
        assert started == []
        assert np.isfinite(result.curve[result.lambda_star_index, 1])

    def test_daemonic_caller_runs_serially(self, monkeypatch):
        # a daemonic process may not have children: starting a pool in one raises
        monkeypatch.setattr(selection, "_FOLD_WORKER_MIN_ORDER", 1)
        ds, cfg = random_instance(13, n=40), ivs.CvConfig(seed=3)
        cv_on_cores(monkeypatch, 1)
        serial = ivs.cross_validate(ds, cfg)
        cv_on_cores(monkeypatch, 2)
        with multiprocessing.get_context("fork").Pool(1) as pool:
            inner = pool.apply(ivs.cross_validate, (ds, cfg))
        assert same_cv(serial, inner)

    @pytest.mark.parametrize("cores", [1, 2])
    def test_unfittable_fold_raises_the_same_error_on_both_routes(self, monkeypatch, cores):
        # z is constant on each fold, so neither training subsample has two
        # distinct z values; both routes name the first fold
        monkeypatch.setattr(selection, "_FOLD_WORKER_MIN_ORDER", 1)
        cfg = ivs.CvConfig(seed=5)
        ds = random_instance(14, n=20)
        ds = ivs.Dataset(y=ds.y, z=selection._fold_assignment(ds.n, 2, 5).astype(float), w=ds.w)
        started = cv_on_cores(monkeypatch, cores)
        with pytest.raises(ivs.SelectionError, match=r"^fold 0: training subsample cannot be fitted$"):
            ivs.cross_validate(ds, cfg)
        assert started == [cores > 1]
