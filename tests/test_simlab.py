import json
import os
import subprocess
import sys
import textwrap
import time
from pathlib import Path

import numpy as np
import pytest

import ivspline as ivs
from ivspline import _workers, selection, simlab
from ivspline.simlab import _rep_cv_seed, _rep_rng
from conftest import fork_on_cores

SRC = Path(__file__).resolve().parents[1] / "src"


class TestTrueFunction:
    def test_first_curve_values(self):
        assert ivs.true_function("g1", 0.0) == 0.0
        assert ivs.true_function("g1", 1.0) == pytest.approx(1 / np.sqrt(2))

    def test_second_curve_odd(self):
        z = np.linspace(-3, 3, 41)
        assert ivs.true_function("g2", 0.0) == 0.0
        assert np.allclose(ivs.true_function("g2", -z), -ivs.true_function("g2", z))

    def test_third_curve_strictly_increasing(self):
        z = np.linspace(-2.5, 2.5, 400)
        assert np.all(np.diff(ivs.true_function("g3", z)) > 0)

    def test_unit_variance_normalization(self):
        # large-sample variance oracle against the normalization claim
        z = np.random.default_rng(2024).standard_normal(1_000_000)
        assert ivs.true_function("g1", z).var() == pytest.approx(1.0, abs=0.01)
        assert ivs.true_function("g2", z).var() == pytest.approx(1.0, abs=0.01)

    def test_unknown_curve(self):
        with pytest.raises(ValueError):
            ivs.true_function("g4", 0.0)


class TestGenerate:
    def test_shapes_and_model_identity(self):
        cfg = ivs.DgpConfig(n=50, rho_ev=0.5, rho_wz=0.9, g_id="g1", seed=5)
        out = ivs.generate(cfg)
        ds = out["dataset"]
        assert ds.n == 50 and ds.p == 1
        assert np.allclose(ds.y, out["truth"] + out["epsilon"])

    def test_zero_endogeneity_gives_exogenous_noise(self):
        cfg = ivs.DgpConfig(n=100_000, rho_ev=0.0, rho_wz=0.9, g_id="g1", seed=8)
        out = ivs.generate(cfg)
        # a = 0 makes the error independent of the first-stage shock
        z, eps = out["dataset"].z, out["epsilon"]
        assert abs(np.corrcoef(z, eps)[0, 1]) < 0.01

    @pytest.mark.parametrize("rho_ev,rho_wz", [(0.5, 0.9), (0.8, 0.7), (0.3, 0.5)])
    def test_marginals_and_instrument_strength(self, rho_ev, rho_wz):
        n = 100_000
        cfg = ivs.DgpConfig(n=n, rho_ev=rho_ev, rho_wz=rho_wz, g_id="g2", seed=77)
        out = ivs.generate(cfg)
        ds, eps = out["dataset"], out["epsilon"]
        three_se_var = 3 * np.sqrt(2.0 / n)
        assert abs(ds.z.var() - 1.0) <= three_se_var
        assert abs(eps.var() - 1.0) <= three_se_var
        corr = np.corrcoef(ds.w[:, 0], ds.z)[0, 1]
        assert abs(corr - rho_wz) <= 3 * (1 - rho_wz**2) / np.sqrt(n)

    def test_seed_determinism(self):
        cfg = ivs.DgpConfig(n=40, rho_ev=0.5, rho_wz=0.9, g_id="g3", seed=13)
        a = ivs.generate(cfg)
        b = ivs.generate(cfg)
        assert np.array_equal(a["dataset"].y, b["dataset"].y)
        assert np.array_equal(a["dataset"].w, b["dataset"].w)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            ivs.DgpConfig(n=50, rho_ev=1.0, rho_wz=0.9)
        with pytest.raises(ValueError):
            ivs.DgpConfig(n=50, rho_ev=0.5, rho_wz=-1.0)
        with pytest.raises(ValueError):
            ivs.DgpConfig(n=50, rho_ev=0.5, rho_wz=0.5, g_id="g9")
        with pytest.raises(ValueError, match="n must be an integer"):
            ivs.DgpConfig(n=60.0, rho_ev=0.5, rho_wz=0.9)
        for seed in (1.5, -1):
            with pytest.raises(ValueError, match="seed"):
                ivs.DgpConfig(n=50, rho_ev=0.5, rho_wz=0.9, seed=seed)


def stub_fit(monkeypatch, curve):
    """Make every replication's fit ``curve(ds, grid, rep)`` with lambda* NaN; forked workers inherit it.

    A stub keyed by the replication index answers the same in every process,
    so the aggregation is also checked through the worker pool.
    """
    monkeypatch.setattr(simlab, "_fit_on_grid",
                        lambda ds, grid, cv, rep, constrained: (curve(ds, grid, rep), np.nan))


class TestMonteCarlo:
    def test_truth_oracle_has_zero_errors(self, monkeypatch):
        cfg = ivs.DgpConfig(n=30, rho_ev=0.5, rho_wz=0.9, g_id="g1", seed=1)
        stub_fit(monkeypatch, lambda ds, grid, rep: ivs.true_function("g1", grid))
        report = ivs.monte_carlo(cfg, "unconstrained", replications=5)
        # zero up to the roundoff of averaging identical curves
        assert report.bias_sq == pytest.approx(0.0, abs=1e-25)
        assert report.variance == pytest.approx(0.0, abs=1e-25)
        assert report.mse == pytest.approx(0.0, abs=1e-25)

    def test_constant_zero_estimator(self, monkeypatch):
        cfg = ivs.DgpConfig(n=30, rho_ev=0.5, rho_wz=0.9, g_id="g1", seed=2)
        stub_fit(monkeypatch, lambda ds, grid, rep: np.zeros_like(grid))
        report = ivs.monte_carlo(cfg, "unconstrained", replications=5)
        # closed-form grid average of the squared first curve over the fixed grid
        grid = ivs.evaluation_grid()
        expected = float(np.mean((grid**2 / np.sqrt(2)) ** 2))
        assert report.variance == 0.0
        assert report.bias_sq == pytest.approx(expected, rel=1e-12)
        assert report.mse == pytest.approx(expected, rel=1e-12)

    def test_decomposition_identity_pointwise(self, monkeypatch):
        cfg = ivs.DgpConfig(n=40, rho_ev=0.5, rho_wz=0.9, g_id="g2", seed=3)
        stub_fit(monkeypatch, lambda ds, grid, rep: ivs.true_function("g2", grid) + ds.y[0])
        report = ivs.monte_carlo(cfg, "unconstrained", replications=7)
        pp = report.per_point
        assert np.allclose(pp["mse"], pp["bias_sq"] + pp["variance"], atol=1e-10)
        assert report.mse == pytest.approx(report.bias_sq + report.variance, abs=1e-10)

    def test_seed_determinism_bit_for_bit(self):
        cfg = ivs.DgpConfig(n=40, rho_ev=0.5, rho_wz=0.9, g_id="g1", seed=4)
        cv = ivs.CvConfig(seed=10, grid=[0.01, 0.1])
        a = ivs.monte_carlo(cfg, "unconstrained", 3, cv=cv)
        b = ivs.monte_carlo(cfg, "unconstrained", 3, cv=cv)
        assert a.bias_sq == b.bias_sq
        assert a.variance == b.variance
        assert np.array_equal(a.per_point["mean_curve"], b.per_point["mean_curve"])

    def test_failures_excluded_and_capped(self, monkeypatch):
        cfg = ivs.DgpConfig(n=30, rho_ev=0.5, rho_wz=0.9, g_id="g1", seed=5)

        def flaky(fail_every):
            def curve(ds, grid, rep):
                if (rep + 1) % fail_every == 0:
                    raise ivs.SolverStallError("synthetic failure")
                return ivs.true_function("g1", grid)
            return curve

        stub_fit(monkeypatch, flaky(25))  # replications 24 and 49 fail
        report = ivs.monte_carlo(cfg, "unconstrained", replications=50)
        assert report.failures == 2
        assert report.replications == 48
        stub_fit(monkeypatch, flaky(3))
        with pytest.raises(ivs.IvsplineError, match="failed"):
            ivs.monte_carlo(cfg, "unconstrained", replications=50)

    def test_failure_types_counted_by_exception_class(self, monkeypatch):
        cfg = ivs.DgpConfig(n=30, rho_ev=0.5, rho_wz=0.9, g_id="g1", seed=6)

        def flaky(ds, grid, rep):
            if rep in (6, 18):
                raise ivs.SolverStallError("synthetic stall")
            if rep == 30:
                raise ivs.ConditioningError("synthetic conditioning failure")
            return ivs.true_function("g1", grid)

        stub_fit(monkeypatch, flaky)
        report = ivs.monte_carlo(cfg, "unconstrained", replications=60)
        assert report.failures == 3
        assert report.failure_types == {"ConditioningError": 1, "SolverStallError": 2}
        assert list(report.failure_types) == sorted(report.failure_types)

    def test_replication_validation(self, monkeypatch):
        cfg = ivs.DgpConfig(n=30, rho_ev=0.5, rho_wz=0.9, g_id="g1", seed=6)

        def no_fork():
            raise AssertionError("a child was forked before the arguments were checked")

        monkeypatch.setattr(os, "fork", no_fork)
        with pytest.raises(ValueError):
            ivs.monte_carlo(cfg, "unconstrained", 1)
        with pytest.raises(ValueError, match="replications"):
            ivs.monte_carlo(cfg, "unconstrained", 3.0)
        with pytest.raises(ValueError, match="unknown estimator"):
            ivs.monte_carlo(cfg, "foo", 3)
        with pytest.raises(ValueError, match="unknown estimator"):
            ivs.monte_carlo(cfg, lambda ds, grid: np.zeros_like(grid), 3)

    def test_report_csv_layout(self, monkeypatch, tmp_path):
        from ivspline.simlab import write_report_csv

        cfg = ivs.DgpConfig(n=30, rho_ev=0.5, rho_wz=0.9, g_id="g1", seed=7)
        stub_fit(monkeypatch, lambda ds, grid, rep: ds.y[0] * grid)
        report = ivs.monte_carlo(cfg, "unconstrained", replications=3)
        out = tmp_path / "report.csv"
        write_report_csv(report, out)
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "z,bias_sq,variance,mse"
        assert len(lines) == 102  # header + 100 grid rows + summary
        assert lines[-1].startswith("ALL,")
        # .17g reads back to the same doubles, the summary row included
        pp = report.per_point
        expected = np.column_stack([report.grid, pp["bias_sq"], pp["variance"], pp["mse"]]).tolist()
        assert [[float(cell) for cell in line.split(",")] for line in lines[1:-1]] == expected
        assert [float(cell) for cell in lines[-1].split(",")[1:]] == [report.bias_sq, report.variance, report.mse]

    def test_lambda_stars_on_custom_grid(self):
        cfg = ivs.DgpConfig(n=24, rho_ev=0.5, rho_wz=0.9, g_id="g1", seed=9)
        grid = [1e-4, 1e-2, 1.0]
        report = ivs.monte_carlo(cfg, "unconstrained", 4, cv=ivs.CvConfig(seed=1, grid=grid))
        assert report.lambda_stars.shape == (4,)
        assert np.isin(report.lambda_stars, grid).all()

    def test_lambda_star_nan_where_replication_failed(self, monkeypatch):
        # CV succeeds in every replication; the fit after it fails once
        # on replication 4's dataset, whichever process runs it
        cfg = ivs.DgpConfig(n=24, rho_ev=0.5, rho_wz=0.9, g_id="g1", seed=9)
        failing_y = ivs.generate(cfg, _rep_rng(cfg.seed, 4))["dataset"].y
        original = selection._Factored

        def flaky(ds, *args):
            if np.array_equal(ds.y, failing_y):
                raise ivs.ConditioningError("synthetic conditioning failure")
            return original(ds, *args)

        monkeypatch.setattr(selection, "_Factored", flaky)
        report = ivs.monte_carlo(cfg, "unconstrained", 21, cv=ivs.CvConfig(seed=1, grid=[1e-3, 1e-1]))
        assert report.failures == 1
        assert np.flatnonzero(np.isnan(report.lambda_stars)).tolist() == [4]

    def test_constrained_report_equals_public_pipeline(self):
        # the replication loop shares one weight matrix between CV and the
        # fit; the public functions build it twice, with the same bits
        cfg = ivs.DgpConfig(n=60, rho_ev=0.5, rho_wz=0.9, g_id="g3", seed=12)
        cv = ivs.CvConfig(seed=5)
        report = ivs.monte_carlo(cfg, "constrained", 4, cv=cv)
        grid = ivs.evaluation_grid()
        curves, stars = [], []
        for rep in range(4):
            ds = ivs.generate(cfg, _rep_rng(cfg.seed, rep))["dataset"]
            lam = ivs.cross_validate(ds, cfg=ivs.CvConfig(seed=_rep_cv_seed(cv.seed, rep))).lambda_star
            curves.append(ivs.evaluate(ivs.fit_monotone(ds, lam), grid))
            stars.append(lam)
        curves = np.array(curves)
        mean_curve = curves.mean(axis=0)
        assert report.failures == 0
        assert np.array_equal(report.lambda_stars, stars)
        assert np.array_equal(report.per_point["mean_curve"], mean_curve)
        assert report.variance == float(((curves - mean_curve) ** 2).mean(axis=0).mean())
        assert report.bias_sq == float(((mean_curve - ivs.true_function("g3", grid)) ** 2).mean())

    def test_small_pipeline_run(self):
        # end-to-end check of the real estimator path at toy scale
        cfg = ivs.DgpConfig(n=24, rho_ev=0.5, rho_wz=0.9, g_id="g1", seed=8)
        cv = ivs.CvConfig(seed=3, grid=[1e-4, 1e-2, 1.0])
        report = ivs.monte_carlo(cfg, "unconstrained", 4, cv=cv)
        assert report.replications == 4
        assert report.mse > 0


def same_bits(a, b):
    """Every field of two Monte Carlo reports, floats compared bit for bit."""
    floats = lambda r: [r.grid, r.lambda_stars, r.bias_sq, r.variance, r.mse,
                        *(r.per_point[key] for key in sorted(r.per_point))]
    others = lambda r: (sorted(r.per_point), r.replications, r.estimator_tag, r.failures, r.failure_types)
    return (others(a) == others(b)
            and all(np.asarray(x).tobytes() == np.asarray(y).tobytes() for x, y in zip(floats(a), floats(b))))


def on_cores(monkeypatch, cores, *args, **kwargs):
    """``monte_carlo`` as if this process could use ``cores`` cores (None: no fork); checks that it forked one child per core."""
    forks = fork_on_cores(monkeypatch, cores)
    report = ivs.monte_carlo(*args, **kwargs)
    assert len(forks) == (cores or 0)
    return report


class TestWorkers:
    @pytest.mark.parametrize("estimator", ["unconstrained", "constrained"])
    def test_workers_report_equals_serial_bit_for_bit(self, monkeypatch, estimator):
        cfg = ivs.DgpConfig(n=60, rho_ev=0.5, rho_wz=0.9, g_id="g3", seed=21)
        cv = ivs.CvConfig(seed=4)
        serial = on_cores(monkeypatch, None, cfg, estimator, 6, cv=cv)
        assert serial.failures == 0 and not np.isnan(serial.lambda_stars).any()
        for cores in (1, 2):
            assert same_bits(serial, on_cores(monkeypatch, cores, cfg, estimator, 6, cv=cv))

    @pytest.mark.parametrize("cores", [None, 1, 2])
    def test_typed_failures_counted_at_their_replications(self, monkeypatch, cores):
        real = simlab._fit_on_grid

        def stalling(ds, grid, cv, rep, constrained):
            if rep in (1, 4):
                raise ivs.SolverStallError("synthetic stall")
            return real(ds, grid, cv, rep, constrained)

        monkeypatch.setattr(simlab, "_fit_on_grid", stalling)
        cfg = ivs.DgpConfig(n=24, rho_ev=0.5, rho_wz=0.9, g_id="g1", seed=22)
        cv = ivs.CvConfig(seed=1, grid=[1e-3, 1e-1])
        report = on_cores(monkeypatch, cores, cfg, "unconstrained", 40, cv=cv)
        assert report.failure_types == {"SolverStallError": 2}
        assert report.failures == 2 and report.replications == 38
        assert np.flatnonzero(np.isnan(report.lambda_stars)).tolist() == [1, 4]

    def test_untyped_error_in_a_worker_propagates_with_its_type(self, monkeypatch):
        real = simlab._fit_on_grid

        def broken(ds, grid, cv, rep, constrained):
            if rep == 3:
                raise ValueError("synthetic untyped failure")
            return real(ds, grid, cv, rep, constrained)

        monkeypatch.setattr(simlab, "_fit_on_grid", broken)
        cfg = ivs.DgpConfig(n=24, rho_ev=0.5, rho_wz=0.9, g_id="g1", seed=23)
        with pytest.raises(ValueError, match="synthetic untyped failure"):
            on_cores(monkeypatch, 2, cfg, "unconstrained", 6, cv=ivs.CvConfig(seed=1, grid=[1e-3, 1e-1]))

    def test_call_inside_a_child_runs_there(self, monkeypatch):
        # monte_carlo called in a forked child forks no grandchild and gives the in-process report
        cfg = ivs.DgpConfig(n=24, rho_ev=0.5, rho_wz=0.9, g_id="g1", seed=24)
        cv = ivs.CvConfig(seed=1, grid=[1e-3, 1e-1])
        serial = on_cores(monkeypatch, None, cfg, "unconstrained", 6, cv=cv)
        forks = fork_on_cores(monkeypatch, 2)
        [(inner, inner_forks)] = _workers._map(
            lambda task: (ivs.monte_carlo(cfg, "unconstrained", 6, cv=cv), len(forks)), 1)
        assert len(forks) == 1 and inner_forks == 0
        assert same_bits(serial, inner)

    def test_child_exiting_without_a_result_raises_its_status(self, monkeypatch):
        fork_on_cores(monkeypatch, 2)
        with pytest.raises(ChildProcessError, match=r"^worker 1 exited with status 7 before sending the result "
                                                    r"of task 3$"):
            _workers._map(lambda task: os._exit(7) if task == 3 else task, 6)

    def test_a_failing_parent_kills_its_children(self, monkeypatch):
        # the parent fails on reading the first result while both children
        # still sleep; it kills and reaps them instead of waiting out the sleep
        fork_on_cores(monkeypatch, 2)

        def unreadable(stream):
            raise KeyboardInterrupt

        monkeypatch.setattr(_workers.pickle, "load", unreadable)
        start = time.monotonic()
        with pytest.raises(KeyboardInterrupt):
            _workers._map(lambda task: time.sleep(60), 2)
        assert time.monotonic() - start < 30

    def test_workers_run_one_blas_thread_whatever_the_environment(self, tmp_path):
        # BLAS reads OPENBLAS_NUM_THREADS when it loads, before any fork, so
        # only the workers' thread setter can bring them down to one thread
        script = textwrap.dedent("""
            import ctypes, importlib, json, os, sys
            import numpy as np
            import ivspline as ivs
            from ivspline import _workers, simlab

            def getter(module):
                library = ctypes.CDLL(importlib.import_module(module).__file__)
                names = [name.replace("_set_", "_get_") for name in _workers._BLAS_SETTERS]
                return next(getattr(library, name) for name in names if hasattr(library, name))

            getters = [getter(module) for module in _workers._BLAS_MODULES]
            fit_on_grid = simlab._fit_on_grid

            def reading(*args):
                with open(sys.argv[1], "a") as record:
                    record.write(json.dumps([os.getpid()] + [get() for get in getters]) + "\\n")
                return fit_on_grid(*args)

            simlab._fit_on_grid = reading
            cfg = ivs.DgpConfig(n=60, rho_ev=0.5, rho_wz=0.9, g_id="g3", seed=25)
            cv = ivs.CvConfig(seed=6)
            os.sched_getaffinity = lambda pid: {0, 1}
            workers = ivs.monte_carlo(cfg, "constrained", 4, cv=cv)
            parent = [get() for get in getters]
            simlab._fit_on_grid = fit_on_grid
            for setter in _workers._blas_thread_setters():
                setter(1)
            del os.fork
            serial = ivs.monte_carlo(cfg, "constrained", 4, cv=cv)
            fields = lambda r: [r.mse, r.bias_sq, r.variance, r.lambda_stars.tobytes().hex(),
                                *(r.per_point[key].tobytes().hex() for key in sorted(r.per_point))]
            print(json.dumps({"pid": os.getpid(), "threads": parent,
                              "same": fields(workers) == fields(serial)}))
        """)
        record = tmp_path / "threads.jsonl"
        env = dict(os.environ, PYTHONPATH=str(SRC), OPENBLAS_NUM_THREADS="2", OMP_NUM_THREADS="2")
        proc = subprocess.run([sys.executable, "-c", script, str(record)], env=env,
                              capture_output=True, text=True, timeout=300)
        assert proc.returncode == 0, proc.stderr
        out = json.loads(proc.stdout.strip().splitlines()[-1])
        readings = [json.loads(line) for line in record.read_text().splitlines()]
        assert out["threads"] == [2, 2]  # the parent's BLAS took the environment's two threads
        assert len(readings) == 4 and all(pid != out["pid"] for pid, *_ in readings)
        assert all(threads == [1, 1] for _, *threads in readings)
        assert out["same"]
