import numpy as np
import pytest

import ivspline as ivs
from ivspline import selection
from ivspline.cli import main, read_document
from conftest import fork_on_cores


def write_fit_csv(path, n=10, seed=0, noise=0.0, curve=None):
    rng = np.random.default_rng(seed)
    z = np.linspace(-1, 1, n) + rng.uniform(-0.03, 0.03, n)
    w = z + 0.4 * rng.standard_normal(n)
    y = (curve(z) if curve else 1.0 + 2.0 * z) + noise * rng.standard_normal(n)
    ivs.write_csv(ivs.Dataset(y=y, z=z, w=w), path)
    return path


class TestFitCommand:
    def test_smoke_fixed_lambda(self, tmp_path):
        csv_in = write_fit_csv(tmp_path / "d.csv", n=10, noise=0.1)
        out = tmp_path / "fit.json"
        code = main([
            "fit", "--input", str(csv_in), "--y", "y", "--z", "z", "--w", "w1",
            "--lambda", "0.1", "--out", str(out),
        ])
        assert code == 0
        doc = read_document(out)
        assert len(doc["knots"]) == 10
        assert doc["diagnostics"]["constraint_residual"] < 1e-8
        assert doc["lambda"] == 0.1
        assert doc["lambda_selected_by"] == "flag"

    def test_artifact_reports_instrument_groups(self, tmp_path):
        rng = np.random.default_rng(2)
        w = rng.standard_normal(60)
        z = 0.8 * w + 0.5 * rng.standard_normal(60)
        y = np.sin(z) + 0.2 * rng.standard_normal(60)
        reported = {}
        for name, column in (("distinct", w), ("rounded", np.round(w, 1))):
            csv_in = tmp_path / f"{name}.csv"
            ivs.write_csv(ivs.Dataset(y=y, z=z, w=column), csv_in)
            out = tmp_path / f"{name}.json"
            assert main(["fit", "--input", str(csv_in), "--y", "y", "--z", "z", "--w", "w1",
                         "--cv", "--out", str(out)]) == 0
            reported[name] = read_document(out)["diagnostics"]
        assert reported["distinct"]["instrument_groups"] == 60
        assert reported["rounded"]["instrument_groups"] == np.unique(np.round(w, 1)).size < 60
        assert "jitter_applied" not in reported["rounded"]

    def test_artifact_reports_refinement(self, tmp_path):
        csv_in = write_fit_csv(tmp_path / "d.csv", n=40, seed=3, noise=0.3)
        for monotone in ("none", "increasing"):
            out = tmp_path / f"{monotone}.json"
            assert main(["fit", "--input", str(csv_in), "--y", "y", "--z", "z", "--w", "w1",
                         "--lambda", "0.01", "--monotone", monotone, "--out", str(out)]) == 0
            diagnostics = read_document(out)["diagnostics"]
            assert type(diagnostics["refinement_steps"]) is int
            assert isinstance(diagnostics["backward_error"], float)
            smoother_keys = {"smoother_refinement_steps", "smoother_backward_error"}
            if monotone == "none":
                assert not smoother_keys & diagnostics.keys()
            else:
                assert smoother_keys <= diagnostics.keys()

    def test_artifact_carries_provenance_and_curve(self, tmp_path):
        csv_in = write_fit_csv(tmp_path / "d.csv", n=9, seed=5, noise=0.1)
        out = tmp_path / "fit.json"
        assert main([
            "fit", "--input", str(csv_in), "--y", "y", "--z", "z", "--w", "w1",
            "--lambda", "0.2", "--seed", "4", "--out", str(out),
        ]) == 0
        doc = read_document(out)
        assert doc["library_version"] == ivs.__version__
        prov = doc["provenance"]
        assert prov["seed"] == 4
        assert prov["columns"] == {"y": "y", "z": "z", "w": "w1"}
        assert prov["monotone"] == "none"
        assert len(doc["curve"]["z"]) == len(doc["curve"]["ghat"]) == 200
        # curve samples in the artifact reproduce the fit evaluations
        refit = ivs.SplineFit(
            a=np.array(doc["a"]), delta=np.array(doc["delta"]),
            knots=np.array(doc["knots"]), lam=doc["lambda"],
        )
        zs = np.array(doc["curve"]["z"])
        assert np.array_equal(np.array(doc["curve"]["ghat"]), ivs.evaluate(refit, zs))

    def test_artifact_round_trips_losslessly(self, tmp_path):
        csv_in = write_fit_csv(tmp_path / "d.csv", n=8, seed=3, noise=0.2)
        out = tmp_path / "fit.json"
        assert main([
            "fit", "--input", str(csv_in), "--y", "y", "--z", "z", "--w", "w1",
            "--lambda", "0.05", "--out", str(out),
        ]) == 0
        doc = read_document(out)
        ds = ivs.load_csv(csv_in, y="y", z="z", w="w1")
        fit = ivs.fit(ds, 0.05)
        assert np.array_equal(np.array(doc["delta"]), fit.delta)
        assert np.array_equal(np.array(doc["a"]), fit.a)
        assert np.array_equal(np.array(doc["knots"]), fit.knots)

    def test_cv_tie_break_on_linear_data(self, tmp_path):
        csv_in = write_fit_csv(tmp_path / "lin.csv", n=12)
        out = tmp_path / "fit.json"
        assert main([
            "fit", "--input", str(csv_in), "--y", "y", "--z", "z", "--w", "w1",
            "--cv", "--seed", "5", "--out", str(out),
        ]) == 0
        doc = read_document(out)
        assert doc["lambda_selected_by"] == "cv"
        assert doc["lambda"] == ivs.default_grid()[0]
        assert doc["cv"]["lambda_star_index"] == 0
        assert doc["cv"]["boundary_hit"] is True
        assert doc["cv"]["invalid_candidates"] == 0

    def test_deterministic_byte_identical(self, tmp_path):
        csv_in = write_fit_csv(tmp_path / "d.csv", n=300, seed=2, noise=0.3,
                               curve=lambda z: np.sin(3 * z))
        args = ["fit", "--input", str(csv_in), "--y", "y", "--z", "z", "--w", "w1", "--cv"]
        out1, out2 = tmp_path / "fit1.json", tmp_path / "fit2.json"
        assert main(args + ["--out", str(out1)]) == 0
        assert main(args + ["--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()
        assert "kkt_condition_estimate" in read_document(out1)["diagnostics"]

    def test_fold_workers_leave_the_artifacts_unchanged(self, tmp_path, monkeypatch):
        # n = 1400 distinct instrument rows: training folds of 700, above the
        # size at which the folds run in children; without fork they run here
        csv_in = write_fit_csv(tmp_path / "d.csv", n=1400, seed=5, noise=0.3,
                               curve=lambda z: np.sin(3 * z))
        assert 700 >= selection._FOLD_WORKER_MIN_ORDER
        outputs = {}
        for cores in (None, 1, 2):
            forks = fork_on_cores(monkeypatch, cores)
            out, curve = tmp_path / f"fit{cores}.json", tmp_path / f"curve{cores}.csv"
            assert main(["fit", "--input", str(csv_in), "--y", "y", "--z", "z", "--w", "w1", "--cv",
                         "--seed", "3", "--out", str(out), "--grid-out", str(curve)]) == 0
            assert len(forks) == (cores or 0)
            outputs[cores] = (out.read_bytes(), curve.read_bytes())
        assert outputs[None] == outputs[1] == outputs[2]

    def test_cv_artifact_equals_public_cv_then_fit(self, tmp_path):
        # the CLI's fit reuses the weight matrix built by CV; the public route
        # builds it twice, and both must give the same bits
        csv_in = write_fit_csv(tmp_path / "d.csv", n=150, seed=4, noise=0.3,
                               curve=lambda z: np.sin(3 * z))
        out = tmp_path / "fit.json"
        assert main(["fit", "--input", str(csv_in), "--y", "y", "--z", "z", "--w", "w1",
                     "--cv", "--seed", "9", "--out", str(out)]) == 0
        doc = read_document(out)
        ds = ivs.load_csv(csv_in, y="y", z="z", w="w1")
        fit = ivs.fit(ds, ivs.cross_validate(ds, cfg=ivs.CvConfig(seed=9)).lambda_star)
        assert np.array_equal(np.array(doc["a"]), fit.a)
        assert np.array_equal(np.array(doc["delta"]), fit.delta)
        # the weight function is fixed, and the artifact names it with these types
        kernel = doc["kernel"]
        assert kernel == {"family": "laplace", "variance": 1.0, "standardize": True}
        assert type(kernel["variance"]) is float and type(kernel["standardize"]) is bool

    def test_integral_floats_load_as_floats(self, tmp_path):
        csv_in = write_fit_csv(tmp_path / "d.csv", n=10, noise=0.1)
        out = tmp_path / "fit.json"
        assert main(["fit", "--input", str(csv_in), "--y", "y", "--z", "z", "--w", "w1",
                     "--lambda", "2", "--seed", "3", "--out", str(out)]) == 0
        doc = read_document(out)
        assert isinstance(doc["lambda"], float) and doc["lambda"] == 2.0
        # rounded to 3 significant digits, the estimate has an integral value
        estimate = doc["diagnostics"]["kkt_condition_estimate"]
        assert isinstance(estimate, float) and estimate == round(estimate)
        assert isinstance(doc["provenance"]["seed"], int)

    def test_control_characters_in_names_round_trip(self, tmp_path):
        # a quoted CSV header may hold a tab, which JSON strings must escape
        rng = np.random.default_rng(1)
        z = np.linspace(-1, 1, 10) + rng.uniform(-0.03, 0.03, 10)
        w = z + 0.4 * rng.standard_normal(10)
        rows = "".join(f"{a:.17g},{b:.17g},{c:.17g}\n" for a, b, c in zip(1.0 + 2.0 * z, z, w))
        csv_in = tmp_path / "tab.csv"
        csv_in.write_text('"out\tcome",z,w1\n' + rows, encoding="utf-8")
        out = tmp_path / "fit.json"
        assert main(["fit", "--input", str(csv_in), "--y", "out\tcome", "--z", "z", "--w", "w1",
                     "--lambda", "0.1", "--out", str(out)]) == 0
        assert read_document(out)["provenance"]["columns"]["y"] == "out\tcome"

    def test_monotone_fit_emits_nondecreasing_curve(self, tmp_path):
        rng = np.random.default_rng(0)
        n = 25
        z = np.sort(rng.uniform(-2, 2, n))
        rng.shuffle(z)
        w = z + 0.4 * rng.standard_normal(n)
        y = ivs.true_function("g3", z) + 0.3 * rng.standard_normal(n)
        csv_in = tmp_path / "g3.csv"
        ivs.write_csv(ivs.Dataset(y=y, z=z, w=w), csv_in)
        out = tmp_path / "fit.json"
        curve_out = tmp_path / "curve.csv"
        assert main([
            "fit", "--input", str(csv_in), "--y", "y", "--z", "z", "--w", "w1",
            "--lambda", "0.05", "--monotone", "increasing",
            "--out", str(out), "--grid-out", str(curve_out),
        ]) == 0
        doc = read_document(out)
        fit = ivs.SplineFit(
            a=np.array(doc["a"]), delta=np.array(doc["delta"]),
            knots=np.array(doc["knots"]), lam=doc["lambda"],
        )
        deriv = ivs.evaluate_derivative(fit, fit.knots)
        assert deriv.min() >= -1e-7 * (1 + np.abs(deriv).max())
        lines = curve_out.read_text().strip().splitlines()
        assert lines[0] == "z,ghat,ghat_prime"
        ghat = np.array([float(l.split(",")[1]) for l in lines[1:]])
        assert np.all(np.diff(ghat) >= -1e-9 * (1 + np.abs(ghat).max()))
        assert "tilt" in doc

    def test_byte_order_mark_is_skipped(self, tmp_path):
        # spreadsheet tools write "CSV UTF-8" with a byte-order mark before the header
        plain = write_fit_csv(tmp_path / "plain.csv", n=10, noise=0.1)
        marked = tmp_path / "marked.csv"
        marked.write_bytes(b"\xef\xbb\xbf" + plain.read_bytes())
        for csv_in in (plain, marked):
            assert main(["fit", "--input", str(csv_in), "--y", "y", "--z", "z", "--w", "w1",
                         "--lambda", "0.1", "--out", str(tmp_path / f"{csv_in.stem}.json")]) == 0
        plain_doc, marked_doc = (read_document(tmp_path / f"{p}.json") for p in ("plain", "marked"))
        plain_doc["provenance"]["input"] = marked_doc["provenance"]["input"]
        assert plain_doc == marked_doc

    def test_schema_error_exit_code(self, tmp_path):
        csv_in = write_fit_csv(tmp_path / "d.csv")
        code = main([
            "fit", "--input", str(csv_in), "--y", "y", "--z", "missing", "--w", "w1",
            "--lambda", "0.1", "--out", str(tmp_path / "o.json"),
        ])
        assert code == 2

    def test_solver_error_exit_code(self, tmp_path):
        # constant z makes the linear design rank deficient
        csv_in = tmp_path / "flat.csv"
        ivs.write_csv(ivs.Dataset(y=[1, 2, 3], z=[1.0, 1.0, 1.0], w=[[0.1], [0.5], [0.9]]), csv_in)
        code = main([
            "fit", "--input", str(csv_in), "--y", "y", "--z", "z", "--w", "w1",
            "--lambda", "0.1", "--out", str(tmp_path / "o.json"),
        ])
        assert code == 3

    def test_overflowing_lambda_is_solver_error(self, tmp_path, capsys):
        csv_in = write_fit_csv(tmp_path / "d.csv")
        code = main([
            "fit", "--input", str(csv_in), "--y", "y", "--z", "z", "--w", "w1",
            "--lambda", "1e308", "--out", str(tmp_path / "o.json"),
        ])
        assert code == 3
        assert "solver error" in capsys.readouterr().err
        assert not (tmp_path / "o.json").exists()

    def test_overflowing_design_is_solver_error_under_cv(self, tmp_path, capsys):
        # z scaled by 1e103 overflows the cubic design; every CV fold fails typed
        ds = ivs.generate(ivs.DgpConfig(n=60, rho_ev=0.5, rho_wz=0.9, g_id="g1", seed=0))["dataset"]
        csv_in = tmp_path / "d.csv"
        ivs.write_csv(ivs.Dataset(y=ds.y, z=1e103 * ds.z, w=ds.w), csv_in)
        code = main([
            "fit", "--input", str(csv_in), "--y", "y", "--z", "z", "--w", "w1",
            "--cv", "--out", str(tmp_path / "o.json"),
        ])
        assert code == 3
        assert "solver error" in capsys.readouterr().err
        assert not (tmp_path / "o.json").exists()

    def test_repeated_column_name_exit_code(self, tmp_path):
        csv_in = tmp_path / "dup.csv"
        csv_in.write_text("y,z,w,w\n1,0.1,2,5\n2,0.2,3,6\n3,0.4,4,8\n", encoding="utf-8")
        code = main([
            "fit", "--input", str(csv_in), "--y", "y", "--z", "z", "--w", "w",
            "--lambda", "0.1", "--out", str(tmp_path / "o.json"),
        ])
        assert code == 2

    def test_infeasible_tilt_exit_code(self, tmp_path):
        rng = np.random.default_rng(0)
        n = 6
        z = np.sort(rng.uniform(-1.5, 1.5, n))
        rng.shuffle(z)
        w = z + 0.3 * rng.standard_normal(n)
        y = -2.0 * z + 0.1 * rng.standard_normal(n)
        csv_in = tmp_path / "dec.csv"
        ivs.write_csv(ivs.Dataset(y=y, z=z, w=w), csv_in)
        code = main([
            "fit", "--input", str(csv_in), "--y", "y", "--z", "z", "--w", "w1",
            "--lambda", "0.5", "--monotone", "increasing",
            "--out", str(tmp_path / "o.json"),
        ])
        assert code == 4

    def test_near_infeasible_tilt_exit_code(self, tmp_path):
        # a program whose best margin is roundoff exits 4 instead of writing
        # weights with a KKT residual near 1e7
        cfg = ivs.DgpConfig(n=50, rho_ev=0.5, rho_wz=0.9, g_id="g2", seed=1011)
        csv_in = tmp_path / "g2.csv"
        ivs.write_csv(ivs.generate(cfg)["dataset"], csv_in)
        code = main([
            "fit", "--input", str(csv_in), "--y", "y", "--z", "z", "--w", "w1",
            "--lambda", "1e-5", "--monotone", "increasing",
            "--out", str(tmp_path / "o.json"),
        ])
        assert code == 4
        assert not (tmp_path / "o.json").exists()

    def test_lambda_and_cv_mutually_exclusive(self, tmp_path):
        csv_in = write_fit_csv(tmp_path / "d.csv")
        code = main([
            "fit", "--input", str(csv_in), "--y", "y", "--z", "z", "--w", "w1",
            "--lambda", "0.1", "--cv", "--out", str(tmp_path / "o.json"),
        ])
        assert code == 2

    def test_nonpositive_lambda_rejected(self, tmp_path):
        csv_in = write_fit_csv(tmp_path / "d.csv")
        code = main([
            "fit", "--input", str(csv_in), "--y", "y", "--z", "z", "--w", "w1",
            "--lambda", "-0.5", "--out", str(tmp_path / "o.json"),
        ])
        assert code == 2


class TestSimulateCommand:
    def test_deterministic_byte_identical(self, tmp_path):
        args = [
            "simulate", "--g", "1", "--n", "50", "--rho-ev", "0.5", "--rho-wz", "0.9",
            "--reps", "10", "--seed", "7",
        ]
        out1, out2 = tmp_path / "run1", tmp_path / "run2"
        assert main(args + ["--out-dir", str(out1)]) == 0
        assert main(args + ["--out-dir", str(out2)]) == 0
        assert (out1 / "mcreport.csv").read_bytes() == (out2 / "mcreport.csv").read_bytes()
        assert (out1 / "summary.json").read_bytes() == (out2 / "summary.json").read_bytes()

    def test_summary_contents(self, tmp_path):
        out = tmp_path / "sim"
        assert main([
            "simulate", "--g", "2", "--n", "40", "--rho-ev", "0.5", "--rho-wz", "0.9",
            "--reps", "4", "--seed", "3", "--out-dir", str(out),
        ]) == 0
        doc = read_document(out / "summary.json")
        assert doc["replications"] == 4
        assert doc["failures"] == 0 and doc["failure_types"] == {}
        assert doc["estimator"] == "unconstrained"
        assert doc["mse"] == pytest.approx(doc["bias_sq"] + doc["variance"], abs=1e-10)

    def test_summary_lambda_star_block(self, tmp_path):
        out = tmp_path / "sim"
        assert main([
            "simulate", "--g", "1", "--n", "40", "--rho-ev", "0.5", "--rho-wz", "0.9",
            "--reps", "4", "--seed", "2", "--out-dir", str(out),
        ]) == 0
        block = read_document(out / "summary.json")["lambda_star"]
        cfg = ivs.DgpConfig(n=40, rho_ev=0.5, rho_wz=0.9, g_id="g1", seed=2)
        stars = ivs.monte_carlo(cfg, "unconstrained", 4, cv=ivs.CvConfig(seed=2)).lambda_stars
        grid = ivs.default_grid()
        assert block == {
            "min": stars.min(),
            "median": np.median(stars),
            "max": stars.max(),
            "boundary_hits": int(np.isin(stars, [grid[0], grid[-1]]).sum()),
        }

    def test_too_few_rows_for_cv_is_input_error(self, tmp_path):
        args = ["simulate", "--g", "1", "--n", "5", "--rho-ev", "0.5", "--rho-wz", "0.9",
                "--reps", "3", "--seed", "1", "--out-dir", str(tmp_path / "x")]
        assert main(args) == 2
        cfg = ivs.DgpConfig(n=5, rho_ev=0.5, rho_wz=0.9, g_id="g1", seed=1)
        with pytest.raises(ivs.SizeError):
            ivs.monte_carlo(cfg, "unconstrained", 3)

    @pytest.mark.parametrize("flag, value", [("--rho-wz", "nan"), ("--reps", "1")])
    def test_library_checks_give_input_error(self, tmp_path, capsys, flag, value):
        args = {"--g": "1", "--n": "50", "--rho-ev": "0.5", "--rho-wz": "0.9", "--reps": "5",
                "--seed": "1", "--out-dir": str(tmp_path / "x"), flag: value}
        assert main(["simulate", *[item for pair in args.items() for item in pair]]) == 2
        assert "input error" in capsys.readouterr().err
        assert not (tmp_path / "x").exists()

    def test_rho_validation_exit_code(self, tmp_path):
        code = main([
            "simulate", "--g", "1", "--n", "50", "--rho-ev", "1.0", "--rho-wz", "0.9",
            "--reps", "5", "--seed", "1", "--out-dir", str(tmp_path / "x"),
        ])
        assert code == 2


class TestPlotCommand:
    def make_curve(self, path, k=1.0, rows=25):
        zs = np.linspace(0, 1, rows)
        lines = ["z,ghat,ghat_prime"]
        lines += [f"{z},{k * z * z},{2 * k * z}" for z in zs]
        path.write_text("\n".join(lines) + "\n")
        return path

    def test_single_curve_single_polyline(self, tmp_path):
        curve = self.make_curve(tmp_path / "a.csv")
        out = tmp_path / "plot.svg"
        assert main(["plot", str(curve), "--out", str(out)]) == 0
        svg = out.read_text()
        assert svg.count("<polyline") == 1
        assert "a</text>" in svg

    def test_two_curves_two_polylines_with_legend(self, tmp_path):
        c1 = self.make_curve(tmp_path / "first.csv", k=1.0)
        c2 = self.make_curve(tmp_path / "second.csv", k=-0.5)
        out = tmp_path / "plot.svg"
        assert main(["plot", str(c1), str(c2), "--out", str(out)]) == 0
        svg = out.read_text()
        assert svg.count("<polyline") == 2
        assert "first</text>" in svg and "second</text>" in svg

    def test_empty_curve_file_exit_code(self, tmp_path):
        empty = tmp_path / "empty.csv"
        empty.write_text("z,ghat,ghat_prime\n")
        assert main(["plot", str(empty), "--out", str(tmp_path / "p.svg")]) == 2

    def test_malformed_header_exit_code(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("x,y\n1,2\n")
        assert main(["plot", str(bad), "--out", str(tmp_path / "p.svg")]) == 2

    @pytest.mark.parametrize("cell", ["nan", "inf", "-inf"])
    def test_non_finite_value_exit_code(self, tmp_path, capsys, cell):
        # a non-finite value would make NaN axis labels and polyline points
        curve = self.make_curve(tmp_path / "c.csv")
        lines = curve.read_text().splitlines()
        lines[3] = f"0.5,{cell},1.0"
        curve.write_text("\n".join(lines) + "\n")
        out = tmp_path / "p.svg"
        assert main(["plot", str(curve), "--out", str(out)]) == 2
        assert "non-finite value" in capsys.readouterr().err
        assert not out.exists()

    def test_byte_order_mark_is_skipped(self, tmp_path):
        curve = self.make_curve(tmp_path / "c.csv")
        curve.write_bytes(b"\xef\xbb\xbf" + curve.read_bytes())
        assert main(["plot", str(curve), "--out", str(tmp_path / "p.svg")]) == 0

    def test_deterministic_output(self, tmp_path):
        curve = self.make_curve(tmp_path / "c.csv")
        o1, o2 = tmp_path / "p1.svg", tmp_path / "p2.svg"
        assert main(["plot", str(curve), "--out", str(o1)]) == 0
        assert main(["plot", str(curve), "--out", str(o2)]) == 0
        assert o1.read_bytes() == o2.read_bytes()


def run_module(*args):
    """``python -m ivspline.cli *args`` importing the same ``ivspline`` as this process.

    pytest's ``pythonpath`` setting reaches only its own process, so the
    package's directory goes on the child's PYTHONPATH.
    """
    import os
    import subprocess
    import sys
    from pathlib import Path

    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(Path(ivs.__file__).resolve().parents[1]), env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, "-m", "ivspline.cli", *args],
                          capture_output=True, text=True, env=env)


class TestEntryPoint:
    def test_module_invocation(self, tmp_path):
        csv_in = write_fit_csv(tmp_path / "d.csv", n=8, noise=0.1)
        out = tmp_path / "fit.json"
        proc = run_module("fit", "--input", str(csv_in), "--y", "y", "--z", "z", "--w", "w1",
                          "--lambda", "0.1", "--out", str(out))
        assert proc.returncode == 0, proc.stderr
        assert out.exists()

    def test_module_invocation_error_stream(self, tmp_path):
        csv_in = write_fit_csv(tmp_path / "d.csv")
        proc = run_module("fit", "--input", str(csv_in), "--y", "nope", "--z", "z", "--w", "w1",
                          "--lambda", "0.1", "--out", str(tmp_path / "o.json"))
        assert proc.returncode == 2
        assert "nope" in proc.stderr
