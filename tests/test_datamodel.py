import numpy as np
import pytest

import ivspline as ivs


def write_lines(path, lines):
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


class TestLoadCsv:
    def test_three_row_parse(self, tmp_path):
        f = tmp_path / "tiny.csv"
        write_lines(f, ["y,z,w", "1.0,0.1,2.0", "2.0,0.2,3.0", "3.0,0.3,4.0"])
        ds = ivs.load_csv(f, y="y", z="z", w="w")
        assert ds.n == 3 and ds.p == 1
        assert np.array_equal(ds.y, [1.0, 2.0, 3.0])
        assert np.array_equal(ds.w[:, 0], [2.0, 3.0, 4.0])

    def test_missing_column_names_it(self, tmp_path):
        f = tmp_path / "m.csv"
        write_lines(f, ["y,w", "1,2", "2,3", "3,4"])
        with pytest.raises(ivs.SchemaError, match="'z'"):
            ivs.load_csv(f, y="y", z="z", w="w")

    def test_repeated_requested_column_names_it(self, tmp_path):
        f = tmp_path / "dup.csv"
        write_lines(f, ["y,z,w,w", "1,0.1,2,5", "2,0.2,3,6", "3,0.3,4,7"])
        with pytest.raises(ivs.SchemaError, match="'w' appears 2 times"):
            ivs.load_csv(f, y="y", z="z", w="w")

    def test_repeated_unrequested_column_is_ignored(self, tmp_path):
        f = tmp_path / "dup.csv"
        write_lines(f, ["y,z,x,w,x", "1,0.1,9,2,9", "2,0.2,9,3,9", "3,0.3,9,4,9"])
        ds = ivs.load_csv(f, y="y", z="z", w="w")
        assert np.array_equal(ds.w[:, 0], [2.0, 3.0, 4.0])

    def test_nan_cell_cites_row(self, tmp_path):
        f = tmp_path / "nan.csv"
        write_lines(f, ["y,z,w", "1,0.1,2", "NaN,0.2,3", "3,0.3,4"])
        with pytest.raises(ivs.ParseError, match="row 2") as err:
            ivs.load_csv(f, y="y", z="z", w="w")
        assert err.value.row == 2
        assert err.value.column == "y"

    def test_non_numeric_cell(self, tmp_path):
        f = tmp_path / "bad.csv"
        write_lines(f, ["y,z,w", "1,0.1,2", "2,oops,3", "3,0.3,4"])
        with pytest.raises(ivs.ParseError, match="row 2"):
            ivs.load_csv(f, y="y", z="z", w="w")

    def test_too_few_rows(self, tmp_path):
        f = tmp_path / "small.csv"
        write_lines(f, ["y,z,w", "1,0.1,2", "2,0.2,3"])
        with pytest.raises(ivs.SizeError):
            ivs.load_csv(f, y="y", z="z", w="w")

    def test_multiple_instrument_columns(self, tmp_path):
        f = tmp_path / "multi.csv"
        write_lines(f, ["y,z,w1,w2", "1,0.1,2,5", "2,0.2,3,6", "3,0.3,4,7"])
        ds = ivs.load_csv(f, y="y", z="z", w=["w1", "w2"])
        assert ds.p == 2

    def test_byte_order_mark_is_skipped(self, tmp_path):
        f = tmp_path / "bom.csv"
        f.write_bytes(b"\xef\xbb\xbfy,z,w\n1.0,0.1,2.0\n2.0,0.2,3.0\n3.0,0.3,4.0\n")
        ds = ivs.load_csv(f, y="y", z="z", w="w")
        assert np.array_equal(ds.y, [1.0, 2.0, 3.0])
        assert np.array_equal(ds.w[:, 0], [2.0, 3.0, 4.0])

    def test_round_trip_is_exact(self, tmp_path, rng):
        ds = ivs.Dataset(
            y=rng.standard_normal(7) * 1e3,
            z=rng.standard_normal(7) / 1e3,
            w=rng.standard_normal((7, 2)),
        )
        f = tmp_path / "rt.csv"
        ivs.write_csv(ds, f)
        back = ivs.load_csv(f, y="y", z="z", w=["w1", "w2"])
        # 17 significant digits round-trip float64 exactly
        assert np.array_equal(back.y, ds.y)
        assert np.array_equal(back.z, ds.z)
        assert np.array_equal(back.w, ds.w)


class TestStandardize:
    def test_two_point_column(self):
        # center 1 and (n-1)-divisor scale sqrt(2)
        out = ivs.standardize_instruments(np.array([[0.0], [2.0]]))
        assert out.shape == (2, 1)
        assert out[:, 0] == pytest.approx([-1 / np.sqrt(2), 1 / np.sqrt(2)])
        assert not out.flags.writeable

    def test_idempotent_up_to_recentering(self, rng):
        w = rng.standard_normal((20, 1))
        once = ivs.standardize_instruments(w)
        twice = ivs.standardize_instruments(once)
        assert np.allclose(twice, once - once.mean(axis=0), atol=1e-12)

    def test_constant_column_rejected(self):
        with pytest.raises(ivs.DegenerateInstrumentError):
            ivs.standardize_instruments(np.array([[5.0], [5.0], [5.0]]))

    def test_unit_standard_deviation(self, rng):
        w = rng.standard_normal((15, 3)) * [2.0, 5.0, 0.1]
        out = ivs.standardize_instruments(w)
        assert np.allclose(out.std(axis=0, ddof=1), 1.0, rtol=1e-12)

    def test_transform_invertible(self, rng):
        w = rng.standard_normal((12, 2)) * 3 + 1
        out = ivs.standardize_instruments(w)
        assert np.allclose(out * w.std(axis=0, ddof=1) + w.mean(axis=0), w, rtol=1e-12)

    @pytest.mark.parametrize("seed", range(5))
    def test_affine_equivariance(self, seed):
        rng = np.random.default_rng(seed)
        w = rng.standard_normal((11, 2))
        a = rng.uniform(0.1, 10.0)
        b = rng.uniform(-5.0, 5.0)
        base = ivs.standardize_instruments(w)
        moved = ivs.standardize_instruments(a * w + b)
        assert np.allclose(moved, base, atol=1e-12)


class TestDataset:
    def test_row_mismatch(self):
        with pytest.raises(ivs.SizeError):
            ivs.Dataset(y=[1, 2, 3], z=[1, 2], w=[[1], [2], [3]])

    def test_too_small(self):
        with pytest.raises(ivs.SizeError):
            ivs.Dataset(y=[1, 2], z=[1, 2], w=[[1], [2]])

    def test_non_finite_rejected(self):
        with pytest.raises(ivs.ParseError):
            ivs.Dataset(y=[1, np.inf, 3], z=[1, 2, 3], w=[[1], [2], [3]])

    def test_zero_instrument_columns_rejected(self):
        # an n x 0 instrument array is no instrument: a typed error, not an IndexError
        with pytest.raises(ivs.SizeError, match="column"):
            ivs.Dataset(y=np.zeros(10), z=np.arange(10.0), w=np.empty((10, 0)))
        with pytest.raises(ivs.SizeError, match="column"):
            ivs.build_weight_matrix(np.empty((10, 0)))

    @pytest.mark.parametrize("call, error", [
        (lambda: ivs.build_weight_matrix([[1.0], [np.nan], [2.0]]), ivs.ParseError),
        (lambda: ivs.build_weight_matrix([[1.0], [np.inf], [2.0]]), ivs.ParseError),
        (lambda: ivs.build_weight_matrix(np.empty((0, 1))), ivs.SizeError),
        (lambda: ivs.standardize_instruments([1.0, np.nan, 2.0]), ivs.ParseError),
        (lambda: ivs.standardize_instruments(np.empty((0, 2))), ivs.SizeError),
        (lambda: ivs.moment_criterion([1.0, np.nan, 2.0], ivs.build_weight_matrix([0.0, 1.0, 3.0])), ivs.ParseError),
        (lambda: ivs.moment_criterion([], ivs.build_weight_matrix([0.0, 1.0, 3.0])), ivs.SizeError),
        (lambda: ivs.Dataset(y=[], z=[], w=[]), ivs.SizeError),
    ], ids=["weights-nan", "weights-inf", "weights-empty", "standardize-nan", "standardize-empty",
            "criterion-nan", "criterion-empty", "dataset-empty"])
    def test_raw_arrays_get_the_datasets_checks(self, call, error):
        # the raw-array entry points share Dataset's check: non-finite entries
        # raise ParseError and empty arrays SizeError, with no warning on the way
        # (pytest turns RuntimeWarning into an error)
        with pytest.raises(error):
            call()

    def test_vector_instruments_promoted(self):
        ds = ivs.Dataset(y=[1, 2, 3], z=[1, 2, 3], w=[1, 2, 3])
        assert ds.w.shape == (3, 1)

    def test_duplicate_instrument_rows_are_grouped(self):
        # duplicated instrument rows are legal; the weight matrix groups them
        ds = ivs.Dataset(y=[1, 2, 3], z=[1, 2, 3], w=[[1.0], [1.0], [2.0]])
        assert ivs.build_weight_matrix(ds.w).m == 2
        ds2 = ivs.Dataset(y=[1, 2, 3], z=[1, 2, 3], w=[[1.0], [1.5], [2.0]])
        assert ivs.build_weight_matrix(ds2.w).groups is None

    def test_immutable_arrays(self):
        ds = ivs.Dataset(y=[1, 2, 3], z=[1, 2, 3], w=[[1], [2], [3]])
        with pytest.raises(ValueError):
            ds.y[0] = 9.0
