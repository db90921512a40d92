"""The package's one CSV format: its exact bytes, its reader's rules on datasets and curve files, and its one home."""

import ast
from pathlib import Path

import numpy as np
import pytest

import ivspline as ivs
from ivspline.cli import _write_curve_csv, main, read_document
from ivspline.simlab import write_report_csv

# 0.1 and -2.5e-7 need all 17 digits to read back; 1e22 is written with an exponent
TRICKY = [0.1, -2.5e-7, 1e22]


class TestGoldenBytes:
    def test_dataset(self, tmp_path):
        ds = ivs.Dataset(y=TRICKY, z=[1.0, 2.0, 3.0], w=[[0.5, -1.0], [1.5, 0.0], [2.5, 1.0]])
        path = tmp_path / "d.csv"
        ivs.write_csv(ds, path, y="out come", z="z", w_names=["w,1", 'w"2'])
        assert path.read_bytes() == (
            b'out come,z,"w,1","w""2"\r\n'
            b"0.10000000000000001,1,0.5,-1\r\n"
            b"-2.4999999999999999e-07,2,1.5,0\r\n"
            b"1e+22,3,2.5,1\r\n"
        )

    def test_curve(self, tmp_path):
        path = tmp_path / "c.csv"
        _write_curve_csv(path, {"z": np.array(TRICKY), "ghat": np.array([1.0, 2.0, 3.0]),
                                "ghat_prime": np.array([-0.5, 0.0, 1 / 3])})
        assert path.read_bytes() == (
            b"z,ghat,ghat_prime\r\n"
            b"0.10000000000000001,1,-0.5\r\n"
            b"-2.4999999999999999e-07,2,0\r\n"
            b"1e+22,3,0.33333333333333331\r\n"
        )

    def test_report(self, tmp_path):
        per_point = {"bias_sq": np.array([0.1, 1e22]), "variance": np.array([-2.5e-7, 0.0]),
                     "mse": np.array([1.0, 2.0])}
        report = ivs.McReport(grid=np.array([-2.0, 2.0]), bias_sq=0.1, variance=-2.5e-7, mse=1e22,
                              per_point=per_point, replications=2, estimator_tag="unconstrained",
                              lambda_stars=np.array([1e-5, 1e-5]))
        path = tmp_path / "r.csv"
        write_report_csv(report, path)
        assert path.read_bytes() == (
            b"z,bias_sq,variance,mse\r\n"
            b"-2,0.10000000000000001,-2.4999999999999999e-07,1\r\n"
            b"2,1e+22,0,2\r\n"
            b"ALL,0.10000000000000001,-2.4999999999999999e-07,1e+22\r\n"
        )


def test_write_csv_rejects_repeated_names(tmp_path):
    # the header y,z,y would not read back: load_csv rejects a requested name that repeats
    ds = ivs.Dataset(y=[1.0, 2.0, 3.0], z=[0.1, 0.2, 0.4], w=[0.5, 0.7, 0.9])
    path = tmp_path / "dup.csv"
    with pytest.raises(ivs.SchemaError, match="'y' appears 2 times"):
        ivs.write_csv(ds, path, w_names=["y"])
    assert not path.exists()


SMALL = dict(y=[1.0, 2.0, 3.0], z=[0.1, 0.2, 0.4], w=[0.5, 0.7, 0.9])


def test_write_csv_rejects_names_repeated_once_stripped(tmp_path):
    # the reader strips header cells, so the header y,z,"y " would read back as y,z,y
    path = tmp_path / "dup.csv"
    with pytest.raises(ivs.SchemaError, match="'y' appears 2 times"):
        ivs.write_csv(ivs.Dataset(**SMALL), path, w_names=["y "])
    assert not path.exists()


@pytest.mark.parametrize("requested", [(" y", "z", "w1"), ("y", "z", "w1"), ("y ", " z ", " w1")])
def test_names_with_surrounding_spaces_read_back(requested, tmp_path):
    # requested names are stripped as the header cells are, however either side is spaced
    ds = ivs.Dataset(**SMALL)
    path = tmp_path / "spaced.csv"
    ivs.write_csv(ds, path, y=" y", w_names=["w1 "])
    assert path.read_bytes().startswith(b" y,z,w1 \r\n")
    y, z, w = requested
    back = ivs.load_csv(path, y=y, z=z, w=w)
    assert (back.y.tobytes(), back.z.tobytes(), back.w.tobytes()) == (ds.y.tobytes(), ds.z.tobytes(), ds.w.tobytes())


def test_fit_reads_spaced_column_names(tmp_path):
    # ivspline fit hands its column names to the reader as given, --y and --z as --w
    ds = ivs.generate(ivs.DgpConfig(n=40, rho_ev=0.5, rho_wz=0.9, g_id="g1", seed=2))["dataset"]
    csv_in = tmp_path / "d.csv"
    ivs.write_csv(ds, csv_in)
    deltas = []
    for names in (["y", "z", "w1"], [" y", "z ", " w1"]):
        out = tmp_path / "fit.json"
        args = ["fit", "--input", str(csv_in), "--y", names[0], "--z", names[1], "--w", names[2]]
        assert main(args + ["--lambda", "0.01", "--out", str(out)]) == 0
        deltas.append(read_document(out)["delta"])
    assert deltas[0] == deltas[1]


# ---------------------------------------------------------------------------
# the reader's rules, on a dataset file (load_csv) and a curve file (ivspline plot)
# ---------------------------------------------------------------------------

KINDS = {"dataset": ["y", "z", "w"], "curve": ["z", "ghat", "ghat_prime"]}
ROWS = [[1.0, 0.1, 2.0], [2.0, 0.2, 3.0], [3.0, 0.3, 4.0], [4.0, 0.4, 5.0]]


def write_table(path, header, rows, prefix=b""):
    lines = [",".join(header)] + [",".join(map(str, row)) for row in rows]
    path.write_bytes(prefix + ("\n".join(lines) + "\n").encode())
    return path


def read(kind, path, tmp_path):
    """The dataset's arrays, or the bytes of the file's plot."""
    if kind == "dataset":
        ds = ivs.load_csv(path, y="y", z="z", w="w")
        return ds.y, ds.z, ds.w
    svg = tmp_path / "out" / "plot.svg"
    svg.parent.mkdir(exist_ok=True)
    assert main(["plot", str(path), "--out", str(svg)]) == 0
    return svg.read_bytes()


def drop_last_cell(header, rows):
    return header, [rows[0], rows[1][:-1], *rows[2:]]


def non_finite_last_column(header, rows):
    return header, [rows[0], [*rows[1][:-1], "inf"], *rows[2:]]


FAILURES = {
    "missing column": (lambda h, r: (h[:-1], [row[:-1] for row in r]), ivs.SchemaError, "missing column"),
    "repeated requested column": (lambda h, r: ([*h, h[1]], [[*row, 0.0] for row in r]), ivs.SchemaError,
                                  "appears 2 times"),
    "short row": (drop_last_cell, ivs.ParseError, "data row 2 has 2 cells"),
    "non-finite cell": (non_finite_last_column, ivs.ParseError, "non-finite value 'inf'"),
}


@pytest.mark.parametrize("case", FAILURES)
@pytest.mark.parametrize("kind", KINDS)
def test_reader_rejects(kind, case, tmp_path, capsys):
    mutate, error, message = FAILURES[case]
    path = write_table(tmp_path / "t.csv", *mutate(KINDS[kind], ROWS))
    if kind == "dataset":
        with pytest.raises(error, match=message):
            ivs.load_csv(path, y="y", z="z", w="w")
    else:
        svg = tmp_path / "plot.svg"
        assert main(["plot", str(path), "--out", str(svg)]) == 2
        assert message in capsys.readouterr().err
        assert not svg.exists()


@pytest.mark.parametrize("kind", KINDS)
def test_reader_skips_byte_order_mark_and_blank_lines(kind, tmp_path):
    # each file in a folder of its own, all named t.csv: the plot's legend is the file's stem
    header = KINDS[kind]
    variants = {"plain": (ROWS, b""), "marked": (ROWS, b"\xef\xbb\xbf"),
                "blank": ([[], ROWS[0], [], ["", "", ""], *ROWS[1:]], b"")}
    results = {}
    for folder, (rows, prefix) in variants.items():
        (tmp_path / folder).mkdir()
        results[folder] = read(kind, write_table(tmp_path / folder / "t.csv", header, rows, prefix), tmp_path)
    for folder in ("marked", "blank"):
        if kind == "dataset":
            assert all(np.array_equal(a, b) for a, b in zip(results[folder], results["plain"]))
        else:
            assert results[folder] == results["plain"]


def test_plot_finds_curve_columns_by_name(tmp_path):
    # the legend is the file's stem, so both files are named c.csv
    for folder in ("plain", "shuffled"):
        (tmp_path / folder).mkdir()
    header = KINDS["curve"]
    plain = write_table(tmp_path / "plain" / "c.csv", header, ROWS)
    shuffled = write_table(tmp_path / "shuffled" / "c.csv", ["note", "ghat_prime", "z", "ghat"],
                           [[f"r{k}", gp, z, g] for k, (z, g, gp) in enumerate(ROWS)])
    svgs = []
    for path in (plain, shuffled):
        svg = path.with_suffix(".svg")
        assert main(["plot", str(path), "--out", str(svg)]) == 0
        svgs.append(svg.read_bytes())
    assert svgs[0] == svgs[1]


def test_datamodel_alone_holds_the_format():
    """No module but datamodel imports csv or uses its cell parser, so a second copy of the format cannot return."""
    package = Path(ivs.__file__).parent
    holders = set()
    for source in sorted(package.glob("*.py")):
        for node in ast.walk(ast.parse(source.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                found = any(alias.name.split(".")[0] == "csv" for alias in node.names)
            elif isinstance(node, ast.ImportFrom):
                found = node.module == "csv" or any(alias.name == "_parse_cell" for alias in node.names)
            elif isinstance(node, ast.Name):
                found = node.id == "_parse_cell"
            elif isinstance(node, ast.Attribute):
                found = node.attr == "_parse_cell"
            else:
                found = False
            if found:
                holders.add(source.stem)
    assert holders == {"datamodel"}


def test_kernel_alone_holds_the_weight_matrix_and_workers_the_pool():
    """Only kernel reads the tie map ``.groups``, and only _workers names ``_worker_pool``."""
    package = Path(ivs.__file__).parent
    readers, namers = set(), set()
    for source in sorted(package.glob("*.py")):
        for node in ast.walk(ast.parse(source.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Attribute) and node.attr == "groups":
                readers.add(source.stem)
            # a name read or bound (id), an attribute (attr), a def or an imported name (name)
            if "_worker_pool" in (getattr(node, "id", None), getattr(node, "attr", None), getattr(node, "name", None)):
                namers.add(source.stem)
    assert readers == {"kernel"}
    assert namers == {"_workers"}
