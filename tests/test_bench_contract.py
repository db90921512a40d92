"""The benchmark scripts' reads of the package resolve.

The scripts under ``bench/`` change only together with the benchmark, so a
cut or renamed export would show only when a sweep or a traced run fails.
Every attribute chain they read off ``ivs`` or ``ivspline`` -- in their code
and in the code strings they run in a fresh interpreter -- must resolve on
the package, as must the modules and private helpers the tracer wraps.
"""

import ast
import importlib
import sys
from pathlib import Path

import pytest

import ivspline

BENCH = Path(__file__).resolve().parent.parent / "bench"
PACKAGE_NAMES = ("ivs", "ivspline")


def _trees():
    """(label, syntax tree) of each bench script and of each package-importing code string in it."""
    for path in sorted(BENCH.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        yield path.name, tree
        for node in ast.walk(tree):
            code = node.value if isinstance(node, ast.Constant) else None
            if isinstance(code, str) and "import ivspline" in code:
                yield f"{path.name}:{node.lineno}", ast.parse(code)


def _chain(node):
    """The names of an attribute chain a.b.c as ["a", "b", "c"]; None unless it starts at a name."""
    names = []
    while isinstance(node, ast.Attribute):
        names.append(node.attr)
        node = node.value
    if not isinstance(node, ast.Name):
        return None
    names.append(node.id)
    return names[::-1]


def _package_reads():
    """Sorted (label, dotted path below the package) of every chain read through a package name."""
    reads = set()
    for label, tree in _trees():
        inner = {id(node.value) for node in ast.walk(tree) if isinstance(node, ast.Attribute)}
        for node in ast.walk(tree):
            if not isinstance(node, ast.Attribute) or id(node) in inner:
                continue  # a prefix of a longer chain
            names = _chain(node)
            starts = [i for i, name in enumerate(names or ()) if name in PACKAGE_NAMES]
            if starts and starts[0] + 1 < len(names):
                reads.add((label, ".".join(names[starts[0] + 1:])))
    return sorted(reads)


def _imported_submodules():
    """Modules the bench scripts import by their dotted ``ivspline.`` name."""
    names = set()
    for _, tree in _trees():
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                names.update(a.name for a in node.names if a.name.startswith("ivspline."))
            elif isinstance(node, ast.ImportFrom) and (node.module or "").startswith("ivspline"):
                names.add(node.module)
    return sorted(names)


READS = _package_reads()
SUBMODULES = _imported_submodules()


def _resolve(dotted):
    obj = ivspline
    for name in dotted.split("."):
        obj = getattr(obj, name)
    return obj


def test_the_reads_cover_the_known_entry_points():
    # the parser finds the chains the sweep and the tracer depend on
    chains = {chain for _, chain in READS}
    assert {"simlab.fit", "PathSolver.coefficients", "KernelSpec", "build_design",
            "build_weight_matrix", "monte_carlo", "cli.main"} <= chains


@pytest.mark.parametrize("module", SUBMODULES)
def test_imported_submodule_exists(module):
    importlib.import_module(module)


@pytest.mark.parametrize("label, chain", READS, ids=[f"{label}:{chain}" for label, chain in READS])
def test_package_read_resolves(label, chain):
    for module in SUBMODULES:
        importlib.import_module(module)
    _resolve(chain)


def _spans():
    sys.path.insert(0, str(BENCH))
    try:
        import spans
    finally:
        sys.path.remove(str(BENCH))
    return spans


def test_tracer_targets_resolve():
    spans = _spans()
    for short in spans.LAYER_MODULES:
        module = importlib.import_module(f"ivspline.{short}")
        for private in spans.PRIVATE_TARGETS.get(short, ()):
            assert callable(getattr(module, private))


def _factorization_calls(run):
    """Calls of each of the tracer's factorization names made by ``run()``, counted by the tracer itself."""
    spans = _spans()
    tracer = spans.Tracer()
    tracer.install()
    try:
        run()
    finally:
        tracer.uninstall()
    names = [span[0] for span in tracer.spans]
    return {name: names.count(f"linalg.{name}") for name in spans.FACTORIZATIONS}


def _g1_draw(n=200, seed=4):
    return ivspline.generate(ivspline.DgpConfig(n=n, rho_ev=0.5, rho_wz=0.9, g_id="g1", seed=seed))["dataset"]


# The traced metrics solver.factorizations and monotone.factorizations count
# the calls the tracer sees; a factorization reached some other way (a LAPACK
# routine called directly) would read zero without any other test failing.
def test_cli_fit_cv_factorizations_are_traced(tmp_path):
    import ivspline.cli

    csv = tmp_path / "data.csv"
    ivspline.write_csv(_g1_draw(), csv)
    argv = ["fit", "--input", str(csv), "--y", "y", "--z", "z", "--w", "w1", "--cv",
            "--out", str(tmp_path / "fit.json")]
    codes = []
    calls = _factorization_calls(lambda: codes.append(ivspline.cli.main(argv)))
    assert codes == [0]
    # one eigendecomposition per cross-validation fold, one LU for the fit
    assert calls["eigh"] == 2 and calls["lu_factor"] == 1


def test_monotone_fit_factorization_is_traced():
    ds = _g1_draw()
    direction = ivspline.MonotoneDirection.INCREASING
    calls = _factorization_calls(lambda: ivspline.fit_monotone(ds, 1e-2, direction))
    # the smoother, the tilt and the refit share the fit's one LU
    assert calls["lu_factor"] == 1
