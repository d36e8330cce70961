"""Checks on the package's source files themselves."""

import ast
import os
import pathlib
import subprocess
import sys

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "okvalid"

_COMPILE_PEAK = (
    "import sys, tracemalloc\n"
    "source = open(sys.argv[1], encoding='utf-8').read()\n"
    "compile(source, sys.argv[1], 'exec')\n"
    "tracemalloc.start()\n"
    "compile(source, sys.argv[1], 'exec')\n"
    "print(tracemalloc.get_traced_memory()[1])\n"
)


def _compile_peak(path: pathlib.Path) -> int:
    """The traced peak of compiling path in a fresh interpreter, after one
    untraced compile there: within one process a later compile's peak can
    read about 0.4 MB high."""
    out = subprocess.run([sys.executable, "-c", _COMPILE_PEAK, str(path)],
                         capture_output=True, text=True, check=True)
    return int(out.stdout)


def test_no_module_compiles_above_intervals():
    # where no bytecode is written, each import compiles its module from
    # source, and the largest compile peak sets the import's memory
    # high-water mark: intervals.py's (about 1.9 MB on CPython 3.11) is the
    # ceiling, and a module that outgrows it raises every process's peak
    peaks = {path.name: _compile_peak(path) for path in sorted(SRC.glob("*.py"))}
    ceiling = peaks["intervals.py"]
    over = {name: peak for name, peak in peaks.items() if peak > ceiling}
    assert not over, (ceiling, over)


# Module-level functions that only code outside src/ calls, each with why.
_OUTSIDE_CALLERS = {
    # bench/test_tracer.py traces it until that test traces a program path
    "operator.poly_eval_series",
}


def _references(tree: ast.Module):
    """(enclosing top-level name, referenced name) for every ast.Name,
    ast.Attribute and import alias in tree; strings are not references."""
    for top in tree.body:
        owner = getattr(top, "name", None)
        for node in ast.walk(top):
            if isinstance(node, ast.Name):
                yield owner, node.id
            elif isinstance(node, ast.Attribute):
                yield owner, node.attr
            elif isinstance(node, ast.alias):
                yield owner, node.asname or node.name


def test_every_function_is_used_by_the_program():
    # test-only code belongs in tests/: every module-level function in
    # src/okvalid is referenced from src/ outside its own body, or exported
    import okvalid

    trees = {path.stem: ast.parse(path.read_text(encoding="utf-8")) for path in SRC.glob("*.py")}
    refs = {(module, owner, name) for module, tree in trees.items() for owner, name in _references(tree)}
    unused = [
        f"{module}.{node.name}"
        for module, tree in sorted(trees.items())
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        and not any(name == node.name and (other, owner) != (module, node.name)
                    for other, owner, name in refs)
        and node.name not in okvalid.__all__
        and f"{module}.{node.name}" not in _OUTSIDE_CALLERS
    ]
    assert not unused


def test_program_imports_no_scipy():
    # a fresh interpreter imports the package, its command line and its
    # file formats and runs one 1-d validate whose Gram certificates take
    # the Lanczos estimate (blocks of 99 and 100 modes, wider than
    # EIGVALSH_WIDTH); no scipy module is loaded, whose import alone costs
    # more than the program's whole set-up
    script = (
        "import sys\n"
        "import okvalid, okvalid.cli, okvalid.files\n"
        "import okvalid.intervals as iv\n"
        "from okvalid import CosineSeries, validate\n"
        "from okvalid.operator import ModelParams\n"
        "estimate, widths = iv._lambda_max_estimate, []\n"
        "iv._lambda_max_estimate = lambda g, v: widths.append(len(g)) or estimate(g, v)\n"
        "p = ModelParams(lam=5.0, sigma=1.0)\n"
        "cert = validate(p, CosineSeries.zeros((2,)), 'lambda', n=200)\n"
        "assert cert.valid, cert.reason\n"
        "assert min(widths, default=0) > iv.EIGVALSH_WIDTH, widths\n"
        "print(sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')))\n"
    )
    env = dict(os.environ, PYTHONPATH=str(SRC.parent))
    out = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True,
                         check=True)
    assert out.stdout.strip() == "[]"
