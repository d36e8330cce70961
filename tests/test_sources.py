"""Checks on the package's source files themselves."""

import pathlib
import tracemalloc

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "okvalid"


def _compile_peak(path: pathlib.Path) -> int:
    """The traced peak of compiling path, after one untraced compile."""
    source = path.read_text(encoding="utf-8")
    compile(source, str(path), "exec")
    tracemalloc.start()
    try:
        compile(source, str(path), "exec")
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_no_module_compiles_above_intervals():
    # where no bytecode is written, each import compiles its module from
    # source, and the largest compile peak sets the import's memory
    # high-water mark: intervals.py's (about 1.76 MB on CPython 3.11) is the
    # ceiling, and a module that outgrows it raises every process's peak
    peaks = {path.name: _compile_peak(path) for path in sorted(SRC.glob("*.py"))}
    ceiling = peaks["intervals.py"]
    over = {name: peak for name, peak in peaks.items() if peak > ceiling}
    assert not over, (ceiling, over)
