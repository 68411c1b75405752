"""Statements of `aucasimir` functions that the test suite never runs.

coverage.py is not a dependency, so this census uses the standard library
only.  It runs the suite in this process under `sys.settrace`, limited to
frames of this checkout's `src/aucasimir`, and prints every line inside a
function (a line that holds an instruction of a function, method, lambda
or comprehension) that never ran, one `file:line: source` per line, then
their count:

    python tests/statement_census.py [pytest arguments]

With no arguments it runs the whole suite, as `pytest` does; pytest's exit
status is the script's.  Code outside functions (module and class bodies)
runs at import and is not listed.  Subprocesses are not traced: what only
the demos of tests/test_demos.py run counts as never run.  The traced
suite takes about twice as long as the untraced one (60 s against 31 s on
a 2-CPU x86-64 VM).
"""

import inspect
import sys
import types
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "aucasimir"


def function_lines(code: types.CodeType) -> set[int]:
    """Lines holding instructions of the functions nested in `code`, less
    each function's first line (its `def` or first decorator)."""
    lines = set()
    for const in code.co_consts:
        if isinstance(const, types.CodeType):
            if const.co_flags & inspect.CO_NEWLOCALS:  # not a class body
                lines.update(line for _, _, line in const.co_lines()
                             if line is not None and line != const.co_firstlineno)
            lines |= function_lines(const)
    return lines


def main(args: list[str]) -> int:
    prefix = str(PACKAGE) + "/"
    ran: set[tuple[str, int]] = set()

    def local(frame, event, arg):
        if event == "line":
            ran.add((frame.f_code.co_filename, frame.f_lineno))
        return local

    def tracer(frame, event, arg):
        return local if frame.f_code.co_filename.startswith(prefix) else None

    sys.settrace(tracer)
    try:
        status = pytest.main(["-q", "-p", "no:cacheprovider", *args])
    finally:
        sys.settrace(None)
    missed = 0
    for path in sorted(PACKAGE.glob("*.py")):
        source = path.read_text()
        text = source.splitlines()
        for line in sorted(function_lines(compile(source, str(path), "exec"))):
            if (str(path), line) not in ran:
                print(f"{path.name}:{line}: {text[line - 1].strip()}")
                missed += 1
    print(f"{missed} statements never ran")
    return int(status)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
