"""The statements of ``src/algebroids`` that the test suite never executes.

Runs the suite in this process under ``sys.settrace``, recording the lines
executed in files under ``src/algebroids`` only, then prints every
statement that never ran as ``path:line: source``, in file and line order.
A statement is an AST statement that carries bytecode (a docstring or a
bare ``else:`` does not); a compound statement counts by its header lines
alone, so an ``if`` that ran whose body did not is listed by its body.

pytest does not collect this file.  Run it from the repository root; any
arguments go to pytest in place of the default ``-q tests``:

    PYTHONPATH=src python3 tests/reach.py

Tracing makes the suite several times slower, so the acceptance criteria
may report their runtime ceilings exceeded; their statements still run.
"""

import ast
import os
import sys
import threading
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "algebroids"


def code_lines(code):
    """Every line that carries bytecode in ``code`` and the code objects
    nested in it."""
    lines = {line for _, _, line in code.co_lines() if line is not None}
    for const in code.co_consts:
        if hasattr(const, "co_lines"):
            lines |= code_lines(const)
    return lines


def statements(path):
    """(first line, the lines that run it) for each statement of the file
    at ``path`` that carries bytecode."""
    source = path.read_text(encoding="utf-8")
    executable = code_lines(compile(source, str(path), "exec"))
    out = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.stmt):
            continue
        body = [child for field in ("body", "orelse", "finalbody",
                                    "handlers", "cases")
                for child in getattr(node, field, ()) or ()
                if hasattr(child, "lineno")]
        end = (min(child.lineno for child in body) - 1 if body
               else node.end_lineno)
        header = {line for line in range(node.lineno, end + 1)
                  if line in executable}
        if header:
            out.append((node.lineno, header))
    return sorted(out)


def run_traced(args):
    """Run pytest with ``args`` under the tracer; return its exit status and
    the executed lines of each file under ``SRC``."""
    import pytest

    prefix = str(SRC) + os.sep
    executed = {}

    def tracer(frame, event, arg):
        filename = frame.f_code.co_filename
        if not filename.startswith(prefix):
            return None
        lines = executed.setdefault(filename, set())
        lines.add(frame.f_lineno)

        def local(frame, event, arg):
            if event == "line":
                lines.add(frame.f_lineno)
            return local
        return local

    threading.settrace(tracer)
    sys.settrace(tracer)
    try:
        status = pytest.main(args)
    finally:
        sys.settrace(None)
        threading.settrace(None)
    return status, executed


def main(argv):
    sys.path.insert(0, str(SRC.parent))
    os.chdir(ROOT)
    status, executed = run_traced(argv or ["-q", "-p", "no:cacheprovider",
                                           "tests"])
    missed = 0
    for path in sorted(SRC.rglob("*.py")):
        ran = executed.get(str(path), set())
        lines = path.read_text(encoding="utf-8").splitlines()
        for first, header in statements(path):
            if not header & ran:
                missed += 1
                print(f"{path.relative_to(ROOT)}:{first}: "
                      f"{lines[first - 1].strip()}")
    print(f"{missed} statements never executed (pytest exit status "
          f"{int(status)})")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
