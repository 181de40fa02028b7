"""The statements of ``src/algebroids`` that the test suite never executes.

Runs the suite in this process under ``sys.settrace``, recording the lines
executed in files under ``src/algebroids`` only, then prints every
statement that never ran as ``path:line: source``, in file and line order.
A statement is an AST statement that carries bytecode (a docstring or a
bare ``else:`` does not); a compound statement counts by its header lines
alone, so an ``if`` that ran whose body did not is listed by its body.

A comprehension, generator expression or lambda is a unit of its own: its
line runs whenever the statement around it runs, even when it never
produces anything.  Its frames are traced opcode by opcode until the
instruction that produces runs once (``LIST_APPEND``, ``SET_ADD``,
``MAP_ADD``, ``YIELD_VALUE``, or a lambda's ``RETURN_VALUE``).  A unit
whose line ran but whose producing instruction never did is listed as
``path:line: <listcomp> never produced: source``.

pytest does not collect this file.  Run it from the repository root; any
arguments go to pytest in place of the default ``-q tests``:

    PYTHONPATH=src python3 tests/reach.py

Tracing makes the suite several times slower, so the acceptance criteria
may report their runtime ceilings exceeded; their statements still run.
"""

import ast
import dis
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


# the instruction that produces, by the name of a unit's code object
PRODUCES = {"<listcomp>": "LIST_APPEND", "<setcomp>": "SET_ADD",
            "<dictcomp>": "MAP_ADD", "<genexpr>": "YIELD_VALUE",
            "<lambda>": "RETURN_VALUE"}


def unit_key(code):
    """The same key for a unit's code object however often its file is
    compiled: name, first line and the positions of every instruction."""
    return code.co_name, code.co_firstlineno, tuple(code.co_positions())


def producing_offsets(code):
    """The offsets of the producing instruction of a unit's code object."""
    op = PRODUCES[code.co_name]
    return {ins.offset for ins in dis.get_instructions(code)
            if ins.opname == op}


def units(code):
    """The keys and first lines of the units nested in ``code``."""
    for const in code.co_consts:
        if hasattr(const, "co_lines"):
            if const.co_name in PRODUCES:
                yield unit_key(const), const.co_firstlineno
            yield from units(const)


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
    """Run pytest with ``args`` under the tracer; return its exit status,
    the executed lines of each file under ``SRC`` and the keys of the units
    that produced."""
    import pytest

    prefix = str(SRC) + os.sep
    executed = {}
    produced = set()
    keys = {}      # id of a unit's code object -> (its key, its offsets)

    def tracer(frame, event, arg):
        code = frame.f_code
        if not code.co_filename.startswith(prefix):
            return None
        lines = executed.setdefault(code.co_filename, set())
        lines.add(frame.f_lineno)
        unit = None
        if code.co_name in PRODUCES:
            if id(code) not in keys:
                keys[id(code)] = (unit_key(code), producing_offsets(code))
            unit = keys[id(code)]
            frame.f_trace_opcodes = unit[0] not in produced

        def local(frame, event, arg):
            if event == "line":
                lines.add(frame.f_lineno)
            elif event == "opcode" and frame.f_lasti in unit[1]:
                produced.add(unit[0])
                frame.f_trace_opcodes = False
            return local
        return local

    threading.settrace(tracer)
    sys.settrace(tracer)
    try:
        status = pytest.main(args)
    finally:
        sys.settrace(None)
        threading.settrace(None)
    return status, executed, produced


def main(argv):
    sys.path.insert(0, str(SRC.parent))
    os.chdir(ROOT)
    status, executed, produced = run_traced(
        argv or ["-q", "-p", "no:cacheprovider", "tests"])
    missed = idle = 0
    for path in sorted(SRC.rglob("*.py")):
        ran = executed.get(str(path), set())
        source = path.read_text(encoding="utf-8")
        lines = source.splitlines()
        found = [(first, "") for first, header in statements(path)
                 if not header & ran]
        missed += len(found)
        # a unit inside a statement that never ran is listed by the statement
        idle_units = [(first, f"{key[0]} never produced: ")
                      for key, first in units(compile(source, str(path),
                                                      "exec"))
                      if first in ran and key not in produced]
        idle += len(idle_units)
        for first, what in sorted(found + idle_units):
            print(f"{path.relative_to(ROOT)}:{first}: {what}"
                  f"{lines[first - 1].strip()}")
    print(f"{missed} statements never executed, {idle} comprehensions, "
          f"generator expressions and lambdas never produced (pytest exit "
          f"status {int(status)})")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
