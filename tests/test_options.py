"""Every option, private helper and public name of the package has a caller.

An option is a defaulted parameter of a public function or method under
``src/algebroids`` (``__init__`` counts for its class).  A call in ``src/``
or ``bench/`` sets it by keyword, or by position; ``f(*args)`` and
``f(**kwargs)`` count as setting every option of ``f``.  A call through a
class of the package is resolved to it: ``C.f(…)``, and ``cls.f(…)`` inside
``C``, are calls of ``C.f`` only; ``C(…)``, and ``cls(…)`` inside ``C``, are
calls of ``C.__init__``.  Any other call is matched by name: ``x.f(…)`` and
``f(…)`` are calls of every ``f``.  Tests do not count as callers: an
option only a test sets is a constant.

Every private helper has a caller too: a module-level function or method
whose name starts with one underscore is referred to somewhere in ``src/``
outside its own def.  Tests and ``bench/`` do not count.

So does every public name: a module-level function or class, or a method
or property of a class, whose name does not start with an underscore, is
referred to in ``src/`` outside its own def, or in ``bench/``, unless
``KEPT_PUBLIC`` keeps it with its reason.  Tests do not count, and neither
do the re-exports in ``__init__``.  A reference is resolved as a call is:
``C.f``, and ``cls.f`` inside ``C``, refer to ``C.f`` only, and any other
``x.f`` or ``f`` to every ``f``.
"""

import ast
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

# options kept without a caller in src/ or bench/, with the reason
KEPT = {
    ("catalog", "all_fixtures", "field"):
        "the tests run the whole catalog over GF(7)",
}


def _options():
    """(module, class or None, called name, parameter, position or None) of
    every option; the position does not count the bound self or cls."""
    for path in sorted((ROOT / "src" / "algebroids").glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            members = node.body if isinstance(node, ast.ClassDef) else [node]
            for fn in members:
                if not isinstance(fn, ast.FunctionDef) or \
                        fn.name.startswith("_") and fn.name != "__init__":
                    continue
                owner = node.name if fn is not node else None
                bound = owner is not None and not any(
                    isinstance(d, ast.Name) and d.id == "staticmethod"
                    for d in fn.decorator_list)
                called = owner if fn.name == "__init__" else fn.name
                args = fn.args.posonlyargs + fn.args.args
                first = len(args) - len(fn.args.defaults)
                for i in range(first, len(args)):
                    yield path.stem, owner, called, args[i].arg, i - bound
                for arg, default in zip(fn.args.kwonlyargs,
                                        fn.args.kw_defaults):
                    if default is not None:
                        yield path.stem, owner, called, arg.arg, None


def _package_classes():
    return {node.name
            for path in (ROOT / "src" / "algebroids").glob("*.py")
            for node in ast.parse(path.read_text()).body
            if isinstance(node, ast.ClassDef)}


def _calls(node, classes, owner=None):
    """(receiver class or None, called name, call) of every call under
    ``node``; the receiver is the package class ``C`` of ``C.f(…)``, or the
    enclosing class of ``cls.f(…)``, and None for any other call."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, ast.ClassDef):
            yield from _calls(child, classes, child.name)
            continue
        if isinstance(child, ast.Call):
            func = child.func
            name = getattr(func, "id", getattr(func, "attr", None))
            receiver = getattr(getattr(func, "value", None), "id", None)
            if receiver == "cls":
                receiver = owner
            yield (receiver if receiver in classes else None,
                   owner if name == "cls" and owner else name, child)
        yield from _calls(child, classes, owner)


def _sets(call, param, position):
    return any(k.arg in (param, None) for k in call.keywords) or \
        any(isinstance(a, ast.Starred) for a in call.args) or \
        position is not None and position < len(call.args)


def test_every_option_has_a_caller():
    classes = _package_classes()
    calls = {}
    for top in ("src", "bench"):
        for path in sorted((ROOT / top).rglob("*.py")):
            for receiver, name, call in _calls(ast.parse(path.read_text()),
                                               classes):
                calls.setdefault(name, []).append((receiver, call))
    uncalled = {(module, called, param)
                for module, owner, called, param, position in _options()
                if not any(receiver in (None, owner)
                           and _sets(call, param, position)
                           for receiver, call in calls.get(called, ()))}
    unset = sorted(uncalled - KEPT.keys())
    assert not unset, f"options no caller sets, to make constants: {unset}"
    stale = sorted(KEPT.keys() - uncalled)
    assert not stale, f"kept options that have a caller or are gone: {stale}"


def _defs():
    """(module, class or None, name, def node) of every module-level
    function and class under ``src/algebroids``, and of every method or
    property of a class."""
    for path in sorted((ROOT / "src" / "algebroids").glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            members = node.body if isinstance(node, ast.ClassDef) else []
            for owner, fn in [(None, node)] + [(node.name, m)
                                               for m in members]:
                if isinstance(fn, (ast.FunctionDef, ast.ClassDef)):
                    yield path.stem, owner, fn.name, fn


def _references(node, classes, owner=None):
    """(receiver class or None, name) of every name read, or taken as an
    attribute, under ``node``; the receiver is resolved as in ``_calls``."""
    if isinstance(node, ast.ClassDef):
        owner = node.name
    elif isinstance(node, ast.Name):
        yield None, node.id
    elif isinstance(node, ast.Attribute):
        receiver = getattr(node.value, "id", None)
        if receiver == "cls":
            receiver = owner
        yield receiver if receiver in classes else None, node.attr
    for child in ast.iter_child_nodes(node):
        yield from _references(child, classes, owner)


def _unreferenced(defs, tops):
    """(module, name or class.name) of each of ``defs`` that nothing in the
    files under ``tops`` refers to outside the def itself.  A method of C
    counts ``C.f``, ``cls.f`` inside C and ``x.f``; the re-exports in
    ``__init__`` do not count."""
    classes = _package_classes()
    everywhere = Counter()
    for top in tops:
        for path in sorted((ROOT / top).rglob("*.py")):
            if path.name != "__init__.py":
                everywhere.update(_references(ast.parse(path.read_text()),
                                              classes))
    found = set()
    for module, owner, name, fn in defs:
        own = Counter(_references(fn, classes, owner))
        if all(everywhere[k] == own[k] for k in {(None, name), (owner, name)}):
            found.add((module, f"{owner}.{name}" if owner else name))
    return found


def test_every_private_helper_is_referenced():
    unreferenced = sorted(_unreferenced(
        [d for d in _defs() if isinstance(d[3], ast.FunctionDef)
         and d[2].startswith("_") and not d[2].startswith("__")], ["src"]))
    assert not unreferenced, \
        f"private helpers nothing else in src/ refers to: {unreferenced}"


# public names nothing in src/ or bench/ refers to, kept with the reason
FIXTURE_STOCK = "the tests' fixture stock"
CLI_BACKLOG = "a paper verifier only the tests reach; it has no CLI path yet"
KEPT_PUBLIC = {
    ("catalog", "all_fixtures"): FIXTURE_STOCK,
    ("catalog", "sweedler_hopf_algebra"): FIXTURE_STOCK,
    ("hopfcore", "verify_sisom"): CLI_BACKLOG,
    ("hopfcore", "check_luiiv"): CLI_BACKLOG,
    ("hopfcore", "antipode_uniqueness"): CLI_BACKLOG,
    ("hopfcore", "verify_galois"): CLI_BACKLOG,
    ("integrallab", "weak_dual_iso"): CLI_BACKLOG,
    ("integrallab", "verify_bgdnd"): CLI_BACKLOG,
    ("integrallab", "lac_check"): CLI_BACKLOG,
    ("integrallab", "verify_bgdnd_right"): CLI_BACKLOG,
    ("integrallab", "ls_right"): CLI_BACKLOG,
    ("integrallab", "double_dual_evaluation"): CLI_BACKLOG,
}


def test_every_public_name_is_referenced():
    unreferenced = _unreferenced(
        [d for d in _defs() if not d[2].startswith("_")], ["src", "bench"])
    unkept = sorted(unreferenced - KEPT_PUBLIC.keys())
    assert not unkept, \
        f"public names nothing in src/ or bench/ refers to: {unkept}"
    stale = sorted(KEPT_PUBLIC.keys() - unreferenced)
    assert not stale, \
        f"kept public names that have a caller or are gone: {stale}"
