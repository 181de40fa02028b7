"""One-node mutations of the bundled spec files.

A mutation takes one bundled spec, picks one node of its JSON tree, and sets
it to one of ``VALUES`` (a value of every JSON type, and strings that a
scalar, a field or a name might hold) or deletes it.  The parser and the CLI
must answer every such input with a located error, never a crash.
"""

import copy
import json
from pathlib import Path

from hypothesis import strategies as st

SPECS = Path(__file__).resolve().parent.parent / "specs"

VALUES = (None, True, 0, -1, 10 ** 6, 1.5, "x", "1/0", "", [], {}, [[]],
          ["1"], "gf:4", "0")


class _Delete:
    def __repr__(self):
        return "DELETE"


DELETE = _Delete()


def _paths(node, path=()):
    """The key path of every node of a JSON tree, the root's first."""
    yield path
    if isinstance(node, dict):
        children = node.items()
    elif isinstance(node, list):
        children = enumerate(node)
    else:
        return
    for key, child in children:
        yield from _paths(child, path + (key,))


BUNDLED = {p.name: json.loads(p.read_text(encoding="utf-8"))
           for p in sorted(SPECS.glob("*.spec"))}
PATHS = {name: list(_paths(data)) for name, data in BUNDLED.items()}


@st.composite
def spec_mutations(draw):
    """(spec name, key path, value): the node to change and what it
    becomes, ``DELETE`` to remove it (the root is only ever replaced)."""
    name = draw(st.sampled_from(sorted(BUNDLED)))
    path = draw(st.sampled_from(PATHS[name]))
    value = draw(st.sampled_from(VALUES + (DELETE,) if path else VALUES))
    return name, path, value


def mutated(name, path, value):
    """The decoded bundled spec ``name`` with the node at ``path`` set to
    ``value``, or deleted."""
    if not path:
        return copy.deepcopy(value)
    data = copy.deepcopy(BUNDLED[name])
    parent = data
    for key in path[:-1]:
        parent = parent[key]
    if value is DELETE:
        del parent[path[-1]]
    else:
        parent[path[-1]] = copy.deepcopy(value)
    return data
