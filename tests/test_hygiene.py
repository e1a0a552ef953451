"""Source hygiene: no module imports a name it never reads.

No linter ships with the project, so this test parses ``src/``, ``tests/``
and ``demos/`` with ``ast`` instead.  An import counts as read when its
name is loaded anywhere in the scope it was imported in (the module, or the
function for a local import, nested functions included).  Two kinds of
import are exempt: the module-level imports of an ``__init__.py``, which
re-export the package API, and imports on a line marked ``# noqa: F401``.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
FILES = sorted(p for d in ("src", "tests", "demos") for p in (ROOT / d).rglob("*.py"))
FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)


def _own_nodes(scope):
    """The nodes of a module or function, without those of nested functions."""
    stack = list(ast.iter_child_nodes(scope))
    while stack:
        node = stack.pop()
        yield node
        if not isinstance(node, FUNCTIONS):
            stack.extend(ast.iter_child_nodes(node))


def unused_imports(source: str, is_init: bool = False) -> list[str]:
    """``line: name`` for each imported name its scope never reads."""
    tree = ast.parse(source)
    lines = source.splitlines()
    found = []
    for scope in [tree, *(n for n in ast.walk(tree) if isinstance(n, FUNCTIONS))]:
        if is_init and scope is tree:
            continue
        names = (n for n in ast.walk(scope) if isinstance(n, ast.Name))
        read = {n.id for n in names if isinstance(n.ctx, ast.Load)}
        for node in _own_nodes(scope):
            if not isinstance(node, (ast.Import, ast.ImportFrom)):
                continue
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                if name == "*" or name in read or "noqa: F401" in lines[alias.lineno - 1]:
                    continue
                found.append((alias.lineno, name))
    return [f"{line}: {name}" for line, name in sorted(found)]


def test_the_check_finds_module_and_local_imports():
    source = (
        "import os\n"
        "import numpy as np\n"
        "from a.b import c, d as e\n"
        "import x.y\n"
        "from z import w  # noqa: F401\n"
        "def f():\n"
        "    from q import r, s\n"
        "    def g():\n"
        "        return r\n"
        "    return np.zeros(e)\n"
        "def h():\n"
        "    return s, x.y\n"
    )
    assert unused_imports(source) == ["1: os", "3: c", "7: s"]
    assert unused_imports(source, is_init=True) == ["7: s"]


@pytest.mark.parametrize("path", FILES, ids=lambda p: str(p.relative_to(ROOT)))
def test_no_unused_imports(path):
    assert unused_imports(path.read_text(), is_init=path.name == "__init__.py") == []
