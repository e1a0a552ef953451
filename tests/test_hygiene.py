"""Source hygiene: no module imports a name it never reads, no private name
of the package goes unread, and the package imports no scipy module.

No linter ships with the project, so this test parses ``src/``, ``tests/``
and ``demos/`` with ``ast`` instead.  An import counts as read when its
name is loaded anywhere in the scope it was imported in (the module, or the
function for a local import, nested functions included).  Two kinds of
import are exempt: the module-level imports of an ``__init__.py``, which
re-export the package API, and imports on a line marked ``# noqa: F401``.
A module-level private name of ``src/gridseg`` (a function, class or
assigned name starting with one underscore) counts as read when some
module of the package loads it; reads from tests do not count.  The
segmenter runs on numpy alone, so any ``import scipy...`` or ``from
scipy... import`` in ``src/gridseg``, at any depth, fails; the benchmark and
the tests may import scipy.
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


def _is_private(name: str) -> bool:
    return name.startswith("_") and not name.startswith("__")


def unread_private_names(sources: dict[str, str]) -> list[str]:
    """``module: name`` for each module-level private name of the given
    sources (module name -> source) that none of them loads."""
    defined, read = [], set()
    for module, source in sources.items():
        tree = ast.parse(source)
        for node in tree.body:
            if isinstance(node, (*FUNCTIONS, ast.ClassDef)):
                targets = [ast.Name(node.name)]
            else:
                targets = getattr(node, "targets", [getattr(node, "target", None)])
            for target in filter(None, targets):
                for name in ast.walk(target):
                    if isinstance(name, ast.Name) and _is_private(name.id):
                        defined.append((module, name.id))
        names = (n for n in ast.walk(tree) if isinstance(n, ast.Name))
        read.update(n.id for n in names if isinstance(n.ctx, ast.Load))
    return [f"{module}: {name}" for module, name in defined if name not in read]


def test_the_check_finds_unread_private_names():
    sources = {
        "a": "_A = 1\n_B: int = 2\n__all__ = []\ndef _f():\n    return _A\nclass _C:\n    pass\n",
        "b": "from a import _C\n_x, y = 1, 2\ndef g():\n    _y = 3\n    return _C\n",
    }
    assert unread_private_names(sources) == ["a: _B", "a: _f", "b: _x"]


def test_every_private_name_of_the_package_is_read():
    package = ROOT / "src" / "gridseg"
    sources = {p.stem: p.read_text() for p in sorted(package.glob("*.py"))}
    assert unread_private_names(sources) == []


def scipy_imports(source: str) -> list[str]:
    """``line: module`` for each import of a scipy module, at any depth."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            modules = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and not node.level:
            modules = [node.module]
        else:
            continue
        found += [f"{node.lineno}: {m}" for m in modules if m.split(".")[0] == "scipy"]
    return found


def test_the_check_finds_scipy_imports():
    source = (
        "import numpy, scipy\n"
        "from scipy.spatial import cKDTree\n"
        "import scipyx\n"
        "from .scipy import a\n"
        "def f():\n"
        "    import scipy.sparse.csgraph as cg\n"
        "    return cg\n"
    )
    assert scipy_imports(source) == ["1: scipy", "2: scipy.spatial", "6: scipy.sparse.csgraph"]


@pytest.mark.parametrize(
    "path",
    sorted((ROOT / "src" / "gridseg").rglob("*.py")),
    ids=lambda p: str(p.relative_to(ROOT)),
)
def test_package_imports_no_scipy(path):
    assert scipy_imports(path.read_text()) == []
