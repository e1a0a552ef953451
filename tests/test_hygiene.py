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
the tests may import scipy.  No call in ``src/gridseg`` repeats rows
(``np.repeat(..., axis=0)``): per-cell values are repeated one column at a
time.  No module of ``src/gridseg`` but ``evaluation.py`` names a numpy
set routine (``union1d``, ``unique``, ``isin``, ``in1d``, ``setdiff1d``,
``intersect1d``), each of which sorts: id sets on the ``segment()`` path
are boolean masks (``region_expansion.id_mask``).  No module of
``src/gridseg`` calls ``np.einsum``, ``np.dot``, ``np.matmul`` or anything
of ``np.linalg``, or uses the ``@`` operator: their sums follow the arrays'
memory layout or a BLAS/LAPACK kernel, and a per-cell result must be the
same bits whatever the layout (``cell_geometry.tilt_deg`` writes its sums
out).  Every config field a configuration key sets
(``config.KEYS``) must be read as an attribute by some module of the
package other than ``config.py``, so no key sets a field nothing reads.
A public top-level function of ``src/gridseg`` must be loaded, by name or
as an attribute, in a module of the package other than ``__init__.py`` or
in ``perfbench/*.py``, and a public method must be loaded as an attribute
there; a string constant of ``perfbench`` counts as both, as the layer
tracer hooks names as strings.  Reads from tests and demos do not count,
and a name only they read is listed in ``TEST_ONLY_NAMES`` with its reason.
Every field of the stats ``stats.json`` holds (``SegmentationStats`` and
``PhaseStats``) is named in backticks in the README's ``## CLI`` section,
and every name a list item there defines (```name`:``) is a key of a real
``stats.json`` record, which ``gridseg segment`` writes on a small scene.
Every private name (``_x``), test name (``Test*``, ``test_*``) and
``tests/``, ``demos/`` or ``perfbench/`` path that the README names in
backticks still exists: the names as a function, class or assigned name of
some module of ``src/``, ``tests/``, ``demos/`` or ``perfbench/``, the paths
as files or directories.  The README's ``**Size:**`` line states the code
lines of ``src/gridseg`` as ``code_lines`` counts them.
"""

import ast
import dataclasses
import io
import json
import re
import tokenize
from pathlib import Path

import pytest

import gridseg as gs
from gridseg.cli import main
from gridseg.config import KEYS
from gridseg.pipeline import PhaseStats, SegmentationStats

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


def row_repeats(source: str) -> list[str]:
    """``line`` of each ``repeat`` call along axis 0: ``np.repeat(a, r,
    axis=0)`` or ``a.repeat(r, axis=0)``, the axis by keyword or position.
    Such a call copies whole rows per point; repeating one column at a time
    (``cell_geometry.centre_segments``) makes no per-point copy of the rows."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)):
            continue
        if node.func.attr != "repeat":
            continue
        receiver = node.func.value
        at = 2 if isinstance(receiver, ast.Name) and receiver.id in ("np", "numpy") else 1
        axes = [k.value for k in node.keywords if k.arg == "axis"] + node.args[at:at + 1]
        if any(isinstance(a, ast.Constant) and a.value == 0 for a in axes):
            found.append((node.lineno, node.col_offset))
    return [str(line) for line, _ in sorted(found)]


def test_the_check_finds_row_repeats():
    # the four row repeats the package had, then the forms that pass
    source = (
        "centred = points - np.repeat(centroids, counts, axis=0)\n"
        "return centred_covariance(points - np.repeat(means, counts, axis=0), counts)\n"
        "q_in -= np.repeat(mean, n_in, axis=0)\n"
        "mcol = np.repeat(np.compress(moved, column, axis=0), np.compress(moved, hc), axis=0)\n"
        "a = numpy.repeat(x, r, 0) + x.repeat(r, 0) + x.repeat(r, axis=0)\n"
        "b = np.repeat(x[:, 0], counts) + np.repeat(x, r, axis=1) + x.repeat(r, 1)\n"
        "c = np.repeat(x, 0) + x.repeat(0) + np.compress(m, x, axis=0)\n"
    )
    assert row_repeats(source) == ["1", "2", "3", "4", "5", "5", "5"]


@pytest.mark.parametrize(
    "path",
    sorted((ROOT / "src" / "gridseg").rglob("*.py")),
    ids=lambda p: str(p.relative_to(ROOT)),
)
def test_package_repeats_no_rows(path):
    assert row_repeats(path.read_text()) == []


SET_ROUTINES = ("union1d", "unique", "isin", "in1d", "setdiff1d", "intersect1d")


def set_routines(source: str) -> list[str]:
    """``line: name`` for each numpy set routine a source names: as an
    attribute of ``np`` or ``numpy`` (called or not), or imported from
    ``numpy``.  Each sorts its input; an id set held as a mask over the ids
    (``region_expansion.id_mask``) costs one scatter instead."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Attribute) and node.attr in SET_ROUTINES:
            receiver = node.value
            if isinstance(receiver, ast.Name) and receiver.id in ("np", "numpy"):
                found.append((node.lineno, node.attr))
        elif isinstance(node, ast.ImportFrom) and node.module == "numpy":
            found += [(node.lineno, a.name) for a in node.names if a.name in SET_ROUTINES]
    return [f"{line}: {name}" for line, name in sorted(found)]


def test_the_check_finds_set_routines():
    # the two the package had on the segment() path, then the other forms
    source = (
        "need = np.union1d(amb, nb)\n"
        "fixed = (below >= 0) & np.isin(grid.state[below], _NON_GROUND_STATES)\n"
        "u, c = numpy.unique(a, return_counts=True)\n"
        "f = np.setdiff1d\n"
        "from numpy import in1d, zeros, intersect1d as both\n"
        "a = np.zeros(3) + np.flatnonzero(m) + x.unique() + isin(a, b) + np.char.isin\n"
    )
    assert set_routines(source) == [
        "1: union1d", "2: isin", "3: unique", "4: setdiff1d", "5: in1d", "5: intersect1d"
    ]


@pytest.mark.parametrize(
    "path",
    sorted(p for p in (ROOT / "src" / "gridseg").rglob("*.py") if p.name != "evaluation.py"),
    ids=lambda p: str(p.relative_to(ROOT)),
)
def test_package_uses_no_set_routines(path):
    assert set_routines(path.read_text()) == []


PRODUCTS = ("einsum", "dot", "matmul")


def layout_dependent_sums(source: str) -> list[str]:
    """``line: name`` for each use of ``einsum``, ``dot`` or ``matmul`` (as
    an attribute of anything, so ``a.dot(b)`` too, or imported from
    ``numpy``), of ``np.linalg`` or ``numpy.linalg``, and of ``@`` or
    ``@=``.  Each sums in an order that follows the memory layout of its
    operands or a BLAS/LAPACK kernel; sums written out elementwise do not."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Attribute):
            receiver = node.value
            numpy = isinstance(receiver, ast.Name) and receiver.id in ("np", "numpy")
            if node.attr in PRODUCTS or (numpy and node.attr == "linalg"):
                found.append((node.lineno, node.attr))
        elif isinstance(node, ast.ImportFrom) and (node.module or "").startswith("numpy"):
            if node.module.startswith("numpy.linalg"):
                found.append((node.lineno, node.module))
            found += [(node.lineno, a.name) for a in node.names if a.name in (*PRODUCTS, "linalg")]
        elif isinstance(node, ast.Import):
            found += [(node.lineno, a.name) for a in node.names if a.name.startswith("numpy.linalg")]
        elif isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.MatMult):
            found.append((node.lineno, "@"))
    return [f"{line}: {name}" for line, name in sorted(found)]


def test_the_check_finds_layout_dependent_sums():
    # the two the package had in cell_geometry, then the other forms
    source = (
        "norm = np.sqrt(np.einsum('ij,ij->i', n, n))\n"
        "up = np.abs(v[:, 2]) / np.linalg.norm(v, axis=1)\n"
        "d = numpy.dot(a, b) + np.matmul(a, b) + a @ b + a.dot(b)\n"
        "a @= b\n"
        "from numpy import einsum, zeros, linalg as la\n"
        "from numpy.linalg import eigh\n"
        "import numpy.linalg\n"
        "x = np.sum(a * b, axis=1) + a.linalg + np.hypot(a, b) + (a * b).sum(axis=1)\n"
    )
    assert layout_dependent_sums(source) == [
        "1: einsum", "2: linalg", "3: @", "3: dot", "3: dot", "3: matmul", "4: @",
        "5: einsum", "5: linalg", "6: numpy.linalg", "7: numpy.linalg",
    ]


@pytest.mark.parametrize(
    "path",
    sorted((ROOT / "src" / "gridseg").rglob("*.py")),
    ids=lambda p: str(p.relative_to(ROOT)),
)
def test_package_makes_no_layout_dependent_sums(path):
    assert layout_dependent_sums(path.read_text()) == []


def unread_config_fields(keys: dict, sources: dict[str, str]) -> list[str]:
    """``key: field`` for each field a key of ``keys`` (key -> field paths,
    as ``config.KEYS``) sets that none of the sources (module name ->
    source) loads as an attribute."""
    read = set()
    for source in sources.values():
        nodes = (n for n in ast.walk(ast.parse(source)) if isinstance(n, ast.Attribute))
        read.update(n.attr for n in nodes if isinstance(n.ctx, ast.Load))
    return [
        f"{key}: {name}"
        for key, paths in keys.items()
        for name in (path.rpartition(".")[2] for path in paths)
        if name not in read
    ]


def test_the_check_finds_config_fields_nothing_reads():
    keys = {"a": ("x",), "b": ("geometry.y", "geometry.w"), "c": ("z",)}
    sources = {
        "m": "def f(cfg):\n    return cfg.x + cfg.geometry.y\n",
        "n": "cfg.z = 1\nw = 2\n",
    }
    assert unread_config_fields(keys, sources) == ["b: w", "c: z"]


def test_every_config_key_sets_a_field_the_package_reads():
    package = ROOT / "src" / "gridseg"
    sources = {p.stem: p.read_text() for p in sorted(package.glob("*.py")) if p.stem != "config"}
    assert unread_config_fields(KEYS, sources) == []


# public names that no module of the package and no benchmark reads, and why
# each stays
TEST_ONLY_NAMES = {
    "segment_covariance": "acceptance criterion 3 and demo 02",
    "read_mask": "the reader of the CLI's mask format, kept on purpose",
    "ConfusionCounts.total": "acceptance criterion 8",
    "ExpansionLog.to_text": "goes with ROADMAP item 7's trace",
    "VoxelGrid.span": "one cell's points in tests of the grid and of expansion",
}


def _loads(source: str, strings: bool) -> tuple[set[str], set[str]]:
    """The names and the attributes a source loads; with ``strings``, its
    string constants count as both."""
    names, attrs = set(), set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            attrs.add(node.attr)
        elif strings and isinstance(node, ast.Constant) and isinstance(node.value, str):
            names.add(node.value)
            attrs.add(node.value)
    return names, attrs


def unread_public_names(package: dict[str, str], readers: dict[str, str]) -> list[str]:
    """``name`` or ``Class.method`` for each public top-level function and
    public method of the package's sources (module name -> source) that
    neither a package module other than ``__init__`` nor a reader (whose
    string constants count) loads."""
    names, attrs = set(), set()
    for module, source in package.items():
        if module != "__init__":
            n, a = _loads(source, strings=False)
            names |= n
            attrs |= a
    for source in readers.values():
        n, a = _loads(source, strings=True)
        names |= n
        attrs |= a
    read = names | attrs
    found = []
    for source in package.values():
        for node in ast.parse(source).body:
            if isinstance(node, FUNCTIONS) and not node.name.startswith("_"):
                if node.name not in read:
                    found.append(node.name)
            elif isinstance(node, ast.ClassDef):
                methods = (m.name for m in node.body if isinstance(m, FUNCTIONS))
                found += [
                    f"{node.name}.{m}" for m in methods if not m.startswith("_") and m not in attrs
                ]
    return found


def test_the_check_finds_public_names_only_tests_read():
    package = {
        "__init__": "from .a import f, g, h, k\nf()\nC().m()\n",
        "a": (
            "def f():\n    return 1\n"
            "def g():\n    return f() + h\n"
            "def h():\n    pass\n"
            "def k():\n    pass\n"
            "def _p():\n    pass\n"
            "class C:\n"
            "    def m(self):\n        pass\n"
            "    def n(self):\n        return self.m\n"
            "    def o(self):\n        pass\n"
            "    def _q(self):\n        pass\n"
            "    def __len__(self):\n        return 0\n"
        ),
    }
    readers = {"bench": "import gs\ngs.g()\nHOOK = 'o'\n"}
    assert unread_public_names(package, readers) == ["k", "C.n"]


def test_every_public_name_is_read_outside_the_tests_or_listed():
    package = {p.stem: p.read_text() for p in sorted((ROOT / "src" / "gridseg").glob("*.py"))}
    readers = {p.stem: p.read_text() for p in sorted((ROOT / "perfbench").glob("*.py"))}
    assert sorted(unread_public_names(package, readers)) == sorted(TEST_ONLY_NAMES)


def _section(text: str, section: str) -> str:
    """The body of the markdown ``text``'s ``section`` heading, up to the
    next heading of the same level."""
    body = text.split(f"\n{section}\n", 1)[1]
    level = section.split(" ", 1)[0]
    return body.split(f"\n{level} ", 1)[0]


def undocumented_fields(classes, text: str, section: str) -> list[str]:
    """``Class.field`` for each field of the dataclasses ``classes`` that the
    markdown ``text`` does not name in backticks within its ``section``
    heading's section (up to the next heading of the same level)."""
    body = _section(text, section)
    return [
        f"{cls.__name__}.{f.name}"
        for cls in classes
        for f in dataclasses.fields(cls)
        if f"`{f.name}`" not in body
    ]


def test_the_check_finds_fields_the_section_does_not_name():
    @dataclasses.dataclass
    class Stats:
        kept: int = 0
        bare: int = 0
        elsewhere: int = 0
        nested: dict = dataclasses.field(default_factory=dict)

    text = (
        "# Tool\n\n`elsewhere`\n\n## CLI\n\n- `kept`: one\n- bare, unquoted\n"
        "### Stats\n\n`nested`\n\n## Config\n\n`elsewhere`\n"
    )
    assert undocumented_fields([Stats], text, "## CLI") == ["Stats.bare", "Stats.elsewhere"]


def test_every_stats_field_is_named_in_the_readme_cli_section():
    text = (ROOT / "README.md").read_text()
    assert undocumented_fields([SegmentationStats, PhaseStats], text, "## CLI") == []


# a field name a list item defines: one code span, or several joined by
# commas and "and", then a colon (`a`, `b` and `c`: ...)
DEFINED = re.compile(r"((?:`\w+`(?:,? and |, ))*`\w+`):")


def stale_stats_names(text: str, section: str, record: dict) -> list[str]:
    """Each name that a list item in the markdown ``text``'s ``section``
    defines (``DEFINED``) and that no key of the JSON ``record`` holds, at
    any depth; once each, in order.  A list item is a line starting with
    ``- `` and the indented lines after it."""
    keys, dicts = set(), [record]
    while dicts:
        d = dicts.pop()
        keys.update(d)
        dicts += [v for v in d.values() if isinstance(v, dict)]
    items, inside = [], False
    for line in _section(text, section).splitlines():
        inside = line.startswith("- ") or (inside and line.startswith("  "))
        if inside:
            items.append(line)
    groups = DEFINED.findall("\n".join(items))
    names = [n for group in groups for n in re.findall(r"`(\w+)`", group)]
    return list(dict.fromkeys(n for n in names if n not in keys))


def test_the_check_finds_stale_stats_names():
    text = (
        "# Tool\n\n## CLI\n\nA `loose`: name outside a list.\n\n"
        "- `kept`: one, and `gone`: two\n"
        "  (`inner`: nested; `quoted`, `x` and `y` name no field)\n"
        "- `a`, `old` and `deep`: three, the last two levels down\n\n"
        "After the list, `after`: no.\n"
        "### Stats\n\n- `sub`: in the section, `gone`: again\n\n## Config\n\n- `other`: no\n"
    )
    record = {"kept": 1, "a": 0, "phase": {"inner": 0, "more": {"deep": 2}}, "sub": 0}
    assert stale_stats_names(text, "## CLI", record) == ["gone", "old"]


def test_every_stats_name_in_the_readme_cli_section_is_written(tmp_path):
    # the names the CLI adds itself (scan, ground_points) are in the record
    gs.write_scene(tmp_path, gs.make_scene(gs.SceneSpec(extent=14.0, n_ground=2000)), "000000")
    assert main(["segment", str(tmp_path / "velodyne"), "--out", str(tmp_path / "out")]) == 0
    record = json.loads((tmp_path / "out" / "stats.json").read_text())["000000.bin"]
    text = (ROOT / "README.md").read_text()
    assert stale_stats_names(text, "## CLI", record) == []


PATH = re.compile(r"(?<![\w/.])(?:tests|demos|perfbench)/[\w./-]*")
CODE_NAME = re.compile(r"(?<![\w/])(_[A-Za-z]\w*|Test[A-Z]\w*|test_\w+)")


def stale_readme_names(text: str, defined: set[str], exists) -> list[str]:
    """Each private name (``_x``, also as ``module._x``), ``Test*`` or
    ``test_*`` name that an inline code span of the markdown ``text`` holds
    and ``defined`` does not, and each ``tests/``, ``demos/`` or
    ``perfbench/`` path in one for which ``exists(path)`` is false; once
    each, in order.  Fenced code blocks are not read."""
    text = re.sub(r"^```.*?^```", "", text, flags=re.M | re.S)
    found = []
    for span in re.findall(r"`([^`]+)`", text):
        paths = PATH.findall(span)
        found += [p for p in paths if not exists(p)]
        names = CODE_NAME.findall(PATH.sub(" ", span))
        found += [n for n in names if n not in defined]
    return list(dict.fromkeys(found))


def test_the_check_finds_stale_readme_names():
    text = (
        "Run `_kept`, `mod._gone` and `TestKept`; see `tests/kept.py` and\n"
        "`python3 perfbench/gone.py\n--seed 1`, `demos/` and `test_gone`.\n"
        "```\n_fenced TestFenced tests/fenced.py\n```\n"
        "Not in code: _loose, TestLoose. `__init__`, `my_test_x`, `Tests/x`, `x/tests/y`.\n"
    )
    defined = {"_kept", "TestKept", "test_kept"}
    exists = {"tests/kept.py", "demos/"}.__contains__
    assert stale_readme_names(text, defined, exists) == [
        "_gone", "perfbench/gone.py", "test_gone"
    ]


def test_every_code_name_and_path_in_the_readme_exists():
    defined = set()
    for d in ("src", "tests", "demos", "perfbench"):
        for path in (ROOT / d).rglob("*.py"):
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, (*FUNCTIONS, ast.ClassDef)):
                    defined.add(node.name)
                elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
                    defined.add(node.id)
    text = (ROOT / "README.md").read_text()
    assert stale_readme_names(text, defined, lambda p: (ROOT / p).exists()) == []


def code_lines(source: str) -> int:
    """The lines of a Python source that hold a token other than a comment,
    docstrings left out: the module's, each class's and each function's
    leading string.  A token over several lines counts each of them."""
    docs = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.Module, ast.ClassDef, *FUNCTIONS)) and node.body:
            first = node.body[0]
            if isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant):
                if isinstance(first.value.value, str):
                    docs.update(range(first.lineno, first.end_lineno + 1))
    layout = {
        tokenize.COMMENT,
        tokenize.NL,
        tokenize.NEWLINE,
        tokenize.INDENT,
        tokenize.DEDENT,
        tokenize.ENCODING,
        tokenize.ENDMARKER,
    }
    lines = set()
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type not in layout:
            lines.update(range(token.start[0], token.end[0] + 1))
    return len(lines - docs)


def test_the_counter_leaves_out_docstrings_comments_and_blank_lines():
    source = (
        '"""Module\ndocstring."""\n'
        "\n"
        "# a comment\n"
        "def f(x):  # trailing\n"
        "    '''Doc.'''\n"
        "    s = '''two\n"
        "    lines'''\n"
        "    return (x,\n"
        "\n"
        "            s)\n"
    )
    assert code_lines(source) == 5


def test_the_readme_states_the_package_size():
    package = sorted((ROOT / "src" / "gridseg").glob("*.py"))
    count = sum(code_lines(p.read_text()) for p in package)
    stated = re.findall(r"\*\*Size:\*\* ([\d,]+) code lines", (ROOT / "README.md").read_text())
    assert stated == [f"{count:,}"]
