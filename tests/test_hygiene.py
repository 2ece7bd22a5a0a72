"""Source hygiene: every imported name is used by its module, every
definition under src/ is read somewhere in src/, no module but patch.py
reads the private state of a Patch, the classifier imports none of the
generators it checks, every name that the traced benchmark wraps exists,
and a traced benchmark run of each workload passes."""

import ast
import importlib
import json
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "shieldtiles"
SCANNED = sorted([*PACKAGE.glob("*.py"), *(ROOT / "tests").glob("*.py")])
SPANS = ROOT / "perfbench" / "spans.py"
BENCHMARK = ROOT / "BENCHMARK.json"
PATCH = PACKAGE / "patch.py"
CLASSIFY = PACKAGE / "classify.py"
# the package modules the classifier may import: it checks the generators'
# windows, so it must not take a fact from them
CLASSIFY_IMPORTS = {"atlas", "errors", "patch"}
# test modules that check the private state of a Patch itself
PRIVATE_READERS = {
    "test_patch_incremental.py": "checks the edge, midpoint and gap indexes "
    "against fresh scans",
}

# definitions that no module of the package reads, with their readers
READ_OUTSIDE = {
    "PatternBall.translation_key": "the acceptance tests key fillings with it",
    "Placement.reflected": "the key tests mirror balls and fillings with it",
    "AlphaSpec.exceptional": "the alpha tests check the flag at the exceptional angles",
}


def unused_imports(source: str) -> list[str]:
    """Names that the module imports but never reads.

    Names listed in __all__ and `from __future__` imports count as used.
    """
    tree = ast.parse(source)
    imported = {}
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for a in node.names:
                imported[a.asname or a.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for a in node.names:
                imported[a.asname or a.name] = node.lineno
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used.update(ast.literal_eval(node.value))
    return [f"{name} (line {line})" for name, line in imported.items()
            if name not in used]


def _reads(node) -> Counter:
    """Names read below node: loaded names and loaded attributes."""
    out = Counter()
    for n in ast.walk(node):
        if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load):
            out[n.id] += 1
        elif isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Load):
            out[n.attr] += 1
    return out


def _definitions(node, prefix=""):
    """(qualified name, node) of every function, class and method."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            qual = prefix + child.name
            yield qual, child
            yield from _definitions(child, qual + ".")
        else:
            yield from _definitions(child, prefix)


def unused_definitions(sources: dict[str, str], exempt) -> list[str]:
    """Definitions whose name no source reads outside the definition itself.

    sources maps a module name to its text.  Names are matched loosely: a
    method counts as read when any attribute of its name is loaded.
    Dunders and the qualified names in exempt are passed over.
    """
    trees = {name: ast.parse(text) for name, text in sources.items()}
    reads = Counter()
    for tree in trees.values():
        reads.update(_reads(tree))
    found = []
    for module, tree in trees.items():
        for qual, node in _definitions(tree):
            name = node.name
            if name.startswith("__") and name.endswith("__") or qual in exempt:
                continue
            if reads[name] == _reads(node)[name]:
                found.append(f"{module}: {qual}")
    return found


def test_scan_finds_an_unused_definition():
    src = (
        "def used():\n    return dead\n\n"
        "def dead(n):\n    return dead(n - 1)\n\n"
        "class C:\n    def m(self):\n        pass\n\n"
        "    def __len__(self):\n        return 0\n\n"
        "used()\nC().m\n"
    )
    assert unused_definitions({"a": src}, set()) == []
    src = src.replace("return dead\n", "return 0\n").replace("C().m", "C()")
    assert unused_definitions({"a": src}, {"C.m"}) == ["a: dead"]
    assert unused_definitions({"a": src}, set()) == ["a: dead", "a: C.m"]


def test_no_unused_definitions():
    init = ast.parse((PACKAGE / "__init__.py").read_text())
    (exported,) = [
        ast.literal_eval(node.value)
        for node in init.body
        if isinstance(node, ast.Assign)
        and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)
    ]
    sources = {path.stem: path.read_text() for path in sorted(PACKAGE.glob("*.py"))}
    assert len(sources) > 10
    assert unused_definitions(sources, {*exported, *READ_OUTSIDE}) == []


def private_members(source: str, cls: str) -> set[str]:
    """Private attributes of a class: its _methods and the self._names it
    assigns, dunders aside."""
    (node,) = [
        n for n in ast.parse(source).body
        if isinstance(n, ast.ClassDef) and n.name == cls
    ]
    out = set()
    for n in ast.walk(node):
        if isinstance(n, ast.FunctionDef) and n.name.startswith("_"):
            out.add(n.name)
        elif (
            isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Store)
            and isinstance(n.value, ast.Name) and n.value.id == "self"
            and n.attr.startswith("_")
        ):
            out.add(n.attr)
    return {name for name in out if not name.endswith("__")}


def private_reads(source: str, private: set[str]) -> list[str]:
    """Reads of the named attributes on anything but self or the class
    itself, as `name (line)`: patch._edges, p._undo and the like."""
    return [
        f"{ast.unparse(n.value)}.{n.attr} (line {n.lineno})"
        for n in ast.walk(ast.parse(source))
        if isinstance(n, ast.Attribute) and n.attr in private
        and not (isinstance(n.value, ast.Name) and n.value.id in ("self", "Patch"))
    ]


def test_scan_finds_a_private_read():
    cls = (
        "class Patch:\n    def __init__(self):\n        self._edges = {}\n"
        "        self.tiles = []\n\n    def _scan(self):\n"
        "        return self._edges\n"
    )
    assert private_members(cls, "Patch") == {"_edges", "_scan"}
    src = (
        "def f(patch, p):\n    p.tiles\n    p._scan()\n"
        "    return patch._edges, p.frontier.patch._edges\n"
    )
    assert sorted(private_reads(src, {"_edges", "_scan"})) == [
        "p._scan (line 3)", "p.frontier.patch._edges (line 4)",
        "patch._edges (line 4)",
    ]
    assert private_reads(cls, {"_edges", "_scan"}) == []


def test_no_private_patch_reads_outside_patch_py():
    private = private_members(PATCH.read_text(), "Patch")
    assert {"_edges", "_tile_vids", "_vertices", "_star_verdict"} <= private
    found = {
        str(path.relative_to(ROOT)): reads
        for path in SCANNED
        if path != PATCH and path.name not in PRIVATE_READERS
        and (reads := private_reads(path.read_text(), private))
    }
    assert found == {}


def test_scan_finds_an_unused_import():
    src = "from __future__ import annotations\nimport math\nimport os\nos.sep\n"
    assert unused_imports(src) == ["math (line 2)"]
    assert unused_imports("from x import y\n__all__ = ['y']\n") == []


def test_no_unused_imports():
    assert len(SCANNED) > 20
    found = {
        str(path.relative_to(ROOT)): names
        for path in SCANNED
        if (names := unused_imports(path.read_text()))
    }
    assert found == {}


def package_imports(source: str) -> set[str]:
    """The modules of the package that a module imports."""
    out = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom):
            if node.level == 0:
                parts = (node.module or "").split(".")
                if parts[0] == "shieldtiles":
                    out.update(parts[1:2] or [a.name for a in node.names])
            elif node.module:
                out.add(node.module.split(".")[0])
            else:
                out.update(a.name for a in node.names)
        elif isinstance(node, ast.Import):
            for a in node.names:
                parts = a.name.split(".")
                if parts[0] == "shieldtiles" and len(parts) > 1:
                    out.add(parts[1])
    return out


def test_scan_finds_package_imports():
    src = (
        "import math\nfrom . import patch\nfrom .atlas import X\n"
        "from .symbolic.sub import Y\nimport shieldtiles.errors\n"
        "from shieldtiles import alpha\nfrom shieldtiles.cli import main\n"
        "from collections import Counter\n"
    )
    assert package_imports(src) == {
        "patch", "atlas", "symbolic", "errors", "alpha", "cli",
    }


def test_classify_imports_no_generator():
    assert package_imports(CLASSIFY.read_text()) <= CLASSIFY_IMPORTS


def _module_lists(path, names) -> dict:
    """The literal values of the module-level assignments to names."""
    tree = ast.parse(path.read_text())
    return {
        t.id: ast.literal_eval(node.value)
        for node in tree.body
        if isinstance(node, ast.Assign)
        for t in node.targets
        if isinstance(t, ast.Name) and t.id in names
    }


def _resolve(module: str, attr_path: str):
    obj = importlib.import_module(f"shieldtiles.{module}")
    for attr in attr_path.split("."):
        obj = getattr(obj, attr)
    return obj


def test_traced_benchmark_names_resolve():
    # the traced benchmark run wraps these names; a rename would otherwise
    # show only when that run fails
    lists = _module_lists(SPANS, {"SPAN_BINDINGS", "COUNT_BINDINGS"})
    spans, counts = lists["SPAN_BINDINGS"], lists["COUNT_BINDINGS"]
    assert len(spans) >= 20 and len(counts) >= 3
    targets = [(module, path) for _name, module, path, *_flags in spans]
    targets += [tuple(name.split(".", 1)) for name in counts]
    missing = []
    for module, path in targets:
        try:
            ok = callable(_resolve(module, path))
        except (ImportError, AttributeError):
            ok = False
        if not ok:
            missing.append(f"{module}.{path}")
    assert missing == []
    # the benchmark child reports the kernel in use
    assert isinstance(_resolve("geomkernel", "IMPL"), str)


@pytest.mark.parametrize(
    "workload", [w["name"] for w in json.loads(BENCHMARK.read_text())["workloads"]]
)
def test_traced_benchmark_run_passes(workload):
    # the traced run fails when a wrapped function that a job kind must
    # reach is never called, and when an answer is wrong
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload",
         workload, "--seed", "1", "--seconds", "1", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout.strip().splitlines()[-1])["correct"] is True
