"""The package imports only the standard library and itself, and defines
nothing that no source, test or benchmark file names, and no method that no
file accesses as an attribute; outside a short list, nothing that only
tests name."""

import ast
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "sheafkit"


def test_src_imports_only_the_standard_library():
    files = sorted(SRC.glob("*.py"))
    assert files
    foreign = []
    for path in files:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            foreign += [f"{path.name}: {name}" for name in names
                        if name.partition(".")[0] not in sys.stdlib_module_names]
    assert foreign == []


def _unreferenced(folders, allowed=()):
    """The definitions of src/sheafkit that no file under the given folders
    names, except src/sheafkit/__init__.py: a function or class counts when
    some file names it, a method only when some file accesses it as an
    attribute.  Names in allowed are left out."""
    root = SRC.parent.parent
    names, attrs = set(), set()
    for folder in folders:
        for path in sorted((root / folder).rglob("*.py")):
            if path == SRC / "__init__.py":
                continue
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
                if isinstance(node, ast.Name):
                    names.add(node.id)
                elif isinstance(node, ast.Attribute):
                    attrs.add(node.attr)
                elif isinstance(node, ast.alias):
                    names.update((node.name, node.asname))
                elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                    names.add(node.value)
    used = names | attrs
    defs = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    unused = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        methods = {node: f"{cls.name}.{node.name}" for cls in ast.walk(tree)
                   if isinstance(cls, ast.ClassDef)
                   for node in cls.body if isinstance(node, defs)}
        for node in ast.walk(tree):
            name = methods.get(node, node.name) if isinstance(node, defs) else None
            if (name is None
                    or (node.name.startswith("__") and node.name.endswith("__"))
                    or name in allowed):
                continue
            if node.name not in (attrs if node in methods else used):
                unused.append(f"{path.name}: {name}")
    return unused


def test_every_definition_is_referenced():
    """A function or class counts when some source, test or benchmark file
    names it; a method only when some file accesses it as an attribute."""
    assert _unreferenced(("src", "tests", "bench")) == []


# definitions that only tests reach, each with the reason it stays
TEST_ONLY = {
    # the membership oracle the cell-form tests read points through
    "SperConstructible.contains",
}


def test_every_definition_is_reached_outside_tests():
    """Every definition is named by the program itself (a CLI command, a
    selftest check) or by the benchmark, not by tests alone."""
    assert _unreferenced(("src", "bench"), TEST_ONLY) == []
