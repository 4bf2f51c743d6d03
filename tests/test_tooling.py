"""The package imports only the standard library and itself, and defines
nothing that no source, test or benchmark file names, and no method that no
file accesses as an attribute."""

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


# methods that the standard library calls and no file names
OVERRIDES = {"_ArgumentParser.error"}


def test_every_definition_is_referenced():
    """A function or class counts when some source, test or benchmark file
    names it; a method only when some file accesses it as an attribute."""
    root = SRC.parent.parent
    names, attrs = set(), set()
    for folder in ("src", "tests", "bench"):
        for path in sorted((root / folder).rglob("*.py")):
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
            if (not isinstance(node, defs)
                    or (node.name.startswith("__") and node.name.endswith("__"))
                    or methods.get(node) in OVERRIDES):
                continue
            if node.name not in (attrs if node in methods else used):
                unused.append(f"{path.name}: {methods.get(node, node.name)}")
    assert unused == []
