"""Every imported name is used: an AST scan of the package, the scripts and
the tests.  Package ``__init__.py`` files only re-export and are skipped."""

import ast
import pathlib

ROOT = pathlib.Path(__file__).resolve().parent.parent
SCANNED = ("src/fracvar", "scripts", "tests")


def _unused_imports(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.partition(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [
        f"{path.relative_to(ROOT)}:{line}: {name}"
        for name, line in sorted(imported.items(), key=lambda item: item[1])
        if name not in used
    ]


def test_no_unused_imports():
    files = sorted(
        path
        for folder in SCANNED
        for path in (ROOT / folder).rglob("*.py")
        if path.name != "__init__.py"
    )
    assert files
    unused = [line for path in files for line in _unused_imports(path)]
    assert unused == []


def test_only_foundation_imports_numbers():
    """The scalar predicates ``_is_real`` and ``_is_count`` of
    ``fracvar.foundation`` are the package's one test of a number and of a
    count, so no other module reaches for ``numbers`` to write its own."""
    importers = []
    for path in sorted((ROOT / "src/fracvar").rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            names = ([alias.name for alias in node.names] if isinstance(node, ast.Import)
                     else [node.module] if isinstance(node, ast.ImportFrom) else [])
            if "numbers" in names:
                importers.append(path.name)
    assert importers == ["foundation.py"]
