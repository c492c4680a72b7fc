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


def _private_module_names(tree):
    """``(line, name)`` of each private function, class and constant that
    a module defines at its top level; dunder names are not private."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            targets = [node]
        elif isinstance(node, ast.Assign):
            targets = [leaf for target in node.targets for leaf in ast.walk(target)]
        elif isinstance(node, ast.AnnAssign):
            targets = [node.target]
        else:
            continue
        for target in targets:
            name = getattr(target, "name", None) or getattr(target, "id", "")
            if name.startswith("_") and not name.startswith("__"):
                yield node.lineno, name


def test_every_private_module_name_is_read_in_the_package():
    """Every module-level private function, class and constant of the
    package is read somewhere in it, by name or as a module attribute, so
    a deletion leaves no orphan helper behind."""
    defined, read = [], set()
    for path in sorted((ROOT / "src/fracvar").rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        defined += [(path.name, line, name) for line, name in _private_module_names(tree)]
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
    assert len(defined) > 90
    assert [f"{file}:{line}: {name}" for file, line, name in defined if name not in read] == []
