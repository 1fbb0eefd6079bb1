import ast
from pathlib import Path

import pytest

SOURCES = sorted((Path(__file__).resolve().parents[1] / "src" / "affsym").glob("*.py"))


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: path.name)
def test_no_assert_in_source(path):
    # checks must be typed errors: python -O strips assert statements
    tree = ast.parse(path.read_text(), filename=str(path))
    lines = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert lines == [], f"assert statements in {path.name} at lines {lines}"


@pytest.mark.parametrize(
    "path", [path for path in SOURCES if path.name != "__init__.py"], ids=lambda path: path.name
)
def test_no_unused_imports_in_source(path):
    # every imported name is read somewhere, as a name or the base of an
    # attribute; __init__.py imports to re-export and is left out
    tree = ast.parse(path.read_text(), filename=str(path))
    imported = {
        alias.asname or alias.name.split(".")[0]: node.lineno
        for node in ast.walk(tree)
        if isinstance(node, (ast.Import, ast.ImportFrom))
        and getattr(node, "module", None) != "__future__"
        for alias in node.names
    }
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    unused = {name: line for name, line in imported.items() if name not in used}
    assert unused == {}, f"unused imports in {path.name}: {unused}"


def test_every_top_level_definition_is_referenced():
    # a function or class defined at the top of a module is read by name
    # somewhere in the package, or re-exported by __init__.py; dead code
    # goes with the code that stopped calling it
    defined, referenced = {}, set()
    for path in SOURCES:
        tree = ast.parse(path.read_text(), filename=str(path))
        if path.name == "__init__.py":
            referenced |= {
                alias.asname or alias.name for alias in ast.walk(tree) if isinstance(alias, ast.alias)
            }
            continue
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defined[node.name] = f"{path.name}:{node.lineno}"
        referenced |= {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    unreferenced = {name: where for name, where in defined.items() if name not in referenced}
    assert unreferenced == {}, f"top-level definitions referenced nowhere: {unreferenced}"


# modules that no affsym module imports at start-up: the sweep's workers
# are forked, and only an error path pickles or kills
DEFERRED_IMPORTS = {"pickle", "multiprocessing", "concurrent", "subprocess", "threading", "signal"}


def _module_level_imports(nodes):
    # the modules imported outside any function or class body
    for node in nodes:
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            if node.level == 0:
                yield node.module
        elif not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield from _module_level_imports(ast.iter_child_nodes(node))


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: path.name)
def test_no_process_or_pickle_import_at_module_level(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    early = {name.split(".")[0] for name in _module_level_imports(tree.body)} & DEFERRED_IMPORTS
    assert early == set(), f"{path.name} imports {early} at start-up"
