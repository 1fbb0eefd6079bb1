import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SOURCES = sorted((ROOT / "src" / "affsym").glob("*.py"))


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
# are forked, only an error path pickles or kills, only a sweep maps
# shared memory, only the exchange spot checks draw at random, and the
# word record is a collections.namedtuple, so no command loads typing
DEFERRED_IMPORTS = {
    "pickle", "multiprocessing", "concurrent", "subprocess", "threading", "signal", "mmap",
    "typing", "random",
}


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


# the order in which the package's modules may import each other: each
# imports only from earlier ranks, and little and stanley share a rank,
# so the factorization counts share no code with the bijection machinery
RANK = {"errors": 0, "group": 1, "words": 2, "little": 3, "stanley": 3, "verify": 4, "cli": 5}


def _package_imports(path):
    # the affsym modules a module imports at module level, as `from .x import`
    tree = ast.parse(path.read_text(), filename=str(path))
    imports = [node for node in tree.body if isinstance(node, ast.ImportFrom)]
    return {node.module for node in imports if node.level == 1}


def test_modules_import_only_earlier_layers():
    edges = {path.stem: _package_imports(path) for path in SOURCES if path.stem in RANK}
    assert set(edges) == set(RANK)
    assert edges["stanley"] == {"errors", "group", "words"}
    later = {
        (module, imported)
        for module, imports in edges.items()
        for imported in imports
        if RANK[imported] >= RANK[module]
    }
    assert later == set()


# where a process may end: the command's own exit and the sweep's forked
# workers; no library function ends a caller's process
PROCESS_EXITS = {("cli.py", "run"), ("verify.py", "_share"), ("verify.py", "_fork")}


def _process_exits(path):
    # (file name, innermost enclosing function) of each reading of os._exit
    def visit(node, function):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                yield from visit(child, child.name)
                continue
            if (
                isinstance(child, ast.Attribute)
                and child.attr == "_exit"
                and isinstance(child.value, ast.Name)
                and child.value.id == "os"
            ):
                yield path.name, function
            yield from visit(child, function)

    return set(visit(ast.parse(path.read_text(), filename=str(path)), None))


def test_os_exit_only_in_the_command_and_the_sweep_workers():
    found = set().union(*(_process_exits(path) for path in SOURCES))
    assert found == PROCESS_EXITS


def _cli_functions():
    tree = ast.parse((SOURCES[0].parent / "cli.py").read_text(), filename="cli.py")
    return {node.name: node for node in tree.body if isinstance(node, ast.FunctionDef)}


def _calls(function, name):
    return [
        node
        for node in ast.walk(function)
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == name
    ]


def _readers(functions, attr):
    # the functions that read an attribute of this name
    return {
        name
        for name, function in functions.items()
        for node in ast.walk(function)
        if isinstance(node, ast.Attribute) and node.attr == attr
    }


def test_only_main_writes_stdout_in_the_cli():
    # one output path: each cmd_* handler returns its record and main
    # writes it, as one JSON document through _emit_json or as text lines
    # through one print; every other print goes to stderr, no handler
    # reads --json, and nothing else touches sys.stdout but run's flush
    functions = _cli_functions()
    assert [name for name in functions if name.startswith("cmd_")]
    stdout_prints = {
        name: len([call for call in _calls(function, "print") if not call.keywords])
        for name, function in functions.items()
    }
    assert {name: count for name, count in stdout_prints.items() if count} == {
        "_emit_json": 1,
        "main": 1,
    }
    for name, function in functions.items():
        for call in _calls(function, "print"):
            assert [ast.unparse(k) for k in call.keywords] in ([], ["file=sys.stderr"]), name
    assert {name for name, function in functions.items() if _calls(function, "_emit_json")} == {
        "main"
    }
    assert _readers(functions, "json") == {"main"}
    assert _readers(functions, "stdout") == {"run"}


def _imports(path):
    # the top-level names of the modules a module imports, anywhere in it
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Import):
            yield from (alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module.split(".")[0]


def test_no_module_reads_the_garbage_collector():
    # the collector is the whole process's: a library call that froze,
    # disabled or tuned it would leave its caller's process changed, and
    # would run different lines wherever the interpreter starts with
    # objects frozen (a fresh Python 3.12.1 reports 375)
    readers = {path.name for path in SOURCES if "gc" in set(_imports(path))}
    assert readers == set()


# The memos that outlive a call are tables keyed by n and a size, mask,
# letter, length profile or degree, never by an element, so a long-lived
# process holds at most the tables of the n and degrees it has met.  Any
# other module-level memo is keyed by elements and has a fixed maxsize.
N_BOUNDED_MEMOS = {
    "words.cd_letters",
    "little._move",
    "little._layout",
    "words._cd_masks",
    "stanley._partitions",
    "stanley._commutation_certificate",
}


def test_module_memos_are_tables_keyed_by_n_or_have_a_maxsize(module_memos):
    assert N_BOUNDED_MEMOS <= set(module_memos)
    unbounded = {
        name for name, memo in module_memos.items() if memo.cache_parameters()["maxsize"] is None
    }
    assert unbounded - N_BOUNDED_MEMOS == set()


def _record_caches(path):
    # (module, top-level function) of each call that wraps word_record in
    # a cache, functools.cache(word_record) or the like
    tree = ast.parse(path.read_text(), filename=str(path))
    for top in tree.body:
        for node in ast.walk(top):
            if (
                isinstance(node, ast.Call)
                and "cache" in ast.unparse(node.func)
                and [ast.unparse(arg) for arg in node.args] == ["word_record"]
            ):
                yield path.stem, getattr(top, "name", None)


def _table_takers(path):
    # module.name of each function, nested or not, with a parameter table
    tree = ast.parse(path.read_text(), filename=str(path))
    for function in ast.walk(tree):
        if isinstance(function, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            arguments = function.args
            parameters = arguments.posonlyargs + arguments.args + arguments.kwonlyargs
            if "table" in {parameter.arg for parameter in parameters}:
                yield f"{path.stem}.{getattr(function, 'name', 'lambda')}"


def test_records_come_only_from_the_word_record_memo():
    # word_record's bounded memo is the one cache of word records: no
    # module wraps it in a cache of its own, and no walk or check of
    # little or verify is handed a table of records
    assert [site for path in SOURCES for site in _record_caches(path)] == []
    readers = [path for path in SOURCES if path.stem in ("little", "verify")]
    assert len(readers) == 2
    assert [name for path in readers for name in _table_takers(path)] == []


def _self_callers(path):
    # module.name of each function, nested or not, whose body calls it by
    # its own name, bare or as a method of self
    tree = ast.parse(path.read_text(), filename=str(path))
    for function in ast.walk(tree):
        if isinstance(function, (ast.FunctionDef, ast.AsyncFunctionDef)):
            names = {function.name, f"self.{function.name}"}
            calls = [node for node in ast.walk(function) if isinstance(node, ast.Call)]
            if names & {ast.unparse(call.func) for call in calls}:
                yield f"{path.stem}.{function.name}"


def test_only_the_coefficient_counter_recurses():
    # enumerations are loops, so how long an input can be does not hang
    # on the interpreter's recursion limit; the counter keeps one frame
    # per part, because its lru_cache recursion is what makes it fast
    found = {name for path in SOURCES for name in _self_callers(path)}
    assert found == {"stanley._coefficient"}
