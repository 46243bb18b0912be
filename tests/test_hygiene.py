"""Static checks on the package source: no unused imports, no dead private
or public names, method names, word-boundary markers and the row-block size
spelled only where they are defined, one method table in step with
InitConfig and init's options, the initializers' input ids read in
one place, line files read through one reader, word-vector values
converted in one place, matrix rows read through one gather and mapped
pages released in one place, target rows written in one place, rows
scaled and split for exact cosines in one place, numpy imported at module
level only by the matrix modules, and no defaulted parameter that only
tests pass.

Deleting code tends to leave an import or a `_helper` behind, and a method
name or a marker written out in another module is a second record of it;
these checks read the modules with `ast` and fail on such leftovers.
"""

import argparse
import ast
import importlib
import itertools
from dataclasses import fields
from pathlib import Path

import pytest

import vocabport
from vocabport import cli
from vocabport.initializers import METHOD_SPECS, METHODS, InitConfig
from vocabport.tokenizers import WORD_MARKERS

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "vocabport"
PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
TESTS = Path(__file__).resolve().parent
MODULES = sorted(PACKAGE.glob("*.py"))


def _tree(path: Path) -> ast.Module:
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def _loaded_names(tree: ast.AST) -> set[str]:
    """Names read anywhere in the tree, as bare names or as attributes."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            names.update(alias.name for alias in node.names)
    return names


def _is_private(name: str) -> bool:
    return name.startswith("_") and not name.endswith("__")


def _definitions(tree: ast.Module) -> list[str]:
    """The names a module defines at top level: functions, classes and
    assigned names."""
    names = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.append(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names.extend(t.id for t in targets if isinstance(t, ast.Name))
    return names


def _private_definitions(tree: ast.Module) -> list[str]:
    return [name for name in _definitions(tree) if _is_private(name)]


def _public_definitions(tree: ast.Module) -> list[str]:
    return [name for name in _definitions(tree) if not name.startswith("_")]


def _unused_imports(tree: ast.Module) -> list[str]:
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    unused = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                bound = alias.asname or alias.name.split(".")[0]
                if bound not in used:
                    unused.append(f"line {node.lineno}: {bound}")
    return unused


def _import_time_imports(tree: ast.Module) -> set[str]:
    """The top-level packages a module imports while it is itself imported:
    every absolute import outside a function body."""
    found = set()

    def visit(node):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Import):
                found.update(alias.name.split(".")[0] for alias in child.names)
            elif isinstance(child, ast.ImportFrom) and child.level == 0:
                found.add(child.module.split(".")[0])
            elif not isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                visit(child)

    visit(tree)
    return found


def _method_literals(tree: ast.AST) -> list[str]:
    return [
        f"line {node.lineno}: {node.value!r}"
        for node in ast.walk(tree)
        if isinstance(node, ast.Constant) and isinstance(node.value, str) and node.value in METHODS
    ]


def _marker_literals(tree: ast.AST) -> list[str]:
    """String constants, docstrings aside, that contain a word-boundary marker."""
    docstrings = {
        id(node.body[0].value)
        for node in ast.walk(tree)
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef))
        and node.body
        and isinstance(node.body[0], ast.Expr)
    }
    return [
        f"line {node.lineno}: {node.value!r}"
        for node in ast.walk(tree)
        if isinstance(node, ast.Constant)
        and isinstance(node.value, str)
        and id(node) not in docstrings
        and any(marker in node.value for marker in WORD_MARKERS)
    ]


def _holders(tree: ast.Module, wanted) -> set[str]:
    """The dotted names, like `_TargetRows.__init__`, of the innermost
    functions or classes that hold a node `wanted` accepts; "<module>" for
    a node outside all of them. A lambda belongs to the function around it."""
    found = set()

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if wanted(child):
                found.add(scope or "<module>")
            inner = scope
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                inner = f"{scope}.{child.name}" if scope else child.name
            visit(child, inner)

    visit(tree, "")
    return found


def _reads_attr(node: ast.AST, *attrs: str) -> bool:
    return isinstance(node, ast.Attribute) and node.attr in attrs


def _calls(node: ast.AST, name: str) -> bool:
    """Whether the node calls `name`, bare or as an attribute."""
    if not isinstance(node, ast.Call):
        return False
    func = node.func
    return (func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)) == name


def _defaulted_params(tree: ast.Module) -> list[tuple[str, str, int | None]]:
    """(name, parameter, position) for each parameter with a default of the
    module's public functions and of its public classes' public methods,
    named like `Class.method`. The position counts the arguments a call
    writes, so a method's skips self; it is None for a keyword-only one."""
    found = []

    def collect(fn, name, skip):
        args = fn.args
        positional = args.posonlyargs + args.args
        first = len(positional) - len(args.defaults)
        found.extend((name, arg.arg, i - skip) for i, arg in enumerate(positional) if i >= first)
        keyword = zip(args.kwonlyargs, args.kw_defaults)
        found.extend((name, arg.arg, None) for arg, default in keyword if default is not None)

    for node in tree.body:
        if isinstance(node, ast.FunctionDef) and not node.name.startswith("_"):
            collect(node, node.name, 0)
        elif isinstance(node, ast.ClassDef) and not node.name.startswith("_"):
            for method in node.body:
                if isinstance(method, ast.FunctionDef) and not method.name.startswith("_"):
                    collect(method, f"{node.name}.{method.name}", 1)
    return found


def _passes(call: ast.Call, param: str, position: int | None) -> bool:
    """Whether a call passes `param` by keyword, or at `position` by a
    positional argument it writes before any starred one."""
    written = itertools.takewhile(lambda arg: not isinstance(arg, ast.Starred), call.args)
    return any(kw.arg == param for kw in call.keywords) or (
        position is not None and len(list(written)) > position
    )


def _is_operator_index(node: ast.AST) -> bool:
    return (
        _reads_attr(node, "index")
        and isinstance(node.value, ast.Name)
        and node.value.id == "operator"
    )


@pytest.mark.parametrize(
    "path", [p for p in MODULES if p.name != "__init__.py"], ids=lambda p: p.name
)
def test_no_unused_imports(path):
    unused = _unused_imports(_tree(path))
    assert not unused, f"{path.name} imports names it never uses: {unused}"


def test_every_private_definition_is_used():
    trees = {path.name: _tree(path) for path in MODULES}
    used = set().union(*(_loaded_names(tree) for tree in trees.values()))
    dead = [
        f"{module}: {name}"
        for module, tree in trees.items()
        for name in _private_definitions(tree)
        if name not in used
    ]
    assert not dead, f"private names referenced nowhere in the package: {dead}"


def test_every_public_definition_is_read():
    # A public name is read somewhere in the package, its tests or the
    # benchmark; one read nowhere is dead code with a public face.
    readers = [*MODULES, *sorted(TESTS.glob("*.py")), *sorted(PERFBENCH.glob("*.py"))]
    used = set().union(*(_loaded_names(_tree(path)) for path in readers))
    dead = [
        f"{path.name}: {name}"
        for path in MODULES
        for name in _public_definitions(_tree(path))
        if name not in used
    ]
    assert not dead, f"public names read nowhere: {dead}"


def test_method_names_only_in_initializers():
    found = {
        path.name: _method_literals(_tree(path))
        for path in MODULES
        if path.name != "initializers.py"
    }
    found = {name: lines for name, lines in found.items() if lines}
    assert not found, f"method names written outside initializers.py: {found}"


def test_method_table_matches_init_config_and_cli():
    # Every InitConfig option is read by some method, the table names no
    # other field, and every such option of init is in the check that
    # refuses an option the method does not read (cli._CONFIG_OPTIONS).
    options = {f.name for f in fields(InitConfig)} - {"method", "seed"}
    reads = set().union(*(spec.reads for spec in METHOD_SPECS.values()))
    assert reads == options
    subparsers = next(a for a in cli._build_parser()._actions
                      if isinstance(a, argparse._SubParsersAction))
    init_options = {
        action.dest: action.option_strings[0]
        for action in subparsers.choices["init"]._actions
        if action.option_strings and not action.required and action.dest in options
    }
    assert init_options == {name: flag for name, (flag, _) in cli._CONFIG_OPTIONS.items()}


def test_word_markers_only_in_tokenizers():
    # Other modules split a marker off with tokenizers.split_marker, so
    # none spells a marker or reads the WORD_MARKERS table.
    found = {}
    for path in MODULES:
        if path.name == "tokenizers.py":
            continue
        tree = _tree(path)
        lines = _marker_literals(tree)
        if "WORD_MARKERS" in _loaded_names(tree):
            lines.append("reads WORD_MARKERS")
        if lines:
            found[path.name] = lines
    assert not found, f"word-boundary markers written outside tokenizers.py: {found}"


def test_init_inputs_read_once():
    # initializers checks every id of the overlap map once, in
    # _TargetRows.__init__, with _id_array, and every method reads the
    # checked arrays; a second read of the raw map could use ids no check
    # has seen.
    tree = _tree(PACKAGE / "initializers.py")
    assert _holders(tree, _is_operator_index) == {"_id_array"}
    raw_reads = _holders(tree, lambda node: _reads_attr(node, "pairs", "non_overlap"))
    assert raw_reads == {"_TargetRows.__init__"}


def test_one_line_reader():
    # Every line-based loader reads embedding_store._numbered_lines; only the
    # word-vector loader, whose blocks feed a batched conversion, reads the
    # blocks under it. A loader that gathered the blocks itself could hold
    # a whole file again.
    callers = {
        f"{path.stem}.{holder}"
        for path in MODULES
        for holder in _holders(_tree(path), lambda node: _calls(node, "_line_blocks"))
    }
    assert callers == {"embedding_store._numbered_lines", "aux_vectors.load_word_vectors"}


def test_value_text_converted_in_one_place():
    # Word-vector value text becomes numbers only in aux_vectors._convert_lines.
    # load_word_vectors hands each block to _convert_block, which alone calls
    # it, on the lines the target keeps, and alone calls _plain_decimals, on
    # the others. A second conversion could parse a value another way, or
    # convert one no check has passed; a second caller of the proof could
    # let through a line that no conversion checks.
    def holders(wanted):
        return {f"{path.stem}.{h}" for path in MODULES for h in _holders(_tree(path), wanted)}

    readers = ("loadtxt", "genfromtxt", "fromstring")
    assert holders(lambda node: _reads_attr(node, *readers)) == {"aux_vectors._convert_lines"}
    floats = _holders(
        _tree(PACKAGE / "aux_vectors.py"),
        lambda node: isinstance(node, ast.Name) and node.id == "float",
    )
    assert floats == {"_convert_lines"}
    for callee, caller in [
        ("_convert_lines", "_convert_block"),
        ("_plain_decimals", "_convert_block"),
        ("_convert_block", "load_word_vectors"),
    ]:
        assert holders(lambda node: _calls(node, callee)) == {f"aux_vectors.{caller}"}


def test_pages_released_in_one_place():
    # MADV_DONTNEED zeroes anonymous memory and drops the writes to a private
    # mapping. Only _drop_pages, which releases nothing but a read-only file
    # mapping, may name madvise.
    holders = {
        f"{path.stem}.{holder}"
        for path in MODULES
        for holder in _holders(
            _tree(path),
            lambda node: _reads_attr(node, "madvise", "MADV_DONTNEED")
            or isinstance(node, ast.Name) and node.id in ("madvise", "MADV_DONTNEED"),
        )
    }
    assert holders == {"embedding_store._drop_pages"}
    # Every read of matrix rows copies them through _gather, which releases
    # the pages; only the finiteness scan, which copies nothing, releases
    # them itself. A second caller would be a second release policy.
    callers = {
        f"{path.stem}.{holder}"
        for path in MODULES
        for holder in _holders(_tree(path), lambda node: _calls(node, "_drop_pages"))
    }
    assert callers == {"embedding_store._gather", "embedding_store._first_nonfinite"}
    assert [p.stem for p in MODULES if "_drop_pages" in _loaded_names(_tree(p))] == [
        "embedding_store"]


def test_target_rows_written_in_one_place():
    # _TargetRows.put is the only writer of an init's target matrices, so a
    # policy for written rows, such as writing them through mapped output
    # files, lives in one place: `outs` is bound in __init__ and read only by
    # put and by result, which wraps the matrices and writes nothing.
    tree = _tree(PACKAGE / "initializers.py")

    def outs(ctx):
        return lambda node: _reads_attr(node, "outs") and isinstance(node.ctx, ctx)

    def writes(node):
        return isinstance(node, (ast.Subscript, ast.Attribute)) and isinstance(node.ctx, ast.Store)

    assert _holders(tree, outs(ast.Store)) == {"_TargetRows.__init__"}
    assert _holders(tree, outs(ast.Load)) == {"_TargetRows.put", "_TargetRows.result"}
    assert "_TargetRows.put" in _holders(tree, writes)
    assert "_TargetRows.result" not in _holders(tree, writes)


def test_rows_scaled_in_one_place():
    # Exact cosines need every operand (support, gathered candidates,
    # queries) scaled and split the same way; a second copy of either step
    # could round one operand differently from the others.
    def holders(name):
        return {
            f"{path.stem}.{holder}"
            for path in MODULES
            for holder in _holders(
                _tree(path),
                lambda node: _reads_attr(node, name)
                or isinstance(node, ast.Name) and node.id == name,
            )
        }

    assert holders("frexp") == {"kernels._scale_rows"}
    assert holders("rint") == {"kernels._split"}


def test_streams_seeded_in_one_place():
    # Every sampled row draws from numpy's SeedSequence([seed, t]) stream,
    # whose seed words _stream_states hashes for a block of tokens; a
    # generator made anywhere else could be seeded another way and change
    # the sampled rows.
    def holders(wanted):
        return {f"{path.stem}.{h}" for path in MODULES for h in _holders(_tree(path), wanted)}

    names = ("SeedSequence", "ISeedSequence", "default_rng", "PCG64", "Generator")
    assert holders(
        lambda node: _reads_attr(node, *names) or isinstance(node, ast.Name) and node.id in names
    ) == {"initializers._stream_states", "initializers._token_rng"}
    assert holders(lambda node: _calls(node, "_token_rng") or _calls(node, "_stream_states")) == {
        "initializers._TargetRows.sample"
    }


def test_numpy_imported_only_by_matrix_modules():
    # analyze, tokenize, overlap and stats start without numpy: every
    # other module imports it inside
    # the functions that touch a matrix, and the package and cli import the
    # matrix modules only when a name of theirs is read, or init runs.
    found = {path.stem for path in MODULES if "numpy" in _import_time_imports(_tree(path))}
    assert found == {"aux_vectors", "initializers", "kernels", "script_groups"}


def test_every_default_is_passed_somewhere():
    # A default that no call in the package overrides leaves its parameter
    # one value in use: an option only tests set, or a second record of
    # what the data already says. Dataclass fields are not parameters here.
    trees = {path.stem: _tree(path) for path in MODULES}
    calls = [node for tree in trees.values() for node in ast.walk(tree)
             if isinstance(node, ast.Call)]
    unpassed = [
        f"{module}.{name}: {param}"
        for module, tree in trees.items()
        for name, param, position in _defaulted_params(tree)
        if not any(_calls(call, name.rsplit(".", 1)[-1]) and _passes(call, param, position)
                   for call in calls)
    ]
    assert not unpassed, f"defaulted parameters no package call passes: {unpassed}"


def test_row_block_size_defined_once():
    # Every pass over matrix rows steps by embedding_store._row_blocks; a
    # second rows-per-step constant would be a second record of that size.
    found = [
        f"{path.stem}.{name}"
        for path in MODULES
        for name in _definitions(_tree(path))
        if name.endswith("_ROWS")
    ]
    assert found == ["embedding_store._BLOCK_ROWS"], f"module-level row-block sizes: {found}"


def _assigned(tree: ast.AST, name: str) -> list[ast.expr]:
    """The values assigned to a bare name anywhere in the tree."""
    return [
        node.value
        for node in ast.walk(tree)
        if isinstance(node, ast.Assign)
        and any(isinstance(t, ast.Name) and t.id == name for t in node.targets)
    ]


def test_perfbench_names_resolve():
    # The benchmark's tracer wraps the functions in its TRACED table, and its
    # set-up probe calls each workload's loaders from the package top level;
    # a renamed function would crash a traced run or the probe.
    traced = ast.literal_eval(_assigned(_tree(PERFBENCH / "tracer.py"), "TRACED")[0])
    loaders = {
        plan.elts[0].value
        for plans in _assigned(_tree(PERFBENCH / "workloads.py"), "loaders")
        for plan in plans.elts
    }
    assert len(traced) > 5 and len(loaders) > 3
    missing = [
        f"vocabport.{module}.{name}"
        for module, names in traced.items()
        for name in names
        if not callable(getattr(importlib.import_module(f"vocabport.{module}"), name, None))
    ]
    missing += [f"vocabport.{name}" for name in sorted(loaders)
                if not callable(getattr(vocabport, name, None))]
    assert not missing, f"names perfbench calls that vocabport lacks: {missing}"


def test_checks_catch_leftovers():
    tree = ast.parse(
        "from __future__ import annotations\nimport os.path\nfrom .x import y, z as w\n\n"
        "def _dead():\n    return y\n\n_LIVE = 1\n_ALSO_DEAD = _LIVE\n"
    )
    assert _unused_imports(tree) == ["line 2: os", "line 3: w"]
    assert _private_definitions(tree) == ["_dead", "_LIVE", "_ALSO_DEAD"]
    used = _loaded_names(tree)
    assert "_LIVE" in used and "_dead" not in used and "_ALSO_DEAD" not in used
    tree = ast.parse(
        "__all__ = []\nLABELS = ()\n_HIDDEN = 1\n\nclass Spec:\n    def row(self):\n        pass\n"
    )
    assert _public_definitions(tree) == ["LABELS", "Spec"]
    tree = ast.parse('if args.method in ("clp", "clp-plus"):\n    x = f"{y}focus"\nz = "clp+"\n')
    assert _method_literals(tree) == ["line 1: 'clp'", "line 1: 'clp-plus'", "line 2: 'focus'"]
    tree = ast.parse(
        '"""A leading \u0120."""\n\ndef f(t):\n    """Drops \u2581."""\n'
        '    return "\\u2581" + t[1:], f"\u0120{t}", "x"\n'
    )
    assert _marker_literals(tree) == ["line 5: '\u2581'", "line 5: '\u0120'"]
    tree = ast.parse(
        "import operator\nf = operator.index\n\nclass A:\n    def g(self, m):\n"
        "        return lambda: m.pairs\n\n    def h(self):\n        def k(x):\n"
        "            return operator.index(x)\n        return k\n"
    )
    assert _holders(tree, _is_operator_index) == {"<module>", "A.h.k"}
    assert _holders(tree, lambda node: _reads_attr(node, "pairs")) == {"A.g"}
    tree = ast.parse(
        "def f(a, b=1, *, c=None, d=2, e):\n    pass\n\nclass K:\n    def m(self, x=0):\n"
        "        pass\n\n    def _n(self, y=0):\n        pass\n\ndef _g(z=0):\n    pass\n"
    )
    assert _defaulted_params(tree) == [
        ("f", "b", 1), ("f", "c", None), ("f", "d", None), ("K.m", "x", 0)]
    call = ast.parse("f(*a, b, d=1)").body[0].value
    assert [_passes(call, "b", 1), _passes(call, "d", None), _passes(call, "a", 0)] == [
        False, True, False]
    assert _passes(ast.parse("f(a, b)").body[0].value, "b", 1)
    tree = ast.parse(
        "import a.b\nfrom c.d import e\nfrom . import f\nif x:\n    import g as h\n\n"
        "class K:\n    import i\n\n    def m(self):\n        import j\n"
    )
    assert _import_time_imports(tree) == {"a", "c", "g", "i"}
    tree = ast.parse("def f(m):\n    return m.read(g(read))\n")
    assert [_calls(node, "read") for node in ast.walk(tree) if isinstance(node, ast.Call)] == [
        True, False]
