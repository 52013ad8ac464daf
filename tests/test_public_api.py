"""The README's import block, CLI table and `__all__` name only what the package has,
and the package defines only what its code reaches."""

import argparse
import ast
import re
from pathlib import Path

import robustdata
from robustdata.cli import build_parser

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_entry_points_import():
    text = README.read_text()
    section = text.split("## Library entry points", 1)[1]
    block = re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)
    exec(compile(block, str(README), "exec"), {})


def test_every_exported_name_exists():
    missing = [name for name in robustdata.__all__ if not hasattr(robustdata, name)]
    assert missing == []
    namespace: dict = {}
    exec("from robustdata import *", namespace)
    assert set(robustdata.__all__) <= set(namespace)


def test_readme_cli_table_matches_parser():
    section = README.read_text().split("## CLI", 1)[1].split("\n## ", 1)[0]
    documented = re.findall(r"^\| `([a-z0-9-]+)", section, re.MULTILINE)
    sub = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    assert sorted(documented) == sorted(sub.choices)


def _referenced_names(tree: ast.AST) -> set[str]:
    """Every identifier a module's code uses: names, attributes and imported names."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.add(node.name)
    return names


def test_every_definition_is_reached():
    # a top-level function or class that no other code in src/ or benchmarks/ names, that is not
    # exported and is not the console entry point, runs in no command: it is dead or test-only
    src = Path(robustdata.__file__).resolve().parent
    files = sorted(src.glob("*.py")) + sorted((src.parents[1] / "benchmarks").glob("*.py"))
    used, defined = set(), []
    for path in files:
        for stmt in ast.parse(path.read_text()).body:
            if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)) and path.parent == src:
                defined.append(f"{path.stem}.{stmt.name}")
                # a definition's own body does not count: recursion reaches nothing
                used |= {n for n in _referenced_names(stmt) if n != stmt.name}
            else:
                used |= _referenced_names(stmt)
    unreached = [d for d in defined if d.split(".")[1] not in used | set(robustdata.__all__) and d != "cli.main"]
    assert unreached == []


def _scoped_nodes(tree: ast.Module):
    """(scope, node) for every node of a module; scope is 'function', 'Class.method', 'Class' or '<module>'."""
    for stmt in tree.body:
        if isinstance(stmt, ast.ClassDef):
            for item in stmt.body:
                scope = f"{stmt.name}.{item.name}" if isinstance(item, ast.FunctionDef) else stmt.name
                yield from ((scope, node) for node in ast.walk(item))
        else:
            scope = stmt.name if isinstance(stmt, ast.FunctionDef) else "<module>"
            yield from ((scope, node) for node in ast.walk(stmt))


def test_non_finite_arrays_raise_only_through_check_finite():
    # one finiteness check: NonFiniteError is made by errors.check_finite and by the learner's
    # re-raise, which names the epoch and batch; np.isfinite is called elsewhere only where a
    # non-finite value is a DataError (Dataset) or a ParameterError (LinearClassifier)
    src = Path(robustdata.__file__).resolve().parent
    raises, checks = set(), set()
    for path in sorted(src.glob("*.py")):
        for scope, node in _scoped_nodes(ast.parse(path.read_text())):
            called = isinstance(node, ast.Call) and (getattr(node.func, "id", None) or getattr(node.func, "attr", None))
            if called == "NonFiniteError":
                raises.add(f"{path.stem}.{scope}")
            if isinstance(node, ast.Attribute) and node.attr == "isfinite" \
                    and getattr(node.value, "id", "") in ("np", "numpy"):
                checks.add(f"{path.stem}.{scope}")
    assert raises == {"errors.check_finite", "learning.learn_robust_dataset"}
    assert checks == {"errors.check_finite", "dataset.Dataset.__post_init__", "models.LinearClassifier.__init__"}


def test_every_import_in_src_is_used():
    # a module that imports a name it never uses keeps a dependency nothing needs; the package's
    # __init__ re-exports what __all__ lists, and `from __future__` imports are directives
    src = Path(robustdata.__file__).resolve().parent
    unused = []
    for path in sorted(src.glob("*.py")):
        tree = ast.parse(path.read_text())
        imported = [alias.asname or alias.name.split(".")[0]
                    for node in ast.walk(tree)
                    if isinstance(node, (ast.Import, ast.ImportFrom)) and getattr(node, "module", "") != "__future__"
                    for alias in node.names]
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        if path.name == "__init__.py":
            used |= set(robustdata.__all__)
        unused += [f"{path.stem}.{name}" for name in imported if name not in used]
    assert unused == []


def test_only_learning_imports_the_tape():
    # the learner's meta-gradient is the package's one use of the autodiff tape; every other
    # module is numpy, so the tape can leave src/ by changing one module
    src = Path(robustdata.__file__).resolve().parent
    importers = set()
    for path in sorted(src.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, (ast.Import, ast.ImportFrom)):  # `from . import autodiff`, `from .autodiff import`
                names = [getattr(node, "module", None) or ""] + [alias.name for alias in node.names]
                if "autodiff" in {name.split(".")[-1] for name in names}:
                    importers.add(path.stem)
    assert importers == {"learning"}


def test_labels_become_targets_only_where_a_dataset_enters():
    # pgd_attack converted its `y` on every call, so the learner validated the same labels once per
    # batch; a conversion that takes a Dataset's labels happens once per run or pass over it
    src = Path(robustdata.__file__).resolve().parent
    calls, elsewhere = 0, []
    for path in sorted(src.glob("*.py")):
        for scope, node in _scoped_nodes(ast.parse(path.read_text())):
            if isinstance(node, ast.Call) and getattr(node.func, "attr", None) == "targets":
                calls += 1
                (arg,) = node.args
                if not (isinstance(arg, ast.Attribute) and arg.attr == "labels" and isinstance(arg.value, ast.Name)):
                    elsewhere.append(f"{path.stem}.{scope}: {ast.unparse(node)}")
    assert calls and elsewhere == []
