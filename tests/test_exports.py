import ast
from pathlib import Path

import hexcircle


def test_every_exported_name_imports():
    assert len(set(hexcircle.__all__)) == len(hexcircle.__all__)
    for name in hexcircle.__all__:
        assert hasattr(hexcircle, name), name
    namespace = {}
    exec("from hexcircle import *", namespace)
    assert set(hexcircle.__all__) <= set(namespace)


#: the one top-level definition no package code references yet:
#: compare_routes becomes `verify --checks routes` (ROADMAP item 6)
UNREFERENCED_ALLOWED = {"radius_system.compare_routes"}


def test_every_top_level_definition_is_referenced_in_the_package():
    # a function or class only the tests call belongs in tests/oracle.py
    src = Path(hexcircle.__file__).parent
    trees = {path: ast.parse(path.read_text()) for path in sorted(src.glob("*.py"))}
    refs = [(path, node.lineno, node.id if isinstance(node, ast.Name) else node.attr)
            for path, tree in trees.items() for node in ast.walk(tree)
            if isinstance(node, (ast.Name, ast.Attribute))]
    unreferenced = set()
    for path, tree in trees.items():
        if path.name == "__init__.py":
            continue
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)) and not any(
                    name == node.name and (where != path or not
                                           node.lineno <= line <= node.end_lineno)
                    for where, line, name in refs):
                unreferenced.add(f"{path.stem}.{node.name}")
    assert unreferenced <= UNREFERENCED_ALLOWED
