"""Source checks no linter is needed for: every import of an ``anisonl``
module is used there, every annotation there resolves, and no handler
there catches every error."""

import ast
import importlib
import inspect
import pkgutil
import typing
from pathlib import Path

import pytest

import anisonl

MODULES = sorted(info.name for info in pkgutil.iter_modules(anisonl.__path__))


def imported_names(tree):
    """Names bound by the module's import statements, at any depth."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                names.add(alias.asname or alias.name.split(".")[0])
    return names


@pytest.mark.parametrize("name", MODULES)
def test_every_import_is_used(name):
    path = Path(anisonl.__file__).parent / f"{name}.py"
    tree = ast.parse(path.read_text())
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    assert sorted(imported_names(tree) - used) == []


def catch_all_lines(tree):
    """Lines of bare ``except``, ``except Exception`` and ``except
    BaseException`` handlers, alone or in a tuple."""
    lines = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.ExceptHandler):
            continue
        types = node.type.elts if isinstance(node.type, ast.Tuple) \
            else [node.type]
        if any(t is None or isinstance(t, ast.Name)
               and t.id in ("Exception", "BaseException") for t in types):
            lines.append(node.lineno)
    return lines


@pytest.mark.parametrize("name", MODULES)
def test_no_catch_all_handler(name):
    path = Path(anisonl.__file__).parent / f"{name}.py"
    assert catch_all_lines(ast.parse(path.read_text())) == []


@pytest.mark.parametrize("name", MODULES)
def test_annotations_resolve(name):
    module = importlib.import_module(f"anisonl.{name}")
    for obj in vars(module).values():
        if getattr(obj, "__module__", None) != module.__name__:
            continue
        if inspect.isclass(obj):
            typing.get_type_hints(obj)
            for attr in vars(obj).values():
                attr = getattr(attr, "__func__", attr)
                if inspect.isfunction(attr):
                    typing.get_type_hints(attr)
        elif inspect.isfunction(obj):
            typing.get_type_hints(obj)
