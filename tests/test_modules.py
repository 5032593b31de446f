import ast
import importlib
import pathlib
import re

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "folijet"
MODULES = sorted(path.stem for path in PACKAGE.glob("*.py"))


@pytest.mark.parametrize("name", MODULES)
def test_module_exports_resolve_and_imports_are_used(name):
    module = importlib.import_module(
        "folijet" if name == "__init__" else f"folijet.{name}")
    exported = getattr(module, "__all__", [])
    # `from folijet.<name> import *` fails on a name that does not resolve
    assert [n for n in exported if not hasattr(module, n)] == []

    tree = ast.parse((PACKAGE / f"{name}.py").read_text(encoding="utf-8"))
    imported = {}
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                bound = alias.asname or alias.name.split(".")[0]
                imported[bound] = node.lineno
    # every Attribute chain ends in a Name, so the roots are Name nodes
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    unused = sorted(set(imported) - used - set(exported))
    assert unused == [], [f"line {imported[n]}: {n}" for n in unused]


@pytest.mark.parametrize("name", MODULES)
def test_modules_import_only_at_module_level(name):
    # an import inside a function or class hides a cycle in the module graph
    tree = ast.parse((PACKAGE / f"{name}.py").read_text(encoding="utf-8"))
    nested = [node.lineno for top in tree.body
              if isinstance(top, (ast.FunctionDef, ast.AsyncFunctionDef,
                                  ast.ClassDef))
              for node in ast.walk(top)
              if isinstance(node, (ast.Import, ast.ImportFrom))]
    assert nested == [], f"{name}.py imports inside a body at lines {nested}"


def test_console_script_is_the_process_entry_of_the_cli_module():
    # plain text: tomllib is not in the standard library before 3.11
    text = (ROOT / "pyproject.toml").read_text(encoding="utf-8")
    scripts = text.split("[project.scripts]", 1)[1].split("\n[", 1)[0]
    target = re.fullmatch(r'\s*folijet = "folijet\.cli:(\w+)"\s*', scripts)
    assert target, scripts
    name = target.group(1)
    assert callable(getattr(importlib.import_module("folijet.cli"), name))
    tree = ast.parse((PACKAGE / "cli.py").read_text(encoding="utf-8"))
    block = [node for node in tree.body if isinstance(node, ast.If)
             and ast.unparse(node.test) == "__name__ == '__main__'"]
    assert len(block) == 1
    assert [ast.unparse(node) for node in block[0].body] == [f"{name}()"]
