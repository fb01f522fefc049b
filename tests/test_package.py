"""The package surface: what each module exports, and what it imports."""

import ast
import importlib
import inspect
import sys
from pathlib import Path

import pytest

import lhts

SRC = Path(lhts.__file__).parent
EXPORTING = ["numerics", "oracle", "ar_model", "trainer", "diffusion", "data"]


def test_every_module_is_checked():
    modules = {path.stem for path in SRC.glob("*.py")} - {"__init__"}
    assert sorted(EXPORTING) == sorted(modules)


@pytest.mark.parametrize("name", EXPORTING)
def test_all_lists_exactly_the_public_functions_and_classes(name):
    module = importlib.import_module(f"lhts.{name}")
    public = {
        attr for attr, obj in vars(module).items()
        if not attr.startswith("_")
        and (inspect.isfunction(obj) or inspect.isclass(obj))
        and obj.__module__ == module.__name__
    }
    assert len(module.__all__) == len(set(module.__all__))
    assert set(module.__all__) == public


def _unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    bound = []
    for node in tree.body:
        if isinstance(node, ast.Import):
            bound += [(a.asname or a.name).split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound += [a.asname or a.name for a in node.names]
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return [name for name in bound if name not in used]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_module_level_import_is_unused(path):
    assert _unused_imports(path.read_text()) == []


def test_the_import_check_sees_an_unused_import():
    assert _unused_imports("import json\nimport math\nx = math.pi\n") == ["json"]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_imports_only_the_standard_library_and_numpy(path):
    # pyproject.toml's numpy is then the whole runtime dependency list
    roots = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            roots |= {a.name.split(".")[0] for a in node.names}
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            roots.add(node.module.split(".")[0])
    assert roots - set(sys.stdlib_module_names) <= {"numpy", "lhts"}
