"""The package is a one-way stack: a module imports only modules below it, and only at load time."""

import ast
from pathlib import Path

import pytest

import maskac

# bottom to top; a module may import only modules before it
ORDER = ("autodiff", "netpbm", "envs", "network", "checkpoint", "analysis", "training", "cli")
SRC = Path(maskac.__file__).parent
FILES = sorted(p.name for p in SRC.glob("*.py"))


def parse(name):
    return ast.parse((SRC / name).read_text(), filename=name)


def test_every_module_has_a_place_in_the_stack():
    assert sorted(f"{m}.py" for m in ORDER) == [f for f in FILES if f != "__init__.py"]


@pytest.mark.parametrize("name", FILES)
def test_no_import_inside_a_function(name):
    found = [f"{name}:{node.lineno} in {func.name}"
             for func in ast.walk(parse(name))
             if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef))
             for node in ast.walk(func) if isinstance(node, (ast.Import, ast.ImportFrom))]
    assert found == []


@pytest.mark.parametrize("module", ORDER)
def test_relative_imports_name_only_earlier_modules(module):
    below = ORDER[:ORDER.index(module)]
    for node in ast.walk(parse(f"{module}.py")):
        if isinstance(node, ast.ImportFrom) and node.level:
            targets = [node.module] if node.module else [alias.name for alias in node.names]
            for target in targets:
                assert target in below, f"{module}.py:{node.lineno} imports {target}"
