"""The package's import layout: each decision has one owning module, and a
module reads another's only through its public names, at module top."""

import ast
from pathlib import Path

import xlda_kit

SOURCES = sorted(Path(xlda_kit.__file__).parent.glob("*.py"))


def _private(name: str) -> bool:
    return name.startswith("_") and not name.endswith("__")


def test_sources_are_found():
    assert {"packing.py", "sampling.py", "masks.py"} <= {p.name for p in SOURCES}


def test_no_module_imports_a_private_name_of_another():
    found = []
    for path in SOURCES:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if (isinstance(node, ast.ImportFrom) and node.level and node.module
                    and any(_private(alias.name) for alias in node.names)):
                found.append(f"{path.name}:{node.lineno}")
    assert found == []


def test_no_import_inside_a_function_body():
    found = []
    for path in SOURCES:
        for fn in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                found += [f"{path.name}:{node.lineno}" for node in ast.walk(fn)
                          if isinstance(node, (ast.Import, ast.ImportFrom))]
    assert found == []
