"""The package imports nothing outside the Python standard library."""

import ast
import sys
from pathlib import Path

# read from disk, not imported, so a missing third-party module still reports here
SOURCES = sorted((Path(__file__).parents[1] / "src" / "berncert").glob("*.py"))


def _absolute_imports(path):
    """(line, top-level module) for every absolute import in the file."""
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield node.lineno, alias.name.split(".")[0]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.lineno, node.module.split(".")[0]


def test_every_source_file_is_checked():
    names = {path.name for path in SOURCES}
    assert {"__init__.py", "bernstein.py", "linalg.py", "cli.py"} <= names


def test_package_imports_only_the_standard_library():
    outside = [
        f"{path.name}:{line}: {module}"
        for path in SOURCES
        for line, module in _absolute_imports(path)
        if module not in sys.stdlib_module_names
    ]
    assert outside == []
