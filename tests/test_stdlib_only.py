"""The package imports nothing outside the Python standard library, and it
exports exactly the public names of its library modules."""

import ast
import importlib
import sys
from pathlib import Path
from types import FunctionType

import berncert

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


# the library modules in dependency order; ``cli`` and ``__main__`` are the program
LIBRARY = (
    "polynomials", "linalg", "simplices", "bernstein",
    "subdivision", "certify", "serialize", "check", "counterexample",
)


def test_package_exports_each_library_modules_names():
    modules = [importlib.import_module(f"berncert.{name}") for name in LIBRARY]
    names = ["__version__"] + [name for module in modules for name in module.__all__]
    assert berncert.__all__ == names
    assert len(set(names)) == len(names)
    for module in modules:
        for name in module.__all__:
            assert getattr(berncert, name) is vars(module)[name], name
    assert isinstance(berncert.certify, FunctionType)  # the function, not its module
    assert {"tree_to_json", "MAX_COEFFICIENTS"} <= set(names)
    assert "main" not in names
