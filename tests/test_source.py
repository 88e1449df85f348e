"""Rules the library's own source keeps."""

import ast
import importlib
import pkgutil
import warnings
from pathlib import Path

import lobfluid
from lobfluid import errors


def _asserts(source: str, name: str) -> list[str]:
    return [f"{name}:{node.lineno}" for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.Assert)]


def _generated_sources() -> list[tuple[str, str]]:
    """(source, name) of the Python the library compiles at run time: the
    simulator's Python engine."""
    engine = importlib.import_module("lobfluid.simulate")
    return [(engine._engine_source(), "engine")]


def test_library_checks_invariants_without_assert():
    # python -O strips assert statements, so an invariant checked by one
    # goes unchecked there; the library raises typed errors instead
    package = Path(lobfluid.__file__).resolve().parent
    sources = sorted(package.glob("*.py"))
    assert sources
    asserts = [hit for path in sources
               for hit in _asserts(path.read_text(), path.name)]
    assert asserts == []


def test_generated_source_checks_invariants_without_assert():
    # the source the library compiles at run time keeps the same rule
    asserts = [hit for source, name in _generated_sources()
               for hit in _asserts(source, name)]
    assert asserts == []


def test_generated_source_compiles_without_warnings():
    # ast.parse does not raise the compiler's SyntaxWarnings (`x is 1`
    # parses, and fails to compile under -W error), so each generated
    # source is compiled with every warning an error
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for source, name in _generated_sources():
            compile(source, name, "exec")


def test_package_namespace_is_the_modules_public_names():
    # the package re-exports each module's __all__ and the error classes,
    # and nothing else: no helper and no import (np, say) leaks into it
    expected = {name for name, value in vars(errors).items()
                if isinstance(value, type) and issubclass(value, Exception)}
    for info in pkgutil.iter_modules(lobfluid.__path__):
        module = importlib.import_module(f"lobfluid.{info.name}")
        expected |= set(getattr(module, "__all__", ()))
    # the submodules are attributes of the package; any other module is not
    public = {name for name, value in vars(lobfluid).items()
              if not name.startswith("_")
              and getattr(value, "__name__", None) != f"lobfluid.{name}"}
    assert public == expected
