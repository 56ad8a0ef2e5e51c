"""The package's public surface is the modules' __all__ lists, re-exported."""

import importlib
import pkgutil

import convint
from convint import errors

# every public module but the command-line front end, in file name order
MODULES = [importlib.import_module(f"convint.{info.name}")
           for info in pkgutil.iter_modules(convint.__path__)
           if not info.name.startswith("_") and info.name != "cli"]


def test_all_is_the_version_then_every_module_list():
    assert len(MODULES) == 8
    assert convint.__all__ == ["__version__", *(name for module in MODULES
                                                for name in module.__all__)]
    assert len(set(convint.__all__)) == len(convint.__all__)


def test_every_exported_name_is_the_module_object():
    for module in MODULES:
        for name in module.__all__:
            assert getattr(convint, name) is getattr(module, name), name


def test_the_six_errors_are_exported():
    names = {"ConvintError", "ConfigError", "ValidationFailure", "SpectralError",
             "MajorantError", "SolveError"}
    assert set(errors.__all__) == names <= set(convint.__all__)
    assert all(issubclass(getattr(convint, name), convint.ConvintError) for name in names)
