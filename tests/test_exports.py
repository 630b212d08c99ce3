"""The top level of twistor4 is its modules' __all__ lists, declared once."""

import importlib
import types

import twistor4

MODULES = ("catalog", "complex_structures", "geometry", "linalg4",
           "surface_expr", "twistor")


def _modules():
    return [importlib.import_module(f"twistor4.{name}") for name in MODULES]


def test_every_module_name_is_the_same_object_at_the_top_level():
    for module in _modules():
        for name in module.__all__:
            assert getattr(twistor4, name, None) is getattr(module, name), \
                f"{module.__name__}.{name}"


def test_the_top_level_holds_nothing_else_but_submodules():
    names = [name for module in _modules() for name in module.__all__]
    assert len(set(names)) == len(names)  # no name in two modules
    others = {name for name in vars(twistor4) if not name.startswith("__")} - set(names)
    for name in others:  # the six modules, errors and any imported since, e.g. cli
        module = getattr(twistor4, name)
        assert isinstance(module, types.ModuleType), name
        assert module.__name__ == f"twistor4.{name}", name
    assert set(twistor4.__all__) == {*names, *MODULES, "errors"}
    assert isinstance(twistor4.__version__, str)
