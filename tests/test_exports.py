"""The package's export lists."""

import importlib
import pkgutil

import evolflow


def test_every_name_in_all_resolves():
    modules = [importlib.import_module(f"evolflow.{m.name}") for m in pkgutil.iter_modules(evolflow.__path__)]
    exporting = [mod for mod in modules if hasattr(mod, "__all__")]
    assert len(exporting) == 7
    for mod in exporting:
        missing = [name for name in mod.__all__ if not hasattr(mod, name)]
        assert missing == [], f"{mod.__name__}.__all__ names undefined {missing}"
