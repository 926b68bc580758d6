import importlib
import pkgutil

import gridpursuit


def test_every_exported_name_resolves():
    modules = [gridpursuit] + [
        importlib.import_module(f"gridpursuit.{info.name}")
        for info in pkgutil.iter_modules(gridpursuit.__path__)
    ]
    missing = [
        f"{mod.__name__}.{name}"
        for mod in modules
        for name in getattr(mod, "__all__", ())
        if not hasattr(mod, name)
    ]
    assert missing == []
