import importlib
import pkgutil

import pytest

import inidstat

# Every module but __main__, which runs the CLI when imported.
NAMES = [m.name for m in pkgutil.iter_modules(inidstat.__path__) if m.name != "__main__"]
MODULES = [inidstat] + [importlib.import_module(f"inidstat.{name}") for name in NAMES]


@pytest.mark.parametrize("module", [m for m in MODULES if hasattr(m, "__all__")], ids=lambda m: m.__name__)
def test_every_export_resolves(module):
    missing = [name for name in module.__all__ if not hasattr(module, name)]
    assert not missing
    assert len(set(module.__all__)) == len(module.__all__)
    namespace = {}
    exec(f"from {module.__name__} import *", namespace)
    assert set(module.__all__) <= namespace.keys()
