import pkgutil

import pytest

import vvps

MODULES = ["vvps"] + [f"vvps.{m.name}" for m in pkgutil.iter_modules(vvps.__path__)]


@pytest.mark.parametrize("name", MODULES)
def test_star_import(name):
    # a name in __all__ that the module does not define raises here
    exec(f"from {name} import *", {})
