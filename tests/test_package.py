"""The package's public names are those of its modules' __all__."""

from __future__ import annotations

import rpiso
from rpiso import clifford, profile, specfn, spectrum, willmore

MODULES = (clifford, profile, specfn, spectrum, willmore)


def test_all_has_no_duplicates():
    assert len(rpiso.__all__) == len(set(rpiso.__all__))


def test_all_is_the_modules_all_plus_version():
    names = {name for module in MODULES for name in module.__all__}
    assert set(rpiso.__all__) == names | {"__version__"}


def test_each_name_is_its_modules_object():
    for module in MODULES:
        for name in module.__all__:
            assert getattr(rpiso, name) is getattr(module, name), (module.__name__, name)

