"""The package namespace republishes each library module's public names."""

import hamlabels
from hamlabels import constructions, expectation, groups, search, trails, verify

MODULES = (constructions, expectation, groups, search, trails, verify)


def test_package_exports_each_module_all():
    names = [name for mod in MODULES for name in mod.__all__]
    assert hamlabels.__all__ == names
    assert len(set(names)) == len(names)
    for mod in MODULES:
        for name in mod.__all__:
            assert getattr(hamlabels, name) is getattr(mod, name), name
