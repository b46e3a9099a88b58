"""The package's public names: each one in `treemine.__all__` is bound once.

A name left in `__all__` after its object leaves the package breaks
`from treemine import *` with an AttributeError.
"""

import treemine


def test_public_names_are_unique():
    names = treemine.__all__
    assert sorted(name for name in set(names) if names.count(name) > 1) == []


def test_public_names_are_package_attributes():
    assert [name for name in treemine.__all__
            if not hasattr(treemine, name)] == []

