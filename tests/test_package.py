"""The package's public surface: every exported name exists."""

import ppboot


def test_every_exported_name_resolves():
    assert [name for name in ppboot.__all__ if not hasattr(ppboot, name)] == []
    assert len(set(ppboot.__all__)) == len(ppboot.__all__)


def test_star_import_binds_every_exported_name():
    namespace: dict = {}
    exec("from ppboot import *", namespace)
    assert set(ppboot.__all__) <= namespace.keys()
