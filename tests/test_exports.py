"""Tooling guard: the package's export list names only what it exports.

A stale ``__all__`` entry for a removed name makes ``from qreading import *``
raise, and a duplicate hides which entry a reader should trust.
"""

import qreading


def test_every_export_resolves():
    assert [name for name in qreading.__all__ if not hasattr(qreading, name)] == []
    namespace: dict = {}
    exec("from qreading import *", namespace)
    assert set(qreading.__all__) <= namespace.keys()


def test_no_export_is_listed_twice():
    assert len(qreading.__all__) == len(set(qreading.__all__))
