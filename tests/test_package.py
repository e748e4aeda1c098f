"""The package surface: exported names, resolved from the lazily loaded modules."""

from __future__ import annotations

import sys

import pytest

import groupinv


def test_every_exported_name_is_its_home_modules_object():
    for name in groupinv.__all__:
        value = getattr(groupinv, name)
        home = "groupinv." + groupinv._HOME[name]
        assert value is getattr(sys.modules[home], name), name
        assert getattr(value, "__module__", home) == home, name


def test_dir_and_star_import_cover_all():
    assert set(groupinv.__all__) <= set(dir(groupinv))
    namespace: dict = {}
    exec("from groupinv import *", namespace)
    assert set(groupinv.__all__) <= set(namespace)
    assert namespace["decide"] is groupinv.rinf.decide


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        getattr(groupinv, "no_such_name")
    assert not hasattr(groupinv, "selfcheck_results")


def test_exported_names_follow_their_module(monkeypatch):
    # nothing is cached in the package, so a name rebound in its home module
    # (as the benchmark's tracer does) is what the package hands out
    def fake(expr):
        return None

    monkeypatch.setattr(groupinv.catalog, "lookup_invariants", fake)
    assert groupinv.lookup_invariants is fake
    monkeypatch.undo()
    assert groupinv.lookup_invariants is not fake
