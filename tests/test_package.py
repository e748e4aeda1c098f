"""The package surface: exported names, resolved from the lazily loaded modules,
and the immutable records its modules hand out."""

from __future__ import annotations

import sys
from dataclasses import FrozenInstanceError

import pytest

import groupinv
from groupinv import abelian, ballprobe, catalog, cones, linalg, rinf, spheres
from groupinv import expressions as ex
from groupinv.selfcheck import atom_presentation


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


def test_one_rank_routine_under_every_name():
    # the benchmark's tracer counts rank calls at every binding of
    # abelian.matrix_rank, so cones and rinf must bind that very object
    for module in (abelian, cones, rinf):
        assert module.matrix_rank is linalg.matrix_rank, module
    assert abelian.det is linalg.det


def _probe():
    ball = ballprobe.enumerate_ball(ex.free_abelian(2), 4)
    return ballprobe.connectivity_probe(ball, spheres.Direction((1, 0)), [0, 1])


# (name, builder, compared by value, hashed by value); each builder builds an
# equal value, but not the same object, when it is called again
RECORDS = [
    ("Direction", lambda: spheres.Direction((2, -4)), True, True),
    ("FinitePoints", lambda: spheres.FinitePoints([spheres.Direction((1, 0))]), True, True),
    ("ConeRegion", lambda: spheres.ConeRegion([spheres.Direction((1, 0))]), True, True),
    ("SphereSet", lambda: spheres.full_sphere([2, 1]), True, True),
    ("Cardinality", lambda: spheres.full_sphere([1]).cardinality(), True, True),
    ("GroupAtom", lambda: ex.free_group(2), True, True),
    ("GroupExpr", lambda: ex.parse_group_expr("F(2) x Z"), True, True),
    ("KnownInvariants",
     lambda: catalog.lookup_invariants(ex.parse_group_expr("BS(1,2) x Z")), True, True),
    ("ProbeConfig", lambda: _probe().config, True, True),
    ("ProbeRow", lambda: _probe().rows[0], True, True),
    ("ProbeReport", _probe, True, True),
    ("TraceStep", lambda: rinf.decide(ex.parse_group_expr("BS(1,2)")).trace[0], True, True),
    ("Verdict", lambda: rinf.decide(ex.parse_group_expr("BS(1,2) x F(2)")), True, True),
    ("FinitePresentation", lambda: atom_presentation(ex.klein_bottle()), False, False),
    ("FGAbelianAutomorphism",
     lambda: abelian.FGAbelianAutomorphism.from_matrix([[-1]], [2]), False, False),
    ("BallGraph", lambda: ballprobe.enumerate_ball(ex.free_abelian(1), 2), False, False),
    ("ScanRow", lambda: ballprobe.probe_direction_scan(
        ex.free_abelian(1), [spheres.Direction((1,))], 4)[0][0], False, False),
    ("Finite12Report",
     lambda: cones.check_finite12(spheres.full_sphere([1])), False, False),
]


@pytest.mark.parametrize("name,build,by_value,hashed", RECORDS, ids=[r[0] for r in RECORDS])
def test_immutable_records_refuse_assignment_and_compare_by_value(name, build, by_value,
                                                                   hashed):
    a, b = build(), build()
    assert type(a).__name__ == name and a is not b
    assert isinstance(a, groupinv._Record)
    # equal by value exactly when the record derives it from its fields, or is
    # an expression node, which caches its hash
    assert by_value == (isinstance(a, groupinv._Value) or name == "GroupExpr")
    for field in type(a).__slots__:
        value = getattr(a, field)
        with pytest.raises(FrozenInstanceError):
            setattr(a, field, value)
        with pytest.raises(FrozenInstanceError):
            delattr(a, field)
        assert getattr(a, field) is value
    with pytest.raises(FrozenInstanceError):
        a.no_such_field = 1
    if by_value:
        assert a == b and not a != b
        assert a != object() and a != None  # noqa: E711
    else:
        assert a != b
    if hashed:
        assert hash(a) == hash(b)
        assert hash(a) == hash(tuple(getattr(a, f) for f in type(a).__slots__
                                     if f not in ("depth", "hash_value")))
