"""The record base classes: constructors, repr, value equality and frozen
fields, without dataclasses."""
import pytest

from orbiflow.hyp2 import Geodesic, GeometryError, IsometryClass, IsometryKind
from orbiflow.report import CaseReport, VerificationReport
from orbiflow.surgery import SlopeCoefficient
from orbiflow.torusmap import RationalPoint, TorusMatrix


def test_value_equality_hash_and_repr():
    p, q = RationalPoint(1, 2, 3), RationalPoint(1, 2, 3)
    assert p == q and hash(p) == hash(q) and len({p, q}) == 1
    assert p != RationalPoint(2, 1, 3)
    assert p != (1, 2, 3)
    assert repr(p) == "RationalPoint(num_x=1, num_y=2, den=3)"
    assert repr(Geodesic(1j, -1.0 + 0.0j)) == "Geodesic(u=1j, v=(-1+0j))"


def test_value_fields_are_frozen():
    m = TorusMatrix(2, 1, 1, 1)
    with pytest.raises(AttributeError):
        m.a = 3
    with pytest.raises(AttributeError):
        del m.a
    with pytest.raises(AttributeError):
        m.extra = 1
    assert m.entries() == (2, 1, 1, 1)


def test_constructors_keep_order_defaults_and_checks():
    assert SlopeCoefficient(b=3, a=2) == SlopeCoefficient(3, 2)
    assert IsometryClass(IsometryKind.ELLIPTIC).translation_length is None
    rep = CaseReport(237)
    assert (rep.checks, rep.timings) == ([], {})
    assert CaseReport(245).checks is not rep.checks
    assert VerificationReport([rep], rep, 12).include_timings is False
    with pytest.raises(TypeError):
        RationalPoint(1, 2)
    with pytest.raises(GeometryError):
        Geodesic(1.0 + 0.0j, 1.0 + 0.0j)
    with pytest.raises(ValueError):
        TorusMatrix(1, 1, 1, 1)


def test_records_are_mutable_and_unhashable():
    rep = VerificationReport([], CaseReport(0), 12)
    rep.include_timings = True
    assert rep.include_timings
    with pytest.raises(TypeError):
        hash(rep)
