from fractions import Fraction

import pytest

from orbiflow import sections, trigroup
from orbiflow.sections import (BoundaryLabel, ComplexError, SectionComplex,
                               blow_down_genus, boundary_components,
                               check_orientable, euler_characteristic,
                               first_return_summary, meridional_turning,
                               section, separatrix_count)

EXPECTED = {
    237: dict(chi=-1, ncomp=1, dirs=[(1, 1)], total=(1, 1), genus=1,
              sep=[2], turning=None),
    245: dict(chi=-1, ncomp=1, dirs=[(2, 1)], total=(2, 1), genus=1,
              sep=[2], turning=None),
    246: dict(chi=-2, ncomp=2, dirs=[(1, 1), (1, 1)], total=(2, 2), genus=1,
              sep=[2, 2], turning=None),
    334: dict(chi=-1, ncomp=1, dirs=[(3, 1)], total=(3, 1), genus=1,
              sep=[2], turning=-1),
    344: dict(chi=-2, ncomp=2, dirs=[(2, 1), (2, 1)], total=(4, 2), genus=1,
              sep=[2, 2], turning=-2),
}


@pytest.mark.parametrize("case", sorted(EXPECTED))
def test_euler_characteristic(case):
    assert euler_characteristic(section(case)) == EXPECTED[case]["chi"]


@pytest.mark.parametrize("case", sorted(EXPECTED))
def test_orientable(case):
    assert check_orientable(section(case))


@pytest.mark.parametrize("case", sorted(EXPECTED))
def test_boundary_components(case):
    comps = boundary_components(section(case))
    exp = EXPECTED[case]
    assert len(comps) == exp["ncomp"]
    assert sorted(c.primitive for c in comps) == sorted(exp["dirs"])
    assert (sum(c.a for c in comps), sum(c.b for c in comps)) == exp["total"]


@pytest.mark.parametrize("case", sorted(EXPECTED))
def test_blow_down_genus_is_one(case):
    assert blow_down_genus(section(case)) == 1


@pytest.mark.parametrize("case", sorted(EXPECTED))
def test_chi_consistency(case):
    S = section(case)
    chi = euler_characteristic(S)
    n = len(boundary_components(S))
    assert chi == 2 - 2 * blow_down_genus(S) - n


@pytest.mark.parametrize("case", sorted(EXPECTED))
def test_separatrices(case):
    assert separatrix_count(section(case)) == EXPECTED[case]["sep"]


@pytest.mark.parametrize("case", sorted(EXPECTED))
def test_meridional_turning(case):
    total, applicable = meridional_turning(section(case))
    exp = EXPECTED[case]["turning"]
    if exp is None:
        assert not applicable and total == 0
    else:
        assert applicable and total == exp


@pytest.mark.parametrize("case", (334, 344))
def test_turning_matches_meridional_total(case):
    # Total turning equals minus the total meridional winding.
    S = section(case)
    total, _ = meridional_turning(S)
    b_total = sum(c.b for c in boundary_components(S))
    assert total == -b_total


def test_unknown_case_rejected():
    with pytest.raises(ValueError):
        section(999)


def test_disc_has_chi_one():
    disc = SectionComplex(((("a", 1), ("b", 1), ("c", 1)),),
                       (("a", BoundaryLabel(Fraction(1), Fraction(1), Fraction(0))),
                        ("b", BoundaryLabel(Fraction(0), Fraction(0), Fraction(0))),
                        ("c", BoundaryLabel(Fraction(0), Fraction(0), Fraction(0)))))
    assert euler_characteristic(disc) == 1
    assert len(boundary_components(disc)) == 1


def test_square_torus_genus_one():
    torus = SectionComplex(((("a", 1), ("b", 1), ("a", -1), ("b", -1)),),
                        ())
    assert euler_characteristic(torus) == 0
    assert boundary_components(torus) == []
    assert blow_down_genus(torus) == 1


def test_separatrix_formula_on_custom_direction():
    # A single-boundary complex with direction (1, 3) must report 6.
    S = SectionComplex(((("bd", 1), ("x", 1), ("x", -1)),),
                    (("bd", BoundaryLabel(Fraction(1), Fraction(3), Fraction(0))),))
    assert separatrix_count(S) == [6]


def test_nonorientable_gluing_rejected():
    bad = SectionComplex(((("a", 1), ("b", 1), ("a", 1), ("b", -1)),),
                      ())
    with pytest.raises(ComplexError):
        euler_characteristic(bad)


def test_nonpositive_b_rejected():
    S = SectionComplex(((("bd", 1), ("x", 1), ("x", -1)),),
                    (("bd", BoundaryLabel(Fraction(1), Fraction(-1), Fraction(0))),))
    with pytest.raises(ComplexError):
        boundary_components(S)


@pytest.fixture(scope="module", params=sorted(EXPECTED))
def adjacency_for(request):
    case = request.param
    group = trigroup.build_group(*trigroup.CASE_TRIPLES[case])
    system = trigroup.curve_system(case)
    return case, trigroup.adjacency_isometries(group, system)


FIXED_EXPECTED = {237: (1, True, 0), 245: (1, True, 0), 246: (2, False, 1),
                  334: (1, True, 0), 344: (2, False, 1)}


def test_first_return_summary(adjacency_for):
    # The boundary orbit adds a fixed point exactly when it carries a single
    # boundary component.
    case, report = adjacency_for
    summary = first_return_summary(report)
    c, boundary_fixed, interior = FIXED_EXPECTED[case]
    assert len(boundary_components(section(case))) == c
    assert summary.interior_fixed == interior
    assert summary.total_fixed - summary.interior_fixed == int(boundary_fixed)
    assert summary.total_fixed == 1
