"""Equality, hashing and construction checks of the library's value classes.

Each class compares and hashes over its fields, except those documented
otherwise: AffineSemigroup leaves out its lift table, SysFanMorphism is
unhashable because its class map is a dict, and ValuedScalar,
EmbeddedHypersurface and Refinement compare by value through their own
__eq__ or by identity.
"""

from fractions import Fraction

import pytest

from prevtrop.cone import AffineSemigroup, Cone, LatticeQuotient, hilbert_basis
from prevtrop.exactla import AbelianGroup, IntMatrix, Lattice
from prevtrop.extreal import INF
from prevtrop.multiproj import Grading
from prevtrop.sysfan import (OmegaClass, SysFanMorphism, ValidationIssue,
                             morphism_from_lattice_map)
from prevtrop.tropembed import (EmbeddedHypersurface, ValuedScalar,
                                refine_embedding, scalar)
from prevtrop.troppre import NonNegTropPoint, TropPoint, ValuatedChartPolynomial

from systems import line_two_origins

RAY = Cone.from_rays([(1,)], 1)
ORIGIN = Cone.from_rays([], 1)
CLASS = OmegaClass(0, RAY, ("1", "2"))
BASIS = IntMatrix.from_rows([[1, 0]])

# class -> (field values, index of a compared field, a different value for it)
FIELDS = {
    IntMatrix: ((1, 2, (3, 4)), 2, (3, 5)),
    Lattice: ((2, BASIS), 1, IntMatrix.from_rows([[0, 1]])),
    AbelianGroup: ((1, (2, 3)), 1, (2,)),
    LatticeQuotient: ((2, Lattice(2, BASIS), IntMatrix.from_rows([[0, 1]]),
                       IntMatrix.from_rows([[0], [1]])),
                      2, IntMatrix.from_rows([[0, -1]])),
    ValidationIssue: (("fan", ("1", "2"), "overlap"), 1, ("2", "1")),
    OmegaClass: ((0, RAY, ("1", "2")), 1, ORIGIN),
    TropPoint: ((CLASS, (Fraction(1, 2),)), 1, (Fraction(1, 3),)),
    NonNegTropPoint: ((CLASS, ORIGIN, (Fraction(1),)), 1, RAY),
    ValuatedChartPolynomial: ((CLASS, (((0,), Fraction(0)), ((1,), INF))),
                              1, (((0,), Fraction(1)),)),
}


@pytest.mark.parametrize("cls", list(FIELDS), ids=lambda c: c.__name__)
def test_equal_fields_compare_and_hash_equal(cls):
    values, k, other = FIELDS[cls]
    a, b = cls(*values), cls(*values)
    assert a is not b and a == b and not a != b and hash(a) == hash(b)
    changed = list(values)
    changed[k] = other
    assert a != cls(*changed)
    # another class gives NotImplemented, so comparison falls back to identity
    assert a.__eq__(object()) is NotImplemented and a != values


def test_affine_semigroup_ignores_its_lift_table():
    monoid = hilbert_basis(Cone.from_rays([(1, 0), (1, 2)], 2))
    fields = (monoid.cone, monoid.generators, monoid.units, monoid._lift_of,
              monoid._proj)
    copy = AffineSemigroup(*fields)
    unlifted = AffineSemigroup(*fields[:3], {}, *fields[4:])
    assert monoid == copy == unlifted
    assert hash(monoid) == hash(copy) == hash(unlifted)
    other = AffineSemigroup(monoid.cone, monoid.generators[1:], *fields[2:])
    assert monoid != other


def test_morphisms_compare_by_fields_and_are_unhashable():
    system = line_two_origins()
    ident = morphism_from_lattice_map(system, system, IntMatrix.identity(1),
                                      {"1": "1", "2": "2"})
    same = SysFanMorphism(system, system, ident.lattice_map,
                          dict(ident.class_map))
    assert ident == same
    flipped = SysFanMorphism(system, system,
                             IntMatrix.from_rows([[-1]]), ident.class_map)
    assert ident != flipped
    with pytest.raises(TypeError):
        hash(ident)


def test_scalars_compare_by_value_and_are_unhashable():
    assert ValuedScalar((1, 2), (1,)) == ValuedScalar((2, 4), (2,)) == \
        ValuedScalar((Fraction(1, 2), 1), (Fraction(1, 2),))
    assert ValuedScalar((1, 2), (1,)) != ValuedScalar((1, 3), (1,))
    assert ValuedScalar((3,), (1,)) == 3
    with pytest.raises(TypeError):
        hash(scalar(1))


def test_hypersurfaces_and_refinements_compare_by_identity():
    grading = Grading(AbelianGroup(1), [(1,), (1,)])
    terms = (((1, 0), scalar(1)), ((0, 1), scalar(1)))
    hyp = EmbeddedHypersurface(grading, terms)
    assert hyp == hyp and hyp != EmbeddedHypersurface(grading, terms)
    first = refine_embedding(grading, terms)
    again = refine_embedding(grading, terms)
    assert first == first and first != again
    assert first.x_degree == again.x_degree


def test_constructors_still_check_their_fields():
    with pytest.raises(ValueError, match="entry count"):
        IntMatrix(2, 2, (1, 2, 3))
    with pytest.raises(ValueError, match="negative"):
        IntMatrix(-1, 0, ())
    with pytest.raises(ValueError, match="ambient"):
        Lattice(3, BASIS)
    with pytest.raises(ValueError, match="negative"):
        AbelianGroup(-1)
    for torsion in [(1,), (0,), (2.0,), (True,)]:
        with pytest.raises(ValueError, match="torsion"):
            AbelianGroup(1, torsion)
    assert AbelianGroup(2).torsion == ()
    with pytest.raises(ZeroDivisionError):
        ValuedScalar((1,), (0,))
