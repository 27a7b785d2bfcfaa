"""The value classes: construction, repr, equality, hashing, copying and immutability.

Every class here is an immutable value over a fixed tuple of named fields.
Two values are equal when they have the same class and equal fields, and
the hash is the hash of the field tuple.  Pickling and copying give back an
equal value of the same class.
"""

import copy
import pickle
from fractions import Fraction

import pytest

from rbx.actions import Dilate, InvalidGenerator, Shear, ShearSquared, Translate
from rbx.functionals import FunctionalCoords
from rbx.operators import AnalyticOp, TruncOp, ZeroMultiplier
from rbx.poly import Poly
from rbx.selftest import CriterionResult
from rbx.transitivity import _DiagonalTuple

X2_1 = Poly.from_text("x^2 + 1")
X_1 = Poly.from_text("x - 1")
OP = AnalyticOp(Fraction(1, 2), X2_1)
# r_1 = 1 - x and r_2 = x: the diagonal pattern at the points 0 and 1
DIAG_OPS = (AnalyticOp(0, Poly.from_text("1 - x")), AnalyticOp(0, Poly.from_text("x")))

# (class, field names, field values, repr)
CASES = [
    (AnalyticOp, ("a", "r"), (Fraction(1, 2), X2_1),
     "AnalyticOp(a=Fraction(1, 2), r=Poly('x^2 + 1'))"),
    (TruncOp, ("images",), ((Poly.one(), Poly.x()),),
     "TruncOp(images=(Poly('1'), Poly('x')))"),
    (FunctionalCoords, ("r", "c"), (X2_1, (Fraction(-1), Fraction(2, 3))),
     "FunctionalCoords(r=Poly('x^2 + 1'), c=(Fraction(-1, 1), Fraction(2, 3)))"),
    (Shear, ("b", "s"), (Fraction(1), X_1), "Shear(b=Fraction(1, 1), s=Poly('x - 1'))"),
    (ShearSquared, ("b", "s"), (Fraction(1), X_1),
     "ShearSquared(b=Fraction(1, 1), s=Poly('x - 1'))"),
    (Translate, ("nu",), (Fraction(-3, 4),), "Translate(nu=Fraction(-3, 4))"),
    (Dilate, ("mu",), (Fraction(2),), "Dilate(mu=Fraction(2, 1))"),
    (_DiagonalTuple, ("base_points", "values", "ops"),
     ((Fraction(0), Fraction(1)), (Fraction(1), Fraction(1)), DIAG_OPS),
     "_DiagonalTuple(base_points=(Fraction(0, 1), Fraction(1, 1)), "
     "values=(Fraction(1, 1), Fraction(1, 1)), "
     "ops=(AnalyticOp(a=Fraction(0, 1), r=Poly('-x + 1')), "
     "AnalyticOp(a=Fraction(0, 1), r=Poly('x'))))"),
    (CriterionResult, ("number", "name", "passed", "detail", "seconds"),
     (3, "identity", True, "ok", 0.25),
     "CriterionResult(number=3, name='identity', passed=True, detail='ok', seconds=0.25)"),
]
IDS = [case[0].__name__ for case in CASES]


def fields_of(value, names):
    return tuple(getattr(value, name) for name in names)


@pytest.mark.parametrize("cls,names,values,text", CASES, ids=IDS)
def test_construction_by_position_and_keyword(cls, names, values, text):
    by_position = cls(*values)
    by_keyword = cls(**dict(zip(names, values)))
    assert type(by_position) is type(by_keyword) is cls
    assert fields_of(by_position, names) == fields_of(by_keyword, names) == values
    assert by_position == by_keyword


@pytest.mark.parametrize("cls,names,values,text", CASES, ids=IDS)
def test_repr(cls, names, values, text):
    assert repr(cls(*values)) == text


@pytest.mark.parametrize("cls,names,values,text", CASES, ids=IDS)
def test_equality_is_per_class_over_the_fields(cls, names, values, text):
    value = cls(*values)
    assert value == cls(*values) and not value != cls(*values)
    assert value != values and value != object()
    assert value.__eq__(values) is NotImplemented


def test_unequal_fields_are_unequal():
    assert AnalyticOp(0, X2_1) != AnalyticOp(1, X2_1)
    assert AnalyticOp(0, X2_1) != AnalyticOp(0, X2_1 * 2)
    assert Translate(1) != Translate(2) and Dilate(2) != Dilate(-2)
    assert TruncOp((Poly.one(),)) != TruncOp((Poly.one(), Poly.x()))
    assert FunctionalCoords(X2_1, (1,)) != FunctionalCoords(X2_1, (1, 0))


def test_shear_families_differ():
    assert Shear(1, X_1) != ShearSquared(1, X_1)
    assert ShearSquared(1, X_1) != Shear(1, X_1)
    assert Translate(2) != Dilate(2)


def test_fields_are_normalised():
    assert AnalyticOp(2, X2_1).a == Fraction(2) and type(AnalyticOp("1/2", X2_1).a) is Fraction
    assert AnalyticOp("1/2", X2_1) == OP
    assert Shear("1", X_1).b == Fraction(1)
    assert Translate(3).nu == Fraction(3) and Dilate("-1/2").mu == Fraction(-1, 2)
    assert TruncOp([Poly.one()]).images == (Poly.one(),)
    assert FunctionalCoords(X2_1, ["1/2", 2]).c == (Fraction(1, 2), Fraction(2))


@pytest.mark.parametrize("cls,names,values,text", CASES, ids=IDS)
def test_hash_is_the_field_tuple_hash(cls, names, values, text):
    value = cls(*values)
    assert hash(value) == hash(values) == hash(cls(*values))
    assert len({value, cls(*values)}) == 1


@pytest.mark.parametrize("cls,names,values,text", CASES, ids=IDS)
def test_pickle_and_deepcopy_round_trip(cls, names, values, text):
    value = cls(*values)
    for twin in (pickle.loads(pickle.dumps(value)), copy.deepcopy(value), copy.copy(value)):
        assert type(twin) is cls
        assert twin == value and fields_of(twin, names) == values


@pytest.mark.parametrize("cls,names,values,text", CASES, ids=IDS)
def test_fields_cannot_be_set_or_deleted(cls, names, values, text):
    value = cls(*values)
    for name in names:
        with pytest.raises(AttributeError):
            setattr(value, name, getattr(value, name))
        with pytest.raises(AttributeError):
            delattr(value, name)
    with pytest.raises(AttributeError):
        value.extra = 1
    assert fields_of(value, names) == values
    assert not hasattr(value, "__dict__") and not hasattr(Poly.one(), "__dict__")


def test_invalid_input_raises():
    with pytest.raises(InvalidGenerator):
        Shear(2, X_1)
    with pytest.raises(InvalidGenerator):
        ShearSquared(0, X2_1)
    with pytest.raises(InvalidGenerator):
        Dilate(0)
    with pytest.raises(ZeroMultiplier):
        AnalyticOp(0, Poly.zero())
    for empty in ((), [], (image for image in ())):
        with pytest.raises(ValueError, match="at least the image of 1"):
            TruncOp(empty)
    with pytest.raises(ValueError, match="nonzero"):
        FunctionalCoords(Poly.zero(), (1,))
    with pytest.raises(ValueError, match="at least one coordinate"):
        FunctionalCoords(X2_1, ())
    with pytest.raises(ValueError, match="expected 1"):
        _DiagonalTuple((Fraction(0), Fraction(1)), (Fraction(1), Fraction(1)), DIAG_OPS[::-1])
