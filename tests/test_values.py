"""Value semantics of the immutable classes: equality and hash follow a key
tuple, the attributes outside it take part in neither, and a catalog entry
is value-equal but unhashable."""

import pytest

from genprob import Permutation
from genprob.catalog import CatalogEntry, load
from genprob.classes import SOLUBLE, GroupClass
from genprob.group import ElementSet
from genprob.util import Record
from genprob.wreath import ALPHA, BETA, Transversal, WreathElement, WreathLevel, alt5

from conftest import catalog_group

I3 = (0, 1, 2)
T3 = (1, 2, 0)


def _level():
    return WreathLevel(alt5(), alt5())


def _transversal(reps, g):
    return Transversal(tuple(Permutation(r) for r in reps), Permutation(g))


A5_ID = tuple(range(5))

# class -> (make x; make y with x's key, its other attributes changed where
# the class has any; make z with another key; x's key).  SOLUBLE has a
# fast_pair and y none, and y's ElementSet lies in another group.
CASES = {
    "Permutation": (
        lambda: Permutation(T3), lambda: Permutation((1, 2, 0)),
        lambda: Permutation(I3), (T3,)),
    "ElementSet": (
        lambda: ElementSet(catalog_group("S3"), frozenset({0, 1})),
        lambda: ElementSet(load("C4"), frozenset({0, 1})),
        lambda: ElementSet(catalog_group("S3"), frozenset({0, 2})),
        (frozenset({0, 1}),)),
    "GroupClass": (
        lambda: SOLUBLE, lambda: GroupClass(SOLUBLE.name, SOLUBLE.predicate),
        lambda: GroupClass("other", SOLUBLE.predicate),
        (SOLUBLE.name, SOLUBLE.predicate)),
    "WreathLevel": (
        _level, _level,
        lambda: WreathLevel(alt5(), catalog_group("S3")),
        (alt5(), alt5())),
    "WreathElement": (
        lambda: _level().from_top(ALPHA),
        lambda: WreathElement(_level().from_top(ALPHA).images,
                              WreathLevel(alt5(), catalog_group("S3"))),
        lambda: _level().from_top(BETA),
        (_level().from_top(ALPHA).images,)),
    "Transversal": (
        lambda: _transversal([A5_ID, ALPHA.images], ALPHA.images),
        lambda: _transversal([A5_ID, ALPHA.images], BETA.images),
        lambda: _transversal([A5_ID, BETA.images], ALPHA.images),
        ((Permutation(A5_ID), ALPHA),)),
}


@pytest.mark.parametrize("name", list(CASES))
def test_equality_and_hash_follow_the_key(name):
    make_x, make_y, make_z, key = CASES[name]
    x, y, z = make_x(), make_y(), make_z()
    assert type(x).__name__ == name
    assert x == y and not x != y
    assert hash(x) == hash(y) == hash(key)
    assert x != z and not x == z
    # neither the bare key nor a value of another class compares
    assert x.__eq__(key) is NotImplemented
    other_name = list(CASES)[(list(CASES).index(name) + 1) % len(CASES)]
    assert x.__eq__(CASES[other_name][0]()) is NotImplemented
    assert x != key


def test_records_of_two_classes_are_unequal():
    class A(Record):
        def __init__(self):
            self.value = 1

    class B(A):
        pass

    assert A() == A()
    assert A() != B() and not A() == B()


def test_catalog_entry_is_value_equal_and_unhashable():
    tags = {"abelian": True}
    entry = CatalogEntry("C4", "groups/C4.grp", 4, tags)
    assert entry == CatalogEntry("C4", "groups/C4.grp", 4, dict(tags))
    assert entry != CatalogEntry("C4", "groups/C4.grp", 2, tags)
    with pytest.raises(TypeError):
        hash(entry)
    with pytest.raises(AttributeError):
        entry.name = "C2"
