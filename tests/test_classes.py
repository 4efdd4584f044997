import random

import pytest
from hypothesis import given, settings, strategies as st

from genprob import FiniteGroup, Permutation, UnknownName
from genprob.catalog import load
from genprob.classes import (
    ABELIAN,
    BUILTIN_CLASSES,
    GroupClass,
    NILPOTENT,
    SOLUBLE,
    class_by_name,
    closure_audit,
    pair_by_predicate,
    pair_in_group,
    pair_row,
    test_pair as check_pair,
    _order_forces_soluble,
)
from genprob.errors import NotInGroup

from conftest import catalog_group

P = Permutation.parse


class TestClassLookup:
    def test_builtins(self):
        assert set(BUILTIN_CLASSES) == {"abelian", "nilpotent", "soluble"}
        assert class_by_name("soluble") is SOLUBLE

    def test_unknown(self):
        with pytest.raises(UnknownName):
            class_by_name("perfect")


class TestPredicates:
    def test_on_catalog(self):
        assert ABELIAN.predicate(catalog_group("C12"))
        assert not ABELIAN.predicate(catalog_group("Q8"))
        assert NILPOTENT.predicate(catalog_group("Q8"))
        assert not NILPOTENT.predicate(catalog_group("SL23"))
        assert SOLUBLE.predicate(catalog_group("SL23"))
        assert not SOLUBLE.predicate(catalog_group("A5"))

    def test_order_shortcut_is_sound(self):
        # insoluble catalog orders must never trip the shortcut
        for name in ("A5", "S5", "PSL27", "A6", "S6", "A7", "S7"):
            assert not _order_forces_soluble(catalog_group(name).order)
        for n in (1, 59, 105, 256, 72, 2187):
            assert _order_forces_soluble(n)


class TestPairTest:
    def test_membership_enforced(self):
        A4 = catalog_group("A4")
        with pytest.raises(NotInGroup):
            check_pair(SOLUBLE, A4, P("(1,2)", 4), P("(1,2,3)", 4))

    def test_symmetric(self):
        S4 = catalog_group("S4")
        x, y = P("(1,2)", 4), P("(1,2,3,4)", 4)
        assert check_pair(SOLUBLE, S4, x, y) == check_pair(SOLUBLE, S4, y, x)

    def test_known_values(self):
        A5 = catalog_group("A5")
        assert not check_pair(SOLUBLE, A5, P("(1,2,3)", 5), P("(3,4,5)", 5))
        assert check_pair(SOLUBLE, A5, P("(1,2,3)", 5), P("(1,2,3,4,5)", 5)) is False
        assert check_pair(SOLUBLE, A5, P("(1,2,3)", 5), P("(1,3,2)", 5))
        S3 = catalog_group("S3")
        assert check_pair(NILPOTENT, S3, P("(1,2)", 3), P("(1,2)", 3))
        assert not check_pair(NILPOTENT, S3, P("(1,2)", 3), P("(1,2,3)", 3))
        # one case per return of the soluble pair test
        A7, S3xA5 = catalog_group("A7"), catalog_group("S3xA5")
        for G, x, y, expected in [
            (A7, "(1,2,3)", "(4,5,6)", True),                  # commuting pair
            (A7, "(1,2,3)", "(2,3,4)", True),                  # A4: order forces it
            (A7, "(1,2,3)", "(1,2,3,4,5,6,7)", False),         # all of A7
            (A7, "(1,2,3)", "(1,2,3,4,5)", False),             # A5 < A7
            # S3 x D10, order 60 = 2^2 * 3 * 5: only its derived series decides
            (S3xA5, "(1,2)(4,5,6,7,8)", "(1,2,3)(5,8)(6,7)", True),
        ]:
            x, y = P(x, G.degree), P(y, G.degree)
            assert check_pair(SOLUBLE, G, x, y) is expected
            assert pair_by_predicate(SOLUBLE, G, x, y) is expected
        # the S3 x D10 pair: its order leaves the answer open
        assert not _order_forces_soluble(S3xA5.subgroup([x, y]).order)

    def test_cache_hits_are_consistent(self):
        G = catalog_group("S4")
        x, y = P("(1,2)", 4), P("(3,4)", 4)
        first = pair_in_group(ABELIAN, G, x.images, y.images)
        assert pair_in_group(ABELIAN, G, y.images, x.images) == first
        assert (min(x.images, y.images), max(x.images, y.images)) in G.pair_cache["abelian"]


def random_pairs(name, seed, count):
    G = catalog_group(name)
    rng = random.Random(seed)
    elems = G.elements()
    return G, [(rng.choice(elems), rng.choice(elems)) for _ in range(count)]


@pytest.mark.parametrize("name", ["S4", "A5", "SL23", "Q8xS3", "D18", "PSL27", "S6", "S7"])
@pytest.mark.parametrize("klass", [ABELIAN, NILPOTENT, SOLUBLE], ids=lambda c: c.name)
def test_fast_pair_matches_reference(name, klass):
    """The fast per-class tests must agree with predicate-on-subgroup."""
    G, pairs = random_pairs(name, seed=sum(name.encode()), count=40)
    for x, y in pairs:
        assert pair_in_group(klass, G, x.images, y.images) == pair_by_predicate(
            klass, G, x, y
        ), (klass.name, str(x), str(y))


@pytest.mark.parametrize("name", ["A5", "S5", "PSL27", "C3xA5", "S3xA5"])
def test_orbit_row_matches_predicate_row(name):
    """Each soluble row, built one orbit at a time, equals the per-element
    row of the independent oracle; so does its restriction to candidates."""
    G = load(name)  # a fresh pair cache, so every orbit runs its own test
    elems = G.elements()
    candidates = set(range(0, G.order, 3))
    for rep, _ in G.conjugacy_classes():
        expected = frozenset(
            i for i, g in enumerate(elems) if pair_by_predicate(SOLUBLE, G, rep, g)
        )
        assert pair_row(SOLUBLE, G, rep.images) == expected, str(rep)
        assert pair_row(SOLUBLE, G, rep.images, candidates) == expected & candidates


def test_orbit_rows_test_few_pairs():
    # rows tested element by element leave 7 865 distinct pairs here; one
    # test per orbit leaves 217
    G = load("S6")
    for rep, _ in G.conjugacy_classes():
        pair_row(SOLUBLE, G, rep.images)
    assert len(G.pair_cache["soluble"]) < 1000


@settings(deadline=None, max_examples=60)
@given(st.integers(0, 167), st.integers(0, 167))
def test_fast_pair_matches_reference_psl27(i, j):
    G = catalog_group("PSL27")
    x, y = G.element_at(i), G.element_at(j)
    for klass in (ABELIAN, NILPOTENT, SOLUBLE):
        assert pair_in_group(klass, G, x.images, y.images) == pair_by_predicate(
            klass, G, x, y
        )


class TestClosureAudit:
    def samples(self):
        return [catalog_group(n) for n in ("S3", "A4", "C6", "Klein", "Q8", "D12")]

    @pytest.mark.parametrize("klass", [ABELIAN, NILPOTENT, SOLUBLE], ids=lambda c: c.name)
    def test_builtin_classes_pass(self, klass):
        report = closure_audit(klass, self.samples(), seed=17, rounds=4)
        assert report.passed
        assert report.checks > 0

    def test_negative_control(self):
        # "order at most 10" is not subgroup/quotient/product closed; the
        # audit must catch it on the product checks
        bogus = GroupClass("small", lambda G: G.order <= 10)
        report = closure_audit(bogus, self.samples(), seed=17, rounds=2)
        assert not report.passed
        assert report.violations
