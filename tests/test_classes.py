import random
from fractions import Fraction
from itertools import combinations
from operator import itemgetter

import pytest
from hypothesis import given, settings, strategies as st

import genprob.classes as classes
from genprob import FiniteGroup, Permutation, UnknownName
from genprob.catalog import load
from genprob.checks import closure_audit
from genprob.classes import (
    ABELIAN,
    BUILTIN_CLASSES,
    GroupClass,
    NILPOTENT,
    SOLUBLE,
    class_by_name,
    pair_by_predicate,
    pair_in_group,
    pair_key,
    pair_row,
    restriction_key,
    test_pair as check_pair,
    _certified_insoluble,
    _is_primitive,
    _nilpotent_pair,
    _prime_parts,
    _relabel,
)
from genprob.errors import CapExceeded, DegreeMismatch, NotInGroup
from genprob.group import _order_forces_soluble
from genprob.perm import conj, identity_tuple, inv, mul, prime_component, tuple_order
from genprob.probability import omega, prob_elem, prob_group, verify_identities
from genprob.tower import dihedral_tower
from genprob.util import pi_part, prime_factors

from conftest import catalog_group

P = Permutation.parse


class TestClassLookup:
    def test_builtins(self):
        assert set(BUILTIN_CLASSES) == {"abelian", "nilpotent", "soluble"}
        assert class_by_name("soluble") is SOLUBLE

    def test_unknown(self):
        with pytest.raises(UnknownName):
            class_by_name("perfect")

    def test_equality_ignores_the_fast_test(self):
        plain = GroupClass("soluble", SOLUBLE.predicate)
        assert plain.fast_pair is None
        assert plain == SOLUBLE and hash(plain) == hash(SOLUBLE)
        assert GroupClass(name="soluble", predicate=SOLUBLE.predicate,
                          fast_pair=ABELIAN.fast_pair) == SOLUBLE
        assert GroupClass("soluble", NILPOTENT.predicate) != SOLUBLE
        assert GroupClass("solvable", SOLUBLE.predicate) != SOLUBLE
        with pytest.raises(AttributeError):
            SOLUBLE.fast_pair = None


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

    def test_order_decides_is_soluble_without_a_derived_series(self, monkeypatch):
        def refuse(group):
            raise AssertionError(f"derived series of {group!r}")

        monkeypatch.setattr(FiniteGroup, "derived_series", refuse)
        # fresh groups, since is_soluble is cached per group: orders 24, 48,
        # 105 and 486 decide it, and 120 leaves it to the derived series
        C105 = FiniteGroup(15, [P("(1,2,3)(4,5,6,7,8)", 15), P("(9,10,11,12,13,14,15)", 15)])
        for G in (load("S4"), load("Q8xS3"), C105, dihedral_tower(3, 5).levels[-1]):
            assert G.is_soluble
        with pytest.raises(AssertionError, match="derived series"):
            load("S5").is_soluble


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

    def test_pair_key_is_least_first(self):
        x, y = (1, 0, 2), (0, 2, 1)
        assert pair_key(x, y) == pair_key(y, x) == (y, x)

    def test_group_inside_the_class_stores_no_verdict(self):
        # a subgroup-closed class containing S4 contains every <x, y>, so
        # test_pair answers from the predicate and leaves the cache alone
        G = load("S4")
        assert check_pair(SOLUBLE, G, P("(1,2)", 4), P("(1,2,3,4)", 4))
        assert G.pair_cache == {}

    def test_verdicts_of_unequal_classes_of_one_name_stay_apart(self):
        # a class named "nilpotent" with the soluble predicate and test read
        # the nilpotent verdicts stored under that name, 1 020 of them wrong
        fake = GroupClass("nilpotent", SOLUBLE.predicate, SOLUBLE.fast_pair)
        G, fresh = load("A5"), load("A5")
        pairs = [(x, y) for x in G.elements() for y in G.elements()]
        for x, y in pairs:
            check_pair(NILPOTENT, G, x, y)
        assert ([check_pair(fake, G, x, y) for x, y in pairs]
                == [check_pair(fake, fresh, x, y) for x, y in pairs])


@pytest.mark.parametrize("route", [
    lambda G, x: check_pair(SOLUBLE, G, x, G.identity),
    lambda G, x: check_pair(SOLUBLE, G, G.identity, x),
    lambda G, x: omega(SOLUBLE, G, x),
], ids=["test_pair-first", "test_pair-second", "omega"])
def test_pair_and_omega_refuse_a_non_member_alike(route):
    G = catalog_group("A4")
    with pytest.raises(NotInGroup, match=r"\(1,2\) is not an element of <FiniteGroup A4"):
        route(G, P("(1,2)", 4))
    with pytest.raises(DegreeMismatch):
        route(G, Permutation.identity(5))


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
    row of the independent oracle; so does its restriction to a subset."""
    G = load(name)  # a fresh pair cache, so every orbit runs its own test
    elems = G.elements()
    candidates = set(range(0, G.order, 3))
    for rep, _ in G.conjugacy_classes():
        expected = frozenset(
            i for i, g in enumerate(elems) if pair_by_predicate(SOLUBLE, G, rep, g)
        )
        row = pair_row(SOLUBLE, G, rep.images)
        assert row == expected, str(rep)
        assert row & candidates == expected & candidates


def test_repeated_rows_form_no_products(mul_calls, index_of_calls):
    """Once the tables are built and every pair test is cached, a soluble
    row only looks up indices: the orbit walk reads tables, and each orbit's
    pair test hits the cache.  The rows are asked of ``pair_row`` itself,
    since ``omega`` first sifts x through the stabilizer chain."""
    G = load("S6")
    reps = [rep.images for rep, _ in G.conjugacy_classes()]
    first = [pair_row(SOLUBLE, G, xt) for xt in reps]
    G.row_cache.clear()
    del mul_calls[:], index_of_calls[:]
    assert [pair_row(SOLUBLE, G, xt) for xt in reps] == first
    assert mul_calls == [] and index_of_calls == []


def test_orbit_rows_test_few_pairs():
    # rows tested element by element leave 7 865 distinct pairs here; one
    # test per orbit leaves 217
    G = load("S6")
    for rep, _ in G.conjugacy_classes():
        pair_row(SOLUBLE, G, rep.images)
    assert len(G.pair_cache["soluble"]) < 1000


def test_centralizer_right_tables_are_built_once(monkeypatch):
    """Each centralizer generator's right table drives the span walk and
    then gives its conjugation table, so a soluble row builds it once: on
    S7's class representatives that is 54 right tables, where building the
    conjugation tables afresh took 78, and the rows keep their sizes."""
    G = load("S7")
    calls = []
    right_table = FiniteGroup.right_table

    def counted(self, x):
        calls.append(x)
        return right_table(self, x)

    monkeypatch.setattr(FiniteGroup, "right_table", counted)
    elems = G.element_tuples()
    reps = G._conjugacy_data()[0]
    rows = [pair_row(SOLUBLE, G, elems[r]) for r in reps]
    assert len(calls) == 54
    assert [len(row) for row in rows] == [
        5040, 2160, 42, 180, 144, 612, 40, 144, 1200, 40, 720, 1296, 432, 432, 368]
    # every 97th element, by the uncached fast test
    for r, row in zip(reps, rows):
        for i in range(0, G.order, 97):
            assert (i in row) == SOLUBLE.fast_pair(G, elems[r], elems[i]), (r, i)


@pytest.mark.parametrize("name, composite", [("S7", {6, 10, 12}), ("A7", {6})])
def test_prime_part_table_matches_prime_component(name, composite):
    """The table holds each element's p-part for every prime p of its
    order; S7's elements of order 6, 10 and 12, and A7's of order 6, have
    parts that only a power of the element gives."""
    G = load(name)
    orders = set()
    for t in G.element_tuples():
        o = tuple_order(t)
        orders.add(o)
        parts = _prime_parts(G, t)
        assert parts == {p: prime_component(t, o, (p,)) for p in prime_factors(o)}
        # the parts have the prime powers of o as orders, and multiply to t
        product = identity_tuple(G.degree)
        for p, part in parts.items():
            assert tuple_order(part) == pi_part(o, (p,))
            product = mul(product, part)
        assert product == t
    assert len(G.prime_part_cache) == G.order
    assert composite <= orders


def test_second_nilpotent_pass_finds_no_order(monkeypatch):
    """A second pass of nilpotent rows over A7, with a fresh pair cache,
    reads every element's prime parts from the table: no order is worked
    out again."""
    G = load("A7")
    elems = G.element_tuples()
    reps = [elems[r] for r in G._conjugacy_data()[0]]
    calls = []

    def counted(t):
        calls.append(t)
        return tuple_order(t)

    monkeypatch.setattr(classes, "tuple_order", counted)
    first = [pair_row(NILPOTENT, G, xt) for xt in reps]
    assert 0 < len(calls) == len(set(calls)) <= G.order
    G.pair_cache.clear()
    del calls[:]
    assert [pair_row(NILPOTENT, G, xt) for xt in reps] == first
    assert calls == []


def test_nilpotent_pair_products_on_the_dihedral_tower(mul_calls):
    """The benchmark pins the tuple products of `tower dihedral 3 6`, so
    the nilpotent test keeps its order of products: cross-prime commute
    checks over the sorted union of primes, identity parts included, then
    one closure per prime both elements involve.  Over every unordered
    pair of D54, the top level of dihedral_tower(3, 3), that is 5 620
    products, and 378 of the 1 431 pairs generate a nilpotent group."""
    G = dihedral_tower(3, 3).levels[-1]
    elems = G.element_tuples()
    del mul_calls[:]
    passing = sum(_nilpotent_pair(G, a, b) for a, b in combinations(elems, 2))
    assert (G.order, len(mul_calls), passing) == (54, 5620, 378)


@pytest.mark.parametrize("klass", [ABELIAN, NILPOTENT, SOLUBLE], ids=lambda c: c.name)
def test_rows_refuse_a_group_above_the_cap(klass):
    """A row is refused above the cap even when the group lies in the
    class and its row would be every element; S4 is soluble."""
    G = FiniteGroup(4, catalog_group("S4").generators, cap=10)
    x = P("(1,2,3,4)", 4)
    with pytest.raises(CapExceeded):
        prob_elem(klass, G, x)
    with pytest.raises(CapExceeded):
        omega(klass, G, x)
    assert not G.is_materialized and G.row_cache == {}


def test_row_decides_the_class_before_listing(monkeypatch):
    """The class predicate's series are built, and dropped, before the
    element list exists: the first listing of the top level of
    dihedral_tower(3, 3) comes after is_nilpotent is settled."""
    G = dihedral_tower(3, 3).levels[-1]
    assert not G.is_materialized and "is_nilpotent" not in G.__dict__
    decided = []
    element_tuples = FiniteGroup.element_tuples

    def recorded(self):
        if self is G:
            decided.append("is_nilpotent" in G.__dict__)
        return element_tuples(self)

    monkeypatch.setattr(FiniteGroup, "element_tuples", recorded)
    row = omega(NILPOTENT, G, G.generators[0])
    assert decided[0] is True
    assert len(row) == 27  # the rotations: D54 is not nilpotent


@pytest.mark.parametrize("name, klass", [("Q8", NILPOTENT), ("C6", ABELIAN),
                                         ("S4", SOLUBLE)])
def test_rows_inside_the_class_list_no_elements(name, klass):
    """A group inside the class gets its full row without listing its
    elements.  The group is loaded afresh: catalog_group shares groups
    that earlier tests have listed."""
    G = load(name)
    assert omega(klass, G, G.generators[0]).members == frozenset(range(G.order))
    assert not G.is_materialized


def test_abelian_rows_read_the_tables(mul_calls):
    """Once the tables are built and the class predicate is settled, an
    abelian row forms no products and stores no pair test; it equals the
    centralizer, which commute decides by tuple products."""
    G = load("S5")
    elems = G.element_tuples()
    reps, sizes, _ = G._conjugacy_data()
    assert not G.is_abelian
    del mul_calls[:]
    rows = [pair_row(ABELIAN, G, elems[r]) for r in reps]
    assert mul_calls == [] and "abelian" not in G.pair_cache
    assert rows == [G.centralizer(Permutation(elems[r])).members for r in reps]
    assert [len(row) * size for row, size in zip(rows, sizes)] == [G.order] * len(reps)


@pytest.mark.parametrize("name", ["S5", "A6", "S3xA5", "C3xA5"])
def test_nilpotent_row_matches_predicate_row(name):
    """Each nilpotent row equals the per-element row of the independent
    oracle."""
    G = load(name)
    elems = G.elements()
    for rep, _ in G.conjugacy_classes():
        expected = frozenset(
            i for i, g in enumerate(elems) if pair_by_predicate(NILPOTENT, G, rep, g)
        )
        assert pair_row(NILPOTENT, G, rep.images) == expected, str(rep)


def soluble_pair_agrees(G, x, y):
    """The soluble pair test, without the pair cache, against the oracle."""
    return SOLUBLE.fast_pair(G, x.images, y.images) == pair_by_predicate(SOLUBLE, G, x, y)


class TestOrbitSplitOracle:
    """The soluble pair test decides each orbit restriction of <x, y> once
    per relabelled key; the oracle builds <x, y> itself.  Each group is
    loaded fresh, so its restriction cache fills while the test runs and
    later pairs are decided by cache hits."""

    @pytest.mark.parametrize("name", ["S5", "C3xA5"])
    def test_every_pair(self, name):
        G = load(name)
        elems = G.elements()
        for i, x in enumerate(elems):
            for y in elems[i:]:
                assert soluble_pair_agrees(G, x, y), (str(x), str(y))

    @pytest.mark.parametrize("name", ["A6", "PSL27", "S3xA5"])
    def test_seeded_pairs(self, name):
        G = load(name)
        rng = random.Random(sum(name.encode()))
        elems = G.elements()
        for _ in range(300):
            x, y = rng.choice(elems), rng.choice(elems)
            assert soluble_pair_agrees(G, x, y), (str(x), str(y))

    # generators of S5 x S5 on 10 points
    S5xS5 = ("(1,2)", "(1,2,3,4,5)", "(6,7)", "(6,7,8,9,10)")

    @pytest.mark.parametrize("group, x, y, expected", [
        # C2 on {1,2}, A5 on {3..7}: only the long orbit is insoluble
        ("S7", "(1,2)(3,4,5)", "(3,4,5,6,7)", False),
        ("S7", "(1,2)(3,4)", "(3,4,5,6,7)", False),            # C2 and S5
        ("S7", "(1,2)(3,4,5,6,7)", "(1,2)(4,7)(5,6)", True),   # C2 and D10
        ("S7", "(1,2,3)(4,5,6,7)", "(1,2)(4,5)", True),        # orbits of 3 and 4
        ("S7", "(1,2,3)", "(2,3,4)(5,6,7)", True),             # A4 and C3
        ("S3xA5", "(1,2)(4,5,6)", "(1,2,3)(4,5,6,7,8)", False),  # S3 and A5
        ("S3xA5", "(1,2)(4,5,6,7,8)", "(1,2,3)(5,8)(6,7)", True),  # S3 and D10
        ("S3xA5", "(1,2)(4,5,6)", "(4,5,6,7,8)", False),       # C2 and A5
        # two orbits of five points
        (S5xS5, "(1,2,3)(6,7,8)", "(1,2,3,4,5)(6,7,8,9,10)", False),  # A5 twice, one key
        (S5xS5, "(1,2,3,4,5)(6,7,8,9,10)", "(2,5)(3,4)(7,10)(8,9)", True),  # D10 twice
        (S5xS5, "(1,2,3,4,5)(6,7)", "(2,5)(3,4)(6,7,8,9,10)", False),  # D10 and S5
    ], ids=lambda v: v if isinstance(v, str) else None)
    def test_mixed_orbits(self, group, x, y, expected):
        if isinstance(group, str):
            G = load(group)
        else:
            G = FiniteGroup(10, [P(c, 10) for c in group])
        x, y = P(x, G.degree), P(y, G.degree)
        assert SOLUBLE.fast_pair(G, x.images, y.images) is expected
        assert pair_by_predicate(SOLUBLE, G, x, y) is expected


# M12 on 12 points, order 95 040: too large to list in a unit test, so its
# elements are drawn as random words in these generators
M12_GENERATORS = tuple(P(c, 12).images for c in (
    "(1,2,3,4,5,6,7,8,9,10,11)", "(3,7,11,8)(4,10,5,6)", "(1,12)(2,11)(3,6)(4,8)(5,9)(7,10)"))


def element_draws(name, rng):
    """The degree of the named group and a function drawing one of its
    elements from ``rng``: uniform over a catalog group, a random word of up
    to 30 generators for M12."""
    if name == "M12":
        def word():
            t = identity_tuple(12)
            for _ in range(rng.randrange(1, 31)):
                t = mul(t, rng.choice(M12_GENERATORS))
            return t
        return 12, word
    G = catalog_group(name)
    elems = G.element_tuples()
    return G.degree, lambda: rng.choice(elems)


class TestRestrictionKey:
    def assert_decodes(self, xt, yt, start, key, points):
        """Label i stands for points[i]: the key is the restriction of x and
        y to the orbit of start, with its points renamed."""
        orbit = {start}
        while True:
            grown = orbit | {t[p] for t in (xt, yt) for p in orbit}
            if grown == orbit:
                break
            orbit = grown
        assert sorted(points) == sorted(orbit)
        label = {p: i for i, p in enumerate(points)}
        assert key == tuple(tuple(label[t[p]] for p in points) for t in (xt, yt))

    @pytest.mark.parametrize("name", ["S7", "PSL27", "S3xA5", "A6", "M12"])
    def test_conjugate_pairs_share_keys(self, name):
        rng = random.Random(sum(name.encode()))
        n, draw = element_draws(name, rng)
        for _ in range(40):
            xt, yt = draw(), draw()
            sigma = tuple(rng.sample(range(n), n))
            # the conjugate sends sigma(p) to sigma(x(p))
            xs, ys = (mul(mul(inv(sigma), t), sigma) for t in (xt, yt))
            for start in range(n):
                key, points = restriction_key(xt, yt, start)
                self.assert_decodes(xt, yt, start, key, points)
                # every start point of an orbit gives the same key
                assert restriction_key(xt, yt, points[-1])[0] == key
                other, other_points = restriction_key(xs, ys, sigma[start])
                self.assert_decodes(xs, ys, sigma[start], other, other_points)
                assert other == key

    @pytest.mark.parametrize("name", ["PSL27", "S6", "A6", "S7", "C3xA5", "S3xA5", "M12"])
    def test_key_is_the_least_over_all_starts(self, name):
        # the oracle relabels from every point of the orbit and keeps the
        # first least key in label order
        rng = random.Random(len(name))
        n, draw = element_draws(name, rng)
        fixed_starts = 0
        for _ in range(60):
            xt, yt = draw(), draw()
            for start in range(n):
                orbit = _relabel(xt, yt, start)[1]
                least = min((_relabel(xt, yt, s) for s in orbit), key=itemgetter(0))
                assert restriction_key(xt, yt, start) == least
                fixed_starts += least[0][0][0] == 0
        assert fixed_starts


class TestRestrictionLookup:
    """The soluble pair test asks the restriction cache for the relabelling
    from each orbit's least point first, and names the restriction by its
    canonical key only on a miss."""

    def calls(self, monkeypatch, name):
        seen = []
        f = getattr(classes, name)

        def counted(*args):
            seen.append(args)
            return f(*args)

        monkeypatch.setattr(classes, name, counted)
        return seen

    @pytest.mark.parametrize("name", ["PSL27", "A6"])
    def test_exhaustive_count_decides_each_canonical_key_once(self, name, monkeypatch):
        G = load(name)
        decided = self.calls(monkeypatch, "_soluble_restriction")
        prob_group(SOLUBLE, G, method="exhaustive")
        # every entry, under either kind of key, holds the verdict of the
        # restriction it names
        verdicts = {}
        for key, value in G.restriction_cache.items():
            verdicts[key] = FiniteGroup(len(key[0]), [Permutation(t) for t in key]).is_soluble
            assert value is verdicts[key]
        # the canonical keys the unordered pairs meet, orbit by orbit in the
        # order of their least points, up to the first insoluble one
        elems = G.element_tuples()
        expected = set()
        for i, xt in enumerate(elems):
            for yt in elems[i + 1:]:
                if mul(xt, yt) == mul(yt, xt):
                    continue
                seen = set()
                for start in range(G.degree):
                    if start in seen:
                        continue
                    key, points = restriction_key(xt, yt, start)
                    seen.update(points)
                    expected.add(key)
                    if not verdicts[key]:
                        break
        assert sorted(args[1:] for args in decided) == sorted(expected)
        assert expected < G.restriction_cache.keys()

    def test_second_pass_names_no_restriction(self, monkeypatch):
        # once every first relabelling is stored, a pass over the same pairs
        # relabels each orbit once and searches for no canonical key
        G = load("PSL27")
        first = prob_group(SOLUBLE, G, method="exhaustive")
        G.pair_cache.clear()
        searches = self.calls(monkeypatch, "restriction_key")
        relabels = self.calls(monkeypatch, "_relabel")
        assert prob_group(SOLUBLE, G, method="exhaustive") == first
        assert not searches
        assert relabels


def primitive_by_blocks(k, gens):
    """Whether the transitive group generated by ``gens`` on k points has no
    block B holding 0 with 1 < |B| < k: the oracle for ``_is_primitive``
    tries every such set, and B is a block iff each of its images under the
    group is B or misses it."""
    for bits in range(1, 2 ** (k - 1) - 1):
        B = frozenset([0, *(p + 1 for p in range(k - 1) if bits >> p & 1)])
        if k % len(B):
            continue
        images = [B]
        for image in images:
            if image != B and image & B:
                break
            for g in gens:
                moved = frozenset(g[p] for p in image)
                if moved not in images:
                    images.append(moved)
        else:
            return False
    return True


def check_certificate(xr, yr):
    """The certificate and the primitivity test on one transitive key,
    against the key's own chain and the block oracle; returns whether the
    key was certified."""
    k = len(xr)
    assert _is_primitive(k, (xr, yr)) is primitive_by_blocks(k, (xr, yr)), (xr, yr)
    certified = _certified_insoluble(xr, yr)
    if certified:
        assert not FiniteGroup(k, [Permutation(xr), Permutation(yr)]).is_soluble, (xr, yr)
    return certified


class TestInsolubilityCertificate:
    """A restriction that ``_certified_insoluble`` accepts is insoluble by
    its own chain; keys of at most four points never reach it."""

    @pytest.mark.parametrize("name", ["S5", "S6", "S7", "A6", "A7", "PSL27", "C3xA5"])
    def test_keys_met_by_catalog_groups(self, name, monkeypatch):
        G = load(name)
        keys = []
        decide = classes._soluble_restriction

        def recorded(G, xr, yr):
            keys.append((xr, yr))
            return decide(G, xr, yr)

        monkeypatch.setattr(classes, "_soluble_restriction", recorded)
        prob_group(SOLUBLE, G)
        certified = [check_certificate(*key) for key in keys if len(key[0]) > 4]
        # PSL(2,7)'s restrictions of 5 points or more are its 8-point
        # action, insoluble with no witness, and soluble 7-point ones
        assert any(certified) is (name != "PSL27")

    def test_m12_keys(self):
        rng = random.Random(12)
        n, draw = element_draws("M12", rng)
        certified = []
        for _ in range(25):
            xt, yt = draw(), draw()
            seen = set()
            for start in range(n):
                if start not in seen:
                    key, points = restriction_key(xt, yt, start)
                    seen.update(points)
                    if len(points) > 4:
                        certified.append(check_certificate(*key))
        assert any(certified)

    # (name, degree, x, y, order, soluble, primitive, certified); points
    # 1..k stand for the field elements 0..k-1, F_8 = F_2[t]/(t^3 + t + 1)
    # numbered by bits, and on the projective lines k is infinity
    HAND_MADE = [
        # soluble and primitive: no certificate may claim them
        ("AGL(1,7)", 7, "(1,2,3,4,5,6,7)", "(2,4,3,7,5,6)", 42, True, True, False),  # x+1, 3x
        ("AGL(1,8)", 8, "(1,2)(3,4)(5,6)(7,8)", "(2,3,5,4,7,8,6)", 56, True, True, False),  # x+1, tx
        ("AGammaL(1,8)", 8, "(3,5,7)(4,6,8)", "(1,2,4,8,5,3,6)", 168, True, True, False),  # x^2, tx+1
        # insoluble and primitive, with no witness at degree 8
        ("PSL(2,7)", 8, "(1,2,3,4,5,6,7)", "(1,8)(2,7)(3,4)(5,6)", 168, False, True, False),  # x+1, -1/x
        # certified
        ("A7", 7, "(1,2,3)", "(1,2,3,4,5,6,7)", 2520, False, True, True),
        ("PGL(2,5)", 6, "(1,2,3,4,5)", "(1,6)(2,3)(4,5)", 120, False, True, True),  # x+1, 2/x
        ("A5 on pairs", 10, "(1,5,2)(3,6,8)(4,7,9)", "(1,5,8,10,4)(2,6,9,3,7)",
         60, False, True, True),
        # imprimitive: left to the chain; S4 wr C2 holds a transposition
        ("S2 wr S3", 6, "(3,5)(4,6)", "(1,3,2,4)", 48, True, False, False),
        ("A5 wr C2", 10, "(1,2,3)", "(1,7,2,8,3,9,4,10,5,6)", 7200, False, False, False),
        ("S4 wr C2", 8, "(1,2)", "(1,6,2,7,3,8,4,5)", 1152, True, False, False),
    ]

    @pytest.mark.parametrize(
        "name, k, x, y, order, soluble, primitive, certified", HAND_MADE,
        ids=[case[0] for case in HAND_MADE])
    def test_hand_made_groups(self, name, k, x, y, order, soluble, primitive, certified):
        x, y = P(x, k), P(y, k)
        G = FiniteGroup(k, [x, y])
        assert G.order == order
        assert G.is_soluble is soluble
        assert _is_primitive(k, (x.images, y.images)) is primitive
        assert primitive_by_blocks(k, (x.images, y.images)) is primitive
        assert _certified_insoluble(x.images, y.images) is certified
        assert classes._soluble_restriction(G, x.images, y.images) is soluble


def test_certificates_leave_few_chains(monkeypatch):
    # the soluble rows and identities of S6 built 168 restriction chains
    # when every new key got one; the certificates leave 45
    G = load("S6")
    built = []
    group = classes.FiniteGroup

    def counted(*args, **kwargs):
        built.append(args[0])
        return group(*args, **kwargs)

    monkeypatch.setattr(classes, "FiniteGroup", counted)
    assert prob_group(SOLUBLE, G).probability == Fraction(1, 5)
    assert verify_identities(G).passed
    assert len(built) < 50


@settings(deadline=None, max_examples=60)
@given(st.integers(0, 167), st.integers(0, 167))
def test_fast_pair_matches_reference_psl27(i, j):
    G = catalog_group("PSL27")
    x, y = G.element_at(i), G.element_at(j)
    for klass in (ABELIAN, NILPOTENT, SOLUBLE):
        assert pair_in_group(klass, G, x.images, y.images) == pair_by_predicate(
            klass, G, x, y
        )


def _young_pair(rng, n):
    """Two elements of one Young subgroup of Sym(n) with blocks of at most 4
    points, so <x, y> is soluble."""
    points = rng.sample(range(n), n)
    blocks = []
    while points:
        k = rng.randint(1, 4)
        blocks.append(points[:k])
        del points[:k]

    def draw():
        images = list(range(n))
        for b in blocks:
            for p, q in zip(b, rng.sample(b, len(b))):
                images[p] = q
        return tuple(images)

    return draw(), draw()


# D8, a Sylow 2-subgroup of Sym(4), as the symmetries of the square 0-1-2-3
_D8 = [tuple((s + i) % 4 for i in range(4)) for s in range(4)] + [
    tuple((s - i) % 4 for i in range(4)) for s in range(4)]


def _c3_wr_c3(rng):
    """A random element of C3 wr C3, a Sylow 3-subgroup of Sym(9), on
    0..8: each block {3j, 3j+1, 3j+2} turns, then the blocks turn."""
    shifts, turn = [rng.randrange(3) for _ in range(3)], rng.randrange(3)
    return tuple(3 * ((j + turn) % 3) + (r + shifts[j]) % 3
                 for j in range(3) for r in range(3))


def _sylow_pair(rng, n):
    """Two elements of one nilpotent subgroup of Sym(n): C3 wr C3 on 9
    points some of the time where n allows it, D8 on each further block of
    4 points, the rest fixed, both moved by one random relabelling."""
    parts = [(9, _c3_wr_c3)] if n >= 9 and rng.random() < 0.6 else []
    parts += [(4, lambda rng: rng.choice(_D8))] * ((n - 9 * len(parts)) // 4)

    def draw():
        images = list(range(n))
        offset = 0
        for size, element in parts:
            images[offset:offset + size] = [offset + v for v in element(rng)]
            offset += size
        return tuple(images)

    g = tuple(rng.sample(range(n), n))
    return conj(draw(), g), conj(draw(), g)


def _uniform_pair(rng, n):
    return tuple(rng.sample(range(n), n)), tuple(rng.sample(range(n), n))


def test_fast_pair_matches_reference_on_random_symmetric_pairs():
    """Pairs in Sym(n), 5 <= n <= 12: uniform ones, mostly insoluble, and
    intransitive ones from Young subgroups and from Sylow subgroups, most
    of which do not commute, so both fast tests go past their commute
    check."""
    rng = random.Random(25)
    groups = {n: FiniteGroup(n, [P("(1,2)", n), Permutation(tuple(range(1, n)) + (0,))])
              for n in range(5, 13)}
    outcomes = {C.name: set() for C in (ABELIAN, NILPOTENT, SOLUBLE)}
    past_commute = {"nilpotent": 0, "soluble": 0}
    for k in range(240):
        n = rng.randint(5, 12)
        xt, yt = (_uniform_pair, _young_pair, _sylow_pair)[k % 3](rng, n)
        x, y = Permutation(xt), Permutation(yt)
        commuting = mul(xt, yt) == mul(yt, xt)
        for C in (ABELIAN, NILPOTENT, SOLUBLE):
            fast = pair_in_group(C, groups[n], xt, yt)
            assert fast == pair_by_predicate(C, groups[n], x, y), (C.name, str(x), str(y))
            outcomes[C.name].add(fast)
            if fast and not commuting and C.name in past_commute:
                past_commute[C.name] += 1
    assert all(seen == {False, True} for seen in outcomes.values()), outcomes
    assert past_commute["soluble"] >= 20 and past_commute["nilpotent"] >= 10, past_commute


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
