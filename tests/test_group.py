import copy
import random

import pytest
from hypothesis import given, settings, strategies as st

from genprob import (
    CapExceeded,
    DegreeMismatch,
    ElementSet,
    FiniteGroup,
    NotInGroup,
    NotNormal,
    ParseError,
    Permutation,
    direct_product,
    parse_group_spec,
)
from genprob.catalog import load
from genprob.group import _conjugation_by, bfs_closure, format_group_spec
from genprob.perm import commute, conj, identity_tuple, inv, mul
from genprob.probability import soluble_radical

from conftest import catalog_group, catalog_names, conjugate_members, transporters

P = Permutation.parse


def S(n):
    return FiniteGroup(n, [P("(1,2)", n), Permutation(tuple(list(range(1, n)) + [0]))])


class TestOrderAndMembership:
    def test_alt5_order(self):
        G = FiniteGroup(5, [P("(1,2,3)", 5), P("(1,2,3,4,5)", 5)])
        assert G.order == 60

    @pytest.mark.parametrize("name", catalog_names(max_order=5040))
    def test_order_matches_brute_closure(self, name):
        G = catalog_group(name)
        assert G.order == len(G.element_tuples())

    def test_membership(self):
        A5 = catalog_group("A5")
        assert P("(1,2,3)", 5) in A5
        assert P("(1,2)", 5) not in A5
        assert A5.identity in A5

    def test_membership_agrees_with_enumeration(self):
        rng = random.Random(9)
        S5 = catalog_group("S5")
        elems = S5.elements()
        for _ in range(20):
            gens = [rng.choice(elems), rng.choice(elems)]
            H = S5.subgroup(gens)
            members = set(H.element_tuples())
            for e in rng.sample(elems, 30):
                assert H.contains(e) == (e.images in members)

    def test_bad_generators_rejected(self):
        with pytest.raises(ValueError, match="degree must be positive"):
            FiniteGroup(0, [])
        with pytest.raises(DegreeMismatch):
            FiniteGroup(4, [P("(1,2)", 4), P("(1,2)", 5)])

    def test_element_of_another_degree_rejected(self):
        with pytest.raises(DegreeMismatch):
            catalog_group("S4").contains(Permutation.identity(5))

    def test_subgroup_generator_outside_group_rejected(self):
        with pytest.raises(NotInGroup, match=r"\(1,2\) is not an element"):
            catalog_group("A4").subgroup([P("(1,2)", 4)])

    def test_cap(self):
        G = FiniteGroup(7, [P("(1,2)", 7), P("(1,2,3,4,5,6,7)", 7)], cap=100)
        assert G.order == 5040
        with pytest.raises(CapExceeded):
            G.elements()


class TestCanonicalEnumeration:
    def test_identity_first(self):
        for name in ("S4", "A5", "Q8"):
            G = catalog_group(name)
            assert G.element_at(0).is_identity()

    def test_enumeration_is_generator_order_dependent_but_stable(self):
        a, b = P("(1,2,3)", 5), P("(1,2,3,4,5)", 5)
        G1 = FiniteGroup(5, [a, b])
        G2 = FiniteGroup(5, [a, b])
        assert G1.element_tuples() == G2.element_tuples()

    @pytest.mark.parametrize("index", [-1, 24])
    def test_element_at_refuses_an_index_outside_the_enumeration(self, index):
        # -1 counted from the end and gave (1,2,4)
        with pytest.raises(IndexError, match=f"element index {index} is not in 0..23"):
            catalog_group("S4").element_at(index)

    def test_index_roundtrip(self):
        G = catalog_group("S4")
        for i in range(G.order):
            assert G.index_of(G.element_at(i)) == i

    def test_index_of_nonmember_raises(self):
        A5 = catalog_group("A5")
        with pytest.raises(NotInGroup):
            A5.index_of(P("(1,2)", 5))


class TestStructure:
    def test_center_of_q8(self):
        assert len(catalog_group("Q8").center()) == 2

    @pytest.mark.parametrize("names", [*catalog_names(max_order=720), "Q8 S3", "C4 D8"])
    def test_center_matches_commuting_generators(self, names):
        """The centre read off the conjugation tables equals the elements
        that commute with every generator by tuple products, on the catalog
        groups and on two direct products."""
        a, _, b = names.partition(" ")
        G = direct_product(load(a), load(b)) if b else catalog_group(a)
        expected = frozenset(i for i, t in enumerate(G.element_tuples())
                             if all(commute(t, g) for g in G._gen_tuples))
        assert G.center().members == expected

    def test_centralizer_sizes_partition(self):
        # |class of x| * |C_G(x)| = |G|
        for name in ("S4", "A5", "D12", "SL23"):
            G = catalog_group(name)
            for rep, size in G.conjugacy_classes():
                assert size * len(G.centralizer(rep)) == G.order

    def test_conjugacy_class_sizes_partition(self):
        for name in catalog_names(max_order=720):
            G = catalog_group(name)
            assert sum(s for _, s in G.conjugacy_classes()) == G.order

    def test_transporters(self):
        G = catalog_group("S4")
        reps, _, class_of = G._conjugacy_data()
        for i, t in enumerate(transporters(G)):
            rep = G.element_at(reps[class_of[i]])
            assert rep ** Permutation(t) == G.element_at(i)

    @pytest.mark.parametrize("name", ["S5", "PSL27", "S3xA5"])
    def test_conjugation_tables(self, name):
        G = catalog_group(name)
        elems = G.element_tuples()
        tables = G.conjugation_tables()
        assert len(tables) == len(G.generators)
        for s, t in zip(G._gen_tuples, tables):
            assert t == [G.index_of(conj(g, s)) for g in elems]

    @pytest.mark.parametrize("name", ["S5", "PSL27", "S3xA5"])
    def test_conjugacy_data_matches_product_classes(self, name):
        # oracle: each class {g^-1 x g} built by tuple products, taken in
        # index order, so its first element is its least index
        G = catalog_group(name)
        elems = G.element_tuples()
        reps, sizes, class_of = [], [], [None] * G.order
        for i, x in enumerate(elems):
            if class_of[i] is None:
                members = {G.index_of(conj(x, g)) for g in elems}
                for j in members:
                    class_of[j] = len(reps)
                reps.append(i)
                sizes.append(len(members))
        assert G._conjugacy_data() == (reps, sizes, class_of)

    def test_derived_series_s4(self):
        assert [H.order for H in catalog_group("S4").derived_series()] == [24, 12, 4, 1]

    def test_lower_central_series_d8(self):
        assert [H.order for H in catalog_group("D8").lower_central_series()] == [8, 2, 1]

    def test_upper_central_series_d8(self):
        sizes = [len(Z) for Z in catalog_group("D8").upper_central_series()]
        assert sizes == [1, 2, 8]

    def test_predicate_implications(self):
        for name in catalog_names():
            G = catalog_group(name)
            if G.is_abelian:
                assert G.is_nilpotent
            if G.is_nilpotent:
                assert G.is_soluble

    def test_normal_closure(self):
        S4 = catalog_group("S4")
        assert S4.normal_closure([P("(1,2)(3,4)", 4)]).order == 4
        assert S4.normal_closure([P("(1,2)", 4)]).order == 24
        assert S4.normal_closure([P("(1,2,3)", 4)]).order == 12

    def test_normal_closure_has_the_constructor_fields(self):
        G = FiniteGroup(4, [P("(1,2,3,4)", 4), P("(1,2)", 4)])
        N = G.normal_closure([P("(1,2,3)", 4)])
        assert set(vars(N)) == set(vars(FiniteGroup(4, [P("(1,2,3)", 4)])))


@pytest.mark.parametrize("name", ["S5", "PSL27", "S3xA5"])
class TestRegularTables:
    """Every index map built by gathers equals the tuple products it stands
    for, element by element."""

    def test_words_multiply_out(self, name):
        G = catalog_group(name)
        for x, word in enumerate(G._regular_tables()[2]):
            t = identity_tuple(G.degree)
            for k in word:
                t = mul(t, G._gen_tuples[k])
            assert t == G.element_tuples()[x]

    def test_words_are_shortest(self, name):
        G = catalog_group(name)
        # breadth-first distances from the identity, by products alone
        distance = {identity_tuple(G.degree): 0}
        frontier = list(distance)
        while frontier:
            new = []
            for e in frontier:
                for s in G._gen_tuples:
                    f = mul(e, s)
                    if f not in distance:
                        distance[f] = distance[e] + 1
                        new.append(f)
            frontier = new
        words = G._regular_tables()[2]
        assert [len(w) for w in words] == [distance[t] for t in G.element_tuples()]

    def test_inverse_table(self, name):
        G = catalog_group(name)
        assert G.inverse_table() == [G.index_of(inv(g)) for g in G.element_tuples()]

    def test_right_and_left_tables(self, name):
        G = catalog_group(name)
        elems = G.element_tuples()
        for x, xt in enumerate(elems):
            assert G.right_table(x) == [G.index_of(mul(g, xt)) for g in elems]
            assert G.left_table(x) == [G.index_of(mul(xt, g)) for g in elems]

    def test_conjugation_table(self, name):
        G = catalog_group(name)
        elems = G.element_tuples()
        for c, ct in enumerate(elems):
            table = _conjugation_by(G.inverse_table(), G.right_table(c))
            assert table == [G.index_of(conj(g, ct)) for g in elems]


class TestQuotients:
    def test_s4_mod_klein(self):
        S4 = catalog_group("S4")
        V = S4.subgroup([P("(1,2)(3,4)", 4), P("(1,3)(2,4)", 4)])
        Q, project = S4.quotient(V)
        assert Q.order == 6
        assert not Q.is_abelian

    def test_projection_is_homomorphism(self):
        rng = random.Random(3)
        S4 = catalog_group("S4")
        V = S4.subgroup([P("(1,2)(3,4)", 4), P("(1,3)(2,4)", 4)])
        Q, project = S4.quotient(V)
        elems = S4.elements()
        for _ in range(40):
            a, b = rng.choice(elems), rng.choice(elems)
            assert project(a * b) == project(a) * project(b)

    def test_kernel_is_the_subgroup(self):
        S4 = catalog_group("S4")
        N = S4.normal_closure([P("(1,2,3)", 4)])
        Q, project = S4.quotient(N)
        kernel = [e for e in S4.elements() if project(e).is_identity()]
        assert len(kernel) == N.order
        assert all(N.contains(e) for e in kernel)

    def test_non_normal_rejected(self):
        S4 = catalog_group("S4")
        H = S4.subgroup([P("(1,2)", 4)])
        with pytest.raises(NotNormal):
            S4.quotient(H)

    def test_subgroup_outside_group_rejected(self):
        H = catalog_group("S4").subgroup([P("(1,2)", 4)])
        with pytest.raises(NotInGroup):
            catalog_group("A4").quotient(H)

    def test_subgroup_of_another_degree_rejected(self):
        # A5's 5-point generators are never sifted through S4's chain
        S4, A5 = catalog_group("S4"), catalog_group("A5")
        with pytest.raises(DegreeMismatch):
            S4.quotient(A5)
        with pytest.raises(NotInGroup):
            S4.coset_partition(A5)
        with pytest.raises(NotInGroup, match="subgroup is not contained in the group"):
            catalog_group("A4").quotient(FiniteGroup(4, [P("(1,2)", 4)]))

    def test_index_above_cap_rejected(self):
        G = load("S4", cap=10)
        with pytest.raises(CapExceeded):
            G.quotient(G.subgroup([]))

    @pytest.mark.parametrize("name, normal", [
        ("S4", lambda G: G.subgroup([P("(1,2)(3,4)", 4), P("(1,3)(2,4)", 4)])),
        ("D12", lambda G: G.subgroup([P("(1,3,5)(2,4,6)", 6)])),
        ("C3xA5", lambda G: G.subgroup(soluble_radical(G).perms())),
        # chains of more than one level
        ("S4", lambda G: G.subgroup([P("(1,2,3)", 4), P("(1,2)(3,4)", 4)])),
        ("S5", lambda G: G.subgroup([P("(1,2,3)", 5), P("(1,2,3,4,5)", 5)])),
        # not normal: the right cosets still part the group
        ("S4", lambda G: G.subgroup([P("(1,2)", 4)])),
    ], ids=["S4-V4", "D12-r2", "C3xA5-radical", "S4-A4", "S5-A5", "S4-(12)"])
    def test_coset_key_matches_membership(self, name, normal):
        # the key of an element is the number of its part in coset_partition,
        # which quotient numbers its cosets from; oracle: s and t lie in the
        # same right coset of N iff s t^-1 is in N
        G = catalog_group(name)
        N = normal(G)
        elems = G.element_tuples()
        parts = G.coset_partition(N)
        assert len(parts) == G.order // N.order > 1
        assert [min(p.members) for p in parts] == sorted(min(p.members) for p in parts)
        assert sum(len(p) for p in parts) == G.order
        keys = [None] * G.order
        for k, part in enumerate(parts):
            for i in part.members:
                keys[i] = k
        assert None not in keys
        for s, ks in zip(elems, keys):
            for t, kt in zip(elems, keys):
                assert (ks == kt) == N.chain.contains(mul(s, inv(t)))


def chain_group(name):
    if name == "D486":
        # a degree-243 level of the dihedral tower, order 486
        from genprob.tower import dihedral_tower

        return dihedral_tower(3, 5).levels[-1]
    return catalog_group(name)


@pytest.mark.parametrize("name", ["S5", "PSL27", "S3xA5", "D486"])
class TestStabilizerChain:
    """The chain stores each transversal inverted: ``orbit[x]`` maps x to
    the level's base point."""

    def test_sift_and_contains_invert_nothing(self, name, monkeypatch):
        import genprob.group

        G = chain_group(name)
        chain = G.chain
        inverses = []
        invert = genprob.group.inv

        def counted(p):
            inverses.append(p)
            return invert(p)

        monkeypatch.setattr(genprob.group, "inv", counted)
        rng = random.Random(0)
        ident = identity_tuple(G.degree)
        for _ in range(50):
            p = tuple(rng.sample(range(G.degree), G.degree))
            chain.sift(p)
            chain.contains(p)
        for t in G.element_tuples()[:50]:
            assert chain.sift(t) == (ident, len(chain.levels))
            assert chain.contains(t)
        assert inverses == []

    def test_stored_transversals_map_to_the_base_point(self, name):
        for lv in chain_group(name).chain.levels:
            assert all(u_inv[x] == lv.point for x, u_inv in lv.orbit.items())

    def test_order_and_membership_match_closure(self, name):
        G = chain_group(name)
        closure = bfs_closure(G._gen_tuples, G.degree, 10**6)
        assert G.chain.order() == G.order == len(closure)
        assert all(G.chain.contains(t) for t in closure)
        members = set(closure)
        rng = random.Random(1)
        for _ in range(200):
            p = tuple(rng.sample(range(G.degree), G.degree))
            assert G.chain.contains(p) == (p in members)


def least_base_image_key(N, t):
    """The element of the right coset N·t with the least base images, by
    search over N's elements."""
    base = [lv.point for lv in N.chain.levels]
    return min((mul(n, t) for n in N.element_tuples()),
               key=lambda e: [e[b] for b in base])


def test_quotient_of_c3xa5_matches_least_base_image_cosets():
    # cosets found in generator order, each named by its element with the
    # least base images, a key independent of coset_partition
    G = catalog_group("C3xA5")
    R = soluble_radical(G).as_subgroup(name="R")
    Q, project = G.quotient(R)
    reps = [identity_tuple(G.degree)]
    coset_of = {least_base_image_key(R, reps[0]): 0}
    for rep in reps:
        for g in G._gen_tuples:
            t = mul(rep, g)
            k = least_base_image_key(R, t)
            if k not in coset_of:
                coset_of[k] = len(reps)
                reps.append(t)
    assert Q.order == len(reps) == 60
    for t in G.element_tuples():
        assert project(Permutation(t)).images == tuple(
            coset_of[least_base_image_key(R, mul(rep, t))] for rep in reps)


class TestElementSet:
    def test_coset_partition(self):
        S4 = catalog_group("S4")
        A4 = S4.subgroup([P("(1,2,3)", 4), P("(1,2)(3,4)", 4)])
        parts = S4.coset_partition(A4)
        assert [len(p) for p in parts] == [12, 12]
        assert frozenset().union(*(p.members for p in parts)) == frozenset(range(24))

    def test_conjugate(self):
        # the tests' row-transport oracle
        S4 = catalog_group("S4")
        X = frozenset({S4.index_of(P("(1,2)", 4))})
        Y = ElementSet(S4, conjugate_members(S4, X, P("(1,3)", 4).images))
        assert Y.perms() == [P("(2,3)", 4)]

    def test_as_subgroup(self):
        S4 = catalog_group("S4")
        Z = S4.center().as_subgroup()
        assert Z.order == 1

    def test_equality_and_hash_ignore_the_group(self):
        S4, twin = catalog_group("S4"), load("S4")
        assert S4 is not twin
        a = ElementSet(S4, frozenset({0, 1}))
        b = ElementSet(group=twin, members=frozenset({0, 1}))
        assert a == b and hash(a) == hash(b)
        assert len({a, b}) == 1
        assert a != ElementSet(S4, frozenset({0}))
        assert a != frozenset({0, 1})
        assert ElementSet(S4) == ElementSet(S4, frozenset())

    def test_membership_answers_as_the_group_does(self):
        # an element outside the group raised NotInGroup, and one of
        # another degree NotInGroup in place of DegreeMismatch
        A5 = catalog_group("A5")
        transposition = P("(1,2)", 5)
        assert transposition not in A5
        assert transposition not in A5.center()
        assert A5.identity in A5.center()
        assert P("(1,2,3)", 5) not in A5.center()
        for S in (A5, A5.center()):
            with pytest.raises(DegreeMismatch):
                P("(1,2,3)", 6) in S

    def test_members_are_checked_and_frozen(self):
        S4 = catalog_group("S4")
        with pytest.raises(ValueError):
            ElementSet(S4, frozenset({24}))
        X = ElementSet(S4, frozenset({3}))
        with pytest.raises(AttributeError):
            X.members = frozenset()
        with pytest.raises(AttributeError):
            X.label = "x"
        assert X.members == {3}
        assert copy.copy(X) == X and copy.copy(X).group is S4


class TestConstructors:
    def test_direct_product(self):
        G = direct_product(catalog_group("S3"), catalog_group("C2"))
        assert G.degree == 5
        assert G.order == 12
        assert not G.is_abelian

    def test_parse_format_roundtrip(self):
        for name in ("S4", "Q8", "PSL27"):
            G = catalog_group(name)
            H = parse_group_spec(format_group_spec(G))
            assert H.order == G.order
            assert H.generators == G.generators

    def test_parse_errors_carry_line_numbers(self):
        with pytest.raises(ParseError, match="line 3"):
            parse_group_spec("degree 4\n(1,2)\n(1,9)\n")
        with pytest.raises(ParseError, match="degree"):
            parse_group_spec("(1,2)\n")

    def test_comments_and_blanks(self):
        G = parse_group_spec("# a comment\n\ndegree 3\n(1,2)\n# mid\n(1,2,3)\n")
        assert G.order == 6


@settings(deadline=None, max_examples=30)
@given(st.integers(0, 719), st.integers(0, 719))
def test_chain_membership_is_consistent_on_s6(i, j):
    G = catalog_group("S6")
    x, y = G.element_at(i), G.element_at(j)
    H = G.subgroup([x, y])
    assert H.contains(x) and H.contains(y)
    assert H.order == len(H.element_tuples())
