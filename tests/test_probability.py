import functools
import random
from fractions import Fraction

import pytest

from genprob import CapExceeded, ElementSet, EmptySet, FiniteGroup, Permutation, direct_product
from genprob.catalog import load
from genprob.classes import (
    ABELIAN,
    NILPOTENT,
    SOLUBLE,
    GroupClass,
    pair_by_predicate,
    pair_key,
)
from genprob.errors import NotInGroup
import genprob.checks
import genprob.classes
import genprob.graphs
import genprob.probability
from genprob.checks import (
    averaging_identity_check,
    hall_bound_check,
    partition_identity_check,
    quotient_monotonicity_check,
)
from genprob.probability import (
    IdentityReport,
    ProbabilityReport,
    center,
    hypercenter,
    omega,
    omega_global,
    prob_elem,
    prob_group,
    prob_sets,
    soluble_radical,
    verify_identities,
)

from conftest import brute_omega_global, catalog_group, run_python

P = Permutation.parse


class TestOmega:
    def test_s3_nilpotent_transposition(self):
        S3 = catalog_group("S3")
        assert len(omega(NILPOTENT, S3, P("(1,2)", 3))) == 2

    def test_abelian_omega_is_centralizer(self):
        for name in ("S4", "D12", "Q8", "SL23"):
            G = catalog_group(name)
            for x in G.elements():
                assert omega(ABELIAN, G, x).members == G.centralizer(x).members

    def test_whole_group_shortcut(self):
        C12 = catalog_group("C12")
        assert len(omega(SOLUBLE, C12, C12.element_at(5))) == 12

    def test_rows_are_computed_once(self, pair_row_calls):
        G = load("A5")
        x = G.element_at(7)
        row = omega(SOLUBLE, G, x)
        assert omega(SOLUBLE, G, Permutation(x.images)) is row
        assert omega(NILPOTENT, G, x) is not row
        assert pair_row_calls == [x.images, x.images]
        with pytest.raises(NotInGroup):
            omega(SOLUBLE, G, P("(1,2)", 5))

    def test_prob_elem_identity_element(self):
        # the identity pairs into the class with exactly the class-members'
        # cyclic groups: <1, g> = <g>, always abelian
        G = catalog_group("S4")
        assert prob_elem(ABELIAN, G, G.identity).probability == 1


class TestProbGroup:
    def test_s3_nilpotent_is_half(self):
        assert prob_group(NILPOTENT, catalog_group("S3")).probability == Fraction(1, 2)

    @pytest.mark.parametrize("name", ["S3", "S4", "A4", "A5", "D12", "SL23", "PSL27"])
    @pytest.mark.parametrize("klass", [ABELIAN, NILPOTENT, SOLUBLE], ids=lambda c: c.name)
    def test_class_reduction_matches_exhaustive(self, name, klass):
        G = catalog_group(name)
        a = prob_group(klass, G, method="exhaustive")
        b = prob_group(klass, G, method="class-reduced")
        assert a.probability == b.probability

    def test_method_auto_switch(self):
        assert prob_group(SOLUBLE, catalog_group("S4")).method == "exhaustive"
        assert prob_group(SOLUBLE, catalog_group("S6")).method == "class-reduced"

    def test_unknown_method(self):
        # the method is checked before the cap or any element listing
        A5 = catalog_group("A5")
        for G in (FiniteGroup(5, A5.generators, cap=10), load("S4")):
            with pytest.raises(ValueError):
                prob_group(SOLUBLE, G, method="guess")
            assert not G.is_materialized


class TestProbSets:
    def test_empty_rejected(self):
        G = catalog_group("S3")
        full = ElementSet(G, frozenset(range(6)))
        with pytest.raises(EmptySet):
            prob_sets(SOLUBLE, G, ElementSet(G, frozenset()), full)

    def test_whole_times_whole_matches_prob_group(self):
        G = catalog_group("S4")
        full = ElementSet(G, frozenset(range(G.order)))
        assert prob_sets(NILPOTENT, G, full, full).probability == prob_group(
            NILPOTENT, G
        ).probability

    @pytest.mark.parametrize("klass", [ABELIAN, NILPOTENT, SOLUBLE], ids=lambda c: c.name)
    def test_whole_times_whole_matches_class_reduced(self, klass):
        # the class-reduced route counts from Omega rows, not pair by pair
        G = catalog_group("S4")
        full = ElementSet(G, frozenset(range(G.order)))
        assert prob_sets(klass, G, full, full).favorable == prob_group(
            klass, G, method="class-reduced"
        ).favorable


def set_pairs(G, seed):
    """Equal, overlapping, nested and disjoint pairs of random sets."""
    rng = random.Random(seed)
    idx = list(range(G.order))
    rng.shuffle(idx)
    a, b, c = len(idx) // 4, len(idx) // 2, 3 * len(idx) // 4
    X = ElementSet(G, frozenset(idx[:b]))
    return {
        "equal": (X, X),
        "overlapping": (X, ElementSet(G, frozenset(idx[a:c]))),
        "nested": (ElementSet(G, frozenset(idx[a:b])), X),
        "disjoint": (X, ElementSet(G, frozenset(idx[b:c]))),
    }


class TestUnorderedPairs:
    @pytest.mark.parametrize("name", ["S4", "A5"])
    @pytest.mark.parametrize("klass", [ABELIAN, NILPOTENT, SOLUBLE], ids=lambda c: c.name)
    def test_matches_ordered_predicate_loop(self, name, klass):
        G = load(name)
        elems = G.elements()

        # the predicate route, once per ordered pair of indices
        @functools.cache
        def verdict(i, j):
            return pair_by_predicate(klass, G, elems[i], elems[j])

        for seed in range(2):
            for kind, (X, Y) in set_pairs(G, seed).items():
                for A, B in ((X, Y), (Y, X)):
                    report = prob_sets(klass, G, A, B)
                    assert report.total == len(A) * len(B)
                    assert report.favorable == sum(
                        verdict(i, j) for i in A.members for j in B.members), (kind, seed)

    @pytest.mark.parametrize("klass", [ABELIAN, NILPOTENT, SOLUBLE], ids=lambda c: c.name)
    def test_exhaustive_a5_tests_each_unordered_pair_once(self, klass, monkeypatch):
        import genprob.probability as probability

        calls = []
        decide_pair = probability.decide_pair

        def counted(C, G, xt, yt):
            calls.append(pair_key(xt, yt))
            return decide_pair(C, G, xt, yt)

        monkeypatch.setattr(probability, "decide_pair", counted)
        prob_group(klass, load("A5"), method="exhaustive")
        assert len(calls) == len(set(calls)) == 60 * 61 // 2

    def test_sets_of_another_group_are_refused(self):
        S3, S4 = catalog_group("S3"), catalog_group("S4")
        full = ElementSet(S3, frozenset(range(S3.order)))
        with pytest.raises(NotInGroup):
            prob_sets(NILPOTENT, S4, full, ElementSet(S4, frozenset({0})))
        with pytest.raises(NotInGroup):
            prob_sets(NILPOTENT, S4, ElementSet(S4, frozenset({0})), full)
        # the same degree and generators give the same enumeration
        twin = load("S4")
        assert twin is not S4
        everything = ElementSet(twin, frozenset(range(24)))
        assert prob_sets(NILPOTENT, S4, everything, everything) == prob_group(
            NILPOTENT, S4, method="exhaustive")


@pytest.mark.parametrize("name", ["A5", "S4"])
@pytest.mark.parametrize("klass", [ABELIAN, NILPOTENT, SOLUBLE], ids=lambda c: c.name)
def test_exhaustive_oracles_ignore_the_pair_cache(name, klass):
    """The oracles decide each pair afresh: verdicts the class-representative
    rows left in the pair cache, each flipped, change neither result, and
    neither oracle stores a verdict of its own."""
    fresh = load(name)
    expected = (prob_group(klass, fresh, method="exhaustive"),
                brute_omega_global(klass, fresh))
    G = load(name)
    for rep, _ in G.conjugacy_classes():
        omega(klass, G, rep)
    for cache in G.pair_cache.values():
        for key, verdict in cache.items():
            cache[key] = not verdict
    flipped = {C: dict(cache) for C, cache in G.pair_cache.items()}
    assert prob_group(klass, G, method="exhaustive") == expected[0]
    assert brute_omega_global(klass, G) == expected[1]
    assert G.pair_cache == flipped


def test_rows_of_unequal_classes_of_one_name_stay_apart():
    # GroupClass equality is (name, predicate): a class named "soluble" with
    # the nilpotent predicate and test read SOLUBLE's full row of S4
    fake = GroupClass("soluble", NILPOTENT.predicate, NILPOTENT.fast_pair)
    G = load("S4")
    x = G.element_at(5)
    assert len(omega(SOLUBLE, G, x)) == 24
    assert omega(fake, G, x).members == omega(fake, load("S4"), x).members
    assert len(omega(fake, G, x)) == 16


class TestGlobalOmega:
    def test_reduced_matches_brute(self):
        for name in ("S4", "A5", "D12", "SL23", "PSL27"):
            G = catalog_group(name)
            for klass in (ABELIAN, NILPOTENT, SOLUBLE):
                assert omega_global(klass, G).members == brute_omega_global(klass, G)

    # closed under subgroups, quotients and direct products, without C3
    TWO_GROUPS = GroupClass("2-group", lambda G: G.order & (G.order - 1) == 0)

    @pytest.mark.parametrize("name", ["S3", "D12", "S4", "Klein"])
    def test_identity_is_not_assumed_in_the_core(self, name):
        # on S3, <1, (1,2,3)> is C3, so the core is empty
        G = catalog_group(name)
        assert (
            omega_global(self.TWO_GROUPS, G).members
            == brute_omega_global(self.TWO_GROUPS, G)
        )

    @pytest.mark.parametrize("gens, oracle", [
        ("(1,2) (1,2,3,4)", lambda G: omega_global(SOLUBLE, G)),
        ("(1,2) (1,2,3,4)", soluble_radical),
        ("(1,2,3,4)", lambda G: omega_global(ABELIAN, G)),
        ("(1,2,3,4)", hypercenter),
    ])
    def test_cap_is_strict_inside_the_class(self, gens, oracle):
        # S4 is soluble and C4 abelian, so each of these sets would be the
        # whole group; the cap refuses it as it refuses any other
        G = FiniteGroup(4, [P(g, 4) for g in gens.split()], cap=3)
        with pytest.raises(CapExceeded):
            oracle(G)
        assert not G.is_materialized

    def test_simple_groups_have_trivial_soluble_core(self):
        for name in ("A5", "PSL27", "A6"):
            assert len(omega_global(SOLUBLE, catalog_group(name))) == 1

    def test_structural_oracles(self):
        for name in ("S4", "A5", "SL23", "C3xA5", "D18"):
            G = catalog_group(name)
            assert verify_identities(G).passed

    def test_radical_of_c3xa5(self):
        G = catalog_group("C3xA5")
        assert len(soluble_radical(G)) == 3
        assert len(hypercenter(G)) == 3
        assert len(center(G)) == 3

    def test_radical_index_identity(self):
        for name in ("A5", "S5", "C3xA5", "S4"):
            G = catalog_group(name)
            core = omega_global(SOLUBLE, G)
            assert len(core) * (G.order // len(soluble_radical(G))) == G.order


# K(G) per class: the soluble radical, the hypercentre and the centre
KERNELS = {"soluble": soluble_radical, "nilpotent": hypercenter, "abelian": center}
PRODUCTS = {"D8xS4": ("D8", "S4"), "SL23xS3": ("SL23", "S3"),
            "C4xA5": ("C4", "A5"), "D8xA5": ("D8", "A5")}
RADICAL_GROUPS = ["C3xA5", "S3xA5", "Q8xS3", "S3xC2", "SL23", "D12", *PRODUCTS]
# the groups whose K(G) is proper and nontrivial, per class
PROPER_KERNELS = {
    "soluble": ["C3xA5", "S3xA5", "C4xA5", "D8xA5"],
    "nilpotent": [n for n in RADICAL_GROUPS if n != "S3xA5"],
    "abelian": [n for n in RADICAL_GROUPS if n != "S3xA5"],
}
KERNEL_CASES = [(n, klass) for klass in (SOLUBLE, NILPOTENT, ABELIAN)
                for n in PROPER_KERNELS[klass.name]]


@functools.lru_cache(maxsize=None)
def radical_group(name):
    if name in PRODUCTS:
        a, b = PRODUCTS[name]
        return direct_product(catalog_group(a), catalog_group(b), name=name)
    return catalog_group(name)


class TestRadicalQuotient:
    """Omega_S(x) is a union of R(G)-cosets and Omega_N(x) one of
    Z_inf(G)-cosets, so P_C(x, G) = P_C(xK, G/K) for those K; the abelian
    class has no such equality for K = Z(G), but its rows are unions of
    Z(G)-cosets all the same."""

    @pytest.mark.parametrize("name", RADICAL_GROUPS)
    def test_kernels_are_proper_exactly_where_listed(self, name):
        G = radical_group(name)
        for class_name, kernel in KERNELS.items():
            proper = 1 < len(kernel(G)) < G.order
            assert proper == (name in PROPER_KERNELS[class_name]), class_name

    @pytest.mark.parametrize("name, klass", KERNEL_CASES, ids=lambda c: getattr(c, "name", c))
    def test_rows_are_unions_of_kernel_cosets(self, name, klass):
        G = radical_group(name)
        cosets = G.coset_partition(KERNELS[klass.name](G).as_subgroup())
        for rep, _ in G.conjugacy_classes():
            row = omega(klass, G, rep).members
            assert all(c.members <= row or not c.members & row for c in cosets), str(rep)

    @pytest.mark.parametrize("name, klass", [c for c in KERNEL_CASES if c[1] != ABELIAN],
                             ids=lambda c: getattr(c, "name", c))
    def test_quotient_by_the_kernel_is_exact(self, name, klass):
        G = radical_group(name)
        quotient, project = G.quotient(KERNELS[klass.name](G).as_subgroup(name="K"))
        for rep, _ in G.conjugacy_classes():
            assert (prob_elem(klass, G, rep).probability
                    == prob_elem(klass, quotient, project(rep)).probability), str(rep)


class TestLaws:
    def test_averaging(self):
        G = catalog_group("S4")
        X = ElementSet(G, frozenset(range(G.order)))
        for klass in (ABELIAN, NILPOTENT, SOLUBLE):
            assert averaging_identity_check(klass, G, X).holds

    def test_averaging_on_subset(self):
        G = catalog_group("A5")
        rng = random.Random(2)
        X = ElementSet(G, frozenset(rng.sample(range(60), 10)))
        assert averaging_identity_check(SOLUBLE, G, X).holds

    def test_averaging_over_empty_set_rejected(self):
        G = catalog_group("S3")
        with pytest.raises(EmptySet):
            averaging_identity_check(SOLUBLE, G, ElementSet(G, frozenset()))

    @pytest.mark.parametrize("index", [20, 3])
    def test_averaging_refuses_a_set_of_another_group(self, index):
        # an index into S4 names no element of A4: the set is refused before
        # any row of A4 is computed, also where A4 has an element of that index
        A4 = load("A4")
        X = ElementSet(catalog_group("S4"), frozenset({index}))
        with pytest.raises(NotInGroup):
            averaging_identity_check(SOLUBLE, A4, X)
        assert not A4.row_cache

    def test_quotient_monotonicity(self):
        S4 = catalog_group("S4")
        V = S4.subgroup([P("(1,2)(3,4)", 4), P("(1,3)(2,4)", 4)])
        for klass in (ABELIAN, NILPOTENT, SOLUBLE):
            for x in (P("(1,2)", 4), P("(1,2,3)", 4), P("(1,2,3,4)", 4)):
                assert quotient_monotonicity_check(klass, S4, V, x).holds

    def test_partition_identity_cosets(self):
        S3 = catalog_group("S3")
        A3 = S3.subgroup([P("(1,2,3)", 3)])
        parts = S3.coset_partition(A3)
        for klass in (ABELIAN, NILPOTENT, SOLUBLE):
            assert partition_identity_check(klass, S3, parts, parts).holds

    def test_partition_identity_random_split(self):
        G = catalog_group("A4")
        rng = random.Random(5)
        indices = list(range(12))
        rng.shuffle(indices)
        parts = [ElementSet(G, frozenset(indices[i::3])) for i in range(3)]
        assert partition_identity_check(SOLUBLE, G, parts, parts).holds

    def test_overlapping_parts_rejected(self):
        G = catalog_group("S3")
        parts = [ElementSet(G, frozenset({0, 1})), ElementSet(G, frozenset({1, 2}))]
        with pytest.raises(ValueError, match="parts must be disjoint"):
            partition_identity_check(SOLUBLE, G, parts, parts)

    def test_parts_of_unequal_size_rejected(self):
        # the identity needs parts of equal size: for {0} and {1..5} the
        # whole reads 1/2 against a parts average of 7/10
        G = catalog_group("S3")
        X_parts = [ElementSet(G, frozenset({0})), ElementSet(G, frozenset(range(1, 6)))]
        Y_parts = [ElementSet(G, frozenset(range(6)))]
        with pytest.raises(ValueError, match="parts must be of equal size"):
            partition_identity_check(NILPOTENT, G, X_parts, Y_parts)

    @pytest.mark.parametrize("first", [0, 12])
    def test_partition_refuses_parts_of_another_group(self, first):
        # S4 parts are refused before A4 is listed, also where their
        # indices lie past A4's order
        A4 = load("A4")
        S4 = catalog_group("S4")
        X_parts = [ElementSet(S4, frozenset(range(first, first + 6)))]
        Y_parts = [ElementSet(S4, frozenset(range(first + 6, first + 12)))]
        with pytest.raises(NotInGroup):
            partition_identity_check(NILPOTENT, A4, X_parts, Y_parts)
        assert not A4.is_materialized


class TestHallBound:
    def instances(self):
        A4 = catalog_group("A4")
        V = A4.subgroup([P("(1,2)(3,4)", 4), P("(1,3)(2,4)", 4)])
        S3 = catalog_group("S3")
        C3 = S3.subgroup([P("(1,2,3)", 3)])
        D12 = catalog_group("D12")
        rot = D12.generators[0]
        Q3 = D12.subgroup([rot * rot])
        C6 = catalog_group("C6")
        QS = catalog_group("Q8xS3")  # Q8 x S3 on 8 + 3 points
        Q8C3 = QS.subgroup(
            [QS.generators[0], QS.generators[1], QS.generators[3] * QS.generators[3]]
        )  # Q8 x <(1,2,3)>, normal nilpotent of order 24
        flip = QS.generators[2] * QS.generators[3]  # the S3 transposition part
        return [
            (A4, V, P("(1,2,3)", 4), P("(1,2,3)", 4)),
            (A4, V, P("(1,2,3)", 4), P("(1,3,2)", 4)),
            (A4, V, P("(1,2,3)", 4), A4.identity),
            (S3, C3, P("(1,2)", 3), P("(1,2)", 3)),
            (S3, C3, P("(1,2)", 3), S3.identity),
            (D12, Q3, rot ** 3, D12.generators[1]),
            (QS, Q8C3, flip, flip),
            (C6, C6, C6.identity, C6.identity),
        ]

    def test_bound_holds_on_all_instances(self):
        results = [hall_bound_check(*inst) for inst in self.instances()]
        assert len(results) >= 6
        for r in results:
            assert r.holds, r.details

    def test_klein_instance_value(self):
        A4 = catalog_group("A4")
        V = A4.subgroup([P("(1,2)(3,4)", 4), P("(1,3)(2,4)", 4)])
        r = hall_bound_check(A4, V, P("(1,2,3)", 4), P("(1,2,3)", 4))
        assert r.details["bound"] == Fraction(1, 4)
        assert r.details["probability"] == Fraction(1, 4)

    def test_precondition_failures_reported(self):
        S3 = catalog_group("S3")
        triv = S3.subgroup([])
        r = hall_bound_check(S3, triv, P("(1,2)", 3), P("(1,2)", 3))
        assert not r.holds
        assert "G != NQ" in r.details["failures"]
        A5 = catalog_group("A5")
        r = hall_bound_check(A5, A5.subgroup([]), P("(1,2,3)", 5), P("(1,2,3,4,5)", 5))
        assert not r.holds

    def test_non_normal_q_reported(self):
        S3 = catalog_group("S3")
        Q = S3.subgroup([P("(1,2)", 3)])
        r = hall_bound_check(S3, Q, P("(1,2,3)", 3), P("(1,2,3)", 3))
        assert not r.holds
        assert "Q not normal in G" in r.details["failures"]

    def test_q_outside_g_reported(self):
        # G = NQ is asked only of a Q inside G, so this reports, not raises
        A4 = catalog_group("A4")
        Q = catalog_group("S4").subgroup([P("(1,2)", 4)])
        r = hall_bound_check(A4, Q, P("(1,2,3)", 4), P("(1,2,3)", 4))
        assert not r.holds
        assert "Q not contained in G" in r.details["failures"]

    def test_u_or_v_outside_g_reported(self):
        # <u, v> is formed only of elements of G, so this reports, not raises
        A4 = catalog_group("A4")
        V = A4.subgroup([P("(1,2)(3,4)", 4), P("(1,3)(2,4)", 4)])
        for u, v in ((P("(1,2)", 4), P("(1,2)", 4)), (P("(1,2,3)", 4), P("(1,2)", 4))):
            r = hall_bound_check(A4, V, u, v)
            assert not r.holds
            assert r.details["failures"] == ["u or v not in G"]

    def test_q_not_nilpotent_reported_alone(self):
        S4, A4 = catalog_group("S4"), catalog_group("A4")
        r = hall_bound_check(S4, A4, P("(1,2)", 4), P("(1,2)", 4))
        assert r.details["failures"] == ["Q not nilpotent"]


class TestReports:
    def test_probability_report_is_a_value(self):
        a = ProbabilityReport("S4", "soluble", 3, 6, "exhaustive")
        b = ProbabilityReport(group="S4", class_name="soluble", favorable=3, total=6,
                              method="exhaustive")
        assert a == b and hash(a) == hash(b)
        assert a != ProbabilityReport("S4", "soluble", 4, 6, "exhaustive")
        assert a.probability == Fraction(1, 2)
        with pytest.raises(AttributeError):
            a.favorable = 4

    def test_reports_of_one_run_are_equal(self):
        G = catalog_group("S4")
        assert prob_elem(SOLUBLE, G, P("(1,2)", 4)) == prob_elem(SOLUBLE, G, P("(1,2)", 4))
        assert verify_identities(G) == verify_identities(G)

    def test_identity_report_construction(self):
        positional = IdentityReport("S4", {"center": True})
        keyword = IdentityReport(group="S4", results={"center": True})
        assert positional == keyword and positional.passed
        assert positional != IdentityReport("S4", {"center": False})
        assert not IdentityReport("S4", {"center": False}).passed
        empty = IdentityReport("S4")
        assert empty.results == {} and empty.passed
        # each report gets a dict of its own
        empty.results["center"] = False
        assert IdentityReport("S4").results == {}


class TestCheckModule:
    # the check-only code lives in genprob.checks alone: classes,
    # probability and graphs neither define nor serve its names
    CHECK_NAMES = [
        "closure_audit", "ClosureAuditReport", "CheckReport", "quotient_monotonicity_check",
        "averaging_identity_check", "partition_identity_check", "hall_bound_check",
        "CompatibilityReport", "quotient_graph_compatibility",
    ]
    CLASSES_ALL = [
        "GroupClass", "ABELIAN", "NILPOTENT", "SOLUBLE", "BUILTIN_CLASSES",
        "class_by_name", "test_pair", "pair_row",
    ]
    PROBABILITY_ALL = [
        "ProbabilityReport", "omega", "prob_elem", "prob_sets", "prob_group",
        "omega_global", "soluble_radical", "hypercenter", "center", "verify_identities",
        "IdentityReport", "CLASS_REDUCTION_THRESHOLD",
    ]

    def test_names_are_the_check_module_objects(self):
        assert genprob.checks.__all__ == self.CHECK_NAMES
        for name in self.CHECK_NAMES:
            assert getattr(genprob.checks, name).__module__ == "genprob.checks"
            for module in (genprob.classes, genprob.probability, genprob.graphs):
                assert not hasattr(module, name), (module.__name__, name)

    def test_all_lists_no_check_name(self):
        assert genprob.classes.__all__ == self.CLASSES_ALL
        assert genprob.probability.__all__ == self.PROBABILITY_ALL
        for module in (genprob.classes, genprob.probability):
            for name in module.__all__:
                assert getattr(module, name) is not None

    def test_unknown_names_still_raise(self):
        with pytest.raises(AttributeError, match="no_such_check"):
            genprob.probability.no_such_check
        with pytest.raises(AttributeError, match="no_such_check"):
            genprob.classes.no_such_check

    def test_reports_are_value_records(self):
        from genprob.checks import CheckReport, ClosureAuditReport

        positional = CheckReport("law", True, {"a": 1})
        assert positional == CheckReport(description="law", holds=True, details={"a": 1})
        assert positional != CheckReport("law", False, {"a": 1})
        # each report gets a dict of its own
        empty = CheckReport("law", True)
        empty.details["a"] = 1
        assert CheckReport("law", True).details == {}
        audit = ClosureAuditReport("soluble", 0, [])
        assert audit.passed and audit == ClosureAuditReport("soluble", 0, [])
        audit.checks += 1
        audit.violations.append("x")
        assert not audit.passed and (audit.checks, audit.class_name) == (1, "soluble")
        report = genprob.checks.closure_audit(ABELIAN, [load("C4")], rounds=1)
        assert report == ClosureAuditReport("abelian", report.checks, [])
        assert report.checks == 3  # a subgroup, a quotient, C4 x C4

    def test_check_module_leaves_dataclasses_unloaded(self):
        result = run_python("import sys, genprob.checks\n"
                            "print('dataclasses' in sys.modules)", timeout=60)
        assert result.returncode == 0, result.stderr
        assert result.stdout == "False\n"
