import random

import pytest

from genprob import GroupError, NotInGroup, Permutation
from genprob.classes import SOLUBLE
from genprob.probability import omega
from genprob.wreath import (
    ALPHA,
    BETA,
    GenerationReport,
    Transversal,
    WreathElement,
    WreathLevel,
    alt5,
    base_level,
    build_g,
    build_m,
    canonical_transversal,
    compute_h,
    h_pattern_ok,
    projection,
    random_transversal,
    shifted_transversal,
    verify_alpha_beta_generation,
    verify_lemma_mechanism,
)

P = Permutation.parse


@pytest.fixture(scope="module")
def level():
    lvl, _ = base_level()
    return lvl


@pytest.fixture(scope="module")
def T(level):
    return canonical_transversal(level.top, ALPHA)


class TestArithmetic:
    def test_order(self, level):
        assert level.order() == 60 ** 60 * 60
        assert level.base_length == 60

    def test_identity_and_inverse(self, level):
        e = level.identity()
        assert level.multiply(e, e) == e
        w = build_m(level, canonical_transversal(level.top, ALPHA))
        assert level.multiply(w, level.inverse(w)) == e

    def test_associativity_spot_check(self, level, T):
        a = build_g(level, T, ALPHA)
        b = level.from_top(BETA)
        c = build_m(level, T)
        lhs = level.multiply(level.multiply(a, b), c)
        rhs = level.multiply(a, level.multiply(b, c))
        assert lhs == rhs

    def test_top_projection_is_homomorphism(self, level, T):
        a = build_g(level, T, ALPHA)
        b = build_g(level, T, BETA)
        assert level.multiply(a, b).top == a.top * b.top

    def test_regular_action_convention(self, level):
        # conjugating a socle element by a pure top element z moves the
        # coordinate at x to x * z^-1
        coords = {level.top.element_at(7): P("(1,2,3,4,5)", 5)}
        w = level.from_base(coords)
        z = level.top.element_at(11)
        conj = level.conjugate(w, level.from_top(z))
        for x in level.top.elements():
            expected = coords.get(x * z.inverse(), level.bottom.identity)
            assert projection(level, conj, x) == expected


@pytest.fixture(scope="module")
def random_elements(level):
    rng = random.Random(2024)
    bottom, top = level.bottom.elements(), level.top.elements()
    return [
        level.element([rng.choice(bottom) for _ in range(level.base_length)], rng.choice(top))
        for _ in range(5)
    ]


class TestEncodingOracle:
    """Seeded random elements against the product formula of the module
    docstring, read off the decoded base and top."""

    def test_decode_round_trip(self, level, random_elements):
        for a in random_elements:
            assert level.element(a.base, a.top) == a
            assert a.in_socle == a.top.is_identity()

    def test_product_formula(self, level, random_elements):
        top_elems = level.top.elements()
        idx = level.top.index_of
        for a in random_elements:
            for b in random_elements:
                ab = level.multiply(a, b)
                assert ab.top == a.top * b.top
                a_base, b_base, ab_base = a.base, b.base, ab.base
                for x, y in enumerate(top_elems):
                    assert ab_base[x] == a_base[x] * b_base[idx(y * a.top)]

    def test_order_by_repeated_product(self, level, random_elements):
        e = level.identity()
        for a in random_elements:
            current, n = a, 1
            while current != e:
                current = level.multiply(current, a)
                n += 1
            assert level.element_order(a) == n

    def test_negative_power_is_inverse(self, level, random_elements):
        e = level.identity()
        for a in random_elements:
            for k in (0, 1, 2, 7):
                assert level.multiply(level.power(a, k), level.power(a, -k)) == e
                assert level.power(a, -k) == level.inverse(level.power(a, k))

    def test_element_rejects_bad_input(self, level):
        base = [level.bottom.identity] * level.base_length
        with pytest.raises(NotInGroup):
            level.element(base, P("(1,2)", 5))
        with pytest.raises(GroupError):
            level.element(base[:-1], level.top.identity)

    @pytest.mark.parametrize("entry", [P("(1,2,3)", 4), P("(1,2)", 5)])
    def test_element_rejects_base_entry_outside_bottom(self, level, entry):
        # a degree-4 entry would shorten the images, an odd one would give
        # a permutation outside the wreath product
        base = [level.bottom.identity] * level.base_length
        base[7] = entry
        with pytest.raises(NotInGroup):
            level.element(base, level.top.element_at(3))

    def test_block_assembly_matches_point_formula(self, level):
        # point d*x + p goes to d*(x.s) + base[x](p), x.s the index of
        # elements[x] * s
        rng = random.Random(13)
        bottom, top = level.bottom.elements(), level.top.elements()
        d = level.bottom.degree
        for _ in range(20):
            base = [rng.choice(bottom) for _ in range(level.base_length)]
            s = rng.choice(top)
            expected = [None] * (d * level.base_length)
            for x, y in enumerate(top):
                xs = level.top.index_of(y * s)
                for p in range(d):
                    expected[d * x + p] = d * xs + base[x].images[p]
            assert level.element(base, s).images == tuple(expected)


def test_levels_on_the_same_groups_are_equal(level):
    again, _ = base_level()
    assert again is not level
    assert again == level and hash(again) == hash(level)
    assert WreathLevel(level.top, level.top) == level
    assert WreathLevel(level.top, alt5().subgroup([ALPHA])) != level
    with pytest.raises(AttributeError):
        level.top = level.bottom


class TestTransversal:
    def test_construction(self):
        e = Permutation.identity(5)
        positional = Transversal((e, BETA), ALPHA)
        keyword = Transversal(representatives=(e, BETA), g=ALPHA)
        assert positional == keyword and hash(positional) == hash(keyword)
        # g is not compared
        assert Transversal((e, BETA), BETA) == positional
        assert Transversal((e, ALPHA), ALPHA) != positional
        with pytest.raises(AttributeError):
            positional.g = BETA

    def test_identity_is_required(self):
        with pytest.raises(GroupError, match="must contain the identity"):
            Transversal((ALPHA, BETA), ALPHA)
        with pytest.raises(GroupError, match="must contain the identity"):
            Transversal(representatives=(), g=ALPHA)


class TestConstruction:
    def test_m_pattern(self, level, T):
        m = build_m(level, T)
        alpha_coords = [y for y in m.base if y == ALPHA]
        beta_coords = [y for y in m.base if y == BETA]
        ident_coords = [y for y in m.base if y.is_identity()]
        assert (len(alpha_coords), len(beta_coords), len(ident_coords)) == (1, 19, 40)
        assert projection(level, m, level.top.identity) == ALPHA

    def test_orders(self, level, T):
        g1 = build_g(level, T, ALPHA)
        h1 = compute_h(level, g1)
        assert level.element_order(g1) == 45
        assert level.element_order(h1) == 15
        assert h1 == level.power(g1, 3)
        assert h1.in_socle and not g1.in_socle

    def test_h_pattern(self, level, T):
        h1 = compute_h(level, build_g(level, T, ALPHA))
        assert h_pattern_ok(level, h1, ALPHA)
        cyclic = {ALPHA ** k for k in range(3)}
        alpha_count = sum(1 for x in level.top.elements() if x in cyclic)
        assert alpha_count == 3

    def test_pattern_is_transversal_independent(self, level):
        transversals = [
            canonical_transversal(level.top, ALPHA),
            shifted_transversal(level.top, ALPHA),
            shifted_transversal(level.top, ALPHA, shift=2),
            random_transversal(level.top, ALPHA, seed=99),
        ]
        assert len({t.representatives for t in transversals}) >= 3
        for t in transversals:
            h = compute_h(level, build_g(level, t, ALPHA))
            assert h_pattern_ok(level, h, ALPHA)
            assert level.element_order(h) == 15

    def test_projection_rejects_non_socle(self, level, T):
        g1 = build_g(level, T, ALPHA)
        with pytest.raises(GroupError):
            projection(level, g1, level.top.identity)

    def test_bad_transversal_rejected(self, level, T):
        broken = type(T)(T.representatives[:-1], ALPHA)
        with pytest.raises(GroupError):
            build_m(level, broken)

    def test_transversal_with_a_repeated_coset_rejected(self, level, T):
        # the right size, but two representatives in the left coset r<alpha>
        reps = T.representatives
        broken = type(T)(reps[:-1] + (reps[1] * ALPHA,), ALPHA)
        assert len(broken.representatives) == 20
        with pytest.raises(GroupError):
            build_m(level, broken)

    def test_transversal_outside_the_top_group_rejected(self, level, T):
        broken = type(T)(T.representatives[:-1] + (P("(1,2)", 5),), ALPHA)
        with pytest.raises(NotInGroup):
            build_m(level, broken)


@pytest.mark.parametrize("g", [ALPHA, BETA, P("(1,2)(3,4)", 5)],
                         ids=["alpha", "beta", "involution"])
def test_canonical_transversal_matches_product_cosets(g):
    # oracle: the greedy sweep of the enumeration over the index sets of the
    # left cosets x<g>, each built by Permutation products
    top = alt5()
    powers = [g ** k for k in range(g.order())]
    seen, reps = set(), []
    for x in top.elements():
        coset = frozenset(top.index_of(x * c) for c in powers)
        if coset not in seen:
            seen.add(coset)
            reps.append(x)
    assert len(reps) == 60 // g.order()
    assert canonical_transversal(top, g).representatives == tuple(reps)


class TestVerification:
    def test_alpha_beta_generation(self):
        report = verify_alpha_beta_generation()
        assert report.checks == 60
        assert report.passed == 60
        assert report.all_passed
        assert len(report.generating) == 60 and report.failures == []
        # the counts are read from the entries
        failed = GenerationReport(set(report.generating), ["u=(1,2,3): order 12"])
        assert (failed.checks, failed.passed) == (61, 60)
        assert not failed.all_passed

    def test_negative_control_three_cycle(self):
        # replacing beta by a 3-cycle must break generation for some u:
        # <(1,2,3), (1,2,3)^u> can sit inside Alt(4) or a point stabilizer
        A5 = alt5()
        gamma = P("(1,2,3)", 5)
        orders = {A5.subgroup([ALPHA, gamma ** u]).order for u in A5.elements()}
        assert orders != {60}

    def test_mechanism(self, level, T):
        report = verify_lemma_mechanism(level, T, samples=20, seed=3)
        assert report.all_passed
        assert report.sampled_checks == 57 * 20
        assert report.sampled_passed == report.sampled_checks
        assert report.containment_checks == 3
        assert report.h_pattern_ok
        assert (report.order_g, report.order_h) == (45, 15)

    def test_mechanism_fails_on_planted_fault(self, level, T, monkeypatch):
        # a conjugation that returns w unchanged leaves alpha at the identity
        # coordinate, so no sampled check may pass
        monkeypatch.setattr(WreathLevel, "conjugate", lambda self, w, rho: w)
        report = verify_lemma_mechanism(level, T, samples=3, seed=5)
        assert report.sampled_checks == 57 * 3
        assert report.sampled_passed < report.sampled_checks
        assert not report.all_passed

    def test_mechanism_reads_the_coordinate_of_h_at_z_inverse(self, level, T, monkeypatch):
        # h read as alpha at one z^-1 outside <g>: the conjugates there are
        # still formed from the true h, so only the check of that coordinate
        # can fail the samples for z
        h = compute_h(level, build_g(level, T, T.g))
        cyclic = {T.g ** k for k in range(T.g.order())}
        z = next(z for z in level.top.elements() if z not in cyclic)
        planted = z.inverse()
        assert projection(level, h, planted) == BETA

        def faulty(lv, w, x):
            if w.images == h.images and x == planted:
                return ALPHA
            return projection(lv, w, x)

        monkeypatch.setattr("genprob.wreath.projection", faulty)
        report = verify_lemma_mechanism(level, T, samples=3, seed=5)
        assert report.sampled_checks == 57 * 3
        assert report.sampled_passed == report.sampled_checks - 3
        assert not report.all_passed

    def test_seed_fixes_the_drawn_bases(self, level, T, monkeypatch):
        conjugate = WreathLevel.conjugate

        def drawn(seed):
            rhos = []

            def recording(self, w, rho):
                rhos.append(rho.images)
                return conjugate(self, w, rho)

            with monkeypatch.context() as m:
                m.setattr(WreathLevel, "conjugate", recording)
                verify_lemma_mechanism(level, T, samples=2, seed=seed)
            return rhos

        first = drawn(11)
        assert len(first) == 57 * 2
        assert drawn(11) == first
        assert drawn(12) != first

    def test_mechanism_seed_recorded(self, level, T):
        report = verify_lemma_mechanism(level, T, samples=2, seed=77)
        assert report.seed == 77
        assert report.to_json()["seed"] == 77

    def test_solubilizer_in_alt5(self):
        core = omega(SOLUBLE, alt5(), ALPHA)
        assert len(core) < 60
        assert alt5().identity in core
