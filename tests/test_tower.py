from fractions import Fraction

import pytest

from genprob import CapExceeded, GroupError, UnknownName
from genprob.catalog import load
from genprob.classes import ABELIAN, NILPOTENT, SOLUBLE, GroupClass
from genprob.tower import (
    MonotonicityReport,
    QuotientTower,
    dihedral_tower,
    monotonicity_report,
    positivity_verdict,
    prob_sequence,
)

from conftest import brute_omega_global


@pytest.fixture(scope="module")
def tower3():
    return dihedral_tower(3, 4)


class TestConstruction:
    def test_levels_and_orders(self, tower3):
        assert [G.order for G in tower3.levels] == [6, 18, 54, 162]
        assert [G.degree for G in tower3.levels] == [3, 9, 27, 81]

    def test_tracks_commute_with_projections(self, tower3):
        # re-run the internal verification explicitly
        tower3._verify()
        for k, proj in enumerate(tower3.projections):
            assert proj(tower3.tracks["x"][k + 1]) == tower3.tracks["x"][k]
            assert proj(tower3.tracks["r"][k + 1]) == tower3.tracks["r"][k]

    def test_projections_are_homomorphisms_beyond_generators(self, tower3):
        G1, G0 = tower3.levels[1], tower3.levels[0]
        proj = tower3.projections[0]
        for a in G1.elements():
            for b in G1.generators:
                assert proj(a * b) == proj(a) * proj(b)

    def test_rejects_non_prime(self):
        with pytest.raises(GroupError):
            dihedral_tower(9, 2)
        with pytest.raises(GroupError):
            dihedral_tower(2, 2)

    def test_rejects_oversized(self):
        with pytest.raises(CapExceeded):
            dihedral_tower(3, 4, cap=100)

    def test_cap_bounds_the_top_order_exactly(self):
        assert dihedral_tower(3, 6, cap=1458).levels[-1].order == 1458
        with pytest.raises(CapExceeded, match=r"2\*3\^6 exceeds cap 1457"):
            dihedral_tower(3, 6, cap=1457)
        with pytest.raises(CapExceeded):
            dihedral_tower(3, 6, cap=486)  # level 5 reaches the cap exactly
        assert dihedral_tower(5, 3, cap=250).levels[-1].order == 250
        with pytest.raises(CapExceeded):
            dihedral_tower(5, 3, cap=249)
        # an odd composite within the cap is still refused
        with pytest.raises(GroupError, match="odd prime"):
            dihedral_tower(15, 2)

    @pytest.mark.parametrize("n_max", [0, -2])
    def test_rejects_a_tower_without_levels(self, n_max):
        with pytest.raises(GroupError, match=f"at least one level, got n_max={n_max}"):
            dihedral_tower(3, n_max)

    def test_bad_projection_rejected(self, tower3):
        broken = [lambda p: tower3.levels[0].identity for _ in range(3)]
        with pytest.raises(GroupError):
            QuotientTower("broken", list(tower3.levels), broken)

    def test_tower_without_levels_rejected(self):
        # it was refused as lacking a projection, of which it needs -1
        with pytest.raises(GroupError, match="^a tower needs at least one level$"):
            QuotientTower("t", [], [])

    def test_missing_projection_rejected(self):
        S3 = load("S3")
        with pytest.raises(GroupError, match="one projection per"):
            QuotientTower("t", [S3, S3], [])

    def test_surjective_non_homomorphism_rejected(self):
        # D18 -> D6 keeping the generators and sending the rest to 1
        t = dihedral_tower(3, 2)
        low, high = t.levels

        def project(e):
            if e in high.generators:
                return low.generators[high.generators.index(e)]
            return low.identity

        with pytest.raises(GroupError, match="not a homomorphism"):
            QuotientTower("broken", [low, high], [project])

    def test_track_of_wrong_length_rejected(self):
        t = dihedral_tower(3, 2)
        with pytest.raises(GroupError, match="an element per level"):
            QuotientTower("short", t.levels, t.projections, {"x": t.tracks["x"][:1]})

    def test_track_not_commuting_with_projection_rejected(self):
        t = dihedral_tower(3, 2)
        track = [t.tracks["r"][0], t.tracks["x"][1]]
        with pytest.raises(GroupError, match="does not commute"):
            QuotientTower("mixed", t.levels, t.projections, {"rx": track})


class TestSequences:
    def test_nilpotent_track_x(self, tower3):
        seq = prob_sequence(NILPOTENT, tower3, "x")
        assert seq == [Fraction(1, 3 ** n) for n in range(1, 5)]

    def test_soluble_is_constant_one(self, tower3):
        assert prob_sequence(SOLUBLE, tower3, "x") == [Fraction(1)] * 4

    def test_abelian_track_r(self, tower3):
        # the rotation commutes exactly with the rotation subgroup
        assert prob_sequence(ABELIAN, tower3, "r") == [Fraction(1, 2)] * 4

    def test_p5(self):
        t = dihedral_tower(5, 3)
        assert prob_sequence(NILPOTENT, t, "x") == [
            Fraction(1, 5), Fraction(1, 25), Fraction(1, 125)
        ]

    def test_monotonicity_report(self, tower3):
        report = monotonicity_report(NILPOTENT, tower3, "x")
        assert report.monotone
        assert not report.violations
        assert report.inf_upper_bound == Fraction(1, 81)
        payload = report.to_json()
        assert payload["levels"][0] == {
            "order": 6, "probability": {"num": 1, "den": 3}
        }
        assert payload["inf_upper_bound"] == {"num": 1, "den": 81}

    def test_one_level_tower_is_monotone(self):
        report = monotonicity_report(NILPOTENT, dihedral_tower(3, 1), "x")
        assert report.violations == []
        assert report.monotone
        assert report.to_json()["levels"] == [
            {"order": 6, "probability": {"num": 1, "den": 3}}
        ]

    def test_report_without_levels_rejected(self):
        # to_json ended in IndexError, looking for the last probability
        with pytest.raises(GroupError, match="report needs at least one level"):
            MonotonicityReport("t", "c", "x", [], [])

    def test_report_with_an_order_per_level_only(self):
        # the JSON listed one level, yet took inf_upper_bound from the
        # probability it dropped
        with pytest.raises(GroupError, match="1 orders for 2 probabilities"):
            MonotonicityReport("t", "c", "x", [Fraction(1, 2), Fraction(1, 3)], [6])

    def test_violations_are_read_from_the_sequence(self):
        seq = [Fraction(1, 2), Fraction(1, 3), Fraction(1, 2), Fraction(1, 4)]
        report = MonotonicityReport("t", "nilpotent", "x", seq, [2, 4, 8, 16])
        assert report.violations == [1]
        assert not report.monotone
        assert report.to_json()["monotone"] is False
        assert [lv["order"] for lv in report.to_json()["levels"]] == [2, 4, 8, 16]


class TestUnknownTrack:
    # the tower's tracks are x and r; any other name is refused, listing them
    MESSAGE = r"unknown track 'zz'; expected one of \['r', 'x'\]"

    def test_sequence_and_report(self, tower3):
        with pytest.raises(UnknownName, match=self.MESSAGE):
            prob_sequence(NILPOTENT, tower3, "zz")
        with pytest.raises(UnknownName, match=self.MESSAGE):
            monotonicity_report(NILPOTENT, tower3, "zz")

    @pytest.mark.parametrize("klass", [ABELIAN, NILPOTENT, SOLUBLE], ids=lambda C: C.name)
    def test_verdict(self, tower3, klass):
        with pytest.raises(UnknownName, match=self.MESSAGE):
            positivity_verdict(klass, tower3, track="zz")

    def test_known_track(self, tower3):
        assert tower3.track("r") == tower3.tracks["r"]


class TestVerdicts:
    def test_nilpotent_negative(self, tower3):
        verdict = positivity_verdict(NILPOTENT, tower3, track="x")
        assert verdict.verdict == "not nilpotent-positive along track 'x'"
        assert verdict.indices == [6, 18, 54, 162]

    def test_soluble_positive(self, tower3):
        verdict = positivity_verdict(SOLUBLE, tower3)
        assert verdict.verdict == "virtually prosoluble"
        assert verdict.indices == [1, 1, 1, 1]

    def test_nilpotent_stabilized_is_finite_by_pronilpotent(self):
        # a constant tower of a fixed nilpotent-by-finite group
        t = dihedral_tower(3, 2)
        constant = QuotientTower(
            "constant",
            [t.levels[0], t.levels[0]],
            [lambda p: p],
            {"x": [t.tracks["x"][0]] * 2},
        )
        verdict = positivity_verdict(NILPOTENT, constant, track="x")
        assert verdict.verdict == "finite-by-pronilpotent"

    def test_abelian_index_still_growing(self):
        # D(2*3^n) has trivial centre, so the index is the order
        verdict = positivity_verdict(ABELIAN, dihedral_tower(3, 3))
        assert verdict.indices == [6, 18, 54]
        assert verdict.verdict == "index still growing"

    def test_class_without_a_builtin_core_reads_omega(self):
        # a class other than the three built-in ones takes Omega(G) itself;
        # with the nilpotent predicate it meets the hypercentre's indices
        p_nilpotent = GroupClass("p-nilpotent", NILPOTENT.predicate, NILPOTENT.fast_pair)
        verdict = positivity_verdict(p_nilpotent, dihedral_tower(3, 3))
        assert verdict.indices == [6, 18, 54]
        assert verdict.verdict == "index still growing"

    def test_abelian_constant_tower_stabilizes(self):
        t = dihedral_tower(3, 1)
        constant = QuotientTower("constant", [t.levels[0]] * 2, [lambda p: p])
        verdict = positivity_verdict(ABELIAN, constant)
        assert verdict.indices == [6, 6]
        assert verdict.verdict == "global omega index stabilized"

    @pytest.mark.parametrize("klass, index", [(ABELIAN, 6), (NILPOTENT, 6), (SOLUBLE, 1)],
                             ids=lambda v: getattr(v, "name", str(v)))
    @pytest.mark.parametrize("track", [None, "x"])
    def test_one_level_shows_no_trend(self, klass, index, track):
        # one index is neither growing, nor diverging, nor stabilized
        verdict = positivity_verdict(klass, dihedral_tower(3, 1), track=track)
        assert verdict.indices == [index]
        assert verdict.verdict == "one level shows no trend"

    def test_abelian_indices_match_the_brute_force_core(self):
        # the abelian index reads the centre, with no pair test; the
        # pair-by-pair Omega(G) stays its independent oracle
        t = dihedral_tower(3, 1)
        for tower in (dihedral_tower(3, 3),
                      QuotientTower("constant", [t.levels[0]] * 2, [lambda p: p])):
            verdict = positivity_verdict(ABELIAN, tower)
            assert all(G.pair_cache == {} for G in tower.levels)
            assert verdict.indices == [
                G.order // len(brute_omega_global(ABELIAN, G))
                for G in tower.levels
            ]

    def test_nilpotent_without_track_diverges(self, tower3):
        verdict = positivity_verdict(NILPOTENT, tower3)
        assert verdict.verdict == "hypercenter index diverging"
