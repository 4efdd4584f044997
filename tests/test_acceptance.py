"""Acceptance suite: one test per release criterion, each ending in a single
pass/fail line.  These tests are the contract; they must never be weakened to
make a run green."""

import json
from fractions import Fraction

from click.testing import CliRunner

from genprob import Permutation
from genprob.classes import ABELIAN, NILPOTENT, SOLUBLE
from genprob.cli import main as cli_main
from genprob.checks import (
    hall_bound_check,
    partition_identity_check,
    quotient_graph_compatibility,
    quotient_monotonicity_check,
)
from genprob.graphs import build_graph, components_and_diameters
from genprob.probability import (
    hypercenter,
    omega,
    omega_global,
    prob_group,
    soluble_radical,
)
from genprob.tower import dihedral_tower, monotonicity_report, positivity_verdict
from genprob.wreath import (
    base_level,
    build_g,
    canonical_transversal,
    compute_h,
    h_pattern_ok,
    random_transversal,
    shifted_transversal,
    verify_alpha_beta_generation,
    verify_lemma_mechanism,
)

from conftest import catalog_group, catalog_names

P = Permutation.parse
ALL_CLASSES = (ABELIAN, NILPOTENT, SOLUBLE)


def report(criterion, summary):
    print(f"[criterion {criterion}] PASS: {summary}")


def test_criterion_01_identity_suite():
    """Elementwise and global omega sets equal their structural oracles on
    every catalog group of order at most 360."""
    checked = 0
    for name in catalog_names(max_order=360):
        G = catalog_group(name)
        for x in G.elements():
            assert omega(ABELIAN, G, x).members == G.centralizer(x).members, (name, str(x))
        assert omega_global(ABELIAN, G).members == G.center().members, name
        assert omega_global(SOLUBLE, G).members == soluble_radical(G).members, name
        assert omega_global(NILPOTENT, G).members == hypercenter(G).members, name
        checked += 1
    assert checked >= 30
    report(1, f"identity suite exact on {checked} groups of order <= 360")


def test_criterion_02_oracle_equivalence():
    """Class-reduced probability equals the exhaustive double loop, and the
    Sym(3) nilpotent spot value is 1/2."""
    checked = 0
    for name in catalog_names(max_order=360):
        G = catalog_group(name)
        for C in ALL_CLASSES:
            exhaustive = prob_group(C, G, method="exhaustive").probability
            reduced = prob_group(C, G, method="class-reduced").probability
            assert exhaustive == reduced, (name, C.name)
            checked += 1
    assert prob_group(NILPOTENT, catalog_group("S3")).probability == Fraction(1, 2)
    report(2, f"class reduction equals exhaustive on {checked} (group, class) runs")


def test_criterion_03_radical_index_and_hypercenter_bound():
    """|global soluble omega| times the radical index recovers |G| on every
    catalog group; the nilpotent probability is bounded below by the
    hypercenter density on groups of order at most 360."""
    for name in catalog_names():
        G = catalog_group(name)
        core = omega_global(SOLUBLE, G)
        assert len(core) * (G.order // len(soluble_radical(G))) == G.order, name
    bound_checks = 0
    for name in catalog_names(max_order=360):
        G = catalog_group(name)
        floor = Fraction(len(hypercenter(G)), G.order)
        for x in G.elements():
            assert Fraction(len(omega(NILPOTENT, G, x)), G.order) >= floor, (name, str(x))
            bound_checks += 1
    report(3, f"radical index identity on {len(catalog_names())} groups; "
              f"hypercenter lower bound on {bound_checks} elements")


def quotient_triples():
    S4 = catalog_group("S4")
    A4 = catalog_group("A4")
    D12 = catalog_group("D12")
    D18 = catalog_group("D18")
    SL23 = catalog_group("SL23")
    Q8 = catalog_group("Q8")
    C12 = catalog_group("C12")
    S3C2 = catalog_group("S3xC2")
    rot12 = D12.generators[0]
    rot18 = D18.generators[0]
    return [
        (S4, S4.subgroup([P("(1,2)(3,4)", 4), P("(1,3)(2,4)", 4)]), P("(1,2,3)", 4)),
        (S4, S4.normal_closure([P("(1,2,3)", 4)]), P("(1,2)", 4)),
        (A4, A4.subgroup([P("(1,2)(3,4)", 4), P("(1,3)(2,4)", 4)]), P("(1,2,3)", 4)),
        (D12, D12.subgroup([rot12 * rot12]), D12.generators[1]),
        (D12, D12.subgroup([rot12]), D12.generators[1]),
        (D18, D18.subgroup([rot18]), D18.generators[1]),
        (SL23, SL23.normal_closure([SL23.generators[0]]), SL23.generators[1]),
        (Q8, Q8.center().as_subgroup(), Q8.generators[0]),
        (C12, C12.subgroup([C12.generators[0] ** 4]), C12.generators[0]),
        (S3C2, S3C2.subgroup([S3C2.generators[0], S3C2.generators[1]]), S3C2.generators[2]),
    ]


def test_criterion_04_quotient_laws():
    """Quotient monotonicity and the coset partition identity hold exactly on
    at least 20 (group, normal subgroup, class) triples."""
    triples = 0
    for G, N, x in quotient_triples():
        parts = G.coset_partition(N)
        for C in ALL_CLASSES:
            assert quotient_monotonicity_check(C, G, N, x).holds, (G.name, C.name)
            assert partition_identity_check(C, G, parts, parts).holds, (G.name, C.name)
            triples += 1
    assert triples >= 20
    report(4, f"quotient monotonicity and partition identity on {triples} triples")


def test_criterion_05_hall_bound():
    """The coset nilpotency bound holds on the Klein-by-C3 instance inside
    Sym(4) and on at least 5 further NQ instances."""
    A4 = catalog_group("A4")
    V = A4.subgroup([P("(1,2)(3,4)", 4), P("(1,3)(2,4)", 4)])
    canonical = hall_bound_check(A4, V, P("(1,2,3)", 4), P("(1,2,3)", 4))
    assert canonical.holds
    assert canonical.details["bound"] == Fraction(1, 4)

    S3 = catalog_group("S3")
    C3 = S3.subgroup([P("(1,2,3)", 3)])
    D12 = catalog_group("D12")
    rot = D12.generators[0]
    QS = catalog_group("Q8xS3")
    Q8C3 = QS.subgroup(
        [QS.generators[0], QS.generators[1], QS.generators[3] * QS.generators[3]]
    )
    flip = QS.generators[2] * QS.generators[3]
    C6 = catalog_group("C6")
    further = [
        hall_bound_check(A4, V, P("(1,2,3)", 4), P("(1,3,2)", 4)),
        hall_bound_check(A4, V, P("(1,2,3)", 4), A4.identity),
        hall_bound_check(S3, C3, P("(1,2)", 3), P("(1,2)", 3)),
        hall_bound_check(D12, D12.subgroup([rot * rot]), rot ** 3, D12.generators[1]),
        hall_bound_check(QS, Q8C3, flip, flip),
        hall_bound_check(C6, C6, C6.identity, C6.identity),
    ]
    assert len(further) >= 5
    for r in further:
        assert r.holds, r.details
    report(5, f"coset nilpotency bound on 1 + {len(further)} NQ instances")


GRAPH_CORPUS = ("A5", "S5", "PSL27", "A6", "S6")


def test_criterion_06_graph_bounds():
    """Soluble graphs on the insoluble corpus are connected with diameter at
    most 5; every nilpotent-graph component has diameter at most 10; the
    quotient compatibility check is exact on C3xA5."""
    for name in GRAPH_CORPUS:
        G = catalog_group(name)
        soluble = components_and_diameters(build_graph(SOLUBLE, G))
        assert soluble.connected, name
        assert soluble.max_diameter <= 5, (name, soluble.max_diameter)
        nilpotent = components_and_diameters(build_graph(NILPOTENT, G))
        assert all(c["diameter"] <= 10 for c in nilpotent.components), name
    compat = quotient_graph_compatibility(catalog_group("C3xA5"))
    assert compat.holds and compat.mismatches == 0
    report(6, f"graph diameter bounds on {len(GRAPH_CORPUS)} groups plus "
              "C3xA5 quotient compatibility")


def test_criterion_07_solubilizer_properties():
    """In every insoluble catalog group, each class representative's
    solubilizer properly contains its cyclic group and is never abelian."""
    insoluble = [n for n in catalog_names() if not catalog_group(n).is_soluble]
    checks = 0
    for name in insoluble:
        G = catalog_group(name)
        for rep, _ in G.conjugacy_classes():
            core = omega(SOLUBLE, G, rep)
            assert len(core) > rep.order(), (name, str(rep))
            members = core.perms()
            noncommuting = any(
                not a.commutes_with(b)
                for i, a in enumerate(members)
                for b in members[i + 1:]
            )
            assert noncommuting, (name, str(rep))
            checks += 1
    assert len(insoluble) >= 9
    report(7, f"solubilizer containment and non-abelianness on {checks} "
              f"representatives across {len(insoluble)} insoluble groups")


def test_criterion_08_wreath_verification():
    """All 60 generation checks pass; h_1 = g_1^3 lands in the socle with the
    alpha/beta pattern for every tested transversal; orders are 45 and 15;
    the conjugation mechanism passes 100 seeded samples per top element."""
    generation = verify_alpha_beta_generation()
    assert generation.checks == 60 and generation.passed == 60

    level, g_top = base_level()
    transversals = [
        canonical_transversal(level.top, g_top),
        shifted_transversal(level.top, g_top),
        random_transversal(level.top, g_top, seed=12),
    ]
    assert len({t.representatives for t in transversals}) == 3
    for T in transversals:
        g1 = build_g(level, T, g_top)
        h1 = compute_h(level, g1)
        assert h1 == level.power(g1, 3)
        assert h1.in_socle
        assert h_pattern_ok(level, h1, g_top)
        assert level.element_order(g1) == 45
        assert level.element_order(h1) == 15

    mechanism = verify_lemma_mechanism(level, transversals[0], samples=100, seed=0)
    assert mechanism.all_passed
    assert mechanism.sampled_checks == 57 * 100
    report(8, "wreath level-1 verification with 3 transversals and "
              f"{mechanism.sampled_checks} sampled conjugation checks")


def test_criterion_09_dihedral_tower():
    """The 6-level dihedral tower gives the strictly decreasing nilpotent
    sequence 1/3^n with the negative verdict, and constant 1 with the
    virtually-prosoluble verdict for the soluble class."""
    tower = dihedral_tower(3, 6)
    nilpotent = monotonicity_report(NILPOTENT, tower, "x")
    assert nilpotent.sequence == [Fraction(1, 3 ** n) for n in range(1, 7)]
    assert all(a > b for a, b in zip(nilpotent.sequence, nilpotent.sequence[1:]))
    verdict = positivity_verdict(NILPOTENT, tower, track="x")
    assert verdict.verdict == "not nilpotent-positive along track 'x'"

    soluble = monotonicity_report(SOLUBLE, tower, "x")
    assert soluble.sequence == [Fraction(1)] * 6
    assert positivity_verdict(SOLUBLE, tower).verdict == "virtually prosoluble"
    report(9, "dihedral tower sequence [1/3 .. 1/729] with both verdicts")


def test_criterion_10_determinism():
    """selftest output is byte-identical across worker counts."""
    runner = CliRunner()
    outputs = []
    for workers in ("1", "4"):
        result = runner.invoke(
            cli_main, ["selftest", "--seed", "0", "--workers", workers],
            catch_exceptions=False,
        )
        assert result.exit_code == 0
        outputs.append(result.output)
    assert outputs[0] == outputs[1]
    assert json.loads(outputs[0])["passed"] is True
    report(10, "selftest byte-identical for worker counts 1 and 4")
