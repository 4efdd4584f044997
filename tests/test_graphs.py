from functools import lru_cache
import random

import pytest
from click.testing import CliRunner

from genprob.catalog import load
from genprob.classes import ABELIAN, NILPOTENT, SOLUBLE, pair_in_group
import genprob.checks
from genprob.checks import quotient_graph_compatibility
from genprob.cli import main
import genprob.graphs
from genprob.graphs import ClassGraph, build_graph, components_and_diameters
from genprob.perm import Permutation
from genprob.probability import omega, omega_global, prob_elem

from conftest import catalog_group, conjugate_members, list_bfs, transporters

ORACLE_GROUPS = ["A5", "S5", "S6", "C3xA5", "S3xA5"]
CLASSES = [ABELIAN, NILPOTENT, SOLUBLE]


@lru_cache(maxsize=None)
def sorted_lists(name, klass):
    """vertex -> sorted neighbour list, each row the representative's Omega
    row conjugated by tuple products: the sorted-list adjacency, built
    without the graph's bitsets or conjugation tables."""
    G = catalog_group(name)
    V = build_graph(klass, G).vertices.members
    reps, _, class_of = G._conjugacy_data()
    transporter = transporters(G)
    adjacency = {}
    for v in V:
        row = omega(klass, G, G.element_at(reps[class_of[v]])).members
        adjacency[v] = sorted((conjugate_members(G, row, transporter[v]) & V) - {v})
    return adjacency


def list_components(adjacency):
    """Sorted member lists of the components, ordered by least member."""
    seen = set()
    components = []
    for v in sorted(adjacency):
        if v not in seen:
            members = sorted(list_bfs(adjacency, v))
            seen.update(members)
            components.append(members)
    return components


@pytest.mark.parametrize("width", [1, 7, 64, 720, 5040])
def test_bitsets_round_trip(width):
    # both forms of each helper: few members against the width, and many
    rng = random.Random(width)
    for count in sorted({0, 1, width // 64, width // 40, width // 8, width // 2, width}):
        members = rng.sample(range(width), count)
        row = genprob.graphs._bitset(members, width)
        assert row == sum(1 << m for m in members)
        assert genprob.graphs._bits(row) == sorted(members)


class TestBuild:
    def test_vertices_are_complement_of_core(self):
        G = catalog_group("A5")
        g = build_graph(SOLUBLE, G)
        core = omega_global(SOLUBLE, G)
        assert g.vertices.members == frozenset(range(60)) - core.members
        assert len(g.vertices) == 59

    def test_soluble_group_gives_empty_graph(self):
        g = build_graph(SOLUBLE, catalog_group("S4"))
        assert g.is_empty
        report = components_and_diameters(g)
        assert report.vertex_count == 0
        assert report.connected is False
        assert report.components == []
        assert report.max_diameter is None

    def test_adjacency_matches_pair_test(self):
        G = catalog_group("A5")
        g = build_graph(SOLUBLE, G)
        elems = G.element_tuples()
        verts = sorted(g.vertices.members)[:12]
        for v in verts:
            for w in verts:
                expected = v != w and pair_in_group(SOLUBLE, G, elems[v], elems[w])
                assert g.adjacent(v, w) == expected

    @pytest.mark.parametrize("name, klass", [
        ("A5", SOLUBLE), ("A5", NILPOTENT), ("S4", NILPOTENT),
    ])
    def test_every_row_matches_pair_test(self, name, klass):
        # rows of non-representatives are transported from their class
        # representative's row by conjugation, so check those too
        G = catalog_group(name)
        g = build_graph(klass, G)
        elems = G.element_tuples()
        verts = sorted(g.vertices.members)
        reps = set(G._conjugacy_data()[0])
        assert any(v not in reps for v in verts)
        for v in verts:
            assert g.neighbors(v) == [
                w for w in verts
                if w != v and pair_in_group(klass, G, elems[v], elems[w])
            ]

    @pytest.mark.parametrize("name", ["A5", "S5", "C3xA5", "S3xA5"])
    @pytest.mark.parametrize("klass", CLASSES, ids=lambda c: c.name)
    def test_rows_match_conjugated_representative_row(self, name, klass):
        # each row is carried across its class by the conjugation tables;
        # the oracle conjugates the representative's Omega row by products
        g = build_graph(klass, catalog_group(name))
        adjacency = sorted_lists(name, klass)
        assert sorted(adjacency) == sorted(g.vertices.members)
        for v, row in adjacency.items():
            assert g.neighbors(v) == row

    def test_build_looks_up_no_index(self, index_of_calls):
        build_graph(SOLUBLE, load("S6"))  # fresh, so its class data is built here
        assert index_of_calls == []

    def test_no_self_loops(self):
        g = build_graph(NILPOTENT, catalog_group("S4"))
        for v in g.vertices.members:
            assert v not in g.neighbors(v)

    def test_to_dot(self):
        g = build_graph(NILPOTENT, catalog_group("S3"))
        dot = g.to_dot()
        assert dot.startswith("graph") and dot.endswith("}")

    @pytest.mark.parametrize("name", ORACLE_GROUPS)
    @pytest.mark.parametrize("klass", CLASSES, ids=lambda c: c.name)
    def test_dot_and_edge_count_match_sorted_lists(self, name, klass):
        g = build_graph(klass, catalog_group(name))
        adjacency = sorted_lists(name, klass)
        lines = ["graph class_graph {"]
        for v in sorted(adjacency):
            lines.extend(f"  {v} -- {w};" for w in adjacency[v] if v < w)
        lines.append("}")
        assert g.to_dot() == "\n".join(lines)
        assert g.edge_count() == sum(map(len, adjacency.values())) // 2


class TestDiameters:
    def test_a5_soluble_graph(self):
        report = components_and_diameters(build_graph(SOLUBLE, catalog_group("A5")))
        assert report.connected
        assert report.max_diameter <= 5

    def test_diameter_matches_all_sources_bfs(self):
        # class-representative search must equal the all-vertices answer
        g = build_graph(NILPOTENT, catalog_group("A5"))
        adjacency = {v: g.neighbors(v) for v in g.vertices.members}
        brute = max(max(list_bfs(adjacency, v).values()) for v in adjacency)
        report = components_and_diameters(g)
        assert report.max_diameter == brute

    def test_component_search_doubles_as_eccentricity_search(self, monkeypatch):
        # S6's soluble graph is one component whose least vertex represents
        # its class, so 10 vertex classes take 10 searches, not 11
        calls = []
        search = genprob.graphs._search

        def counted(graph, source):
            calls.append(source)
            return search(graph, source)

        g = build_graph(SOLUBLE, catalog_group("S6"))
        monkeypatch.setattr(genprob.graphs, "_search", counted)
        report = components_and_diameters(g)
        assert len(report.components) == 1
        assert len(calls) == len(set(calls)) == 10

    def test_worker_count_does_not_change_result(self):
        # --workers is accepted and ignored
        outputs = []
        for workers in ("1", "4"):
            result = CliRunner().invoke(
                main, ["graph", "--group", "PSL27", "--class", "soluble",
                       "--workers", workers], catch_exceptions=False)
            assert result.exit_code == 0
            outputs.append(result.stdout)
        assert outputs[0] == outputs[1]

    def test_nilpotent_components_s4(self):
        report = components_and_diameters(build_graph(NILPOTENT, catalog_group("S4")))
        assert sum(c["size"] for c in report.components) == report.vertex_count
        assert all(c["diameter"] <= 10 for c in report.components)

    def test_singleton_components_have_diameter_zero(self):
        report = components_and_diameters(build_graph(NILPOTENT, catalog_group("S4")))
        for c in report.components:
            if c["size"] == 1:
                assert c["diameter"] == 0


@pytest.mark.parametrize("name", ORACLE_GROUPS)
@pytest.mark.parametrize("klass", CLASSES, ids=lambda c: c.name)
def test_bitset_search_matches_list_bfs(name, klass):
    # the list BFS over the sorted-list adjacency is the oracle for the
    # components, every vertex's eccentricity and every diameter
    g = build_graph(klass, catalog_group(name))
    adjacency = sorted_lists(name, klass)
    eccentricity = {v: max(list_bfs(adjacency, v).values()) for v in adjacency}
    components = list_components(adjacency)
    for members in components:
        reached = sum(1 << v for v in members)
        for v in members:
            assert genprob.graphs._search(g, v) == (reached, eccentricity[v])
    report = components_and_diameters(g)
    assert report.components == [
        {"label": members[0], "size": len(members),
         "diameter": max(eccentricity[v] for v in members)}
        for members in components
    ]
    assert report.connected == (len(components) == 1)
    assert report.max_diameter == max(eccentricity.values())


class TestQuotientCompatibility:
    @pytest.mark.parametrize("name, gens", [
        ("S4", ["(1,2,3)", "(1,2)(3,4)"]),
        ("S5", ["(1,2,3)", "(1,2,3,4,5)"]),
    ], ids=["A4-empty-graph", "A5"])
    def test_unnamed_subgroup_takes_the_probability_label(self, name, gens):
        # an unnamed group is labelled alike in every report: A4's soluble
        # graph is empty, A5's is not
        G = catalog_group(name)
        H = G.subgroup([Permutation.parse(c, G.degree) for c in gens])
        assert H.name is None
        label = f"group(degree={G.degree}, order={H.order})"
        assert prob_elem(SOLUBLE, H, H.identity).group == label
        assert components_and_diameters(build_graph(SOLUBLE, H)).group == label
        assert quotient_graph_compatibility(H).group == label

    def test_c3xa5(self):
        report = quotient_graph_compatibility(catalog_group("C3xA5"))
        assert report.holds
        assert report.mismatches == 0
        assert report.graph_diameter == report.quotient_diameter

    def test_soluble_group_compares_two_empty_graphs(self):
        # S4 is soluble: its radical is S4, and both graphs are empty
        report = quotient_graph_compatibility(catalog_group("S4"))
        assert report.holds
        assert report.mismatches == 0
        assert report.graph_diameter is None
        assert report.quotient_diameter is None

    def test_insoluble_with_trivial_radical_is_self_compatible(self):
        report = quotient_graph_compatibility(catalog_group("A5"))
        assert report.holds

    def test_planted_mismatch_is_counted_once(self, monkeypatch):
        # drop one soluble edge from both ends of G's graph, leaving the
        # graph of G/R(G) as it is: exactly that one pair disagrees
        G = catalog_group("C3xA5")

        def without_one_edge(C, H, build=build_graph):
            graph = build(C, H)
            if H is not G:
                return graph
            v = next(u for u in sorted(graph.vertices.members) if graph.neighbors(u))
            w = graph.neighbors(v)[0]
            rows = list(graph.rows)
            rows[v] &= ~(1 << w)
            rows[w] &= ~(1 << v)
            return ClassGraph(H, C.name, graph.vertices, rows)

        monkeypatch.setattr(genprob.checks, "build_graph", without_one_edge)
        report = quotient_graph_compatibility(G)
        assert report.mismatches == 1
        assert report.holds is False
