import pytest

from genprob.classes import ABELIAN, NILPOTENT, SOLUBLE, pair_in_group
from genprob.graphs import (
    build_graph,
    components_and_diameters,
    quotient_graph_compatibility,
)
from genprob.probability import omega_global

from conftest import catalog_group


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
        assert not report.connected

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

    def test_no_self_loops(self):
        g = build_graph(NILPOTENT, catalog_group("S4"))
        for v in g.vertices.members:
            assert v not in g.neighbors(v)

    def test_to_dot(self):
        g = build_graph(NILPOTENT, catalog_group("S3"))
        dot = g.to_dot()
        assert dot.startswith("graph") and dot.endswith("}")


class TestDiameters:
    def test_a5_soluble_graph(self):
        report = components_and_diameters(build_graph(SOLUBLE, catalog_group("A5")))
        assert report.connected
        assert report.max_diameter <= 5

    def test_diameter_matches_all_sources_bfs(self):
        # class-representative BFS must equal the all-vertices answer
        from genprob.graphs import _bfs_distances

        g = build_graph(NILPOTENT, catalog_group("A5"))
        brute = max(
            max(_bfs_distances(g, v).values(), default=0)
            for v in g.vertices.members
        )
        report = components_and_diameters(g)
        assert report.max_diameter == brute

    def test_worker_count_does_not_change_result(self):
        g = build_graph(SOLUBLE, catalog_group("PSL27"))
        r1 = components_and_diameters(g, workers=1)
        r4 = components_and_diameters(g, workers=4)
        assert r1.to_json() == r4.to_json()

    def test_nilpotent_components_s4(self):
        report = components_and_diameters(build_graph(NILPOTENT, catalog_group("S4")))
        assert sum(c["size"] for c in report.components) == report.vertex_count
        assert all(c["diameter"] <= 10 for c in report.components)

    def test_singleton_components_have_diameter_zero(self):
        report = components_and_diameters(build_graph(NILPOTENT, catalog_group("S4")))
        for c in report.components:
            if c["size"] == 1:
                assert c["diameter"] == 0


class TestQuotientCompatibility:
    def test_c3xa5(self):
        report = quotient_graph_compatibility(catalog_group("C3xA5"))
        assert report.holds
        assert report.mismatches == 0
        assert report.graph_diameter == report.quotient_diameter

    def test_insoluble_with_trivial_radical_is_self_compatible(self):
        report = quotient_graph_compatibility(catalog_group("A5"))
        assert report.holds
