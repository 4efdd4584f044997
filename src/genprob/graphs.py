"""Class graphs: vertices are elements outside the global omega set, edges
join distinct elements generating a class subgroup.

Conjugation acts by graph automorphisms.  So an adjacency row is computed
once per conjugacy class, at its representative, and moves to the rest of the
class by the conjugation tables (``FiniteGroup.conjugation_tables``): along
the class breadth-first search, one table lookup per row member.  Likewise
eccentricities are computed by BFS from class representatives only; the
maximum over representatives is the true diameter.
"""

from __future__ import annotations

from dataclasses import dataclass, field

# pair_in_group is not called here; the benchmark's tracer tests check that
# this import site of it gets wrapped, so the name stays bound
from .classes import GroupClass, pair_in_group
from .group import ElementSet, FiniteGroup
from .probability import omega, omega_global, soluble_radical

__all__ = [
    "ClassGraph",
    "build_graph",
    "components_and_diameters",
    "GraphReport",
    "quotient_graph_compatibility",
]


@dataclass
class ClassGraph:
    group: FiniteGroup
    class_name: str
    vertices: ElementSet
    # vertex -> sorted neighbor list
    _adjacency: dict[int, list[int]]

    @property
    def is_empty(self) -> bool:
        return not self.vertices.members

    def neighbors(self, v: int) -> list[int]:
        return self._adjacency[v]

    def adjacent(self, v: int, w: int) -> bool:
        return v != w and w in self._adjacency[v]

    def edge_count(self) -> int:
        return sum(len(self.neighbors(v)) for v in self.vertices.members) // 2

    def to_dot(self) -> str:
        """DOT edge dump; only sensible for small graphs (flag-gated in the CLI)."""
        lines = ["graph class_graph {"]
        for v in sorted(self.vertices.members):
            for w in self.neighbors(v):
                if v < w:
                    lines.append(f"  {v} -- {w};")
        lines.append("}")
        return "\n".join(lines)


def build_graph(C: GroupClass, G: FiniteGroup) -> ClassGraph:
    """Construct the class graph of G.

    A group entirely inside the class yields the empty graph (reported, not
    an error).
    """
    core = omega_global(C, G)
    vertex_set = frozenset(range(G.order)) - core.members
    reps, _, class_of = G._conjugacy_data()
    tables = G.conjugation_tables()
    adjacency: dict[int, list[int]] = {}
    for r in sorted({reps[class_of[v]] for v in vertex_set}):
        row = omega(C, G, G.element_at(r)).members
        adjacency[r] = sorted((row & vertex_set) - {r})
        # conjugation by a generator is a graph automorphism, so the row of
        # t[i] is the row of i moved by t
        orbit = [r]
        for i in orbit:
            for t in tables:
                j = t[i]
                if j not in adjacency:
                    adjacency[j] = sorted([t[m] for m in adjacency[i]])
                    orbit.append(j)
    return ClassGraph(G, C.name, ElementSet(G, vertex_set), adjacency)


@dataclass
class GraphReport:
    group: str
    class_name: str
    vertex_count: int
    components: list[dict] = field(default_factory=list)  # {label, size, diameter}
    max_diameter: int | None = None
    connected: bool = False

    def to_json(self) -> dict:
        return {
            "group": self.group,
            "class": self.class_name,
            "vertices": self.vertex_count,
            "components": self.components,
            "max_diameter": self.max_diameter,
            "connected": self.connected,
        }


def _bfs_distances(graph: ClassGraph, source: int) -> dict[int, int]:
    dist = {source: 0}
    order = [source]
    for v in order:
        for w in graph.neighbors(v):
            if w not in dist:
                dist[w] = dist[v] + 1
                order.append(w)
    return dist


def components_and_diameters(graph: ClassGraph, workers: int = 1) -> GraphReport:
    """Connected components and per-component diameters.

    Per-vertex eccentricity equals that of its class representative, so BFS
    runs from representatives only; a component's diameter is the maximum of
    those eccentricities over its vertices; a component search that starts
    at a representative is not repeated for its eccentricity.  Singleton
    components have diameter 0.  ``workers`` is accepted for compatibility;
    the BFS runs serially, so it changes neither the report nor the work
    done.
    """
    G = graph.group
    label = G.name or f"group(order={G.order})"
    report = GraphReport(label, graph.class_name, len(graph.vertices.members))
    if graph.is_empty:
        report.connected = False
        return report

    vertex_set = graph.vertices.members
    reps, _, class_of = G._conjugacy_data()
    component_of: dict[int, int] = {}
    component_members: list[list[int]] = []
    eccentricities: dict[int, int] = {}
    for v in sorted(vertex_set):
        if v in component_of:
            continue
        comp_id = len(component_members)
        dist = _bfs_distances(graph, v)
        members = sorted(dist)
        for w in members:
            component_of[w] = comp_id
        component_members.append(members)
        if reps[class_of[v]] == v:
            eccentricities[v] = max(dist.values())

    # representatives of vertex classes are themselves vertices: the vertex
    # set is closed under conjugation
    for r in sorted({reps[class_of[v]] for v in vertex_set}):
        if r not in eccentricities:
            eccentricities[r] = max(_bfs_distances(graph, r).values())

    for comp_id, members in enumerate(component_members):
        diameter = (
            0
            if len(members) == 1
            else max(eccentricities[reps[class_of[v]]] for v in members)
        )
        report.components.append(
            {"label": members[0], "size": len(members), "diameter": diameter}
        )
    report.connected = len(component_members) == 1
    report.max_diameter = max(c["diameter"] for c in report.components)
    return report


@dataclass
class CompatibilityReport:
    group: str
    holds: bool
    graph_diameter: int | None
    quotient_diameter: int | None
    mismatches: int


def quotient_graph_compatibility(G: FiniteGroup) -> CompatibilityReport:
    """Adjacency in the soluble graph of G matches adjacency of images in the
    soluble graph of G modulo its soluble radical, and the diameters agree."""
    from .classes import SOLUBLE

    quotient, project = G.quotient(soluble_radical(G).as_subgroup(name="R"))

    graph_G = build_graph(SOLUBLE, G)
    graph_Q = build_graph(SOLUBLE, quotient)

    image = {v: quotient.index_of(project(G.element_at(v)))
             for v in graph_G.vertices.members}
    # a pair v < w mismatches iff w lies in exactly one of v's two sets
    mismatches = 0
    for v, iv in image.items():
        # iw == iv: v and w share a coset of R, and <v, w> <= R<v> is soluble
        near = set(graph_Q.neighbors(iv)) | {iv}
        upstairs = {w for w in graph_G.neighbors(v) if w > v}
        downstairs = {w for w, iw in image.items() if w > v and iw in near}
        mismatches += len(upstairs ^ downstairs)

    if graph_G.is_empty:
        return CompatibilityReport(G.name or "G", mismatches == 0, None, None, mismatches)

    diam_G = components_and_diameters(graph_G).max_diameter
    diam_Q = components_and_diameters(graph_Q).max_diameter
    return CompatibilityReport(
        G.name or "G",
        mismatches == 0 and diam_G == diam_Q,
        diam_G,
        diam_Q,
        mismatches,
    )
