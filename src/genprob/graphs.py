"""Class graphs: vertices are elements outside the global omega set, edges
join distinct elements generating a class subgroup.

Each vertex's adjacency row is one Python int, its bitset: bit w is set when
w is adjacent.  Conjugation acts by graph automorphisms.  So a row is
computed once per conjugacy class, at its representative, and moves to the
rest of the class by the conjugation tables (``FiniteGroup.conjugation_tables``):
along the class breadth-first search, one table lookup per row member.  A
row's member list lives only until the rows of its class neighbours have
been moved from it, so the built graph holds the bitsets alone.

A breadth-first search takes one level per step: the next level is the OR of
the rows over the frontier, less the vertices seen.  Eccentricities are
searched from class representatives only; the maximum over representatives
is the true diameter.
"""

from __future__ import annotations

from functools import reduce
from itertools import compress
from operator import or_
from typing import NamedTuple

# pair_in_group is not called here; the benchmark's tracer tests check that
# this import site of it gets wrapped, so the name stays bound
from .classes import SOLUBLE, GroupClass, pair_in_group
from .group import ElementSet, FiniteGroup
from .probability import _group_label, omega, omega_global, soluble_radical
from .util import Record

__all__ = [
    "ClassGraph",
    "build_graph",
    "components_and_diameters",
    "GraphReport",
    "quotient_graph_compatibility",
]

# binary digits of ``bin(row)`` to bytes that are false for 0, true for 1
_DIGIT_BITS = bytes.maketrans(b"01", b"\0\1")


def _bits(row: int) -> list[int]:
    """The set bits of ``row``, ascending."""
    if row.bit_count() * 32 < row.bit_length():
        # sparse: strip the top bit, one per set bit, rather than scan
        # every digit
        bits = []
        while row:
            top = row.bit_length() - 1
            bits.append(top)
            row ^= 1 << top
        bits.reverse()
        return bits
    flags = bin(row)[:1:-1].encode().translate(_DIGIT_BITS)
    return list(compress(range(len(flags)), flags))


def _bitset(members, width: int) -> int:
    """The int with bit m set for each m in ``members``, all below ``width``."""
    if len(members) * 48 < width:
        # sparse: a byte per 8 bits, set member by member, rather than
        # parse a digit string of the full width
        packed = bytearray((width + 7) >> 3)
        for m in members:
            packed[m >> 3] |= 1 << (m & 7)
        return int.from_bytes(packed, "little")
    digits = bytearray(b"0") * width
    for m in members:
        digits[m] = 49  # ord("1")
    digits.reverse()
    return int(digits, 2)


class ClassGraph(Record):
    def __init__(self, group: FiniteGroup, class_name: str, vertices: ElementSet,
                 rows: list[int]) -> None:
        self.group = group
        self.class_name = class_name
        self.vertices = vertices
        # rows[v]: bit w set when w is adjacent to v; 0 for a non-vertex
        self.rows = rows

    @property
    def is_empty(self) -> bool:
        return not self.vertices.members

    def neighbors(self, v: int) -> list[int]:
        return _bits(self.rows[v])

    def adjacent(self, v: int, w: int) -> bool:
        return bool(self.rows[v] >> w & 1)

    def edge_count(self) -> int:
        return sum(row.bit_count() for row in self.rows) // 2

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
    n = G.order
    vertex_set = frozenset(range(n)) - core.members
    reps = G._conjugacy_data()[0]
    tables = G.conjugation_tables()
    rows = [0] * n
    # the vertex set is a union of classes: these are its representatives
    for r in [r for r in reps if r in vertex_set]:
        row = omega(C, G, G.element_at(r)).members
        # member lists of the rows whose class neighbours are not yet moved
        pending = {r: list((row & vertex_set) - {r})}
        rows[r] = _bitset(pending[r], n)
        # conjugation by a generator is a graph automorphism, so the row of
        # t[i] is the row of i moved by t
        orbit = [r]
        placed = {r}
        for i in orbit:
            members = pending.pop(i)
            for t in tables:
                j = t[i]
                if j not in placed:
                    placed.add(j)
                    pending[j] = moved = list(map(t.__getitem__, members))
                    rows[j] = _bitset(moved, n)
                    orbit.append(j)
    return ClassGraph(G, C.name, ElementSet(G, vertex_set), rows)


class GraphReport(Record):
    def __init__(self, group: str, class_name: str, vertex_count: int,
                 components: list[dict]) -> None:
        self.group = group
        self.class_name = class_name
        self.vertex_count = vertex_count
        self.components = components  # {label, size, diameter}

    @property
    def connected(self) -> bool:
        return len(self.components) == 1

    @property
    def max_diameter(self) -> int | None:
        """The largest component diameter; None for the empty graph."""
        return max((c["diameter"] for c in self.components), default=None)

    def to_json(self) -> dict:
        return {
            "group": self.group,
            "class": self.class_name,
            "vertices": self.vertex_count,
            "components": self.components,
            "max_diameter": self.max_diameter,
            "connected": self.connected,
        }


def _search(graph: ClassGraph, source: int) -> tuple[int, int]:
    """(bitset of the component of ``source``, eccentricity of ``source``):
    a breadth-first search, one level per step."""
    rows = graph.rows
    seen = frontier = 1 << source
    depth = 0
    while True:
        frontier = reduce(or_, map(rows.__getitem__, _bits(frontier))) & ~seen
        if not frontier:
            return seen, depth
        seen |= frontier
        depth += 1


def components_and_diameters(graph: ClassGraph) -> GraphReport:
    """Connected components and per-component diameters.

    Per-vertex eccentricity equals that of its class representative, so the
    search runs from representatives only; a component's diameter is the
    maximum of those eccentricities over its vertices; a component search
    that starts at a representative is not repeated for its eccentricity.
    An isolated vertex's representative is isolated too, so a singleton
    component has diameter 0.  The empty graph has no component.
    """
    G = graph.group
    report = GraphReport(_group_label(G), graph.class_name, len(graph.vertices.members), [])
    vertex_set = graph.vertices.members
    reps, _, class_of = G._conjugacy_data()
    unplaced = _bitset(vertex_set, G.order)
    component_members: list[list[int]] = []
    eccentricities: dict[int, int] = {}
    while unplaced:
        # the least vertex left, so each component is labelled by its least
        v = (unplaced & -unplaced).bit_length() - 1
        reached, eccentricity = _search(graph, v)
        unplaced &= ~reached
        component_members.append(_bits(reached))
        if reps[class_of[v]] == v:
            eccentricities[v] = eccentricity

    # the vertex set is a union of classes: these are its representatives
    for r in [r for r in reps if r in vertex_set]:
        if r not in eccentricities:
            eccentricities[r] = _search(graph, r)[1]

    for members in component_members:
        diameter = max(eccentricities[reps[class_of[v]]] for v in members)
        report.components.append(
            {"label": members[0], "size": len(members), "diameter": diameter}
        )
    return report


class CompatibilityReport(NamedTuple):
    group: str
    graph_diameter: int | None
    quotient_diameter: int | None
    mismatches: int

    @property
    def holds(self) -> bool:
        return self.mismatches == 0 and self.graph_diameter == self.quotient_diameter


def quotient_graph_compatibility(G: FiniteGroup) -> CompatibilityReport:
    """Adjacency in the soluble graph of G matches adjacency of images in the
    soluble graph of G modulo its soluble radical, and the diameters agree."""
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

    return CompatibilityReport(
        _group_label(G),
        components_and_diameters(graph_G).max_diameter,
        components_and_diameters(graph_Q).max_diameter,
        mismatches,
    )
