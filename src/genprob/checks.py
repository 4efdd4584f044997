"""Property checks of the generation-probability laws, kept apart from
the modules every CLI subcommand imports.

No CLI subcommand runs the closure audit of a group class, the quotient,
averaging and coset partition identities, the nilpotent Hall bound or the
compatibility of the soluble graph with the radical quotient; the tests
do.  This module is their only home: no other module serves their names,
so they are reached by importing ``genprob.checks``.
"""

from __future__ import annotations

import random
from fractions import Fraction
from typing import NamedTuple, Sequence

from .classes import NILPOTENT, SOLUBLE, GroupClass
from .errors import EmptySet
from .graphs import build_graph, components_and_diameters
from .group import ElementSet, FiniteGroup, direct_product
from .perm import Permutation, commute, prime_component, tuple_order
from .probability import _group_label, omega, prob_elem, prob_sets, soluble_radical
from .util import Record, prime_factors

__all__ = [
    "closure_audit",
    "ClosureAuditReport",
    "CheckReport",
    "quotient_monotonicity_check",
    "averaging_identity_check",
    "partition_identity_check",
    "hall_bound_check",
    "CompatibilityReport",
    "quotient_graph_compatibility",
]


# ---------------------------------------------------------------------------
# closure audit
# ---------------------------------------------------------------------------

class ClosureAuditReport(Record):
    def __init__(self, class_name: str, checks: int, violations: list[str]) -> None:
        self.class_name = class_name
        self.checks = checks
        self.violations = violations

    @property
    def passed(self) -> bool:
        return not self.violations


def closure_audit(
    C: GroupClass,
    samples: Sequence[FiniteGroup],
    seed: int = 0,
    rounds: int = 5,
) -> ClosureAuditReport:
    """Property-test the three closure axioms on sample groups in the class.

    For every sample already in the class: random 2-generated subgroups must
    stay in the class, quotients by random normal closures must stay in the
    class, and pairwise direct products (on disjoint supports) must stay in
    the class.
    """
    rng = random.Random(seed)
    report = ClosureAuditReport(C.name, 0, [])
    in_class = [G for G in samples if C.predicate(G)]

    def record(ok: bool, what: str) -> None:
        report.checks += 1
        if not ok:
            report.violations.append(what)

    for G in in_class:
        elems = G.elements()
        for _ in range(rounds):
            x, y = rng.choice(elems), rng.choice(elems)
            record(
                C.predicate(G.subgroup([x, y])),
                f"subgroup <{x}, {y}> of {G!r} left the class",
            )
            z = rng.choice(elems)
            quotient, _ = G.quotient(G.normal_closure([z]))
            record(
                C.predicate(quotient),
                f"quotient of {G!r} by closure of {z} left the class",
            )
    for i, A in enumerate(in_class):
        for B in in_class[i:]:
            record(
                C.predicate(direct_product(A, B)),
                f"direct product {A!r} x {B!r} left the class",
            )
    return report


# ---------------------------------------------------------------------------
# quotient and averaging laws
# ---------------------------------------------------------------------------

class CheckReport(Record):
    def __init__(self, description: str, holds: bool, details: dict | None = None) -> None:
        self.description = description
        self.holds = holds
        self.details = {} if details is None else details


def quotient_monotonicity_check(
    C: GroupClass, G: FiniteGroup, N: FiniteGroup, x: Permutation
) -> CheckReport:
    """The probability can only grow when passing to a quotient."""
    quotient, project = G.quotient(N)
    upstairs = prob_elem(C, G, x).probability
    downstairs = prob_elem(C, quotient, project(x)).probability
    return CheckReport(
        f"quotient monotonicity for {C.name} on {_group_label(G)}",
        downstairs >= upstairs,
        {"quotient": downstairs, "group": upstairs},
    )


def averaging_identity_check(C: GroupClass, G: FiniteGroup, X: ElementSet) -> CheckReport:
    """P(X, G) equals the average of P(x, G) over X, and is at least its
    minimum over X."""
    if not X.members:
        raise EmptySet("averaging check requires nonempty X")
    # prob_sets refuses a set of another group before any row is computed
    pair_count = prob_sets(C, G, X, ElementSet(G, frozenset(range(G.order)))).favorable
    elems = G.element_tuples()
    omega_sizes = [
        len(omega(C, G, Permutation(elems[i]))) for i in sorted(X.members)
    ]
    total = sum(omega_sizes)
    p_set = Fraction(pair_count, len(X) * G.order)
    average = Fraction(total, len(X) * G.order)
    minimum = Fraction(min(omega_sizes), G.order)
    return CheckReport(
        f"averaging identity for {C.name} on {_group_label(G)}",
        pair_count == total and p_set == average and p_set >= minimum,
        {"pair_count": pair_count, "sum_of_omegas": total, "min": minimum},
    )


def partition_identity_check(
    C: GroupClass,
    G: FiniteGroup,
    X_parts: Sequence[ElementSet],
    Y_parts: Sequence[ElementSet],
) -> CheckReport:
    """P(X, Y) = sum of P(X_i, Y_j) / (r*s) for equal-size disjoint partitions."""
    r, s = len(X_parts), len(Y_parts)
    X = ElementSet(G, frozenset().union(*(p.members for p in X_parts)))
    Y = ElementSet(G, frozenset().union(*(p.members for p in Y_parts)))
    if len(X) != sum(len(p) for p in X_parts) or len(Y) != sum(len(p) for p in Y_parts):
        raise ValueError("parts must be disjoint")
    if len({len(p) for p in X_parts}) > 1 or len({len(p) for p in Y_parts}) > 1:
        raise ValueError("parts must be of equal size")
    whole = prob_sets(C, G, X, Y).probability
    parts = sum(
        prob_sets(C, G, Xi, Yj).probability for Xi in X_parts for Yj in Y_parts
    )
    return CheckReport(
        f"coset partition identity for {C.name} on {_group_label(G)}",
        whole == parts / (r * s),
        {"whole": whole, "parts_average": parts / (r * s)},
    )


# ---------------------------------------------------------------------------
# the nilpotent NQ bound
# ---------------------------------------------------------------------------

def hall_bound_check(
    G: FiniteGroup, Q: FiniteGroup, u: Permutation, v: Permutation
) -> CheckReport:
    """For G = NQ with Q normal nilpotent and N = <u,v> nilpotent, the
    probability that random coset elements of uQ and vQ generate a nilpotent
    subgroup is at most |Q : C_Q(R)|^-1, R the Hall subgroup of N away from
    the primes of Q.
    """
    failures = []
    contained = all(G.contains(qg) for qg in Q.generators)
    if not contained:
        failures.append("Q not contained in G")
    elif any(not Q.contains(qg ** g) for qg in Q.generators for g in G.generators):
        failures.append("Q not normal in G")
    if not Q.is_nilpotent:
        failures.append("Q not nilpotent")
    # G.subgroup refuses a generator outside G, so N is formed only for u
    # and v in G, and NQ only for Q in G as well
    if not (G.contains(u) and G.contains(v)):
        failures.append("u or v not in G")
    else:
        N = G.subgroup([u, v])
        if not N.is_nilpotent:
            failures.append("N = <u,v> not nilpotent")
        if contained and G.subgroup(list(N.generators) + list(Q.generators)).order != G.order:
            failures.append("G != NQ")
    if failures:
        return CheckReport("hall bound preconditions", False, {"failures": failures})

    pi = frozenset(prime_factors(Q.order))
    R_elems = set()
    for n in N.element_tuples():
        o = tuple_order(n)
        # the pi'-component: the part over the primes of |n| outside pi
        R_elems.add(prime_component(n, o, [q for q in prime_factors(o) if q not in pi]))
    R_group = G.subgroup([Permutation(t) for t in sorted(R_elems)])
    subgroup_ok = R_group.order == len(R_elems)

    centralizer_size = sum(
        1 for qt in Q.element_tuples() if all(commute(qt, r) for r in R_elems)
    )
    bound = Fraction(centralizer_size, Q.order)

    # Q is normal, so uQ = Qu: the part of the coset partition holding u
    parts = G.coset_partition(Q)
    uQ, vQ = (next(p for p in parts if x in p) for x in (u, v))
    lhs = prob_sets(NILPOTENT, G, uQ, vQ).probability
    return CheckReport(
        f"hall bound on {_group_label(G)}",
        subgroup_ok and lhs <= bound,
        {"probability": lhs, "bound": bound, "hall_is_subgroup": subgroup_ok},
    )


# ---------------------------------------------------------------------------
# the soluble graph modulo the soluble radical
# ---------------------------------------------------------------------------

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
