"""Exact generation probabilities and the identities tying them to
structural subgroups.

All probabilities are exact rationals (uniform counting measure on a finite
group); no floating point enters any computation here.  The default method
for whole-group probabilities above order 360 is class reduction
(conjugation equivariance of the pair test lets one element of each
conjugacy class stand in for the class); the exhaustive count is the
independent oracle below that size.  It tests each unordered pair of X x Y
once, since <x, y> = <y, x>, and counts a pair of distinct elements of
X & Y for both orders.

Omega(x) rows use the elementwise analogue: membership of g in a soluble
Omega(x) is constant on the orbits of g -> xg, g -> gx, g -> g^-1 and
g -> c^-1 g c (c in C_G(x)), so ``classes.pair_row`` runs one pair test per
orbit; an abelian Omega(x) is C_G(x), which it reads off the index tables.
``omega`` keeps each row in ``G.row_cache``, the row store keyed by the
class itself and the image tuple of x, so a row is computed once per group
and class.  It refuses a non-member through ``FiniteGroup._require_member``.
Since <x, g> = <g, x>, g lies in Omega(G) iff Omega(g) = G: Omega(G) is the
union of the classes whose representative pairs with every element.  The
exhaustive count ``prob_sets`` and ``classes.pair_by_predicate`` take the
pairs one by one, with no orbit or class reduction and no pair cache: they
are the oracles the reduced routes are checked against, and the tests read
the brute-force Omega(G) off ``prob_sets`` (g lies in it iff P(g, G) = 1).

For a built-in class Omega(G) is the soluble radical (Guralnick-
Kunyavskii-Plotkin-Shalev, J. Algebra 300, 2006), the hypercenter or the
centre.  ``_class_core`` is the one map from a class to that subgroup,
which ``verify_identities`` checks and ``tower.positivity_verdict`` reads.
"""

from __future__ import annotations

from typing import NamedTuple

from .classes import ABELIAN, NILPOTENT, SOLUBLE, GroupClass, decide_pair, pair_in_group, pair_row
from .errors import EmptySet
from .group import ElementSet, FiniteGroup
from .perm import Permutation
from .util import Record

__all__ = [
    "ProbabilityReport",
    "omega",
    "prob_elem",
    "prob_sets",
    "prob_group",
    "omega_global",
    "soluble_radical",
    "hypercenter",
    "center",
    "verify_identities",
    "IdentityReport",
    "CLASS_REDUCTION_THRESHOLD",
]

# the exhaustive pair count stays the default up to this order
CLASS_REDUCTION_THRESHOLD = 360


class ProbabilityReport(NamedTuple):
    group: str
    class_name: str
    favorable: int
    total: int
    method: str

    @property
    def probability(self) -> Fraction:
        from fractions import Fraction

        return Fraction(self.favorable, self.total)


def _group_label(G: FiniteGroup) -> str:
    return G.name or f"group(degree={G.degree}, order={G.order})"


# ---------------------------------------------------------------------------
# omega sets and elementwise probability
# ---------------------------------------------------------------------------

def omega(C: GroupClass, G: FiniteGroup, x: Permutation) -> ElementSet:
    """All g with <x, g> in the class.

    The row comes from ``classes.pair_row``: a group inside the class gets
    every element, an abelian row is the centralizer read off the index
    tables with no pair test, a soluble row takes one pair test per orbit
    of x-translation, inversion and C_G(x)-conjugation, and every other
    class one pair test per element; the row is kept in G.row_cache.
    """
    key = (C, x.images)
    if key not in G.row_cache:
        G._require_member(x)
        G.row_cache[key] = ElementSet(G, pair_row(C, G, x.images))
    return G.row_cache[key]


def prob_elem(C: GroupClass, G: FiniteGroup, x: Permutation) -> ProbabilityReport:
    favorable = len(omega(C, G, x))
    return ProbabilityReport(_group_label(G), C.name, favorable, G.order, "exhaustive")


def prob_sets(
    C: GroupClass, G: FiniteGroup, X: ElementSet, Y: ElementSet
) -> ProbabilityReport:
    """Probability that random x in X and y in Y generate a class subgroup.

    Each unordered pair is tested once, since <x, y> = <y, x>: a pair of
    distinct elements of X & Y counts twice, the pair (x, x) once, and a
    pair with an end outside X & Y once.  Empty X or Y is an error: the
    ratio presupposes both sets have positive measure.  X and Y must be
    sets of G.  A group inside the class gets every pair; otherwise each
    is decided afresh by ``classes.decide_pair``, with no pair cache.
    """
    G._require_set(X)
    G._require_set(Y)
    if not X.members or not Y.members:
        raise EmptySet("prob_sets requires nonempty X and Y")
    total = len(X) * len(Y)
    G.check_cap()
    if C.predicate(G):
        return ProbabilityReport(_group_label(G), C.name, total, total, "exhaustive")
    elems = G.element_tuples()
    both = sorted(X.members & Y.members)
    favorable = 0
    for k, i in enumerate(both):
        xt = elems[i]
        favorable += decide_pair(C, G, xt, xt)
        for j in both[k + 1:]:
            if decide_pair(C, G, xt, elems[j]):
                favorable += 2
    only_y = Y.members.difference(both)
    for i in X.members:
        xt = elems[i]
        for j in (only_y if i in Y.members else Y.members):
            if decide_pair(C, G, xt, elems[j]):
                favorable += 1
    return ProbabilityReport(_group_label(G), C.name, favorable, total, "exhaustive")


def prob_group(C: GroupClass, G: FiniteGroup, method: str = "auto") -> ProbabilityReport:
    """Probability that two random elements generate a class subgroup."""
    if method == "auto":
        method = "exhaustive" if G.order <= CLASS_REDUCTION_THRESHOLD else "class-reduced"
    if method not in ("exhaustive", "class-reduced"):
        raise ValueError(f"unknown method {method!r}")
    # a group above the cap is refused before any index set is built
    G.check_cap()
    if method == "exhaustive":
        everything = ElementSet(G, frozenset(range(G.order)))
        return prob_sets(C, G, everything, everything)
    elems = G.element_tuples()
    reps, sizes, _ = G._conjugacy_data()
    favorable = sum(size * len(omega(C, G, Permutation(elems[rep])))
                    for rep, size in zip(reps, sizes))
    return ProbabilityReport(_group_label(G), C.name, favorable, G.order ** 2, method)


# ---------------------------------------------------------------------------
# global omega and its structural oracles
# ---------------------------------------------------------------------------

def omega_global(C: GroupClass, G: FiniteGroup) -> ElementSet:
    """Intersection of omega(C, G, x) over all x in G.

    <x, r> = <r, x>, so r lies in every omega(x) iff omega(r) = G, and so
    do its conjugates.  Each representative is tested against the elements
    in enumeration order up to the first failure; the identity, not assumed
    to pass, against one element per class, since <1, y> = <y> and
    conjugate elements generate conjugate subgroups.
    """
    # a group inside the class is refused above the cap as any other is
    G.check_cap()
    if C.predicate(G):
        return ElementSet(G, frozenset(range(G.order)))
    elems = G.element_tuples()
    reps, _, class_of = G._conjugacy_data()
    kept = [all(pair_in_group(C, G, elems[r], elems[y])
                for y in (reps if r == 0 else range(G.order)))  # 0: the identity
            for r in reps]
    return ElementSet(G, frozenset(i for i in range(G.order) if kept[class_of[i]]))


def soluble_radical(G: FiniteGroup) -> ElementSet:
    """{ x : the normal closure of x is soluble }.

    Independent oracle for omega_global(soluble): this is the soluble
    radical.  The normal closure of x is literally the same subgroup for
    every conjugate of x, so it is computed once per conjugacy class.
    """
    G.check_cap()
    if G.is_soluble:
        return ElementSet(G, frozenset(range(G.order)))
    elems = G.element_tuples()
    reps, _, class_of = G._conjugacy_data()
    soluble_class = [
        G.normal_closure([Permutation(elems[r])]).is_soluble for r in reps
    ]
    return ElementSet(
        G, frozenset(i for i in range(G.order) if soluble_class[class_of[i]])
    )


def hypercenter(G: FiniteGroup) -> ElementSet:
    """Final term of the upper central series."""
    G.check_cap()
    if G.is_nilpotent:
        return ElementSet(G, frozenset(range(G.order)))
    return G.upper_central_series()[-1]


def center(G: FiniteGroup) -> ElementSet:
    return G.center()


def _class_core(C: GroupClass, G: FiniteGroup) -> ElementSet:
    """The subgroup Omega(G) equals for a built-in class, else Omega(G); each
    branch calls a module-level name, so a wrapper bound there sees it."""
    if C == SOLUBLE:
        return soluble_radical(G)
    if C == NILPOTENT:
        return hypercenter(G)
    if C == ABELIAN:
        return center(G)
    return omega_global(C, G)


class IdentityReport(Record):
    def __init__(self, group: str, results: dict[str, bool] | None = None) -> None:
        self.group = group
        self.results = {} if results is None else results

    @property
    def passed(self) -> bool:
        return all(self.results.values())


def verify_identities(G: FiniteGroup) -> IdentityReport:
    """Check the three global-omega identities against independent oracles:

    omega_global(soluble) = soluble radical, omega_global(nilpotent) =
    hypercenter, omega_global(abelian) = center.
    """
    report = IdentityReport(_group_label(G))
    for name, C in (("soluble_radical", SOLUBLE), ("hypercenter", NILPOTENT),
                    ("center", ABELIAN)):
        report.results[name] = omega_global(C, G).members == _class_core(C, G).members
    return report

