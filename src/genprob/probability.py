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
orbit.  ``omega`` keeps each row in ``G.row_cache``, the row store keyed by
class name and the image tuple of x, so a row is computed once per group.
Since <x, g> = <g, x>, g lies in Omega(G) iff Omega(g) = G: Omega(G) is the
union of the classes whose representative pairs with every element.  The
exhaustive count, ``omega_global(class_reduced=False)`` and
``classes.pair_by_predicate`` take the pairs one by one, with no orbit or
class reduction: they are the oracles the reduced routes are checked
against.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Sequence

from .classes import GroupClass, pair_in_group, pair_row
from .errors import EmptySet, NotInGroup
from .group import ElementSet, FiniteGroup
from .perm import Permutation, mul, prime_component, tuple_order
from .util import prime_factors

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
    "quotient_monotonicity_check",
    "averaging_identity_check",
    "hall_bound_check",
    "CLASS_REDUCTION_THRESHOLD",
]

# the exhaustive pair count stays the default up to this order
CLASS_REDUCTION_THRESHOLD = 360


@dataclass(frozen=True)
class ProbabilityReport:
    group: str
    class_name: str
    favorable: int
    total: int
    method: str

    @property
    def probability(self) -> Fraction:
        return Fraction(self.favorable, self.total)


def _group_label(G: FiniteGroup) -> str:
    return G.name or f"group(degree={G.degree}, order={G.order})"


# ---------------------------------------------------------------------------
# omega sets and elementwise probability
# ---------------------------------------------------------------------------

def omega(C: GroupClass, G: FiniteGroup, x: Permutation) -> ElementSet:
    """All g with <x, g> in the class.

    The row comes from ``classes.pair_row``: a soluble row takes one pair
    test per orbit of x-translation, inversion and C_G(x)-conjugation, every
    other class one pair test per element; the row is kept in G.row_cache.
    """
    key = (C.name, x.images)
    if key not in G.row_cache:
        if not G.contains(x):
            raise NotInGroup(f"{x} is not in {G!r}")
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
    sets of G's canonical enumeration, which its degree and generator
    tuples fix.
    """
    for S in (X, Y):
        if (S.group.degree, S.group._gen_tuples) != (G.degree, G._gen_tuples):
            raise NotInGroup(f"prob_sets: a set of {S.group!r} is not a set of {G!r}")
    if not X.members or not Y.members:
        raise EmptySet("prob_sets requires nonempty X and Y")
    elems = G.element_tuples()
    both = sorted(X.members & Y.members)
    favorable = 0
    for k, i in enumerate(both):
        xt = elems[i]
        favorable += pair_in_group(C, G, xt, xt)
        for j in both[k + 1:]:
            if pair_in_group(C, G, xt, elems[j]):
                favorable += 2
    only_y = Y.members.difference(both)
    for i in X.members:
        xt = elems[i]
        for j in (only_y if i in Y.members else Y.members):
            if pair_in_group(C, G, xt, elems[j]):
                favorable += 1
    return ProbabilityReport(
        _group_label(G), C.name, favorable, len(X) * len(Y), "exhaustive"
    )


def prob_group(C: GroupClass, G: FiniteGroup, method: str = "auto") -> ProbabilityReport:
    """Probability that two random elements generate a class subgroup."""
    if method == "auto":
        method = "exhaustive" if G.order <= CLASS_REDUCTION_THRESHOLD else "class-reduced"
    # listing the elements refuses a group above the cap before any index
    # set is built
    elems = G.element_tuples()
    if method == "exhaustive":
        everything = ElementSet(G, frozenset(range(G.order)))
        return prob_sets(C, G, everything, everything)
    if method == "class-reduced":
        reps, sizes, _ = G._conjugacy_data()
        favorable = sum(
            size * len(omega(C, G, Permutation(elems[rep])))
            for rep, size in zip(reps, sizes)
        )
    else:
        raise ValueError(f"unknown method {method!r}")
    return ProbabilityReport(_group_label(G), C.name, favorable, G.order ** 2, method)


# ---------------------------------------------------------------------------
# global omega and its structural oracles
# ---------------------------------------------------------------------------

def omega_global(C: GroupClass, G: FiniteGroup, class_reduced: bool = True) -> ElementSet:
    """Intersection of omega(C, G, x) over all x in G.

    Class-reduced route: <x, r> = <r, x>, so r lies in every omega(x) iff
    omega(r) = G, and so do its conjugates.  Each representative is tested
    against the elements in enumeration order up to the first failure; the
    identity, not assumed to pass, against one element per class, since
    <1, y> = <y> and conjugate elements generate conjugate subgroups.
    """
    if C.predicate(G):
        return ElementSet(G, frozenset(range(G.order)))
    elems = G.element_tuples()
    if not class_reduced:
        members = set(range(G.order))
        for xt in elems:
            members = {i for i in members if pair_in_group(C, G, xt, elems[i])}
        return ElementSet(G, frozenset(members))

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
    if G.is_nilpotent:
        return ElementSet(G, frozenset(range(G.order)))
    return G.hypercenter()


def center(G: FiniteGroup) -> ElementSet:
    return G.center()


@dataclass
class IdentityReport:
    group: str
    results: dict[str, bool] = field(default_factory=dict)

    @property
    def passed(self) -> bool:
        return all(self.results.values())


def verify_identities(G: FiniteGroup) -> IdentityReport:
    """Check the three global-omega identities against independent oracles:

    omega_global(soluble) = soluble radical, omega_global(nilpotent) =
    hypercenter, omega_global(abelian) = center.
    """
    from .classes import ABELIAN, NILPOTENT, SOLUBLE

    report = IdentityReport(_group_label(G))
    for name, C, oracle in (
        ("soluble_radical", SOLUBLE, soluble_radical),
        ("hypercenter", NILPOTENT, hypercenter),
        ("center", ABELIAN, center),
    ):
        report.results[name] = omega_global(C, G).members == oracle(G).members
    return report


# ---------------------------------------------------------------------------
# quotient and averaging laws
# ---------------------------------------------------------------------------

@dataclass
class CheckReport:
    description: str
    holds: bool
    details: dict = field(default_factory=dict)


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
    elems = G.element_tuples()
    omega_sizes = [
        len(omega(C, G, Permutation(elems[i]))) for i in sorted(X.members)
    ]
    pair_count = prob_sets(C, G, X, ElementSet(G, frozenset(range(G.order)))).favorable
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
    from .classes import NILPOTENT

    failures = []
    for qg in Q.generators:
        if not G.contains(qg):
            failures.append("Q not contained in G")
            break
        if any(not Q.contains((qg ** g)) for g in G.generators):
            failures.append("Q not normal in G")
            break
    if not Q.is_nilpotent:
        failures.append("Q not nilpotent")
    N = G.subgroup([u, v])
    if not N.is_nilpotent:
        failures.append("N = <u,v> not nilpotent")
    if G.subgroup(list(N.generators) + list(Q.generators)).order != G.order:
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
        1
        for qt in Q.element_tuples()
        if all(mul(qt, r) == mul(r, qt) for r in R_elems)
    )
    bound = Fraction(centralizer_size, Q.order)

    uQ = G.right_coset(Q, u)
    vQ = G.right_coset(Q, v)
    lhs = prob_sets(NILPOTENT, G, uQ, vQ).probability
    return CheckReport(
        f"hall bound on {_group_label(G)}",
        subgroup_ok and lhs <= bound,
        {"probability": lhs, "bound": bound, "hall_is_subgroup": subgroup_ok},
    )
