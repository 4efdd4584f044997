"""Group-class predicates and the cached two-element generation test.

A ``GroupClass`` is a named predicate on finite groups (abelian, nilpotent,
soluble are built in).  The central operation is ``test_pair``: does the
subgroup generated by two elements belong to the class?  Pair enumeration
dominates every probability and graph computation, so results are cached per
(group, class) and each built-in class carries a fast test that avoids
constructing the subgroup where a cheap criterion exists:

* abelian: two generators commute.
* nilpotent: split both elements into prime parts; the pair generates a
  nilpotent group iff parts for distinct primes commute and each same-prime
  pair generates a p-group (checked by closure with the Sylow order of the
  ambient group as a hard size bound).
* soluble: commuting generators give an abelian group.  Otherwise the
  pair subgroup gets a stabilizer chain; its order settles the question
  when it is below 60, odd, or has at most two prime divisors, and its
  derived series settles the rest.

Every fast test is property-checked against the plain
``predicate(subgroup(x, y))`` route in the test suite.

``pair_row`` computes a whole Omega(x) row.  Soluble rows take one pair test
per orbit of x-translation, inversion and C_G(x)-conjugation, which leave
<x, g> unchanged up to conjugation.  Abelian and nilpotent rows stay one test
per element: a commute check is cheaper than building the orbits, and the
nilpotent counts of the dihedral tower are pinned by the benchmark.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Callable, Iterable, Sequence

from .errors import NotInGroup, UnknownName
from .group import FiniteGroup, bfs_closure, direct_product
from .perm import Permutation, identity_tuple, inv, mul, prime_component, tuple_order
from .util import pi_part, prime_factors

__all__ = [
    "GroupClass",
    "ABELIAN",
    "NILPOTENT",
    "SOLUBLE",
    "BUILTIN_CLASSES",
    "class_by_name",
    "test_pair",
    "pair_row",
    "closure_audit",
    "ClosureAuditReport",
]

_SMALLEST_INSOLUBLE = 60  # |Alt(5)|; every group below this order is soluble


@dataclass(frozen=True)
class GroupClass:
    """A class of finite groups closed under subgroups, quotients and
    finite direct products (property-tested by ``closure_audit``)."""

    name: str
    predicate: Callable[[FiniteGroup], bool]
    # closure under subgroups lets omega() short-circuit when the whole
    # ambient group lies in the class
    subgroup_closed: bool = False
    fast_pair: Callable[[FiniteGroup, tuple, tuple], bool] | None = field(
        default=None, compare=False
    )

    def __str__(self) -> str:
        return self.name


# ---------------------------------------------------------------------------
# fast pair tests
# ---------------------------------------------------------------------------

def _abelian_pair(G: FiniteGroup, xt: tuple, yt: tuple) -> bool:
    return mul(xt, yt) == mul(yt, xt)


def _nilpotent_pair(G: FiniteGroup, xt: tuple, yt: tuple) -> bool:
    if mul(xt, yt) == mul(yt, xt):
        return True
    degree = G.degree
    ident = identity_tuple(degree)
    xo, yo = tuple_order(xt), tuple_order(yt)
    primes = sorted(set(prime_factors(xo)) | set(prime_factors(yo)))
    xparts = {p: prime_component(xt, xo, (p,)) for p in primes}
    yparts = {p: prime_component(yt, yo, (p,)) for p in primes}
    for p in primes:
        for q in primes:
            if p != q and mul(xparts[p], yparts[q]) != mul(yparts[q], xparts[p]):
                return False
    for p in primes:
        a, b = xparts[p], yparts[p]
        gens = [t for t in (a, b) if t != ident]
        if len(gens) < 2:
            continue
        span = bfs_closure(gens, degree, limit=pi_part(G.order, (p,)))
        if span is None or pi_part(len(span), (p,)) != len(span):
            return False
    return True


def _order_forces_soluble(n: int) -> bool:
    """Orders that admit no insoluble group: odd (Feit-Thompson) or with at
    most two prime divisors (Burnside)."""
    return n < _SMALLEST_INSOLUBLE or n % 2 == 1 or len(prime_factors(n)) <= 2


def _soluble_pair(G: FiniteGroup, xt: tuple, yt: tuple) -> bool:
    if mul(xt, yt) == mul(yt, xt):
        return True
    # the chain gives the order without listing elements; the derived
    # series runs only when the order leaves the answer open
    sub = FiniteGroup(G.degree, [Permutation(xt), Permutation(yt)], cap=G.cap)
    if _order_forces_soluble(sub.order):
        return True
    if sub.order == G.order:
        return G.is_soluble
    return sub.is_soluble


ABELIAN = GroupClass("abelian", lambda G: G.is_abelian, True, _abelian_pair)
NILPOTENT = GroupClass("nilpotent", lambda G: G.is_nilpotent, True, _nilpotent_pair)
SOLUBLE = GroupClass("soluble", lambda G: G.is_soluble, True, _soluble_pair)

BUILTIN_CLASSES = {c.name: c for c in (ABELIAN, NILPOTENT, SOLUBLE)}


def class_by_name(name: str) -> GroupClass:
    try:
        return BUILTIN_CLASSES[name]
    except KeyError:
        raise UnknownName(
            f"unknown class {name!r}; expected one of {sorted(BUILTIN_CLASSES)}"
        ) from None


# ---------------------------------------------------------------------------
# test_pair
# ---------------------------------------------------------------------------

def test_pair(C: GroupClass, G: FiniteGroup, x: Permutation, y: Permutation) -> bool:
    """Whether <x, y> lies in the class.  Results are cached per (G, C)."""
    if not G.contains(x) or not G.contains(y):
        raise NotInGroup("pair elements must lie in the group")
    return pair_in_group(C, G, x.images, y.images)


def pair_in_group(C: GroupClass, G: FiniteGroup, xt: tuple, yt: tuple) -> bool:
    """Internal test_pair over image tuples; membership is assumed."""
    # a subgroup-closed class containing G contains every <x, y>
    if C.subgroup_closed and C.predicate(G):
        return True
    cache = G.pair_cache.setdefault(C.name, {})
    key = (xt, yt) if xt <= yt else (yt, xt)
    hit = cache.get(key)
    if hit is not None:
        return hit
    if C.fast_pair is not None:
        result = C.fast_pair(G, xt, yt)
    else:
        result = C.predicate(
            FiniteGroup(G.degree, [Permutation(xt), Permutation(yt)], cap=G.cap)
        )
    cache[key] = result
    return result


def pair_row(C: GroupClass, G: FiniteGroup, xt: tuple,
             candidates: Iterable[int] | None = None) -> frozenset[int]:
    """The indices i among ``candidates`` (all of G by default) for which
    <x, g_i> lies in the class, g_i the i-th element of the enumeration;
    membership of x is assumed.

    Soluble rows are computed one orbit at a time.  <x, g> is the same
    subgroup for g, xg, gx and g^-1, and for c in C_G(x) the subgroup
    <x, c^-1 g c> is conjugate to it, so the answer is constant on the
    orbits of the group these maps generate.  One ``pair_in_group`` call on
    each orbit's least index decides the whole orbit; orbits that miss the
    candidates are never built.  Every other class takes one pair test per
    candidate.
    """
    elems = G.element_tuples()
    if candidates is None:
        candidates = range(G.order)
    if C.subgroup_closed and C.predicate(G):
        return frozenset(candidates)
    # abelian and nilpotent rows stay per element on purpose: a commute check
    # costs less than building the orbits (abelian rows of S5 and A6 took
    # 4-7 times longer with them), and the benchmark pins the nilpotent
    # pair-test and product counts of `tower dihedral 3 6`
    if C is not SOLUBLE:
        return frozenset(i for i in candidates if pair_in_group(C, G, xt, elems[i]))
    index = G._index
    conjugators = [(inv(c), c) for c in _centralizer_generators(G, xt)]
    seen = bytearray(G.order)
    passing: list[int] = []
    for start in candidates:
        if seen[start]:
            continue
        seen[start] = 1
        orbit = [start]
        for i in orbit:
            g = elems[i]
            for h in (mul(xt, g), mul(g, xt), inv(g),
                      *(mul(mul(ci, g), c) for ci, c in conjugators)):
                j = index[h]
                if not seen[j]:
                    seen[j] = 1
                    orbit.append(j)
        if pair_in_group(C, G, xt, elems[min(orbit)]):
            passing += orbit
    return frozenset(passing).intersection(candidates)


def _centralizer_generators(G: FiniteGroup, xt: tuple) -> list[tuple]:
    """Elements that generate C_G(x) together with x, taken greedily in
    enumeration order: an element of the centralizer joins when the span of
    x and the earlier ones misses it.  Conjugation by x itself is left out,
    since the two x-translations already give it."""
    gens: list[tuple] = []
    span = set(bfs_closure([xt], G.degree, G.order))
    for t in G.element_tuples():
        if t not in span and mul(t, xt) == mul(xt, t):
            gens.append(t)
            span = set(bfs_closure([xt, *gens], G.degree, G.order))
    return gens


def pair_by_predicate(C: GroupClass, G: FiniteGroup, x: Permutation, y: Permutation) -> bool:
    """Uncached, fast-path-free route: build <x,y> and apply the predicate.

    This is the reference implementation that the fast tests are checked
    against; it is deliberately independent of ``test_pair`` internals.
    """
    return C.predicate(G.subgroup([x, y]))


# ---------------------------------------------------------------------------
# closure audit
# ---------------------------------------------------------------------------

@dataclass
class ClosureAuditReport:
    class_name: str
    checks: int
    violations: list[str]

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
