"""Group-class predicates and the cached two-element generation test.

A ``GroupClass`` is a named predicate on finite groups (abelian, nilpotent,
soluble are built in).  The central operation is ``test_pair``: does the
subgroup generated by two elements belong to the class?  Pair enumeration
dominates every probability and graph computation, so each built-in class
carries a fast test that avoids building <x, y> where a cheap criterion
exists (``decide_pair`` runs it, uncached, for the exhaustive oracles;
``pair_in_group``, a plain verdict cache per (group, class), for the rest;
each caller settles beforehand, through ``inside``, whether G itself lies
in the class):

* abelian: two generators commute (``perm.commute``).
* nilpotent: split both elements into prime parts; the pair generates a
  nilpotent group iff parts for distinct primes commute and each same-prime
  pair generates a p-group (checked by closure with the Sylow order of the
  ambient group as a hard size bound).  Each element's order and parts are
  worked out once per group and kept in its ``prime_part_cache``; a call
  reads them and the group's identity and builds no table of its own.  The
  commute checks run over the sorted union of both elements' primes,
  identity parts included, in a fixed order, since the benchmark pins the
  product count of the dihedral tower.
* soluble: commuting generators give an abelian group.  Otherwise the pair
  is split into its restrictions to the orbits of <x, y>, and it is soluble
  iff every restriction is.  Each restriction is relabelled onto 0..k-1
  from its least point and looked up under that labelling in the group's
  ``restriction_cache``.  Only on a miss is it named by its canonical key,
  the least relabelling over all its start points (only those x fixes,
  when there are any), and looked up again; the verdict is then stored
  under both keys.  The search is a plain minimum over full relabellings:
  it runs on 504 of the 15 876 orbit lookups of the exhaustive PSL(2,7)
  count, too few for an early exit to pay.  On a miss of the canonical
  key too, a restriction to k <= 4 points is soluble, since it lies in
  Sym(4).  A longer one is insoluble when it is primitive and k is not a
  prime power, or, at prime-power k, when it is primitive and a power of
  x', y', x'y' or x'y'^-1 is a witness of Jordan's or Galois' theorem.
  Only the rest get a stabilizer chain of degree k, whose ``is_soluble``
  settles the question: by its order when that is below 60, odd, or has at
  most two prime divisors, and by its derived series otherwise.

Every fast test is property-checked against the plain
``predicate(subgroup(x, y))`` route in the test suite.

``pair_row`` computes a whole Omega(x) row.  Soluble rows take one pair test
per orbit of x-translation, inversion and C_G(x)-conjugation, which leave
<x, g> unchanged up to conjugation.  Those maps are index tables of the
group's regular representation (``FiniteGroup.right_table`` and its
siblings, each a few gathers of the stored generator tables), so the
orbits, taken by ``group._orbits``, and the search for generators of C_G(x)
look up element indices and form no permutation products.  R_x and the
inverse table generate L_x, since inversion, R_x, inversion is L_{x^-1}, so
the orbit walk leaves L_x out; L_x is kept only for the centralizer test.
Abelian rows take no pair test: g_i commutes with x iff L_x and R_x agree
at i, so the row is C_G(x) read off the same two tables.  Nilpotent rows
stay one test per element and build no tables, since the benchmark pins
the pair-test and product counts of the dihedral tower.  Every row passes
``inside`` before it lists the elements.
"""

from __future__ import annotations

from math import lcm
from operator import itemgetter
from typing import Callable, Sequence

from .errors import UnknownName
from .group import FiniteGroup, _conjugation_by, _orbits, _walk, bfs_closure
from .perm import Permutation, commute, inv, mul, prime_component, tuple_order
from .util import Frozen, pi_part, prime_factors

__all__ = [
    "GroupClass",
    "ABELIAN",
    "NILPOTENT",
    "SOLUBLE",
    "BUILTIN_CLASSES",
    "class_by_name",
    "test_pair",
    "pair_row",
]


class GroupClass(Frozen):
    """A class of finite groups closed under subgroups, quotients and
    finite direct products (property-tested by ``checks.closure_audit``).
    Equality and hash ignore ``fast_pair``."""

    def __init__(self, name: str, predicate: Callable[[FiniteGroup], bool],
                 fast_pair: Callable[[FiniteGroup, tuple, tuple], bool] | None = None) -> None:
        self.__dict__.update(name=name, predicate=predicate, fast_pair=fast_pair)

    def _key(self) -> tuple:
        return (self.name, self.predicate)


# ---------------------------------------------------------------------------
# fast pair tests
# ---------------------------------------------------------------------------

def _prime_parts(G: FiniteGroup, t: tuple) -> dict[int, tuple]:
    """The p-part of t for each prime p dividing its order, from the
    group's ``prime_part_cache``, filled on first use."""
    parts = G.prime_part_cache.get(t)
    if parts is None:
        o = tuple_order(t)
        parts = G.prime_part_cache[t] = {
            p: prime_component(t, o, (p,)) for p in prime_factors(o)
        }
    return parts


def _nilpotent_pair(G: FiniteGroup, xt: tuple, yt: tuple) -> bool:
    if commute(xt, yt):
        return True
    ident = G.identity.images
    xparts, yparts = _prime_parts(G, xt), _prime_parts(G, yt)
    primes = sorted(xparts.keys() | yparts.keys())
    # a prime the element's order lacks has the identity as its part; the
    # identity parts stay in the commute checks, whose product count the
    # benchmark pins
    for p in primes:
        a = xparts.get(p, ident)
        for q in primes:
            if p != q:
                b = yparts.get(q, ident)
                if not commute(a, b):
                    return False
    for p in primes:
        # a part that is present is not the identity, so a missing one
        # leaves <a, b> cyclic
        a, b = xparts.get(p), yparts.get(p)
        if a is None or b is None:
            continue
        span = bfs_closure((a, b), G.degree, limit=pi_part(G.order, (p,)))
        if span is None or pi_part(len(span), (p,)) != len(span):
            return False
    return True


def _relabel(xt: tuple, yt: tuple, start: int) -> tuple[tuple[tuple, tuple], list[int]]:
    """The restriction of x and y to the orbit of ``start`` under <x, y>,
    with the points numbered in the order a breadth-first search from
    ``start`` finds them, applying x then y to each; and the orbit points
    in label order, so label i stands for point ``points[i]``."""
    label = {start: 0}
    points = [start]
    xr: list[int] = []
    for p in points:
        q, r = xt[p], yt[p]
        if q not in label:
            label[q] = len(points)
            points.append(q)
        if r not in label:
            label[r] = len(points)
            points.append(r)
        xr.append(label[q])
    return (tuple(xr), tuple([label[yt[p]] for p in points])), points


def restriction_key(
    xt: tuple, yt: tuple, points: Sequence[int]
) -> tuple[tuple[tuple, tuple], list[int]]:
    """The cache key of the restriction of x and y to an orbit of <x, y>,
    given the orbit's ``points`` as ``_relabel`` lists them, with its points
    in label order: the first least ``_relabel`` over the orbit's start
    points, in the order given.  Equal keys mean the same pair of
    permutations up to renaming points; the order of ``points`` does not
    change the key."""
    # x'[0] is 0 exactly when x fixes the start point, and keys compare x'
    # first: when x fixes a point of the orbit, only those starts can win
    starts = [p for p in points if xt[p] == p] or points
    return min((_relabel(xt, yt, s) for s in starts), key=itemgetter(0))


def _has_witness(k: int, words: Sequence[tuple]) -> bool:
    """Whether a power of prime order p of one of ``words`` on k points is a
    p-cycle with p <= k - 3 (Jordan), or, for k prime, fixes two points or
    more (Galois)."""
    prime_degree = prime_factors(k) == [k]
    for w in words:
        lengths = [len(c) for c in Permutation(w).cycles()]
        for p in prime_factors(lcm(*lengths)):
            # w^(o/p), o the order of w, moves exactly the points of the
            # cycles whose lengths hold the largest power of p
            top = max(pi_part(n, (p,)) for n in lengths)
            moved = sum(n for n in lengths if n % top == 0)
            if moved == p <= k - 3 or (prime_degree and moved <= k - 2):
                return True
    return False


def _is_primitive(k: int, gens: Sequence[tuple]) -> bool:
    """Whether the transitive group generated by ``gens`` on k points is
    primitive: for each a, the least block holding 0 and a is every point.
    The block is Atkinson's union-find closure.  Each point queued has just
    been joined to another class, so for each generator g the classes of
    g(s) and g(r) are joined too, r the root of the class of s."""
    for a in range(1, k):
        parent = list(range(k))
        parent[a] = 0
        queue = [a]
        for s in queue:
            if len(queue) == k - 1:
                break
            r = _root(parent, s)
            for g in gens:
                u, v = _root(parent, g[s]), _root(parent, g[r])
                if u != v:
                    parent[v] = u
                    queue.append(v)
        if len(queue) < k - 1:
            return False
    return True


def _root(parent: list[int], p: int) -> int:
    while parent[p] != p:
        p = parent[p]
    return p


def _certified_insoluble(xr: tuple, yr: tuple) -> bool:
    """Whether a standard theorem proves the transitive group <x', y'> on
    k >= 5 points insoluble.  A primitive soluble group has prime-power
    degree (Dixon-Mortimer ch. 4), so a primitive group of any other degree
    is insoluble.  At prime-power degree a witness is looked for first among
    the powers of x', y', x'y' and x'y'^-1: a primitive group holding a
    p-cycle with p <= k - 3 contains Alt(k) (Jordan, Dixon-Mortimer 3.3),
    and no non-identity element of a soluble transitive group of prime
    degree fixes two points (Galois).  A transitive group of prime degree
    is primitive."""
    k = len(xr)
    primes = prime_factors(k)
    if len(primes) == 1 and not _has_witness(k, (xr, yr, mul(xr, yr), mul(xr, inv(yr)))):
        return False
    return primes == [k] or _is_primitive(k, (xr, yr))


def _soluble_restriction(G: FiniteGroup, xr: tuple, yr: tuple) -> bool:
    """Whether the relabelled orbit restriction <x', y'> is soluble.  It is
    transitive on its k points.  For k <= 4 it lies in Sym(4); a
    certificate refutes most longer insoluble ones; only the rest, soluble
    keys among them, get a chain."""
    if len(xr) <= 4:
        return True
    if _certified_insoluble(xr, yr):
        return False
    # the chain gives the order without listing elements, and is_soluble
    # runs the derived series only when the order leaves the answer open
    sub = FiniteGroup(len(xr), [Permutation(xr), Permutation(yr)], cap=G.cap)
    # a restriction as large as G forces <x, y> = G and a faithful restriction
    if sub.order == G.order:
        return G.is_soluble
    return sub.is_soluble


def _soluble_pair(G: FiniteGroup, xt: tuple, yt: tuple) -> bool:
    if commute(xt, yt):
        return True
    # <x, y> embeds in the direct product of its restrictions to its orbits,
    # and maps onto each of them; the class is closed under subgroups,
    # quotients and direct products, so <x, y> is soluble iff every orbit
    # restriction is (Dixon-Mortimer 1.6).  Relabelling points keeps
    # solubility, so each restriction is decided once per group and key.
    # The cache is asked first for the relabelling from the orbit's least
    # point, which conjugate pairs share when the conjugating element fixes
    # that point; only on a miss is the least relabelling over all start
    # points searched for, and the verdict is stored under both.
    cache = G.restriction_cache
    seen = bytearray(G.degree)
    for start in range(G.degree):
        if seen[start]:
            continue
        # every relabelling lists the whole orbit
        first = _relabel(xt, yt, start)
        for p in first[1]:
            seen[p] = 1
        result = cache.get(first[0])
        if result is None:
            key = restriction_key(xt, yt, first[1])[0]
            result = cache.get(key)
            if result is None:
                result = cache[key] = _soluble_restriction(G, *key)
            cache[first[0]] = result
        if not result:
            return False
    return True


ABELIAN = GroupClass("abelian", lambda G: G.is_abelian, lambda G, xt, yt: commute(xt, yt))
NILPOTENT = GroupClass("nilpotent", lambda G: G.is_nilpotent, _nilpotent_pair)
SOLUBLE = GroupClass("soluble", lambda G: G.is_soluble, _soluble_pair)

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

def inside(C: GroupClass, G: FiniteGroup) -> bool:
    """Whether G itself lies in the class, so that, the class being
    subgroup-closed, every pair of G passes.  For the callers that list G's
    elements: the cap comes first, so a group above it is refused as its
    element list would be, and the predicate's series are built and dropped
    before any list exists."""
    G.check_cap()
    return C.predicate(G)


def test_pair(C: GroupClass, G: FiniteGroup, x: Permutation, y: Permutation) -> bool:
    """Whether <x, y> lies in the class.  Verdicts are cached per (G, C);
    a group inside the class needs none, since the class is subgroup-closed."""
    G._require_member(x)
    G._require_member(y)
    return C.predicate(G) or pair_in_group(C, G, x.images, y.images)


def pair_key(xt: tuple, yt: tuple) -> tuple[tuple, tuple]:
    """The pair cache key: least first, since <x, y> = <y, x>."""
    return (xt, yt) if xt <= yt else (yt, xt)


def decide_pair(C: GroupClass, G: FiniteGroup, xt: tuple, yt: tuple) -> bool:
    """Whether <x, y> lies in the class, by the class's fast test or else
    its predicate on <x, y>; membership is assumed.  Caches no verdict."""
    if C.fast_pair is not None:
        return C.fast_pair(G, xt, yt)
    return C.predicate(FiniteGroup(G.degree, [Permutation(xt), Permutation(yt)], cap=G.cap))


def pair_in_group(C: GroupClass, G: FiniteGroup, xt: tuple, yt: tuple) -> bool:
    """``decide_pair`` through G's pair cache: each verdict is decided once
    per group and class.  The caller settles membership and whether G lies
    in the class.  A built-in class keeps its verdicts under its name, any
    other class under itself, so unequal classes of one name never share
    a verdict."""
    bucket = C.name if BUILTIN_CLASSES.get(C.name) is C else C
    cache = G.pair_cache.setdefault(bucket, {})
    key = pair_key(xt, yt)
    hit = cache.get(key)
    if hit is None:
        hit = cache[key] = decide_pair(C, G, xt, yt)
    return hit


def pair_row(C: GroupClass, G: FiniteGroup, xt: tuple) -> frozenset[int]:
    """The indices i for which <x, g_i> lies in the class, g_i the i-th
    element of the enumeration; membership of x is assumed.

    Soluble rows are computed one orbit at a time.  <x, g> is the same
    subgroup for g, xg, gx and g^-1, and for c in C_G(x) the subgroup
    <x, c^-1 g c> is conjugate to it, so the answer is constant on the
    orbits of the group these maps generate.  The maps act on indices as
    the group's tables R_x, the inverse table and one conjugation table per
    centralizer generator, so ``_orbits`` only looks up indices.  L_x needs
    no map of its own: inversion, R_x, inversion is L_{x^-1}, so R_x and
    the inverse table generate L_x, which is kept only for the centralizer
    test.  One ``pair_in_group`` call on each orbit's least index decides
    the whole orbit; the calls run in order of that index.

    Abelian rows run no pair test: g_i commutes with x iff x g_i = g_i x,
    that is, iff L_x and R_x agree at i.  Every other class takes one pair
    test per element.  A group above the cap is refused, and a group inside
    the class gets the full row, before any element is listed.
    """
    if inside(C, G):
        return frozenset(range(G.order))
    elems = G.element_tuples()
    # nilpotent rows stay per element and build no tables: the benchmark pins
    # the pair-test and product counts of `tower dihedral 3 6`
    if C != ABELIAN and C != SOLUBLE:
        return frozenset(i for i in range(G.order) if pair_in_group(C, G, xt, elems[i]))
    x = G._index[xt]
    right, left = G.right_table(x), G.left_table(x)
    if C == ABELIAN:
        return frozenset(i for i in range(G.order) if left[i] == right[i])
    inverse = G.inverse_table()
    maps = [right, inverse,
            *(_conjugation_by(inverse, r) for r in _centralizer_tables(G, right, left))]
    passing: list[int] = []
    for orbit in _orbits(G.order, maps):
        if pair_in_group(C, G, xt, elems[orbit[0]]):
            passing += orbit
    return frozenset(passing)


def _centralizer_tables(G: FiniteGroup, right: list[int], left: list[int]) -> list[list[int]]:
    """The right tables R_c of elements c that generate C_G(x) together
    with x, given x's tables R_x and L_x, taken greedily in enumeration
    order: g_i commutes with x iff ``left[i] == right[i]``, and joins when
    the span of x and the earlier ones misses it.  The span grows by a walk
    over the right tables of its generators from the identity.  Conjugation
    by x itself is left out, since the two x-translations already give it."""
    maps = [right]
    in_span = bytearray(G.order)
    in_span[0] = 1
    span = _walk([0], maps, in_span)
    for i in range(G.order):
        if not in_span[i] and left[i] == right[i]:
            maps.append(G.right_table(i))
            _walk(span, maps, in_span)
    return maps[1:]


def pair_by_predicate(C: GroupClass, G: FiniteGroup, x: Permutation, y: Permutation) -> bool:
    """Uncached, fast-path-free route: build <x,y> and apply the predicate.

    This is the reference implementation that the fast tests are checked
    against; it is deliberately independent of ``test_pair`` internals.
    """
    return C.predicate(G.subgroup([x, y]))

