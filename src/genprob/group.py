"""Finite permutation group engine.

A ``FiniteGroup`` is built from generators and carries a stabilizer chain
(base points + strong generators), which gives exact order and membership
without materializing elements.  Element materialization is a separate,
capped step used by the counting machinery.

The canonical element enumeration is a breadth-first closure from the
generators in fixed generator order, each new level sorted by image tuple,
so index 0 is always the identity and the ordering is reproducible.

Orbits of index maps come from ``_orbits``: conjugacy classes, soluble
Omega(x) rows, the left cosets of a cyclic subgroup, and the right cosets of
any subgroup (``coset_partition``, under ``quotient``).
"""

from __future__ import annotations

import math
from functools import cached_property
from typing import Callable, Iterable, Sequence

from .errors import CapExceeded, DegreeMismatch, NotInGroup, NotNormal, ParseError
from .perm import Permutation, commute, conj, identity_tuple, inv, mul
from .util import Frozen, prime_factors

__all__ = [
    "FiniteGroup",
    "ElementSet",
    "bfs_closure",
    "DEFAULT_MATERIALIZATION_CAP",
    "direct_product",
    "parse_group_spec",
    "format_group_spec",
]

DEFAULT_MATERIALIZATION_CAP = 100_000

_SMALLEST_INSOLUBLE = 60  # |Alt(5)|; every group below this order is soluble


def _order_forces_soluble(n: int) -> bool:
    """Orders that admit no insoluble group: odd (Feit-Thompson) or with at
    most two prime divisors (Burnside)."""
    return n < _SMALLEST_INSOLUBLE or n % 2 == 1 or len(prime_factors(n)) <= 2


def _comm(a: tuple[int, ...], b: tuple[int, ...]) -> tuple[int, ...]:
    return mul(mul(inv(a), inv(b)), mul(a, b))


def _gather(cur: list[int], *tables: list[int]) -> list[int]:
    """``cur`` mapped through each table in turn: index maps compose as
    lookups, ``_gather(cur, s, t)[i] == t[s[cur[i]]]``."""
    for t in tables:
        cur = list(map(t.__getitem__, cur))
    return cur


def _conjugation_by(inverse: list[int], right_c: list[int]) -> list[int]:
    """Conjugation by c from R_c: g -> g^-1 -> g^-1 c -> c^-1 g -> c^-1 g c."""
    return _gather(inverse, right_c, inverse, right_c)


def _walk(orbit: list[int], maps: Sequence[list[int]], seen: bytearray) -> list[int]:
    """Grow ``orbit``, whose members are marked in ``seen``, to its closure
    under the index maps, marking each index it adds."""
    for i in orbit:
        for t in maps:
            j = t[i]
            if not seen[j]:
                seen[j] = 1
                orbit.append(j)
    return orbit


def _orbits(n: int, maps: Sequence[list[int]]) -> list[list[int]]:
    """The orbits on 0..n-1 of the group the index maps generate, ordered by
    their least index, each listing that index first."""
    seen = bytearray(n)
    orbits = []
    for start in range(n):
        if not seen[start]:
            seen[start] = 1
            orbits.append(_walk([start], maps, seen))
    return orbits


def bfs_closure(gens: Sequence[tuple[int, ...]], degree: int,
                limit: int) -> list[tuple[int, ...]] | None:
    """Breadth-first multiplicative closure of the generators from the
    identity, in generator order, each new level sorted by image tuple;
    None as soon as it passes ``limit`` elements."""
    ident = identity_tuple(degree)
    seen = {ident}
    out = [ident]
    frontier = [ident]
    while frontier:
        new = []
        for e in frontier:
            for g in gens:
                f = mul(e, g)
                if f not in seen:
                    seen.add(f)
                    if len(seen) > limit:
                        return None
                    new.append(f)
        new.sort()
        out.extend(new)
        frontier = new
    return out


# ---------------------------------------------------------------------------
# Stabilizer chain (deterministic Schreier-Sims)
# ---------------------------------------------------------------------------

class _Level:
    __slots__ = ("point", "gens", "orbit")

    def __init__(self, point: int, degree: int):
        self.point = point
        self.gens: list[tuple[int, ...]] = []
        # orbit[x] = u^-1 for the transversal perm u with u(point) = x,
        # stored inverted since sifting multiplies by the inverse
        self.orbit: dict[int, tuple[int, ...]] = {point: identity_tuple(degree)}


class StabilizerChain:
    """Base and strong generating set for a permutation group."""

    def __init__(self, degree: int, gens: Iterable[tuple[int, ...]]):
        self.degree = degree
        self.levels: list[_Level] = []
        ident = identity_tuple(degree)
        for g in gens:
            if g != ident:
                self._insert(g, 0, 0)

    def order(self) -> int:
        return math.prod(len(lv.orbit) for lv in self.levels)

    def sift(self, p: tuple[int, ...], start: int = 0) -> tuple[tuple[int, ...], int]:
        """Strip p through the chain; returns (residue, level reached)."""
        for i in range(start, len(self.levels)):
            lv = self.levels[i]
            img = p[lv.point]
            u_inv = lv.orbit.get(img)
            if u_inv is None:
                return p, i
            p = mul(p, u_inv)
        return p, len(self.levels)

    def contains(self, p: tuple[int, ...]) -> bool:
        residue, _ = self.sift(p)
        return residue == identity_tuple(self.degree)

    def _insert(self, p: tuple[int, ...], first: int, last: int) -> None:
        """Install p as a strong generator at levels first..last, then re-close.

        p fixes the base points of all levels before `last`, so it belongs in
        the generating set of every level in the range, not just the deepest;
        skipping the intermediate levels breaks the subgroup-chain invariant
        the order computation relies on.
        """
        for k in range(first, last + 1):
            if k == len(self.levels):
                point = next(i for i in range(self.degree) if p[i] != i)
                self.levels.append(_Level(point, self.degree))
            lv = self.levels[k]
            lv.gens.append(p)
            self._recompute_orbit(lv)
        for k in range(last, first - 1, -1):
            self._close_level(k)

    def _recompute_orbit(self, lv: _Level) -> None:
        # the transversal of y = g[x] is u g, stored as g^-1 u^-1
        gens = [(g, inv(g)) for g in lv.gens]
        lv.orbit = {lv.point: identity_tuple(self.degree)}
        points = [lv.point]
        for x in points:
            u_inv = lv.orbit[x]
            for g, g_inv in gens:
                y = g[x]
                if y not in lv.orbit:
                    lv.orbit[y] = mul(g_inv, u_inv)
                    points.append(y)

    def _close_level(self, level: int) -> None:
        lv = self.levels[level]
        ident = identity_tuple(self.degree)
        for x in list(lv.orbit):
            u = inv(lv.orbit[x])
            for g in lv.gens:
                schreier = mul(mul(u, g), lv.orbit[g[x]])
                if schreier == ident:
                    continue
                residue, j = self.sift(schreier, level + 1)
                if residue != ident:
                    self._insert(residue, level + 1, j)


# ---------------------------------------------------------------------------
# FiniteGroup
# ---------------------------------------------------------------------------

class FiniteGroup:
    """A finite permutation group given by generators.

    Generators, chain and order are fixed; the element list, the regular
    representation tables, class data, pair cache, soluble restriction cache,
    prime-part table and Omega(x) row store fill in lazily, so do not share
    a group between threads.  ``elements()`` lists every element, gated by
    ``cap``.

    Once the elements are listed, maps of the group on itself act on element
    indices as tables: ``t[i]`` is the index of the image of g_i.  The
    regular representation is stored once, as one right-multiplication
    table per generator, the inverse table and one generator word per
    element.  Every other table is a few ``_gather`` calls on those:
    right multiplication R_x composes the generator tables along x's word,
    left multiplication is L_x = inverse, R_{x^-1}, inverse, and conjugation
    by c is L_{c^-1} followed by R_c, with no permutation products.
    """

    def __init__(
        self,
        degree: int,
        generators: Sequence[Permutation],
        cap: int = DEFAULT_MATERIALIZATION_CAP,
        name: str | None = None,
    ):
        if degree < 1:
            raise ValueError("degree must be positive")
        for g in generators:
            if g.degree != degree:
                raise DegreeMismatch(
                    f"generator {g} has degree {g.degree}, expected {degree}"
                )
        chain = StabilizerChain(degree, (g.images for g in generators))
        self._set_fields(degree, generators, chain, cap, name)

    def _set_fields(self, degree: int, generators: Sequence[Permutation],
                    chain: StabilizerChain, cap: int, name: str | None) -> None:
        """Set every instance attribute; ``__init__`` and normal closures,
        which arrive with a built chain, both come through here."""
        self.degree = degree
        self.generators = tuple(generators)
        self.cap = cap
        self.name = name
        self._gen_tuples = tuple(g.images for g in generators)
        self.chain = chain
        self.order: int = chain.order()
        self._elements: list[tuple[int, ...]] | None = None
        self._index: dict[tuple[int, ...], int] | None = None
        # shared caches used by the class / probability machinery: pair
        # verdicts per class (``classes.pair_in_group``), and Omega(x) rows
        # keyed by (class, image tuple of x)
        self.pair_cache: dict[object, dict[tuple, bool]] = {}
        self.row_cache: dict[tuple[object, tuple[int, ...]], ElementSet] = {}
        # soluble pair test: orbit restriction -> soluble, keyed both by its
        # relabelling from its least point and by its canonical key
        self.restriction_cache: dict[tuple[tuple[int, ...], tuple[int, ...]], bool] = {}
        # nilpotent pair test: element -> {prime dividing its order: p-part}
        self.prime_part_cache: dict[tuple[int, ...], dict[int, tuple[int, ...]]] = {}
        self._class_data: tuple | None = None
        self._regular: tuple | None = None

    # -- identity / keys ----------------------------------------------------

    @cached_property
    def identity(self) -> Permutation:
        return Permutation.identity(self.degree)

    def __repr__(self) -> str:
        label = self.name or f"degree-{self.degree} group"
        return f"<FiniteGroup {label} of order {self.order}>"

    # -- membership ----------------------------------------------------------

    def contains(self, p: Permutation) -> bool:
        if p.degree != self.degree:
            raise DegreeMismatch(
                f"element degree {p.degree} does not match group degree {self.degree}"
            )
        return self.chain.contains(p.images)

    def __contains__(self, p: Permutation) -> bool:
        return self.contains(p)

    def _require_member(self, p: Permutation) -> None:
        if not self.contains(p):
            raise NotInGroup(f"{p} is not an element of {self!r}")

    def _require_set(self, S: "ElementSet") -> None:
        """Refuse a set of another group's enumeration, which the degree and
        generator tuples fix, before anything is listed."""
        if (S.group.degree, S.group._gen_tuples) != (self.degree, self._gen_tuples):
            raise NotInGroup(f"a set of {S.group!r} is not a set of {self!r}")

    # -- canonical enumeration ------------------------------------------------

    def elements(self) -> list[Permutation]:
        return [Permutation(t) for t in self.element_tuples()]

    def check_cap(self) -> None:
        """Refuse a group above the cap, without listing anything: the one
        check that guards every element listing."""
        if self.order > self.cap:
            raise CapExceeded(
                f"order {self.order} exceeds materialization cap {self.cap}"
            )

    def element_tuples(self) -> list[tuple[int, ...]]:
        if self._elements is None:
            self.check_cap()
            out = bfs_closure(self._gen_tuples, self.degree, self.order)
            assert out is not None
            self._elements = out
            self._index = {t: i for i, t in enumerate(out)}
        return self._elements

    def index_of(self, p: Permutation | tuple[int, ...]) -> int:
        t = p.images if isinstance(p, Permutation) else p
        self.element_tuples()
        assert self._index is not None
        try:
            return self._index[t]
        except KeyError:
            raise NotInGroup(f"element not in group {self!r}") from None

    def element_at(self, index: int) -> Permutation:
        """The element at ``index`` of the enumeration; an index outside
        0..order-1 is refused, since a negative one would count from the end."""
        if not 0 <= index < self.order:
            raise IndexError(f"element index {index} is not in 0..{self.order - 1}")
        return Permutation(self.element_tuples()[index])

    @property
    def is_materialized(self) -> bool:
        return self._elements is not None

    # -- subgroup construction -------------------------------------------------

    def subgroup(self, gens: Sequence[Permutation], name: str | None = None) -> "FiniteGroup":
        for g in gens:
            self._require_member(g)
        return FiniteGroup(self.degree, gens, cap=self.cap, name=name)

    def normal_closure(self, gens: Sequence[Permutation]) -> "FiniteGroup":
        """Smallest normal subgroup of this group containing ``gens``."""
        for g in gens:
            self._require_member(g)
        return self._normal_closure_tuples([g.images for g in gens])

    def _normal_closure_tuples(self, seed: list[tuple[int, ...]]) -> "FiniteGroup":
        ident = identity_tuple(self.degree)
        closure_gens = [t for t in seed if t != ident]
        chain = StabilizerChain(self.degree, closure_gens)
        worklist = list(closure_gens)
        while worklist:
            t = worklist.pop()
            for g in self._gen_tuples:
                c = conj(t, g)
                if not chain.contains(c):
                    closure_gens.append(c)
                    worklist.append(c)
                    chain._insert(c, 0, 0)
        sub = FiniteGroup.__new__(FiniteGroup)
        sub._set_fields(self.degree, [Permutation(t) for t in closure_gens],
                        chain, self.cap, None)
        return sub

    # -- elementwise structure ---------------------------------------------------

    def centralizer(self, x: Permutation) -> "ElementSet":
        self._require_member(x)
        xt = x.images
        members = frozenset(
            i for i, t in enumerate(self.element_tuples()) if commute(t, xt)
        )
        return ElementSet(self, members)

    def center(self) -> "ElementSet":
        """The elements that commute with every generator: the indices that
        every conjugation table fixes."""
        tables = self.conjugation_tables()
        members = frozenset(
            i for i in range(self.order) if all(t[i] == i for t in tables)
        )
        return ElementSet(self, members)

    def conjugacy_classes(self) -> list[tuple[Permutation, int]]:
        """(enumeration-minimal representative, class size) per class."""
        reps, sizes, _ = self._conjugacy_data()
        return [(self.element_at(r), s) for r, s in zip(reps, sizes)]

    # -- regular representation ------------------------------------------------

    def _regular_tables(self) -> tuple[list[list[int]], list[int], list[tuple[int, ...]]]:
        """(right tables, inverse table, words), built once.

        ``right[k][i]`` is the index of g_i s_k, s_k the k-th generator;
        ``inverse[i]`` the index of g_i^-1; ``words[i]`` the generator
        numbers whose product, in order, is g_i, found by a breadth-first
        search over the right tables from the identity.
        """
        if self._regular is None:
            elems = self.element_tuples()
            index = self._index
            assert index is not None
            right = [[index[mul(t, s)] for t in elems] for s in self._gen_tuples]
            inverse = [index[inv(t)] for t in elems]
            words: list[tuple[int, ...] | None] = [None] * self.order
            words[0] = ()
            order = [0]
            for i in order:
                for k, r in enumerate(right):
                    j = r[i]
                    if words[j] is None:
                        words[j] = words[i] + (k,)
                        order.append(j)
            self._regular = (right, inverse, words)
        return self._regular

    def inverse_table(self) -> list[int]:
        """``t[i]`` is the index of g_i^-1."""
        return self._regular_tables()[1]

    def right_table(self, x: int) -> list[int]:
        """R_x: ``t[i]`` is the index of g_i g_x, the right tables composed
        along the word of g_x."""
        right, _, words = self._regular_tables()
        return _gather(list(range(self.order)), *(right[k] for k in words[x]))

    def left_table(self, x: int) -> list[int]:
        """L_x: ``t[i]`` is the index of g_x g_i, which is
        (g_i^-1 g_x^-1)^-1, so L_x is inverse, R_{x^-1}, inverse."""
        inverse = self.inverse_table()
        return _gather(inverse, self.right_table(inverse[x]), inverse)

    def conjugation_tables(self) -> list[list[int]]:
        """Conjugation by each generator s, in generator order: ``t[i]`` is
        the index of s^-1 g_i s, L_{s^-1} followed by R_s."""
        right, inverse, _ = self._regular_tables()
        return [_conjugation_by(inverse, r) for r in right]

    def _conjugacy_data(self) -> tuple[list[int], list[int], list[int]]:
        """Returns (rep indices, class sizes, class id per element).

        The classes are the ``_orbits`` of the conjugation tables, so each
        representative is its class's least index.
        """
        if self._class_data is None:
            classes = _orbits(self.order, self.conjugation_tables())
            class_of = [0] * self.order
            for cid, members in enumerate(classes):
                for i in members:
                    class_of[i] = cid
            self._class_data = ([c[0] for c in classes], [len(c) for c in classes], class_of)
        return self._class_data

    # -- series and predicates ------------------------------------------------

    def derived_subgroup(self) -> "FiniteGroup":
        gens = self._gen_tuples
        seed = [
            _comm(a, b) for i, a in enumerate(gens) for b in gens[i + 1:]
        ]
        return self._normal_closure_tuples(seed)

    def _descending_series(
        self, step: Callable[["FiniteGroup"], "FiniteGroup"]
    ) -> list["FiniteGroup"]:
        """This group, then ``step`` of the last term, until the order stops
        falling."""
        series = [self]
        while series[-1].order > 1:
            nxt = step(series[-1])
            if nxt.order == series[-1].order:
                break
            series.append(nxt)
        return series

    def derived_series(self) -> list["FiniteGroup"]:
        """Descending derived series, stopping when it stabilizes."""
        return self._descending_series(FiniteGroup.derived_subgroup)

    def lower_central_series(self) -> list["FiniteGroup"]:
        """Lower central series: the normal closure in this group of the
        commutators of its generators with the last term's."""
        return self._descending_series(lambda H: self._normal_closure_tuples(
            [_comm(g, c) for g in self._gen_tuples for c in H._gen_tuples]))

    def upper_central_series(self) -> list["ElementSet"]:
        """Ascending central series as element sets, ending at the hypercenter.

        Z_{i+1} = { x : [x,g] in Z_i for every generator g }, which needs only
        membership in the previous term, never a quotient group.
        """
        elems = self.element_tuples()
        gens = [(inv(g), g) for g in self._gen_tuples]
        current: frozenset[int] = frozenset({0})
        series = [ElementSet(self, current)]
        while True:
            members = set()
            for i, t in enumerate(elems):
                ti = inv(t)
                ok = True
                for gi, g in gens:
                    c = mul(mul(ti, gi), mul(t, g))
                    if self.index_of(c) not in current:
                        ok = False
                        break
                if ok:
                    members.add(i)
            nxt = frozenset(members)
            if nxt == current:
                break
            series.append(ElementSet(self, nxt))
            current = nxt
        return series

    @cached_property
    def is_abelian(self) -> bool:
        gens = self._gen_tuples
        return all(commute(a, b) for i, a in enumerate(gens) for b in gens[i + 1:])

    @cached_property
    def is_nilpotent(self) -> bool:
        return self.lower_central_series()[-1].order == 1

    @cached_property
    def is_soluble(self) -> bool:
        """The order decides it when it admits no insoluble group; otherwise
        the derived series does."""
        return _order_forces_soluble(self.order) or self.derived_series()[-1].order == 1

    # -- quotients ---------------------------------------------------------------

    def quotient(
        self, normal: "FiniteGroup"
    ) -> tuple["FiniteGroup", Callable[[Permutation], Permutation]]:
        """Quotient by a normal subgroup, as the action on its right cosets.

        Returns the quotient group and the projection homomorphism.
        Normality is verified by conjugating each subgroup generator by each
        group generator.  The cosets come from ``coset_partition``, so this
        group's elements are listed and it must lie within the cap.
        """
        if normal.degree != self.degree:
            raise DegreeMismatch(f"subgroup degree {normal.degree} is not {self.degree}")
        for ng in normal._gen_tuples:
            if not self.chain.contains(ng):
                raise NotInGroup("subgroup is not contained in the group")
            for g in self._gen_tuples:
                if not normal.chain.contains(conj(ng, g)):
                    raise NotNormal("subgroup is not normal")
        elems = self.element_tuples()
        part_of = {elems[i]: k for k, part in enumerate(self.coset_partition(normal))
                   for i in part.members}
        # number the right cosets Ng breadth-first from N (the first part),
        # in canonical generator order
        reps = [elems[0]]
        number = {0: 0}
        for rep in reps:
            for g in self._gen_tuples:
                t = mul(rep, g)
                if part_of[t] not in number:
                    number[part_of[t]] = len(reps)
                    reps.append(t)

        def project(p: Permutation) -> Permutation:
            self._require_member(p)
            return Permutation(tuple(number[part_of[mul(rep, p.images)]] for rep in reps))

        quotient_group = FiniteGroup(
            len(reps),
            [project(g) for g in self.generators],
            cap=self.cap,
            name=f"{self.name}/N" if self.name else None,
        )
        return quotient_group, project

    # -- cosets --------------------------------------------------------------------

    def coset_partition(self, sub: "FiniteGroup") -> list["ElementSet"]:
        """Partition of the group into right cosets of ``sub``, in index
        order.  The coset Ng is the orbit of g under left multiplication by
        N, so the cosets are the ``_orbits`` of the left tables of the
        generators of ``sub``, which must lie in this group."""
        tables = [self.left_table(self.index_of(t)) for t in sub._gen_tuples]
        return [ElementSet(self, frozenset(c)) for c in _orbits(self.order, tables)]


class ElementSet(Frozen):
    """A subset of a materialized group, stored as canonical element indices.
    Equality and hash are those of the index set alone."""

    __slots__ = ("group", "members")

    def __init__(self, group: FiniteGroup, members: frozenset[int] = frozenset()) -> None:
        n = group.order
        if any(not 0 <= i < n for i in members):
            raise ValueError("member index out of range")
        object.__setattr__(self, "group", group)
        object.__setattr__(self, "members", members)

    def _key(self) -> tuple:
        return (self.members,)

    def __reduce__(self):
        return ElementSet, (self.group, self.members)

    def __len__(self) -> int:
        return len(self.members)

    def __contains__(self, p: Permutation) -> bool:
        """Answered as ``FiniteGroup.__contains__`` answers: an element of
        another degree is refused, one outside the group is not in the set."""
        try:
            return self.group.index_of(p) in self.members
        except NotInGroup:
            # index_of finds every element of the group, so this refuses
            # another degree or answers False
            return self.group.contains(p)

    def perms(self) -> list[Permutation]:
        return [self.group.element_at(i) for i in sorted(self.members)]

    def as_subgroup(self, name: str | None = None) -> FiniteGroup:
        return self.group.subgroup(self.perms(), name=name)


# ---------------------------------------------------------------------------
# Constructors and text format
# ---------------------------------------------------------------------------

def direct_product(a: FiniteGroup, b: FiniteGroup, name: str | None = None) -> FiniteGroup:
    """Direct product as a permutation group on the disjoint union of supports."""
    degree = a.degree + b.degree
    gens = [
        Permutation(g.images + tuple(range(a.degree, degree))) for g in a.generators
    ] + [
        Permutation(tuple(range(a.degree)) + tuple(v + a.degree for v in g.images))
        for g in b.generators
    ]
    return FiniteGroup(degree, gens, cap=max(a.cap, b.cap), name=name)


def parse_group_spec(text: str, cap: int = DEFAULT_MATERIALIZATION_CAP,
                     name: str | None = None) -> FiniteGroup:
    """Parse the group-spec text format.

    First line: ``degree N``, N at most ``cap``.  Each following non-empty
    line is one generator in 1-indexed cycle notation.  Lines starting with
    ``#`` are comments.
    """
    lines = text.splitlines()
    degree = None
    gens: list[Permutation] = []
    for lineno, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if degree is None:
            parts = line.split()
            try:
                if len(parts) != 2 or parts[0] != "degree":
                    raise ValueError
                # int, not str.isdigit, which also accepts digits such as '²'
                degree = int(parts[1])
            except ValueError:
                raise ParseError("expected 'degree N' header", line=lineno) from None
            if degree < 1:
                raise ParseError("degree must be positive", line=lineno)
            # every generator lists its degree images, so a degree past the
            # cap is refused before any is built
            if degree > cap:
                raise CapExceeded(f"degree {degree} exceeds cap {cap}")
            continue
        try:
            gens.append(Permutation.parse(line, degree))
        except ParseError as exc:
            raise ParseError(str(exc), line=lineno) from None
    if degree is None:
        raise ParseError("missing 'degree N' header", line=len(lines) or 1)
    return FiniteGroup(degree, gens, cap=cap, name=name)


def format_group_spec(group: FiniteGroup) -> str:
    lines = [f"degree {group.degree}"]
    lines.extend(str(g) for g in group.generators)
    return "\n".join(lines) + "\n"
