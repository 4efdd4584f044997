"""Explicit arithmetic in Alt(5) wr Alt(5) and verification of the finite
steps behind the tower construction.

The wreath product has base Alt(5)^60 indexed by the canonical enumeration
of the top group, with the top acting by the regular action.  Only the first
level (base length 60) is materialized; level two would have base length
60^61 and is out of reach by design.

An element (f, s) is stored as one permutation of d*60 = 300 points, d = 5
the degree of the bottom group: point ``d*x + p`` goes to
``d*(x.s) + f(x)(p)``, where ``x.s`` is the index of ``elements[x] * s``.
Composing two such maps left to right, as ``perm.mul`` does, gives for
a = (f, s) and b = (g, t) the product ``(a*b).base[x] = f(x) * g(x.s)`` and
``(a*b).top = s*t``.  This is the one convention under which conjugating a
base-only element w by rho = m*z satisfies
``(w^rho)[x] = (w[x*z^-1]) conjugated by m[x*z^-1]``, which the regression
tests pin down.
"""

from __future__ import annotations

import random
from functools import cached_property, lru_cache
from itertools import chain
from typing import NamedTuple, Sequence

from .errors import GroupError, NotInGroup
from .group import FiniteGroup, _orbits
from .perm import Permutation, conj, identity_tuple, inv, mul, tuple_order, tuple_power
from .util import Frozen, Record

__all__ = [
    "WreathLevel",
    "WreathElement",
    "Transversal",
    "alt5",
    "base_level",
    "canonical_transversal",
    "shifted_transversal",
    "build_m",
    "build_g",
    "compute_h",
    "projection",
    "verify_alpha_beta_generation",
    "verify_lemma_mechanism",
    "ALPHA",
    "BETA",
]

ALPHA = Permutation.parse("(1,2,3)", 5)
BETA = Permutation.parse("(1,2,3,4,5)", 5)


@lru_cache(maxsize=1)
def alt5() -> FiniteGroup:
    return FiniteGroup(5, [ALPHA, BETA], name="A5")


class WreathLevel(Frozen):
    """One level of the tower: bottom wr top with the regular action."""

    def __init__(self, top: FiniteGroup, bottom: FiniteGroup) -> None:
        self.__dict__.update(top=top, bottom=bottom)

    def _key(self) -> tuple:
        return (self.top, self.bottom)

    @property
    def base_length(self) -> int:
        return self.top.order

    def order(self) -> int:
        return self.bottom.order ** self.top.order * self.top.order

    @cached_property
    def _shifts(self) -> dict[tuple[int, ...], tuple[int, ...]]:
        """Regular action: each top element s as the index map x -> x.s."""
        return {s: tuple(self.top.right_table(i))
                for i, s in enumerate(self.top.element_tuples())}

    @cached_property
    def _blocks(self) -> tuple[dict[tuple[int, ...], tuple[int, ...]], ...]:
        """One table per top index x: each bottom element y, by its image
        tuple, to its block ``d*x + y(p)`` of an element's images."""
        d = self.bottom.degree
        bottom = self.bottom.element_tuples()
        return tuple(
            {y: tuple(d * x + v for v in y) for y in bottom}
            for x in range(self.base_length)
        )

    def element(self, base: Sequence[Permutation], s: Permutation) -> "WreathElement":
        """The element (base, s); ``base[x]`` is the coordinate at top index x."""
        if len(base) != self.base_length:
            raise GroupError("base length mismatch")
        shift = self._shifts.get(s.images)
        if shift is None:
            raise NotInGroup(f"{s} is not an element of {self.top!r}")
        blocks = self._blocks
        try:
            # block x is base[x] placed at the block of x.s
            images = tuple(chain.from_iterable(
                [blocks[xs][y.images] for y, xs in zip(base, shift)]))
        except KeyError:
            raise NotInGroup(f"a base entry is not an element of {self.bottom!r}") from None
        return WreathElement(images, self)

    def identity(self) -> "WreathElement":
        return WreathElement(identity_tuple(self.bottom.degree * self.base_length), self)

    def from_base(self, coords: dict[Permutation, Permutation]) -> "WreathElement":
        base = [self.bottom.identity] * self.base_length
        for x, y in coords.items():
            base[self.top.index_of(x)] = y
        return self.element(base, self.top.identity)

    def from_top(self, s: Permutation) -> "WreathElement":
        return self.element((self.bottom.identity,) * self.base_length, s)

    def multiply(self, a: "WreathElement", b: "WreathElement") -> "WreathElement":
        return WreathElement(mul(a.images, b.images), self)

    def inverse(self, a: "WreathElement") -> "WreathElement":
        return WreathElement(inv(a.images), self)

    def power(self, a: "WreathElement", k: int) -> "WreathElement":
        images = a.images if k >= 0 else inv(a.images)
        return WreathElement(tuple_power(images, abs(k)), self)

    def conjugate(self, w: "WreathElement", rho: "WreathElement") -> "WreathElement":
        return WreathElement(conj(w.images, rho.images), self)

    def element_order(self, a: "WreathElement") -> int:
        return tuple_order(a.images)


class WreathElement(Frozen):
    """An element of ``level`` as its image tuple (see the module docstring).
    Equality and hash are those of the image tuple."""

    def __init__(self, images: tuple[int, ...], level: WreathLevel) -> None:
        self.__dict__.update(images=images, level=level)

    def _key(self) -> tuple:
        return (self.images,)

    def coordinate(self, x: int) -> Permutation:
        """The base coordinate at top index x, decoded from block x alone."""
        d = self.level.bottom.degree
        return Permutation(tuple(v % d for v in self.images[d * x:d * x + d]))

    @property
    def base(self) -> tuple[Permutation, ...]:
        return tuple(self.coordinate(x) for x in range(self.level.base_length))

    @property
    def top(self) -> Permutation:
        return self.level.top.element_at(self.images[0] // self.level.bottom.degree)

    @property
    def in_socle(self) -> bool:
        return self.images[0] < self.level.bottom.degree


class Transversal(Frozen):
    """Left-coset representatives of <g> in the top group, identity included.
    Equality and hash are those of the representatives."""

    def __init__(self, representatives: tuple[Permutation, ...], g: Permutation) -> None:
        if not any(r.is_identity() for r in representatives):
            raise GroupError("transversal must contain the identity")
        self.__dict__.update(representatives=representatives, g=g)

    def _key(self) -> tuple:
        return (self.representatives,)


def _left_cosets(top: FiniteGroup, g: Permutation) -> list[list[int]]:
    """The left cosets x<g> as index lists: the orbits of g's right table
    x -> xg, each listing its least index first."""
    return _orbits(top.order, [top.right_table(top.index_of(g))])


def canonical_transversal(top: FiniteGroup, g: Permutation) -> Transversal:
    """The least element of each left coset of <g> in the canonical
    enumeration, in index order.  Index 0 is the identity, so 1 is in T."""
    return Transversal(tuple(top.element_at(c[0]) for c in _left_cosets(top, g)), g)


def shifted_transversal(top: FiniteGroup, g: Permutation, shift: int = 1) -> Transversal:
    """A different valid transversal: every non-identity representative is
    multiplied by g^shift (staying inside its left coset)."""
    base = canonical_transversal(top, g)
    reps = tuple(
        r if r.is_identity() else r * g ** shift for r in base.representatives
    )
    return Transversal(reps, g)


def random_transversal(top: FiniteGroup, g: Permutation, seed: int) -> Transversal:
    rng = random.Random(seed)
    order_g = g.order()
    reps = tuple(
        r if r.is_identity() else r * g ** rng.randrange(order_g)
        for r in canonical_transversal(top, g).representatives
    )
    return Transversal(reps, g)


def _check_transversal(level: WreathLevel, T: Transversal) -> None:
    top = level.top
    cosets = _left_cosets(top, T.g)
    coset_of = {i: k for k, coset in enumerate(cosets) for i in coset}
    hit = {coset_of[top.index_of(r)] for r in T.representatives}
    if len(T.representatives) != len(cosets) or len(hit) != len(cosets):
        raise GroupError("invalid transversal: wrong size or repeated coset")


def build_m(level: WreathLevel, T: Transversal) -> WreathElement:
    """Base-only element: alpha at the identity coordinate, beta at the other
    transversal coordinates, identity elsewhere."""
    _check_transversal(level, T)
    coords = {}
    for r in T.representatives:
        coords[r] = ALPHA if r.is_identity() else BETA
    return level.from_base(coords)


def build_g(level: WreathLevel, T: Transversal, g_top: Permutation) -> WreathElement:
    return level.multiply(build_m(level, T), level.from_top(g_top))


def compute_h(level: WreathLevel, g_elem: WreathElement) -> WreathElement:
    """g raised to the order of its top component; lands in the socle."""
    gamma = g_elem.top.order()
    h = level.power(g_elem, gamma)
    if not h.in_socle:
        raise GroupError(
            "g^|top| escaped the socle: wreath multiplication convention bug"
        )
    return h


def projection(level: WreathLevel, w: WreathElement, x: Permutation) -> Permutation:
    """Coordinate of a socle element at the index of x."""
    if not w.in_socle:
        raise GroupError("projection is only defined on socle elements")
    return w.coordinate(level.top.index_of(x))


def base_level() -> tuple[WreathLevel, Permutation]:
    """The tower's first step: Alt(5) wr Alt(5) with distinguished top
    element alpha."""
    A5 = alt5()
    return WreathLevel(top=A5, bottom=A5), ALPHA


# ---------------------------------------------------------------------------
# verification
# ---------------------------------------------------------------------------

class GenerationReport(Record):
    def __init__(self, generating: set[tuple[int, ...]], failures: list[str]) -> None:
        # image tuples of the u for which <alpha, beta^u> is all of Alt(5)
        self.generating = generating
        self.failures = failures  # one line per u for which it is not

    @property
    def checks(self) -> int:
        return len(self.generating) + len(self.failures)

    @property
    def passed(self) -> int:
        return len(self.generating)

    @property
    def all_passed(self) -> bool:
        return not self.failures


def verify_alpha_beta_generation() -> GenerationReport:
    """<alpha, beta^u> is all of Alt(5) for every u in Alt(5): no proper
    subgroup contains both an element of order 3 and one of order 5."""
    A5 = alt5()
    report = GenerationReport(set(), [])
    for u in A5.elements():
        sub = A5.subgroup([ALPHA, BETA ** u])
        if sub.order == 60:
            report.generating.add(u.images)
        else:
            report.failures.append(f"u={u}: order {sub.order}")
    return report


class MechanismReport(NamedTuple):
    alpha_beta_checks: int
    alpha_beta_passed: int
    sampled_checks: int
    sampled_passed: int
    containment_checks: int
    containment_passed: int
    h_pattern_ok: bool
    order_g: int
    order_h: int
    seed: int

    @property
    def all_passed(self) -> bool:
        return (
            self.alpha_beta_passed == self.alpha_beta_checks
            and self.sampled_passed == self.sampled_checks
            and self.containment_passed == self.containment_checks
            and self.h_pattern_ok
        )

    def to_json(self) -> dict:
        return {
            "alpha_beta_checks": self.alpha_beta_checks,
            "passed": self.all_passed,
            "sampled_checks": self.sampled_checks,
            "h_pattern_ok": self.h_pattern_ok,
            "order_g1": self.order_g,
            "order_h1": self.order_h,
            "seed": self.seed,
        }


def h_pattern_ok(level: WreathLevel, h: WreathElement, g_top: Permutation) -> bool:
    """Projection of h is alpha on the cyclic group of the top element and
    beta everywhere else."""
    cyclic = {g_top ** k for k in range(g_top.order())}
    for x in level.top.elements():
        expected = ALPHA if x in cyclic else BETA
        if projection(level, h, x) != expected:
            return False
    return True


def verify_lemma_mechanism(
    level: WreathLevel,
    T: Transversal,
    samples: int = 100,
    seed: int = 0,
) -> MechanismReport:
    """Exhaustive-plus-sampled check of the containment mechanism.

    For every top element z outside <g> and `samples` random base elements m,
    the conjugate of h by rho = m*z projects, at the identity coordinate, to
    a pair (alpha, beta^u) generating Alt(5) -- so <h, rho> is insoluble and
    rho cannot lie in the solubilizer.  Top elements z inside <g> are checked
    to land in socle*<g> instead.
    """
    g_top = T.g
    rng = random.Random(seed)
    g_elem = build_g(level, T, g_top)
    h = compute_h(level, g_elem)
    pattern = h_pattern_ok(level, h, g_top)

    gen_report = verify_alpha_beta_generation()

    cyclic = {g_top ** k for k in range(g_top.order())}
    top_elems = level.top.elements()
    bottom_elems = level.bottom.elements()
    beta_conjugates = {u.images: BETA ** u for u in bottom_elems}

    sampled_checks = sampled_passed = 0
    containment_checks = containment_passed = 0
    ident_idx_coord = top_elems[0]
    p1 = projection(level, h, ident_idx_coord)
    for z in top_elems:
        if z in cyclic:
            # rho = m*z stays in socle*<g> for any base part m
            containment_checks += 1
            m = level.element(
                rng.choices(bottom_elems, k=level.base_length), level.top.identity
            )
            rho = level.multiply(m, level.from_top(z))
            if rho.top in cyclic and rho.base == m.base:
                containment_passed += 1
            continue
        z_inv = z.inverse()
        witness_coord = level.top.index_of(z_inv)  # x z^-1 with x = 1
        # the conjugate's coordinate at 1 is the coordinate of h at z^-1,
        # conjugated by the base entry u there; conjugation by u is a
        # bijection, so it is beta^u for every u iff that coordinate is beta
        h_at_z_inv_is_beta = projection(level, h, z_inv) == BETA
        for _ in range(samples):
            base = rng.choices(bottom_elems, k=level.base_length)
            rho = level.element(base, z)
            sampled_checks += 1
            h_rho = level.conjugate(h, rho)
            p2 = projection(level, h_rho, ident_idx_coord)
            u = base[witness_coord]
            generates = u.images in gen_report.generating
            if (p1 == ALPHA and h_at_z_inv_is_beta and p2 == beta_conjugates[u.images]
                    and generates):
                sampled_passed += 1

    return MechanismReport(
        alpha_beta_checks=gen_report.checks,
        alpha_beta_passed=gen_report.passed,
        sampled_checks=sampled_checks,
        sampled_passed=sampled_passed,
        containment_checks=containment_checks,
        containment_passed=containment_passed,
        h_pattern_ok=pattern,
        order_g=level.element_order(g_elem),
        order_h=level.element_order(h),
        seed=seed,
    )
