"""Finite-quotient towers standing in for profinite groups.

A tower is a finite, explicit chain of finite groups with verified surjective
projections between consecutive levels, plus named element tracks that
commute with the projections (for the dihedral tower, reduction mod p^n).
Probability sequences along a tower realize the infimum-over-quotients
description of the profinite probability; the report states the last value
plus a non-increase certificate, never a claimed limit.  The positivity
verdict follows the index per level of Omega(G), which
``probability._class_core`` reads for a built-in class as the soluble
radical, hypercenter or centre, with no pair test.
"""

from __future__ import annotations

from fractions import Fraction
from functools import partial
from typing import Callable, NamedTuple

from .classes import GroupClass, NILPOTENT, SOLUBLE
from .errors import CapExceeded, GroupError, UnknownName
from .group import DEFAULT_MATERIALIZATION_CAP, FiniteGroup
from .perm import Permutation
from .probability import _class_core, prob_elem
from .util import Record, prime_factors, rational

__all__ = [
    "QuotientTower",
    "dihedral_tower",
    "prob_sequence",
    "monotonicity_report",
    "positivity_verdict",
    "MonotonicityReport",
    "PositivityReport",
]


class QuotientTower(Record):
    """Levels with projections level k+1 -> level k and compatible tracks."""

    def __init__(self, name: str, levels: list[FiniteGroup],
                 projections: list[Callable[[Permutation], Permutation]],
                 tracks: dict[str, list[Permutation]] | None = None) -> None:
        self.name = name
        self.levels = levels
        self.projections = projections
        self.tracks = {} if tracks is None else tracks
        if not self.levels:
            raise GroupError("a tower needs at least one level")
        if len(self.projections) != len(self.levels) - 1:
            raise GroupError("need one projection per consecutive level pair")
        self._verify()

    def _verify(self) -> None:
        for k, proj in enumerate(self.projections):
            upper, lower = self.levels[k + 1], self.levels[k]
            images = [proj(g) for g in upper.generators]
            if lower.subgroup(images).order != lower.order:
                raise GroupError(f"projection {k + 1}->{k} is not surjective")
            pairs = list(zip(upper.generators, images))
            for a, pa in pairs:
                for b, pb in pairs:
                    if proj(a * b) != pa * pb:
                        raise GroupError(f"projection {k + 1}->{k} is not a homomorphism")
        for name, track in self.tracks.items():
            if len(track) != len(self.levels):
                raise GroupError(f"track {name!r} must name an element per level")
            for k, proj in enumerate(self.projections):
                if proj(track[k + 1]) != track[k]:
                    raise GroupError(f"track {name!r} does not commute with projections")

    def track(self, name: str) -> list[Permutation]:
        """The elements of the track ``name``, one per level."""
        try:
            return self.tracks[name]
        except KeyError:
            raise UnknownName(
                f"unknown track {name!r}; expected one of {sorted(self.tracks)}"
            ) from None


def _reduce(m: int, e: Permutation) -> Permutation:
    """The action of e on the residues mod m of its points, a homomorphism
    on every group whose elements preserve those residues."""
    return Permutation(tuple(v % m for v in e.images[:m]))


def dihedral_tower(
    p: int, n_max: int, cap: int = DEFAULT_MATERIALIZATION_CAP
) -> QuotientTower:
    """Dihedral groups of order 2*p^n for n = 1..n_max, p an odd prime.

    Level n acts on the integers mod p^n: the rotation r is the full cycle,
    the involution x is negation, and the projection to level n-1 is
    reduction mod p^(n-1), the finite shadow of Z_p semidirect C_2.
    """
    if p < 3 or p % 2 == 0:
        raise GroupError("p must be an odd prime")
    if n_max < 1:
        raise GroupError(f"a tower needs at least one level, got n_max={n_max}")
    # the order grows level by level, so a huge p or n_max is refused after
    # at most log_3(cap) products, and before the trial division below
    order, level = 2, 0
    while level < n_max and order <= cap:
        order, level = order * p, level + 1
    if order > cap:
        raise CapExceeded(f"top level order 2*{p}^{n_max} exceeds cap {cap}")
    if prime_factors(p) != [p]:
        raise GroupError("p must be an odd prime")

    levels = []
    for n in range(1, n_max + 1):
        m = p ** n
        rot = Permutation(tuple((i + 1) % m for i in range(m)))
        refl = Permutation(tuple((-i) % m for i in range(m)))
        levels.append(
            FiniteGroup(m, [rot, refl], cap=cap, name=f"D{2 * m}")
        )

    projections = [partial(_reduce, p ** n) for n in range(1, n_max)]
    tracks = {
        "x": [G.generators[1] for G in levels],
        "r": [G.generators[0] for G in levels],
    }
    return QuotientTower(f"dihedral(p={p})", levels, projections, tracks)


def prob_sequence(C: GroupClass, tower: QuotientTower, track: str) -> list[Fraction]:
    """Exact per-level probabilities for the tracked element."""
    return [
        prob_elem(C, G, x).probability for G, x in zip(tower.levels, tower.track(track))
    ]


class MonotonicityReport(Record):
    def __init__(self, tower: str, class_name: str, track: str, sequence: list[Fraction],
                 orders: list[int]) -> None:
        self.tower = tower
        self.class_name = class_name
        self.track = track
        self.sequence = sequence
        self.orders = orders  # the group order per level
        if not sequence:
            raise GroupError("a monotonicity report needs at least one level")
        if len(orders) != len(sequence):
            raise GroupError(
                f"{len(orders)} orders for {len(sequence)} probabilities: "
                "a monotonicity report needs one order per level"
            )

    @property
    def violations(self) -> list[int]:
        """The levels k whose successor's probability exceeds theirs."""
        seq = self.sequence
        return [k for k in range(len(seq) - 1) if seq[k + 1] > seq[k]]

    @property
    def monotone(self) -> bool:
        return not self.violations

    @property
    def inf_upper_bound(self) -> Fraction:
        return self.sequence[-1]

    def to_json(self) -> dict:
        return {
            "tower": self.tower,
            "class": self.class_name,
            "track": self.track,
            "levels": [
                {"order": order, "probability": rational(q.numerator, q.denominator)}
                for order, q in zip(self.orders, self.sequence)
            ],
            "monotone": self.monotone,
            "inf_upper_bound": rational(self.inf_upper_bound.numerator,
                                        self.inf_upper_bound.denominator),
        }


def monotonicity_report(
    C: GroupClass, tower: QuotientTower, track: str
) -> MonotonicityReport:
    """Certify the sequence is non-increasing (a violation flags an engine
    bug, since consecutive levels are quotients of each other)."""
    return MonotonicityReport(
        tower.name, C.name, track, prob_sequence(C, tower, track),
        [G.order for G in tower.levels],
    )


class PositivityReport(NamedTuple):
    tower: str
    class_name: str
    indices: list[int]
    verdict: str


def positivity_verdict(
    C: GroupClass, tower: QuotientTower, track: str | None = None
) -> PositivityReport:
    """Which positivity pattern the finite levels certify.

    Soluble class: the index of the soluble radical per level; a stabilized
    index sequence is the virtually-prosoluble pattern.  Nilpotent class:
    the index of the hypercenter per level; bounded means the
    finite-by-pronilpotent pattern, diverging means positivity fails along
    the tower (the probability sequence tends to the infimum 0).  Abelian
    class: the index of the centre.  One level shows no trend, whatever the
    class.  A ``track`` the tower does not have is refused.
    """
    if track is not None:
        tower.track(track)
    indices = [G.order // len(_class_core(C, G)) for G in tower.levels]
    if len(indices) == 1:
        return PositivityReport(tower.name, C.name, indices, "one level shows no trend")
    stabilized = indices[-1] == indices[-2]
    if C == SOLUBLE:
        verdict = "virtually prosoluble" if stabilized else "index still growing"
    elif C != NILPOTENT:
        verdict = "global omega index stabilized" if stabilized else "index still growing"
    elif stabilized:
        verdict = "finite-by-pronilpotent"
    elif track is not None:
        verdict = f"not nilpotent-positive along track {track!r}"
    else:
        verdict = "hypercenter index diverging"
    return PositivityReport(tower.name, C.name, indices, verdict)
