"""Fixed-degree permutation arithmetic.

Points are 0-indexed internally.  All text I/O (cycle notation) is 1-indexed,
so ``Permutation.parse("(1,2,3)", 5)`` sends point 0 to point 1.

Composition is left-to-right: ``(p * q)(i) == q(p(i))``, i.e. ``p`` acts
first.  Every product in this package follows this convention, and
conjugation is ``x ** g == g^-1 * x * g``.
"""

from __future__ import annotations

import math
import re
from functools import total_ordering
from operator import itemgetter
from typing import Iterable

from .errors import DegreeMismatch, ParseError
from .util import Frozen, pi_part

__all__ = [
    "Permutation", "mul", "inv", "identity_tuple", "tuple_order", "tuple_power",
    "prime_component",
]


# Internal arithmetic works on plain image tuples; the Permutation wrapper
# is the public face.  Hot loops elsewhere in the package use these directly.
# ``mul`` is the kernel under all of them: one ``itemgetter`` gather does
# the whole product in C.  Degrees 0 and 1 take a ``map`` instead, since an
# itemgetter of one index returns a bare item and one of no index is refused.

def identity_tuple(degree: int) -> tuple[int, ...]:
    return tuple(range(degree))


def mul(p: tuple[int, ...], q: tuple[int, ...]) -> tuple[int, ...]:
    """Image tuple of p followed by q."""
    if len(p) > 1:
        return itemgetter(*p)(q)
    return tuple(map(q.__getitem__, p))


def inv(p: tuple[int, ...]) -> tuple[int, ...]:
    out = [0] * len(p)
    for i, v in enumerate(p):
        out[v] = i
    return tuple(out)


def tuple_order(p: tuple[int, ...]) -> int:
    """Order of p: the lcm of its cycle lengths."""
    seen = [False] * len(p)
    order = 1
    for start in range(len(p)):
        if seen[start] or p[start] == start:
            continue
        length = 1
        seen[start] = True
        j = p[start]
        while j != start:
            seen[j] = True
            length += 1
            j = p[j]
        order = math.lcm(order, length)
    return order


def tuple_power(p: tuple[int, ...], k: int) -> tuple[int, ...]:
    """p ** k for k >= 0, by binary powering from the identity."""
    result = identity_tuple(len(p))
    base = p
    while k:
        if k & 1:
            result = mul(result, base)
        base = mul(base, base)
        k >>= 1
    return result


def prime_component(p: tuple[int, ...], o: int,
                    primes: Iterable[int]) -> tuple[int, ...]:
    """The component of p in <p> whose order involves only ``primes``;
    ``o`` is the order of p.

    With o = a*b, a the part over ``primes``, this is p ** e for
    e = 1 mod a and e = 0 mod b.
    """
    a = pi_part(o, primes)
    b = o // a
    if a == 1:
        return identity_tuple(len(p))
    if b == 1:
        return p
    return tuple_power(p, b * pow(b, -1, a))


@total_ordering
class Permutation(Frozen):
    """A bijection of {0..degree-1}, stored as its image tuple.  Equality,
    hash and order are those of the image tuple."""

    __slots__ = ("images",)

    def __init__(self, images: tuple[int, ...]) -> None:
        n = len(images)
        if sorted(images) != list(range(n)):
            raise ValueError("images are not a bijection of {0..%d}" % (n - 1))
        object.__setattr__(self, "images", images)

    def _key(self) -> tuple:
        return (self.images,)

    def __lt__(self, other) -> bool:
        if other.__class__ is Permutation:
            return self.images < other.images
        return NotImplemented

    def __reduce__(self):
        return Permutation, (self.images,)

    @property
    def degree(self) -> int:
        return len(self.images)

    @staticmethod
    def identity(degree: int) -> "Permutation":
        return Permutation(identity_tuple(degree))

    def __mul__(self, other: "Permutation") -> "Permutation":
        if other.__class__ is not Permutation:
            return NotImplemented
        if len(self.images) != len(other.images):
            raise DegreeMismatch(
                f"cannot compose degree {self.degree} with degree {other.degree}"
            )
        return Permutation(mul(self.images, other.images))

    def inverse(self) -> "Permutation":
        return Permutation(inv(self.images))

    def __pow__(self, k: int) -> "Permutation":
        if isinstance(k, Permutation):
            # x ** g is conjugation g^-1 x g
            return k.inverse() * self * k
        base = self.images if k >= 0 else inv(self.images)
        return Permutation(tuple_power(base, abs(k)))

    def is_identity(self) -> bool:
        return all(v == i for i, v in enumerate(self.images))

    def order(self) -> int:
        return tuple_order(self.images)

    def cycles(self) -> list[tuple[int, ...]]:
        """Disjoint cycles sorted by smallest moved point; fixed points omitted."""
        seen = [False] * self.degree
        out = []
        for start in range(self.degree):
            if seen[start] or self.images[start] == start:
                continue
            cyc = [start]
            seen[start] = True
            j = self.images[start]
            while j != start:
                cyc.append(j)
                seen[j] = True
                j = self.images[j]
            out.append(tuple(cyc))
        return out

    def commutes_with(self, other: "Permutation") -> bool:
        return mul(self.images, other.images) == mul(other.images, self.images)

    def __str__(self) -> str:
        cycs = self.cycles()
        if not cycs:
            return "()"
        return "".join("(" + ",".join(str(v + 1) for v in c) + ")" for c in cycs)

    def __repr__(self) -> str:
        return f"Permutation[{self.degree}] {self}"

    @classmethod
    def parse(cls, text: str, degree: int) -> "Permutation":
        """Parse 1-indexed disjoint-cycle notation, e.g. "(1,2,3)(4,5)".

        "()" or an empty string denotes the identity.  Points may be
        separated by commas or whitespace.
        """
        text = text.strip()
        images = list(range(degree))
        if text in ("", "()"):
            return cls(tuple(images))
        if not re.fullmatch(r"(\(\s*\d+(\s*[,\s]\s*\d+)*\s*\))+", text):
            raise ParseError(f"malformed cycle notation: {text!r}")
        touched: set[int] = set()
        for body in re.findall(r"\(([^()]*)\)", text):
            try:
                points = [int(tok) - 1 for tok in re.split(r"[,\s]+", body.strip())]
            except ValueError:
                # a point of more digits than int() converts from a string
                raise ParseError(f"point out of range for degree {degree}") from None
            for pt in points:
                if not 0 <= pt < degree:
                    raise ParseError(f"point {pt + 1} out of range for degree {degree}")
                if pt in touched:
                    raise ParseError(f"point {pt + 1} repeated; cycles must be disjoint")
                touched.add(pt)
            for a, b in zip(points, points[1:] + points[:1]):
                images[a] = b
        return cls(tuple(images))
