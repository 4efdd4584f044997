"""Small shared helpers: number theory, the reports' rationals, and the two
bases the package's value classes and result records are built on."""

from __future__ import annotations

from math import gcd
from typing import Iterable


def prime_factors(n: int) -> list[int]:
    """The distinct primes dividing n, ascending."""
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        out.append(n)
    return out


def pi_part(n: int, primes: Iterable[int]) -> int:
    """The largest divisor of n whose prime factors all lie in ``primes``;
    an n below 1 is refused, since every p divides 0 for ever, and so is a
    p below 2, since n % p never leaves 1 and 0 divides none."""
    if n < 1:
        raise ValueError(f"not a positive integer: {n}")
    part = 1
    for p in primes:
        if p < 2:
            raise ValueError(f"not a prime: {p}")
        while n % p == 0:
            part *= p
            n //= p
    return part


def rational(num: int, den: int) -> dict[str, int]:
    """num/den in lowest terms, as ``Fraction`` would reduce it, rendered
    ``{"num": ..., "den": ...}``."""
    d = gcd(num, den)
    return {"num": num // d, "den": den // d}


class Frozen:
    """Base of the immutable classes.  ``__init__`` sets the attributes
    through ``object.__setattr__``, or the instance ``__dict__`` where there
    is one; any later assignment or deletion raises ``AttributeError``.

    Each subclass supplies ``_key()``, a tuple of its value: two instances
    of one class are equal when their keys are, and the hash is that of the
    key.  Attributes left out of the key take part in neither."""

    __slots__ = ()

    def __eq__(self, other) -> bool:
        if other.__class__ is self.__class__:
            return self._key() == other._key()
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._key())

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")


class Record:
    """Base of the records compared by value: two records of one class are
    equal when their attributes are.  A record is unhashable, since its
    attributes may change."""

    __hash__ = None  # type: ignore[assignment]

    def __eq__(self, other) -> bool:
        if other.__class__ is self.__class__:
            return vars(self) == vars(other)
        return NotImplemented
