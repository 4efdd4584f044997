"""Small shared number helpers."""

from __future__ import annotations

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
    a p below 2 is refused, since n % p never leaves 1 and 0 divides none."""
    part = 1
    for p in primes:
        if p < 2:
            raise ValueError(f"not a prime: {p}")
        while n % p == 0:
            part *= p
            n //= p
    return part
