"""Pieces shared by the workload modules."""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable


@dataclass
class Op:
    """One timed operation: ``run()`` calls the program; ``check(output)``
    returns a list of error strings (empty when the output is right)."""

    kind: str
    run: Callable
    check: Callable


def rng_for(seed: int, stream: str) -> random.Random:
    """Independent generator per input stream, so adding one stream leaves
    the others' inputs unchanged."""
    return random.Random(f"{stream}:{seed}")


def small_fraction(rng: random.Random, num: int = 9, den: int = 9) -> Fraction:
    """Nonzero rational p/q with |p| <= num and 1 <= q <= den."""
    p = 0
    while p == 0:
        p = rng.randint(-num, num)
    return Fraction(p, rng.randint(1, den))


def gaussian_rational(rng: random.Random, num: int = 4, dens=(1, 2, 3, 4)) -> tuple:
    d = rng.choice(dens)
    return (Fraction(rng.randint(-num, num), d), Fraction(rng.randint(-num, num), d))


def distinct_gaussian_rationals(rng: random.Random, count: int, **kwargs) -> list:
    out: list = []
    while len(out) < count:
        z = gaussian_rational(rng, **kwargs)
        if z not in out:
            out.append(z)
    return out
