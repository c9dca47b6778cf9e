"""Brute-force oracles for the homology lattice, shared by the test modules."""

from itertools import product

from hitchin4.homology import intersection


def brute_force_minus2(box: int) -> list[tuple[int, ...]]:
    """All classes with square -2 in the coefficient box [-box, box]^5."""
    out = []
    rng = range(-box, box + 1)
    for c in product(rng, repeat=5):
        if intersection(c, c) == -2:
            out.append(c)
    return sorted(out)
