"""Brute-force and slow reference oracles, shared by the test modules: the
homology lattice's -2 classes and the SL(2,Z) conjugator of a monodromy
factorization."""

from fractions import Fraction
from itertools import product
from math import gcd

from hitchin4.core import ExactMatrix, nullspace
from hitchin4.homology import intersection
from hitchin4.monodromy import mat_det, mat_mul


def brute_force_minus2(box: int) -> list[tuple[int, ...]]:
    """All classes with square -2 in the coefficient box [-box, box]^5."""
    out = []
    rng = range(-box, box + 1)
    for c in product(rng, repeat=5):
        if intersection(c, c) == -2:
            out.append(c)
    return sorted(out)


def conjugator_by_solve(src, pattern):
    """C in SL(2,Z) with C M_i = T_i C for the factors M_i of ``src`` and
    T_i of ``pattern``, or None.

    C M_i = T_i C is linear in the entries of C; the joint solution space of
    an irreducible tuple is one-dimensional, so solve exactly over Q and
    check integrality and det 1."""
    rows = []
    for M, T in zip(src.factors, pattern):
        (a, b), (c, d) = M
        (e, f), (g, h) = T
        # unknowns (C00, C01, C10, C11): C M - T C = 0
        rows += [
            (a - e, c, -f, 0),
            (b, d - e, 0, -f),
            (-g, 0, a - h, c),
            (0, -g, b, d - h),
        ]
    for vec in nullspace(ExactMatrix([[Fraction(x) for x in r] for r in rows])):
        den = 1
        for q in vec:
            den = den * q.denominator // gcd(den, q.denominator)
        ints = [int(q * den) for q in vec]
        g = 0
        for v in ints:
            g = gcd(g, v)
        if g == 0:
            continue
        ints = [v // g for v in ints]
        for sgn in (1, -1):
            C = ((sgn * ints[0], sgn * ints[1]), (sgn * ints[2], sgn * ints[3]))
            if mat_det(C) == 1 and all(
                    mat_mul(C, M) == mat_mul(T, C) for M, T in zip(src.factors, pattern)):
                return C
    return None
