"""Rank-5 homology lattice with the affine D4 intersection form.

Classes are integer coefficient 5-vectors over an ordered admissible basis
(S0,...,S4); S0 is the central sphere.  Lattice automorphisms act on
coefficient column vectors; the Dehn twist along S_i acts by the
Picard-Lefschetz rule c -> c + I(c, e_i) e_i.  Matrices are kept as nested
tuples of Python ints, so entries never overflow.
"""

from __future__ import annotations

from fractions import Fraction

from .core import ExactMatrix

I0 = ((-2, 1, 1, 1, 1),
      (1, -2, 0, 0, 0),
      (1, 0, -2, 0, 0),
      (1, 0, 0, -2, 0),
      (1, 0, 0, 0, -2))

FIBER_CLASS = (2, 1, 1, 1, 1)

LatticeAuto = tuple  # 5x5 nested int tuples


def intersection(a, b) -> int:
    """Intersection pairing a^T I0 b of two coefficient vectors."""
    return sum(a[i] * I0[i][j] * b[j] for i in range(5) for j in range(5))


def _mat_mul(A, B):
    return tuple(tuple(sum(A[i][k] * B[k][j] for k in range(5)) for j in range(5))
                 for i in range(5))


def _mat_vec(A, v):
    return tuple(sum(A[i][k] * v[k] for k in range(5)) for i in range(5))


def is_lattice_auto(A) -> bool:
    """A preserves I0 and fixes the fiber class (2,1,1,1,1)."""
    At = tuple(zip(*A))
    if _mat_mul(_mat_mul(At, I0), A) != I0:
        return False
    return _mat_vec(A, FIBER_CLASS) == FIBER_CLASS


def dehn_twist_matrix(i: int) -> LatticeAuto:
    """Picard-Lefschetz matrix of the Dehn twist along the basis sphere S_i."""
    if not 0 <= i <= 4:
        raise ValueError("index must be in 0..4")
    return tuple(tuple((1 if r == c else 0) + (I0[i][c] if r == i else 0)
                       for c in range(5)) for r in range(5))


def word_to_auto(word) -> LatticeAuto:
    """Ordered product of twist matrices; the leftmost letter acts first on
    period vectors under the hat reduction (see ``hat_reduction``).

    The word of ``g o h`` maps to ``A(h) A(g)``, and a homology basis moves
    contravariantly: the chamber basis of ``g*model`` is the model basis times
    ``word_to_auto(g.inverse().word)``, and periods in that basis are the
    transpose of that matrix applied to the parallel periods.

    Right multiplication by the twist along S_i changes one column only,
    A[:, c] += A[:, i] * I0[i][c], so each letter is a column update."""
    A = [[int(r == c) for c in range(5)] for r in range(5)]
    for i in word:
        if not 0 <= i <= 4:
            raise ValueError("index must be in 0..4")
        twist = I0[i]
        for row in A:
            a = row[i]
            if a:
                for c in range(5):
                    row[c] += a * twist[c]
    return tuple(tuple(row) for row in A)


def apply_auto(A, cls):
    return _mat_vec(A, cls)


def classes_of_square_minus2(k_max: int) -> list[tuple[int, ...]]:
    """All self-intersection -2 classes from the three coefficient families
    with |k| <= k_max, deduplicated, deterministic order.

    Families (lambda = (l1..l4), l0; the sign s of the basis shift fixes
    which square root the quadratic for l0 admits):
      (1) lambda = k(1,1,1,1),               l0 = 2k +- 1
      (2) lambda = k(1,1,1,1) + s e_i,       l0 in {2k, 2k + s}
      (3) lambda = k(1,1,1,1) + s (e_i+e_j), l0 = 2k + s
    """
    if k_max < 0:
        raise ValueError("k_max must be >= 0")
    out = set()
    for k in range(-k_max, k_max + 1):
        base = (k, k, k, k)
        for l0 in (2 * k + 1, 2 * k - 1):
            out.add((l0,) + base)
        for i in range(4):
            for s in (1, -1):
                lam = tuple(base[j] + (s if j == i else 0) for j in range(4))
                for l0 in (2 * k, 2 * k + s):
                    out.add((l0,) + lam)
        for i in range(4):
            for j in range(i + 1, 4):
                for s in (1, -1):
                    lam = tuple(base[t] + (s if t in (i, j) else 0) for t in range(4))
                    out.add((2 * k + s,) + lam)
    classes = sorted(out)
    for c in classes:
        if intersection(c, c) != -2:
            raise AssertionError(f"family member {c} has square {intersection(c, c)}")
    return classes


def hat_reduction(A) -> tuple[ExactMatrix, tuple[Fraction, ...]]:
    """Reduce a lattice automorphism to its affine action on 4-component
    period vectors: hatA_ij = a_ij - a_0j / 2 (i,j = 1..4) and
    hatB_j = a_0j / 2 in units of 4*pi^2.

    The induced affine map is x -> hatA^T x + hatB; for a product A B the
    induced maps compose as (map of B) after (map of A).
    """
    hatA = ExactMatrix(tuple(tuple(Fraction(A[i][j]) - Fraction(A[0][j], 2)
                                   for j in range(1, 5)) for i in range(1, 5)))
    hatB = tuple(Fraction(A[0][j], 2) for j in range(1, 5))
    return hatA, hatB


def hat_affine_apply(A, x) -> tuple[Fraction, ...]:
    """Apply the hat reduction of A to a 4-vector of x-periods (4*pi^2 units)."""
    hatA, hatB = hat_reduction(A)
    xt = hatA.transpose().apply(tuple(Fraction(v) for v in x))
    return tuple(a + b for a, b in zip(xt, hatB))


def hat_linear_apply(A, z) -> tuple:
    """Apply the linear (z-period) part of the hat reduction: z -> hatA^T z."""
    hatA, _ = hat_reduction(A)
    return hatA.transpose().apply(tuple(z))
