"""Brute-force and slow reference oracles, shared by the test modules: exact
row reduction (determinant and nullspace), the model alcove's faces derived
from its vertices, the homology lattice's -2 classes and the SL(2,Z)
conjugator of a monodromy factorization."""

from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from math import gcd

from hitchin4.core import ExactMatrix
from hitchin4.homology import intersection
from hitchin4.monodromy import mat_det, mat_mul


# ---------------------------------------------------------------------------
# exact row reduction
# ---------------------------------------------------------------------------

def row_reduce(rows, ncols: int):
    """Gauss-Jordan elimination of ``rows`` over their first ``ncols`` columns.

    Returns the reduced row echelon form, the pivot columns in ascending
    order, and the product of the pivots signed by the row swaps: the
    determinant, for a square matrix of full rank.  Entries may be Fraction
    or GaussianRational."""
    rows = [list(r) for r in rows]
    n = len(rows)
    pivots = []
    det = Fraction(1)
    for c in range(ncols):
        r = len(pivots)
        if r == n:
            break
        piv = next((i for i in range(r, n) if rows[i][c]), None)
        if piv is None:
            continue
        if piv != r:
            rows[r], rows[piv] = rows[piv], rows[r]
            det = -det
        det = det * rows[r][c]
        inv = 1 / rows[r][c]
        pivot_row = [a * inv for a in rows[r][c:]]  # columns left of c are zero
        rows[r][c:] = pivot_row
        for i in range(n):
            f = rows[i][c]
            if i != r and f:
                rows[i][c:] = [a - f * b for a, b in zip(rows[i][c:], pivot_row)]
        pivots.append(c)
    return rows, pivots, det


def det(A: ExactMatrix):
    """Exact determinant of a square matrix."""
    n, m = A.shape
    if n != m:
        raise ValueError("not square")
    _, pivots, d = row_reduce(A.rows, n)
    return d if len(pivots) == n else 0 * d


def nullspace(A: ExactMatrix) -> list[tuple]:
    """Exact right nullspace basis of a (possibly rectangular) matrix."""
    n, m = A.shape
    rows, pivots, _ = row_reduce(A.rows, m)
    basis = []
    for fc in (c for c in range(m) if c not in pivots):
        v = [Fraction(0)] * m
        v[fc] = Fraction(1)
        for i, pc in enumerate(pivots):
            v[pc] = -rows[i][fc]
        basis.append(tuple(v))
    return basis


# ---------------------------------------------------------------------------
# the model alcove from its vertices
# ---------------------------------------------------------------------------

def _vertex(mask: int) -> tuple[Fraction, ...]:
    return tuple(Fraction(1, 2) if mask >> i & 1 else Fraction(0) for i in range(4))


# (1/4,1/4,1/4,1/4), v_{}, v_{12}, v_{13}, v_{14}; face f_i omits vertex i
MODEL_VERTICES = ((Fraction(1, 4),) * 4, _vertex(0), _vertex(0b0011),
                  _vertex(0b0101), _vertex(0b1001))


def _derive_faces():
    """(n, base) for each face f_i: n spans the nullspace of the edges of f_i
    at its first vertex ``base``, oriented positive on the omitted vertex."""
    faces = []
    for i in range(5):
        others = [v for j, v in enumerate(MODEL_VERTICES) if j != i]
        base = others[0]
        ns = nullspace(ExactMatrix([tuple(p - q for p, q in zip(v, base))
                                    for v in others[1:]]))
        assert len(ns) == 1, "face normal is not unique"
        n = ns[0]
        if sum((a - b) * c for a, b, c in zip(MODEL_VERTICES[i], base, n)) < 0:
            n = tuple(-c for c in n)
        faces.append((n, base))
    return tuple(faces)


MODEL_FACES = _derive_faces()


def face_value(i: int, x) -> Fraction:
    """Inward affine functional of face f_i at x; positive on the interior."""
    n, base = MODEL_FACES[i]
    return sum((Fraction(a) - b) * c for a, b, c in zip(x, base, n))


def in_model(x, closed: bool = True) -> bool:
    vals = [face_value(i, x) for i in range(5)]
    return all(v >= 0 for v in vals) if closed else all(v > 0 for v in vals)


@dataclass(frozen=True)
class FractionAffine:
    """Reference affine map x -> linear x + translation over ``Fraction``,
    independent of the integer form ``coxeter.AffineIsometry`` holds."""

    linear: ExactMatrix
    translation: tuple
    word: tuple = ()


def face_reflection(i: int) -> FractionAffine:
    """Reflection in face f_i by the Fraction formula
    x -> x - 2 (n.(x - base)) n / |n|^2."""
    n, base = MODEL_FACES[i]
    nn = sum(c * c for c in n)
    lin = ExactMatrix(tuple(tuple(Fraction(int(r == c)) - 2 * n[r] * n[c] / nn
                                  for c in range(4)) for r in range(4)))
    nb = sum(a * b for a, b in zip(n, base))
    return FractionAffine(lin, tuple(2 * nb * c / nn for c in n), (i,))


# ---------------------------------------------------------------------------
# homology lattice and monodromy
# ---------------------------------------------------------------------------


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
