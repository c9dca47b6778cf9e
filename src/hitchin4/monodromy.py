"""SL(2,Z) monodromy factorizations for six I1 fibers and their Hurwitz
normalization to the alternating (B, A, B, A, B, A) pattern.

Matrices are integer 2x2 tuples ((a, b), (c, d)) of determinant one.  A
factorization stores factors indexed 1..k in cyclic order; the composite
along the base loop is factors[0] * factors[1] * ... (leftmost first in
the written product), which Hurwitz moves preserve.  For the I0* setting
the composite is -Id; the canonical pattern also satisfies the reversed
relation A6 A5 A4 A3 A2 A1 = -Id.

An I1 factor is parabolic with a single twist (conjugate to [[1,1],[0,1]]),
so it is determined by its primitive eigenvector v up to sign, and
P T_v P^-1 = T_{Pv} for P in SL(2,Z).  Eigenvector tuples are hashed modulo
simultaneous SL(2,Z) conjugation; the 40 classes reachable from the
pattern's (none more than 3 moves away) are tabulated with their distances
and neighbours by one breadth-first search on first use, and ``normalize``
walks down that table.  The table is closed under moves, so a class
outside it is not Hurwitz-equivalent to the pattern's: ``Exhausted`` is a
disproof, not a search limit.  The canonical form of a tuple comes with
the transform P that produces it, so a normal form in the pattern's class
is certified by C = P_pattern^-1 P_normal, which satisfies C M_i = T_i C
for every factor M_i and pattern factor T_i; ``normalize`` checks that
identity by multiplication before it returns (``BrokenIdentity`` if it fails).
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cache
from math import gcd

from .core import BrokenIdentity, DomainError

SL2Z = tuple  # ((a, b), (c, d)) of ints

IDENT: SL2Z = ((1, 0), (0, 1))
NEG_IDENT: SL2Z = ((-1, 0), (0, -1))
MAT_A: SL2Z = ((1, 1), (0, 1))
MAT_B: SL2Z = ((1, 0), (-1, 1))


class NotParabolic(DomainError, ValueError):
    """Factor is not an I1 twist (trace 2, single Dehn twist)."""


class Exhausted(DomainError, RuntimeError):
    """The factorization is not Hurwitz-equivalent to a conjugate of
    (B, A, B, A, B, A): a disproof, since the class table is closed under moves."""


def mat_mul(M: SL2Z, N: SL2Z) -> SL2Z:
    (a, b), (c, d) = M
    (e, f), (g, h) = N
    return ((a * e + b * g, a * f + b * h), (c * e + d * g, c * f + d * h))


def mat_inv(M: SL2Z) -> SL2Z:
    if mat_det(M) != 1:
        raise ValueError("determinant must be 1")
    (a, b), (c, d) = M
    return ((d, -b), (-c, a))


def mat_det(M: SL2Z) -> int:
    (a, b), (c, d) = M
    return a * d - b * c


def _primitive(v: tuple[int, int]) -> tuple[int, int]:
    p, q = v
    g = gcd(p, q)
    if g == 0:
        raise ValueError("zero vector")
    p, q = p // g, q // g
    if q < 0 or (q == 0 and p < 0):
        p, q = -p, -q
    return (p, q)


def _act(M: SL2Z, v: tuple[int, int]) -> tuple[int, int]:
    """Primitive direction of M v, up to sign."""
    (a, b), (c, d) = M
    return _primitive((a * v[0] + b * v[1], c * v[0] + d * v[1]))


def is_I1_twist(M: SL2Z):
    """(True, primitive eigenvector) iff M is a single parabolic Dehn twist.

    I1 means trace 2, M != Id, and twist multiplicity one, i.e.
    M = Id + [[-pq, p^2], [-q^2, pq]] for a primitive (p, q)."""
    (a, b), (c, d) = M
    if mat_det(M) != 1:
        raise ValueError("determinant must be 1")
    if a + d != 2 or M == IDENT:
        return False, None
    # eigenvector of eigenvalue 1, (M - Id) v = 0; a = d = 1, b = 0 forces c != 0
    v = _primitive((b, 1 - a) if (a, b) != (1, 0) else (0, c))
    return (True, v) if twist_of_vector(v) == M else (False, None)


def twist_of_vector(v: tuple[int, int]) -> SL2Z:
    p, q = _primitive(v)
    return ((1 - p * q, p * p), (-q * q, 1 + p * q))


@dataclass(frozen=True)
class Factorization:
    """Cyclically ordered factors (index 1..k); composite along the base
    loop is factors[0] factors[1] ... factors[k-1]."""

    factors: tuple[SL2Z, ...]

    def total_product(self) -> SL2Z:
        out = IDENT
        for M in self.factors:
            out = mat_mul(out, M)
        return out

    def vectors(self) -> tuple[tuple[int, int], ...]:
        vs = []
        for i, M in enumerate(self.factors):
            ok, v = is_I1_twist(M)
            if not ok:
                raise NotParabolic(f"factor {i + 1} is not an I1 twist")
            vs.append(v)
        return tuple(vs)


def parse_factors(text: str) -> Factorization:
    """The factorization written as a JSON list of 2x2 integer matrices; any
    other text is a ``ValueError`` that quotes it."""
    raw = text.strip()
    try:
        factors = json.loads(raw)
    except json.JSONDecodeError:
        factors = None
    if not (isinstance(factors, list) and all(map(_is_int_2x2, factors))):
        raise ValueError(f"is not a list of 2x2 integer matrices: {raw!r}")
    return Factorization(tuple(tuple(tuple(row) for row in M) for M in factors))


def _is_int_2x2(M) -> bool:
    return (isinstance(M, list) and len(M) == 2
            and all(isinstance(row, list) and len(row) == 2 for row in M)
            and all(type(x) is int for row in M for x in row))


def canonical_factorization() -> Factorization:
    """The alternating pattern (B, A, B, A, B, A); both composition orders
    of the six factors give -Id exactly."""
    return Factorization((MAT_B, MAT_A, MAT_B, MAT_A, MAT_B, MAT_A))


def hurwitz_move(f: Factorization, i: int, direction: int = 1) -> Factorization:
    """Elementary re-braiding at slot i (1-based, 1 <= i < k).

    direction 1:  (A_i, A_{i+1}) -> (A_{i+1}, A_{i+1}^{-1} A_i A_{i+1})
    direction 2:  (A_i, A_{i+1}) -> (A_i A_{i+1} A_i^{-1}, A_i)
    Move 2 inverts move 1; both fix the composite along the base loop.
    """
    k = len(f.factors)
    if not 1 <= i < k:
        raise IndexError(f"slot {i} out of range 1..{k - 1}")
    a, b = f.factors[i - 1], f.factors[i]
    if direction == 1:
        pair = (b, mat_mul(mat_mul(mat_inv(b), a), b))
    elif direction == 2:
        pair = (mat_mul(mat_mul(a, b), mat_inv(a)), a)
    else:
        raise ValueError("direction must be 1 or 2")
    return Factorization(f.factors[:i - 1] + pair + f.factors[i + 1:])


# ---------------------------------------------------------------------------
# conjugation-canonical hashing on eigenvector tuples
# ---------------------------------------------------------------------------

def _ext_gcd(a: int, b: int) -> tuple[int, int]:
    x0, x1, y0, y1 = 1, 0, 0, 1
    while b:
        q, a, b = a // b, b, a % b
        x0, x1 = x1, x0 - q * x1
        y0, y1 = y1, y0 - q * y1
    return x0, y0


def _canonical_class(vectors: tuple[tuple[int, int], ...]):
    """(P, class): the canonical representative of an eigenvector tuple
    modulo simultaneous SL(2,Z) conjugation, and the P in SL(2,Z) with
    class[i] = P vectors[i] up to sign.  P sends v1 to (1,0), then reduces
    the first non-parallel vector with the residual unipotent stabilizer."""
    p, q = vectors[0]
    x, y = _ext_gcd(p, q)  # p x + q y = 1
    P = ((x, y), (-q, p))
    for v in vectors:
        a, b = _act(P, v)
        if b != 0:
            P = mat_mul(((1, -(a // b)), (0, 1)), P)
            break
    return P, tuple(_act(P, v) for v in vectors)


def _class_moves(vectors):
    """All Hurwitz moves on an eigenvector tuple, as (move, new tuple)."""
    out = []
    for i in range(1, len(vectors)):
        vi, vj = vectors[i - 1], vectors[i]
        head, tail = vectors[:i - 1], vectors[i + 1:]
        out.append(((i, 1), head + (vj, _act(mat_inv(twist_of_vector(vj)), vi)) + tail))
        out.append(((i, 2), head + (_act(twist_of_vector(vi), vj), vi) + tail))
    return out


_PATTERN = canonical_factorization()
_P_PATTERN, _TARGET = _canonical_class(_PATTERN.vectors())


def _certificate(f: Factorization):
    """C in SL(2,Z) with C M_i = T_i C for every factor M_i of f and T_i of
    (B, A, B, A, B, A), or None if f is not a global conjugate of it."""
    P, cls = _canonical_class(f.vectors())
    C = mat_mul(mat_inv(_P_PATTERN), P)
    return C if cls == _TARGET and all(
        mat_mul(C, M) == mat_mul(T, C) for M, T in zip(f.factors, _PATTERN.factors)) else None


@cache
def _class_table() -> dict:
    """{class: (distance, ((move, neighbour), ...) in ``_class_moves``
    order)} from one breadth-first search from the pattern's class; moves
    are SL(2,Z)-equivariant and move 2 inverts move 1, so a class's
    neighbours and its distance to the pattern are those of any tuple in it."""
    table, frontier, dist = {}, [_TARGET], 0
    while frontier:
        for cls in frontier:
            table[cls] = (dist, tuple((move, _canonical_class(raw)[1])
                                      for move, raw in _class_moves(cls)))
        frontier = list(dict.fromkeys(c for cls in frontier for _, c in table[cls][1]
                                      if c not in table))
        dist += 1
    return table


def normalize(f: Factorization):
    """Hurwitz moves carrying f to the canonical pattern up to simultaneous
    SL(2,Z) conjugation: (moves, normal), where replaying ``moves`` on f
    yields ``normal``, a global conjugate of (B, A, B, A, B, A) certified
    by ``_certificate``.  ``moves`` walks down ``_class_table``, taking at
    each class the first move (slot ascending, direction 1 before 2) that
    lowers the distance: the first shortest sequence in that order.
    Raises Exhausted when f's class is not in the table, and BrokenIdentity (a
    defect, not a disproof) when the walk's normal form fails its certificate."""
    if len(f.factors) != 6:
        raise ValueError("need six factors")
    vecs = f.vectors()
    if f.total_product() != NEG_IDENT:
        raise ValueError("composite along the base loop must be -Id")
    table = _class_table()
    _, cls = _canonical_class(vecs)
    if cls not in table:
        raise Exhausted("not Hurwitz-equivalent to a conjugate of (B, A, B, A, B, A)")
    moves, normal = [], f
    for dist in range(table[cls][0], 0, -1):
        move, cls = next((m, c) for m, c in table[cls][1] if table[c][0] < dist)
        moves.append(move)
        normal = hurwitz_move(normal, *move)
    if _certificate(normal) is None:
        raise BrokenIdentity("class search reached target but replay failed")
    return moves, normal


def vanishing_cycle_match(f: Factorization, i: int, j: int,
                          through: bool = False) -> bool:
    """True iff the vanishing cycles at slots i and j (1-based) agree up to
    sign, so the two Lefschetz thimbles glue to a homology sphere.

    With ``through=True`` the cycle at i is first parallel-transported past
    the intervening factors (conjugation by factors[i..j-1]).
    """
    vecs = f.vectors()
    k = len(vecs)
    if not (1 <= i <= k and 1 <= j <= k):
        raise IndexError("slot out of range")
    if i == j:
        return True
    vi, vj = vecs[i - 1], vecs[j - 1]
    if through:
        lo, hi = min(i, j), max(i, j)
        P = IDENT
        for t in range(lo, hi - 1):
            P = mat_mul(P, f.factors[t])
        vi = _act(P, vecs[lo - 1])
        vj = vecs[hi - 1]
    return vi == vj
