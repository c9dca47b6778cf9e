"""The affine D4 Coxeter group acting on weights, masses and periods.

Generators are the exact reflections r_0..r_4 in the faces of the model
alcove (the interior B1_1 simplex with vertices (1/4,1/4,1/4,1/4), v_{},
v_{12}, v_{13}, v_{14}), an alcove of the affine Weyl group of type D4; each
is built from its row of the integer face table ``_FACES``, which this module
owns.  Words are stored unreduced: ``same_map`` compares group elements as
affine maps, ``==`` compares the map and the word.  A word [i1, i2, ...]
denotes the isometry that applies r_{i1} first, then r_{i2}, and so on.

The companion target-space generators R_0..R_4 (reflections in the faces of
the simplex spanned by 0 and the unit vectors, 4*pi^2 units) satisfy
hat_reduction(word_to_auto(w)) == target word map of w, with the same
leftmost-first reading.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import chain
from math import gcd
from operator import mul

from .core import (DomainError, ExactMatrix, GaussianRational, as_gaussian, common_denominator,
                   int_matmul, int_matvec)

COXETER_MATRIX = ((1, 3, 3, 3, 3),
                  (3, 1, 2, 2, 2),
                  (3, 2, 1, 2, 2),
                  (3, 2, 2, 1, 2),
                  (3, 2, 2, 2, 1))


class NotAVertex(DomainError, ValueError):
    """Argument is not one of the 16 vertices of the cube [0,1/2]^4."""


class WalkLimitExceeded(DomainError, RuntimeError):
    """The alcove walk made ``max_steps`` reflections without reaching the
    closed model alcove (the point lies too far from it)."""


@dataclass(frozen=True)
class AffineIsometry:
    """Exact affine map x -> (L x + t) / d with a generator word, held only as
    its integer form: L a 4x4 integer matrix (rows), t an integer 4-vector and
    d > 0 with gcd(d, entries of L and t) == 1, so equal maps have equal
    fields.  Linear parts and translations of the affine D4 group lie in
    (1/2)Z, so d is 1 or 2 on any word over r_0..r_4 or R_0..R_4.  ``linear``
    and ``translation`` are read-only ``Fraction`` views."""

    L: tuple[tuple[int, ...], ...]
    t: tuple[int, ...]
    d: int
    word: tuple[int, ...] = ()

    @property
    def linear(self) -> ExactMatrix:
        return ExactMatrix(tuple(tuple(Fraction(e, self.d) for e in row) for row in self.L))

    @property
    def translation(self) -> tuple[Fraction, ...]:
        return tuple(Fraction(e, self.d) for e in self.t)

    def __call__(self, x) -> tuple[Fraction, ...]:
        """(L x + t) / d on exact numbers x, computed on integer numerators
        over one common denominator; ``ValueError`` unless len(x) == 4."""
        x = [Fraction(v) for v in x]
        if len(x) != 4:
            raise ValueError("length mismatch")
        N, b = common_denominator(x)
        return tuple(Fraction(sum(map(mul, row, b)) + s * N, self.d * N)
                     for row, s in zip(self.L, self.t))

    def after(self, other: "AffineIsometry") -> "AffineIsometry":
        """Composite applying ``other`` first: self o other."""
        return AffineIsometry(*_fold((other, self)), other.word + self.word)

    def inverse(self) -> "AffineIsometry":
        Lt = tuple(zip(*self.L))  # orthogonal linear part: (L/d)^-1 = L^T/d, over d^2
        form = _reduced(tuple(tuple(self.d * e for e in row) for row in Lt),
                        tuple(-v for v in int_matvec(Lt, self.t)), self.d ** 2)
        return AffineIsometry(*form, tuple(reversed(self.word)))

    def same_map(self, other: "AffineIsometry") -> bool:
        return (self.L, self.t, self.d) == (other.L, other.t, other.d)

    @staticmethod
    def identity() -> "AffineIsometry":
        return AffineIsometry(*_IDENTITY, ())


_IDENTITY = (((1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)), (0, 0, 0, 0), 1)


def _reduced(L, t, d):
    """Integer form (L, t, d), tuples of ints, divided by gcd(d, entries of L and t)."""
    k = gcd(d, *t, *chain.from_iterable(L))
    if k == 1:
        return L, t, d
    return tuple(tuple(e // k for e in row) for row in L), tuple(e // k for e in t), d // k


def _fold(gs):
    """Integer form of the composite of ``gs``, the first applied first."""
    L, t, d = _IDENTITY
    for g in gs:
        L = int_matmul(g.L, L)
        t = tuple(a + d * s for a, s in zip(int_matvec(g.L, t), g.t))
        L, t, d = _reduced(L, t, d * g.d)
    return L, t, d


def compose_word(word, gens) -> AffineIsometry:
    """Isometry of a word, leftmost letter applied first, folded on the
    letters' integer forms with one gcd reduction per letter.  Its word is the
    concatenation of the letters' ``gens[i].word``.  Raises ``ValueError`` for
    a letter outside ``0..len(gens)-1``."""
    word = tuple(word)
    for i in word:
        if not 0 <= i < len(gens):
            raise ValueError(f"letter {i} outside 0..{len(gens) - 1}")
    return AffineIsometry(*_fold(gens[i] for i in word),
                          tuple(chain.from_iterable(gens[i].word for i in word)))


# ---------------------------------------------------------------------------
# model alcove and generators
# ---------------------------------------------------------------------------

# Faces f_0..f_4 of the model alcove, f_i omitting the i-th vertex named in
# the module docstring, as rows (n, c): the inward functional of f_i is
# n.x + c, positive on the interior.  Every n lies in {+-1}^4, so |n|^2 = 4
# on every face.  The functionals are the five x-periods of the model
# chamber's parallel basis: f_0 is L_1 = x_0 and f_1..f_4 are K_{}, K_{12},
# K_{13}, K_{14} = x_1..x_4, which ``torelli`` reads from this table.
_FACES = (((-1, 1, 1, 1), 0),
          ((-1, -1, -1, -1), 1),
          ((1, 1, -1, -1), 0),
          ((1, -1, 1, -1), 0),
          ((1, -1, -1, 1), 0))


@lru_cache(maxsize=None)
def generator(i: int) -> AffineIsometry:
    """Reflection r_i in face f_i of the model alcove (exact): with
    |n|^2 = 4 it is x -> x - (n.x + c) n / 2, linear part I - n n^T / 2 and
    translation -c n / 2."""
    if not 0 <= i <= 4:
        raise ValueError("index must be in 0..4")
    n, c = _FACES[i]
    L = tuple(tuple(2 * (r == k) - n[r] * n[k] for k in range(4)) for r in range(4))
    return AffineIsometry(L, tuple(-c * a for a in n), 2, (i,))


@lru_cache(maxsize=None)
def target_generator(i: int) -> AffineIsometry:
    """Reflection R_i in face F_i of the target simplex (0, e_1..e_4),
    x-periods in 4*pi^2 units.  R_0 has translation (1/2,1/2,1/2,1/2);
    R_1..R_4 are coordinate sign flips."""
    if not 0 <= i <= 4:
        raise ValueError("index must be in 0..4")
    if i == 0:
        L = tuple(tuple(2 * (r == c) - 1 for c in range(4)) for r in range(4))
        return AffineIsometry(L, (1, 1, 1, 1), 2, (0,))
    L = tuple(tuple(-1 if r == c == i - 1 else int(r == c) for c in range(4)) for r in range(4))
    return AffineIsometry(L, (0, 0, 0, 0), 1, (i,))


def mass_action(g: AffineIsometry) -> ExactMatrix:
    """Linear part of g extended entrywise to Q(i); acts on mass vectors."""
    return ExactMatrix(tuple(tuple(GaussianRational(e) for e in row)
                             for row in g.linear.rows))


def apply_to_masses(g: AffineIsometry, masses) -> tuple[GaussianRational, ...]:
    """``mass_action(g).apply(masses)``: the rational linear part L/d of g
    applied to the real and the imaginary parts separately."""
    lin = AffineIsometry(g.L, (0, 0, 0, 0), g.d)
    ms = list(map(as_gaussian, masses))
    return tuple(map(GaussianRational, lin([m.re for m in ms]), lin([m.im for m in ms])))


# ---------------------------------------------------------------------------
# alcove walk
# ---------------------------------------------------------------------------

def alcove_walk(alpha, max_steps: int = 100000):
    """Fold alpha into the closed model alcove.

    Returns (g, alpha0, on_wall): g.word applies leftmost-first, alpha0 is in
    the closed model chamber, g(alpha0) == alpha exactly, and on_wall flags a
    boundary landing.  When several face functionals are violated the lowest
    index face is reflected first (deterministic; any order terminates).
    The chamber basis of the alcove ``g*model`` is the model basis times
    ``word_to_auto(g.inverse().word)`` (the walk word read backwards), and
    periods in that basis are its transpose applied to the parallel periods.

    The walk steps on integer numerators b = N*alpha with N twice the lcm of
    the denominators, so every b_i starts even.  With n in {+-1}^4 a face
    functional n.b + c*N has the parity of sum(b), and the reflection step
    b -> b - (n.b + c*N)/2 * n (a ``divmod`` by 2) changes sum(b) by a
    multiple of the even sum(n), so every step divides exactly (checked;
    ``ArithmeticError`` otherwise).
    Each step crosses one wall, so the cost is linear in the distance from
    the model alcove (about 10 steps per unit of |alpha|); g is composed
    once at the end by ``compose_word``.  Raises ``WalkLimitExceeded`` after
    ``max_steps`` reflections.
    """
    N, b = common_denominator([Fraction(a) for a in alpha])
    N, b = 2 * N, [2 * v for v in b]
    applied: list[int] = []
    for _ in range(max_steps):
        vals = [sum(map(mul, n, b)) + c * N for n, c in _FACES]
        viol = next((i for i, f in enumerate(vals) if f < 0), None)
        if viol is None:
            word = tuple(reversed(applied))
            g = compose_word(word, [generator(i) for i in range(5)])
            return g, tuple(Fraction(v, N) for v in b), 0 in vals
        q, r = divmod(vals[viol], 2)
        if r:
            raise ArithmeticError("alcove walk step is not integral")
        b = [v - q * a for v, a in zip(b, _FACES[viol][0])]
        applied.append(viol)
    raise WalkLimitExceeded(f"alcove walk did not reach the model alcove in {max_steps} steps")


# ---------------------------------------------------------------------------
# finite subgroup and vertex orbits
# ---------------------------------------------------------------------------

@lru_cache(maxsize=1)
def enumerate_W_fin() -> tuple[AffineIsometry, ...]:
    """Closure of {r_0, r_2, r_3, r_4}: the 192-element finite D4 Coxeter
    group fixing the origin (all elements linear)."""
    gens = [generator(i) for i in (0, 2, 3, 4)]
    frontier = [AffineIsometry.identity()]
    seen = {(frontier[0].L, frontier[0].t, frontier[0].d): frontier[0]}
    while frontier:
        new = []
        for g in frontier:
            for h in gens:
                c = h.after(g)
                key = (c.L, c.t, c.d)
                if key not in seen:
                    seen[key] = c
                    new.append(c)
        frontier = new
    return tuple(seen.values())


_ORBIT_OF_PAIR = {
    frozenset({0b0011, 0b1100}): "12/34",
    frozenset({0b0101, 0b1010}): "13/24",
    frozenset({0b1001, 0b0110}): "14/23",
    frozenset({0b0000, 0b1111}): "0/1234",
}


def vertex_orbit(v) -> str:
    """Orbit label of a cube vertex under the Coxeter action: one of
    12/34, 13/24, 14/23, 0/1234, odd."""
    v = tuple(Fraction(a) for a in v)
    mask = 0
    for i, a in enumerate(v):
        if a == Fraction(1, 2):
            mask |= 1 << i
        elif a != 0:
            raise NotAVertex(f"{v} is not a vertex of [0,1/2]^4")
    if bin(mask).count("1") % 2 == 1:
        return "odd"
    return _ORBIT_OF_PAIR[frozenset({mask, mask ^ 0b1111})]
