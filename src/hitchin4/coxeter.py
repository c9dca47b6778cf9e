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
hat_reduction(word_to_auto(w)).same_map(target word map of w), with the
same leftmost-first reading.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache, reduce
from itertools import chain
from math import gcd
from operator import mul

from .core import (BrokenIdentity, DomainError, GaussianRational, as_gaussian,
                   common_denominator, int_matmul, int_matvec)

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
    (1/2)Z, so d is 1 or 2 on any word over r_0..r_4 or R_0..R_4."""

    L: tuple[tuple[int, ...], ...]
    t: tuple[int, ...]
    d: int
    word: tuple[int, ...] = ()

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


def apply_to_masses(g: AffineIsometry, masses) -> tuple[GaussianRational, ...]:
    """Action of g on a mass vector in Q(i)^4: the rational linear part L/d
    of g applied to the real and the imaginary parts separately."""
    lin = AffineIsometry(g.L, (0, 0, 0, 0), g.d)
    ms = list(map(as_gaussian, masses))
    return tuple(map(GaussianRational, lin([m.re for m in ms]), lin([m.im for m in ms])))


# ---------------------------------------------------------------------------
# alcove walk
# ---------------------------------------------------------------------------

# Gram matrix n_i.n_j of the face normals, and the linear parts met by the
# walk as integer rows over denominator 2, in order of first use (all in W_fin).
_GRAM = tuple(tuple(sum(map(mul, n, m)) for m, _ in _FACES) for n, _ in _FACES)
_LINEAR = [tuple(tuple(2 * (r == k) for k in range(4)) for r in range(4))]


@lru_cache(maxsize=None)
def _linear_step(k: int, i: int) -> int:
    """Index in ``_LINEAR`` of r_i o _LINEAR[k]; filled by the walk, at most 5 * 192 entries."""
    M = tuple(tuple(e // 2 for e in row) for row in int_matmul(generator(i).L, _LINEAR[k]))
    if M not in _LINEAR:
        _LINEAR.append(M)
    return _LINEAR.index(M)


def alcove_walk(alpha, max_steps: int = 100000):
    """Fold alpha into the closed model alcove.

    Returns (g, alpha0, on_wall): g.word applies leftmost-first, alpha0 is in
    the closed model chamber, g(alpha0) == alpha exactly, and on_wall flags a
    boundary landing.  When several face functionals are violated the lowest
    index face is reflected first (deterministic; any order terminates).
    The chamber basis of the alcove ``g*model`` is the model basis times
    ``word_to_auto(g.inverse().word)`` (the walk word read backwards), and
    periods in that basis are its transpose applied to the parallel periods.

    The walk keeps the five integer face values of b = N*alpha, N twice the
    lcm of the denominators, so all start even.  Reflecting in face i by
    q = half its value moves face j by -q*_GRAM[i][j]: five updates per wall
    crossed, about 10 walls per unit of |alpha|.  alpha0 is b less the shifts
    q*n_i, over N; g's linear part is read letter by letter from the memoised
    ``_linear_step``, its translation from g(alpha0) == alpha.  A step or
    translation that does not divide exactly raises ``BrokenIdentity``, and
    ``max_steps`` reflections raise ``WalkLimitExceeded``.
    """
    N, b = common_denominator([Fraction(a) for a in alpha])
    N, b = 2 * N, [2 * v for v in b]
    vals = [sum(map(mul, n, b)) + c * N for n, c in _FACES]
    G, shifts, applied = _GRAM, [0] * 5, []
    for _ in range(max_steps):
        for viol, f in enumerate(vals):
            if f < 0:
                break
        else:  # no face violated: b is in the closed model alcove
            break
        q, r = divmod(f, 2)
        if r:
            raise BrokenIdentity("alcove walk step is not integral")
        vals = [v - q * e for v, e in zip(vals, G[viol])]
        shifts[viol] += q
        applied.append(viol)
    else:
        raise WalkLimitExceeded(f"alcove walk did not reach the model alcove in {max_steps} steps")
    b0 = [v - sum(map(mul, shifts, col)) for v, col in zip(b, zip(*(n for n, _ in _FACES)))]
    word = tuple(reversed(applied))
    k = reduce(_linear_step, word, 0)
    t = [divmod(2 * v - sum(map(mul, row, b0)), N) for row, v in zip(_LINEAR[k], b)]
    if any(r for _, r in t):
        raise BrokenIdentity("alcove walk translation is not integral")
    g = AffineIsometry(*_reduced(_LINEAR[k], tuple(e for e, _ in t), 2), word)
    return g, tuple(Fraction(v, N) for v in b0), 0 in vals


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
