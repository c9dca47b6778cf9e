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

from dataclasses import dataclass, replace
from fractions import Fraction
from functools import lru_cache, reduce
from itertools import chain
from math import gcd
from operator import mul

from .core import (BrokenIdentity, DomainError, GaussianRational, as_gaussian,
                   common_denominator, gaussian_form, int_matmul, int_matvec, read_vector)

COXETER_MATRIX = ((1, 3, 3, 3, 3), (3, 1, 2, 2, 2), (3, 2, 1, 2, 2), (3, 2, 2, 1, 2),
                  (3, 2, 2, 2, 1))


class NotAVertex(DomainError, ValueError):
    """Argument is not one of the 16 vertices of the cube [0,1/2]^4."""


class WalkLimitExceeded(DomainError, RuntimeError):
    """The alcove walk made ``WALK_LIMIT`` reflections without reaching the
    closed model alcove (the point lies too far from it)."""


@dataclass(frozen=True)
class AffineIsometry:
    """Exact affine map x -> (L x + t) / d with a generator word, held only as
    its integer form: L a 4x4 integer matrix (rows), t an integer 4-vector and
    d > 0 with gcd(d, entries of L and t) == 1, so equal maps have equal
    fields; d is 1 or 2 on every word that ``compose_word`` accepts."""

    L: tuple[tuple[int, ...], ...]
    t: tuple[int, ...]
    d: int
    word: tuple[int, ...] = ()

    def __call__(self, x) -> tuple[Fraction, ...]:
        """(L x + t) / d on exact numbers x, computed on integer numerators
        over one common denominator; ``ValueError`` unless len(x) == 4."""
        N, b = common_denominator(read_vector(x, 4))
        return tuple(Fraction(sum(map(mul, row, b)) + s * N, self.d * N)
                     for row, s in zip(self.L, self.t))

    def after(self, other: "AffineIsometry") -> "AffineIsometry":
        """Composite applying ``other`` first: self o other, one integer product."""
        t = tuple(a + other.d * s for a, s in zip(int_matvec(self.L, other.t), self.t))
        return AffineIsometry(*_reduced(int_matmul(self.L, other.L), t, self.d * other.d),
                              other.word + self.word)

    def inverse(self) -> "AffineIsometry":
        Lt = tuple(zip(*self.L))  # orthogonal linear part: (L/d)^-1 = L^T/d, over d^2
        form = _reduced(tuple(tuple(self.d * e for e in row) for row in Lt),
                        tuple(-v for v in int_matvec(Lt, self.t)), self.d ** 2)
        return AffineIsometry(*form, tuple(reversed(self.word)))

    def same_map(self, other: "AffineIsometry") -> bool:
        return (self.L, self.t, self.d) == (other.L, other.t, other.d)

    @staticmethod
    def identity() -> "AffineIsometry":
        return compose_word((), ())


def _reduced(L, t, d):
    """Integer form (L, t, d), tuples of ints, divided by gcd(d, entries of L and t)."""
    k = gcd(d, *t, *chain.from_iterable(L))
    if k == 1:
        return L, t, d
    return tuple(tuple(e // k for e in row) for row in L), tuple(e // k for e in t), d // k


# The composition kernel holds a group element as (k, t2): linear part _LINEAR[k]
# (integer rows over 2), translation t2 / 2.
_LINEAR = [tuple(tuple(2 * (r == k) for k in range(4)) for r in range(4))]
_LINEAR_INDEX = {_LINEAR[0]: 0}


@lru_cache(maxsize=None)
def _linear_step(k: int, j: int) -> int:
    """Index in ``_LINEAR`` of generator j's linear part after _LINEAR[k]; the nine
    generators' linear parts close on the 192 of ``enumerate_W_fin``."""
    L, _, d = _GENERATORS[j]
    M = tuple(tuple(e // d for e in row) for row in int_matmul(L, _LINEAR[k]))
    if M not in _LINEAR_INDEX:  # append, then index: a racing duplicate reads the first
        _LINEAR.append(M)
        _LINEAR_INDEX.setdefault(M, _LINEAR.index(M))
    return _LINEAR_INDEX[M]


def compose_word(word, gens) -> AffineIsometry:
    """Isometry of a word, leftmost letter applied first, with the letters'
    ``gens[i].word`` concatenated: per letter one ``_linear_step`` read and one
    matvec t2 <- (L t2 + 2t) / d checked exact (``BrokenIdentity``), then one
    gcd.  Domain: each of ``gens`` is r_0..r_4 or R_0..R_4 as a map (its word may
    differ); ``ValueError`` for another generator or a letter outside 0..len(gens)-1."""
    word = tuple(word)
    for i in word:
        if not 0 <= i < len(gens):
            raise ValueError(f"letter {i} outside 0..{len(gens) - 1}")
    js = [_GENERATOR_INDEX.get((g.L, g.t, g.d)) for g in gens]
    if None in js:
        raise ValueError(f"letter {js.index(None)} is outside the domain: r_0..r_4, R_0..R_4")
    k, t = 0, (0, 0, 0, 0)
    for i in word:
        k = _linear_step(k, js[i])
        L, s, d = _GENERATORS[js[i]]
        t, r = zip(*[divmod(sum(map(mul, row, t)) + e, d) for row, e in zip(L, s)])
        if any(r):
            raise BrokenIdentity("word translation is not integral")
    return AffineIsometry(*_reduced(_LINEAR[k], t, 2),
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
_FACES = (((-1, 1, 1, 1), 0), ((-1, -1, -1, -1), 1), ((1, 1, -1, -1), 0),
          ((1, -1, 1, -1), 0), ((1, -1, -1, 1), 0))
_GRAM = tuple(tuple(sum(map(mul, n, m)) for m, _ in _FACES) for n, _ in _FACES)


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
    if i == 0:  # F_0, the plane x_1 + ... + x_4 = 1, is the plane of f_1
        return replace(generator(1), word=(0,))
    L = tuple(tuple(-1 if r == c == i - 1 else int(r == c) for c in range(4)) for r in range(4))
    return AffineIsometry(L, (0, 0, 0, 0), 1, (i,))


# The nine generator forms (L, t, d) of r_0..r_4 and R_0..R_4 (R_0 is r_1 as a map),
# r_0..r_4 first so that walk letter i is index i, held as (L, 2t, d); no other joins.
_GENERATOR_INDEX = {}
for _g in [*map(generator, range(5)), *map(target_generator, range(5))]:
    _GENERATOR_INDEX.setdefault((_g.L, _g.t, _g.d), len(_GENERATOR_INDEX))
_GENERATORS = [(L, tuple(2 * e for e in t), d) for L, t, d in _GENERATOR_INDEX]


def apply_to_masses(g: AffineIsometry, masses) -> tuple[GaussianRational, ...]:
    """Action of g on a mass vector in Q(i)^4: the rational linear part L/d
    of g applied to the real and imaginary numerators over one common
    denominator; ``ValueError`` unless there are four masses."""
    N, re, im = gaussian_form(read_vector(masses, 4, as_gaussian))
    return tuple(GaussianRational(Fraction(sum(map(mul, row, re)), g.d * N),
                                  Fraction(sum(map(mul, row, im)), g.d * N)) for row in g.L)


# ---------------------------------------------------------------------------
# alcove walk
# ---------------------------------------------------------------------------

WALK_LIMIT = 100_000  # reflections, reached near |alpha| = 1e4


def alcove_walk(alpha):
    """Fold alpha into the closed model alcove.

    Returns (g, alpha0, on_wall): g.word applies leftmost-first, alpha0 is in
    the closed model chamber, g(alpha0) == alpha exactly, and on_wall flags a
    boundary landing; the lowest violated face is reflected first.  The
    chamber basis of the alcove ``g*model`` is the model basis times
    ``word_to_auto(g.inverse().word)`` (the walk word read backwards), and
    periods in that basis are its transpose applied to the parallel periods.

    The walk keeps the five integer face values of b = N*alpha (N twice the
    lcm of the denominators: all start even).  Reflecting in face i by q = half
    its value moves face j by -q*_GRAM[i][j], about 10 walls per unit of
    |alpha|.  alpha0 is b less the shifts q*n_i, over N; g's linear part is read
    from the kernel's ``_linear_step``, its translation from g(alpha0) == alpha.
    An inexact step or translation raises ``BrokenIdentity``, and ``WALK_LIMIT``
    reflections raise ``WalkLimitExceeded``.
    """
    N, b = common_denominator(read_vector(alpha, 4))
    N, b = 2 * N, [2 * v for v in b]
    vals = [sum(map(mul, n, b)) + c * N for n, c in _FACES]
    G, shifts, applied = _GRAM, [0] * 5, []
    for _ in range(WALK_LIMIT):
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
        raise WalkLimitExceeded(f"alcove walk did not reach the model alcove in {WALK_LIMIT} steps")
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
    """Closure of {r_0, r_2, r_3, r_4}, breadth first on ``_linear_step``: the
    192 linear elements of the finite D4 Coxeter group, each with its first word."""
    words, queue = {0: ()}, [0]
    for k in queue:
        for i in (0, 2, 3, 4):
            c = _linear_step(k, i)
            if c not in words:
                words[c] = words[k] + (i,)
                queue.append(c)
    return tuple(AffineIsometry(*_reduced(_LINEAR[k], (0, 0, 0, 0), 2), w)
                 for k, w in words.items())


def vertex_orbit(v) -> str:
    """Orbit label of a cube vertex under the Coxeter action: one of
    12/34, 13/24, 14/23, 0/1234, odd (a vertex and its complement share one)."""
    v = read_vector(v)
    if len(v) != 4 or any(a not in (0, Fraction(1, 2)) for a in v):
        raise NotAVertex(f"({', '.join(map(str, v))}) is not a vertex of [0,1/2]^4")
    mask = sum(1 << i for i, a in enumerate(v) if a)  # min(mask, complement) keys the pair
    return {0: "0/1234", 3: "12/34", 5: "13/24", 6: "14/23"}.get(min(mask, mask ^ 0b1111), "odd")
