"""The affine D4 Coxeter group acting on weights, masses and periods.

Generators are the exact reflections r_0..r_4 in the faces of the model
chamber (the interior B1_1 simplex with vertices (1/4,1/4,1/4,1/4), v_{},
v_{12}, v_{13}, v_{14}); they are constructed from face normals rather than
transcribed.  Words are stored unreduced; equality of group elements is
equality of affine maps.  A word [i1, i2, ...] denotes the isometry that
applies r_{i1} first, then r_{i2}, and so on.

The companion target-space generators R_0..R_4 (reflections in the faces of
the simplex spanned by 0 and the unit vectors, 4*pi^2 units) satisfy
hat_reduction(word_to_auto(w)) == target word map of w, with the same
leftmost-first reading.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from itertools import chain
from math import gcd, lcm
from operator import mul

from .core import ExactMatrix, GaussianRational, nullspace

COXETER_MATRIX = ((1, 3, 3, 3, 3),
                  (3, 1, 2, 2, 2),
                  (3, 2, 1, 2, 2),
                  (3, 2, 2, 1, 2),
                  (3, 2, 2, 2, 1))


class NotAVertex(ValueError):
    """Argument is not one of the 16 vertices of the cube [0,1/2]^4."""


class WalkLimitExceeded(RuntimeError):
    """The alcove walk made ``max_steps`` reflections without reaching the
    closed model alcove (the point lies too far from it)."""


@dataclass(frozen=True)
class AffineIsometry:
    """Exact affine map x -> linear x + translation with a generator word."""

    linear: ExactMatrix
    translation: tuple[Fraction, Fraction, Fraction, Fraction]
    word: tuple[int, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "translation", tuple(Fraction(t) for t in self.translation))

    def __call__(self, x):
        y = self.linear.apply(tuple(Fraction(v) for v in x))
        return tuple(a + b for a, b in zip(y, self.translation))

    def after(self, other: "AffineIsometry") -> "AffineIsometry":
        """Composite applying ``other`` first: self o other."""
        return compose_word((0, 1), (other, self))

    def inverse(self) -> "AffineIsometry":
        lt = self.linear.transpose()  # orthogonal linear part
        tr = tuple(-v for v in lt.apply(self.translation))
        return AffineIsometry(lt, tr, tuple(reversed(self.word)))

    def same_map(self, other: "AffineIsometry") -> bool:
        return self.linear == other.linear and self.translation == other.translation

    @staticmethod
    def identity() -> "AffineIsometry":
        return AffineIsometry(ExactMatrix.identity(4), (Fraction(0),) * 4, ())


# An affine map x -> (L x + t) / d is held as its integer form (L, t, d):
# L a 4x4 integer matrix, t an integer 4-vector and d > 0 with
# gcd(d, entries of L and t) == 1.  Linear parts and translations of the
# affine D4 group lie in (1/2)Z, so d is 1 or 2 on any word over r_0..r_4.

def _integer_form(g: AffineIsometry):
    entries = (*chain.from_iterable(g.linear.rows), *g.translation)
    d = lcm(*(e.denominator for e in entries))
    L = tuple(tuple(e.numerator * (d // e.denominator) for e in row)
              for row in g.linear.rows)
    t = tuple(e.numerator * (d // e.denominator) for e in g.translation)
    return L, t, d


def _fold(forms):
    """Integer form of the composite of ``forms``, the first applied first."""
    L = ((1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1))
    t = (0, 0, 0, 0)
    d = 1
    for Lg, tg, dg in forms:
        cols = tuple(zip(*L))
        L = [[sum(map(mul, row, col)) for col in cols] for row in Lg]
        t = [sum(map(mul, row, t)) + d * s for row, s in zip(Lg, tg)]
        d *= dg
        k = gcd(d, *t, *chain.from_iterable(L))
        if k > 1:
            L = [[e // k for e in row] for row in L]
            t = [e // k for e in t]
            d //= k
    return L, t, d


def compose_word(word, gens) -> AffineIsometry:
    """Isometry of a word, leftmost letter applied first.

    The word is folded on integer forms (integer linear part and translation
    over one denominator, reduced by one gcd per letter) and converted to
    ``Fraction`` once at the end.  Its word is the concatenation of the
    letters' ``gens[i].word``.  Raises ``ValueError`` for a letter outside
    ``0..len(gens)-1``.
    """
    word = tuple(word)
    for i in word:
        if not 0 <= i < len(gens):
            raise ValueError(f"letter {i} outside 0..{len(gens) - 1}")
    forms = {i: _integer_form(gens[i]) for i in set(word)}
    L, t, d = _fold(forms[i] for i in word)
    return AffineIsometry(ExactMatrix(tuple(tuple(Fraction(e, d) for e in row) for row in L)),
                          tuple(Fraction(e, d) for e in t),
                          tuple(chain.from_iterable(gens[i].word for i in word)))


# ---------------------------------------------------------------------------
# model chamber and generators
# ---------------------------------------------------------------------------

def _vertex(mask: int) -> tuple[Fraction, ...]:
    return tuple(Fraction(1, 2) if mask >> i & 1 else Fraction(0) for i in range(4))


MODEL_VERTICES = ((Fraction(1, 4),) * 4, _vertex(0), _vertex(0b0011),
                  _vertex(0b0101), _vertex(0b1001))


@dataclass(frozen=True)
class ModelChamber:
    """The model simplex with faces f_i (omitting vertex i), their inward
    functionals and exact reflections."""

    vertices: tuple = MODEL_VERTICES
    normals: tuple = field(init=False)

    def __post_init__(self):
        norms = []
        for i in range(5):
            others = [v for j, v in enumerate(self.vertices) if j != i]
            base = others[0]
            rows = [tuple(p - q for p, q in zip(v, base)) for v in others[1:]]
            ns = nullspace(ExactMatrix(rows))
            if len(ns) != 1:
                raise AssertionError("face normal is not unique")
            n = ns[0]
            # orient inward: positive on the omitted vertex
            val = sum((a - b) * c for a, b, c in zip(self.vertices[i], base, n))
            if val < 0:
                n = tuple(-c for c in n)
            norms.append((n, base))
        object.__setattr__(self, "normals", tuple(norms))

    def functional(self, i: int, x) -> Fraction:
        """Inward affine functional of face f_i; positive on the interior."""
        n, base = self.normals[i]
        return sum((Fraction(a) - b) * c for a, b, c in zip(x, base, n))

    def reflection(self, i: int) -> AffineIsometry:
        n, base = self.normals[i]
        nn = sum(c * c for c in n)
        lin = ExactMatrix(tuple(tuple(Fraction(int(r == c)) - 2 * n[r] * n[c] / nn
                                      for c in range(4)) for r in range(4)))
        nb = sum(a * b for a, b in zip(n, base))
        tr = tuple(2 * nb * c / nn for c in n)
        return AffineIsometry(lin, tr, (i,))

    def contains(self, x, closed: bool = True) -> bool:
        vals = [self.functional(i, x) for i in range(5)]
        return all(v >= 0 for v in vals) if closed else all(v > 0 for v in vals)


MODEL = ModelChamber()


@lru_cache(maxsize=None)
def generator(i: int) -> AffineIsometry:
    """Reflection r_i in face f_i of the model chamber (exact)."""
    if not 0 <= i <= 4:
        raise ValueError("index must be in 0..4")
    return MODEL.reflection(i)


@lru_cache(maxsize=None)
def target_generator(i: int) -> AffineIsometry:
    """Reflection R_i in face F_i of the target simplex (0, e_1..e_4),
    x-periods in 4*pi^2 units.  R_0 has translation (1/2,1/2,1/2,1/2);
    R_1..R_4 are coordinate sign flips."""
    if not 0 <= i <= 4:
        raise ValueError("index must be in 0..4")
    if i == 0:
        lin = ExactMatrix(tuple(tuple(Fraction(1, 2) if r == c else Fraction(-1, 2)
                                      for c in range(4)) for r in range(4)))
        return AffineIsometry(lin, (Fraction(1, 2),) * 4, (0,))
    lin = ExactMatrix(tuple(tuple(Fraction(-1 if r == c == i - 1 else int(r == c))
                                  for c in range(4)) for r in range(4)))
    return AffineIsometry(lin, (Fraction(0),) * 4, (i,))


def mass_action(g: AffineIsometry) -> ExactMatrix:
    """Linear part of g extended entrywise to Q(i); acts on mass vectors."""
    return ExactMatrix(tuple(tuple(GaussianRational(e) for e in row)
                             for row in g.linear.rows))


def apply_to_masses(g: AffineIsometry, masses) -> tuple[GaussianRational, ...]:
    """``mass_action(g).apply(masses)``: the rational linear part of g applied
    to the real and the imaginary parts separately."""
    ms = tuple(m if isinstance(m, GaussianRational) else GaussianRational(Fraction(m))
               for m in masses)
    re = g.linear.apply(tuple(m.re for m in ms))
    im = g.linear.apply(tuple(m.im for m in ms))
    return tuple(GaussianRational(a, b) for a, b in zip(re, im))


# ---------------------------------------------------------------------------
# alcove walk
# ---------------------------------------------------------------------------

def _integer_faces():
    """Faces of MODEL as (n, c, |n|^2): the inward functional of face i at the
    point b/N, times N, is n.b + c*N with n and c integers."""
    faces = []
    for n, base in MODEL.normals:
        c = -sum(a * b for a, b in zip(n, base))
        if any(v.denominator != 1 for v in (*n, c)):
            raise AssertionError("face normal or offset is not integral")
        faces.append((tuple(int(v) for v in n), int(c), int(sum(v * v for v in n))))
    return tuple(faces)


_FACES = _integer_faces()


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
    the denominators: each face functional is +-b1+-b2+-b3+-b4 (+ N), whose
    parity is that of sum(b), and the reflections keep that parity even, so
    every step divides exactly (checked; ``ArithmeticError`` otherwise).
    Each step crosses one wall, so the cost is linear in the distance from
    the model alcove (about 10 steps per unit of |alpha|); g is composed
    once at the end by ``compose_word``.  Raises ``WalkLimitExceeded`` after
    ``max_steps`` reflections.
    """
    x = tuple(Fraction(a) for a in alpha)
    N = 2 * lcm(*(v.denominator for v in x))
    b = [v.numerator * (N // v.denominator) for v in x]
    applied: list[int] = []
    for _ in range(max_steps):
        vals = [sum(map(mul, n, b)) + c * N for n, c, _ in _FACES]
        viol = next((i for i, f in enumerate(vals) if f < 0), None)
        if viol is None:
            word = tuple(reversed(applied))
            g = compose_word(word, [generator(i) for i in range(5)])
            return g, tuple(Fraction(v, N) for v in b), 0 in vals
        n, _, nn = _FACES[viol]
        q, r = divmod(2 * vals[viol], nn)
        if r:
            raise ArithmeticError("alcove walk step is not integral")
        b = [v - q * a for v, a in zip(b, n)]
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
    seen = {}
    frontier = [AffineIsometry.identity()]
    seen[(frontier[0].linear, frontier[0].translation)] = frontier[0]
    while frontier:
        new = []
        for g in frontier:
            for h in gens:
                c = h.after(g)
                key = (c.linear, c.translation)
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
