"""Brute-force and slow reference oracles, shared by the test modules: a
small exact matrix type with row reduction (determinant and nullspace), the
``Fraction`` views of a Coxeter group element's integer form, the model
alcove's faces derived from its vertices, the homology lattice's -2 classes
and automorphism test, the linear part of the hat reduction, the SL(2,Z)
conjugator of a monodromy factorization, the per-call breadth-first search
that ``monodromy.normalize`` replaced, and the ``Fraction`` reference of
the chamber, genericity, Torelli and period-domain computations and of the
integer forms their values carry."""

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import product
from math import gcd
from typing import Iterable, Sequence

from hitchin4 import monodromy
from hitchin4.chambers import OnWall, OutOfCube, ParabolicData, exterior_label, interior_label
from hitchin4.core import BrokenIdentity, GaussianRational, int_matmul, int_matvec
from hitchin4.homology import FIBER_CLASS, I0, intersection
from hitchin4.monodromy import mat_det, mat_mul
from hitchin4.torelli import PARALLEL_BASIS, NonGeneric, PeriodVector


# ---------------------------------------------------------------------------
# exact matrices
# ---------------------------------------------------------------------------

class ExactMatrix:
    """Immutable dense matrix over an exact field (Fraction or GaussianRational)."""

    __slots__ = ("rows",)

    def __init__(self, rows: Iterable[Iterable]):
        def norm(e):
            return Fraction(e) if isinstance(e, int) else e

        self.rows = tuple(tuple(norm(e) for e in r) for r in rows)
        if self.rows and any(len(r) != len(self.rows[0]) for r in self.rows):
            raise ValueError("ragged rows")

    @property
    def shape(self):
        return (len(self.rows), len(self.rows[0]) if self.rows else 0)

    @staticmethod
    def identity(n: int) -> "ExactMatrix":
        return ExactMatrix(tuple(tuple(Fraction(int(i == j)) for j in range(n)) for i in range(n)))

    def __eq__(self, other):
        return isinstance(other, ExactMatrix) and self.rows == other.rows

    def __hash__(self):
        return hash(self.rows)

    def __repr__(self):
        return f"ExactMatrix({[list(map(str, r)) for r in self.rows]})"

    def __mul__(self, other):
        if isinstance(other, ExactMatrix):
            n, k = self.shape
            k2, m = other.shape
            if k != k2:
                raise ValueError("shape mismatch")
            cols = tuple(zip(*other.rows))
            return ExactMatrix(tuple(tuple(sum(a * b for a, b in zip(row, col))
                                           for col in cols) for row in self.rows))
        return ExactMatrix(tuple(tuple(a * other for a in r) for r in self.rows))

    __rmul__ = __mul__

    def transpose(self) -> "ExactMatrix":
        return ExactMatrix(tuple(zip(*self.rows)))

    def apply(self, vec: Sequence) -> tuple:
        n, k = self.shape
        if len(vec) != k:
            raise ValueError("length mismatch")
        return tuple(sum(a * v for a, v in zip(row, vec)) for row in self.rows)


# ---------------------------------------------------------------------------
# Fraction views of an integer form x -> (L x + t) / d
# ---------------------------------------------------------------------------

def linear(g) -> ExactMatrix:
    """Linear part L/d of ``g`` (a ``coxeter.AffineIsometry``) over Fraction."""
    return ExactMatrix(tuple(tuple(Fraction(e, g.d) for e in row) for row in g.L))


def translation(g) -> tuple[Fraction, ...]:
    """Translation t/d of ``g`` over Fraction."""
    return tuple(Fraction(e, g.d) for e in g.t)


def mass_action(g) -> ExactMatrix:
    """Linear part of ``g`` extended entrywise to Q(i); acts on mass vectors."""
    return ExactMatrix(tuple(tuple(GaussianRational(e) for e in row)
                             for row in linear(g).rows))


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


def is_lattice_auto(A) -> bool:
    """A preserves I0 and fixes the fiber class (2,1,1,1,1)."""
    At = tuple(zip(*A))
    if int_matmul(int_matmul(At, I0), A) != I0:
        return False
    return int_matvec(A, FIBER_CLASS) == FIBER_CLASS


def hat_linear_apply(A, z) -> tuple:
    """Apply the linear (z-period) part of the hat reduction, z -> hatA^T z,
    with hatA_ij = a_ij - a_0j / 2 (i, j = 1..4) built from A's entries."""
    hatA = ExactMatrix(tuple(tuple(Fraction(A[i][j]) - Fraction(A[0][j], 2)
                                   for j in range(1, 5)) for i in range(1, 5)))
    return hatA.transpose().apply(tuple(z))


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


def bfs_normalize(f, max_depth: int = 24):
    """Reference ``monodromy.normalize``: a breadth-first search per call
    from f's class over eigenvector tuples hashed by their canonical class,
    each class keeping the (class, move) that first reached it, stopped as
    soon as the pattern's class is reached; the move path is unwound from
    the pattern's class, replayed on f and certified."""
    if max_depth < 0:
        raise ValueError(f"search depth must be >= 0, got {max_depth}")
    if len(f.factors) != 6:
        raise ValueError("need six factors")
    vecs = f.vectors()
    if f.total_product() != monodromy.NEG_IDENT:
        raise ValueError("composite along the base loop must be -Id")
    target = monodromy._TARGET
    _, start = monodromy._canonical_class(vecs)
    parents = {start: None}
    frontier = [(start, vecs)]
    for _ in range(max_depth):
        if target in parents or not frontier:
            break
        nxt = []
        for cls, raw in frontier:
            for move, raw2 in monodromy._class_moves(raw):
                _, cls2 = monodromy._canonical_class(raw2)
                if cls2 not in parents:
                    parents[cls2] = (cls, move)
                    nxt.append((cls2, raw2))
                    if cls2 == target:
                        break
            if target in parents:
                break
        frontier = nxt
    if target not in parents:
        raise monodromy.Exhausted(f"no normalization within depth {max_depth}")
    moves = []
    node = target
    while parents[node] is not None:
        node, move = parents[node]
        moves.append(move)
    moves.reverse()
    normal = f
    for i, d in moves:
        normal = monodromy.hurwitz_move(normal, i, d)
    if monodromy._certificate(normal) is None:
        raise BrokenIdentity("class search reached target but replay failed")
    return moves, normal


# ---------------------------------------------------------------------------
# Fraction reference of the chambers/torelli integer kernel
# ---------------------------------------------------------------------------
#
# The wall, genericity, Torelli and period-domain computations written one
# ``Fraction``/``GaussianRational`` operation at a time, as the library did
# before it moved them onto integer numerators over common denominators.
# Labels come from the library's ``interior_label``/``exterior_label``, which
# sit outside the integer kernel.

def ref_wall_K(mask, alpha) -> Fraction:
    alpha = [Fraction(a) for a in alpha]
    s = sum(alpha[i] if mask >> i & 1 else -alpha[i] for i in range(4))
    k = bin(mask & 0b1111).count("1")
    return s + Fraction((4 - 2 * k) // 4)


def ref_wall_L(i, alpha) -> Fraction:
    alpha = [Fraction(a) for a in alpha]
    return sum(alpha) - 2 * alpha[i - 1]


def ref_check_cube(alpha):
    if any(not (0 < a < Fraction(1, 2)) for a in alpha):
        raise OutOfCube(f"alpha ({', '.join(map(str, alpha))}) not in (0,1/2)^4")


@lru_cache(maxsize=1)  # asked directly and by ref_torelli_chamber
def ref_classify_chamber(alpha):
    alpha = tuple(Fraction(a) for a in alpha)
    ref_check_cube(alpha)
    for i in range(1, 5):
        li = ref_wall_L(i, alpha)
        if li == 0 or li == 1:
            raise OnWall(f"L_{i} = {li}")
        if li < 0:
            return exterior_label(1 << (i - 1))
        if li > 1:
            return exterior_label(0b1111 ^ (1 << (i - 1)))
    choices = []
    for rep in (0b0000, 0b0011, 0b0101, 0b1001):
        k = ref_wall_K(rep, alpha)
        if k == 0:
            raise OnWall(f"K wall for subset mask {rep}")
        choices.append(rep if k > 0 else rep ^ 0b1111)
    return interior_label(choices)


def _signed_sum(signs, vs):
    """sum_j s_j v_j for signs s_j = +-1, without multiplying by them."""
    return sum(v if s > 0 else -v for s, v in zip(signs, vs))


def ref_mass_functional(mask, masses) -> GaussianRational:
    signs = [1 if mask >> j & 1 else -1 for j in range(4)]
    return GaussianRational(_signed_sum(signs, [m.re for m in masses]),
                            _signed_sum(signs, [m.im for m in masses]))


@lru_cache(maxsize=1)  # one draw asks up to four times
def ref_genericity_violations(data) -> list:
    out = []
    terms = [(a, 1 - a) for a in data.alpha]  # e_i + (-1)^e_i a_i for e_i = 0, 1
    for e in product((0, 1), repeat=4):
        s = sum(t[ei] for t, ei in zip(terms, e))
        if s.denominator == 1:
            zeros = sum(1 << i for i, ei in enumerate(e) if not ei)
            if not ref_mass_functional(zeros, data.masses):
                out.append({"d": -s.numerator, "e": list(e)})
    return out


def ref_is_generic(data) -> bool:
    ref_check_cube(data.alpha)
    return not ref_genericity_violations(data)


def ref_in_R_tilde(data, full: bool) -> bool:
    alpha = data.alpha
    if ref_genericity_violations(data):
        return False
    for i in range(4):
        if (2 * alpha[i]).denominator == 1 and not data.masses[i]:
            return False
    if not full:
        l_hit = any((sum(alpha) - 2 * a).denominator == 1 for a in alpha)
        half_hit = any((2 * a).denominator == 1 for a in alpha)
        if l_hit and half_hit:
            return False
    return True


def ref_central_x(label, alpha) -> Fraction:
    alpha = tuple(Fraction(a) for a in alpha)
    i = label.index
    if label.ctype == "A1":
        return 2 * alpha[i - 1]
    if label.ctype == "A2":
        return 1 - 2 * alpha[i - 1]
    if label.ctype == "B1":
        return -ref_wall_K(1 << (i - 1), alpha)
    if label.ctype == "B2":
        return -ref_wall_K(0b1111 ^ (1 << (i - 1)), alpha)
    return ref_wall_K(label.i0, alpha)


def ref_from_outer(x4, z4, basis) -> PeriodVector:
    x4 = tuple(Fraction(v) for v in x4)
    x0 = (1 - sum(x4)) / 2
    z0 = GaussianRational(-sum(z.re for z in z4) / 2, -sum(z.im for z in z4) / 2)
    return PeriodVector((x0,) + x4, (z0,) + tuple(z4), basis)


def ref_torelli_chamber(data) -> PeriodVector:
    label = ref_classify_chamber(data.alpha)
    if not ref_is_generic(data):
        raise NonGeneric(f"(alpha, m) on a Nakajima wall: {data.alpha}")
    ks = [ref_wall_K(s, data.alpha) for s in label.subsets]
    ms = [ref_mass_functional(s, data.masses) for s in label.subsets]
    if label.kind == "exterior":
        k0 = ref_wall_K(label.i0, data.alpha)
        m0 = ref_mass_functional(label.i0, data.masses)
        ks = [k - k0 for k in ks]
        ms = [m - m0 for m in ms]
    pv = ref_from_outer(ks, ms, label)
    assert pv.x[0] == ref_central_x(label, data.alpha)
    return pv


# the model alcove's faces f_1..f_4 as (n, c): x = M alpha + e1, z = M m
REF_FACES = (((-1, -1, -1, -1), 1), ((1, 1, -1, -1), 0), ((1, -1, 1, -1), 0),
             ((1, -1, -1, 1), 0))


def ref_torelli_parallel(data) -> PeriodVector:
    alpha = tuple(Fraction(a) for a in data.alpha)
    x4 = tuple(_signed_sum(n, alpha) + c for n, c in REF_FACES)
    z4 = tuple(ref_mass_functional(sum(1 << j for j, v in enumerate(n) if v > 0), data.masses)
               for n, _ in REF_FACES)
    return ref_from_outer(x4, z4, PARALLEL_BASIS)


def ref_inverse_torelli(pv) -> ParabolicData:
    x4 = [x - c for x, (_, c) in zip(pv.x[1:], REF_FACES)]
    z4 = pv.z[1:]
    cols = list(zip(*(n for n, _ in REF_FACES)))
    alpha = tuple(_signed_sum(col, x4) / 4 for col in cols)
    masses = tuple(GaussianRational(_signed_sum(col, [z.re for z in z4]) / 4,
                                    _signed_sum(col, [z.im for z in z4]) / 4) for col in cols)
    return ParabolicData(alpha, masses)


def ref_in_period_domain(pv):
    def odd(q):
        return q.denominator == 1 and q.numerator % 2 != 0

    x = pv.x[1:]
    z = pv.z[1:]
    sx = sum(x)
    sz = sum(z, GaussianRational(Fraction(0)))
    if odd(sx) and not sz:
        return False, {"family": "H_k", "k": (sx.numerator - 1) // 2}
    for i in range(4):
        if x[i].denominator == 1 and not z[i]:
            return False, {"family": "H_k_i", "k": x[i].numerator, "i": i + 1}
        v = 2 * x[i] - sx
        if odd(v) and not (2 * z[i] - sz):
            return False, {"family": "H'_k_i", "k": (v.numerator - 1) // 2, "i": i + 1}
    for j in range(1, 4):
        v = 2 * (x[0] + x[j]) - sx
        if odd(v) and not (2 * (z[0] + z[j]) - sz):
            return False, {"family": "H_k_i1_i2", "k": (v.numerator - 1) // 2,
                           "i1": 1, "i2": j + 1}
    return True, None


def ref_form_holds(value, reals, gaussians) -> bool:
    """Whether ``value.ints`` = (N, nums, Nm, re, im) gives the rationals
    ``reals`` as nums / N and the Gaussian rationals ``gaussians`` as
    (re + i im) / Nm, entry for entry."""
    N, nums, Nm, re, im = value.ints
    return (len(nums) == len(reals) and len(re) == len(im) == len(gaussians)
            and all(Fraction(n, N) == q for n, q in zip(nums, reals))
            and all(Fraction(r, Nm) == z.re and Fraction(i, Nm) == z.im
                    for r, i, z in zip(re, im, gaussians)))


def ref_fiber_relation_error(x, z):
    """The message ``PeriodVector`` must raise ``InconsistentFiberRelation``
    with for five x-periods and five z-periods, or None."""
    if 2 * x[0] + sum(x[1:]) != 1:
        return "2 x0 + sum x_j != 1"
    if 2 * z[0] + sum(z[1:], GaussianRational(Fraction(0))):
        return "2 z0 + sum z_j != 0"
    return None
