"""Shared arithmetic kernels: exact rationals, Gaussian rationals, small
exact matrices, complex polynomials, resultants and root finding.

Exact types are immutable and hashable; all operations are pure functions,
safe to share across threads.  Numeric polynomial work is complex double
with a relative root tolerance of 1e-8 and a trailing-coefficient trim
tolerance of 1e-12.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

import numpy as np

Rational = Fraction

ROOT_TOL = 1e-8
TRIM_TOL = 1e-12


class Singular(ValueError):
    """Raised by exact linear solves on rank-deficient systems."""


class NonConvergence(RuntimeError):
    """Raised when iterative root refinement fails after bounded restarts."""


# ---------------------------------------------------------------------------
# rational serialization
# ---------------------------------------------------------------------------

def rational_to_str(q: Fraction) -> str:
    q = Fraction(q)
    return str(q.numerator) if q.denominator == 1 else f"{q.numerator}/{q.denominator}"


def rational_from_str(s: str) -> Fraction:
    return Fraction(s.strip())


@dataclass(frozen=True)
class GaussianRational:
    """Element of Q(i), stored as an exact pair (re, im).

    Used for complex masses and z-period coefficients; supports full field
    arithmetic so that exact linear algebra can run over Q(i).
    """

    re: Fraction = Fraction(0)
    im: Fraction = Fraction(0)

    def __post_init__(self):
        object.__setattr__(self, "re", Fraction(self.re))
        object.__setattr__(self, "im", Fraction(self.im))

    # -- field operations ---------------------------------------------------
    def _coerce(self, other) -> "GaussianRational | None":
        if isinstance(other, GaussianRational):
            return other
        if isinstance(other, (int, Fraction)):
            return GaussianRational(Fraction(other))
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return GaussianRational(self.re + o.re, self.im + o.im)

    __radd__ = __add__

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return GaussianRational(self.re - o.re, self.im - o.im)

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o - self

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return GaussianRational(self.re * o.re - self.im * o.im,
                                self.re * o.im + self.im * o.re)

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        n = o.re * o.re + o.im * o.im
        if n == 0:
            raise ZeroDivisionError("division by zero GaussianRational")
        return GaussianRational((self.re * o.re + self.im * o.im) / n,
                                (self.im * o.re - self.re * o.im) / n)

    def __rtruediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o / self

    def __neg__(self):
        return GaussianRational(-self.re, -self.im)

    def conjugate(self) -> "GaussianRational":
        return GaussianRational(self.re, -self.im)

    def __bool__(self):
        return bool(self.re) or bool(self.im)

    def __eq__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self.re == o.re and self.im == o.im

    def __hash__(self):
        return hash((self.re, self.im))

    # -- conversions ----------------------------------------------------------
    def __complex__(self) -> complex:
        return float(self.re) + 1j * float(self.im)

    def to_json(self) -> dict:
        return {"re": rational_to_str(self.re), "im": rational_to_str(self.im)}

    def __str__(self):
        im = rational_to_str(self.im)
        sign = "" if im.startswith("-") else "+"
        return f"{rational_to_str(self.re)}{sign}{im}i"

    @staticmethod
    def from_json(obj) -> "GaussianRational":
        return GaussianRational(rational_from_str(obj["re"]), rational_from_str(obj["im"]))

    @staticmethod
    def parse(s: str) -> "GaussianRational":
        """Parse ``a``, ``bi``, or ``a+bi`` with rational parts (shell-safe)."""
        s = s.strip().replace(" ", "")
        if not s.endswith("i"):
            return GaussianRational(Fraction(s))
        m = re.fullmatch(
            r"(?:(?P<re>[+-]?\d+(?:/\d+)?)(?=[+-]))?(?P<im>[+-]?(?:\d+(?:/\d+)?)?)i", s)
        if not m:
            raise ValueError(f"cannot parse Gaussian rational {s!r}")
        re_part = Fraction(m.group("re")) if m.group("re") else Fraction(0)
        imtok = m.group("im")
        if imtok in ("", "+"):
            im_part = Fraction(1)
        elif imtok == "-":
            im_part = Fraction(-1)
        else:
            im_part = Fraction(imtok)
        return GaussianRational(re_part, im_part)


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

    def __add__(self, other: "ExactMatrix") -> "ExactMatrix":
        if self.shape != other.shape:
            raise ValueError("shape mismatch")
        return ExactMatrix(tuple(tuple(a + b for a, b in zip(r1, r2))
                                 for r1, r2 in zip(self.rows, other.rows)))

    def __neg__(self):
        return ExactMatrix(tuple(tuple(-a for a in r) for r in self.rows))

    def __sub__(self, other):
        return self + (-other)

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

    def inverse(self) -> "ExactMatrix":
        n, m = self.shape
        if n != m:
            raise Singular("not square")
        eye = ExactMatrix.identity(n).rows
        rows, pivots, _ = _row_reduce([r + e for r, e in zip(self.rows, eye)], n)
        if len(pivots) < n:
            raise Singular("rank-deficient matrix")
        return ExactMatrix(r[n:] for r in rows)

    def det(self):
        n, m = self.shape
        if n != m:
            raise ValueError("not square")
        _, pivots, det = _row_reduce(self.rows, n)
        return det if len(pivots) == n else 0 * det


def _row_reduce(rows, ncols: int):
    """Gauss-Jordan elimination of ``rows`` over their first ``ncols`` columns.

    Returns the reduced row echelon form (further columns are carried along,
    so ``[A | b]`` yields the solution in its last column), the pivot columns
    in ascending order, and the product of the pivots signed by the row
    swaps: the determinant, for a square matrix of full rank.  Entries may
    be Fraction or GaussianRational."""
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


def exact_solve(A: ExactMatrix, b: Sequence) -> tuple:
    """Solve A x = b exactly by Gaussian elimination; raises Singular."""
    n, m = A.shape
    if n != m or len(b) != n:
        raise Singular("need a square system")
    rows, pivots, _ = _row_reduce([r + (bv,) for r, bv in zip(A.rows, b)], n)
    if len(pivots) < n:
        raise Singular("rank-deficient matrix")
    return tuple(r[n] for r in rows)


def nullspace(A: ExactMatrix) -> list[tuple]:
    """Exact right nullspace basis of a (possibly rectangular) matrix."""
    n, m = A.shape
    rows, pivots, _ = _row_reduce(A.rows, m)
    basis = []
    for fc in (c for c in range(m) if c not in pivots):
        v = [Fraction(0)] * m
        v[fc] = Fraction(1)
        for i, pc in enumerate(pivots):
            v[pc] = -rows[i][fc]
        basis.append(tuple(v))
    return basis


# ---------------------------------------------------------------------------
# complex polynomials
# ---------------------------------------------------------------------------

class ComplexPoly:
    """Complex polynomial, coefficients ascending in degree.

    Trailing coefficients below 1e-12 of the largest magnitude are trimmed
    on construction, so the leading coefficient is honestly nonzero.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable[complex]):
        c = [complex(x) for x in coeffs]
        scale = max((abs(x) for x in c), default=0.0)
        while len(c) > 1 and abs(c[-1]) <= TRIM_TOL * scale:
            c.pop()
        if not c:
            c = [0j]
        self.coeffs = tuple(c)

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def __call__(self, z):
        return np.polyval(self.coeffs[::-1], z)

    def __eq__(self, other):
        return isinstance(other, ComplexPoly) and self.coeffs == other.coeffs

    def __repr__(self):
        return f"ComplexPoly({list(self.coeffs)})"

    def __add__(self, other: "ComplexPoly") -> "ComplexPoly":
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, x in enumerate(b):
            out[i] += x
        return ComplexPoly(out)

    def __mul__(self, other):
        if isinstance(other, ComplexPoly):
            return ComplexPoly(np.convolve(self.coeffs, other.coeffs))
        return ComplexPoly([c * other for c in self.coeffs])

    __rmul__ = __mul__

    def __sub__(self, other):
        return self + (-1) * other

    def derivative(self) -> "ComplexPoly":
        if self.degree == 0:
            return ComplexPoly([0j])
        return ComplexPoly([k * c for k, c in enumerate(self.coeffs)][1:])

    def deflate(self, root: complex) -> "ComplexPoly":
        """Exact-degree synthetic division by (z - root)."""
        d = self.degree
        out = [0j] * d
        acc = self.coeffs[d]
        for k in range(d - 1, -1, -1):
            out[k] = acc
            acc = self.coeffs[k] + acc * root
        return ComplexPoly(out)

    @staticmethod
    def from_roots(roots: Sequence[complex], lead: complex = 1.0) -> "ComplexPoly":
        c = np.array([lead], dtype=complex)
        for r in roots:
            c = np.convolve(c, [-r, 1.0])
        return ComplexPoly(c)


def poly_roots(p: ComplexPoly) -> list[complex]:
    """All roots (with multiplicity) via companion matrix plus Newton polish.

    Residual guarantee: |p(root)| < 1e-8 * (1+|root|)^deg * max|coeff|;
    raises NonConvergence if the polish cannot reach it.
    """
    if p.degree < 1:
        raise ValueError("degree must be >= 1")
    roots = np.roots(p.coeffs[::-1])
    dp = p.derivative()
    scale = max(abs(c) for c in p.coeffs)
    polished = []
    for r in roots:
        r = complex(r)
        for _ in range(60):
            fr = complex(p(r))
            if abs(fr) <= 0.1 * ROOT_TOL * scale * (1 + abs(r)) ** p.degree:
                break
            dfr = complex(dp(r))
            if dfr == 0:
                break
            step = fr / dfr
            if abs(step) > 1 + abs(r):
                break
            r = r - step
        polished.append(r)
    for r in polished:
        if abs(complex(p(r))) >= ROOT_TOL * scale * (1 + abs(r)) ** p.degree:
            raise NonConvergence(f"root residual too large at {r}")
    return polished


def _sylvester(p: Sequence, q: Sequence) -> ExactMatrix:
    """Sylvester matrix of p, q (ascending coefficients)."""
    n, m = len(p) - 1, len(q) - 1
    zero = 0 * p[0]
    return ExactMatrix([zero] * i + list(reversed(c)) + [zero] * (n + m - len(c) - i)
                       for c, k in ((p, m), (q, n)) for i in range(k))


def discriminant_z(p) -> complex:
    """Discriminant (-1)^{d(d-1)/2} Res(p, p') / lead.

    Accepts a ComplexPoly (numeric path, roots-product formula) or a sequence
    of exact coefficients (Fraction / GaussianRational entries, ascending),
    in which case the value is computed exactly via the Sylvester resultant.
    """
    if isinstance(p, ComplexPoly):
        d = p.degree
        if d < 2:
            raise ValueError("degree must be >= 2")
        roots = poly_roots(p)
        lead = p.coeffs[-1]
        prod = 1.0 + 0j
        for i in range(d):
            for j in range(i + 1, d):
                prod *= (roots[i] - roots[j]) ** 2
        return lead ** (2 * d - 2) * prod
    coeffs = list(p)
    while len(coeffs) > 1 and not coeffs[-1]:
        coeffs.pop()
    d = len(coeffs) - 1
    if d < 2:
        raise ValueError("degree must be >= 2")
    dp = [k * c for k, c in enumerate(coeffs)][1:]
    res = _sylvester(coeffs, dp).det()
    sign = -1 if (d * (d - 1) // 2) % 2 else 1
    return sign * res / coeffs[-1]
