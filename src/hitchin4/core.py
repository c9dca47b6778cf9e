"""Shared exact arithmetic: rationals over a common denominator, Gaussian
rationals and the integer matrix product, plus the ``DomainError`` base
class of every layer's domain errors.

Exact types are immutable and hashable; all operations are pure functions,
safe to share across threads.  This module imports no numpy; the numeric
polynomial kernel lives in ``spectral``.
"""

from __future__ import annotations

import re
import sys
from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from operator import mul

_EXPONENT = re.compile(r"([\d._]*)[eE]([+-]?[\d_]+)\s*$")  # a decimal's mantissa, exponent


class DomainError(Exception):
    """Base of every error that means "this input has no answer here"
    (on a wall, non-generic, singular, unconverged, ...); the command line
    reports one as exit code 2."""


class NonConvergence(DomainError, RuntimeError):
    """A numeric result missed its check: a ``spectral.poly_roots`` residual at or above
    ``ROOT_TOL``, or a period AGM in ``spectral._cycle`` not settled after 64 steps."""


class BrokenIdentity(AssertionError):
    """Two exact forms that must agree did not: a defect, not a bad input."""


def as_fraction(v) -> Fraction:
    """``v`` itself if its type is exactly ``Fraction``, else ``Fraction(v)``; ``ValueError``
    for a literal whose mantissa digits plus |exponent| pass Python's int-string limit."""
    if type(v) is Fraction:
        return v
    if isinstance(v, str) and (m := _EXPONENT.search(v)):
        limit = getattr(sys, "get_int_max_str_digits", lambda: 4300)()
        if 0 < limit < sum(map(str.isdigit, m[1])) + abs(int(m[2])):
            raise ValueError(f"{v!r} has more than {limit} digits")
    return Fraction(v)


def read_vector(vs, n=None, read=as_fraction) -> tuple:
    """The entries of the bare vector ``vs`` read by ``read``, ``n`` of them if ``n`` is given."""
    vs = tuple([read(v) for v in vs])
    if n is not None and len(vs) != n:
        raise ValueError("length mismatch")
    return vs


def common_denominator(qs) -> tuple[int, tuple[int, ...]]:
    """(N, nums) with N the lcm of the denominators of the sequence of
    rationals ``qs`` and qs[i] == nums[i] / N."""
    N = lcm(*(q.denominator for q in qs))
    return N, tuple([q.numerator * (N // q.denominator) for q in qs])


def gaussian_form(zs) -> tuple[int, tuple[int, ...], tuple[int, ...]]:
    """(N, re, im): real and imaginary parts of ``zs`` as numerators over one N."""
    N, nums = common_denominator([z.re for z in zs] + [z.im for z in zs])
    return N, nums[:len(zs)], nums[len(zs):]


def from_fields(cls, **fields):
    """The frozen dataclass ``cls`` holding ``fields`` as given, without ``__init__``."""
    obj = object.__new__(cls)
    vars(obj).update(fields)
    return obj


def _field_op(op):
    """The operator ``op(self, o)`` of Q(i) with ``o`` the other operand as a
    ``GaussianRational`` (an int or ``Fraction`` embeds), else NotImplemented."""
    def method(self, other):
        if isinstance(other, (int, Fraction)):
            other = GaussianRational(Fraction(other))
        return op(self, other) if isinstance(other, GaussianRational) else NotImplemented
    return method


@dataclass(frozen=True)
class GaussianRational:
    """Element of Q(i), stored as an exact pair (re, im).

    Used for complex masses and z-period coefficients; supports full field
    arithmetic so that exact linear algebra can run over Q(i).
    """

    re: Fraction = Fraction(0)
    im: Fraction = Fraction(0)

    def __post_init__(self):
        object.__setattr__(self, "re", as_fraction(self.re))
        object.__setattr__(self, "im", as_fraction(self.im))

    # -- field operations ---------------------------------------------------
    @_field_op
    def __add__(self, o):
        return GaussianRational(self.re + o.re, self.im + o.im)

    __radd__ = __add__

    @_field_op
    def __sub__(self, o):
        return GaussianRational(self.re - o.re, self.im - o.im)

    @_field_op
    def __rsub__(self, o):
        return o - self

    @_field_op
    def __mul__(self, o):
        return GaussianRational(self.re * o.re - self.im * o.im,
                                self.re * o.im + self.im * o.re)

    __rmul__ = __mul__

    @_field_op
    def __truediv__(self, o):
        n = o.re * o.re + o.im * o.im
        if n == 0:
            raise ZeroDivisionError("division by zero GaussianRational")
        return GaussianRational((self.re * o.re + self.im * o.im) / n,
                                (self.im * o.re - self.re * o.im) / n)

    @_field_op
    def __rtruediv__(self, o):
        return o / self

    def __neg__(self):
        return GaussianRational(-self.re, -self.im)

    def conjugate(self) -> "GaussianRational":
        return GaussianRational(self.re, -self.im)

    def __bool__(self):
        return bool(self.re) or bool(self.im)

    @_field_op
    def __eq__(self, o):
        return self.re == o.re and self.im == o.im

    def __hash__(self):
        return hash((self.re, self.im))

    # -- conversions ----------------------------------------------------------
    def __complex__(self) -> complex:
        return float(self.re) + 1j * float(self.im)

    def to_json(self) -> dict:
        return {"re": str(self.re), "im": str(self.im)}  # "p/q", or "p" for an integer

    def __str__(self):
        im = str(self.im)
        return f"{self.re}{'' if im.startswith('-') else '+'}{im}i"

    @staticmethod
    def from_json(obj) -> "GaussianRational":
        return GaussianRational(obj["re"], obj["im"])

    @staticmethod
    def parse(s: str) -> "GaussianRational":
        """Parse ``a``, ``bi``, or ``a+bi``, each part a ``Fraction`` literal such as
        ``3/2``, ``1.5`` or ``1e-3`` (shell-safe)."""
        s = s.strip().replace(" ", "")
        if not s.endswith("i"):
            return GaussianRational(s)
        # bi starts at the last sign that neither leads s nor follows an exponent's e
        cut = max((m.start() for m in re.finditer(r"(?<=[^eE])[+-]", s)), default=0)
        im = s[cut:-1]  # a bare sign stands for 1
        return GaussianRational(s[:cut] or 0, im + "1" if im in ("", "+", "-") else im)


def as_gaussian(v) -> GaussianRational:
    """``v`` itself if it is a ``GaussianRational``, else ``GaussianRational(v)``."""
    return v if isinstance(v, GaussianRational) else GaussianRational(v)


# ---------------------------------------------------------------------------
# integer matrices
# ---------------------------------------------------------------------------

def int_matvec(A, v) -> tuple:
    """Product of an integer matrix (a sequence of rows) and a vector, as a
    tuple of Python ints (no overflow)."""
    return tuple([sum(map(mul, row, v)) for row in A])


def int_matmul(A, B) -> tuple:
    """Product A B of integer matrices given as sequences of rows, as nested
    tuples of Python ints."""
    cols = tuple(zip(*B))
    return tuple([tuple([sum(map(mul, row, col)) for col in cols]) for row in A])
