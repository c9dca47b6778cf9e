"""The Torelli period map, its inverse, and period-domain membership.

Period vectors hold five x-periods (rationals, units of 4*pi^2) and five
z-periods (Gaussian rationals, units of 2*pi) over an ordered homology
basis [S0; S_J for J in the chamber's partition set, ascending bitmask].
The fiber class 2 S0 + S1 + ... + S4 forces 2 x0 + sum x_j = 1 and
2 z0 + sum z_j = 0; both relations are enforced exactly.

``torelli_chamber`` evaluates the per-chamber closed forms (x_J = K_J,
z_J = M_J interior; K_J - K_{I0}, M_J - M_{I0} exterior).
``torelli_parallel`` evaluates the single global affine-linear map attached
to the model chamber's parallel basis; it has linear part of determinant 16
and is inverted exactly by ``inverse_torelli``.  All of them compute on the
``ints`` of ``ParabolicData``/``PeriodVector``, integer forms derived once per
value, and build ``Fraction``/``GaussianRational`` only for results and messages.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from operator import mul, sub

from .core import (BrokenIdentity, DomainError, GaussianRational, as_gaussian, common_denominator,
                   from_fields, gaussian_form, int_matvec, read_vector)
from .chambers import (FULL, _SIGNS, ChamberLabel, ParabolicData, _chamber, _k, check_cube,
                       mass_functional, subset_size, wall_K)  # noqa: F401 (re-export)
from .coxeter import _FACES

PARALLEL_BASIS = "parallel(model)"

# The model chamber's outer x-periods K_{}, K_{12}, K_{13}, K_{14} are the
# face functionals f_1..f_4 of the model alcove, n.alpha + c: x = M alpha + e1
# and z = M m with M the rows n (n.m = M_J, J = {j : n_j = 1}); det M = 16.
M_ROWS = tuple(n for n, _ in _FACES[1:])
_M_T = tuple(zip(*M_ROWS))


class NonGeneric(DomainError, ValueError):
    """Parameters sit on a Nakajima wall (moduli space singular).  No call
    here raises it: ``torelli_chamber`` meets such points as ``OnWall``."""


class InconsistentFiberRelation(DomainError, ValueError):
    """Period data violates the exact fiber-class relations."""


@dataclass(frozen=True)
class PeriodVector:
    """x in Q^5 (4*pi^2 units), z in Q(i)^5 (2*pi units), plus basis tag, and
    their integer form ``ints`` = (N, x, Nm, re, im) as for ``ParabolicData``."""

    x: tuple
    z: tuple
    basis: ChamberLabel | str
    ints: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        x, z = read_vector(self.x, 5), read_vector(self.z, 5, as_gaussian)
        ints = (*common_denominator(x), *gaussian_form(z))
        vars(self).update(x=x, z=z, ints=ints)
        self._check()

    def _check(self) -> "PeriodVector":
        """``self`` once its fiber relations hold on ``ints``."""
        N, x, _, re, im = self.ints
        if 2 * x[0] + sum(x[1:]) != N:
            raise InconsistentFiberRelation("2 x0 + sum x_j != 1")
        if 2 * re[0] + sum(re[1:]) or 2 * im[0] + sum(im[1:]):
            raise InconsistentFiberRelation("2 z0 + sum z_j != 0")
        return self

    @staticmethod
    def from_outer(x4, z4, basis) -> "PeriodVector":
        """Complete the four outer periods by the fiber relations."""
        return _completed(*common_denominator(read_vector(x4, 4)),
                          *gaussian_form(read_vector(z4, 4, as_gaussian)), basis)


def _completed(N: int, xs, Nm: int, re, im, basis) -> PeriodVector:
    """Period vector with outer x-periods xs / N and z-periods (re + i im) / Nm,
    its central entries completed by the fiber relations, and its ``ints`` over 2 N and 2 Nm."""
    x, N = (N - sum(xs), *(2 * v for v in xs)), 2 * N
    re, im, Nm = (-sum(re), *(2 * v for v in re)), (-sum(im), *(2 * v for v in im)), 2 * Nm
    z = tuple(GaussianRational(Fraction(r, Nm), Fraction(i, Nm)) for r, i in zip(re, im))
    return from_fields(PeriodVector, x=tuple(Fraction(v, N) for v in x), z=z, basis=basis,
                       ints=(N, x, Nm, re, im))._check()


def central_x_closed_form(label: ChamberLabel, alpha) -> Fraction:
    """Closed form of the central-sphere x-period per chamber type."""
    return _central_x(label, *common_denominator(read_vector(alpha, 4)))


def _central_x(label: ChamberLabel, N: int, b) -> Fraction:
    """``central_x_closed_form`` of alpha = b / N."""
    i = label.index - 1
    if label.kind == "exterior":
        return Fraction(_k(label.i0, b, N), N)
    return Fraction({"A1": 2 * b[i], "A2": N - 2 * b[i], "B1": -_k(1 << i, b, N),
                     "B2": -_k(FULL ^ (1 << i), b, N)}[label.ctype], N)


def torelli_chamber(data: ParabolicData) -> PeriodVector:
    """Period vector over the chamber basis of alpha's own chamber: x_J = K_J,
    z_J = M_J, less K_{I0} and M_{I0} in an exterior chamber.  Inside the open
    cube every Nakajima alpha-plane is one of the 12 chamber walls, so a
    non-generic (alpha, m) raises ``OnWall`` here."""
    N, b, Nm, re, im = data.ints
    label = _chamber(*check_cube(N, b))
    signs = [_SIGNS[s] for s in label.subsets]
    ks = [_k(s, b, N) for s in label.subsets]
    if label.kind == "exterior":
        c0, k0 = _SIGNS[label.i0], _k(label.i0, b, N)
        signs = [tuple(map(sub, c, c0)) for c in signs]
        ks = [k - k0 for k in ks]
    pv = _completed(N, ks, Nm, int_matvec(signs, re), int_matvec(signs, im), label)
    if pv.x[0] != _central_x(label, N, b):
        raise BrokenIdentity("fiber relation and central closed form disagree")
    return pv


def torelli_parallel(data: ParabolicData) -> PeriodVector:
    """Global affine-linear period map in the model chamber's parallel basis:
    x = M alpha + e1, z = M m, central entries from the fiber relations."""
    N, b, Nm, re, im = data.ints
    xs = [sum(map(mul, n, b)) + c * N for n, c in _FACES[1:]]
    return _completed(N, xs, Nm, int_matvec(M_ROWS, re), int_matvec(M_ROWS, im), PARALLEL_BASIS)


def inverse_torelli(pv: PeriodVector) -> ParabolicData:
    """Exact inverse of ``torelli_parallel``: alpha = M^T (x - e1) / 4, m = M^T z / 4
    (valid since M M^T = 4 Id), as integer M^T products over 4 N."""
    N, (_, *x), Nm, (_, *re), (_, *im) = pv.ints
    b = int_matvec(_M_T, [v - c * N for v, (_, c) in zip(x, _FACES[1:])])
    re, im, N, Nm = int_matvec(_M_T, re), int_matvec(_M_T, im), 4 * N, 4 * Nm
    return from_fields(ParabolicData, alpha=tuple(Fraction(v, N) for v in b), masses=tuple(
        GaussianRational(Fraction(r, Nm), Fraction(i, Nm)) for r, i in zip(re, im)),
        ints=(N, b, Nm, re, im))


# ---------------------------------------------------------------------------
# period domain
# ---------------------------------------------------------------------------

def in_period_domain(pv: PeriodVector):
    """Exact membership in the period domain (l^2 Im tau = 1 in 4*pi^2 units).

    Returns (True, None) or (False, witness).  The four plane families, with
    k determined by integrality of the x-side combination:
      (1)  sum x = 2k+1               and sum z = 0
      (2)  x_i = k                    and z_i = 0
      (2') 2 x_i - sum x = 2k+1       and 2 z_i - sum z = 0
      (3)  2(x_i + x_j) - sum x = 2k+1 and 2(z_i + z_j) - sum z = 0
    A pair and its complement give one plane, so (3) scans the pairs (1, j).
    Each plane of ``_PERIOD_PLANES`` is one divisibility test of an integer
    numerator by the common denominator N, then two integer zero tests.
    """
    N, (_, *x), _, (_, *re), (_, *im) = pv.ints
    for family, a, odd, where in _PERIOD_PLANES:
        q, r = divmod(sum(map(mul, a, x)), N)
        if r == 0 and (q % 2 or not odd) and not sum(map(mul, a, re)) \
                and not sum(map(mul, a, im)):
            return False, {"family": family, "k": (q - 1) // 2 if odd else q, **where}
    return True, None


# The planes of ``in_period_domain`` in scan order: (family, coefficients a on
# x_1..x_4 and on z_1..z_4, whether a.x must be odd, indices for the witness).
_PERIOD_PLANES = (("H_k", (1, 1, 1, 1), True, {}),) + tuple(
    plane for i in range(4) for plane in (
        ("H_k_i", tuple(int(j == i) for j in range(4)), False, {"i": i + 1}),
        ("H'_k_i", tuple(2 * (j == i) - 1 for j in range(4)), True, {"i": i + 1}))) + tuple(
    ("H_k_i1_i2", tuple(2 * (j in (0, i)) - 1 for j in range(4)), True, {"i1": 1, "i2": i + 1})
    for i in range(1, 4))


# ---------------------------------------------------------------------------
# intersection tables, moment values, scaling
# ---------------------------------------------------------------------------

def _puncture_sphere_order(label: ChamberLabel) -> list[int]:
    """Sphere label J(p) for each puncture p = 1..4: the 0/4-subset of the
    partition set for the distinguished index, and for any other p the
    2-subset that contains p (types A2, B1, E1) or avoids p (A1, B2, E2)."""
    contains = label.ctype in ("A2", "B1", "E1")
    cands = [[s for s in label.subsets if subset_size(s) in (0, 4)] if p == label.index else
             [s for s in label.subsets if subset_size(s) == 2 and bool(s >> p - 1 & 1) == contains]
             for p in range(1, 5)]
    if any(len(c) != 1 for c in cands):
        raise BrokenIdentity("puncture-sphere correspondence not unique")
    return [s for s, in cands]


def intersection_table(label: ChamberLabel) -> tuple[tuple[int, ...], ...]:
    """Integer matrix I(S_p, Sigma_j): rows are the exterior spheres in
    puncture order, columns the polar-section spheres; entries are minus the
    m_j-coefficients of the z-periods (2*pi units)."""
    c0 = _SIGNS[label.i0] if label.kind == "exterior" else (0, 0, 0, 0)
    return tuple(tuple(map(sub, c0, _SIGNS[mask])) for mask in _puncture_sphere_order(label))


def moment_value(mask_or_members, alpha) -> Fraction:
    """Circle moment-map value -K_I(alpha) at the fixed point labelled I,
    in units of 2*pi."""
    return -wall_K(mask_or_members, alpha)


def scale_masses(data: ParabolicData, t: GaussianRational):
    """Periods before and after m -> t m; x-periods must be unchanged and
    z-periods scale by t (checked exactly)."""
    t = as_gaussian(t)
    if not t:
        raise ValueError("t must be nonzero")
    scaled = ParabolicData(data.alpha, tuple(t * m for m in data.masses))
    pv1, pv2 = torelli_chamber(data), torelli_chamber(scaled)
    if pv1.x != pv2.x:
        raise BrokenIdentity("x-periods changed under mass scaling")
    if tuple(t * z for z in pv1.z) != pv2.z:
        raise BrokenIdentity("z-periods did not scale linearly")
    return pv1, pv2
