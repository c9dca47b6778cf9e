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
and is inverted exactly by ``inverse_torelli``.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .core import DomainError, GaussianRational
from .chambers import (
    ChamberLabel,
    ParabolicData,
    classify_chamber,
    is_generic,
    mass_functional,
    subset_size,
    wall_K,
    FULL,
)
from .coxeter import _FACES

PARALLEL_BASIS = "parallel(model)"

# The model chamber's outer x-periods K_{}, K_{12}, K_{13}, K_{14} are the
# face functionals f_1..f_4 of the model alcove, n.alpha + c: x = M alpha + e1
# and z = M m with M the rows n (n.m = M_J, J = {j : n_j = 1}); det M = 16.
M_ROWS = tuple(n for n, _ in _FACES[1:])
_MASS_MASKS = tuple(sum(1 << j for j, v in enumerate(n) if v > 0) for n in M_ROWS)


class NonGeneric(DomainError, ValueError):
    """Parameters sit on a Nakajima wall (moduli space singular)."""


class InconsistentFiberRelation(DomainError, ValueError):
    """Period data violates the exact fiber-class relations."""


@dataclass(frozen=True)
class PeriodVector:
    """x in Q^5 (4*pi^2 units), z in Q(i)^5 (2*pi units), plus basis tag."""

    x: tuple
    z: tuple
    basis: ChamberLabel | str

    def __post_init__(self):
        object.__setattr__(self, "x", tuple(Fraction(v) for v in self.x))
        zz = tuple(v if isinstance(v, GaussianRational) else GaussianRational(Fraction(v))
                   for v in self.z)
        object.__setattr__(self, "z", zz)
        if len(self.x) != 5 or len(self.z) != 5:
            raise ValueError("period vectors have five components")
        if 2 * self.x[0] + sum(self.x[1:]) != 1:
            raise InconsistentFiberRelation("2 x0 + sum x_j != 1")
        if 2 * self.z[0] + sum(self.z[1:], GaussianRational(Fraction(0))):
            raise InconsistentFiberRelation("2 z0 + sum z_j != 0")

    @staticmethod
    def from_outer(x4, z4, basis) -> "PeriodVector":
        """Complete the four outer periods by the fiber relations."""
        x4 = tuple(Fraction(v) for v in x4)
        z4 = tuple(v if isinstance(v, GaussianRational) else GaussianRational(Fraction(v))
                   for v in z4)
        x0 = (1 - sum(x4)) / 2
        z0 = -sum(z4, GaussianRational(Fraction(0))) / 2
        return PeriodVector((x0,) + x4, (z0,) + z4, basis)


def central_x_closed_form(label: ChamberLabel, alpha) -> Fraction:
    """Closed form of the central-sphere x-period per chamber type."""
    alpha = tuple(Fraction(a) for a in alpha)
    i = label.index
    if label.ctype == "A1":
        return 2 * alpha[i - 1]
    if label.ctype == "A2":
        return 1 - 2 * alpha[i - 1]
    if label.ctype == "B1":
        return -wall_K((1 << (i - 1)), alpha)
    if label.ctype == "B2":
        return -wall_K(FULL ^ (1 << (i - 1)), alpha)
    return wall_K(label.i0, alpha)  # E1 / E2


def torelli_chamber(data: ParabolicData) -> PeriodVector:
    """Period vector over the chamber basis of alpha's own chamber."""
    label = classify_chamber(data.alpha)
    if not is_generic(data):
        raise NonGeneric(f"(alpha, m) on a Nakajima wall: {data.alpha}")
    ks = [wall_K(s, data.alpha) for s in label.subsets]
    ms = [mass_functional(s, data.masses) for s in label.subsets]
    if label.kind == "exterior":
        k0 = wall_K(label.i0, data.alpha)
        m0 = mass_functional(label.i0, data.masses)
        ks = [k - k0 for k in ks]
        ms = [m - m0 for m in ms]
    pv = PeriodVector.from_outer(ks, ms, label)
    if pv.x[0] != central_x_closed_form(label, data.alpha):
        raise AssertionError("fiber relation and central closed form disagree")
    return pv


def torelli_parallel(data: ParabolicData) -> PeriodVector:
    """Global affine-linear period map in the model chamber's parallel basis:
    x = M alpha + e1, z = M m, central entries from the fiber relations."""
    alpha = tuple(Fraction(a) for a in data.alpha)
    x4 = tuple(sum(r * a for r, a in zip(n, alpha)) + c for n, c in _FACES[1:])
    z4 = tuple(mass_functional(s, data.masses) for s in _MASS_MASKS)
    return PeriodVector.from_outer(x4, z4, PARALLEL_BASIS)


def inverse_torelli(pv: PeriodVector) -> ParabolicData:
    """Exact inverse of ``torelli_parallel``: alpha = M^T (x - e1) / 4,
    m = M^T z / 4 (valid since M M^T = 4 Id)."""
    x4 = [x - c for x, (_, c) in zip(pv.x[1:], _FACES[1:])]
    z4 = pv.z[1:]
    alpha = tuple(sum(Fraction(M_ROWS[r][c]) * x4[r] for r in range(4)) / 4
                  for c in range(4))
    masses = tuple(sum(GaussianRational(Fraction(M_ROWS[r][c])) * z4[r]
                       for r in range(4)) / 4 for c in range(4))
    return ParabolicData(alpha, masses)


# ---------------------------------------------------------------------------
# period domain
# ---------------------------------------------------------------------------

def _is_odd_integer(q: Fraction) -> bool:
    return q.denominator == 1 and q.numerator % 2 != 0


def in_period_domain(pv: PeriodVector):
    """Exact membership in the period domain (l^2 Im tau = 1 in 4*pi^2 units).

    Returns (True, None) or (False, witness).  The four plane families, with
    k determined by integrality of the x-side combination:
      (1)  sum x = 2k+1               and sum z = 0
      (2)  x_i = k                    and z_i = 0
      (2') 2 x_i - sum x = 2k+1       and 2 z_i - sum z = 0
      (3)  2(x_i + x_j) - sum x = 2k+1 and 2(z_i + z_j) - sum z = 0
    A pair and its complement give one plane, so (3) scans the pairs (1, j).
    """
    x = pv.x[1:]
    z = pv.z[1:]
    sx = sum(x)
    sz = sum(z, GaussianRational(Fraction(0)))
    if _is_odd_integer(sx) and not sz:
        return False, {"family": "H_k", "k": (sx.numerator - 1) // 2}
    for i in range(4):
        if x[i].denominator == 1 and not z[i]:
            return False, {"family": "H_k_i", "k": x[i].numerator, "i": i + 1}
        v = 2 * x[i] - sx
        if _is_odd_integer(v) and not (2 * z[i] - sz):
            return False, {"family": "H'_k_i", "k": (v.numerator - 1) // 2, "i": i + 1}
    for j in range(1, 4):
        v = 2 * (x[0] + x[j]) - sx
        if _is_odd_integer(v) and not (2 * (z[0] + z[j]) - sz):
            return False, {"family": "H_k_i1_i2", "k": (v.numerator - 1) // 2,
                           "i1": 1, "i2": j + 1}
    return True, None


# ---------------------------------------------------------------------------
# intersection tables, moment values, scaling
# ---------------------------------------------------------------------------

def _puncture_sphere_order(label: ChamberLabel) -> list[int]:
    """Sphere label J(p) for each puncture p = 1..4.

    For exterior chambers and the B types, J(p) = I0 xor {p} with I0 the
    (adjacent) exterior odd set; A-type chambers have no adjacent exterior
    chamber and use the complement-omission convention.
    """
    if label.kind == "exterior":
        i0 = label.i0
    elif label.ctype == "B1":
        i0 = 1 << (label.index - 1)
    elif label.ctype == "B2":
        i0 = FULL ^ (1 << (label.index - 1))
    else:
        i0 = None
    order = []
    if i0 is not None:
        for p in range(1, 5):
            order.append(i0 ^ (1 << (p - 1)))
        return order
    # A types: the 0/4-subset pairs with the distinguished index; an A1 pair
    # (avoiding i) pairs with the index it omits inside {1..4}\{i}, an A2
    # pair {i, p} pairs with p (the complementary convention).
    i = label.index
    for p in range(1, 5):
        if p == i:
            cand = [s for s in label.subsets if subset_size(s) in (0, 4)]
        elif label.ctype == "A1":
            cand = [s for s in label.subsets
                    if subset_size(s) == 2 and not s >> (p - 1) & 1]
        else:
            cand = [s for s in label.subsets
                    if subset_size(s) == 2 and s >> (p - 1) & 1]
        if len(cand) != 1:
            raise AssertionError("puncture-sphere correspondence not unique")
        order.append(cand[0])
    return order


def intersection_table(label: ChamberLabel) -> tuple[tuple[int, ...], ...]:
    """Integer matrix I(S_p, Sigma_j): rows are the exterior spheres in
    puncture order, columns the polar-section spheres; entries are minus the
    m_j-coefficients of the z-periods (2*pi units)."""
    rows = []
    for mask in _puncture_sphere_order(label):
        coeffs = []
        for j in range(4):
            c = 1 if mask >> j & 1 else -1
            if label.kind == "exterior":
                c -= 1 if label.i0 >> j & 1 else -1
            coeffs.append(-c)
        rows.append(tuple(coeffs))
    return tuple(rows)


def moment_value(mask_or_members, alpha) -> Fraction:
    """Circle moment-map value -K_I(alpha) at the fixed point labelled I,
    in units of 2*pi."""
    return -wall_K(mask_or_members, alpha)


def scale_masses(data: ParabolicData, t: GaussianRational):
    """Periods before and after m -> t m; x-periods must be unchanged and
    z-periods scale by t (checked exactly)."""
    t = t if isinstance(t, GaussianRational) else GaussianRational(Fraction(t))
    if not t:
        raise ValueError("t must be nonzero")
    scaled = ParabolicData(data.alpha, tuple(t * m for m in data.masses))
    pv1 = torelli_chamber(data)
    pv2 = torelli_chamber(scaled)
    if pv1.x != pv2.x:
        raise AssertionError("x-periods changed under mass scaling")
    if tuple(t * z for z in pv1.z) != pv2.z:
        raise AssertionError("z-periods did not scale linearly")
    return pv1, pv2
