"""Numeric spectral-curve toolkit for the four-punctured sphere.

The Hitchin base at masses m is the beta-line of quartics
F(z) = f_m(z) + beta z(z-1)(z-p0); the spectral curve is the double cover
w^2 = F(z), and the tautological form tau = w dz / (z(z-1)(z-p0)) has
residues +-m_p over the punctures (0, 1, p0, infinity).

Everything here is complex double precision on Python scalars.  Every root is found by
the residual-checked ``poly_roots`` of a ``ComplexPoly``, whose construction is the
one degree trim (``TRIM_TOL``); numpy only finds its companion eigenvalues and runs
the fits' ``vander``/``lstsq`` and ``tau_sweep``'s ``logspace``.  Residues (+-m_p) and
periods (one AGM per cycle, seeded with the branch values of its collapsed integrand)
are closed forms that take only their sign from ``_sheet``, the principal sqrt(F) at
z* = 3 max(1, |branch point|) continued along the segment [z*, z].  That is the
product s sqrt(lead) prod_e sqrt(v_e) sqrt((z - e)/v_e) over the branch points e, with
v_e = (z* - e)/|z* - e| and s = +-1 making it principal at z*: the cut of each factor
is the ray from e pointing away from z*, which a segment from z* never crosses.  On a
ray (the segment then passes through e) the factor takes its Im > 0 side, as if the
segment were moved by -i eps (z - z*): +i eps on a leftward stretch of the real axis,
where real beta and p0 put branch points."""

from __future__ import annotations

import cmath
import functools
import math
from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np

from .core import BrokenIdentity, DomainError, NonConvergence, read_vector

PUNCTURE_KEYS = ("0", "1", "p0", "inf")

ROOT_TOL = 1e-8
TRIM_TOL = 1e-12
BETA_NODES = 9
_UNIT_NODES = np.exp(2j * np.pi * np.arange(BETA_NODES) / BETA_NODES).tolist()


class DegenerateP0(DomainError, ValueError):
    """p0 collides with 0 or 1."""


class DegenerateConfiguration(DomainError, RuntimeError):
    """Discriminant polynomial in beta degenerates below degree six."""


class BranchPointCollision(DomainError, RuntimeError):
    """A branch point too near a puncture, or trimmed away, leaves a residue sign open."""


class SingularFiber(DomainError, RuntimeError):
    """beta is (numerically) a singular fiber; the curve degenerates."""


class BranchPointCoincidence(DomainError, RuntimeError):
    """Branch points coincide to tolerance; no cycle basis exists."""


class RootTrackingLost(DomainError, RuntimeError):
    """Root continuation lost its target during the large-beta sweep."""


class OffCurve(DomainError, ValueError):
    """(beta, u, w) does not satisfy the affine cubic to tolerance."""


class UndefinedFlag(DomainError, RuntimeError):
    """Residue matrix vanishes at the puncture; the flag is not defined."""


# ---------------------------------------------------------------------------
# complex polynomials
# ---------------------------------------------------------------------------

class ComplexPoly:
    """Complex polynomial, coefficients ascending in degree.

    Trailing coefficients below 1e-12 of the largest magnitude ``scale`` are
    trimmed on construction, so the leading coefficient is honestly nonzero.
    """

    __slots__ = ("coeffs", "scale")

    def __init__(self, coeffs: Iterable[complex]):
        c = list(read_vector(coeffs, read=complex)) or [0j]
        self.scale = max(map(abs, c))
        while len(c) > 1 and abs(c[-1]) <= TRIM_TOL * self.scale:
            c.pop()
        self.coeffs = tuple(c)

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def __call__(self, z):
        acc = 0j  # Horner, elementwise on an array
        for c in reversed(self.coeffs):
            acc = acc * z + c
        return acc

    def derivative(self) -> "ComplexPoly":
        return ComplexPoly([k * c for k, c in enumerate(self.coeffs)][1:])

    def deflate(self, root: complex) -> "ComplexPoly":
        """Exact-degree synthetic division by (z - root)."""
        d = self.degree
        out, acc = [0j] * d, self.coeffs[d]
        for k in range(d - 1, -1, -1):
            out[k] = acc
            acc = self.coeffs[k] + acc * root
        return ComplexPoly(out)


def poly_roots(p: ComplexPoly) -> list[complex]:
    """All roots (with multiplicity), as ``numpy.roots`` finds them: companion eigenvalues.

    Residual guarantee: |p(root)| < 1e-8 * (1+|root|)^deg * max|coeff|;
    raises NonConvergence at a root that misses it.
    """
    if p.degree < 1:
        raise ValueError("degree must be >= 1")
    c = p.coeffs
    k = next(i for i, x in enumerate(c) if x)  # exactly-zero low coefficients: k roots 0j
    companion = np.eye(p.degree - k, k=-1, dtype=complex)  # of p / z^k, as numpy.roots builds it
    companion[:1] = np.divide([-x for x in reversed(c[k:-1])], c[-1])  # none if p = lead z^k
    roots = np.linalg.eigvals(companion).tolist() + [0j] * k
    for r in roots:
        if abs(p(r)) >= ROOT_TOL * p.scale * (1 + abs(r)) ** p.degree:
            raise NonConvergence(f"root residual too large at {r}")
    return roots


def f_m_coefficients(p0: complex, masses) -> tuple[complex, ...]:
    """Ascending coefficients of the normalized quartic f_m.

    Uniquely determined by the residue constraints f(0) = m0^2 p0^2,
    f(1) = m1^2 (1-p0)^2, f(p0) = mp^2 p0^2 (p0-1)^2, f4 = minf^2 together
    with the vanishing of the beta^5 coefficient of the z-discriminant of
    f_m + beta z(z-1)(z-p0) (center of mass of the singular fibers at 0).
    """
    m0, m1, mp, mi = read_vector(masses, 4, complex)
    a, b, c, d = m0 ** 2, m1 ** 2, mp ** 2, mi ** 2
    f4 = d
    f3 = (-a + 2 * b - 4 * d - c - a * p0 - b * p0 - 4 * d * p0 + 2 * c * p0) / 3
    f2 = (a + b + d + c + 5 * a * p0 - 4 * b * p0 + 5 * d * p0 - 4 * c * p0
          + (a + b + c + d) * p0 ** 2) / 3
    f1 = -(p0 / 3) * (4 * a + b + d - 2 * c + 4 * a * p0 - 2 * b * p0 + d * p0 + c * p0)
    f0 = a * p0 ** 2
    return f0, f1, f2, f3, f4


@dataclass(frozen=True)
class HitchinBase:
    """Marked point p0, complex masses (m0, m1, mp0, minf which may be 0),
    and the normalized quartic coefficients f0..f4 (ascending).  Derived once
    where the base is built: ``c_coeffs``, c = z(z-1)(z-p0) ascending and padded
    to quartic length, and ``punctures``, rows (key, p, c'(p), m_p) for the finite
    punctures 0, 1, p0, where f(p) = m_p^2 c'(p)^2; ==, hash, repr skip them."""

    p0: complex
    masses: tuple[complex, complex, complex, complex]
    f_coeffs: tuple[complex, complex, complex, complex, complex]
    c_coeffs: tuple = field(init=False, repr=False, compare=False)
    punctures: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        p0 = self.p0
        vars(self).update(c_coeffs=(0j, p0, -(1 + p0), 1 + 0j, 0j), punctures=tuple(zip(
            PUNCTURE_KEYS, (0.0, 1.0, p0), (p0, 1 - p0, p0 * (p0 - 1)), self.masses)))

    def curve_coeffs(self, beta: complex) -> tuple[complex, ...]:
        """Ascending coefficients of F = f_m + beta z(z-1)(z-p0); ``ValueError``
        naming beta if one is not finite (complex arithmetic overflows silently)."""
        F = tuple(f + beta * c for f, c in zip(self.f_coeffs, self.c_coeffs))
        if not all(map(cmath.isfinite, F)):
            raise ValueError(f"F = f_m + beta z(z-1)(z-p0) is not finite at beta = {complex(beta)}")
        return F


def build_base(p0: complex, masses) -> HitchinBase:
    p0, masses = complex(p0), read_vector(masses, 4, complex)
    if not all(map(cmath.isfinite, (p0, *masses))):
        raise ValueError(f"p0 = {p0} and masses {masses} must be finite")
    if min(abs(p0), abs(p0 - 1)) < 1e-12:
        raise DegenerateP0(f"p0 = {p0} collides with 0 or 1")
    try:
        f = f_m_coefficients(p0, masses)
    except OverflowError:  # a complex power past the float range
        f = [cmath.inf]
    if not all(map(cmath.isfinite, f)):
        raise ValueError(f"f_m is not finite at p0 = {p0}, masses {masses}")
    return HitchinBase(p0, masses, f)


# ---------------------------------------------------------------------------
# discriminant in beta and singular fibers
# ---------------------------------------------------------------------------

def quartic_discriminant(c) -> complex:
    """Discriminant of a formal quartic with ascending coefficients c
    (valid as a polynomial identity even when the leading coefficient is 0)."""
    e, d, cc, b, a = read_vector(c, 5, complex)
    return (256 * a ** 3 * e ** 3 - 192 * a ** 2 * b * d * e ** 2
            - 128 * a ** 2 * cc ** 2 * e ** 2 + 144 * a ** 2 * cc * d ** 2 * e
            - 27 * a ** 2 * d ** 4 + 144 * a * b ** 2 * cc * e ** 2
            - 6 * a * b ** 2 * d ** 2 * e - 80 * a * b * cc ** 2 * d * e
            + 18 * a * b * cc * d ** 3 + 16 * a * cc ** 4 * e
            - 4 * a * cc ** 3 * d ** 2 - 27 * b ** 4 * e ** 2
            + 18 * b ** 3 * cc * d * e - 4 * b ** 3 * d ** 3
            - 4 * b ** 2 * cc ** 3 * e + b ** 2 * cc ** 2 * d ** 2)


def beta_discriminant_poly(base: HitchinBase) -> np.ndarray:
    """Ascending coefficients of the degree-6 polynomial beta -> disc_z(f_m +
    beta z(z-1)(z-p0)), fitted on ``BETA_NODES`` points of a circle of radius r with every
    singular value kept (rcond=0): V's column k scales as r^k, so a cutoff drops beta^0."""
    c, f = base.c_coeffs, base.f_coeffs
    radius = 2.0 * max(1.0, *map(abs, f))
    bs = [radius * u for u in _UNIT_NODES]
    try:
        vals = [quartic_discriminant([x + b * y for x, y in zip(f, c)]) for b in bs]
    except OverflowError:  # a complex power past the float range
        vals = [cmath.inf]
    # V's largest modulus, radius^6, is finite below 2^(1024/6)
    if not (all(map(cmath.isfinite, vals)) and radius < 2.0 ** (1024 / 6)):
        raise ValueError(f"the beta-discriminant is not finite at p0 = {base.p0}, "
                         f"masses {base.masses}")
    return np.linalg.lstsq(np.vander(bs, 7, increasing=True), vals, rcond=0)[0]


def singular_fibers(base: HitchinBase) -> list[complex]:
    """The six beta values (with multiplicity) of singular Hitchin fibers;
    their sum vanishes by the center-of-mass normalization of f_m.

    When f_m vanishes (every mass 0), disc_z(beta z(z-1)(z-p0)) is a
    constant times beta^6, so beta = 0 is returned six times exactly."""
    if not any(base.f_coeffs):
        return [0j] * 6
    coef = beta_discriminant_poly(base).tolist()
    scale = max(map(abs, coef))
    if scale == 0 or abs(coef[6]) < 1e-10 * scale:
        raise DegenerateConfiguration("beta-discriminant is not degree six")
    return sorted(poly_roots(ComplexPoly(coef)), key=lambda r: (r.real, r.imag))


# ---------------------------------------------------------------------------
# the fiber over beta and B^0 membership
# ---------------------------------------------------------------------------

@functools.lru_cache(maxsize=1)
def _fiber(base: HitchinBase, beta: complex):
    """(F, roots, cuts) of F = f_m + beta z(z-1)(z-p0), the last one kept: roots by
    ``poly_roots``, sorted by (Re, Im) rounded to 12 decimals (none for a constant F);
    cuts [a, b], [c, d] of four roots the pairing of least total length (ties to the
    first in that order), of three roots [r0, r1], [r2]."""
    F = ComplexPoly(base.curve_coeffs(beta))
    rs = tuple(sorted(poly_roots(F), key=lambda r: (round(r.real, 12), round(r.imag, 12)))
               if F.degree else ())
    cuts = (rs[:2], rs[2:])
    if len(rs) == 4:
        pairings = (((0, 1), (2, 3)), ((0, 2), (1, 3)), ((0, 3), (1, 2)))
        lengths = [abs(rs[i] - rs[j]) + abs(rs[k] - rs[l]) for (i, j), (k, l) in pairings]
        cuts = tuple((rs[i], rs[j]) for i, j in pairings[lengths.index(min(lengths))])
    return F, rs, cuts


def in_B0(base: HitchinBase, beta: complex) -> bool:
    """True iff F = f_m + beta z(z-1)(z-p0) is not a perfect square and has
    no non-simple zero at a puncture (including infinity, where the order
    of vanishing is 4 - deg F).  A quartic F is a square iff both
    ``_fiber`` cuts of its roots are shorter than 1e-6 (1 + max|root|)."""
    F, roots, cuts = _fiber(base, beta)
    if F.degree <= 2:  # zero at infinity of order >= 2
        return False
    tol = 1e-6 * (1.0 + max(abs(r) for r in roots))
    if F.degree == 4 and all(abs(b - a) < tol for a, b in cuts):
        return False
    scale, dF = max(1.0, F.scale), F.derivative()
    return not any(abs(F(p)) < 1e-10 * scale and abs(dF(p)) < 1e-8 * scale
                   for _, p, *_ in base.punctures)


# ---------------------------------------------------------------------------
# Higgs representatives and flags
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SpectralFiberPoint:
    """Point of the fiber over beta: stratum "big" carries honest (u, w)
    solving the affine cubic; "small" is the projective point (0:0:1) and
    "extra" the point (m_inf:0:(f3+beta)/2) over z = infinity."""

    base: HitchinBase
    beta: complex
    u: complex | None = None
    w: complex | None = None
    stratum: str = "big"

    def __post_init__(self):
        if self.stratum not in ("big", "small", "extra"):
            raise ValueError(f"unknown stratum {self.stratum!r}")
        if self.stratum == "big":
            if self.u is None or self.w is None:
                raise OffCurve("big stratum needs (u, w)")
            F, minf = ComplexPoly(self.base.curve_coeffs(self.beta)), self.base.masses[3]
            val = F(self.u) - (minf * self.u ** 2 + self.w) ** 2
            scale = max(1.0, F.scale, abs(self.w) ** 2)
            if abs(val) > 1e-8 * scale:
                raise OffCurve(f"cubic residual {abs(val):.3e} at (u, w)")
        elif self.stratum == "extra" and abs(self.base.masses[3]) < 1e-13:
            raise OffCurve("extra point exists only when m_inf != 0")


def higgs_representative(pt: SpectralFiberPoint):
    """Trace-free Higgs matrix phi = N(z) / c(z) dz, c = z(z-1)(z-p0), as
    N = ((-D, U), (L, D)) of ``ComplexPoly`` entries plus c, with
    U L = F - D^2 so that det N = -F:
      big:   D = w + m_inf z^2,    L = z - u, U = (F - D^2)/(z - u);
      extra: D = a z + m_inf z^2,  L = 1,     U = F - D^2 (quadratic),
             a = F_3/(2 m_inf);
      small: D = 0,                L = 1,     U = F."""
    F, minf = pt.base.curve_coeffs(pt.beta), pt.base.masses[3]
    if pt.stratum == "big":
        (d0, d1, d2), lower = (pt.w, 0j, minf), [-pt.u, 1]
    elif pt.stratum == "extra":
        (d0, d1, d2), lower = (0j, F[3] / (2 * minf), minf), [1]
    else:
        (d0, d1, d2), lower = (0j, 0j, 0j), [1]
    dd = (d0 * d0, 2 * d0 * d1, d1 * d1 + 2 * d0 * d2, 2 * d1 * d2, d2 * d2)  # D^2
    upper = ComplexPoly([x - y for x, y in zip(F, dd)])
    if pt.stratum == "big":
        if abs(upper(pt.u)) > 1e-6 * max(1.0, upper.scale):
            raise OffCurve("upper-right division by (z - u) is not exact")
        upper = upper.deflate(pt.u)
    elif pt.stratum == "extra" and upper.degree > 2:
        raise BrokenIdentity("extra-point upper entry must be quadratic")
    N = ((ComplexPoly([-d0, -d1, -d2]), upper), (ComplexPoly(lower), ComplexPoly([d0, d1, d2])))
    return N, ComplexPoly(pt.base.c_coeffs)


def flags(pt: SpectralFiberPoint):
    """Projective flag coordinates (F_0, F_1, F_p0, F_inf); inf encodes
    the direction (1:0).  The flag at a finite puncture p is the direction
    (x:y) of the eigenvector of N(p)/c'(p) (``higgs_representative``) with
    eigenvalue m_p, lambda = m_p c'(p): U(p)/(lambda + D(p)) where L(p) = 0 or
    this upper row has the smaller rounding bound (README), else (lambda -
    D(p))/L(p); but (1:0) where L(p) = 0 != lambda - D(p), and ``UndefinedFlag``
    if lambda + D(p) vanishes too.  "= 0" is below 1e-9 (1e-12 in the last
    test) of 1 + |D(0)| + |L(0)|, which is 1 + |w| + |u| on the big stratum.
    The flag at infinity is -m_inf on the small stratum and (1:0) on the others."""
    ((_, U), (L, D)), _ = higgs_representative(pt)
    scale = 1.0 + abs(D.coeffs[0]) + abs(L.coeffs[0])
    out = []
    for _, p, dc, m in pt.base.punctures:
        lam, Dp, Lp = m * dc, D(p), L(p)
        if abs(Lp) > 1e-9 * scale:  # the row with the smaller rounding bound
            err_U = sum(abs(c) * abs(p) ** k for k, c in enumerate(U.coeffs)) * abs(Lp)
            upper = (abs(lam) + abs(Dp)) * (abs(lam + Dp) - abs(lam - Dp)) > err_U
            out.append(U(p) / (lam + Dp) if upper else (lam - Dp) / Lp)
        elif abs(lam - Dp) > 1e-9 * scale:
            out.append(math.inf)
        elif abs(lam + Dp) < 1e-12 * scale:
            raise UndefinedFlag(f"residue matrix vanishes at z = {p}")
        else:
            out.append(U(p) / (lam + Dp))
    return (*out, -pt.base.masses[3] if pt.stratum == "small" else math.inf)


# ---------------------------------------------------------------------------
# the square-root sheet and residues
# ---------------------------------------------------------------------------

def _anchor(branch: Sequence[complex]) -> float:
    """z* = 3 max(1, |branch point|), where ``_sheet`` is the principal sqrt(F)."""
    return 3.0 * max(1.0, max(abs(r) for r in branch))


def _sheet(F: ComplexPoly, branch: Sequence[complex]):
    """z -> s sqrt(lead) prod_e sqrt(v_e) sqrt((z - e)/v_e), the sheet of the module
    docstring (+i sqrt|F| at z* if F(z*) < 0).  For a real F, a root that is its own
    nearest conjugate and a z within 1e-9 |z| of the real axis count as real."""
    real = not any(c.imag for c in F.coeffs)
    rs = [complex(r.real) if real and min(branch, key=lambda q: abs(q - r.conjugate())) is r
          else r for r in branch]
    anchor = _anchor(branch)
    vs = [(anchor - e) / abs(anchor - e) for e in rs]
    s = cmath.sqrt(F.coeffs[-1]) * math.prod(map(cmath.sqrt, vs))  # signed below

    def continued(z: complex) -> complex:
        z = complex(z.real) if real and abs(z.imag) <= 1e-9 * abs(z) else z
        # + 0j puts a point on a cut, where Im is +-0.0, on its Im > 0 side
        return s * math.prod(cmath.sqrt((z - e) / v + 0j) for e, v in zip(rs, vs))

    s *= _nearer(1.0, cmath.sqrt(F(anchor)) / continued(anchor))
    return continued


def _nearer(v: complex, target: complex) -> complex:
    """Whichever of +-v lies nearer target."""
    return v if abs(v - target) <= abs(v + target) else -v


def tautological_residues(base: HitchinBase, beta: complex) -> dict:
    """Residues of tau = w dz / c(z), c = z(z-1)(z-p0), over the punctures
    "0", "1", "p0", "inf": (plus sheet, minus sheet) = (s m_p, -s m_p) with
    s = +-1 on the anchored sheet labeling.

    F(p) = m_p^2 c'(p)^2, so the plus sheet is s m_p c'(p) at a finite
    puncture p; s is read on ``_sheet`` at p + r, r = 0.1 x the distance to the
    nearest branch point or other puncture, and no branch point within 10 r can
    flip it on the way to p.  At infinity the plus sheet is s m_inf z^2 (1 +
    O(1/z)) at the anchor and the residue is -s m_inf; if the trim drops
    m_inf^2, the far branch point is lost and ``BranchPointCollision`` is raised.
    """
    out = dict.fromkeys(PUNCTURE_KEYS, (0j, 0j))
    if not any(base.masses):
        return out
    F, branch, _ = _fiber(base, beta)
    anchor, sheet, mi = _anchor(branch), _sheet(F, branch), base.masses[3]
    for key, p, dc, m in base.punctures:
        if m == 0:
            continue
        dists = [abs(p - b) for b in branch] + [abs(p - q) for _, q, *_ in base.punctures if q != p]
        radius = 0.1 * min(dists)
        if radius < 1e-12:
            raise BranchPointCollision(f"branch point at puncture z = {p}")
        res = _nearer(m, sheet(p + radius) / dc)
        out[key] = (res, -res)
    if mi != 0:
        if len(branch) < 4:
            raise BranchPointCollision("trimmed far branch point near -beta/m_inf^2")
        res = _nearer(mi, -cmath.sqrt(F(anchor)) / anchor ** 2)
        out["inf"] = (res, -res)
    return out


# ---------------------------------------------------------------------------
# elliptic periods
# ---------------------------------------------------------------------------

def _cycle(root: complex, segments, roots, sheet) -> complex:
    """The period of the cycle around the first [p, q] of ``segments`` whose nearest other root
    e has elliptic coordinate rho >= 1e-7: collapsed onto it, z = mu + h cos theta, it is
    -s int_0^pi dtheta / (root g_r(z) g_s(z)) over the other roots r, s (g_s = 1 for a
    cubic), each g_e(z) = sqrt(u) sqrt((z - e)/u) with u bisecting the angle [p, z0]
    subtends at e, and s the sign of the sheet at z0 = mu + h cosh min(1.2, rho/2).  By
    Gauss-Landen the integral is pi / M, M the AGM seeded with (g_r(p) g_s(q), g_s(p) g_r(q))
    exactly as given, each later root nearer the arithmetic mean, to |x - y| <= 1e-15 |x|."""
    for p, q in segments:
        others = [e for e in roots if e not in (p, q)]
        rho = min(abs(cmath.acos((2 * e - p - q) / (q - p)).imag) for e in others)
        if rho >= 1e-7:
            break
    else:
        raise BranchPointCoincidence("branch points collide with the cut")
    mu, h, r = (p + q) / 2, (q - p) / 2, min(1.2, 0.5 * rho)
    z0 = mu + h * math.cosh(r)
    us = [(p - e) / abs(p - e) + (z0 - e) / abs(z0 - e) for e in others]
    gp, gq, g0 = ([cmath.sqrt(u) * cmath.sqrt((z - e) / u) for e, u in zip(others, us)] + [1]
                  for z in (p, q, z0))
    s = _nearer(1.0, sheet(z0) / (root * h * math.sinh(r) * g0[0] * g0[1]))
    x, y = gp[0] * gq[1], gp[1] * gq[0]
    for _ in range(64):
        if abs(x - y) <= 1e-15 * abs(x):
            return -s * math.pi / (root * x)
        x, y = (x + y) / 2, cmath.sqrt(x * y)
        y = _nearer(y, x)
    raise NonConvergence(f"AGM did not settle ({x} vs {y})")


def elliptic_periods(base: HitchinBase, beta: complex):
    """(A, B, tau): i times the integrals of omega = dz/(2w) around the A- and
    B-cycles (``_cycle``), tau = B/A put in the upper half-plane by a sign flip of B."""
    F, branch, cuts = _fiber(base, beta)
    if F.degree < 3:
        raise SingularFiber("curve degenerates below genus one")
    # a residual up to ROOT_TOL moves a near-double root by up to sqrt(ROOT_TOL) of its size
    for i, x in enumerate(branch):
        for y in branch[i + 1:]:
            if abs(x - y) < math.sqrt(ROOT_TOL) * max(1.0, abs(x), abs(y)):
                raise SingularFiber(f"branch points coincide (distance {abs(x - y):.2e})")
    (a, b), (c, *d) = cuts
    roots, root, sheet = (a, b, c, *d), cmath.sqrt(F.coeffs[-1]), _sheet(F, branch)
    A = _cycle(root, [(a, b)], roots, sheet)
    B = _cycle(root, [(b, c), (a, c)] + [(e, *d) for e in (b, a) if d], roots, sheet)
    if not (cmath.isfinite(A) and cmath.isfinite(B) and A and (B / A).imag):
        raise SingularFiber(f"degenerate periods A = {A}, B = {B}")
    tau = B / A
    if tau.imag < 0:
        tau, B = -tau, -B
    return A, B, tau


def tau_sweep(base: HitchinBase, bmin: float, bmax: float, samples: int):
    """Rows (beta, tau) at ``samples`` real beta log-spaced from bmin to bmax,
    with the ``DomainError`` of ``elliptic_periods`` in place of tau where it
    raises one; ``ValueError`` for a bound that is not finite and positive."""
    for b in (bmin, bmax):
        if not (math.isfinite(b) and b > 0):
            raise ValueError(f"beta bound must be finite and > 0, got {b}")
    for beta in np.logspace(np.log10(bmin), np.log10(bmax), samples):
        try:
            tau = elliptic_periods(base, complex(beta))[2]
        except DomainError as exc:
            tau = exc
        yield beta, tau


# ---------------------------------------------------------------------------
# large-beta asymptotics
# ---------------------------------------------------------------------------

def tau_asymptotics(base: HitchinBase, beta_samples) -> dict:
    """Track the branch-point drift near each finite puncture (its nearest root,
    ties to the upper one) over large |beta| samples and fit the 1/beta
    coefficient of each shift: {"fitted": {key: coeff}, "predicted": {key:
    -f(p)/c'(p) = -m_p^2 c'(p)}} for keys "0", "1", "p0"; ``ValueError`` for
    fewer than two distinct samples.
    A companion eigenvalue is off by about eps |far root| while a shift d shrinks as
    1/|beta|, so d takes three steps of F = 0 with c factored over the punctures."""
    betas = read_vector(beta_samples, read=complex)
    if len(set(betas)) < 2:
        raise ValueError("need at least two distinct beta samples")
    sep = min(abs(p - q) for _, p, *_ in base.punctures for _, q, *_ in base.punctures if p != q)
    shifts = {key: [] for key, *_ in base.punctures}
    f = ComplexPoly(base.f_coeffs)
    for b in betas:
        roots = _fiber(base, b)[1]
        if not roots:
            raise ValueError("degree must be >= 1")
        for key, p, *_ in base.punctures:
            d = min(roots, key=lambda r: (abs(r - p), -r.imag)) - p
            if abs(d) > 0.45 * sep:
                raise RootTrackingLost(f"no root near puncture {key} at beta={b}")
            q1, q2 = (q for _, q, *_ in base.punctures if q != p)
            for _ in range(3):
                d = -f(p + d) / (b * (p + d - q1) * (p + d - q2))
            shifts[key].append(d)
    inv = np.array([1.0 / b for b in betas])
    design = np.column_stack([inv, inv ** 2])  # two-term fit removes 1/beta^2 bias
    return {"fitted": {k: complex(np.linalg.lstsq(design, np.array(s), rcond=None)[0][0])
                       for k, s in shifts.items()},
            "predicted": {key: -m * m * dc for key, _, dc, m in base.punctures}}
