"""Wall functionals and the 24-chamber structure of parabolic weights.

The open weight cube (0,1/2)^4 is divided by 12 walls into 16 interior
chambers (labelled by even partition sets, four each of types A1, A2, B1,
B2) and 8 exterior chambers (labelled by odd subsets, types E1/E2).  All
tests here are exact integer sign or divisibility tests on numerators over a
common denominator, read from a ``ParabolicData``'s ``ints``; labels come from
a 16-entry interior and an 8-entry exterior table, and exact types appear only
in arguments, results and messages.  A weight vector sitting exactly on a wall
is an error, never a silent nearest-chamber choice.

Subsets of {1,2,3,4} are encoded as bitmasks: bit i-1 set iff i is in the
subset.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from itertools import product
from operator import mul

from .core import (DomainError, GaussianRational, as_gaussian, common_denominator, gaussian_form,
                   read_vector)

FULL = 0b1111
E_REPS = (0b0000, 0b0011, 0b0101, 0b1001)  # {}, {1,2}, {1,3}, {1,4}


class OnWall(DomainError, ValueError):
    """Weight vector lies exactly on a chamber wall."""


class OutOfCube(DomainError, ValueError):
    """Weight vector is outside the open cube (0,1/2)^4."""


def _in_range(mask: int) -> int:
    if not 0 <= mask <= FULL:
        raise ValueError(f"mask {mask} out of range 0..15")
    return mask


def subset_members(mask: int) -> tuple[int, ...]:
    mask = _in_range(mask)
    return tuple(i + 1 for i in range(4) if mask >> i & 1)


def subset_mask(members) -> int:
    m = 0
    for i in members:
        if not 1 <= i <= 4:
            raise ValueError(f"index {i} out of range")
        m |= 1 << (i - 1)
    return m


def _mask(subset) -> int:
    """Bitmask of a subset given as a mask in 0..15 or by its members."""
    return _in_range(subset) if isinstance(subset, int) else subset_mask(subset)


def subset_size(mask: int) -> int:
    return bin(_in_range(mask)).count("1")


# _SIGNS[I][i] = +1 if i+1 in I else -1, the coefficients of a_i in K_I and of m_i
# in M_I; K_I = _SIGNS[I].alpha + _K_OFFSET[I] with _K_OFFSET[I] = floor((|I^c|-|I|)/4).
_SIGNS = tuple(tuple(1 if mask >> i & 1 else -1 for i in range(4)) for mask in range(16))
_K_OFFSET = tuple((4 - 2 * subset_size(mask)) // 4 for mask in range(16))


def _k(mask: int, b, N: int) -> int:
    """N K_I for alpha = b / N."""
    return sum(map(mul, _SIGNS[mask], b)) + _K_OFFSET[mask] * N


@dataclass(frozen=True)
class ParabolicData:
    """Exact weights alpha in Q^4 and masses m in Q(i)^4; ``ints`` = (N, b, Nm, re, im)
    is their integer form, derived once where the value is built: alpha = b / N and
    m = (re + i im) / Nm over common (not always least) N, Nm; ==, hash, repr skip it."""

    alpha: tuple[Fraction, Fraction, Fraction, Fraction]
    masses: tuple[GaussianRational, GaussianRational, GaussianRational, GaussianRational]
    ints: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        alpha, masses = read_vector(self.alpha, 4), read_vector(self.masses, 4, as_gaussian)
        ints = (*common_denominator(alpha), *gaussian_form(masses))
        vars(self).update(alpha=alpha, masses=masses, ints=ints)


@dataclass(frozen=True)
class ChamberLabel:
    """Interior: (type A1/A2/B1/B2, distinguished index, even partition set).
    Exterior: (type E1/E2, odd subset i0, associated even partition set).

    ``subsets`` is the even partition set as a tuple of bitmasks in
    ascending order; for exterior chambers ``i0`` is the odd subset whose
    vertex replaces the barycenter.
    """

    kind: str                      # "interior" | "exterior"
    ctype: str                     # A1 A2 B1 B2 E1 E2
    index: int                     # distinguished index in 1..4
    subsets: tuple[int, int, int, int]
    i0: int | None = None          # odd subset bitmask, exterior only

    def short(self) -> str:
        """Compact unique name, e.g. B1_1 or E2_4 (shell/CSV safe)."""
        return f"{self.ctype}_{self.index}"

    def __str__(self):
        sets = ",".join("{" + ",".join(map(str, subset_members(s))) + "}" for s in self.subsets)
        if self.kind == "interior":
            return f"{self.ctype}_{self.index}[{sets}]"
        return f"{self.ctype}_{{{','.join(map(str, subset_members(self.i0)))}}}[{sets}]"


# ---------------------------------------------------------------------------
# wall functionals
# ---------------------------------------------------------------------------

def wall_K(mask_or_members, alpha) -> Fraction:
    """K_I = sum_{i in I} a_i - sum_{i not in I} a_i + floor((|I^c|-|I|)/4)."""
    N, b = common_denominator(read_vector(alpha, 4))
    return Fraction(_k(_mask(mask_or_members), b, N), N)


def wall_L(i: int, alpha) -> Fraction:
    """L_i = -a_i + sum_{j != i} a_j = -K_{{i}}; the Biswas polytope is 0 < L_i < 1."""
    if not 1 <= i <= 4:
        raise ValueError("index must be in 1..4")
    return -wall_K(1 << (i - 1), alpha)


# ---------------------------------------------------------------------------
# even partition sets and chamber labels
# ---------------------------------------------------------------------------

def _classify_partition_set(subsets: tuple[int, ...]) -> tuple[str, int]:
    """Type and distinguished index of an even partition set.

    The three 2-subsets either share a common index (types B1/A2) or
    jointly omit one (types A1/B2); pairing with the presence of {} versus
    {1,2,3,4} gives the four types.
    """
    counts = [sum(1 for s in subsets if subset_size(s) == 2 and s >> i & 1) for i in range(4)]
    shared = 3 in counts
    types = ("B1", "A2") if shared else ("A1", "B2")
    return types[0 not in subsets], counts.index(3 if shared else 0) + 1


def interior_label(subsets) -> ChamberLabel:
    subsets = tuple(sorted(subsets))
    if len(subsets) != 4 or any(subset_size(s) % 2 for s in subsets):
        raise ValueError("need four even subsets")
    if any((rep in subsets) == ((rep ^ FULL) in subsets) for rep in E_REPS):
        raise ValueError("need exactly one of each complementary pair")
    ctype, i = _classify_partition_set(subsets)
    return ChamberLabel("interior", ctype, i, subsets)


def exterior_label(i0_mask: int) -> ChamberLabel:
    k = subset_size(i0_mask)
    if k % 2 == 0:
        raise ValueError("exterior label needs an odd subset")
    assoc = tuple(sorted(i0_mask ^ (1 << j) for j in range(4)))
    i = subset_members(i0_mask if k == 1 else i0_mask ^ FULL)[0]
    return ChamberLabel("exterior", "E1" if k == 1 else "E2", i, assoc, i0_mask)


# _INTERIOR[k]: the chamber where K_{E_REPS[r]} < 0 iff bit 3 - r of k is set;
# _EXTERIOR[i] (_EXTERIOR[i + 4]): the chamber where L_{i+1} < 0 (L_{i+1} > 1).
_INTERIOR = tuple(interior_label(tuple(rep ^ (FULL * b) for rep, b in zip(E_REPS, bits)))
                  for bits in product((0, 1), repeat=4))
_EXTERIOR = tuple(exterior_label((1 << i) ^ (FULL * s)) for s in (0, 1) for i in range(4))


def enumerate_chambers() -> list[ChamberLabel]:
    """All 24 chamber labels: 16 interior then 8 exterior, deterministic order."""
    return list(_INTERIOR) + sorted(_EXTERIOR, key=lambda label: label.i0)


def check_cube(N: int, b) -> tuple[int, tuple[int, ...]]:
    """Raise OutOfCube unless alpha = b / N is in (0,1/2)^4; return (N, b)."""
    if len(b) != 4 or not all(0 < v and 2 * v < N for v in b):
        raise OutOfCube(f"alpha ({', '.join(str(Fraction(v, N)) for v in b)}) not in (0,1/2)^4")
    return N, b


def classify_chamber(alpha) -> ChamberLabel:
    """Exact chamber of a weight vector in the open cube (0,1/2)^4.

    Raises OutOfCube outside the cube and OnWall if any deciding functional
    vanishes (equivalently, (alpha, 0) is non-generic).
    """
    return _chamber(*check_cube(*common_denominator(read_vector(alpha))))


def _chamber(N: int, b) -> ChamberLabel:
    """Chamber of alpha = b / N in the cube: N L_i = sum(b) - 2 b_i, N K_I = _k(I, b, N)."""
    for i, v in enumerate(b):
        li = sum(b) - 2 * v
        if li == 0 or li == N:
            raise OnWall(f"L_{i + 1} = {li // N}")
        if li < 0 or li > N:
            return _EXTERIOR[i + 4 * (li > N)]
    k = 0
    for rep in E_REPS:
        kr = _k(rep, b, N)
        if kr == 0:
            raise OnWall(f"K wall for subset mask {rep}")
        k = 2 * k + (kr < 0)
    return _INTERIOR[k]


def chamber_sweep(start, stop, samples: int):
    """Rows (t, alpha, label) at ``samples`` equally spaced t in [0, 1] (one
    sample is t = 0) on the segment alpha = start + t (stop - start), with the
    ``DomainError`` of ``classify_chamber`` in place of the label where it
    raises one; ``ValueError`` unless both ends have four entries."""
    start, stop = read_vector(start, 4), read_vector(stop, 4)
    for k in range(samples):
        t = Fraction(k, samples - 1) if samples > 1 else Fraction(0)
        alpha = tuple(x + t * (y - x) for x, y in zip(start, stop))
        try:
            label = classify_chamber(alpha)
        except DomainError as exc:
            label = exc
        yield t, alpha, label


def chamber_vertices(label: ChamberLabel) -> list[tuple[Fraction, ...]]:
    """Vertices spanning the chamber: barycenter (interior) or v_{I0}
    (exterior), plus the four cube vertices v_I for I in the partition set."""
    def v(mask):
        return tuple(Fraction(1, 2) if mask >> i & 1 else Fraction(0) for i in range(4))

    first = (Fraction(1, 4),) * 4 if label.kind == "interior" else v(label.i0)
    return [first] + [v(s) for s in label.subsets]


def adjacent(a: ChamberLabel, b: ChamberLabel) -> bool:
    """Chambers are adjacent iff their vertex sets share exactly four points."""
    return len(set(chamber_vertices(a)) & set(chamber_vertices(b))) == 4


# ---------------------------------------------------------------------------
# genericity
# ---------------------------------------------------------------------------

def mass_functional(mask_or_members, masses) -> GaussianRational:
    """M_J = sum_{j in J} m_j - sum_{j not in J} m_j; M_{J^c} = -M_J."""
    c = _SIGNS[_mask(mask_or_members)]
    N, re, im = gaussian_form(read_vector(masses, 4, as_gaussian))
    return GaussianRational(Fraction(sum(map(mul, c, re)), N), Fraction(sum(map(mul, c, im)), N))


# Nakajima planes in ``product((0, 1), repeat=4)`` order of e: e, sum(e) and
# the signs of J = {i : e_i = 0}, the plane's coefficients on alpha and on m.
_PLANES = tuple((e, sum(e), _SIGNS[sum(1 << i for i, ei in enumerate(e) if not ei)])
                for e in product((0, 1), repeat=4))


def genericity_violations(data: ParabolicData) -> list[dict]:
    """Nakajima planes through (alpha, m), alpha unrestricted, in
    ``product((0, 1), repeat=4)`` order of e, as [{"d": d, "e": [e1..e4]}].

    (alpha, m) lies on the plane (d, e) iff d + sum(e_i + (-1)^{e_i} a_i) = 0
    and sum((-1)^{e_i} m_i) = M_J = 0 with J = {i : e_i = 0}.  The
    alpha-equation fixes the integer d, so a sign vector costs one
    divisibility test on integer numerators, and a mass combination only when
    that passes.
    """
    N, b, _, re, im = data.ints
    out = []
    for e, n, c in _PLANES:
        s = n * N + sum(map(mul, c, b))
        if s % N == 0 and not sum(map(mul, c, re)) and not sum(map(mul, c, im)):
            out.append({"d": -s // N, "e": list(e)})
    return out


def is_generic(data: ParabolicData) -> bool:
    """Nakajima genericity of (alpha, m) with alpha in the open cube: no
    plane of ``genericity_violations`` passes through it."""
    check_cube(*data.ints[:2])
    return not genericity_violations(data)


def in_R_tilde(data: ParabolicData, full: bool) -> bool:
    """Membership in the extended parameter domain (alpha unrestricted).

    full=True excludes the planes of ``genericity_violations`` and
    {2 a_i = d, m_i = 0}; full=False further removes the locus where some
    L-type combination and some 2*a_i are both integers (weights whose
    orbit never meets the open cube).
    """
    N, b = data.ints[:2]
    if genericity_violations(data) or any(
            2 * v % N == 0 and not m for v, m in zip(b, data.masses)):
        return False
    return full or not (any((sum(b) - 2 * v) % N == 0 for v in b)
                        and any(2 * v % N == 0 for v in b))


# ---------------------------------------------------------------------------
# C*-fixed points
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FixedPointData:
    deg_DI: int
    deg_L2: int
    stability_value: Fraction
    stable: bool
    phi0_bundle_degree: int


def fixed_point_data(mask_or_members, alpha) -> FixedPointData:
    """Stability data of the C*-fixed point labelled by a subset I.

    deg L2 = -1 - floor(|I|/2); the stability functional is K_I (which for
    |I| = 1 equals -L_i and for |I| = 3 equals L_i - 1); the Higgs-field
    line bundle has degree |I| mod 2.
    """
    mask = _mask(mask_or_members)
    N, b = check_cube(*common_denominator(read_vector(alpha)))
    k = subset_size(mask)
    value = Fraction(_k(mask, b, N), N)
    return FixedPointData(deg_DI=k, deg_L2=-1 - k // 2, stability_value=value,
                          stable=value > 0, phi0_bundle_degree=k % 2)
