"""Wall functionals and the 24-chamber structure of parabolic weights.

The open weight cube (0,1/2)^4 is divided by 12 walls into 16 interior
chambers (labelled by even partition sets, four each of types A1, A2, B1,
B2) and 8 exterior chambers (labelled by odd subsets, types E1/E2).  All
tests here are exact over Q; a weight vector sitting exactly on a wall is
an error, never a silent nearest-chamber choice.

Subsets of {1,2,3,4} are encoded as bitmasks: bit i-1 set iff i is in the
subset.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import product

from .core import GaussianRational

FULL = 0b1111
E_REPS = (0b0000, 0b0011, 0b0101, 0b1001)  # {}, {1,2}, {1,3}, {1,4}


class OnWall(ValueError):
    """Weight vector lies exactly on a chamber wall."""


class OutOfCube(ValueError):
    """Weight vector is outside the open cube (0,1/2)^4."""


def subset_members(mask: int) -> tuple[int, ...]:
    return tuple(i + 1 for i in range(4) if mask >> i & 1)


def subset_mask(members) -> int:
    m = 0
    for i in members:
        if not 1 <= i <= 4:
            raise ValueError(f"index {i} out of range")
        m |= 1 << (i - 1)
    return m


def subset_size(mask: int) -> int:
    return bin(mask & FULL).count("1")


@dataclass(frozen=True)
class ParabolicData:
    """Exact parabolic weights alpha in Q^4 and complex masses m in Q(i)^4."""

    alpha: tuple[Fraction, Fraction, Fraction, Fraction]
    masses: tuple[GaussianRational, GaussianRational, GaussianRational, GaussianRational]

    def __post_init__(self):
        object.__setattr__(self, "alpha", tuple(Fraction(a) for a in self.alpha))
        ms = tuple(m if isinstance(m, GaussianRational) else GaussianRational(Fraction(m))
                   for m in self.masses)
        object.__setattr__(self, "masses", ms)
        if len(self.alpha) != 4 or len(self.masses) != 4:
            raise ValueError("alpha and masses must have length 4")


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
    mask = mask_or_members if isinstance(mask_or_members, int) else subset_mask(mask_or_members)
    alpha = [Fraction(a) for a in alpha]
    s = sum(alpha[i] if mask >> i & 1 else -alpha[i] for i in range(4))
    k = subset_size(mask)
    return s + Fraction((4 - 2 * k) // 4)


def wall_L(i: int, alpha) -> Fraction:
    """L_i = -a_i + sum_{j != i} a_j; the Biswas polytope is 0 < L_i < 1."""
    if not 1 <= i <= 4:
        raise ValueError("index must be in 1..4")
    alpha = [Fraction(a) for a in alpha]
    return sum(alpha) - 2 * alpha[i - 1]


# ---------------------------------------------------------------------------
# even partition sets and chamber labels
# ---------------------------------------------------------------------------

def _classify_partition_set(subsets: tuple[int, ...]) -> tuple[str, int]:
    """Type and distinguished index of an even partition set.

    The three 2-subsets either share a common index (types B1/A2) or
    jointly omit one (types A1/B2); pairing with the presence of {} versus
    {1,2,3,4} gives the four types.
    """
    has_empty = 0 in subsets
    pairs = [s for s in subsets if subset_size(s) == 2]
    counts = [sum(1 for s in pairs if s >> i & 1) for i in range(4)]
    if 3 in counts:
        i = counts.index(3) + 1
        return ("B1", i) if has_empty else ("A2", i)
    i = counts.index(0) + 1
    return ("A1", i) if has_empty else ("B2", i)


def interior_label(subsets) -> ChamberLabel:
    subsets = tuple(sorted(subsets))
    if len(subsets) != 4 or any(subset_size(s) % 2 for s in subsets):
        raise ValueError("need four even subsets")
    for rep in E_REPS:
        if (rep in subsets) == ((rep ^ FULL) in subsets):
            raise ValueError("need exactly one of each complementary pair")
    ctype, i = _classify_partition_set(subsets)
    return ChamberLabel("interior", ctype, i, subsets)


def exterior_label(i0_mask: int) -> ChamberLabel:
    k = subset_size(i0_mask)
    if k % 2 == 0:
        raise ValueError("exterior label needs an odd subset")
    assoc = tuple(sorted(i0_mask ^ (1 << j) for j in range(4)))
    if k == 1:
        return ChamberLabel("exterior", "E1", subset_members(i0_mask)[0], assoc, i0_mask)
    i = subset_members(i0_mask ^ FULL)[0]
    return ChamberLabel("exterior", "E2", i, assoc, i0_mask)


def enumerate_chambers() -> list[ChamberLabel]:
    """All 24 chamber labels: 16 interior then 8 exterior, deterministic order."""
    labels = []
    for bits in product((0, 1), repeat=4):
        choices = tuple(rep ^ (FULL if b else 0) for rep, b in zip(E_REPS, bits))
        labels.append(interior_label(choices))
    for mask in range(1, 16):
        if subset_size(mask) % 2 == 1:
            labels.append(exterior_label(mask))
    return labels


def classify_chamber(alpha) -> ChamberLabel:
    """Exact chamber of a weight vector in the open cube (0,1/2)^4.

    Raises OutOfCube outside the cube and OnWall if any deciding functional
    vanishes (equivalently, (alpha, 0) is non-generic).
    """
    alpha = tuple(Fraction(a) for a in alpha)
    if any(not (0 < a < Fraction(1, 2)) for a in alpha):
        raise OutOfCube(f"alpha {alpha} not in (0,1/2)^4")
    for i in range(1, 5):
        li = wall_L(i, alpha)
        if li == 0 or li == 1:
            raise OnWall(f"L_{i} = {li}")
        if li < 0:
            return exterior_label(subset_mask([i]))
        if li > 1:
            return exterior_label(FULL ^ subset_mask([i]))
    choices = []
    for rep in E_REPS:
        k = wall_K(rep, alpha)
        if k == 0:
            raise OnWall(f"K wall for subset mask {rep}")
        choices.append(rep if k > 0 else rep ^ FULL)
    return interior_label(choices)


def chamber_vertices(label: ChamberLabel) -> list[tuple[Fraction, ...]]:
    """Vertices spanning the chamber: barycenter (interior) or v_{I0}
    (exterior), plus the four cube vertices v_I for I in the partition set."""
    def v(mask):
        return tuple(Fraction(1, 2) if mask >> i & 1 else Fraction(0) for i in range(4))

    first = (Fraction(1, 4),) * 4 if label.kind == "interior" else v(label.i0)
    return [first] + [v(s) for s in label.subsets]


def adjacent(a: ChamberLabel, b: ChamberLabel) -> bool:
    """Chambers are adjacent iff their vertex sets share exactly four points."""
    va = set(chamber_vertices(a))
    vb = set(chamber_vertices(b))
    return len(va & vb) == 4


# ---------------------------------------------------------------------------
# genericity
# ---------------------------------------------------------------------------

def mass_functional(mask_or_members, masses) -> GaussianRational:
    """M_J = sum_{j in J} m_j - sum_{j not in J} m_j; M_{J^c} = -M_J."""
    mask = mask_or_members if isinstance(mask_or_members, int) else subset_mask(mask_or_members)
    out = GaussianRational(Fraction(0))
    for j in range(4):
        out = out + masses[j] if mask >> j & 1 else out - masses[j]
    return out


def genericity_violations(data: ParabolicData) -> list[dict]:
    """Nakajima planes through (alpha, m), alpha unrestricted, in
    ``product((0, 1), repeat=4)`` order of e, as [{"d": d, "e": [e1..e4]}].

    (alpha, m) lies on the plane (d, e) iff d + sum(e_i + (-1)^{e_i} a_i) = 0
    and sum((-1)^{e_i} m_i) = M_J = 0 with J = {i : e_i = 0}.  The
    alpha-equation fixes the integer d, so a sign vector costs one
    integrality test, and a mass combination only when that passes.
    """
    out = []
    for e in product((0, 1), repeat=4):
        s = sum(e) + sum(-a if ei else a for ei, a in zip(e, data.alpha))
        if s.denominator == 1:
            zeros = sum(1 << i for i, ei in enumerate(e) if not ei)
            if not mass_functional(zeros, data.masses):
                out.append({"d": -s.numerator, "e": list(e)})
    return out


def is_generic(data: ParabolicData) -> bool:
    """Nakajima genericity of (alpha, m) with alpha in the open cube: no
    plane of ``genericity_violations`` passes through it."""
    alpha = data.alpha
    if any(not (0 < a < Fraction(1, 2)) for a in alpha):
        raise OutOfCube(f"alpha {alpha} not in (0,1/2)^4")
    return not genericity_violations(data)


def in_R_tilde(data: ParabolicData, full: bool) -> bool:
    """Membership in the extended parameter domain (alpha unrestricted).

    full=True excludes the planes of ``genericity_violations`` and
    {2 a_i = d, m_i = 0}; full=False further removes the locus where some
    L-type combination and some 2*a_i are both integers (weights whose
    orbit never meets the open cube).
    """
    alpha = data.alpha
    if genericity_violations(data):
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
    mask = mask_or_members if isinstance(mask_or_members, int) else subset_mask(mask_or_members)
    alpha = tuple(Fraction(a) for a in alpha)
    if any(not (0 < a < Fraction(1, 2)) for a in alpha):
        raise OutOfCube(f"alpha {alpha} not in (0,1/2)^4")
    k = subset_size(mask)
    value = wall_K(mask, alpha)
    return FixedPointData(
        deg_DI=k,
        deg_L2=-1 - k // 2,
        stability_value=value,
        stable=value > 0,
        phi0_bundle_degree=k % 2,
    )
