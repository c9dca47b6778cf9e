import random
from fractions import Fraction
from itertools import product

import pytest

from hitchin4.chambers import (
    FULL,
    OnWall,
    OutOfCube,
    ParabolicData,
    adjacent,
    chamber_vertices,
    classify_chamber,
    enumerate_chambers,
    exterior_label,
    fixed_point_data,
    genericity_violations,
    in_R_tilde,
    is_generic,
    subset_mask,
    wall_K,
    wall_L,
)
from hitchin4.core import GaussianRational

rng = random.Random(4321)

ALPHA_B1 = (Fraction(3, 10), Fraction(1, 5), Fraction(1, 5), Fraction(1, 5))
ALPHA_E1 = (Fraction(2, 5), Fraction(1, 10), Fraction(1, 10), Fraction(1, 10))
CENTER = (Fraction(1, 4),) * 4


def rand_alpha():
    return tuple(Fraction(rng.randint(1, 49), 100) for _ in range(4))


# ---------------------------------------------------------------------------
# wall functionals
# ---------------------------------------------------------------------------

def test_wall_K_examples():
    assert wall_K([1, 2], ALPHA_B1) == Fraction(1, 10)
    assert wall_K([], CENTER) == 0
    for _ in range(20):
        a = rand_alpha()
        assert wall_K([1, 2, 3, 4], a) == sum(a) - 1


def test_wall_L_examples():
    assert wall_L(1, ALPHA_B1) == Fraction(3, 10)
    assert wall_L(1, ALPHA_E1) == Fraction(-1, 10)
    assert wall_L(1, (0, 0, 0, 0)) == 0


def test_K_complement_antisymmetry_even():
    for _ in range(50):
        a = rand_alpha()
        for mask in range(16):
            if bin(mask).count("1") % 2 == 0:
                assert wall_K(mask, a) == -wall_K(mask ^ FULL, a)


def test_K_singleton_and_triple_identities():
    for _ in range(50):
        a = rand_alpha()
        for i in range(1, 5):
            assert wall_K([i], a) == -wall_L(i, a)
            others = [j for j in range(1, 5) if j != i]
            assert wall_K(others, a) == wall_L(i, a) - 1


# ---------------------------------------------------------------------------
# classification
# ---------------------------------------------------------------------------

def test_classify_examples():
    lab = classify_chamber(ALPHA_B1)
    assert (lab.kind, lab.ctype, lab.index) == ("interior", "B1", 1)
    assert lab.subsets == (0, 0b0011, 0b0101, 0b1001)

    lab = classify_chamber(ALPHA_E1)
    assert (lab.kind, lab.ctype, lab.i0) == ("exterior", "E1", 0b0001)

    with pytest.raises(OnWall):
        classify_chamber(CENTER)
    with pytest.raises(OutOfCube):
        classify_chamber((Fraction(3, 5), Fraction(1, 5), Fraction(1, 5), Fraction(1, 5)))


def test_chamber_census_and_centroid_roundtrip():
    labels = enumerate_chambers()
    assert len(labels) == 24
    by_type = {}
    for lab in labels:
        by_type.setdefault(lab.ctype, []).append(lab)
    assert {k: len(v) for k, v in by_type.items()} == {
        "A1": 4, "A2": 4, "B1": 4, "B2": 4, "E1": 4, "E2": 4}
    assert len(set(map(str, labels))) == 24
    for lab in labels:
        verts = chamber_vertices(lab)
        centroid = tuple(sum(v[i] for v in verts) / len(verts) for i in range(4))
        assert classify_chamber(centroid) == lab


def test_chamber_vertices_examples():
    lab = classify_chamber(ALPHA_B1)
    verts = chamber_vertices(lab)
    half = Fraction(1, 2)
    assert verts[0] == CENTER
    assert set(verts[1:]) == {
        (0, 0, 0, 0), (half, half, 0, 0), (half, 0, half, 0), (half, 0, 0, half)}
    ext = chamber_vertices(classify_chamber(ALPHA_E1))
    assert ext[0] == (half, 0, 0, 0)
    assert set(ext[1:]) == set(verts[1:])


def test_adjacency():
    b1 = classify_chamber(ALPHA_B1)
    e1 = classify_chamber(ALPHA_E1)
    assert adjacent(b1, e1)
    # interior pair: replace {} by {1,2,3,4} in the B1_1 set -> A2_1
    from hitchin4.chambers import interior_label
    swapped = interior_label((FULL, 0b0011, 0b0101, 0b1001))
    assert adjacent(b1, swapped)
    assert swapped.ctype == "A2"
    e1_2 = exterior_label(0b0010)
    assert not adjacent(b1, e1_2)


def test_adjacent_chambers_share_four_vertices_count():
    labels = enumerate_chambers()
    for lab in labels:
        neighbours = [m for m in labels if m != lab and adjacent(lab, m)]
        # each chamber has five faces; wall faces inside the cube border
        # other chambers, so there are at most five neighbours
        assert 1 <= len(neighbours) <= 5


# ---------------------------------------------------------------------------
# genericity
# ---------------------------------------------------------------------------

def zero_masses():
    return (GaussianRational(0),) * 4


def test_is_generic_examples():
    assert not is_generic(ParabolicData(CENTER, zero_masses()))
    assert is_generic(ParabolicData(ALPHA_B1, zero_masses()))
    m = (GaussianRational(1), GaussianRational(0), GaussianRational(0), GaussianRational(0))
    assert is_generic(ParabolicData(CENTER, m))


def test_is_generic_exhaustive_scan_oracle():
    # brute-force oracle over e in {0,1}^4 and |d| <= 6: the violated planes
    # in scan order, which the CLI prints
    def oracle(alpha, masses):
        out = []
        for e in product((0, 1), repeat=4):
            msum = GaussianRational(0)
            for mm, ei in zip(masses, e):
                msum = msum - mm if ei else msum + mm
            for d in range(-6, 7):
                s = d + sum(Fraction(ei) + (-a if ei else a) for ei, a in zip(e, alpha))
                if s == 0 and not msum:
                    out.append({"d": d, "e": list(e)})
        return out

    for _ in range(100):
        a = rand_alpha()
        m = zero_masses() if rng.random() < 0.5 else tuple(
            GaussianRational(Fraction(rng.randint(-2, 2)), Fraction(rng.randint(-2, 2)))
            for _ in range(4))
        want = oracle(a, m)
        assert genericity_violations(ParabolicData(a, m)) == want
        assert is_generic(ParabolicData(a, m)) == (not want)
    # on the K walls and on the wall L_1 = 1, where e = 0111 and e = 1000 are
    # both violated and the scan order is not the order of |e|
    for a in (CENTER, (Fraction(1, 10), Fraction(2, 5), Fraction(3, 10), Fraction(2, 5))):
        want = oracle(a, zero_masses())
        assert len(want) >= 2
        assert genericity_violations(ParabolicData(a, zero_masses())) == want


def test_generic_at_zero_mass_is_wall_complement():
    # non-generic at m=0 exactly on the 12 walls
    for _ in range(200):
        a = rand_alpha()
        on_wall = any(wall_K(mask, a) == 0 for mask in (0, 0b0011, 0b0101, 0b1001)) or \
            any(wall_L(i, a) in (0, 1) for i in range(1, 5))
        assert is_generic(ParabolicData(a, zero_masses())) == (not on_wall)


def test_generic_at_zero_implies_generic_everywhere():
    for _ in range(100):
        a = rand_alpha()
        if not is_generic(ParabolicData(a, zero_masses())):
            continue
        m = tuple(GaussianRational(Fraction(rng.randint(-3, 3), rng.randint(1, 3)),
                                   Fraction(rng.randint(-3, 3), rng.randint(1, 3)))
                  for _ in range(4))
        assert is_generic(ParabolicData(a, m))


def test_in_R_tilde_examples():
    d = ParabolicData(ALPHA_B1, zero_masses())
    assert in_R_tilde(d, full=True) and in_R_tilde(d, full=False)

    a = (Fraction(1, 2), Fraction(1, 10), Fraction(1, 10), Fraction(3, 10))
    ones = (GaussianRational(1),) * 4
    d = ParabolicData(a, ones)
    assert in_R_tilde(d, full=True)
    assert not in_R_tilde(d, full=False)

    d = ParabolicData((Fraction(1, 2), Fraction(1, 7), Fraction(2, 7), Fraction(3, 7)),
                      (GaussianRational(0),) * 4)
    assert not in_R_tilde(d, full=True)  # 2 a_1 = 1 and m_1 = 0


def test_in_R_tilde_outside_cube():
    # alpha outside the cube: the same scan; d = -4 lies beyond the values
    # -3..-1 that the cube allows.  The alpha-sums are integers exactly for
    # e = 0000 (3), 0011 (4), 1100 (0) and 1111 (1), and m1 = -m2, m3 = -m4
    # makes all four mass combinations vanish.
    a = (Fraction(7, 4), Fraction(3, 4), Fraction(1, 3), Fraction(1, 6))
    m = (GaussianRational(1), GaussianRational(-1), GaussianRational(0, 1),
         GaussianRational(0, -1))
    d = ParabolicData(a, m)
    assert genericity_violations(d) == [{"d": -3, "e": [0, 0, 0, 0]},
                                        {"d": -4, "e": [0, 0, 1, 1]},
                                        {"d": 0, "e": [1, 1, 0, 0]},
                                        {"d": -1, "e": [1, 1, 1, 1]}]
    assert not in_R_tilde(d, full=True) and not in_R_tilde(d, full=False)
    with pytest.raises(OutOfCube):
        is_generic(d)

    d = ParabolicData(a, (GaussianRational(1), GaussianRational(2), GaussianRational(4),
                          GaussianRational(8)))
    assert genericity_violations(d) == []
    assert in_R_tilde(d, full=True) and in_R_tilde(d, full=False)


# ---------------------------------------------------------------------------
# fixed points
# ---------------------------------------------------------------------------

def test_fixed_point_table_rows():
    fp = fixed_point_data([1, 2], ALPHA_B1)
    assert (fp.deg_L2, fp.stability_value, fp.stable) == (-2, Fraction(1, 10), True)
    assert fp.phi0_bundle_degree == 0

    fp = fixed_point_data([1], ALPHA_E1)
    assert fp.stability_value == -wall_L(1, ALPHA_E1) == Fraction(1, 10)
    assert fp.stable and fp.phi0_bundle_degree == 1
    assert fp.deg_L2 == -1

    fp = fixed_point_data([], CENTER)
    assert fp.stability_value == 0 and not fp.stable


def test_fixed_point_degrees_full_table():
    a = ALPHA_B1
    for mask in range(16):
        fp = fixed_point_data(mask, a)
        k = bin(mask).count("1")
        assert fp.deg_DI == k
        assert fp.deg_L2 == -1 - k // 2
        assert fp.phi0_bundle_degree == k % 2


def test_stable_fixed_points_match_chamber_label():
    # in each chamber the stable even-label fixed points are exactly the
    # partition set; for exterior chambers the odd label I0 is stable too
    for lab in enumerate_chambers():
        verts = chamber_vertices(lab)
        centroid = tuple(sum(v[i] for v in verts) / len(verts) for i in range(4))
        stable_even = {mask for mask in range(16)
                       if bin(mask).count("1") % 2 == 0
                       and fixed_point_data(mask, centroid).stable}
        assert stable_even == set(lab.subsets)
        if lab.kind == "exterior":
            assert fixed_point_data(lab.i0, centroid).stable


def test_subset_mask_roundtrip():
    assert subset_mask([1, 2]) == 0b0011
    assert subset_mask([4]) == 0b1000
    with pytest.raises(ValueError):
        subset_mask([5])
