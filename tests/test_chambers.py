import dataclasses
import json
import random
from fractions import Fraction
from itertools import product
from math import lcm
from pathlib import Path

import pytest

from hitchin4.chambers import (
    FULL,
    OnWall,
    OutOfCube,
    ParabolicData,
    adjacent,
    chamber_sweep,
    chamber_vertices,
    classify_chamber,
    enumerate_chambers,
    exterior_label,
    interior_label,
    fixed_point_data,
    genericity_violations,
    in_R_tilde,
    is_generic,
    mass_functional,
    subset_mask,
    subset_members,
    subset_size,
    wall_K,
    wall_L,
)
from hitchin4.core import GaussianRational
from hitchin4.torelli import inverse_torelli, moment_value, torelli_parallel

from lattice_oracle import ref_form_holds
from test_integer_kernel import draw

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
    # a weight vector of another length is not in the cube either
    for a in (ALPHA_B1[:3], ALPHA_B1 + (Fraction(1, 5),)):
        with pytest.raises(OutOfCube):
            classify_chamber(a)


def test_out_of_cube_writes_the_weights_as_rationals():
    # each weight is written "p/q" or "p", not as a Fraction repr
    with pytest.raises(OutOfCube) as exc:
        classify_chamber((3, 1, 1, 1))
    assert str(exc.value) == "alpha (3, 1, 1, 1) not in (0,1/2)^4"
    with pytest.raises(OutOfCube) as exc:
        classify_chamber(ALPHA_B1[:3])
    assert str(exc.value) == "alpha (3/10, 1/5, 1/5) not in (0,1/2)^4"


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


GOLDEN_CLI = Path(__file__).resolve().parent.parent / "perfbench" / "golden" / "cli.json"


def _golden_alpha_sweep():
    """The ``sweep --kind alpha`` entry of the golden CLI outputs: (argv, CSV rows)."""
    entry, = [g for g in json.loads(GOLDEN_CLI.read_text()) if g["argv"][:3] == [
        "sweep", "--kind", "alpha"]]
    return entry["argv"], [line.split(",") for line in entry["stdout"].splitlines()[1:]]


def _label_text(label):
    return f"error:{type(label).__name__}" if isinstance(label, Exception) else label.short()


def test_chamber_sweep_rows():
    argv, golden = _golden_alpha_sweep()
    start, stop = (tuple(map(Fraction, argv[argv.index(k) + 1].split(",")))
                   for k in ("--start", "--stop"))
    rows = chamber_sweep(start, stop, int(argv[argv.index("--samples") + 1]))
    assert [[str(t), ";".join(map(str, alpha)), _label_text(label)]
            for t, alpha, label in rows] == golden
    # 5 samples hit the L wall at t = 3/4
    assert [_label_text(label) for *_, label in chamber_sweep(start, stop, 5)] == [
        "B1_1", "B1_1", "B1_1", "error:OnWall", "E1_1"]
    assert list(chamber_sweep(start, stop, 0)) == []
    assert list(chamber_sweep(start, stop, 1)) == [(0, start, classify_chamber(start))]


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


def test_masks_outside_0_to_15_are_errors():
    # a mask is not reduced mod 16: 17 is not {1}, -1 is not {1,2,3,4}
    for mask in (-1, 16, 17, -16, 2 ** 70):
        for f, arg in ((wall_K, ALPHA_B1), (fixed_point_data, ALPHA_B1),
                       (mass_functional, (GaussianRational(1),) * 4),
                       (moment_value, ALPHA_B1)):
            with pytest.raises(ValueError, match=f"mask {mask} out of range 0..15"):
                f(mask, arg)
    assert wall_K(FULL, ALPHA_B1) == sum(ALPHA_B1) - 1
    assert fixed_point_data(0, ALPHA_B1).deg_DI == 0


def test_label_helpers_reject_masks_outside_0_to_15():
    # a mask is not reduced mod 16: exterior_label(17) is no E1_1 label
    for mask in (-1, 16, 17, 2 ** 70):
        for f in (exterior_label, subset_members, subset_size):
            with pytest.raises(ValueError, match=f"mask {mask} out of range 0..15"):
                f(mask)
    assert exterior_label(0b0001) == exterior_label(1) != exterior_label(0b1110)
    assert [subset_size(m) for m in (0, 1, 3, 7, FULL)] == [0, 1, 2, 3, 4]
    assert subset_members(0b1010) == (2, 4) and subset_members(0) == ()


def test_wall_and_mass_functionals_need_four_entries():
    # zip used to cut a long vector short and sum a short one as if it were whole
    for n in (0, 3, 5):
        with pytest.raises(ValueError, match="length mismatch"):
            mass_functional(3, list(range(1, n + 1)))
        with pytest.raises(ValueError, match="length mismatch"):
            wall_K(3, [Fraction(1, 5)] * n)
        with pytest.raises(ValueError, match="length mismatch"):
            wall_L(1, [Fraction(1, 5)] * n)
        with pytest.raises(OutOfCube):
            fixed_point_data(3, [Fraction(1, 5)] * n)
    assert mass_functional(3, [1, 2, 3, 4]) == GaussianRational(-4)


def test_parabolic_data_and_sweep_ends_need_four_entries():
    # chamber_sweep zipped its ends, so ends of 4 and 3 entries gave OutOfCube rows for
    # truncated 3-vectors; now either end of another count fails before the first row
    four = [Fraction(1, 5)] * 4
    for n in (0, 3, 5):
        bad = [Fraction(1, 5)] * n
        for alpha, masses in ((bad, [0] * 4), (four, [0] * n)):
            with pytest.raises(ValueError, match="length mismatch"):
                ParabolicData(alpha, masses)
        for start, stop in ((four, bad), (bad, four)):
            with pytest.raises(ValueError, match="length mismatch"):
                next(chamber_sweep(start, stop, 3))
        with pytest.raises(OutOfCube):
            classify_chamber(bad)


# ---------------------------------------------------------------------------
# integer form
# ---------------------------------------------------------------------------

def test_parabolic_data_carries_its_integer_form():
    # on draws inside, on a wall or plane of, and outside the cube: ints gives
    # the fields exactly, whether __init__ derived it (over the lcm) or
    # inverse_torelli passed it in (over 8 times a period denominator)
    draws = random.Random(2718)
    scaled = 0
    for _ in range(500):
        data = ParabolicData(*draw(draws))
        back = inverse_torelli(torelli_parallel(data))
        for value in (data, back):
            assert ref_form_holds(value, value.alpha, value.masses)
        assert data.ints[0] == lcm(*(a.denominator for a in data.alpha))
        assert back == data and hash(back) == hash(data) and repr(back) == repr(data)
        scaled += back.ints[0] != data.ints[0]
    assert scaled > 400  # the two forms differ, yet ==, hash and repr agree


def test_the_integer_form_is_not_an_argument_nor_in_equality_hash_or_repr():
    (ints,) = (f for f in dataclasses.fields(ParabolicData) if f.name == "ints")
    assert not (ints.init or ints.repr or ints.compare)
    with pytest.raises(TypeError):
        ParabolicData(ALPHA_B1, (0,) * 4, ints=(1, (0,) * 4, 1, (0,) * 4, (0,) * 4))
    data = ParabolicData(ALPHA_B1, (0,) * 4)
    assert "ints" not in repr(data)
    assert data.ints == (10, (3, 2, 2, 2), 1, (0,) * 4, (0,) * 4)


def test_label_and_wall_arguments_are_checked():
    for i in (0, 5):
        with pytest.raises(ValueError, match="index must be in 1..4"):
            wall_L(i, ALPHA_B1)
    with pytest.raises(ValueError, match="need four even subsets"):
        interior_label((0b0000, 0b0011, 0b0101, 0b1001, 0b0001))
    with pytest.raises(ValueError, match="one of each complementary pair"):
        interior_label((0b0000, 0b1111, 0b0011, 0b1100))
    with pytest.raises(ValueError, match="exterior label needs an odd subset"):
        exterior_label(0b0011)


def test_exact_literals_past_the_digit_limit_are_refused():
    # a literal whose mantissa digits plus |exponent| pass Python's int-string
    # limit is a ValueError before any power of ten is built, in the weights and
    # in the masses alike; 1e-4290 is within it
    for alpha, masses in ((("1e-5000000", "1/5", "1/5", "1/5"), (0,) * 4),
                          (ALPHA_B1, ("1e4305", 0, 0, 0))):
        with pytest.raises(ValueError, match="more than 4300 digits"):
            ParabolicData(alpha, masses)
    data = ParabolicData(("1e-4290", "1/5", "1/5", "1/5"), (0,) * 4)
    assert data.alpha[0] == Fraction(1, 10 ** 4290)
