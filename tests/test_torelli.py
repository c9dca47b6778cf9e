import dataclasses
import random
from fractions import Fraction
from math import lcm

import pytest

from hitchin4.chambers import (
    ParabolicData,
    classify_chamber,
    enumerate_chambers,
    chamber_vertices,
    exterior_label,
    interior_label,
    is_generic,
    in_R_tilde,
    subset_mask,
    wall_K,
    FULL,
)
from hitchin4 import torelli
from hitchin4.chambers import ChamberLabel
from hitchin4.core import DomainError, GaussianRational, int_matvec
from hitchin4.coxeter import apply_to_masses, generator, target_generator
from hitchin4.homology import hat_affine_apply, word_to_auto
from hitchin4.torelli import (
    M_ROWS,
    PARALLEL_BASIS,
    BrokenIdentity,
    InconsistentFiberRelation,
    NonGeneric,
    PeriodVector,
    central_x_closed_form,
    in_period_domain,
    intersection_table,
    inverse_torelli,
    moment_value,
    scale_masses,
    torelli_chamber,
    torelli_parallel,
)

from lattice_oracle import ExactMatrix, det, hat_linear_apply, linear, ref_form_holds
from test_integer_kernel import draw

rng = random.Random(31337)

ALPHA_B1 = (Fraction(3, 10), Fraction(1, 5), Fraction(1, 5), Fraction(1, 5))
ALPHA_E1 = (Fraction(2, 5), Fraction(1, 10), Fraction(1, 10), Fraction(1, 10))
ZEROS = (GaussianRational(0),) * 4


def rand_generic_data(max_tries=200, rng=rng):
    for _ in range(max_tries):
        a = tuple(Fraction(rng.randint(1, 49), 100) for _ in range(4))
        m = tuple(GaussianRational(Fraction(rng.randint(-3, 3), rng.randint(1, 4)),
                                   Fraction(rng.randint(-3, 3), rng.randint(1, 4)))
                  for _ in range(4))
        d = ParabolicData(a, m)
        try:
            classify_chamber(a)
        except Exception:
            continue
        if is_generic(d):
            return d
    raise RuntimeError("could not sample generic data")


# ---------------------------------------------------------------------------
# chamber-basis Torelli map
# ---------------------------------------------------------------------------

def test_torelli_chamber_B1_example():
    pv = torelli_chamber(ParabolicData(ALPHA_B1, ZEROS))
    assert pv.x == (Fraction(3, 10), Fraction(1, 10), Fraction(1, 10),
                    Fraction(1, 10), Fraction(1, 10))
    assert all(not z for z in pv.z)
    assert 2 * pv.x[0] + sum(pv.x[1:]) == 1


def test_torelli_chamber_E1_example():
    pv = torelli_chamber(ParabolicData(ALPHA_E1, ZEROS))
    label = pv.basis
    assert label.kind == "exterior" and label.i0 == 0b0001
    assert pv.x[0] == wall_K([1], ALPHA_E1) == Fraction(1, 10)
    # the sphere labelled {} sits first in ascending-bitmask order
    assert pv.x[1] == 1 - 2 * ALPHA_E1[0] == Fraction(1, 5)


def test_torelli_chamber_B2_z_periods_match_intersection_numbers():
    # interior B2 chamber adjacent to the exterior chamber {1,2,3}
    # (punctures 0, 1, p0); the z-periods are the mass functionals M_J
    label = interior_label((0b0011, 0b0101, 0b0110, FULL))
    assert label.ctype == "B2" and label.index == 4
    verts = chamber_vertices(label)
    centroid = tuple(sum(v[i] for v in verts) / len(verts) for i in range(4))
    m = tuple(GaussianRational(Fraction(k + 1), Fraction(2 - k)) for k in range(4))
    pv = torelli_chamber(ParabolicData(centroid, m))
    # sphere {1,2,3,4} carries M_{1,2,3,4} = m1+m2+m3+m4
    idx = pv.basis.subsets.index(FULL) + 1
    assert pv.z[idx] == sum(m, GaussianRational(0))
    # and matches the intersection-number formula z_i = -sum_j I(S_i, Sigma_j) m_j
    table = intersection_table(label)
    from hitchin4.torelli import _puncture_sphere_order
    order = _puncture_sphere_order(label)
    for row, mask in zip(table, order):
        zi = pv.z[pv.basis.subsets.index(mask) + 1]
        want = GaussianRational(0)
        for j in range(4):
            want = want - m[j] * row[j]
        assert zi == want


def test_torelli_chamber_rejects_walls():
    # inside the open cube every Nakajima alpha-plane is one of the 12
    # chamber walls (next test), so a non-generic point raises OnWall
    from hitchin4.chambers import OnWall

    a = (Fraction(1, 4), Fraction(1, 4), Fraction(1, 4), Fraction(1, 4))
    with pytest.raises(OnWall):
        torelli_chamber(ParabolicData(a, ZEROS))
    assert issubclass(NonGeneric, ValueError)


def test_every_nakajima_plane_meeting_the_open_cube_is_a_chamber_wall():
    # the plane (d, e) of genericity_violations is {c . alpha = k}, k = -d - sum(e)
    # an integer and c the sign vector of J = {i : e_i = 0}; it meets (0, 1/2)^4
    # iff k lies strictly between the extremes of c . alpha on the cube
    from hitchin4.chambers import _K_OFFSET, _PLANES, _SIGNS, E_REPS, OnWall

    def plane(c, k):  # {c . alpha = k} up to an overall sign
        return max((tuple(c), k), (tuple(-v for v in c), -k))

    walls = {plane(_SIGNS[rep], -_K_OFFSET[rep]) for rep in E_REPS}        # K_I = 0
    walls |= {plane(_SIGNS[1 << i], k) for i in range(4) for k in (0, -1)}  # L_i = 0, 1
    assert len(walls) == 12
    met = set()
    for _, _, c in _PLANES:
        lo, hi = Fraction(sum(v for v in c if v < 0), 2), Fraction(sum(v for v in c if v > 0), 2)
        for k in range(int(lo), int(hi) + 1):
            if lo < k < hi:
                met.add(plane(c, k))
                # its point nearest the cube center lies inside the cube, on a wall
                t = (k - Fraction(sum(c), 4)) / 4
                alpha = tuple(Fraction(1, 4) + t * v for v in c)
                assert all(0 < a < Fraction(1, 2) for a in alpha)
                with pytest.raises(OnWall):
                    classify_chamber(alpha)
    assert met == walls


def test_fiber_relations_and_positivity_sweep():
    for _ in range(150):
        d = rand_generic_data()
        pv = torelli_chamber(d)
        assert 2 * pv.x[0] + sum(pv.x[1:]) == 1
        assert not (2 * pv.z[0] + sum(pv.z[1:], GaussianRational(0)))
        assert all(x > 0 for x in pv.x)
        assert pv.x[0] == central_x_closed_form(pv.basis, d.alpha)


def test_wall_crossing_negates_crossed_sphere():
    # adjacent interior labels share three subsets; the swapped subset's
    # functional negates, all shared functionals persist
    a = tuple(Fraction(rng.randint(1, 49), 100) for _ in range(4))
    lab = interior_label((0, 0b0011, 0b0101, 0b1001))
    lab2 = interior_label((FULL, 0b0011, 0b0101, 0b1001))
    shared = set(lab.subsets) & set(lab2.subsets)
    assert len(shared) == 3
    assert wall_K(0, a) == -wall_K(FULL, a)
    for s in shared:
        assert wall_K(s, a) == wall_K(s, a)


# ---------------------------------------------------------------------------
# parallel-basis map and inverse
# ---------------------------------------------------------------------------

def test_parallel_equals_chamber_inside_model():
    for _ in range(30):
        d = rand_generic_data()
        if classify_chamber(d.alpha).ctype != "B1" or classify_chamber(d.alpha).index != 1:
            continue
        assert torelli_parallel(d).x == torelli_chamber(d).x
        assert torelli_parallel(d).z == torelli_chamber(d).z


def test_parallel_at_cube_vertex():
    # degenerate cube vertex: image lies on several boundary planes
    pv = torelli_parallel(ParabolicData((0, 0, 0, 0), ZEROS))
    assert pv.x[1:] == (1, 0, 0, 0)
    ok, witness = in_period_domain(pv)
    assert not ok and witness is not None


def test_parallel_matrix_determinant_16():
    assert det(ExactMatrix(M_ROWS)) == 16


def test_inverse_examples():
    pv = PeriodVector.from_outer(
        (Fraction(1, 10),) * 4, ZEROS, PARALLEL_BASIS)
    d = inverse_torelli(pv)
    assert d.alpha == ALPHA_B1
    assert d.masses == ZEROS
    pv = PeriodVector.from_outer((1, 0, 0, 0), ZEROS, PARALLEL_BASIS)
    assert inverse_torelli(pv).alpha == (0, 0, 0, 0)


def test_inverse_roundtrip_exact():
    for _ in range(200):
        d = rand_generic_data()
        back = inverse_torelli(torelli_parallel(d))
        assert back.alpha == d.alpha and back.masses == d.masses


def test_fiber_relation_enforced():
    with pytest.raises(InconsistentFiberRelation):
        PeriodVector((1, 1, 1, 1, 1), (0,) * 5, PARALLEL_BASIS)


def test_period_vectors_and_the_central_closed_form_count_their_entries():
    # central_x_closed_form read 3/10 from five weights and 1/10 from three
    label = classify_chamber((Fraction(3, 10),) + (Fraction(1, 5),) * 3)
    for n in (0, 3, 5):
        with pytest.raises(ValueError, match="length mismatch"):
            central_x_closed_form(label, (Fraction(1, 5),) * n)
        for x4, z4 in (((0,) * n, (0,) * 4), ((0,) * 4, (0,) * n)):
            with pytest.raises(ValueError, match="length mismatch"):
                PeriodVector.from_outer(x4, z4, PARALLEL_BASIS)
    for n in (4, 6):
        for x, z in (((0,) * n, (0,) * 5), ((0,) * 5, (0,) * n)):
            with pytest.raises(ValueError, match="length mismatch"):
                PeriodVector(x, z, PARALLEL_BASIS)


# ---------------------------------------------------------------------------
# period domain
# ---------------------------------------------------------------------------

def test_period_domain_examples():
    pv = PeriodVector.from_outer((Fraction(1, 10),) * 4, ZEROS, PARALLEL_BASIS)
    assert in_period_domain(pv) == (True, None)

    pv = PeriodVector.from_outer(
        (0, Fraction(1, 7), Fraction(2, 7), Fraction(3, 7)),
        (GaussianRational(0), GaussianRational(1), GaussianRational(1), GaussianRational(1)),
        PARALLEL_BASIS)
    ok, witness = in_period_domain(pv)
    assert not ok and witness == {"family": "H_k_i", "k": 0, "i": 1}

    # H_{S_0}: sum x odd integer and sum z = 0
    pv = PeriodVector.from_outer(
        (Fraction(1, 4), Fraction(1, 4), Fraction(1, 4), Fraction(1, 4)),
        ZEROS, PARALLEL_BASIS)
    ok, witness = in_period_domain(pv)
    assert not ok and witness["family"] == "H_k"


def test_period_domain_images_of_R_tilde_full():
    for _ in range(300):
        a = tuple(Fraction(rng.randint(-40, 40), rng.randint(1, 12)) for _ in range(4))
        m = tuple(GaussianRational(Fraction(rng.randint(-2, 2), rng.randint(1, 3)),
                                   Fraction(rng.randint(-2, 2), rng.randint(1, 3)))
                  for _ in range(4))
        d = ParabolicData(a, m)
        if not in_R_tilde(d, full=True):
            continue
        ok, witness = in_period_domain(torelli_parallel(d))
        assert ok, (a, m, witness)


def test_period_domain_plane_membership_iff_not_R_tilde_full():
    # the parallel map is a bijection carrying the Nakajima planes onto the
    # period-domain planes, so membership must match exactly
    for _ in range(300):
        a = tuple(Fraction(rng.randint(-20, 20), rng.randint(1, 8)) for _ in range(4))
        m = tuple(GaussianRational(Fraction(rng.randint(-1, 1), 1),
                                   Fraction(rng.randint(-1, 1), 1))
                  for _ in range(4))
        d = ParabolicData(a, m)
        ok, _ = in_period_domain(torelli_parallel(d))
        assert ok == in_R_tilde(d, full=True)


def _in_period_domain_six_pairs(pv):
    """Reference scan: the four plane families with family (3) over all six
    pairs (i, j), in the order i < j."""
    x, z = pv.x[1:], pv.z[1:]
    sx, sz = sum(x), sum(z, GaussianRational(0))

    def odd(q):
        return q.denominator == 1 and q.numerator % 2 != 0

    if odd(sx) and not sz:
        return False, {"family": "H_k", "k": (sx.numerator - 1) // 2}
    for i in range(4):
        if x[i].denominator == 1 and not z[i]:
            return False, {"family": "H_k_i", "k": x[i].numerator, "i": i + 1}
        v = 2 * x[i] - sx
        if odd(v) and not (2 * z[i] - sz):
            return False, {"family": "H'_k_i", "k": (v.numerator - 1) // 2, "i": i + 1}
    for i in range(4):
        for j in range(i + 1, 4):
            v = 2 * (x[i] + x[j]) - sx
            if odd(v) and not (2 * (z[i] + z[j]) - sz):
                return False, {"family": "H_k_i1_i2", "k": (v.numerator - 1) // 2,
                               "i1": i + 1, "i2": j + 1}
    return True, None


def test_period_domain_pair_scan_matches_the_six_pair_reference():
    # a pair and its complement give the same plane, so scanning (1, j) suffices
    r = random.Random(2612)
    pairs = 0
    for _ in range(3000):
        x4 = [Fraction(r.randint(-6, 6), r.choice((1, 2, 4))) for _ in range(4)]
        z4 = [GaussianRational(Fraction(r.randint(-2, 2), r.choice((1, 2))),
                               Fraction(r.randint(-1, 1))) for _ in range(4)]
        if r.random() < 0.5:  # put z on the plane of a random pair (i, j)
            i, j, k, l = r.sample(range(4), 4)
            z4[k] = z4[i] + z4[j] - z4[l]
        pv = PeriodVector.from_outer(x4, z4, PARALLEL_BASIS)
        got = in_period_domain(pv)
        assert got == _in_period_domain_six_pairs(pv), (x4, z4)
        pairs += got[1] is not None and got[1]["family"] == "H_k_i1_i2"
    assert pairs > 100


# ---------------------------------------------------------------------------
# intersection tables
# ---------------------------------------------------------------------------

def test_E2_table_diagonal():
    lab = exterior_label(subset_mask([1, 2, 3]))
    table = intersection_table(lab)
    assert table == ((2, 0, 0, 0), (0, 2, 0, 0), (0, 0, 2, 0), (0, 0, 0, -2))


def test_B2_table():
    lab = interior_label((0b0011, 0b0101, 0b0110, FULL))
    table = intersection_table(lab)
    assert table == ((1, -1, -1, 1), (-1, 1, -1, 1), (-1, -1, 1, 1), (-1, -1, -1, -1))


def test_table_parity_sweep():
    for lab in enumerate_chambers():
        table = intersection_table(lab)
        flat = [e for row in table for e in row]
        if lab.kind == "exterior":
            assert all(e % 2 == 0 for e in flat)
            assert all(e in (0, 2, -2) for e in flat)
        else:
            assert all(e in (1, -1) for e in flat)


# ---------------------------------------------------------------------------
# moment values and scaling
# ---------------------------------------------------------------------------

def test_moment_value_examples():
    assert moment_value([], ALPHA_B1) == -(1 - sum(ALPHA_B1))
    assert moment_value([1, 2], ALPHA_B1) == Fraction(-1, 10)


def test_sphere_areas_from_moment_differences():
    # x_J = mu(attaching point) - mu(exterior fixed point); the attaching
    # level is 0 in interior chambers and -K_{I0} in exterior ones
    for _ in range(50):
        d = rand_generic_data()
        pv = torelli_chamber(d)
        label = pv.basis
        wobbly = moment_value(label.i0, d.alpha) if label.kind == "exterior" else Fraction(0)
        for pos, mask in enumerate(label.subsets, start=1):
            assert pv.x[pos] == wobbly - moment_value(mask, d.alpha)


def test_scale_masses():
    d = rand_generic_data()
    pv1, pv2 = scale_masses(d, GaussianRational(1))
    assert pv1.z == pv2.z
    pv1, pv2 = scale_masses(d, GaussianRational(2))
    assert pv2.z == tuple(GaussianRational(2) * z for z in pv1.z)
    i = GaussianRational(0, 1)
    pv1, pv2 = scale_masses(d, i)
    assert pv2.z == tuple(i * z for z in pv1.z)
    assert pv1.x == pv2.x


# ---------------------------------------------------------------------------
# equivariance
# ---------------------------------------------------------------------------

def test_generator_equivariance_parallel():
    # T(r_i (alpha, m)) = R_i T(alpha, m) for all five generators
    for _ in range(60):
        d = rand_generic_data()
        pv = torelli_parallel(d)
        for i in range(5):
            g = generator(i)
            moved = ParabolicData(g(d.alpha), apply_to_masses(g, d.masses))
            pv2 = torelli_parallel(moved)
            R = target_generator(i)
            assert pv2.x[1:] == R(pv.x[1:])
            lin = linear(R)
            assert pv2.z[1:] == tuple(lin.apply(pv.z[1:]))


def test_basis_change_via_hat_reduction():
    # T in the basis moved by a word w equals the hat action of the word's
    # lattice matrix on the parallel periods
    for _ in range(40):
        d = rand_generic_data()
        pv = torelli_parallel(d)
        w = [rng.randint(0, 4) for _ in range(rng.randint(1, 8))]
        A = word_to_auto(w)
        xw = hat_affine_apply(A, pv.x[1:])
        zw = hat_linear_apply(A, pv.z[1:])
        y = pv.x[1:]
        zz = pv.z[1:]
        for i in w:
            R = target_generator(i)
            y = R(y)
            zz = tuple(linear(R).apply(zz))
        assert tuple(xw) == tuple(y)
        assert tuple(zw) == tuple(zz)


def test_transported_model_basis_is_chamber_basis():
    # the preferred basis of chamber g*model is the model basis moved by g.
    # word_to_auto is an anti-homomorphism (word of g o h -> A(h) A(g)) and a
    # basis moves contravariantly, so the chamber basis is the model basis
    # times word_to_auto(g^-1 word); pushing the parallel periods through the
    # transpose must reproduce the chamber-basis periods (central sphere
    # first, exterior spheres up to relabeling)
    from hitchin4.coxeter import alcove_walk

    draws = random.Random(4242)
    order_sensitive = 0
    for _ in range(60):
        d = rand_generic_data(rng=draws)
        g, a0, _ = alcove_walk(d.alpha)
        A = word_to_auto(g.inverse().word)
        pv_par = torelli_parallel(d)
        pv_ch = torelli_chamber(d)
        At = tuple(zip(*A))
        xt = int_matvec(At, pv_par.x)
        zt = int_matvec(At, pv_par.z)
        assert xt[0] == pv_ch.x[0] and zt[0] == pv_ch.z[0]
        assert sorted(zip(xt[1:], zt[1:]), key=str) == \
            sorted(zip(pv_ch.x[1:], pv_ch.z[1:]), key=str)
        if pv_ch.basis.kind == "exterior" and word_to_auto(g.word) != A:
            order_sensitive += 1
    # interior walk words commute, so only exterior draws tell the two
    # word orders apart
    assert order_sensitive > 0


# ---------------------------------------------------------------------------
# broken identities
# ---------------------------------------------------------------------------

def test_broken_identity_is_an_assertion_not_a_domain_error():
    from hitchin4 import core

    assert BrokenIdentity is core.BrokenIdentity
    assert issubclass(BrokenIdentity, AssertionError)
    assert not issubclass(BrokenIdentity, DomainError)


def test_torelli_chamber_checks_the_central_closed_form(monkeypatch):
    d = rand_generic_data(rng=random.Random(7))
    # the check reads the closed form on the data's integer form
    real = torelli._central_x
    monkeypatch.setattr(torelli, "_central_x", lambda label, N, b: real(label, N, b) + 1)
    with pytest.raises(BrokenIdentity, match="fiber relation and central closed form disagree"):
        torelli_chamber(d)


def test_puncture_sphere_order_checks_uniqueness():
    # an A1 label whose partition set repeats {} has four 0/4-subset candidates
    label = ChamberLabel("interior", "A1", 1, (0, 0, 0, 0))
    with pytest.raises(BrokenIdentity, match="puncture-sphere correspondence not unique"):
        intersection_table(label)


def _second_call_returns(monkeypatch, pv_for_second_call):
    real = torelli.torelli_chamber
    calls = []

    def fake(data):
        calls.append(data)
        return real(data) if len(calls) == 1 else pv_for_second_call(data)

    monkeypatch.setattr(torelli, "torelli_chamber", fake)


def test_scale_masses_checks_the_x_periods(monkeypatch):
    draws = random.Random(8)
    d, other = rand_generic_data(rng=draws), rand_generic_data(rng=draws)
    assert torelli_chamber(d).x != torelli_chamber(other).x
    real = torelli.torelli_chamber
    _second_call_returns(monkeypatch, lambda scaled: real(other))
    with pytest.raises(BrokenIdentity, match="x-periods changed under mass scaling"):
        scale_masses(d, GaussianRational(2))


def test_scale_masses_checks_the_z_periods(monkeypatch):
    d = rand_generic_data(rng=random.Random(9))
    assert any(torelli_chamber(d).z)
    real = torelli.torelli_chamber
    _second_call_returns(monkeypatch, lambda scaled: real(d))
    with pytest.raises(BrokenIdentity, match="z-periods did not scale linearly"):
        scale_masses(d, GaussianRational(2))


# ---------------------------------------------------------------------------
# integer forms
# ---------------------------------------------------------------------------

def test_period_vectors_carry_their_integer_form():
    # ints gives x and z exactly for vectors from __init__ (over the lcm),
    # from_outer and the period maps (over twice the outer denominators, by
    # _completed); ==, hash and repr do not see which form a vector holds
    (ints,) = (f for f in dataclasses.fields(PeriodVector) if f.name == "ints")
    assert not (ints.init or ints.repr or ints.compare)
    draws = random.Random(1618)
    scaled = 0
    for _ in range(500):
        data = ParabolicData(*draw(draws))
        pvs = [torelli_parallel(data)]
        try:
            pvs.append(torelli_chamber(data))
        except DomainError:
            pass
        for pv in pvs:
            built = PeriodVector(pv.x, pv.z, pv.basis)
            outer = PeriodVector.from_outer(pv.x[1:], pv.z[1:], pv.basis)
            for value in (pv, built, outer):
                assert ref_form_holds(value, value.x, value.z)
            assert built == pv == outer and hash(built) == hash(pv) == hash(outer)
            assert repr(built) == repr(pv) == repr(outer)
            assert built.ints[0] == lcm(*(x.denominator for x in pv.x))
            scaled += pv.ints[0] != built.ints[0]
    assert scaled > 400


def test_scale_masses_needs_a_nonzero_factor():
    data = ParabolicData((Fraction(3, 10), Fraction(1, 5), Fraction(1, 5), Fraction(1, 5)),
                         (1, 0, 0, 0))
    for t in (0, GaussianRational(0)):
        with pytest.raises(ValueError, match="t must be nonzero"):
            scale_masses(data, t)
