"""Acceptance suite: one test per criterion, each printing a pass line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines.  Exact assertions use rational arithmetic; numeric tolerances are
pinned in each test and follow the module contracts (residues 1e-7,
beta^5 coefficient 1e-7 relative, hyperkahler identities 1e-10, tau decay
slope -1 +- 0.1, root-shift coefficients 1 percent).
"""

import random
from fractions import Fraction

import numpy as np

from hitchin4.chambers import (
    FULL,
    ParabolicData,
    classify_chamber,
    enumerate_chambers,
    chamber_vertices,
    in_R_tilde,
    is_generic,
    wall_K,
    exterior_label,
    interior_label,
    subset_mask,
)
from hitchin4.core import GaussianRational
from hitchin4.coxeter import (
    COXETER_MATRIX,
    AffineIsometry,
    apply_to_masses,
    compose_word,
    enumerate_W_fin,
    generator,
    target_generator,
)
from hitchin4 import hkmodel, monodromy, spectral
from hitchin4.homology import (
    FIBER_CLASS,
    classes_of_square_minus2,
    dehn_twist_matrix,
    hat_affine_apply,
    hat_linear_apply,
    intersection,
    is_lattice_auto,
    word_to_auto,
)
from hitchin4.torelli import (
    PARALLEL_BASIS,
    PeriodVector,
    central_x_closed_form,
    in_period_domain,
    intersection_table,
    inverse_torelli,
    mass_functional,
    parallel_x_matrix,
    scale_masses,
    torelli_chamber,
    torelli_parallel,
)

from lattice_oracle import brute_force_minus2

rng = random.Random(0xD4)
nrng = np.random.default_rng(0xD4)

ZERO = GaussianRational(0)


def _passed(num, name):
    print(f"ACCEPTANCE {num:02d} {name}: PASS")


def rand_generic_data():
    while True:
        a = tuple(Fraction(rng.randint(1, 49), 100) for _ in range(4))
        d0 = ParabolicData(a, (ZERO,) * 4)
        try:
            classify_chamber(a)
        except Exception:
            continue
        if not is_generic(d0):
            continue
        m = tuple(GaussianRational(Fraction(rng.randint(-3, 3), rng.randint(1, 4)),
                                   Fraction(rng.randint(-3, 3), rng.randint(1, 4)))
                  for _ in range(4))
        return ParabolicData(a, m)


def test_01_chamber_census():
    labels = enumerate_chambers()
    assert len(labels) == 24
    counts = {}
    for lab in labels:
        counts[lab.ctype] = counts.get(lab.ctype, 0) + 1
    assert counts == {"A1": 4, "A2": 4, "B1": 4, "B2": 4, "E1": 4, "E2": 4}
    interior = [lab for lab in labels if lab.kind == "interior"]
    exterior = [lab for lab in labels if lab.kind == "exterior"]
    assert len(interior) == 16 and len(exterior) == 8
    for lab in labels:
        verts = chamber_vertices(lab)
        centroid = tuple(sum(v[i] for v in verts) / len(verts) for i in range(4))
        assert classify_chamber(centroid) == lab
    _passed(1, "chamber census (24 = 16 interior + 8 exterior)")


def test_02_torelli_exactness():
    for _ in range(1000):
        d = rand_generic_data()
        pv = torelli_chamber(d)
        assert 2 * pv.x[0] + sum(pv.x[1:]) == 1
        assert not (2 * pv.z[0] + sum(pv.z[1:], ZERO))
        assert all(x > 0 for x in pv.x)
        label = pv.basis
        assert pv.x[0] == central_x_closed_form(label, d.alpha)
        shift_k = wall_K(label.i0, d.alpha) if label.kind == "exterior" else 0
        shift_m = mass_functional(label.i0, d.masses) if label.kind == "exterior" else ZERO
        for pos, mask in enumerate(label.subsets, start=1):
            assert pv.x[pos] == wall_K(mask, d.alpha) - shift_k
            assert pv.z[pos] == mass_functional(mask, d.masses) - shift_m
    _passed(2, "torelli closed forms, fiber relations and positivity x1000")


def test_03_inverse_map():
    assert parallel_x_matrix().det() == 16
    for _ in range(1000):
        d = rand_generic_data()
        back = inverse_torelli(torelli_parallel(d))
        assert back.alpha == d.alpha and back.masses == d.masses
    _passed(3, "parallel matrix determinant 16 and exact inversion x1000")


def test_04_equivariance():
    for _ in range(200):
        d = rand_generic_data()
        pv = torelli_parallel(d)
        for i in range(5):
            g = generator(i)
            moved = ParabolicData(g(d.alpha), apply_to_masses(g, d.masses))
            pv2 = torelli_parallel(moved)
            R = target_generator(i)
            assert pv2.x[1:] == R(pv.x[1:])
            assert pv2.z[1:] == tuple(R.linear.apply(pv.z[1:]))
    for _ in range(100):
        d = rand_generic_data()
        pv = torelli_parallel(d)
        w = [rng.randint(0, 4) for _ in range(rng.randint(1, 8))]
        A = word_to_auto(w)
        x, z = pv.x[1:], pv.z[1:]
        for i in w:
            R = target_generator(i)
            x = R(x)
            z = tuple(R.linear.apply(z))
        assert tuple(hat_affine_apply(A, pv.x[1:])) == tuple(x)
        assert tuple(hat_linear_apply(A, pv.z[1:])) == tuple(z)
    _passed(4, "generator equivariance x200 and basis change via hat x100")


def test_05_group_structure():
    gens = [generator(i) for i in range(5)]
    ident_aff = AffineIsometry.identity()
    ident_lat = word_to_auto([])
    for i in range(5):
        for j in range(5):
            m = COXETER_MATRIX[i][j]
            assert compose_word([i, j] * m, gens).same_map(ident_aff)
            assert word_to_auto([i, j] * m) == ident_lat
    assert len(enumerate_W_fin()) == 192
    _passed(5, "Coxeter relations in both representations; |W_fin| = 192")


def test_06_homology_lattice():
    basis = [tuple(int(i == j) for j in range(5)) for i in range(5)]
    spanning = basis + [FIBER_CLASS, (1, 1, 1, 1, 1), (0, 1, -1, 2, 3)]
    for _ in range(100):
        w = [rng.randint(0, 4) for _ in range(rng.randint(0, 12))]
        assert is_lattice_auto(word_to_auto(w))
    for i in range(5):
        A = dehn_twist_matrix(i)
        assert is_lattice_auto(A)
        for c in spanning:
            want = tuple(cv + intersection(c, basis[i]) * ev
                         for cv, ev in zip(c, basis[i]))
            got = tuple(sum(A[r][k] * c[k] for k in range(5)) for r in range(5))
            assert got == want
    family = [c for c in classes_of_square_minus2(4) if all(abs(x) <= 3 for x in c)]
    assert sorted(family) == brute_force_minus2(3)
    _passed(6, "lattice automorphisms, Picard-Lefschetz, -2 classes vs brute force")


def test_07_intersection_tables():
    e2 = exterior_label(subset_mask([1, 2, 3]))
    assert intersection_table(e2) == ((2, 0, 0, 0), (0, 2, 0, 0),
                                      (0, 0, 2, 0), (0, 0, 0, -2))
    b2 = interior_label((0b0011, 0b0101, 0b0110, FULL))
    assert intersection_table(b2) == ((1, -1, -1, 1), (-1, 1, -1, 1),
                                      (-1, -1, 1, 1), (-1, -1, -1, -1))
    _passed(7, "E2 table diag(2,2,2,-2) and B2 sign table reproduced exactly")


def test_08_period_domain():
    count = 0
    while count < 1000:
        a = tuple(Fraction(rng.randint(-40, 40), rng.randint(1, 12)) for _ in range(4))
        m = tuple(GaussianRational(Fraction(rng.randint(-2, 2), rng.randint(1, 3)),
                                   Fraction(rng.randint(-2, 2), rng.randint(1, 3)))
                  for _ in range(4))
        d = ParabolicData(a, m)
        if not in_R_tilde(d, full=True):
            continue
        ok, witness = in_period_domain(torelli_parallel(d))
        assert ok, witness
        count += 1
    # boundary points on the five example planes with the right witness
    q = Fraction(1, 4)
    pv = PeriodVector.from_outer((q, q, q, q), (ZERO,) * 4, PARALLEL_BASIS)
    ok, witness = in_period_domain(pv)
    assert not ok and witness == {"family": "H_k", "k": 0}
    for i in range(4):
        xs = [Fraction(k + 1, 7) for k in range(4)]
        zs = [GaussianRational(1)] * 4
        xs[i] = Fraction(0)
        zs[i] = ZERO
        pv = PeriodVector.from_outer(xs, zs, PARALLEL_BASIS)
        ok, witness = in_period_domain(pv)
        assert not ok and witness == {"family": "H_k_i", "k": 0, "i": i + 1}
    _passed(8, "images of R~full in the period domain x1000; witnesses exact")


def test_09_spectral_residues():
    checked = 0
    while checked < 50:
        p0 = complex(nrng.uniform(-2, 3), nrng.uniform(-1.5, 1.5))
        if min(abs(p0), abs(p0 - 1)) < 0.3:
            continue
        masses = tuple(nrng.normal(scale=0.9) + 1j * nrng.normal(scale=0.9)
                       for _ in range(4))
        base = spectral.build_base(p0, masses)
        beta = complex(nrng.uniform(-3, 3), nrng.uniform(-3, 3))
        if not spectral.in_B0(base, beta):
            continue
        try:
            res = spectral.tautological_residues(base, beta)
        except spectral.BranchPointCollision:
            continue
        for key, mp in zip(("0", "1", "p0", "inf"), base.masses):
            plus, minus = res[key]
            assert abs(plus + minus) < 1e-9
            assert min(abs(plus - mp), abs(plus + mp)) < 1e-7
        coef = spectral.beta_discriminant_poly(base, nodes=7)
        assert abs(coef[5]) < 1e-7 * np.max(np.abs(coef))
        checked += 1
    _passed(9, "contour residues = +-m_p (1e-7) and beta^5 normalization x50")


def test_10_tau_asymptotics():
    base = spectral.build_base(2.0 + 0.3j, (0.7 - 0.2j, 1.1 + 0.5j,
                                            -0.4 + 0.9j, 0.8 + 0.1j))
    betas = np.logspace(2, 4, 9)
    taus = [spectral.elliptic_periods(base, complex(b))[2] for b in betas]
    t1 = spectral.elliptic_periods(base, 2.0e4)[2]
    t2 = spectral.elliptic_periods(base, 4.0e4)[2]
    tau0 = 2 * t2 - t1  # Richardson limit of tau = tau0 + C / beta
    errs = np.abs(np.array(taus) - tau0)
    slope = np.polyfit(np.log(betas), np.log(errs), 1)[0]
    assert abs(slope + 1) < 0.1, slope
    out = spectral.tau_asymptotics(base, list(np.logspace(2.5, 4, 7)))
    for key in ("0", "1", "p0"):
        pred = out["predicted"][key]
        assert abs(out["fitted"][key] - pred) < 0.01 * abs(pred)
    _passed(10, f"tau decay slope {slope:+.3f} (within -1 +- 0.1); shifts within 1%")


def test_11_monodromy():
    f = monodromy.canonical_factorization()
    AB = monodromy.mat_mul(monodromy.MAT_A, monodromy.MAT_B)
    cube = monodromy.mat_mul(monodromy.mat_mul(AB, AB), AB)
    assert cube == monodromy.NEG_IDENT
    for _ in range(100):
        n = rng.randint(1, 12)
        g = f
        for _ in range(n):
            g = monodromy.hurwitz_move(g, rng.randint(1, 5), rng.choice((1, 2)))
        moves, normal = monodromy.normalize(g, max_depth=2 * n)
        assert len(moves) <= n
        assert monodromy._conjugator_to(
            normal, monodromy.canonical_factorization().factors) is not None
    _passed(11, "(AB)^3 = -Id and 100 scrambles (depth <= 12) renormalized")


def test_12_hyperkahler_model():
    def rand_tangent():
        def tf():
            m = nrng.normal(size=(2, 2)) + 1j * nrng.normal(size=(2, 2))
            m[1, 1] = -m[0, 0]
            return m
        return hkmodel.PointTangent(tf(), tf())

    for _ in range(1000):
        p = hkmodel.HKParams(float(nrng.uniform(0.2, 3)), float(nrng.uniform(0.2, 3)),
                             float(nrng.uniform(0, 2 * np.pi)))
        v, w = rand_tangent(), rand_tangent()
        scale = max(1.0, hkmodel.metric(v, v, p), hkmodel.metric(w, w, p))
        for S in ("I", "J", "K"):
            ss = hkmodel.apply_structure(S, hkmodel.apply_structure(S, v, p), p)
            assert np.abs(ss.a + v.a).max() < 1e-10 * scale
            assert np.abs(ss.phi + v.phi).max() < 1e-10 * scale
            gs = hkmodel.metric(hkmodel.apply_structure(S, v, p),
                                hkmodel.apply_structure(S, w, p), p)
            assert abs(gs - hkmodel.metric(v, w, p)) < 1e-10 * scale
        ij = hkmodel.apply_structure("I", hkmodel.apply_structure("J", v, p), p)
        kk = hkmodel.apply_structure("K", v, p)
        assert np.abs(ij.a - kk.a).max() < 1e-10 * scale
        pr = hkmodel.pairings(v, w, p)
        want = hkmodel.omega("J", v, w, p) + 1j * hkmodel.omega("K", v, w, p)
        assert abs(pr["OmegaItheta"] - want) < 1e-10 * scale
    p = hkmodel.HKParams(1.0, 1.0, 0.0)
    Mlev, mulev = hkmodel.moment_residues(Fraction(1, 4), ZERO, ZERO, p)
    assert np.array_equal(mulev, np.diag([0.25, -0.25]))
    assert np.array_equal(Mlev, np.zeros((2, 2)))
    Mlev, _ = hkmodel.moment_residues(Fraction(1, 3), GaussianRational(Fraction(1, 2)),
                                      GaussianRational(Fraction(3, 4)), p)
    assert Mlev[0, 0] == -1j and Mlev[1, 1] == 1j and Mlev[0, 1] == 1.5j
    _passed(12, "quaternionic + compatibility + Omega identity (1e-10) x1000")


def test_13_mass_scaling():
    ts = (GaussianRational(2), GaussianRational(0, 1),
          GaussianRational(Fraction(3, 5), Fraction(1, 5)))
    for _ in range(200):
        d = rand_generic_data()
        for t in ts:
            pv1, pv2 = scale_masses(d, t)
            assert pv1.x == pv2.x
            assert pv2.z == tuple(t * z for z in pv1.z)
    _passed(13, "x-periods invariant, z-periods degree-1 under t in {2, i, 3/5+i/5}")
