import cmath
import math
import random
import warnings
from collections import Counter

import numpy as np
import pytest

from hitchin4.core import BrokenIdentity, DomainError
from hitchin4.spectral import (
    _fiber,
    _sheet,
    BranchPointCoincidence,
    BranchPointCollision,
    ComplexPoly,
    DegenerateP0,
    HitchinBase,
    SpectralFiberPoint,
    OffCurve,
    build_base,
    beta_discriminant_poly,
    f_m_coefficients,
    elliptic_periods,
    flags,
    higgs_representative,
    in_B0,
    poly_roots,
    ROOT_TOL,
    RootTrackingLost,
    SingularFiber,
    singular_fibers,
    tau_asymptotics,
    tau_sweep,
    tautological_residues,
    UndefinedFlag,
)

rng = np.random.default_rng(20260810)

P0 = 2.0 + 0.3j
MASSES = (0.7 - 0.2j, 1.1 + 0.5j, -0.4 + 0.9j, 0.8 + 0.1j)
BETA = 1.3 - 0.8j


def generic_base():
    return build_base(P0, MASSES)


def quadratic_differential(base, beta, z):
    """q(z) = F(z) / (z(z-1)(z-p0))^2."""
    F = np.polyval(base.curve_coeffs(beta)[::-1], z)
    return F / (z * (z - 1) * (z - base.p0)) ** 2


# ---------------------------------------------------------------------------
# Hitchin base
# ---------------------------------------------------------------------------

def test_build_base_zero_masses():
    base = build_base(2.0, (0, 0, 0, 0))
    assert np.allclose(base.f_coeffs, 0)


def test_build_base_unit_infinity_mass():
    base = build_base(2.0, (0, 0, 0, 1))
    f = np.asarray(base.f_coeffs)
    assert abs(f[4] - 1) < 1e-12
    for p in (0.0, 1.0, 2.0):
        assert abs(np.polyval(f[::-1], p)) < 1e-10


def test_build_base_residue_constraints_random():
    for _ in range(10):
        p0 = complex(rng.normal(), rng.normal()) + 2.0
        m = rng.normal(size=4) + 1j * rng.normal(size=4)
        base = build_base(p0, m)
        f = np.asarray(base.f_coeffs)
        scale = 1 + np.max(np.abs(f))
        assert abs(np.polyval(f[::-1], 0) / p0 ** 2 - m[0] ** 2) < 1e-10 * scale
        assert abs(np.polyval(f[::-1], 1) / (1 - p0) ** 2 - m[1] ** 2) < 1e-10 * scale
        assert abs(np.polyval(f[::-1], p0) / (p0 ** 2 * (p0 - 1) ** 2) - m[2] ** 2) \
            < 1e-10 * scale
        assert abs(f[4] - m[3] ** 2) < 1e-12 * scale


def test_beta5_discriminant_coefficient_vanishes():
    for _ in range(5):
        p0 = complex(rng.normal(), rng.normal()) + 2.0
        m = rng.normal(size=4) + 1j * rng.normal(size=4)
        coef = beta_discriminant_poly(build_base(p0, m))
        scale = np.max(np.abs(coef))
        assert abs(coef[5]) < 1e-7 * scale


def test_degenerate_p0():
    with pytest.raises(DegenerateP0):
        build_base(1.0, MASSES)


def test_a_base_takes_exactly_four_masses():
    # the masses are counted where they are read, not by a tuple unpacking further on
    for masses in ((1, 0, 0), (1, 0, 0, 0, 0)):
        with pytest.raises(ValueError, match="^length mismatch$"):
            build_base(2, masses)
        with pytest.raises(ValueError, match="^length mismatch$"):
            f_m_coefficients(2 + 0j, masses)


def test_a_base_carries_its_cubic_and_puncture_table():
    # c = z(z-1)(z-p0) and the rows (key, p, c'(p), m_p) are derived once, where the
    # base is built; f(p) = m_p^2 c'(p)^2 at each finite puncture, and ==, hash and
    # repr see only p0, the masses and f_m
    base = build_base(P0, MASSES)
    p0 = base.p0
    assert base.c_coeffs == (0j, p0, -(1 + p0), 1 + 0j, 0j)
    assert [(key, p) for key, p, _, _ in base.punctures] == [("0", 0.0), ("1", 1.0), ("p0", p0)]
    c = ComplexPoly(base.c_coeffs)
    for (_, p, dc, m), mass in zip(base.punctures, base.masses):
        assert m == mass and c(p) == 0 and abs(dc - c.derivative()(p)) < 1e-12 * abs(dc)
        f = ComplexPoly(base.f_coeffs)(p)
        assert abs(f - m ** 2 * dc ** 2) < 1e-10 * max(1.0, abs(f))
    twin = HitchinBase(base.p0, base.masses, base.f_coeffs)
    assert twin == base and hash(twin) == hash(base) and repr(twin) == repr(base)
    assert "c_coeffs" not in repr(base) and "punctures" not in repr(base)


def test_a_polynomial_keeps_the_scale_of_its_trim():
    # scale is the largest |coefficient|, before and after the trim, and the
    # derived polynomials compute their own
    r = random.Random(4242)
    for _ in range(200):
        c = [complex(r.gauss(0, 1), r.gauss(0, 1)) * 10 ** r.uniform(-4, 4)
             for _ in range(r.randint(1, 6))] + [1e-14 * (r.random() < 0.5)]
        p = ComplexPoly(c)
        assert p.scale == max(map(abs, c)) == max(map(abs, p.coeffs))
        for q in (p.derivative(), p.deflate(0.5)):
            assert q.scale == max(map(abs, q.coeffs))
    assert ComplexPoly([]).scale == 0 and ComplexPoly([]).coeffs == (0j,)


def test_non_finite_bases_are_value_errors():
    with pytest.raises(ValueError, match=r"p0 = \(nan\+0j\) and masses .* must be finite"):
        build_base(complex("nan"), MASSES)
    with pytest.raises(ValueError, match=r"\(1\+infj\)\) must be finite"):
        build_base(P0, (1, 1, 1, complex(1, math.inf)))
    # f_m squares p0 and the masses: past the float range it is not finite
    for p0, masses in ((2.0, (1e200, 1, 1, 1)), (1e200, (0, 0, 0, 0)), (1e100, (1e150, 0, 0, 0))):
        with pytest.raises(ValueError, match="f_m is not finite"):
            build_base(p0, masses)
    assert not any(build_base(1e100, (0, 0, 0, 0)).f_coeffs)  # a large p0 alone stays valid


def test_overflowing_curves_and_discriminants_are_value_errors():
    base = build_base(2.0, (1, 1, 1, 1))
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no numpy overflow warning on the way
        # a finite beta whose F = f_m + beta z(z-1)(z-p0) is not finite
        for beta in (1e308, complex(0, 1e308), complex(1e308, -1e308)):
            with pytest.raises(ValueError, match="is not finite at beta = "):
                base.curve_coeffs(beta)
        for fn in (in_B0, tautological_residues, elliptic_periods):
            with pytest.raises(ValueError, match=r"at beta = \(1e\+308\+0j\)"):
                fn(base, 1e308)
        # a finite f_m whose beta-discriminant is not
        for p0, masses in ((1e100, (1, 0, 0, 0)), (1e60, (1, 1, 1, 1))):
            with pytest.raises(ValueError, match=r"beta-discriminant is not finite at "
                                                 r"p0 = \(1e\+\d+\+0j\), masses"):
                singular_fibers(build_base(p0, masses))
        # every sample of it is finite, but V's largest entry, (2 max|f_m|)^6, is not
        with pytest.raises(ValueError, match=r"beta-discriminant is not finite at "
                                             r"p0 = \(1e-08\+0j\), masses"):
            singular_fibers(build_base(1e-8, (0, 0, 0, 1e26)))
    # below the float range F is the scalar sum, bit for bit, of Python complex values
    r = np.random.default_rng(2020)
    assert all(type(x) is complex for x in base.f_coeffs)
    for _ in range(200):
        b = complex(*r.normal(size=2)) * 10.0 ** r.integers(-3, 300)
        F = base.curve_coeffs(b)
        assert all(type(x) is complex for x in F)
        assert repr(F) == repr(tuple(f + b * c for f, c in zip(base.f_coeffs,
                                                                 base.c_coeffs)))
    roots = _fiber(generic_base(), BETA)[1]
    assert len(roots) == 4 and all(type(r) is complex for r in roots)


# ---------------------------------------------------------------------------
# singular fibers
# ---------------------------------------------------------------------------

def test_singular_fibers_zero_masses():
    base = build_base(2.0, (0, 0, 0, 0))
    roots = singular_fibers(base)
    assert len(roots) == 6
    # beta = 0 with multiplicity six; a six-fold root is located only to
    # about eps^(1/6), but the center of mass is stable
    assert all(abs(b) < 1e-2 for b in roots)
    assert abs(sum(roots)) < 1e-8
    assert roots == [0j] * 6


def test_singular_fibers_underflowing_masses():
    # m_0^2 underflows, so f_m vanishes in double precision as at m = 0
    base = build_base(2.0, (1e-200, 0, 0, 0))
    assert not any(base.f_coeffs)
    assert singular_fibers(base) == [0j] * 6


def test_singular_fibers_generic():
    base = generic_base()
    roots = singular_fibers(base)
    assert len(roots) == 6
    assert abs(sum(roots)) < 1e-6 * max(abs(b) for b in roots)
    # simple roots: pairwise distinct
    for i, a in enumerate(roots):
        for b in roots[i + 1:]:
            assert abs(a - b) > 1e-6


def test_singular_fibers_conjugation_symmetry():
    base = build_base(0.37, (0.5, 1.25, -0.75, 2.0))
    roots = singular_fibers(base)
    pool = [r.conjugate() for r in roots]
    for r in roots:
        k = min(range(len(pool)), key=lambda k: abs(pool[k] - r))
        assert abs(pool[k] - r) < 1e-6
        pool.pop(k)


def critical_values(base):
    """The singular fibers as 50-digit critical values: beta = -f(z)/c(z) at the six
    roots z of g = f'c - fc', where f = f_m and c = z(z-1)(z-p0) (mpmath)."""
    import mpmath as mp

    with mp.workdps(50):
        f = [mp.mpc(x) for x in base.f_coeffs]
        c = [mp.mpc(x) for x in base.c_coeffs[:4]]
        g = [mp.mpc(0)] * 7
        for i, a in enumerate(f):
            for j, b in enumerate(c):
                if i + j:
                    g[i + j - 1] += (i - j) * a * b
        zs = mp.polyroots(g[::-1], maxsteps=200, extraprec=200)
        return [complex(-mp.polyval(f[::-1], z) / mp.polyval(c[::-1], z)) for z in zs]


def test_singular_fibers_keep_the_constant_term_of_a_large_fit():
    # max|f_m| = 164 here: the columns of the fit's Vandermonde matrix span (2 max|f_m|)^6,
    # past numpy's default lstsq cutoff, which drops the beta^0 term; one fiber is then an
    # exact 0j and the six miss the critical values by 0.245 of max|beta|
    base = build_base(3 + 1j, (3, 1j, 0.8, 0.5))
    assert max(map(abs, base.f_coeffs)) > 140
    got, want = singular_fibers(base), critical_values(base)
    assert 0j not in got
    scale = max(map(abs, want))
    for b in got:
        k = min(range(len(want)), key=lambda k: abs(want[k] - b))
        assert abs(want.pop(k) - b) < 1e-3 * scale, b


# ---------------------------------------------------------------------------
# B^0
# ---------------------------------------------------------------------------

def square_base(p0, q):
    """Base and beta with F = q^2 for a quadratic q (ascending, the leading
    coefficient nonzero): m_p = q(p)/c'(p), m_inf the leading coefficient, and
    beta cancels the z^3 coefficient of f_m - q^2."""
    Q = ComplexPoly(q)
    base = build_base(p0, (Q(0) / p0, Q(1) / (1 - p0), Q(p0) / (p0 * (p0 - 1)), q[2]))
    return base, np.convolve(q, q)[3] - base.f_coeffs[3]


def test_in_B0_cases():
    base = build_base(2.0, (0, 0, 0, 0))
    assert in_B0(base, 1.0)       # F = z(z-1)(z-2): a cubic is never a square
    assert in_B0(generic_base(), BETA)
    # (z^2-1)^2: each nearest-neighbour cut joins the two roots of a double root
    b1, beta = square_base(2.0, [-1, 0, 1])
    _, square, cuts = _fiber(b1, beta)
    assert np.allclose(b1.curve_coeffs(beta), [1, 0, -2, 0, 1], atol=1e-12)
    assert all(abs(b - a) < 1e-6 * (1 + max(map(abs, square))) for a, b in cuts)
    # F = (z^2-4)^2 has no zero at a puncture, so only the square test rejects it
    b4, beta = square_base(3.0, [-4, 0, 1])
    assert np.allclose(b4.curve_coeffs(beta), [16, 0, -8, 0, 1], atol=1e-12)
    assert not in_B0(b4, beta)
    assert in_B0(b4, beta + 1e-3)

    # double zero at z = 0: masses with m_0 = 0, beta chosen so F'(0) = 0
    b2 = build_base(2.0, (0.0, 1.0, 0.5, 0.25))
    f = np.asarray(b2.f_coeffs)
    beta = -f[1] / b2.p0
    assert abs(np.polyval(b2.curve_coeffs(beta)[::-1], 0)) < 1e-12
    assert not in_B0(b2, beta)


def is_square_polynomial(coeffs) -> bool:
    """Oracle of the square test of ``in_B0``: even degree and every cluster of
    roots of even size, each root joining the first cluster whose mean lies
    within 1e-6 (1 + max|root|)."""
    p = ComplexPoly(coeffs)
    if p.degree == 0:
        return True
    if p.degree % 2 == 1:
        return False
    roots = poly_roots(p)
    tol = 1e-6 * (1.0 + float(np.max(np.abs(roots))))
    clusters: list[list[complex]] = []
    for r in sorted(roots, key=lambda r: (r.real, r.imag)):
        for cl in clusters:
            if abs(r - np.mean(cl)) < tol:
                cl.append(r)
                break
        else:
            clusters.append([r])
    return not any(len(cl) % 2 for cl in clusters)


def clustered_in_B0(base, beta):
    """Oracle of ``in_B0``: the square test by root clusters, the puncture
    tests by numpy's evaluator."""
    F = base.curve_coeffs(beta)
    if ComplexPoly(F).degree <= 2 or is_square_polynomial(F):
        return False
    scale = max(1.0, float(np.max(np.abs(F))))
    dF = np.polynomial.polynomial.polyder(F)
    return not any(abs(np.polyval(F[::-1], p)) < 1e-10 * scale
                   and abs(np.polyval(dF[::-1], p)) < 1e-8 * scale for p in (0.0, 1.0, base.p0))


NEAR_SINGULAR_EPS = (0, 1e-12, 1e-9, 1e-6, 1e-3)


def test_in_B0_equals_the_clustering_oracle():
    # seeded draws, then beta (1 + eps) at every singular fiber of random bases,
    # at perfect squares F = q^2, whose double roots split by about sqrt(eps)
    # through the 1e-6 pairing tolerance, and at double zeros at z = 0 (m_0 = 0)
    r = random.Random(1919)

    def near(pairs):
        return [(base, beta * (1 + eps)) for base, beta in pairs for eps in NEAR_SINGULAR_EPS]

    def zero_at_0(base):
        base = build_base(base.p0, (0, *base.masses[1:]))
        return base, -base.f_coeffs[1] / base.p0

    draws = list(spectral_draws(r, 300))
    singular = near((base, b) for base, _ in spectral_draws(r, 40) for b in singular_fibers(base))
    squares = near(square_base(base.p0, [complex(r.gauss(0, 1), r.gauss(0, 1)) for _ in range(3)])
                   for base, _ in spectral_draws(r, 40))
    double_zero = near(zero_at_0(base) for base, _ in spectral_draws(r, 40))
    got = {}
    for name, cases in (("draws", draws), ("singular", singular), ("squares", squares),
                        ("double_zero", double_zero)):
        got[name] = [in_B0(base, beta) for base, beta in cases]
        assert got[name] == [clustered_in_B0(base, beta) for base, beta in cases], name
    assert all(got["draws"]) and all(got["singular"])  # an I1 fiber is in B0
    # eps = 0 is out of B0 and eps >= 1e-6 in it; at eps = 1e-12 the double
    # roots of some squares, not all, split past the tolerance
    for name in ("squares", "double_zero"):
        assert not any(got[name][0::5]) and all(got[name][3::5] + got[name][4::5]), name
    assert 0 < got["squares"][1::5].count(True) < 40


def test_in_B0_rejects_degeneration_at_infinity():
    # with m_inf = 0 the curve polynomial is cubic with leading
    # coefficient f3 + beta; at beta = -f3 it drops to degree <= 2, giving
    # a non-simple zero at infinity
    base = build_base(2.0, (1.0, 0, 0, 0))
    f = np.asarray(base.f_coeffs)
    assert abs(f[4]) < 1e-12
    beta = -f[3]
    assert not in_B0(base, beta)


# ---------------------------------------------------------------------------
# Higgs representatives and flags
# ---------------------------------------------------------------------------

def on_curve_point(base, beta, u, sign=+1):
    """Big-stratum point over u with w = sign * sqrt(F(u)) - m_inf u^2."""
    F = base.curve_coeffs(beta)
    w = sign * np.sqrt(np.polyval(F[::-1], u)) - base.masses[3] * u ** 2
    return SpectralFiberPoint(base, beta, complex(u), complex(w), "big")


def residue_matrix(pt, p):
    """Oracle: residue of phi at a finite puncture (coefficient of dz/(z-p))."""
    N, den = higgs_representative(pt)
    dden = np.polynomial.polynomial.polyder(den.coeffs)
    cp = np.polyval(dden[::-1], p)
    return np.array([[complex(N[i][j](p)) for j in range(2)] for i in range(2)]) / cp


def test_small_stratum_companion_form():
    base = generic_base()
    pt = SpectralFiberPoint(base, BETA, stratum="small")
    N, den = higgs_representative(pt)
    assert N[0][0].coeffs == (0j,)
    assert N[1][0].coeffs == (1 + 0j,)
    F = base.curve_coeffs(BETA)
    z = 0.3 + 0.9j
    assert abs(N[0][1](z) - np.polyval(F[::-1], z)) < 1e-10 * np.max(np.abs(F))


def test_big_stratum_det_reproduces_q():
    base = generic_base()
    for _ in range(5):
        u = complex(rng.normal(), rng.normal())
        pt = on_curve_point(base, BETA, u, sign=+1)
        N, den = higgs_representative(pt)
        for z in rng.normal(size=20) + 1j * rng.normal(size=20):
            q = quadratic_differential(base, BETA, z)
            det = N[0][0](z) * N[1][1](z) - N[0][1](z) * N[1][0](z)
            got = -det / den(z) ** 2
            assert abs(got - q) < 1e-8 * (1 + abs(q))


def test_trace_free_and_off_curve():
    base = generic_base()
    pt = on_curve_point(base, BETA, 0.5 + 0.2j)
    N, _ = higgs_representative(pt)
    z = 1.7 - 0.4j
    assert abs(N[0][0](z) + N[1][1](z)) < 1e-10
    with pytest.raises(OffCurve):
        SpectralFiberPoint(base, BETA, u=0.5, w=123.0, stratum="big")


def test_extra_point_upper_entry_quadratic():
    base = generic_base()
    pt = SpectralFiberPoint(base, BETA, stratum="extra")
    N, _ = higgs_representative(pt)
    assert N[0][1].degree <= 2
    z = 0.45 - 1.2j
    q = quadratic_differential(base, BETA, z)
    den = z * (z - 1) * (z - base.p0)
    det = N[0][0](z) * N[1][1](z) - N[0][1](z) * N[1][0](z)
    assert abs(-det / den ** 2 - q) < 1e-8 * (1 + abs(q))


def test_extra_point_with_an_inconsistent_quartic_is_a_broken_identity():
    # build_base makes f4 = m_inf^2; a base built by hand with f4 = 5, m_inf = 1
    # leaves a quartic upper entry
    pt = SpectralFiberPoint(HitchinBase(2.0, (1, 1, 1, 1), (0, 0, 0, 0, 5)), BETA, stratum="extra")
    with pytest.raises(BrokenIdentity, match="extra-point upper entry must be quadratic"):
        higgs_representative(pt)


def test_small_stratum_flags():
    base = generic_base()
    m0, m1, mp, mi = base.masses
    p0 = base.p0
    got = flags(SpectralFiberPoint(base, BETA, stratum="small"))
    want = (m0 * p0, m1 * (1 - p0), mp * p0 * (p0 - 1), -mi)
    assert np.allclose(got, want)


def test_polar_section_flag_lhopital():
    base = generic_base()
    m0 = base.masses[0]
    p0 = base.p0
    w = m0 * p0  # sigma_0^+ has u = 0, w = m_0 p_0
    pt = SpectralFiberPoint(base, BETA, u=0.0, w=w, stratum="big")
    f = np.asarray(base.f_coeffs)
    df = np.polynomial.polynomial.polyder(f)
    want = (np.polyval(df[::-1], 0.0) + BETA * p0) / (2 * m0 * p0)
    got = flags(pt)[0]
    assert abs(got - want) < 1e-9 * (1 + abs(want))
    # the minus section flows to the projective point at infinity
    ptm = SpectralFiberPoint(base, BETA, u=0.0, w=-w, stratum="big")
    assert flags(ptm)[0] == np.inf


def test_flags_are_residue_eigenvectors():
    # big-stratum points over random u, then the small and the extra point
    base = generic_base()
    points = [on_curve_point(base, BETA, complex(rng.normal(), rng.normal())) for _ in range(10)]
    for pt in points + [SpectralFiberPoint(base, BETA, stratum=s) for s in ("small", "extra")]:
        fl = flags(pt)
        for p, mp, F in zip((0.0, 1.0, base.p0), base.masses[:3], fl[:3]):
            R = residue_matrix(pt, p)
            v = np.array([F, 1.0])
            assert np.linalg.norm(R @ v - mp * v) < 1e-8 * (1 + np.linalg.norm(v))


def eigenline_50_digits(pt, p, m, dc):
    """Oracle: x/y of the eigenvector of N(p)/c'(p), at 50 digits, for its eigenvalue
    nearest m, with N built from the float F, u and w of a big-stratum point and U
    the quotient of F - D^2 by (z - u), its remainder dropped, as in the library."""
    import mpmath as mp

    with mp.workdps(50):
        F = [mp.mpc(c) for c in pt.base.curve_coeffs(pt.beta)]
        d = (mp.mpc(pt.w), 0, mp.mpc(pt.base.masses[3]))
        G = [F[k] - sum(d[j] * d[k - j] for j in range(max(0, k - 2), min(k, 2) + 1))
             for k in range(5)]
        u, p = mp.mpc(pt.u), mp.mpc(p)
        U, acc = 0, G[4]
        for k in range(3, -1, -1):  # synthetic division by (z - u), Horner at p
            U, acc = U * p + acc, G[k] + acc * u
        D, L, dc = d[0] + d[2] * p ** 2, p - u, mp.mpc(dc)
        lam = mp.sqrt(D ** 2 + U * L)
        lam = lam if abs(lam / dc - m) <= abs(lam / dc + m) else -lam
        return complex((lam - D) / L if abs(L) >= abs(lam + D) else U / (lam + D))


def test_flags_near_a_puncture_are_the_eigenline_to_1e_11():
    # at |u - p| = 1e-6, on the sheet where D(p) ~ m_p c'(p), the lower row
    # (lambda - D(p))/L(p) cancels, so the flag at p is read from the upper row;
    # at |beta| >= 2.3e3 U(p) at the two far punctures sums terms of size |beta|,
    # and the rounding bound of that sum sends their flags to the lower row
    r = random.Random(2525)
    near, far = [], []
    for base, beta in spectral_draws(r, 300):
        punctures = list(zip((0.0, 1.0, base.p0), base.masses,
                             (base.p0, 1 - base.p0, base.p0 * (base.p0 - 1))))
        for i, (p, m, dc) in enumerate(punctures):
            u = p + 1e-6 * cmath.exp(2j * math.pi * r.random())
            for sign in (1, -1):
                pt = on_curve_point(base, beta, u, sign)
                got = flags(pt)
                for j, (q, mq, dq) in enumerate(punctures):
                    if j == i or abs(beta) >= 2.3e3:
                        want = eigenline_50_digits(pt, q, mq, dq)
                        miss = abs(got[j] - want) / abs(want)
                        (near if j == i else far).append(miss)
    assert len(near) == 1800 and len(far) > 500, (len(near), len(far))
    assert max(near) < 1e-11 and max(far) < 1e-11, (max(near), max(far))


# ---------------------------------------------------------------------------
# residues of the tautological form
# ---------------------------------------------------------------------------

def test_residues_generic():
    base = generic_base()
    res = tautological_residues(base, BETA)
    for key, mp in zip(("0", "1", "p0", "inf"), base.masses):
        plus, minus = res[key]
        assert abs(plus + minus) < 1e-9
        assert min(abs(plus - mp), abs(plus + mp)) < 1e-7


def test_residues_single_mass():
    base = build_base(2.0, (1.0, 0, 0, 0))
    res = tautological_residues(base, 0.7)
    plus, _ = res["0"]
    assert min(abs(plus - 1), abs(plus + 1)) < 1e-7
    for key in ("1", "p0", "inf"):
        assert abs(res[key][0]) < 1e-7


def test_residues_zero_masses():
    base = build_base(2.0, (0, 0, 0, 0))
    res = tautological_residues(base, 1.0)
    for key in ("0", "1", "p0", "inf"):
        assert res[key] == (0j, 0j)


def test_residues_zero_masses_at_zero_beta():
    # F vanishes identically, and every residue is +-m_p = 0
    res = tautological_residues(build_base(2.0, (0, 0, 0, 0)), 0)
    assert res == {key: (0j, 0j) for key in ("0", "1", "p0", "inf")}


def test_residues_large_beta_collide_with_branch_points():
    # the masses are nonzero, so each finite puncture carries a branch point
    # at distance about 1/beta; at beta = 1e12 it lies closer than 1e-11,
    # too close for the anchored sheet to be read beside the puncture
    base = build_base(2.0, (0.5, 0.25, 0.125, 1))
    with pytest.raises(BranchPointCollision):
        tautological_residues(base, 1e12)


def test_residues_refuse_a_trimmed_far_branch_point():
    # m_inf^2 = 1 falls below the degree trim of F at beta = 1e12, so the
    # branch point near -beta is lost and the sign at infinity is unknown
    base = build_base(2.0, (0, 0, 0, 1))
    with pytest.raises(BranchPointCollision, match="trimmed far branch point"):
        tautological_residues(base, 1e12)
    assert tautological_residues(base, 1e10)["inf"] in ((1, -1), (-1, 1))


class OracleStalled(Exception):
    """The stepped oracle cannot give the sheet: its path meets a branch point,
    or passes too near one for the real-axis shift."""


def stepped_sqrt(F, branch, path, max_steps=20_000):
    """Oracle of ``spectral._sheet``: the principal sqrt(F) at path[0] continued
    along the polyline ``path``.  Each step is at most half the distance to the
    nearest root, so sqrt(F) turns by less than 90 degrees and the root nearer
    the last value is the continued one; each leg ends exactly at its vertex.
    Away from path[0], F is evaluated as lead * prod(x - root), which keeps its
    relative precision near a root."""
    lead = F.coeffs[len(branch)]
    x, w, steps = path[0], cmath.sqrt(F(path[0])), 0
    for target in path[1:]:
        while x != target:
            half, gap = min(abs(x - e) for e in branch) / 2, abs(target - x)
            x = target if gap <= half else x + (target - x) * (half / gap)
            v = lead
            for e in branch:
                v *= x - e
            v = cmath.sqrt(v)
            w = v if abs(v - w) <= abs(v + w) else -v
            steps += 1
            if steps > max_steps:
                raise OracleStalled
    return w


def stepped_sheet(F, branch):
    """Stand-in for ``spectral._sheet`` on the ``ComplexPoly`` F: z -> ``stepped_sqrt``
    along the segment from the anchor to z.  For a real F and a real z the
    segment runs along the real axis through the real branch points, so it is
    moved 1e-12 anchor to the right of its direction (the +i eps rule).  That is
    the same path while no non-real branch point (|Im| above 1e-12 of its size)
    lies within 1e-9 anchor of the axis; otherwise the oracle does not apply
    (``OracleStalled``)."""
    anchor = 3.0 * max(1.0, max(abs(r) for r in branch))
    shift = 0.0 if any(c.imag for c in F.coeffs) else 1e-12 * anchor
    if any(1e-12 * abs(e) < abs(e.imag) < 1e3 * shift for e in branch):
        raise OracleStalled

    def value(z):
        on_axis = abs(z.imag) < shift and z != anchor
        n = -1j * shift * (z - anchor) / abs(z - anchor) if on_axis else 0
        return stepped_sqrt(F, branch, [anchor, anchor + n, z + n, z])
    return value


def continue_sqrt(values, start):
    """Continuous branch of sqrt along a sampled path, signed to match start."""
    w = np.sqrt(values.astype(complex))
    flip = np.abs(w[1:] - w[:-1]) > np.abs(w[1:] + w[:-1])
    signs = np.ones(len(w))
    signs[1:] = np.cumprod(np.where(flip, -1.0, 1.0))
    w = w * signs
    if abs(w[0] - start) > abs(w[0] + start):
        w = -w
    return w


def _loop_mean(F, branch, p0, center, radius, n):
    """Trapezoid mean, over n nodes of |z - center| = radius, of tau / dtheta
    on the anchored sheet; raises BranchPointCollision unless the sheet closes."""
    th = 2 * np.pi * np.arange(n) / n
    z = center + radius * np.exp(1j * th)
    start = stepped_sheet(ComplexPoly(F), branch)(complex(z[0]))
    w = continue_sqrt(np.polyval(F[::-1], z), start=start)
    if abs(w[0] - w[-1]) > abs(w[0] + w[-1]):
        raise BranchPointCollision("sheet failed to close around the loop")
    return np.mean(w / (z * (z - 1) * (z - p0)) * 1j * radius * np.exp(1j * th))


def loop_residues(base, beta):
    """Quadrature oracle: the plus-sheet residue at each puncture from a
    512-node loop of radius 0.1 x the distance to the nearest branch point or
    other puncture, and at infinity from a 2,048-node loop around every
    branch point; each loop starts on ``stepped_sheet``."""
    F = base.curve_coeffs(beta)
    branch = poly_roots(ComplexPoly(F))
    anchor = 3.0 * max(1.0, float(np.max(np.abs(branch))))
    punctures = [0.0, 1.0, base.p0]
    out = {}
    for key, p, m in zip(("0", "1", "p0"), punctures, base.masses):
        if m == 0:
            out[key] = 0j
            continue
        dists = [abs(p - b) for b in branch] + [abs(p - q) for q in punctures if q != p]
        radius = 0.1 * min(dists)
        if radius < 1e-12:
            raise BranchPointCollision(f"branch point at puncture z = {p}")
        out[key] = complex(_loop_mean(F, branch, base.p0, p, radius, 512) / 1j)
    out["inf"] = 0j
    if base.masses[3] != 0:
        out["inf"] = complex(-_loop_mean(F, branch, base.p0, 0.0, anchor / 3 * 2.5, 2048) / 1j)
    return out


def _assert_signed_masses(res, base, oracle=None):
    """Each pair is exactly (s m_p, -s m_p); s is the sign nearer the oracle."""
    for key, m in zip(("0", "1", "p0", "inf"), base.masses):
        plus, minus = res[key]
        assert minus == -plus and plus in (m, -m), (key, plus, m)
        if oracle is not None and m != 0:
            want = m if abs(oracle[key] - m) <= abs(oracle[key] + m) else -m
            assert plus == want, (key, plus, oracle[key])


def spectral_draws(r, n, top=4, cubic=False):
    """n draws shaped like the spectral-numeric benchmark: p0 at least 0.3 from
    0 and 1, normal masses, |beta| log-uniform over 0.1 to 10^top, random phase;
    m_inf = 0, so F is a cubic, if ``cubic``."""
    for _ in range(n):
        while True:
            p0 = complex(r.uniform(-2, 3), r.uniform(-1.5, 1.5))
            if min(abs(p0), abs(p0 - 1)) >= 0.3:
                break
        masses = tuple(complex(r.gauss(0, 0.9), r.gauss(0, 0.9)) for _ in range(4))
        if cubic:
            masses = masses[:3] + (0,)
        yield build_base(p0, masses), 10 ** r.uniform(-1, top) * cmath.exp(2j * math.pi * r.random())


def test_residues_are_the_signed_masses_of_the_quadrature_oracle():
    checked = 0
    for base, beta in spectral_draws(random.Random(4242), 300):
        if not in_B0(base, beta):
            continue
        _assert_signed_masses(tautological_residues(base, beta), base, loop_residues(base, beta))
        checked += 1
    assert checked > 290


RESIDUE_GRID_P0 = (2.0, 0.37 + 0.2j, 0.5 - 1j, -1 + 0.5j)
RESIDUE_GRID_MASSES = ((1, 1, 1, 1), (0.5, 0.25, 0.125, 1), (0, 0, 0, 1),
                       (0.7 - 0.2j, 1.1 + 0.5j, -0.4 + 0.9j, 0.8 + 0.1j), (1e-3, 1, 1e3, 1))


@pytest.mark.parametrize("p0", RESIDUE_GRID_P0)
def test_residues_on_a_large_beta_grid(p0):
    # up to beta = 1e11 each case is exactly +-m with the oracle's sign, or a
    # BranchPointCollision that the oracle raises as well; the quadrature
    # itself drifts past 1e-7 here (1.5e-7 at p0 = 2, masses (0.5, ...), 1e9)
    returned = 0
    for masses in RESIDUE_GRID_MASSES:
        base = build_base(p0, masses)
        for beta in (s * 10.0 ** e for e in (-2, 0, 3, 6, 9, 11) for s in (1, 1j, -1 + 1j)):
            try:
                oracle = loop_residues(base, beta)
            except BranchPointCollision:
                oracle = None
            try:
                res = tautological_residues(base, beta)
            except BranchPointCollision:
                assert oracle is None, (masses, beta)
                continue
            _assert_signed_masses(res, base, oracle)
            returned += 1
    assert returned >= 50
    if p0 == 2.0:
        base = build_base(p0, (0.5, 0.25, 0.125, 1))
        _assert_signed_masses(tautological_residues(base, 1e9), base)


def _outputs(base, beta):
    """Residues and periods, or the domain error each raises."""
    out = []
    for f in (tautological_residues, elliptic_periods):
        try:
            out.append(f(base, beta))
        except DomainError as e:
            out.append(repr(e))
    return out


def _outputs_on(sheet, base, beta, monkeypatch):
    from hitchin4 import spectral

    with monkeypatch.context() as m:
        m.setattr(spectral, "_sheet", sheet)
        return _outputs(base, beta)


def test_residue_and_period_signs_equal_the_stepped_oracle(monkeypatch):
    # A, B and tau read the sheet only at the contour starts, so equal signs
    # make the periods bit-identical; |beta| from 0.1 to 1e4, then cubic F
    # (m_inf = 0) and quartic F at |beta| from 0.1 to 1e8
    checked = Counter()
    for kind, draws in (("quartic", spectral_draws(random.Random(1616), 400)),
                        ("cubic", spectral_draws(random.Random(1818), 400, top=8, cubic=True)),
                        ("quartic 1e8", spectral_draws(random.Random(1919), 400, top=8))):
        for base, beta in draws:
            if not in_B0(base, beta):
                continue
            assert _outputs(base, beta) == _outputs_on(stepped_sheet, base, beta, monkeypatch), \
                (base, beta)
            checked[kind] += 1
    assert min(checked.values()) > 390, checked


REAL_GRID_MASSES = ((1, 0, 0, 0), (0.5, 0.25, 0.125, 1), (1, 1, 1, 1), (0.3, -0.7, 1.2, 0.5),
                    (0, 0, 0, 1), (0.5, 1, 0.25, 1j), (1j, 0.5, -0.5j, 1))


def test_signs_on_the_real_axis_follow_the_plus_i_eps_rule(monkeypatch):
    # with p0 = 2 and real beta, F is real and the segment from the anchor runs
    # along the real axis through real branch points; each counts as lying on
    # the path's left, so the leftward path runs just above the axis
    checked = on_axis = 0
    for masses in REAL_GRID_MASSES:
        base = build_base(2.0, masses)
        for beta in (s * 10 ** (k / 4) for k in range(-4, 17) for s in (1, -1)):
            if not in_B0(base, beta):
                continue
            assert _outputs(base, beta) == _outputs_on(stepped_sheet, base, beta, monkeypatch), \
                (masses, beta)
            checked += 1
            branch = poly_roots(ComplexPoly(base.curve_coeffs(beta)))
            on_axis += any(abs(e.imag) <= 1e-12 * abs(e) and e.real > 0.1 for e in branch)
    assert checked > 280 and on_axis > 250
    # README: from the anchor 20 to 0.1 the path passes 6.67, 2 and 1 above
    assert tautological_residues(build_base(2.0, (1, 0, 0, 0)), 0.7)["0"] == (1, -1)


def test_sheet_is_principal_at_the_anchor_whatever_the_sign_of_a_zero():
    # F = -(z-1)(z-2)(z-3)(z-4) is negative at its anchor z* = 12, where the
    # principal root is +i sqrt|F(z*)|, also when the coefficients carry Im = -0.0
    for zero in (0.0, -0.0):
        F = np.array([complex(c, zero) for c in (-24, 50, -35, 10, -1)])
        w = _sheet(ComplexPoly(F), poly_roots(ComplexPoly(F)))(12.0 + 0j)
        assert w.imag > 0 and abs(w * w - np.polyval(F[::-1], 12.0)) < 1e-9 * abs(w * w)


# ---------------------------------------------------------------------------
# elliptic periods
# ---------------------------------------------------------------------------

def _lambda_of_tau(tau: complex) -> complex:
    import mpmath as mp

    q = mp.exp(1j * mp.pi * mp.mpc(tau))
    return complex((mp.jtheta(2, 0, q) / mp.jtheta(3, 0, q)) ** 4)


def lambda_misfit(base, beta, tau, relative=False):
    """Distance of lambda(tau) from the anharmonic orbit of the cross-ratio of
    the branch points (the modular-lambda oracle), relative to the orbit point
    if ``relative``."""
    r = np.roots(base.curve_coeffs(beta)[::-1])
    cr = ((r[0] - r[2]) * (r[1] - r[3])) / ((r[1] - r[2]) * (r[0] - r[3]))
    lam = _lambda_of_tau(tau)
    orbit = [cr, 1 - cr, 1 / cr, 1 / (1 - cr), cr / (cr - 1), (cr - 1) / cr]
    return min(abs(lam - o) / (abs(o) if relative else 1.0) for o in orbit)


class ContourUnconverged(Exception):
    """The contour oracle reached its node cap without settling."""


def ellipse_rho(a, b, z):
    """Elliptic coordinate of z relative to the segment [a, b] (>0 off it)."""
    return abs(cmath.acos((2 * z - a - b) / (b - a)).imag)


def cycle_integral(F, branch, a, b, sheet, weight=None, tol=1e-9, nmax=1 << 17):
    """Contour oracle: i times the integral of weight(z) dz / (2 w) once around
    the cut [a, b], by a trapezoid on an ellipse through no other branch point,
    doubling the nodes from 256 until two sums agree to ``tol``; the contour
    starts on ``sheet`` at t = 0 and sqrt(F) is continued along the nodes."""
    others = list(branch)
    for e in (a, b):
        others.pop(int(np.argmin([abs(r - e) for r in others])))
    rho_min = min((ellipse_rho(a, b, r) for r in others), default=2.0)
    if rho_min < 1e-7:
        raise BranchPointCoincidence("branch points collide with the cut")
    r = min(1.2, 0.5 * rho_min)
    mid, half = (a + b) / 2, (b - a) / 2
    start = sheet(complex(mid + half * np.cos(0.0 - 1j * r)))
    prev = None
    n = 256
    while n <= nmax:
        t = 2 * np.pi * np.arange(n) / n
        z = mid + half * np.cos(t - 1j * r)
        dz = -half * np.sin(t - 1j * r) * 1j
        w = continue_sqrt(np.polyval(F[::-1], z), start=start)
        if abs(w[0] - w[-1]) > abs(w[0] + w[-1]):
            raise BranchPointCoincidence("cycle contour crosses a branch cut")
        wz = np.ones_like(z) if weight is None else weight(z)
        val = complex(np.sum(wz / (2 * w) * dz) * (2 * np.pi / n))
        if prev is not None and abs(val - prev) <= tol * max(1.0, abs(val)):
            return val
        prev = val
        n *= 2
    raise ContourUnconverged(f"{nmax} nodes")


def contour_periods(base, beta):
    """Contour oracle of ``elliptic_periods``: the same cycles, sheet and
    normalization of tau, each period by ``cycle_integral``."""
    F = base.curve_coeffs(beta)
    _, branch, ((a, b), (c, *_)) = _fiber(base, beta)
    sheet = _sheet(ComplexPoly(F), branch)
    A, B = cycle_integral(F, branch, a, b, sheet), cycle_integral(F, branch, b, c, sheet)
    tau = B / A
    if tau.imag < 0:
        tau, B = -tau, -B
    return A, B, tau


def _assert_periods_match_the_contour(cases):
    """On each in-B0 case where the contour oracle converges, A, B and tau are
    within 1e-9 relative of it (so their signs agree); returns the count checked."""
    checked = 0
    for base, beta in cases:
        if not in_B0(base, beta):
            continue
        try:
            want = contour_periods(base, beta)
        except (BranchPointCoincidence, ContourUnconverged):
            continue
        got = elliptic_periods(base, beta)
        for g, w in zip(got, want):
            assert abs(g - w) <= 1e-9 * abs(w), (base, beta, got, want)
        checked += 1
    return checked


def test_periods_match_the_contour_oracle_on_random_draws():
    assert _assert_periods_match_the_contour(spectral_draws(random.Random(1717), 420)) > 400


def test_periods_match_the_contour_oracle_on_a_real_axis_grid():
    # F is real for real p0 and beta; the cuts and contour starts then lie on
    # the real axis, where the sheet follows the +i eps rule
    cases = [(build_base(p0, masses), s * 10.0 ** e) for p0 in (0.37, 2.0, -1.0, 3.0, 0.5 + 0.5j)
             for masses in REAL_GRID_MASSES for e in range(-1, 5) for s in (1, -1)]
    assert _assert_periods_match_the_contour(cases) > 380


def test_periods_where_the_contour_crossed_a_cut():
    # the first draw of seed 1: the A-cut runs from the far branch point
    # (|z| ~ 3e4) to one near the punctures, and the other two lie near its end
    # (elliptic coordinate below 0.02), where the contour's continuation of
    # sqrt(F) misses a sheet flip; the seeded AGM has no contour, and tau
    # passes the modular-lambda oracle
    base, beta = next(spectral_draws(random.Random(1), 1))
    with pytest.raises(BranchPointCoincidence, match="crosses a branch cut"):
        contour_periods(base, beta)
    _, _, tau = elliptic_periods(base, beta)
    assert tau.imag > 0 and lambda_misfit(base, beta, tau) < 1e-6


def _b_seed(base, beta):
    """The seed (g_r(p) g_s(q), g_s(p) g_r(q)) of the B-cycle's AGM, p, q = b, c and r, s
    = a, d, each g_e(z) = sqrt(u) sqrt((z - e)/u) with u bisecting the angle [p, z0]
    subtends at e, z0 = mu + h cosh min(1.2, rho/2) as in ``spectral._cycle``."""
    _, _, ((a, b), (c, *d)) = _fiber(base, beta)
    others = [a, *d]
    rho = min(ellipse_rho(b, c, e) for e in others)
    z0 = (b + c) / 2 + (c - b) / 2 * math.cosh(min(1.2, 0.5 * rho))
    us = [(b - e) / abs(b - e) + (z0 - e) / abs(z0 - e) for e in others]
    gb, gc = ([cmath.sqrt(u) * cmath.sqrt((z - e) / u) for e, u in zip(others, us)] + [1]
              for z in (b, c))
    return gb[0] * gc[1], gb[1] * gc[0]


def test_the_first_agm_mean_takes_the_seed_as_given():
    # the seventh draw of seed 1 has a B seed pair with |x - y| > |x + y|: the
    # cycle integral is the AGM of that pair as given, and flipping y to the
    # root nearer x (as every later step does) gets B and tau wrong by over 100%
    base, beta = list(spectral_draws(random.Random(1), 7))[6]
    x, y = _b_seed(base, beta)
    assert abs(x - y) > abs(x + y)
    want = contour_periods(base, beta)
    for got, w in zip(elliptic_periods(base, beta), want):
        assert abs(got - w) <= 1e-9 * abs(w), (got, w)


def test_cubic_periods_match_modular_lambda():
    import mpmath as mp

    p0 = 0.37
    base = build_base(p0, (0, 0, 0, 0))
    _, _, tau = elliptic_periods(base, 1.0)
    want = complex(1j * mp.ellipk(1 - p0) / mp.ellipk(p0))
    assert abs(tau - want) < 1e-8
    lam = _lambda_of_tau(tau)
    orbit = [p0, 1 - p0, 1 / p0, 1 / (1 - p0), p0 / (p0 - 1), (p0 - 1) / p0]
    assert min(abs(lam - o) for o in orbit) < 1e-8


def test_b_cycle_leaves_a_segment_through_a_root():
    # a smooth fiber in B0 whose branch points are about 0.4 apart or more: the least-length
    # cuts are (r0 r3)(r1 r2), so [b, c] = [1.2+0.3i, 0.2+0.3i] runs through the root
    # 0.6+0.3i; B is taken on [a, c], and tau passes the modular-lambda oracle
    base = build_base(2, (0.16225 - 2.730025j, 2.79094 + 2.759363j, 3.093703 - 6.80049j, 1))
    beta = 31.05895 - 59.7085j
    _, branch, ((a, b), (c, d)) = _fiber(base, beta)
    assert in_B0(base, beta) and (a, b, c, d) == (branch[0], branch[3], branch[1], branch[2])
    assert min(abs(x - y) for i, x in enumerate(branch) for y in branch[i + 1:]) > 0.39
    assert abs(((d - b) / (c - b)).imag) < 1e-6 and 0 < ((d - b) / (c - b)).real < 1
    _, _, tau = elliptic_periods(base, beta)
    assert abs(tau - (0.0024931 + 1.0967765j)) < 1e-7
    assert lambda_misfit(base, beta, tau) < 1e-12


def test_lambda_matching_quartic():
    base = generic_base()
    _, _, tau = elliptic_periods(base, BETA)
    assert tau.imag > 0
    # cross-ratio of the branch points, matched through the anharmonic orbit
    assert lambda_misfit(base, BETA, tau) < 1e-6


def test_period_refinement_stability():
    base = generic_base()
    A1, B1, t1 = elliptic_periods(base, BETA)
    A2, B2, t2 = elliptic_periods(base, BETA)  # deterministic repeat
    assert A1 == A2 and B1 == B2 and t1 == t2
    assert abs(t1.imag) > 1e-6


def tau_cycle_integral(base, beta, cut):
    """Oracle: cycle integral of the tautological form w dz / (z(z-1)(z-p0))
    around a given cut; its beta-derivative is the holomorphic period."""
    F = base.curve_coeffs(beta)
    branch = poly_roots(ComplexPoly(F))
    a = min(branch, key=lambda r: abs(r - cut[0]))
    b = min(branch, key=lambda r: abs(r - cut[1]))

    def weight(z):
        return 2 * np.polyval(F[::-1], z) / (z * (z - 1) * (z - base.p0))

    return cycle_integral(F, branch, a, b, _sheet(ComplexPoly(F), branch), weight=weight)


def test_dZ_dbeta_equals_period_on_both_cycles():
    # the beta-derivative of the tautological cycle integral equals the
    # holomorphic period on each basis cycle
    base = generic_base()
    F = np.roots(base.curve_coeffs(BETA)[::-1])
    rs = sorted((complex(r) for r in F), key=lambda r: (r.real, r.imag))
    F0 = base.curve_coeffs(BETA)
    branch = poly_roots(ComplexPoly(F0))
    h = 1e-5
    for cut in ((rs[0], rs[1]), (rs[1], rs[2])):
        Zp = tau_cycle_integral(base, BETA + h, cut)
        Zm = tau_cycle_integral(base, BETA - h, cut)
        dZ = (Zp - Zm) / (2 * h)
        per = cycle_integral(F0, branch, cut[0], cut[1], _sheet(ComplexPoly(F0), branch))
        assert abs(dZ - per) < 1e-5 * abs(per)


def test_singular_beta_rejected():
    base = generic_base()
    for bad in singular_fibers(base):
        with pytest.raises((SingularFiber, BranchPointCoincidence)):
            elliptic_periods(base, bad)
    # a beta sweep puts the error in place of tau on this base's real singular fiber
    real = build_base(2.0, (1, 0, 0, 1))
    bad, = [b.real for b in singular_fibers(real) if abs(b.imag) < 1e-9 and b.real > 0]
    (beta, tau), = tau_sweep(real, bad, bad, 1)
    assert beta == pytest.approx(bad) and isinstance(tau, (SingularFiber, BranchPointCoincidence))


def test_tau_sweep_rows_and_bounds():
    base = generic_base()
    rows = list(tau_sweep(base, 10.0, 1000.0, 3))
    assert [b for b, _ in rows] == pytest.approx([10.0, 100.0, 1000.0])
    assert all(tau == elliptic_periods(base, complex(b))[2] for b, tau in rows)
    for lo, hi in ((0.0, 10.0), (10.0, -1.0), (math.nan, 10.0), (1.0, math.inf)):
        with pytest.raises(ValueError, match="beta bound must be finite and > 0"):
            list(tau_sweep(base, lo, hi, 3))


def _closest_pair_ratio(base, beta):
    """Closest branch-point distance over the ``SingularFiber`` threshold
    sqrt(ROOT_TOL) max(1, |x|, |y|) of the pair."""
    rs = poly_roots(ComplexPoly(base.curve_coeffs(beta)))
    return min(abs(x - y) / (math.sqrt(ROOT_TOL) * max(1.0, abs(x), abs(y)))
               for i, x in enumerate(rs) for y in rs[i + 1:])


def _beta_at_pair_ratio(base, singular, target):
    """beta near a singular fiber whose closest pair sits at ``target`` times the
    threshold; the pair distance grows like sqrt(beta - singular)."""
    eps = 1e-6 * max(1.0, abs(singular))
    for _ in range(5):
        eps *= (target / _closest_pair_ratio(base, singular + eps)) ** 2
    assert abs(_closest_pair_ratio(base, singular + eps) - target) < 1e-3 * target
    return singular + eps


def test_coincidence_threshold_is_the_root_resolution():
    # a pair 3x the threshold is a smooth fiber whose tau passes the
    # modular-lambda oracle; a pair at half of it raises SingularFiber
    base = generic_base()
    for singular in singular_fibers(base):
        above = _beta_at_pair_ratio(base, singular, 3.0)
        _, _, tau = elliptic_periods(base, above)
        assert tau.imag > 0 and lambda_misfit(base, above, tau, relative=True) < 1e-9
        with pytest.raises(SingularFiber, match="coincide"):
            elliptic_periods(base, _beta_at_pair_ratio(base, singular, 0.5))


@pytest.mark.parametrize("p0, masses", [
    (2.0, (0.5, 0.25, 0.125, 1)), (2.0, (1, 1, 1, 1)), (0.37 + 0.2j, (0.3 + 0.1j, 0.7, -0.4j, 0.9))])
def test_a_far_branch_point_is_no_coincidence(p0, masses):
    # at |beta| = 1e8..1e11 the far root -beta/m_inf^2 is the largest, yet no
    # pair is within the root resolution: tau passes the modular-lambda oracle
    # and stays within 1e-6 of its value at 1e7
    base = build_base(p0, masses)
    start = elliptic_periods(base, 1e7 * cmath.exp(0.3j))[2]
    for e in range(8, 12):
        beta = 10.0 ** e * cmath.exp(0.3j)
        _, _, tau = elliptic_periods(base, beta)
        assert abs(tau - start) < 1e-6 and lambda_misfit(base, beta, tau) < 1e-12, (e, tau)


def test_elliptic_periods_find_roots_once_and_build_one_sheet(monkeypatch):
    from hitchin4 import spectral

    calls = {"roots": 0, "sheet": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(spectral, "poly_roots", counted("roots", spectral.poly_roots))
    monkeypatch.setattr(spectral, "_sheet", counted("sheet", spectral._sheet))
    elliptic_periods(generic_base(), BETA)
    assert calls == {"roots": 1, "sheet": 1}


def test_one_fiber_finds_the_roots_once_for_every_answer(monkeypatch):
    # in_B0, the residues and the periods of one (base, beta) read one fiber
    from hitchin4 import spectral

    calls = []
    monkeypatch.setattr(spectral, "poly_roots", lambda p: calls.append(p) or poly_roots(p))
    base = generic_base()
    assert in_B0(base, BETA)
    tautological_residues(base, BETA)
    elliptic_periods(base, BETA)
    assert len(calls) == 1


def test_scalar_and_array_evaluation_agree():
    # one Horner loop evaluates a Python scalar and, elementwise, an array;
    # both agree with np.polyval to rounding
    r = random.Random(77)
    for _ in range(50):
        p = ComplexPoly([complex(r.gauss(0, 3), r.gauss(0, 3)) for _ in range(r.randint(1, 7))])
        zs = [complex(r.gauss(0, 2), r.gauss(0, 2)) for _ in range(8)] + [0, 1, -2.5, 0.3j]
        on_array = p(np.array(zs, dtype=complex))
        for z, w, want in zip(zs, on_array, np.polyval(p.coeffs[::-1], zs)):
            got = p(z)
            assert type(got) is complex
            size = sum(abs(c) * abs(z) ** k for k, c in enumerate(p.coeffs))
            assert max(abs(got - w), abs(got - want)) <= 1e-14 * size, (p, z, got, w, want)


def test_eigvals_called_only_in_poly_roots():
    import inspect
    from pathlib import Path

    from hitchin4 import spectral

    package = Path(spectral.__file__).parent
    sources = [path.read_text() for path in package.rglob("*.py")]
    assert sum(text.count("np.linalg.eigvals(") for text in sources) == 1
    assert "np.linalg.eigvals(" in inspect.getsource(spectral.poly_roots)
    assert sum(text.count("np.roots(") for text in sources) == 0
    # ComplexPoly evaluates every polynomial: no numpy evaluator or derivative
    assert sum(text.count("polyval") + text.count("polyder") for text in sources) == 0


def test_poly_roots_are_np_roots_bit_for_bit():
    # the companion matrix as np.roots builds it, exactly-zero low coefficients included
    r = random.Random(31)
    zero_low = 0
    for _ in range(600):
        deg = r.randint(1, 6)
        c = [complex(r.gauss(0, 1), r.gauss(0, 1)) * 10 ** r.uniform(-3, 3) for _ in range(deg)]
        c = [0j if r.random() < 0.3 else x for x in c] + [complex(r.gauss(0, 1), r.gauss(0, 1))]
        zero_low += c[0] == 0
        p = ComplexPoly(c)
        assert p.degree == deg
        want = [complex(x) for x in np.roots(p.coeffs[::-1])]
        got = poly_roots(p)
        assert all(type(x) is complex for x in got)
        assert repr(got) == repr(want), (c, got, want)
    assert zero_low > 100



def test_tau_large_beta_decay():
    base = generic_base()
    betas = [100.0, 1000.0, 10000.0]
    taus = [elliptic_periods(base, b)[2] for b in betas]
    t1 = elliptic_periods(base, 2.0e4)[2]
    t2 = elliptic_periods(base, 4.0e4)[2]
    tinf = 2 * t2 - t1
    errs = [abs(t - tinf) for t in taus]
    slope = np.polyfit(np.log(betas), np.log(errs), 1)[0]
    assert abs(slope + 1) < 0.1


def test_small_a_periods_are_not_vanishing():
    # |A| falls like |beta|^(-1/2), to 2.6e-15 at beta = 1e30 on this base, so
    # the vanishing-A test is relative to the lattice generators; at 1e300 the
    # np.roots cross-ratio of the lambda oracle breaks down, so tau is compared
    # with its value at 1e30
    base = build_base(2.0, (1, 1, 1, 1))
    A, _, tau = elliptic_periods(base, 1e30)
    assert abs(A) < 1e-14 and lambda_misfit(base, 1e30, tau, relative=True) < 1e-9
    assert abs(elliptic_periods(base, 1e300)[2] - tau) < 1e-9


# ---------------------------------------------------------------------------
# asymptotics of the branch points
# ---------------------------------------------------------------------------

def test_root_shifts_zero_masses():
    base = build_base(2.0, (0, 0, 0, 0))
    out = tau_asymptotics(base, [100.0, 200.0, 400.0])
    for key in ("0", "1", "p0"):
        assert abs(out["fitted"][key]) < 1e-10
        assert abs(out["predicted"][key]) < 1e-14


def test_root_shift_single_mass():
    p0 = 2.0
    base = build_base(p0, (1.0, 0, 0, 0))
    out = tau_asymptotics(base, list(np.logspace(2.3, 4, 7)))
    assert abs(out["predicted"]["0"] + p0) < 1e-12  # -p0 / beta
    assert abs(out["fitted"]["0"] - out["predicted"]["0"]) < 0.01 * abs(out["predicted"]["0"])
    for key in ("1", "p0"):
        assert abs(out["fitted"][key]) < 1e-8


def test_predicted_root_shift_is_read_from_the_puncture_rows():
    # the 1/beta coefficient -f(p)/c'(p) is -m_p^2 c'(p) of each puncture row, bit
    # for bit; evaluating f and c' at p agrees to rounding, relative to max |f_k|
    r = random.Random(37)

    def draw():
        return complex(r.uniform(-2, 2), r.uniform(-2, 2))

    for n in range(5000):
        base = build_base(draw(), [draw() for _ in range(4)])
        rows = {key: -m * m * dc for key, _, dc, m in base.punctures}
        if n < 20:
            out = tau_asymptotics(base, [1e4, 2e4, 4e4])
            assert all(out["predicted"][key] == want for key, want in rows.items())
        f, dc = ComplexPoly(base.f_coeffs), ComplexPoly(base.c_coeffs).derivative()
        scale = max(1.0, *map(abs, base.f_coeffs))
        for key, p, *_ in base.punctures:
            assert abs(rows[key] + f(p) / dc(p)) <= 4e-15 * scale, (n, key)


def test_root_shift_needs_two_distinct_samples():
    # one beta, given once or repeated, cannot separate the 1/beta and 1/beta^2 terms
    base = build_base(2, (1, 0.5, 0.25, 1))
    for samples in ([100], [100, 100], [100, 100.0, 100 + 0j]):
        with pytest.raises(ValueError, match="two distinct beta samples"):
            tau_asymptotics(base, samples)
    assert set(tau_asymptotics(base, [100, 200])["fitted"]) == {"0", "1", "p0"}


def test_root_shift_generic_one_percent():
    base = generic_base()
    out = tau_asymptotics(base, list(np.logspace(2.5, 4, 7)))
    for key in ("0", "1", "p0"):
        pred = out["predicted"][key]
        assert abs(out["fitted"][key] - pred) < 0.01 * abs(pred)


# real p0, then complex p0 and masses, then equal masses
FAR_BASES = ((2, (1, 0.5, 0.25, 1)), (0.37 + 0.2j, (0.3 + 0.1j, 0.7, -0.4j, 0.9)),
             (2 + 0.5j, (1, 1, 1, 1)))


@pytest.mark.parametrize("p0, masses", FAR_BASES)
def test_root_shift_fit_holds_at_large_beta(p0, masses):
    # a companion eigenvalue near a puncture is off by about eps |far root|, which
    # outgrows the 1/beta shift from |beta| ~ 1e10; with the factored steps the fit is
    # within 1e-10 of -f(p)/c'(p) from 1e6, where its own 1/beta^3 term sets the
    # limit, to 1e100
    base = build_base(p0, masses)
    for lo in (6, 12, 50, 98.5):
        out = tau_asymptotics(base, list(np.logspace(lo, lo + 1.5, 7)))
        for key, pred in out["predicted"].items():
            assert abs(out["fitted"][key] - pred) < 1e-10 * abs(pred), (lo, key)


@pytest.mark.parametrize("p0, masses", FAR_BASES)
def test_root_shift_steps_keep_accurate_roots(p0, masses):
    # at |beta| 1e1 to 1e2 the companion roots are accurate: the fit of the refined
    # shifts is the fit of the nearest roots themselves within 1e-9
    base = build_base(p0, masses)
    betas = np.logspace(1, 2, 7)
    design = np.column_stack([1 / betas, 1 / betas ** 2])
    out = tau_asymptotics(base, list(betas))
    for key, p, *_ in base.punctures:
        near = [min(_fiber(base, b)[1], key=lambda r: (abs(r - p), -r.imag)) - p for b in betas]
        raw = np.linalg.lstsq(design, np.array(near), rcond=None)[0][0]
        assert abs(out["fitted"][key] - raw) < 1e-9 * abs(raw), key


def test_fiber_points_flags_and_root_tracking_raise_their_errors():
    # each reachable raise of SpectralFiberPoint, flags and tau_asymptotics, at an
    # input checked by hand
    with pytest.raises(UndefinedFlag, match="residue matrix vanishes at z = 0.0"):
        flags(SpectralFiberPoint(build_base(2, (0, 1, 1, 1)), 0.5, 0.0, 0.0))
    base = build_base(2, (1, 1, 1, 1))
    with pytest.raises(OffCurve, match="cubic residual"):
        SpectralFiberPoint(base, 1.0, 0.3, 5.0)
    with pytest.raises(OffCurve, match="big stratum needs"):
        SpectralFiberPoint(base, 1.0)
    with pytest.raises(OffCurve, match="only when m_inf != 0"):
        SpectralFiberPoint(build_base(2, (1, 1, 1, 0)), 1.0, stratum="extra")
    with pytest.raises(ValueError, match="unknown stratum 'odd'") as exc:
        SpectralFiberPoint(base, 1.0, stratum="odd")
    assert not isinstance(exc.value, DomainError)  # a bad argument, not a point off the curve
    with pytest.raises(RootTrackingLost, match="no root near puncture 0"):
        tau_asymptotics(base, [0.1, 0.2])
