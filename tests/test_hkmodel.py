import numpy as np
import pytest

from fractions import Fraction

from hitchin4.core import GaussianRational
from hitchin4.hkmodel import (
    IDENTITY_TOL,
    HKParams,
    PointTangent,
    apply_structure,
    holomorphic_pairing_closed_form,
    identities_hold,
    identity_deviations,
    metric,
    moment_residues,
    omega,
    pairings,
)

rng = np.random.default_rng(1618)


def rand_tangent():
    def tf():
        m = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        m[1, 1] = -m[0, 0]
        return m

    return PointTangent(tf(), tf())


def rand_params():
    return HKParams(float(rng.uniform(0.2, 3.0)), float(rng.uniform(0.2, 3.0)),
                    float(rng.uniform(0, 2 * np.pi)))


def close(a, b, tol=1e-10, scale=1.0):
    return abs(a - b) <= tol * max(1.0, scale)


def test_tangent_validation():
    with pytest.raises(ValueError):
        PointTangent(np.eye(2), np.zeros((2, 2)))


def test_params_must_be_finite():
    # max(0.0, nan) is 0.0, so a NaN or infinite parameter would pass every identity check
    for bad in ({"lambda1": float("nan")}, {"lambda2": float("inf")}, {"theta": float("nan")},
                {"theta": float("-inf")}):
        (name, value), = bad.items()
        with pytest.raises(ValueError, match=f"{name} must be finite, got {value}"):
            HKParams(**bad)
    with pytest.raises(ValueError, match="positive"):
        HKParams(0.0, 1.0)
    assert HKParams(1e300, 1e300, 1e300).lambda2 == 1e300  # large finite values stay valid


def test_tangent_components_must_be_finite():
    # an infinite entry makes the trace bound infinite and a NaN trace compares
    # false, so neither would fail the trace-free check
    inf, nan, zero = float("inf"), float("nan"), np.zeros((2, 2))
    for bad in ([[1, inf], [0, 5]], [[nan, 0], [0, 0]], [[0, 1], [complex(0, -inf), 0]],
                [[complex(nan, 1), 0], [0, complex(-nan, -1)]]):
        with pytest.raises(ValueError, match=r"^a must be finite, got \["):
            PointTangent(bad, zero)
        with pytest.raises(ValueError, match=r"^phi must be finite, got \["):
            PointTangent(zero, bad)
    big = [[1e300, 1e300], [1e300, -1e300]]  # large finite entries stay valid
    assert PointTangent(big, zero).a[0, 1] == PointTangent(zero, big).phi[0, 1] == 1e300


def test_an_overflowing_pairing_is_an_error():
    # Tr(a a^*) of entries past about 1e154 overflows to inf - inf inside the
    # complex sum: a nan metric would fail no identity check (max skips nan)
    v = PointTangent([[1e200, 0], [0, -1e200]], np.zeros((2, 2)))
    for pairing in (lambda: metric(v, v, HKParams()), lambda: pairings(v, v, HKParams())):
        with pytest.raises(ValueError, match="hermitian pairing overflows the float range"):
            pairing()
    w = PointTangent([[1e150, 0], [0, -1e150]], np.zeros((2, 2)))
    assert metric(w, w, HKParams()) == pytest.approx(4e300)  # large but finite


def test_J_squares_to_minus_one_at_unit_params():
    p = HKParams(1.0, 1.0, 0.0)
    v = rand_tangent()
    jj = apply_structure("J", apply_structure("J", v, p), p)
    assert np.allclose(jj.a, -v.a) and np.allclose(jj.phi, -v.phi)


def test_quaternionic_relations():
    for _ in range(30):
        p = rand_params()
        v = rand_tangent()
        for S in ("I", "J", "K"):
            ss = apply_structure(S, apply_structure(S, v, p), p)
            assert np.allclose(ss.a, -v.a, atol=1e-12)
            assert np.allclose(ss.phi, -v.phi, atol=1e-12)
        ij = apply_structure("I", apply_structure("J", v, p), p)
        k = apply_structure("K", v, p)
        assert np.allclose(ij.a, k.a) and np.allclose(ij.phi, k.phi)
        jk = apply_structure("J", apply_structure("K", v, p), p)
        i = apply_structure("I", v, p)
        assert np.allclose(jk.a, i.a) and np.allclose(jk.phi, i.phi)
        ki = apply_structure("K", apply_structure("I", v, p), p)
        j = apply_structure("J", v, p)
        assert np.allclose(ki.a, j.a) and np.allclose(ki.phi, j.phi)


def test_theta_rotation_identity():
    # J at theta = pi/2 equals K at theta = 0
    v = rand_tangent()
    p1 = HKParams(1.3, 0.7, np.pi / 2)
    p0 = HKParams(1.3, 0.7, 0.0)
    a = apply_structure("J", v, p1)
    b = apply_structure("K", v, p0)
    assert np.allclose(a.a, b.a) and np.allclose(a.phi, b.phi)


def test_metric_positive_definite():
    for _ in range(50):
        p = rand_params()
        v = rand_tangent()
        assert metric(v, v, p) > 0


def test_antisymmetry():
    for _ in range(20):
        p = rand_params()
        v, w = rand_tangent(), rand_tangent()
        assert close(omega("I", v, w, p), -omega("I", w, v, p),
                     scale=abs(omega("I", v, w, p)))
        om = pairings(v, w, p)["OmegaItheta"]
        om2 = pairings(w, v, p)["OmegaItheta"]
        assert close(om, -om2, scale=abs(om))


def test_metric_compatibility():
    for _ in range(30):
        p = rand_params()
        v, w = rand_tangent(), rand_tangent()
        g = metric(v, w, p)
        for S in ("I", "J", "K"):
            gs = metric(apply_structure(S, v, p), apply_structure(S, w, p), p)
            assert close(gs, g, scale=max(abs(g), metric(v, v, p), metric(w, w, p)))


def test_Omega_equals_omegaJ_plus_i_omegaK_and_closed_form():
    for _ in range(50):
        p = rand_params()
        v, w = rand_tangent(), rand_tangent()
        pr = pairings(v, w, p)
        scale = max(metric(v, v, p), metric(w, w, p))
        want = omega("J", v, w, p) + 1j * omega("K", v, w, p)
        assert close(pr["OmegaItheta"], want, scale=scale)
        assert close(pr["OmegaItheta"],
                     holomorphic_pairing_closed_form(v, w, p), scale=scale)


def test_Omega_scaling_in_theta_and_lambdas():
    # Omega coefficient is e^{-i theta} l1 sqrt(l2); omega_I is
    # theta-independent
    v, w = rand_tangent(), rand_tangent()
    base = HKParams(1.0, 1.0, 0.0)
    om0 = pairings(v, w, base)["OmegaItheta"]
    for _ in range(10):
        p = rand_params()
        om = pairings(v, w, p)["OmegaItheta"]
        factor = np.exp(-1j * p.theta) * p.lambda1 * np.sqrt(p.lambda2)
        assert close(om, om0 * factor, tol=1e-9, scale=abs(om0 * factor))
        assert close(omega("I", v, w, p) / p.lambda1,
                     omega("I", v, w, HKParams(1.0, p.lambda2, 1.234)) / 1.0,
                     tol=1e-9, scale=abs(om0))


def test_moment_residue_plugins():
    p = HKParams(1.0, 1.0, 0.0)
    Mlev, mulev = moment_residues(Fraction(1, 4), GaussianRational(0),
                                  GaussianRational(0), p)
    assert np.allclose(mulev, np.diag([0.25, -0.25]))
    assert np.allclose(Mlev, np.zeros((2, 2)))

    Mlev, mulev = moment_residues(Fraction(1, 3), GaussianRational(Fraction(1, 2)),
                                  GaussianRational(2, 3), p)
    assert np.allclose(Mlev, 2j * np.array([[-0.5, 2 + 3j], [0, 0.5]]))
    assert np.allclose(mulev, np.diag([1 / 6, -1 / 6]))
    # m = 0 keeps the level strictly upper triangular
    Mlev, _ = moment_residues(Fraction(1, 4), GaussianRational(0),
                              GaussianRational(1), p)
    assert Mlev[1, 0] == 0 and Mlev[0, 0] == 0 and Mlev[1, 1] == 0
    # shifting theta by pi flips the sign
    Mpi, _ = moment_residues(Fraction(1, 3), GaussianRational(1),
                             GaussianRational(0), HKParams(1, 1, np.pi))
    M0, _ = moment_residues(Fraction(1, 3), GaussianRational(1),
                            GaussianRational(0), p)
    assert np.allclose(Mpi, -M0)


def test_identity_verdict():
    # the README example passes; a deviation at or above 1e-10 fails
    worst = identity_deviations(HKParams(1.0, 2.0, 0.7), 1000, 0)
    assert IDENTITY_TOL == 1e-10 and identities_hold(worst)
    for key in worst:
        for dev in (IDENTITY_TOL, 1.5e-10):
            assert not identities_hold({**worst, key: dev})
    assert identities_hold({**worst, "quaternionic": 0.99e-10})
    for trials in (0, -1):
        with pytest.raises(ValueError, match=f"trial count must be >= 1, got {trials}"):
            identity_deviations(HKParams(), trials, 0)


# ---------------------------------------------------------------------------
# the numpy formulas of the matrix implementation, kept as a reference for
# the scalar 2x2 algebra of the module
# ---------------------------------------------------------------------------

def ref_trace_free(M):
    return abs(np.trace(M)) <= 1e-12 * (1 + np.abs(M).max())


def ref_apply(S, v, p):
    ph, s = np.exp(1j * p.theta), np.sqrt(p.lambda2)
    if S == "I":
        return 1j * v.a, 1j * v.phi
    if S == "J":
        return ph / s * v.phi.conj().T, -ph * s * v.a.conj().T
    return 1j * ph / s * v.phi.conj().T, -1j * ph * s * v.a.conj().T


def ref_metric(a_v, phi_v, w, p):
    return (2 * p.lambda1 * (p.lambda2 * np.trace(a_v @ w.a.conj().T)
                             + np.trace(phi_v @ w.phi.conj().T))).real


def ref_closed_form(v, w, p):
    return (-2 * np.exp(-1j * p.theta) * p.lambda1 * np.sqrt(p.lambda2)
            * (np.trace(w.phi @ v.a) - np.trace(v.phi @ w.a)))


def near_threshold(r):
    """A 2x2 matrix whose trace is 0, or between half and twice the bound
    1e-12 (1 + max |M_ij|) of ``PointTangent``, in a random direction."""
    m = r.normal(size=(2, 2)) + 1j * r.normal(size=(2, 2))
    m *= 10 ** r.uniform(-3, 3)
    m[1, 1] = -m[0, 0]
    if r.random() < 0.4:
        m[1, 1] += (2 ** r.uniform(-1, 1) * 1e-12 * (1 + np.abs(m).max())
                    * np.exp(2j * np.pi * r.random()))
    return m


def test_scalar_algebra_matches_the_matrix_reference():
    r = np.random.default_rng(2026)
    accepted = rejected = 0
    for _ in range(2000):
        p = HKParams(10 ** r.uniform(-1, 1), 10 ** r.uniform(-3, 3), r.uniform(-50, 50))
        ms = [near_threshold(r) for _ in range(4)]
        want = all(map(ref_trace_free, ms))
        try:
            v, w = PointTangent(ms[0], ms[1]), PointTangent(ms[2], ms[3])
        except ValueError as e:
            assert not want and "trace-free" in str(e)
            rejected += 1
            continue
        assert want
        accepted += 1
        size = np.sqrt(sum(np.abs(M).max() ** 2 for M in ms))
        scale = 2 * p.lambda1 * max(1.0, p.lambda2) * 4 * size ** 2
        for S in ("I", "J", "K"):
            assert abs(omega(S, v, w, p) - ref_metric(*ref_apply(S, v, p), w, p)) <= 1e-14 * scale
            Sv = apply_structure(S, v, p)
            for got, ref in zip((Sv.a, Sv.phi), ref_apply(S, v, p)):
                assert np.abs(got - ref).max() <= 1e-15 * np.abs(ref).max()
        pr, g = pairings(v, w, p), ref_metric(v.a, v.phi, w, p)
        assert abs(metric(v, w, p) - g) <= 1e-14 * scale and pr["g"] == metric(v, w, p)
        assert abs(pr["omegaI"] - ref_metric(*ref_apply("I", v, p), w, p)) <= 1e-14 * scale
        ref_Omega = (ref_metric(*ref_apply("J", v, p), w, p)
                     + 1j * ref_metric(*ref_apply("K", v, p), w, p))
        assert abs(pr["OmegaItheta"] - ref_Omega) <= 1e-14 * scale
        assert abs(holomorphic_pairing_closed_form(v, w, p) - ref_closed_form(v, w, p)) \
            <= 1e-14 * scale
    assert accepted > 300 and rejected > 300, (accepted, rejected)
    worst = identity_deviations(HKParams(1.0, 2.0, 0.7), 1000, 0)
    assert identities_hold(worst) and max(worst.values()) < 1e-15, worst


def test_structures_keep_every_accepted_tangent():
    # J and K scale the trace by 1/sqrt(l2) or sqrt(l2) while the 1 of the
    # bound does not scale, so re-checking their image rejected this tangent
    phi = np.array([[1, 0.5], [0.2, -1 + 1.9e-12]])
    v = PointTangent(np.array([[0.3j, 0.1], [0, -0.3j]]), phi)
    r = np.random.default_rng(7)
    tangents = [v] + [PointTangent(*ms) for ms in
                      ((near_threshold(r), near_threshold(r)) for _ in range(200))
                      if all(map(ref_trace_free, ms))]
    for i, t in enumerate(tangents):
        p = HKParams(1.0, 0.01 if i == 0 else 10 ** r.uniform(-3, 3), r.uniform(0, 7))
        for S in ("I", "J", "K"):
            s2 = apply_structure(S, apply_structure(S, t, p), p)
            size = max(np.abs(t.a).max(), np.abs(t.phi).max())
            assert max(np.abs(s2.a + t.a).max(), np.abs(s2.phi + t.phi).max()) <= 1e-15 * size
    assert len(tangents) > 100


def test_point_tangent_shape_and_structure_name_are_checked():
    with pytest.raises(ValueError, match="components must be 2x2"):
        PointTangent(np.zeros((3, 3)), np.zeros((2, 2)))
    v = PointTangent(np.zeros((2, 2)), np.zeros((2, 2)))
    with pytest.raises(ValueError, match="structure must be 'I', 'J' or 'K'"):
        apply_structure("X", v, HKParams(1.0, 1.0, 0.0))
