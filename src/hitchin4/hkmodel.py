"""Pointwise model of the (lambda1, lambda2, theta)-family of hyperkahler
structures on doubled-connection space, restricted to a single fiber with
the area element normalized to one and the background hermitian form h0
the identity (adjoints are conjugate transposes).

Tangent vectors are pairs (a, phi) of trace-free complex 2x2 matrices (the
antiholomorphic connection coefficient and the Higgs coefficient).  Signs
are fixed so that g(v, v) > 0 and omega_S(v, w) = g(S v, w); with those
conventions the holomorphic pairing satisfies Omega_theta = omega_J_theta
+ i omega_K_theta and equals -2 e^{-i theta} l1 sqrt(l2) Tr(phi_w a_v -
phi_v a_w) pointwise.  The 2x2 algebra runs on Python complex scalars (and
``np.vdot``), with no matrix product or array reduction per tangent vector.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .core import from_fields

IDENTITY_TOL = 1e-10


@dataclass(frozen=True)
class HKParams:
    lambda1: float = 1.0
    lambda2: float = 1.0
    theta: float = 0.0

    def __post_init__(self):
        for name in ("lambda1", "lambda2", "theta"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)}")
        if self.lambda1 <= 0 or self.lambda2 <= 0:
            raise ValueError("lambda1, lambda2 must be positive")


@dataclass(frozen=True)
class PointTangent:
    """Components are finite and trace-free: |Tr M| <= 1e-12 (1 + max |M_ij|)."""
    a: np.ndarray
    phi: np.ndarray

    def __post_init__(self):
        for name in ("a", "phi"):
            M = np.asarray(getattr(self, name), dtype=complex)
            object.__setattr__(self, name, M)
            if M.shape != (2, 2):
                raise ValueError("components must be 2x2")
            (x, y), (z, t) = M.tolist()
            if not all(map(cmath.isfinite, (x, y, z, t))):
                raise ValueError(f"{name} must be finite, got {M.tolist()}")
            if abs(x + t) > 1e-12 * (1 + max(abs(x), abs(y), abs(z), abs(t))):
                raise ValueError("components must be trace-free")


def apply_structure(S: str, v: PointTangent, p: HKParams) -> PointTangent:
    """Apply a complex structure: "I" multiplies by i; "J"/"K" are the
    theta-rotated structures J_theta + i K_theta = e^{i theta} (J + i K)."""
    # the image is built unchecked: I, J, K keep Tr = 0, but J, K scale Tr by
    # 1/sqrt(l2) or sqrt(l2) while the 1 of the constructor's bound stays fixed
    if S == "I":
        return from_fields(PointTangent, a=1j * v.a, phi=1j * v.phi)
    if S not in ("J", "K"):
        raise ValueError("structure must be 'I', 'J' or 'K'")
    ph, s = cmath.exp(1j * p.theta) * (1j if S == "K" else 1), math.sqrt(p.lambda2)
    return from_fields(PointTangent, a=ph / s * v.phi.conj().T, phi=-ph * s * v.a.conj().T)


def metric(v: PointTangent, w: PointTangent, p: HKParams) -> float:
    """Re h(v, w), h = 2 l1 Tr(l2 a_v a_w^* + phi_v phi_w^*), Tr(A B^*) = vdot(B, A);
    ``ValueError`` if h overflows the float range (past about 1e154 per entry)."""
    h = 2 * p.lambda1 * (p.lambda2 * complex(np.vdot(w.a, v.a)) + complex(np.vdot(w.phi, v.phi)))
    if not cmath.isfinite(h):
        raise ValueError(f"hermitian pairing overflows the float range: {h}")
    return h.real


def omega(S: str, v: PointTangent, w: PointTangent, p: HKParams) -> float:
    """Kahler form omega_S(v, w) = g(S v, w)."""
    return metric(apply_structure(S, v, p), w, p)


def pairings(v: PointTangent, w: PointTangent, p: HKParams) -> dict:
    """Metric, omega_I and the holomorphic pairing Omega_{I,theta} =
    omega_J + i omega_K of two tangent vectors."""
    return {"g": metric(v, w, p), "omegaI": omega("I", v, w, p),
            "OmegaItheta": omega("J", v, w, p) + 1j * omega("K", v, w, p)}


def _trace_of_product(A: np.ndarray, B: np.ndarray) -> complex:
    """Tr(A B) = sum A_ij B_ji over the four entries."""
    (a, b), (c, d), (e, f), (g, h) = A.tolist() + B.tolist()
    return a * e + b * g + c * f + d * h


def holomorphic_pairing_closed_form(v: PointTangent, w: PointTangent,
                                    p: HKParams) -> complex:
    """-2 e^{-i theta} l1 sqrt(l2) Tr(phi_w a_v - phi_v a_w); agrees with
    pairings()['OmegaItheta'] to rounding."""
    return (-2 * cmath.exp(-1j * p.theta) * p.lambda1 * math.sqrt(p.lambda2)
            * (_trace_of_product(w.phi, v.a) - _trace_of_product(v.phi, w.a)))


def moment_residues(alpha_p, m_p, n_p, p: HKParams) -> tuple[np.ndarray, np.ndarray]:
    """Distributional levels of the complex and real moment maps at a
    puncture, as coefficients of pi delta_p dzbar ^ dz:

      M-level  = 2 i e^{-i theta} l1 sqrt(l2) [[-m, n], [0, m]]
      mu-level = -l1 l2 diag(alpha - 1/2, 1/2 - alpha)
    """
    m = complex(m_p)
    n = complex(n_p)
    a = float(alpha_p)
    Mlev = 2j * np.exp(-1j * p.theta) * p.lambda1 * np.sqrt(p.lambda2) * \
        np.array([[-m, n], [0.0, m]])
    mulev = -p.lambda1 * p.lambda2 * np.array([[a - 0.5, 0.0], [0.0, 0.5 - a]])
    return Mlev, mulev


def identity_deviations(p: HKParams, trials: int, seed: int) -> dict:
    """Largest deviations from S^2 = -1, g(Sv, Sw) = g(v, w) and the closed
    form of Omega_{I,theta} (the last two relative to max(1, g(v,v), g(w,w)))
    over ``trials`` >= 1 random tangent pairs drawn from ``default_rng(seed)``."""
    if trials < 1:
        raise ValueError(f"trial count must be >= 1, got {trials}")
    rng = np.random.default_rng(seed)

    def tf():
        m = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        m[1, 1] = -m[0, 0]
        return m

    worst = dict.fromkeys(("quaternionic", "compatibility", "omega_vs_closed_form"), 0.0)
    for _ in range(trials):
        v, w = PointTangent(tf(), tf()), PointTangent(tf(), tf())
        g, scale = metric(v, w, p), max(1.0, abs(metric(v, v, p)), abs(metric(w, w, p)))
        for S in ("I", "J", "K"):
            s2 = apply_structure(S, apply_structure(S, v, p), p)
            worst["quaternionic"] = max(worst["quaternionic"], *map(
                abs, (s2.a + v.a).ravel().tolist() + (s2.phi + v.phi).ravel().tolist()))
            gv = metric(apply_structure(S, v, p), apply_structure(S, w, p), p)
            worst["compatibility"] = max(worst["compatibility"], abs(gv - g) / scale)
        dev = abs(pairings(v, w, p)["OmegaItheta"] - holomorphic_pairing_closed_form(v, w, p))
        worst["omega_vs_closed_form"] = max(worst["omega_vs_closed_form"], dev / scale)
    return worst


def identities_hold(worst: dict) -> bool:
    """True iff every deviation of ``identity_deviations`` is below ``IDENTITY_TOL``."""
    return all(x < IDENTITY_TOL for x in worst.values())
