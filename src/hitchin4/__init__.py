"""Exact and numeric toolkit for parabolic SU(2) Hitchin moduli on the
four-punctured sphere: chamber structure of stability weights, the rank-5
homology lattice with its affine D4 Dehn-twist action, the Torelli period
map and its inverse, period-domain membership, spectral-curve diagnostics,
and SL(2,Z) monodromy normalization.

Wall/chamber/period arithmetic is exact (``fractions.Fraction`` and Gaussian
rationals) and loads no numpy; ``spectral`` and ``hkmodel`` (complex double
precision with stated tolerances) load with numpy on first use of one of
their names.  Every domain error derives from ``DomainError``.  Periods are
stored unitless: x-periods in units of 4*pi^2, z-periods in units of 2*pi.
"""

from importlib import import_module

from .core import (
    DomainError,
    GaussianRational,
    NonConvergence,
)
from .chambers import (
    ChamberLabel,
    OnWall,
    OutOfCube,
    ParabolicData,
    classify_chamber,
    chamber_vertices,
    adjacent,
    enumerate_chambers,
    fixed_point_data,
    genericity_violations,
    in_R_tilde,
    is_generic,
    wall_K,
    wall_L,
)
from .homology import (
    I0,
    classes_of_square_minus2,
    dehn_twist_matrix,
    hat_reduction,
    intersection,
    word_to_auto,
)
from .coxeter import (
    AffineIsometry,
    alcove_walk,
    apply_to_masses,
    enumerate_W_fin,
    generator,
    target_generator,
    vertex_orbit,
)
from .torelli import (
    NonGeneric,
    PeriodVector,
    in_period_domain,
    intersection_table,
    inverse_torelli,
    moment_value,
    scale_masses,
    torelli_chamber,
    torelli_parallel,
)
from .monodromy import (
    Factorization,
    canonical_factorization,
    hurwitz_move,
    is_I1_twist,
    normalize,
    vanishing_cycle_match,
)

__version__ = "0.1.0"

# name -> the numeric module that holds it (the two modules name themselves)
_LAZY = {
    **dict.fromkeys(("spectral", "ComplexPoly", "HitchinBase", "SpectralFiberPoint",
                     "build_base", "elliptic_periods", "flags", "higgs_representative",
                     "in_B0", "poly_roots", "singular_fibers", "tau_asymptotics",
                     "tautological_residues"), "spectral"),
    **dict.fromkeys(("hkmodel", "HKParams", "PointTangent", "apply_structure",
                     "moment_residues", "pairings"), "hkmodel"),
}


def __getattr__(name: str):
    """Import the numeric module named in ``_LAZY`` on first use of a name."""
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    module = import_module(f"{__name__}.{_LAZY[name]}")
    value = module if name == _LAZY[name] else getattr(module, name)
    globals()[name] = value
    return value
