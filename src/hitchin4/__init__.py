"""Exact and numeric toolkit for parabolic SU(2) Hitchin moduli on the
four-punctured sphere: chamber structure of stability weights, the rank-5
homology lattice with its affine D4 Dehn-twist action, the Torelli period
map and its inverse, period-domain membership, spectral-curve diagnostics,
and SL(2,Z) monodromy normalization.

Wall/chamber/period arithmetic is exact (``fractions.Fraction`` and Gaussian
rationals) and loads no numpy; ``spectral`` and ``hkmodel`` compute in complex
double precision with stated tolerances and load numpy.  ``import hitchin4``
runs no layer: each module, and each name exported here, loads on first use,
so a caller (or a CLI command) loads only the layers it reaches.  Every domain
error derives from ``DomainError``.  Periods are stored unitless: x-periods in
units of 4*pi^2, z-periods in units of 2*pi.
"""

from importlib import import_module

__version__ = "0.1.0"

# name -> the module that holds it (each module names itself)
_EXPORTS = {
    **dict.fromkeys(("core", "DomainError", "GaussianRational", "NonConvergence"), "core"),
    **dict.fromkeys(("chambers", "ChamberLabel", "OnWall", "OutOfCube", "ParabolicData",
                     "classify_chamber", "chamber_vertices", "adjacent", "enumerate_chambers",
                     "fixed_point_data", "genericity_violations", "in_R_tilde", "is_generic",
                     "wall_K", "wall_L"), "chambers"),
    **dict.fromkeys(("homology", "I0", "classes_of_square_minus2", "dehn_twist_matrix",
                     "hat_reduction", "intersection", "word_to_auto"), "homology"),
    **dict.fromkeys(("coxeter", "AffineIsometry", "alcove_walk", "apply_to_masses",
                     "enumerate_W_fin", "generator", "target_generator", "vertex_orbit"),
                    "coxeter"),
    **dict.fromkeys(("torelli", "NonGeneric", "PeriodVector", "in_period_domain",
                     "intersection_table", "inverse_torelli", "moment_value", "scale_masses",
                     "torelli_chamber", "torelli_parallel"), "torelli"),
    **dict.fromkeys(("monodromy", "Factorization", "canonical_factorization", "hurwitz_move",
                     "is_I1_twist", "normalize", "vanishing_cycle_match"), "monodromy"),
    **dict.fromkeys(("spectral", "ComplexPoly", "HitchinBase", "SpectralFiberPoint",
                     "build_base", "elliptic_periods", "flags", "higgs_representative",
                     "in_B0", "poly_roots", "singular_fibers", "tau_asymptotics",
                     "tautological_residues"), "spectral"),
    **dict.fromkeys(("hkmodel", "HKParams", "PointTangent", "apply_structure",
                     "moment_residues", "pairings"), "hkmodel"),
}


def __getattr__(name: str):
    """Import the module named in ``_EXPORTS`` on first use of one of its names."""
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    module = import_module(f"{__name__}.{_EXPORTS[name]}")
    value = module if name == _EXPORTS[name] else getattr(module, name)
    globals()[name] = value
    return value


def __dir__():
    """The names bound here and every name in ``_EXPORTS``, loaded or not."""
    return sorted({*globals(), *_EXPORTS})
