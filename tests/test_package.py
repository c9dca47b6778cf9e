"""Package-level contracts: the exact layers load no numpy, each name and each
CLI command loads only the layers it needs, and one base class marks every
domain error."""

import json
import subprocess
import sys
from importlib import import_module
from pathlib import Path

import pytest

import hitchin4
from hitchin4 import core, coxeter, hkmodel, homology, monodromy, spectral, torelli
from hitchin4.core import DomainError

SRC = Path(__file__).resolve().parent.parent / "src"

EXACT_ONLY = """
import sys
import hitchin4, hitchin4.cli
from hitchin4 import chambers, torelli, coxeter, homology, monodromy
from hitchin4.cli import main
assert main(["chamber", "--alpha", "3/10,1/5,1/5,1/5"]) == 0
assert "numpy" not in sys.modules, "numpy loaded"
assert monodromy._class_table.cache_info().currsize == 0, "Hurwitz class table built"
"""


# the hitchin4.* modules a command loads: hitchin4.cli, core and these layers
ALPHA = "3/10,1/5,1/5,1/5"
FACTORS = "[[[1,0],[-1,1]],[[1,1],[0,1]],[[1,0],[-1,1]],[[1,1],[0,1]],[[1,0],[-1,1]],[[1,1],[0,1]]]"
PERIOD_LAYERS = {"chambers", "torelli", "coxeter"}
COMMAND_LAYERS = (
    (["chamber", "--alpha", ALPHA], {"chambers"}),
    (["generic", "--alpha", ALPHA, "--m", "1,0,0,i"], {"chambers"}),
    (["sweep", "--kind", "alpha", "--start", ALPHA, "--stop", "2/5,1/10,1/10,1/10"], {"chambers"}),
    (["periods", "--alpha", ALPHA, "--m", "1,0,0,i", "--basis", "parallel"], PERIOD_LAYERS),
    (["invert", "--x", "1/10,1/10,1/10,1/10", "--z", "0,0,0,0"], PERIOD_LAYERS),
    (["domain", "--x", "0,1/7,2/7,3/7", "--z", "0,1,1,1"], PERIOD_LAYERS),
    (["coxeter", "walk", "--alpha", "2/5,2/5,2/5,1/10"], {"coxeter"}),
    (["coxeter", "apply", "--word", "0,1,4", "--alpha", ALPHA], {"coxeter"}),
    (["homology", "twist", "--word", "0,1,4"], {"coxeter", "homology"}),
    (["monodromy", "normalize", "--factors", FACTORS], {"monodromy"}),
    (["spectral", "fibers", "--p0", "2", "--m", "1,0,0,0"], {"spectral"}),
    (["spectral", "residues", "--p0", "2", "--m", "1,0,0,0", "--beta", "0.7"], {"spectral"}),
    (["spectral", "tau", "--p0", "0.37", "--m", "0.5,0.25,0.125,1", "--beta", "50"],
     {"spectral"}),
    (["hk", "check", "--trials", "10"], {"hkmodel"}),
)
LOADED = """
import json, sys
from hitchin4.cli import main
code = main(sys.argv[1:])
print(json.dumps([code, sorted(m for m in sys.modules if m.startswith("hitchin4.")),
                  "numpy" in sys.modules]))
"""


@pytest.mark.parametrize("argv, layers", COMMAND_LAYERS, ids=[
    "-".join(a for a in argv[:2] if not a.startswith("-")) for argv, _ in COMMAND_LAYERS])
def test_each_cli_command_loads_only_its_layers(argv, layers):
    # a fresh process per command: the package and the CLI load a layer on its
    # first use, and only spectral and hkmodel bring numpy
    proc = subprocess.run([sys.executable, "-c", LOADED, *argv], capture_output=True,
                          text=True, cwd=SRC, timeout=60)
    assert proc.returncode == 0, proc.stderr
    code, modules, numpy = json.loads(proc.stdout.splitlines()[-1])
    assert code == 0
    assert set(modules) == {"hitchin4.cli", "hitchin4.core"} | {f"hitchin4.{m}" for m in layers}
    assert numpy == bool(layers & {"spectral", "hkmodel"})


def test_exact_layers_and_cli_load_no_numpy():
    proc = subprocess.run([sys.executable, "-c", EXACT_ONLY], capture_output=True,
                          text=True, cwd=SRC, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert '"type": "B1"' in proc.stdout


BARE = """
import sys
import hitchin4
assert not [m for m in sys.modules if m.startswith("hitchin4.")], "a layer loaded"
missing = set(hitchin4._EXPORTS) - set(dir(hitchin4))
assert not missing, sorted(missing)
"""


def test_importing_the_package_runs_no_layer_and_dir_lists_every_export():
    proc = subprocess.run([sys.executable, "-c", BARE], capture_output=True,
                          text=True, cwd=SRC, timeout=60)
    assert proc.returncode == 0, proc.stderr


NUMERIC = {
    "hitchin4.spectral": ("ComplexPoly", "HitchinBase", "SpectralFiberPoint", "build_base",
                          "elliptic_periods", "flags", "higgs_representative", "in_B0",
                          "poly_roots", "singular_fibers", "tau_asymptotics",
                          "tautological_residues"),
    "hitchin4.hkmodel": ("HKParams", "PointTangent", "apply_structure", "moment_residues",
                         "pairings"),
}


@pytest.mark.parametrize("path", sorted({f"hitchin4.{m}" for m in hitchin4._EXPORTS.values()}))
def test_lazy_exports_are_the_module_objects(path):
    owner, module = import_module(path), path.rsplit(".", 1)[1]
    names = [name for name, where in hitchin4._EXPORTS.items() if where == module]
    assert {module, *NUMERIC.get(path, ())} <= set(names)
    for name in names:
        assert name in dir(hitchin4), name
        assert getattr(hitchin4, name) is (owner if name == module else getattr(owner, name)), name


def test_unknown_package_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        hitchin4.no_such_name
    for name in ("discriminant_z", "exact_solve"):
        assert not hasattr(hitchin4, name)


def test_row_reduction_and_derived_model_stay_out_of_the_package():
    # one integer face table states the model alcove; row reduction is a test oracle
    for name in ("nullspace", "_row_reduce"):
        assert not hasattr(core, name)
    for name in ("MODEL", "ModelChamber", "MODEL_VERTICES", "_integer_faces"):
        assert not hasattr(coxeter, name)
    assert not hasattr(torelli, "parallel_x_matrix")


def test_aliases_and_fraction_conversions_stay_out_of_the_package():
    # a group element is held once, as its integer form; no name only renames another
    assert not hasattr(coxeter, "_integer_form")
    assert not hasattr(homology, "apply_auto")
    assert not hasattr(core, "Rational")
    # an exact map is an integer AffineIsometry; the Fraction matrix type, its
    # views and the second mass action are test oracles
    for owner, name in ((core, "ExactMatrix"), (hitchin4, "ExactMatrix"),
                        (coxeter, "mass_action"), (hitchin4, "mass_action"),
                        (coxeter.AffineIsometry, "linear"),
                        (coxeter.AffineIsometry, "translation")):
        assert not hasattr(owner, name), name
    assert isinstance(homology.hat_reduction(homology.word_to_auto([0])), coxeter.AffineIsometry)


def test_fraction_bodies_of_the_integer_kernel_stay_out_of_the_package():
    # chambers and torelli compute on integer numerators; the Fraction bodies
    # are the test reference in lattice_oracle
    for name in ("_is_odd_integer", "_MASS_MASKS"):
        assert not hasattr(torelli, name)


def test_residue_quadrature_stays_out_of_the_package():
    # residues are +-m_p in closed form and each period one branch-seeded AGM;
    # the loop quadrature and the period contour are test oracles, and helpers
    # only the tests call live with them; in_B0 pairs roots by _fiber's cuts, and
    # the root-clustering square test is its oracle; the sheet is a product of
    # per-branch-point roots, with no cut function or crossing count; every
    # finite flag is read from the one Higgs matrix, built from scalar coefficients,
    # so ComplexPoly has no arithmetic
    for owner, name in ((spectral, "_loop_mean"), (spectral, "_closed_sheet"),
                        (spectral, "_flag_at"),
                        (spectral, "_g"), (spectral, "_left"),
                        (spectral, "is_square_polynomial"),
                        (spectral, "_cycle_integral"), (spectral, "_continue_sqrt"),
                        (spectral, "_ellipse_rho"), (spectral, "_lattice_generator"),
                        (spectral, "_collapsed_cycle"), (spectral, "COARSE_NODE_CAP"),
                        (homology, "hat_linear_apply"),
                        (homology, "is_lattice_auto"),
                        (spectral.HitchinBase, "quadratic_differential")):
        assert not hasattr(owner, name), name
    arithmetic = {"__add__", "__sub__", "__mul__", "__rmul__", "__eq__", "__repr__"}
    assert not arithmetic & set(vars(spectral.ComplexPoly))


def test_the_roots_of_a_fiber_are_found_in_one_place():
    # F, its ordered roots and its cuts come from spectral._fiber alone: the
    # root order and the pairing have no helpers, and poly_roots is called only
    # there and on the beta-discriminant of singular_fibers
    import inspect

    for name in ("_root_order", "_cut_pairs"):
        assert not hasattr(spectral, name), name
    sources = [path.read_text() for path in (SRC / "hitchin4").rglob("*.py")]
    calls = sum(text.count("poly_roots(") - text.count("def poly_roots(") for text in sources)
    assert calls == 2
    for fn in (spectral._fiber, spectral.singular_fibers):
        assert inspect.getsource(fn).count("poly_roots(") == 1, fn.__name__


def test_one_exact_periods_item_derives_few_integer_forms(monkeypatch):
    # a ParabolicData and a PeriodVector carry their integer form, so the calls
    # of one exact-periods item put a vector over a common denominator for the
    # data's weights and masses, the bare alpha of classify_chamber and the
    # central closed form, not again in each call (re-deriving them there makes 18)
    from fractions import Fraction

    from hitchin4 import chambers

    calls = []

    def counted(qs):
        calls.append(qs)
        return core.common_denominator(qs)

    for name, module in list(sys.modules.items()):
        if name.startswith("hitchin4") and getattr(module, "common_denominator", None) \
                is core.common_denominator and module is not core:
            monkeypatch.setattr(module, "common_denominator", counted)
    alpha = (Fraction(3, 10), Fraction(1, 5), Fraction(1, 7), Fraction(2, 9))
    masses = (core.GaussianRational(1, Fraction(1, 3)), 2, core.GaussianRational(0, -1), 0)
    data = chambers.ParabolicData(alpha, masses)
    assert chambers.classify_chamber(alpha).ctype == "B1"
    assert chambers.is_generic(data)
    torelli.torelli_chamber(data)
    pv = torelli.torelli_parallel(data)
    assert torelli.inverse_torelli(pv) == data
    assert torelli.in_period_domain(pv) == (True, None)
    assert len(calls) <= 6, len(calls)


def test_bare_exact_vectors_are_read_in_core_alone():
    # core.read_vector coerces and counts every bare exact vector: no other module
    # states the count error or coerces a vector argument entry by entry
    import re
    from fractions import Fraction

    own = re.compile(r"length mismatch"
                     r"|(?:as_fraction|as_gaussian|Fraction|complex)\((\w+)\) for \1 in"
                     r"|map\((?:as_fraction|as_gaussian|Fraction|complex),")
    for path in (SRC / "hitchin4").glob("*.py"):
        if path.name != "core.py":
            assert not own.search(path.read_text()), path.name
    assert core.read_vector(["1/2", 3], 2) == (Fraction(1, 2), Fraction(3))


def test_rational_literals_are_read_in_core_alone():
    # core.as_fraction is the one place a string becomes a rational: outside core,
    # Fraction is called only on a numerator and a denominator or an integer
    # literal, and never passed on as a reader; in core, the Gaussian parsers hand
    # their string parts to the constructor, which reads them by as_fraction
    import ast
    import inspect

    for path in (SRC / "hitchin4").glob("*.py"):
        if path.name == "core.py":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if not isinstance(node, ast.Call):
                continue
            assert not any(isinstance(a, ast.Name) and a.id == "Fraction"
                           for a in [*node.args, *(k.value for k in node.keywords)]), \
                (path.name, node.lineno)
            if isinstance(node.func, ast.Name) and node.func.id == "Fraction":
                one = node.args[0] if len(node.args) == 1 else None
                assert len(node.args) == 2 or (isinstance(one, ast.Constant)
                                               and type(one.value) is int), (path.name, node.lineno)
    for fn in (core.GaussianRational.parse, core.GaussianRational.from_json):
        assert "Fraction(" not in inspect.getsource(fn), fn.__name__


def test_base_and_polynomial_quantities_are_derived_where_they_are_built():
    # a HitchinBase states c = z(z-1)(z-p0) and its finite-puncture rows (key, p,
    # c'(p), m_p) once, in its own body, and a ComplexPoly keeps the scale of its
    # trim, so no other place lists the punctures or rescans a polynomial's coefficients
    import inspect
    import re

    assert not hasattr(spectral, "_cubic_coeffs")
    source, own = (SRC / "hitchin4" / "spectral.py").read_text(), \
        inspect.getsource(spectral.HitchinBase)
    for phrase in ("p0 * (p0 - 1)", "(0.0, 1.0, "):
        assert source.count(phrase) == own.count(phrase) == 1, phrase
    rescan = re.compile(r"max\([^\n]*\.coeffs\b")
    for path in (SRC / "hitchin4").glob("*.py"):
        assert not rescan.search(path.read_text()), path.name


def test_cli_handlers_return_library_values():
    # one rule, cli._json_default, writes each value type: no handler converts a
    # rational, a Gaussian rational or a complex number itself or reads a value's
    # integer form, and core has no alias that only renames str or Fraction
    import inspect
    import re

    from hitchin4 import cli

    pair = re.compile(r"\[(\w+)\.real, \1\.imag\]")
    for _, handlers, _ in cli._COMMANDS.values():
        for fn in handlers.values() if isinstance(handlers, dict) else (handlers,):
            source = inspect.getsource(fn)
            for phrase in ("to_json(", "_rstr", "rational_to_str", ".ints"):
                assert phrase not in source, (fn.__name__, phrase)
            assert not pair.search(source), fn.__name__
    assert "default=_json_default" in inspect.getsource(cli.main)
    for owner, name in ((core, "rational_to_str"), (core, "rational_from_str"), (cli, "_rstr")):
        assert not hasattr(owner, name), name


def test_the_package_stays_within_its_line_budget():
    # the ROADMAP budget for src/hitchin4: a change that grows the package
    # past it has to shrink something else or revisit the budget
    lines = sum(len(path.read_text().splitlines()) for path in (SRC / "hitchin4").glob("*.py"))
    assert lines <= 2522, lines


def _subclasses(cls):
    for sub in cls.__subclasses__():
        yield sub
        yield from _subclasses(sub)


def test_domain_errors_are_exactly_the_seventeen():
    classes = list(_subclasses(DomainError))
    names = {f"{c.__module__}.{c.__name__}" for c in classes}
    assert names == {
        "hitchin4.chambers.OnWall", "hitchin4.chambers.OutOfCube",
        "hitchin4.torelli.NonGeneric", "hitchin4.torelli.InconsistentFiberRelation",
        "hitchin4.core.NonConvergence",
        "hitchin4.coxeter.NotAVertex", "hitchin4.coxeter.WalkLimitExceeded",
        "hitchin4.spectral.DegenerateP0", "hitchin4.spectral.DegenerateConfiguration",
        "hitchin4.spectral.BranchPointCollision", "hitchin4.spectral.SingularFiber",
        "hitchin4.spectral.BranchPointCoincidence", "hitchin4.spectral.RootTrackingLost",
        "hitchin4.spectral.OffCurve", "hitchin4.spectral.UndefinedFlag",
        "hitchin4.monodromy.NotParabolic", "hitchin4.monodromy.Exhausted",
    }
    # DomainError comes first and the old base stays, so old handlers still match
    assert all(c.__bases__[0] is DomainError and len(c.__bases__) == 2 for c in classes)
    assert hitchin4.DomainError is DomainError
