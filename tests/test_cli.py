import json
import re
import sys
import warnings
from pathlib import Path

import pytest

from hitchin4.cli import _COMMANDS, main
from hitchin4.monodromy import canonical_factorization, hurwitz_move


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def run_json(capsys, *argv):
    code, out = run_cli(capsys, *argv)
    return code, json.loads(out)


def test_periods_example(capsys):
    code, doc = run_json(capsys, "periods", "--alpha", "3/10,1/5,1/5,1/5",
                         "--m", "0,0,0,0")
    assert code == 0
    assert doc["result"]["x"] == ["3/10", "1/10", "1/10", "1/10", "1/10"]
    assert doc["result"]["x_unit"] == "4*pi^2"
    assert doc["parameters"]["alpha"] == "3/10,1/5,1/5,1/5"


def test_invert_roundtrip(capsys):
    code, doc = run_json(capsys, "periods", "--alpha", "3/10,1/5,1/5,1/5",
                         "--m", "1,0,0,i", "--basis", "parallel")
    assert code == 0
    from hitchin4.core import GaussianRational
    xs = ",".join(doc["result"]["x"][1:])
    zs = ",".join(str(GaussianRational.from_json(z)) for z in doc["result"]["z"][1:])
    code, doc2 = run_json(capsys, "invert", f"--x={xs}", f"--z={zs}")
    assert code == 0
    assert doc2["result"]["alpha"] == ["3/10", "1/5", "1/5", "1/5"]
    assert doc2["result"]["m"][0] == {"re": "1", "im": "0"}
    assert doc2["result"]["m"][3] == {"re": "0", "im": "1"}


def test_exact_complex_options_take_decimal_parts(capsys):
    # --m and --z read each part of a+bi as a Fraction literal: 1.5i is 3/2i, and
    # 1e-3+2i splits at the +, not at the exponent's sign
    for argv in (["generic", "--alpha", "3/10,1/5,1/5,1/5"],
                 ["periods", "--alpha", "3/10,1/5,1/5,1/5", "--basis", "parallel"]):
        decimal = run_json(capsys, *argv, "--m", "1.5i,1e-3+2i,-0.25-0.5i,0")
        rational = run_json(capsys, *argv, "--m", "3/2i,1/1000+2i,-1/4-1/2i,0")
        assert decimal[0] == rational[0] == 0
        assert decimal[1]["result"] == rational[1]["result"]
    code, doc = run_json(capsys, "invert", "--x", "1/10,1/10,1/10,1/10", "--z", "1e-3+2i,0,0,0")
    assert code == 0 and doc["result"]["m"][0] == {"re": "-1/4000", "im": "-1/2"}


def test_invert_and_domain_take_all_five_periods(capsys):
    # every period of the parallel basis, the central one included, comes back to
    # alpha and m; a mix of four and five components is a usage error
    code, doc = run_json(capsys, "periods", "--alpha", "3/10,1/5,1/5,1/5",
                         "--m", "1,0,0,i", "--basis", "parallel")
    from hitchin4.core import GaussianRational
    xs = doc["result"]["x"]
    zs = [str(GaussianRational.from_json(z)) for z in doc["result"]["z"]]
    code, inv = run_json(capsys, "invert", f"--x={','.join(xs)}", f"--z={','.join(zs)}")
    assert code == 0 and inv["result"] == {"alpha": ["3/10", "1/5", "1/5", "1/5"], "m": [
        {"re": "1", "im": "0"}, {"re": "0", "im": "0"}, {"re": "0", "im": "0"},
        {"re": "0", "im": "1"}]}
    code, dom = run_json(capsys, "domain", f"--x={','.join(xs)}", f"--z={','.join(zs)}")
    assert code == 0 and dom["result"] == {"in_domain": True, "witness": None}
    for x, z in ((xs[1:], zs), (xs, zs[1:])):
        for cmd in ("invert", "domain"):
            assert main([cmd, f"--x={','.join(x)}", f"--z={','.join(z)}"]) == 1
            assert "length mismatch" in capsys.readouterr().err


def test_chamber_on_wall_exit_2(capsys):
    code, doc = run_json(capsys, "chamber", "--alpha", "1/4,1/4,1/4,1/4")
    assert code == 2
    assert doc["error"] == "OnWall"


def test_each_value_type_has_one_json_form():
    from fractions import Fraction

    from hitchin4.chambers import classify_chamber
    from hitchin4.cli import _json_default
    from hitchin4.core import GaussianRational

    alpha = (Fraction(3, 10), Fraction(1, 5), Fraction(1, 5), Fraction(1, 5))
    assert _json_default(1.5 - 2j) == [1.5, -2.0]
    assert _json_default(GaussianRational(Fraction(1, 3), -2)) == {"re": "1/3", "im": "-2"}
    assert [_json_default(q) for q in (Fraction(-3, 10), Fraction(4))] == ["-3/10", "4"]
    assert _json_default(classify_chamber(alpha)) == "B1_1[{},{1,2},{1,3},{1,4}]"
    assert json.loads(json.dumps({"m": (GaussianRational(1, 1), 2j)},
                                 default=_json_default)) == {"m": [{"re": "1", "im": "1"},
                                                                   [0.0, 2.0]]}


def test_usage_error_exit_1(capsys):
    with pytest.raises(SystemExit) as e:
        main(["chamber"])  # missing --alpha
    assert e.value.code == 1


def test_deterministic_output(capsys):
    _, out1 = run_cli(capsys, "chamber", "--alpha", "3/10,1/5,1/5,1/5")
    _, out2 = run_cli(capsys, "chamber", "--alpha", "3/10,1/5,1/5,1/5")
    assert out1 == out2


def test_generic_reports_violations(capsys):
    code, doc = run_json(capsys, "generic", "--alpha", "1/4,1/4,1/4,1/4",
                         "--m", "0,0,0,0")
    assert code == 0
    assert doc["result"]["generic"] is False
    assert {"d": -3, "e": [1, 1, 1, 1]} in doc["result"]["violated"]


def test_domain_check(capsys):
    code, doc = run_json(capsys, "domain", "--x", "1/10,1/10,1/10,1/10",
                         "--z", "0,0,0,0")
    assert code == 0 and doc["result"]["in_domain"] is True
    code, doc = run_json(capsys, "domain", "--x", "0,1/7,2/7,3/7",
                         "--z", "0,1,1,1")
    assert doc["result"]["in_domain"] is False
    assert doc["result"]["witness"]["family"] == "H_k_i"


def test_coxeter_walk_and_apply(capsys):
    code, doc = run_json(capsys, "coxeter", "walk", "--alpha", "2/5,2/5,2/5,1/10")
    assert code == 0
    assert doc["result"]["word"]
    code, doc = run_json(capsys, "coxeter", "apply", "--word", "0,1,4",
                         "--alpha", "3/10,1/5,1/5,1/5", "--m", "0,0,0,0")
    assert code == 0 and len(doc["result"]["alpha"]) == 4


def test_homology_twist(capsys):
    code, doc = run_json(capsys, "homology", "twist", "--word", "0,1,4")
    assert code == 0
    assert len(doc["result"]["matrix"]) == 5
    assert doc["result"]["hatB_unit"] == "4*pi^2"


def test_spectral_fibers_and_residues(capsys):
    code, doc = run_json(capsys, "spectral", "fibers", "--p0", "2", "--m", "1,0,0,0")
    assert code == 0 and len(doc["result"]["singular_beta"]) == 6
    code, doc = run_json(capsys, "spectral", "residues", "--p0", "2",
                         "--m", "1,0,0,0", "--beta", "0.7")
    assert code == 0
    plus = complex(*doc["result"]["0"][0])
    assert min(abs(plus - 1), abs(plus + 1)) < 1e-7


def test_spectral_residues_zero_masses_at_zero_beta(capsys):
    code, doc = run_json(capsys, "spectral", "residues", "--p0", "2",
                         "--m", "0,0,0,0", "--beta", "0")
    assert code == 0
    assert doc["result"] == {key: [[0.0, 0.0]] * 2 for key in ("0", "1", "p0", "inf")}


def test_spectral_residues_refuse_a_trimmed_far_branch_point(capsys):
    code, doc = run_json(capsys, "spectral", "residues", "--p0", "2",
                         "--m", "0,0,0,1", "--beta", "1e12")
    assert code == 2
    assert doc["error"] == "BranchPointCollision"
    assert doc["message"].startswith("trimmed far branch point")


def test_spectral_tau_sweep_csv(capsys):
    code, out = run_cli(capsys, "spectral", "tau", "--p0", "0.37",
                        "--m", "0.5,0.25,0.125,1", "--sweep", "50,200,3")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "beta,re_tau,im_tau"
    assert len(lines) == 4
    code, out = run_cli(capsys, "spectral", "tau", "--p0", "2", "--m", "1,0,0,0",
                        "--sweep", "10,10000,0")
    assert code == 0 and out == "beta,re_tau,im_tau\n"


def test_spectral_tau_at_one_beta(capsys):
    # without --sweep, tau prints A, B and tau of elliptic_periods as JSON
    from hitchin4.spectral import build_base, elliptic_periods

    code, doc = run_json(capsys, "spectral", "tau", "--p0", "0.37",
                         "--m", "0.5,0.25,0.125,1", "--beta", "50")
    assert code == 0
    want = elliptic_periods(build_base(0.37, (0.5, 0.25, 0.125, 1)), 50)
    assert [complex(*doc["result"][k]) for k in ("A", "B", "tau")] == list(want)
    # a smooth fiber whose segment [b, c] runs through a root: B is taken on [a, c]
    code, doc = run_json(capsys, "spectral", "tau", "--p0", "2", "--m",
                         "0.16225-2.730025i,2.79094+2.759363i,3.093703-6.80049i,1",
                         "--beta", "31.05895-59.7085i")
    assert code == 0
    assert abs(complex(*doc["result"]["tau"]) - (0.0024931 + 1.0967765j)) < 1e-7


def test_monodromy_normalize_cli(capsys):
    factors = json.dumps([[[1, 0], [-1, 1]], [[1, 1], [0, 1]]] * 3)
    code, doc = run_json(capsys, "monodromy", "normalize", "--factors", factors)
    assert code == 0
    assert doc["result"]["moves"] == []


def test_hk_check_cli(capsys):
    code, doc = run_json(capsys, "hk", "check", "--lambda1", "1", "--lambda2", "2",
                         "--theta", "0.7", "--trials", "50")
    assert code == 0
    assert doc["result"]["pass"] is True
    code, doc = run_json(capsys, "hk", "check", "--lambda2", "1e300", "--trials", "5")
    assert code == 0 and doc["parameters"]["lambda2"] == 1e300  # large but finite


def test_sweep_alpha_segment(capsys):
    code, out = run_cli(capsys, "sweep", "--kind", "alpha",
                        "--start", "3/10,1/5,1/5,1/5",
                        "--stop", "2/5,1/10,1/10,1/10", "--samples", "11")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "t,alpha,chamber"
    assert len(lines) == 12
    # chamber column transitions B1 -> wall error -> E1
    labels = [ln.split(",")[-1] for ln in lines[1:]]
    assert labels[0] == "B1_1"
    assert labels[-1] == "E1_1"

    # with 5 samples the wall point t = 3/4 is sampled exactly
    code, out = run_cli(capsys, "sweep", "--kind", "alpha",
                        "--start", "3/10,1/5,1/5,1/5",
                        "--stop", "2/5,1/10,1/10,1/10", "--samples", "5")
    labels = [ln.split(",")[-1] for ln in out.strip().splitlines()[1:]]
    assert labels == ["B1_1", "B1_1", "B1_1", "error:OnWall", "E1_1"]


def test_sweep_empty_grid(capsys):
    code, out = run_cli(capsys, "sweep", "--kind", "alpha",
                        "--start", "3/10,1/5,1/5,1/5",
                        "--stop", "2/5,1/10,1/10,1/10", "--samples", "0")
    assert code == 0
    assert out.strip() == "t,alpha,chamber"


def test_coxeter_apply_rejects_letters_outside_generators(capsys):
    for word in ("--word=9", "--word=-1", "--word=0,5"):
        code = main(["coxeter", "apply", word, "--alpha", "3/10,1/5,1/5,1/5"])
        out, err = capsys.readouterr()
        assert code == 1 and out == ""
        assert "usage error" in err


def test_zero_denominator_is_usage_error(capsys):
    for argv in (["chamber", "--alpha", "1/0,1/5,1/5,1/5"],
                 ["generic", "--alpha", "1/5,1/5,1/5,1/5", "--m", "1/0,0,0,0"],
                 ["generic", "--alpha", "1/5,1/5,1/5,1/5", "--m", "0,2/0i,0,0"],
                 ["invert", "--x", "1/10,1/0,1/10,1/10", "--z", "0,0,0,0"]):
        code = main(argv)
        out, err = capsys.readouterr()
        assert code == 1 and out == ""
        assert "/0" in err


def test_walk_step_limit_exit_2(capsys):
    code, doc = run_json(capsys, "coxeter", "walk", "--alpha", "100000,1,1,1")
    assert code == 2
    assert doc["error"] == "WalkLimitExceeded"


PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
sys.path.append(str(PERFBENCH))
import clicold  # noqa: E402  the golden CLI inputs and their comparisons

GOLDEN = json.loads(Path(clicold.GOLDEN_PATH).read_text())


def _golden_entries(*comparisons):
    """(entry, comparison) for the entries of perfbench/golden/cli.json that
    perfbench/clicold.py checks by one of ``comparisons``; INPUTS[k] there
    holds (group, comparison, argv) of entry k."""
    assert [g["argv"] for g in GOLDEN] == [argv for _, _, argv in clicold.INPUTS]
    return [(g, how) for g, (_, how, _) in zip(GOLDEN, clicold.INPUTS) if how in comparisons]


GOLDEN_EXACT = [g for g, _ in _golden_entries("exact")]
GOLDEN_ERRORS = [g for g, _ in _golden_entries("error_name")]
GOLDEN_NUMERIC = _golden_entries("fibers", "residues", "tau_csv", "hk")


@pytest.mark.parametrize("entry", GOLDEN_EXACT, ids=[" ".join(g["argv"][:2])
                                                     for g in GOLDEN_EXACT])
def test_golden_cli_output(capsys, entry):
    try:
        code = main(list(entry["argv"]))
    except SystemExit as exc:  # argparse usage errors
        code = exc.code
    assert (code, capsys.readouterr().out) == (entry["exit"], entry["stdout"])


@pytest.mark.parametrize("entry", GOLDEN_ERRORS, ids=[" ".join(g["argv"][:2])
                                                      for g in GOLDEN_ERRORS])
def test_golden_cli_domain_errors(capsys, entry):
    code = main(list(entry["argv"]))
    out = capsys.readouterr().out
    assert code == entry["exit"] == 2
    assert json.loads(out)["error"] == json.loads(entry["stdout"])["error"]


@pytest.mark.parametrize("entry,how", GOLDEN_NUMERIC, ids=[" ".join(g["argv"][:2])
                                                           for g, _ in GOLDEN_NUMERIC])
def test_golden_cli_numeric_output(capsys, entry, how):
    # every residue sign and tau, field by field within the benchmark's tolerances
    code = main(list(entry["argv"]))
    assert code == entry["exit"]
    assert clicold.COMPARE[how](entry["stdout"], capsys.readouterr().out)


def test_golden_cli_covers_every_exact_command():
    assert len(GOLDEN_EXACT) >= 13 and len(GOLDEN_ERRORS) == 6
    assert len(GOLDEN_EXACT) + len(GOLDEN_ERRORS) + len(GOLDEN_NUMERIC) == len(GOLDEN)
    assert {g["argv"][0] for g in GOLDEN_EXACT} >= {"chamber", "generic", "periods", "invert",
                                                     "domain", "coxeter", "homology",
                                                     "monodromy", "sweep"}


def _usage_error(capsys, argv):
    code = main(argv)
    out, err = capsys.readouterr()
    assert code == 1 and out == "", argv
    assert err.startswith("usage error: "), argv
    assert "Traceback" not in err
    return err


def test_monodromy_factors_of_wrong_shape(capsys):
    for factors in ("[[1]]", "[1,2]", '"x"', "[[[1,0],[0]]]", "[[[1,0],[0,1.5]]]"):
        err = _usage_error(capsys, ["monodromy", "normalize", "--factors", factors])
        assert "2x2 integer matrices" in err and repr(factors) in err
    err = _usage_error(capsys, ["monodromy", "normalize", "--factors", "x"])  # not JSON
    assert "2x2 integer matrices" in err and repr("x") in err


SCRAMBLED = json.dumps(hurwitz_move(canonical_factorization(), 1, 1).factors)
# inputs of the beta kind of sweep, the Hurwitz depth bound and the bare
# comma-joined factor format, which the command line no longer reads, and an
# alpha sweep without its required start
REMOVED = {
    "sweep --kind beta": ["sweep", "--kind", "beta", "--p0", "2", "--m", "1,0,0,0",
                          "--bmin", "10", "--bmax", "100", "--samples", "3"],
    "monodromy --max-depth": ["monodromy", "normalize", "--factors", SCRAMBLED,
                              "--max-depth", "3"],
    "monodromy bare factors": ["monodromy", "normalize", "--factors", SCRAMBLED[1:-1]],
    "sweep without --start": ["sweep", "--kind", "alpha", "--stop", "2/5,1/10,1/10,1/10"],
}


@pytest.mark.parametrize("argv", REMOVED.values(), ids=REMOVED)
def test_removed_inputs_are_usage_errors(capsys, argv):
    try:
        code = main(argv)
    except SystemExit as exc:  # argparse: an unknown option or choice, a missing option
        code = exc.code
    out, err = capsys.readouterr()
    assert code == 1 and out == ""
    assert err.startswith("usage error: ") and err.count("\n") == 1 and err.endswith("\n")
    assert "Traceback" not in err


def test_degenerate_counts_are_usage_errors(capsys):
    assert "-1" in _usage_error(capsys, ["hk", "check", "--trials", "-1"])
    _usage_error(capsys, ["hk", "check", "--trials", "0"])
    assert "-3" in _usage_error(capsys, ["sweep", "--kind", "alpha", "--start", "3/10,1/5,1/5,1/5",
                                         "--stop", "2/5,1/10,1/10,1/10", "--samples", "-3"])


def test_beta_sweep_bounds_are_usage_errors(capsys):
    curve = ["--p0", "0.37", "--m", "0.5,0.25,0.125,1"]
    for lo, hi in (("0", "10"), ("10", "-1"), ("nan", "10"), ("1", "inf")):
        bad = lo if lo in ("0", "nan") else hi
        err = _usage_error(capsys, ["spectral", "tau", *curve, "--sweep", f"{lo},{hi},3"])
        assert repr(bad) in err
    for sweep in ("1,10", "1,10,3,4"):
        assert sweep in _usage_error(capsys, ["spectral", "tau", *curve, "--sweep", sweep])
    assert "-2" in _usage_error(capsys, ["spectral", "tau", *curve, "--sweep", "1,10,-2"])


def _quiet_usage_error(capsys, argv):
    """``_usage_error`` with any warning (numpy's RuntimeWarning) raised as an error."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        return _usage_error(capsys, argv)


@pytest.mark.parametrize("argv", [
    ["spectral", "fibers", "--p0", "2", "--m", "1e200,1,1,1"],
    ["spectral", "residues", "--p0", "2", "--m", "1e200,1,1,1"],
    ["spectral", "tau", "--p0", "2", "--m", "1e200,1,1,1"],
    ["spectral", "fibers", "--p0", "1e100", "--m", "1e200,1,1,1"],
    ["spectral", "fibers", "--p0", "1e200"],
    ["spectral", "tau", "--p0", "2", "--m", "1e200,0,0,0", "--sweep", "10,10000,11"],
], ids=lambda argv: " ".join(argv))
def test_an_overflowing_f_m_is_a_usage_error(capsys, argv):
    # f_m squares p0 and the masses, which overflows past 1e154; build_base
    # names the inputs instead of a traceback from complex exponentiation
    err = _quiet_usage_error(capsys, argv)
    assert "f_m is not finite" in err and "e+200" in err


@pytest.mark.parametrize("argv, token", [
    (["spectral", "tau", "--p0", "2", "--beta", "nan"], "nan"),
    (["spectral", "fibers", "--p0", "nan"], "nan"),
    (["spectral", "fibers", "--p0", "0.5+1e400i"], "0.5+1e400i"),
    (["spectral", "fibers", "--p0", "1e400"], "1e400"),
    (["spectral", "residues", "--p0", "2", "--m", "1,1e400,0,0"], "1e400"),
    (["spectral", "tau", "--p0", "nani", "--sweep", "10,10000,11"], "nani"),
    # only a trailing i is the imaginary unit, so inf is not read as jnf
    (["spectral", "fibers", "--p0", "inf"], "inf"),
    (["spectral", "fibers", "--p0=-inf"], "-inf"),
    (["spectral", "fibers", "--p0", "1+infi"], "1+infi"),
], ids=lambda v: " ".join(v) if isinstance(v, list) else v)
def test_non_finite_complex_values_are_usage_errors(capsys, argv, token):
    err = _quiet_usage_error(capsys, argv)
    assert f"complex value must be finite, got {token!r}" in err


@pytest.mark.parametrize("argv", [
    ["spectral", "fibers", "--p0", "1e100", "--m", "1,0,0,0"],
    ["spectral", "fibers", "--p0", "1e60", "--m", "1,1,1,1"],
], ids=" ".join)
def test_an_overflowing_beta_discriminant_is_a_usage_error(capsys, argv):
    # f_m is finite, but its beta-discriminant, of degree six in the
    # coefficients, is not: the error names p0 and the masses
    err = _quiet_usage_error(capsys, argv)
    assert "the beta-discriminant is not finite at p0 = " in err
    assert f"({float(argv[3])}+0j), masses ((1+0j)," in err


@pytest.mark.parametrize("action", ["tau", "residues"])
def test_an_overflowing_curve_is_a_usage_error(capsys, action):
    # beta = 1e308 is finite, but beta (1 + p0) is not: the error names beta
    # instead of a numpy overflow warning and a false SingularFiber
    err = _quiet_usage_error(capsys, ["spectral", action, "--p0", "2", "--m", "1,1,1,1",
                                      "--beta", "1e308"])
    assert "is not finite at beta = (1e+308+0j)" in err


@pytest.mark.parametrize("argv", [["--lambda1", "nan"], ["--theta", "nan"],
                                  ["--lambda2", "1e400"]], ids=" ".join)
def test_hk_check_rejects_non_finite_parameters(capsys, argv):
    # max(0.0, nan) is 0.0: these used to report "pass": true
    err = _quiet_usage_error(capsys, ["hk", "check", *argv, "--trials", "5"])
    assert f"{argv[0][2:]} must be finite" in err


@pytest.mark.parametrize("argv", [
    ["spectral", "fibers", "--p0", "abc"],
    ["spectral", "fibers", "--p0", "2", "--m", "1,1,1,ii"],
], ids=" ".join)
def test_a_malformed_complex_value_names_the_option_and_the_token(capsys, argv):
    err = _quiet_usage_error(capsys, argv)
    option, value = argv[-2:]
    bad = value.split(",")[-1]  # the last token is the malformed one
    assert f"{option} is not a complex number: {bad!r}" in err
    assert "malformed string" not in err


ALPHA = "3/10,1/5,1/5,1/5"


MALFORMED = [
    (["spectral", "tau", "--p0", "2", "--sweep", "abc,10,3"], "--sweep", "'abc'"),
    (["spectral", "tau", "--p0", "2", "--sweep", "1,10,x"], "--sweep", "'x'"),
    (["coxeter", "apply", "--word", "0,a", "--alpha", ALPHA], "--word", "'a'"),
    (["homology", "twist", "--word", "1,,2"], "--word", "''"),
    (["coxeter", "apply", "--word", ",", "--alpha", ALPHA], "--word", "''"),
    (["chamber", "--alpha", "x,1,1,1"], "--alpha", "'x'"),
    (["generic", "--alpha", ALPHA, "--m", "1,z,0,0"], "--m", "'z'"),
    (["invert", "--x", "a,1,1,1", "--z", "0,0,0,0"], "--x", "'a'"),
    (["sweep", "--kind", "alpha", "--start", "", "--stop", ALPHA], "--start", "''"),
    (["domain", "--x", ",", "--z", ","], "--x", "''"),
    (["hk", "check", "--seed", "-1", "--trials", "1"], "--seed", "'-1'"),
    (["homology", "twist", "--word", "9"], "--word", "letter 9 "),
]


@pytest.mark.parametrize("argv, option, token", MALFORMED,
                         ids=[" ".join(argv) for argv, *_ in MALFORMED])
def test_a_malformed_value_names_the_option_and_the_token(capsys, argv, option, token):
    err = _usage_error(capsys, argv)
    assert option in err and token in err


README = (Path(__file__).resolve().parent.parent / "README.md").read_text()


@pytest.mark.parametrize("command", _COMMANDS)
def test_help_lists_every_option_the_readme_shows(capsys, command):
    # the README's example lines for the command: each option, the action and
    # each word-valued choice must appear in --help
    shown = set()
    for line in re.findall(rf"^hitchin4 {command} .*$", README, re.M):
        words = line.replace("'", " ").split()[2:]
        shown |= {w for w in words if w.startswith("--") or re.fullmatch("[a-z]+", w)}
    assert shown, command
    with pytest.raises(SystemExit) as e:
        main([command, "--help"])
    assert e.value.code == 0
    out = capsys.readouterr().out
    assert all(re.search(rf"(?<![\w-]){re.escape(w)}\b", out) for w in shown), (shown, out)


def test_exact_literals_past_the_digit_limit_are_usage_errors(capsys):
    # a short literal with a huge exponent is refused by the one rational reader
    # at once, naming the option and the token; the complex reader falls back to
    # its float reading, and 1e-4290 is still a rational
    import time

    for argv, flag, tok in ((["chamber", "--alpha", "1e-5000000,1/5,1/5,1/5"], "--alpha",
                             "1e-5000000"),
                            (["invert", "--x", "1e4305,1/10,1/10,1/10", "--z", "0,0,0,0"], "--x",
                             "1e4305"),
                            (["generic", "--alpha", "3/10,1/5,1/5,1/5", "--m", "1e-5000000i,0,0,0"],
                             "--m", "1e-5000000i")):
        start = time.perf_counter()
        code = main(argv)
        assert time.perf_counter() - start < 0.5
        out, err = capsys.readouterr()
        kind = "a rational" if flag != "--m" else "a Gaussian rational"
        assert code == 1 and out == "" and err == f"usage error: {flag} is not {kind}: {tok!r}\n"
    start = time.perf_counter()
    code, doc = run_json(capsys, "spectral", "fibers", "--p0", "1e-3000000")
    assert time.perf_counter() - start < 0.5
    assert code == 2 and doc["error"] == "DegenerateP0"
    code, doc = run_json(capsys, "chamber", "--alpha", "1e-4290,1/5,1/5,1/5")
    assert code == 0 and doc["result"]["type"] == "A1"


def test_spectral_tau_on_a_fiber_below_genus_one(capsys):
    code, doc = run_json(capsys, "spectral", "tau", "--p0", "2", "--m", "1,0,0,0", "--beta", "1")
    assert code == 2
    assert doc == {"error": "SingularFiber", "message": "curve degenerates below genus one"}


def test_top_level_help_is_a_fixed_description(capsys, monkeypatch):
    # the help text is its own paragraph: it names no module-internal name, and an
    # edit of the cli module docstring leaves it as it is
    from hitchin4 import cli

    with pytest.raises(SystemExit) as e:
        main(["--help"])
    out = capsys.readouterr().out
    assert e.value.code == 0 and "JSON envelope" in out
    assert not re.search(r"\b_[A-Za-z]", out), out
    for name in ("_COMMANDS", "_json_default", "_Values"):
        assert name not in out, name
    monkeypatch.setattr(cli, "__doc__", "an edited module docstring")
    with pytest.raises(SystemExit):
        main(["--help"])
    assert capsys.readouterr().out == out
