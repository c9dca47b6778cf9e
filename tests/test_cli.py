import ast
import json
from pathlib import Path

import pytest

from hitchin4.cli import main


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


def test_chamber_on_wall_exit_2(capsys):
    code, doc = run_json(capsys, "chamber", "--alpha", "1/4,1/4,1/4,1/4")
    assert code == 2
    assert doc["error"] == "OnWall"


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


def test_spectral_tau_sweep_csv(capsys):
    code, out = run_cli(capsys, "spectral", "tau", "--p0", "0.37",
                        "--m", "0.5,0.25,0.125,1", "--sweep", "50,200,3")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "beta,re_tau,im_tau"
    assert len(lines) == 4
    # the beta sweep command writes the same CSV
    code, sweep = run_cli(capsys, "sweep", "--kind", "beta", "--p0", "0.37",
                          "--m", "0.5,0.25,0.125,1", "--bmin", "50", "--bmax", "200",
                          "--samples", "3")
    assert code == 0 and sweep == out
    code, out = run_cli(capsys, "sweep", "--kind", "beta", "--samples", "0")
    assert code == 0 and out == "beta,re_tau,im_tau\n"


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


def _golden_exact_entries():
    """Entries of perfbench/golden/cli.json that perfbench/clicold.py compares
    byte for byte; INPUTS[k] there holds (group, comparison, argv) of entry k."""
    golden = json.loads((PERFBENCH / "golden" / "cli.json").read_text())
    tree = ast.parse((PERFBENCH / "clicold.py").read_text())
    inputs = next(node.value for node in tree.body if isinstance(node, ast.Assign)
                  and any(getattr(t, "id", None) == "INPUTS" for t in node.targets))
    how = [item.elts[1].value for item in inputs.elts]
    assert len(how) == len(golden)
    return [g for g, h in zip(golden, how) if h == "exact"]


GOLDEN_EXACT = _golden_exact_entries()


@pytest.mark.parametrize("entry", GOLDEN_EXACT, ids=[" ".join(g["argv"][:2])
                                                     for g in GOLDEN_EXACT])
def test_golden_cli_output(capsys, entry):
    try:
        code = main(list(entry["argv"]))
    except SystemExit as exc:  # argparse usage errors
        code = exc.code
    assert (code, capsys.readouterr().out) == (entry["exit"], entry["stdout"])


def test_golden_cli_covers_every_exact_command():
    assert len(GOLDEN_EXACT) >= 13
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
    _usage_error(capsys, ["monodromy", "normalize", "--factors", "x"])  # not JSON


def test_degenerate_counts_are_usage_errors(capsys):
    assert "-1" in _usage_error(capsys, ["hk", "check", "--trials", "-1"])
    _usage_error(capsys, ["hk", "check", "--trials", "0"])
    for kind in (["--kind", "alpha", "--start", "3/10,1/5,1/5,1/5",
                  "--stop", "2/5,1/10,1/10,1/10"], ["--kind", "beta"]):
        assert "-3" in _usage_error(capsys, ["sweep", *kind, "--samples", "-3"])


def test_beta_sweep_bounds_are_usage_errors(capsys):
    curve = ["--p0", "0.37", "--m", "0.5,0.25,0.125,1"]
    for lo, hi in (("0", "10"), ("10", "-1"), ("nan", "10"), ("1", "inf")):
        bad = lo if lo in ("0", "nan") else hi
        err = _usage_error(capsys, ["spectral", "tau", *curve, "--sweep", f"{lo},{hi},3"])
        assert repr(bad) in err
        err = _usage_error(capsys, ["sweep", "--kind", "beta", *curve,
                                    "--bmin", lo, "--bmax", hi, "--samples", "3"])
        assert repr(bad) in err
    for sweep in ("1,10", "1,10,3,4"):
        assert sweep in _usage_error(capsys, ["spectral", "tau", *curve, "--sweep", sweep])
    assert "-2" in _usage_error(capsys, ["spectral", "tau", *curve, "--sweep", "1,10,-2"])
