"""The cli-cold workload: one cold ``python -m hitchin4.cli`` process per item.

Items cycle through the fourteen README commands, domain-error inputs
(exit 2) and malformed inputs (exit 1, no traceback), in a seeded order per
cycle.  Outputs are compared with golden outputs captured by
``capture_golden.py``: exact commands byte for byte, numeric ones field by
field within the README's pinned tolerances, domain errors by exit code and
error name.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random
import subprocess
import sys

from calibrate import process_calibration
from checks import attempt

HERE = os.path.dirname(os.path.abspath(__file__))
GOLDEN_PATH = os.path.join(HERE, "golden", "cli.json")
CALL_TIMEOUT_S = 60

ALPHA = "3/10,1/5,1/5,1/5"
ON_WALL = "1/4,1/4,1/4,1/4"
BA = "[[[1,0],[-1,1]],[[1,1],[0,1]],[[1,0],[-1,1]],[[1,1],[0,1]],[[1,0],[-1,1]],[[1,1],[0,1]]]"
ID_BA = "[[[1,0],[0,1]],[[1,1],[0,1]],[[1,0],[-1,1]],[[1,1],[0,1]],[[1,0],[-1,1]],[[1,1],[0,1]]]"

# (metric group, comparison, argv after ``python -m hitchin4.cli``)
INPUTS = (
    ("chamber", "exact", ["chamber", "--alpha", ALPHA]),
    ("generic", "exact", ["generic", "--alpha", ON_WALL, "--m", "0,0,0,0"]),
    ("periods", "exact", ["periods", "--alpha", ALPHA, "--m", "1,0,0,i", "--basis", "parallel"]),
    ("invert", "exact", ["invert", "--x", "1/10,1/10,1/10,1/10", "--z", "0,0,0,0"]),
    ("domain", "exact", ["domain", "--x", "0,1/7,2/7,3/7", "--z", "0,1,1,1"]),
    ("coxeter_walk", "exact", ["coxeter", "walk", "--alpha", "2/5,2/5,2/5,1/10"]),
    ("coxeter_apply", "exact", ["coxeter", "apply", "--word", "0,1,4", "--alpha", ALPHA,
                                "--m", "0,0,0,0"]),
    ("homology_twist", "exact", ["homology", "twist", "--word", "0,1,4"]),
    ("spectral_fibers", "fibers", ["spectral", "fibers", "--p0", "2", "--m", "1,0,0,0"]),
    ("spectral_residues", "residues", ["spectral", "residues", "--p0", "2", "--m", "1,0,0,0",
                                       "--beta", "0.7"]),
    ("spectral_tau", "tau_csv", ["spectral", "tau", "--p0", "0.37", "--m", "0.5,0.25,0.125,1",
                                 "--sweep", "100,10000,9"]),
    ("monodromy_normalize", "exact", ["monodromy", "normalize", "--factors", BA]),
    ("hk_check", "hk", ["hk", "check", "--lambda1", "1", "--lambda2", "2", "--theta", "0.7",
                        "--trials", "1000"]),
    ("sweep", "exact", ["sweep", "--kind", "alpha", "--start", ALPHA,
                        "--stop", "2/5,1/10,1/10,1/10", "--samples", "11"]),
    ("domain_error", "error_name", ["chamber", "--alpha", ON_WALL]),
    ("domain_error", "error_name", ["periods", "--alpha", ON_WALL, "--m", "1,0,0,0"]),
    ("domain_error", "error_name", ["spectral", "fibers", "--p0", "1", "--m", "1,0,0,0"]),
    ("domain_error", "error_name", ["monodromy", "normalize", "--factors", ID_BA]),
    ("domain_error", "error_name", ["chamber", "--alpha", "1/2,1/5,1/5,1/5"]),
    ("domain_error", "error_name", ["generic", "--alpha", "0,1/5,1/5,1/5", "--m", "0,0,0,0"]),
    ("bad_input", "exact", ["chamber", "--alpha", "1/0,1/5,1/5,1/5"]),
    ("bad_input", "exact", ["coxeter", "apply", "--word", "9", "--alpha", ALPHA]),
    ("bad_input", "exact", ["chamber", "--alpha", "1/5,1/5"]),
    ("bad_input", "exact", ["chamber"]),
)

ROOT_TOL = 1e-8      # README: root finding, relative
RES_TOL = 1e-7       # README: residues
TAU_TOL = 1e-8       # two quadratures refined to 1e-9 each, then B/A
COEFF_TOL = 1e-12    # closed-form quartic coefficients
HK_TOL = 1e-10       # hyperkahler identities


def _close(a, b, tol):
    return abs(complex(*a) - complex(*b)) <= tol * max(1.0, abs(complex(*b)))


def _same_roots(got, want):
    pool = [complex(*r) for r in got]
    if len(pool) != len(want):
        return False
    for r in (complex(*w) for w in want):
        k = min(range(len(pool)), key=lambda i: abs(pool[i] - r))
        if abs(pool[k] - r) > ROOT_TOL * max(1.0, abs(r)):
            return False
        pool.pop(k)
    return True


def _json_fields(gold, out, compare):
    g, o = json.loads(gold), json.loads(out)
    return (o.keys() == g.keys() and o["subcommand"] == g["subcommand"]
            and o["parameters"] == g["parameters"] and compare(g["result"], o["result"]))


def _fibers(g, o):
    return (len(o["f_coeffs"]) == len(g["f_coeffs"])
            and all(_close(a, b, COEFF_TOL) for a, b in zip(o["f_coeffs"], g["f_coeffs"]))
            and _same_roots(o["singular_beta"], g["singular_beta"]))


def _residues(g, o):
    return o.keys() == g.keys() and all(
        len(o[k]) == 2 and all(abs(complex(*a) - complex(*b)) <= RES_TOL
                               for a, b in zip(o[k], g[k])) for k in g)


def _hk(g, o):
    return (o["pass"] is True and o["max_deviation"].keys() == g["max_deviation"].keys()
            and all(v < HK_TOL for v in o["max_deviation"].values()))


def _tau_rows(gold, out):
    g, o = gold.splitlines(), out.splitlines()
    if len(g) != len(o) or g[:1] != o[:1]:
        return False
    for gr, orow in zip(g[1:], o[1:]):
        gb, *gt = gr.split(",")
        ob, *ot = orow.split(",")
        if gb != ob or len(gt) != len(ot):
            return False
        if gt[0] == "error" or ot[0] == "error":
            if gt != ot:
                return False
        elif not _close([float(v) for v in ot], [float(v) for v in gt], TAU_TOL):
            return False
    return True


COMPARE = {
    "exact": lambda gold, out: out == gold,
    "error_name": lambda gold, out: json.loads(out)["error"] == json.loads(gold)["error"],
    "fibers": lambda gold, out: _json_fields(gold, out, _fibers),
    "residues": lambda gold, out: _json_fields(gold, out, _residues),
    "hk": lambda gold, out: _json_fields(gold, out, _hk),
    "tau_csv": _tau_rows,
}


def cli_env(root):
    src = os.path.join(root, "src")
    path = os.environ.get("PYTHONPATH")
    return dict(os.environ, PYTHONPATH=src + (os.pathsep + path if path else ""))


def call(root, argv):
    return subprocess.run([sys.executable, "-m", "hitchin4.cli", *argv], capture_output=True,
                          text=True, env=cli_env(root), cwd=root, timeout=CALL_TIMEOUT_S)


class CliCold:
    in_process = False
    cycle = len(INPUTS)

    def __init__(self, seed, root):
        self.root = root
        self.rng = random.Random(seed)
        with open(GOLDEN_PATH) as fh:
            golden = json.load(fh)
        if [g["argv"] for g in golden] != [argv for _, _, argv in INPUTS]:
            raise SystemExit(f"{GOLDEN_PATH} does not match the input list")
        self.golden = golden
        self._cycle = []

    def warm(self):
        """One untimed call: loads the interpreter, numpy and hitchin4 from
        disk once and writes their bytecode caches, as any earlier use would."""
        call(self.root, INPUTS[0][2])

    def next_item(self):
        if not self._cycle:
            self._cycle = list(range(len(INPUTS)))
            self.rng.shuffle(self._cycle)
        return self._cycle.pop()

    def kind(self, item):
        return INPUTS[item][0]

    def calibration(self):
        return process_calibration(cli_env(self.root), self.root)

    def run(self, item):
        return attempt(call, self.root, INPUTS[item][2])

    def check(self, item, out):
        group, how, argv = INPUTS[item]
        gold = self.golden[item]
        if isinstance(out, Exception):
            return "error", f"{group}: {type(out).__name__}"
        if "Traceback (most recent call last)" in out.stderr:
            return "error", f"{group}: traceback for {' '.join(argv)}"
        if out.returncode != gold["exit"]:
            return "wrong", f"{group}: exit {out.returncode} != {gold['exit']}"
        try:
            same = COMPARE[how](gold["stdout"], out.stdout)
        except (ValueError, KeyError, TypeError, AttributeError, IndexError):
            same = False
        return ("ok", None) if same else ("wrong", f"{group}: stdout differs")

    def counters(self, item, out):
        return {}

    def run_in_process(self, item):
        """The same command through ``hitchin4.cli.main`` in this process
        (for the counting pass)."""
        from hitchin4 import cli

        sink = io.StringIO()
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            try:
                cli.main(INPUTS[item][2])
            except (SystemExit, Exception):  # usage exits and crashes end the count
                pass
