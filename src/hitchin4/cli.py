"""Unified command-line front end.

Every invocation prints a JSON envelope (or CSV for sweeps) on stdout that
echoes the parsed parameters, so identical inputs give byte-identical
output.  Exit codes: 0 success, 2 domain error (any ``hitchin4.DomainError``),
1 usage error, whose message names the option and the token of a malformed
value.  Each command loads only the layers it runs, so only the spectral and
hk commands load numpy.

Rationals are read as "p/q", complex values as "a+bi" with rational or
decimal parts.  Output rationals are "p/q", Gaussian rationals {"re": "p/q",
"im": "p/q"}, complex numbers [re, im] and integer matrices nested lists.

One table, ``_COMMANDS``, gives each subcommand's options, each with the
reader of its kind, and its handler per action.  Handlers only parse, call
one library function and return its values; ``main`` reports errors and
prints for all, each value by ``_json_default``.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import sys
from collections import namedtuple
from fractions import Fraction

import hitchin4 as lib  # each layer loads on first use of lib.<module>
from .core import DomainError, GaussianRational, as_fraction


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.exit(1, f"usage error: {message}\n")


# Readers: a ValueError says what is wrong with a token; ``_Values`` adds the option.

class _BadToken(ValueError):
    """A reader refused the token of the option its message names."""


def _token(convert, what: str, ok=None):
    """Reader of one token by ``convert``, whose value must pass ``ok`` if given."""
    def read(tok: str):
        try:
            value = convert(tok)
        except ZeroDivisionError:
            raise ValueError(f"has a zero denominator: {tok!r}") from None
        except ValueError:
            raise ValueError(f"is not {what}: {tok!r}") from None
        if ok and not ok(value):
            raise ValueError(f"is not {what}: {tok!r}")
        return value
    return read


_rational = _token(as_fraction, "a rational")
_gaussian = _token(GaussianRational.parse, "a Gaussian rational")
_integer = _token(int, "an integer")
_count = _token(int, "an integer >= 0", lambda n: n >= 0)
_real = _token(float, "a number")
_bound = _token(float, "a finite beta bound > 0", lambda b: math.isfinite(b) and b > 0)


def _complex(tok: str) -> complex:
    """A finite complex number; only a trailing ``i`` is the imaginary unit."""
    tok = tok.strip()
    try:
        z = complex(GaussianRational.parse(tok))
    except (ValueError, ZeroDivisionError):
        try:
            z = complex(tok[:-1] + "j" if tok.endswith("i") else tok)
        except ValueError:
            raise ValueError(f"is not a complex number: {tok!r}") from None
    except OverflowError:  # a rational past the float range
        z = complex(math.inf)
    if not (math.isfinite(z.real) and math.isfinite(z.imag)):
        raise ValueError(f"is not finite: complex value must be finite, got {tok!r}")
    return z


def _list(read, n: int | None = None):
    """Reader of comma-separated tokens, each read by ``read``, none in an empty
    string; ``n`` of them if given."""
    def read_all(raw: str) -> tuple:
        values = tuple(map(read, raw.split(","))) if raw else ()
        if n is not None and len(values) != n:
            raise ValueError(f"needs {n} comma-separated values, got {len(values)}: {raw!r}")
        return values
    return read_all


_RATIONALS = _list(_rational, 4)
_GAUSSIANS = _list(_gaussian, 4)
_COMPLEXES = _list(_complex, 4)
_LETTERS = _list(_integer)


def _coxeter_word(raw: str):
    """The isometry of the word ``raw`` in the generators r_0..r_4."""
    return lib.coxeter.compose_word(_LETTERS(raw), tuple(map(lib.coxeter.generator, range(5))))


def _beta_range(raw: str):
    """(bmin, bmax, n) of ``--sweep bmin,bmax,n``, or None without a sweep."""
    if raw:
        bmin, bmax, n = _list(str, 3)(raw)
        return _bound(bmin), _bound(bmax), _count(n)


# An option, or the positional "action": its reader (None keeps the string),
# its default (None: required), its choices, whether the envelope echoes it.
_Opt = namedtuple("_Opt", "flag read default choices echo help",
                  defaults=(None, None, None, True, None))


class _Values:
    """The options of one invocation, each read on first use.  A reader's
    ``ValueError`` is raised again as ``_BadToken`` naming the option; each flag
    read joins ``flags``, and each echoed option read joins ``echo``: its
    string, or its value if that is a number."""

    def __init__(self, args, options):
        self._args, self.echo, self.flags = args, {}, []
        self._options = {o.flag.lstrip("-").replace("-", "_"): o for o in options}

    def __getattr__(self, name: str):
        o = self._options[name]
        raw = getattr(self._args, name)
        try:
            value = o.read(raw) if o.read else raw
        except ValueError as exc:
            raise _BadToken(f"{o.flag} {exc}") from None
        if o.flag.startswith("--"):
            self.flags.append(o.flag)
        if o.echo:
            self.echo[name] = value if isinstance(value, (int, float)) else raw
        setattr(self, name, value)
        return value


# Handlers: a dict of library values is the JSON result, a list of rows (header
# first) a CSV; ``_json_default`` writes each value that json cannot.

def _json_default(value):
    """A complex number as [re, im], a Gaussian rational as {"re", "im"}, anything
    else (a Fraction, a chamber label) as its str: "p/q", or "p" for an integer."""
    if isinstance(value, complex):
        return [value.real, value.imag]
    return value.to_json() if isinstance(value, GaussianRational) else str(value)


def _chamber(v) -> dict:
    label = lib.chambers.classify_chamber(v.alpha)
    out = {"kind": label.kind, "type": label.ctype, "distinguished": label.index,
           "subsets": label.subsets, "vertices": lib.chambers.chamber_vertices(label)}
    return out if label.i0 is None else {**out, "i0": label.i0}


def _generic(v) -> dict:
    data = lib.chambers.ParabolicData(v.alpha, v.m)
    generic = lib.chambers.is_generic(data)  # OutOfCube unless alpha is in the open cube
    return {"generic": generic, "violated": lib.chambers.genericity_violations(data)}


def _periods(v) -> dict:
    period_map = (lib.torelli.torelli_parallel if v.basis == "parallel"
                  else lib.torelli.torelli_chamber)
    pv = period_map(lib.chambers.ParabolicData(v.alpha, v.m))
    return {"x": pv.x, "z": pv.z, "x_unit": "4*pi^2", "z_unit": "2*pi", "basis": pv.basis}


def _period_vector(v) -> lib.torelli.PeriodVector:
    read = lib.torelli.PeriodVector if len(v.x) == 5 else lib.torelli.PeriodVector.from_outer
    return read(v.x, v.z, lib.torelli.PARALLEL_BASIS)


def _invert(v) -> dict:
    data = lib.torelli.inverse_torelli(_period_vector(v))
    return {"alpha": data.alpha, "m": data.masses}


def _domain(v) -> dict:
    ok, witness = lib.torelli.in_period_domain(_period_vector(v))
    return {"in_domain": ok, "witness": witness}


def _walk(v) -> dict:
    g, alpha0, on_wall = lib.coxeter.alcove_walk(v.alpha)
    return {"word": g.word, "alpha0": alpha0, "on_wall": on_wall}


def _apply(v) -> dict:
    return {"alpha": v.word(v.alpha), "m": lib.coxeter.apply_to_masses(v.word, v.m)}


def _twist(v) -> dict:
    hat = lib.homology.hat_reduction(v.word)  # hatA[i][j] = L[j][i] / d, hatB = t / d
    return {"matrix": v.word, "hatA": [[Fraction(x, hat.d) for x in col] for col in zip(*hat.L)],
            "hatB": [Fraction(x, hat.d) for x in hat.t], "hatB_unit": "4*pi^2"}


def _fibers(v) -> dict:
    base = lib.spectral.build_base(v.p0, v.m)
    return {"f_coeffs": base.f_coeffs, "singular_beta": lib.spectral.singular_fibers(base)}


def _residues(v) -> dict:
    return lib.spectral.tautological_residues(lib.spectral.build_base(v.p0, v.m), v.beta)


def _tau(v):
    base = lib.spectral.build_base(v.p0, v.m)
    if v.sweep:
        return [("beta", "re_tau", "im_tau"), *(
            [f"{b:.12g}", "error", type(tau).__name__] if isinstance(tau, DomainError)
            else [f"{b:.12g}", f"{tau.real:.12g}", f"{tau.imag:.12g}"]
            for b, tau in lib.spectral.tau_sweep(base, *v.sweep))]
    A, B, tau = lib.spectral.elliptic_periods(base, v.beta)
    return {"A": A, "B": B, "tau": tau}


def _normalize(v) -> dict:
    moves, normal = lib.monodromy.normalize(v.factors)
    return {"moves": [{"i": i, "dir": d} for i, d in moves], "normal": normal.factors}


def _hk(v) -> dict:
    p = lib.hkmodel.HKParams(v.lambda1, v.lambda2, v.theta)
    worst = lib.hkmodel.identity_deviations(p, v.trials, v.seed)
    return {"pass": lib.hkmodel.identities_hold(worst), "max_deviation": worst}


def _sweep(v):
    return [("t", "alpha", "chamber"), *(
        [t, alpha,
         f"error:{type(label).__name__}" if isinstance(label, DomainError) else label.short()]
        for t, alpha, label in lib.chambers.chamber_sweep(v.start, v.stop, v.samples))]


_ALPHA = _Opt("--alpha", _RATIONALS)
_MASSES = _Opt("--m", _GAUSSIANS, "0,0,0,0")
_PERIODS = (_Opt("--x", _list(_rational)), _Opt("--z", _list(_gaussian)))
_CURVE = (_Opt("--p0", _complex), _Opt("--m", _COMPLEXES, "0,0,0,0"))

# name: (help, handler or {action: handler}, options)
_COMMANDS = {
    "chamber": ("classify a weight vector", _chamber, (_ALPHA,)),
    "generic": ("Nakajima genericity test", _generic, (_ALPHA, _MASSES)),
    "periods": ("Torelli period vector", _periods, (
        _ALPHA, _MASSES, _Opt("--basis", None, "chamber", ("chamber", "parallel")))),
    "invert": ("invert the parallel-basis period map", _invert, _PERIODS),
    "domain": ("period-domain membership", {"check": _domain}, (
        _Opt("action", default="check", echo=False), *_PERIODS)),
    "coxeter": ("alcove walk / group action", {"walk": _walk, "apply": _apply}, (
        _Opt("action"), _ALPHA, _MASSES,
        _Opt("--word", _coxeter_word, ""))),
    "homology": ("Dehn-twist word to lattice matrix", {"twist": _twist}, (
        _Opt("action"),
        _Opt("--word", lambda raw: lib.homology.word_to_auto(_LETTERS(raw)), ""))),
    "spectral": ("spectral-curve diagnostics",
                 {"fibers": _fibers, "residues": _residues, "tau": _tau}, (
        _Opt("action"), *_CURVE, _Opt("--beta", _complex, "1"),
        _Opt("--sweep", _beta_range, "", echo=False, help="bmin,bmax,n for a CSV tau sweep"))),
    "monodromy": ("normalize a Hurwitz factorization", {"normalize": _normalize}, (
        _Opt("action"),
        _Opt("--factors", lambda raw: lib.monodromy.parse_factors(raw),
             help="JSON list of six 2x2 matrices"))),
    "hk": ("hyperkahler model identity checks", {"check": _hk}, (
        _Opt("action", echo=False), _Opt("--lambda1", _real, "1.0"),
        _Opt("--lambda2", _real, "1.0"), _Opt("--theta", _real, "0.0"),
        _Opt("--trials", _integer, "1000"), _Opt("--seed", _count, "0"))),
    "sweep": ("CSV sweep over weights", _sweep, (
        _Opt("--kind", choices=("alpha",)), _Opt("--start", _RATIONALS, help="start weights"),
        _Opt("--stop", _RATIONALS, help="end weights"), _Opt("--samples", _count, "11"))),
}


def build_parser() -> argparse.ArgumentParser:
    p = _Parser(prog="hitchin4", description="Exact and numeric computations on parabolic "
                "SU(2) Hitchin moduli of the four-punctured sphere.  Each command prints a JSON "
                "envelope (CSV for sweeps) on stdout; exit code 0 is success, 2 a domain error "
                "and 1 a usage error.")
    sub = p.add_subparsers(dest="cmd", required=True)
    for name, (help_, handlers, options) in _COMMANDS.items():
        q = sub.add_parser(name, help=help_)
        for o in options:
            if o.flag == "action":
                q.add_argument("action", choices=tuple(handlers), default=o.default,
                               nargs="?" if o.default else None)
            else:
                q.add_argument(o.flag, required=o.default is None, default=o.default,
                               choices=o.choices, help=o.help)
    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    _, handlers, options = _COMMANDS[args.cmd]
    values = _Values(args, options)
    try:
        result = (handlers[values.action] if isinstance(handlers, dict) else handlers)(values)
    except DomainError as exc:
        print(json.dumps({"error": type(exc).__name__, "message": str(exc)}, sort_keys=True))
        return 2
    except ValueError as exc:  # a library refusal names the options the handler read
        where = "" if isinstance(exc, _BadToken) else f"{', '.join(values.flags)}: "
        print(f"usage error: {where}{exc}", file=sys.stderr)
        return 1
    # Every option is read, so the int-string limit is lifted only to print a long
    # result rational in full; core.as_fraction still bounds every literal read.
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    set_limit = getattr(sys, "set_int_max_str_digits", lambda n: None)
    set_limit(0)
    try:
        if isinstance(result, dict):
            print(json.dumps({"subcommand": args.cmd, "parameters": values.echo,
                              "result": result}, sort_keys=True, default=_json_default))
        else:  # a tuple cell (a weight vector) is written as its entries joined by ";"
            csv.writer(sys.stdout, lineterminator="\n").writerows(
                [";".join(map(str, c)) if isinstance(c, tuple) else c for c in row]
                for row in result)
    finally:
        set_limit(limit)
    return 0


if __name__ == "__main__":
    sys.exit(main())
