"""Unified command-line front end.

Every invocation prints a JSON envelope (or CSV for sweeps) on stdout that
echoes the parsed parameters, so identical inputs give byte-identical
output.  Exit codes: 0 success, 2 domain error (any ``hitchin4.DomainError``),
1 usage error.  Only the spectral, hk and beta-sweep commands load numpy.

Rationals are written "p/q"; complex values as "a+bi" with rational or
decimal parts; Gaussian rationals serialize as {"re": "p/q", "im": "p/q"}.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import sys
from fractions import Fraction

from . import chambers, core, coxeter, homology, monodromy, torelli
from .core import DomainError, GaussianRational


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.exit(1, f"usage error: {message}\n{self.format_usage()}")


def _parse_exact(parse, tok: str):
    """``parse(tok)``, with a zero denominator reported as a usage error."""
    try:
        return parse(tok)
    except ZeroDivisionError:
        raise ValueError(f"zero denominator in {tok.strip()!r}") from None


def _parse_complex(tok: str, option: str) -> complex:
    """A finite complex number given to ``option``; only a trailing ``i`` is
    the imaginary unit."""
    tok = tok.strip()
    try:
        z = complex(GaussianRational.parse(tok))
    except (ValueError, ZeroDivisionError):
        try:
            z = complex(tok[:-1] + "j" if tok.endswith("i") else tok)
        except ValueError:
            raise ValueError(f"{option} is not a complex number: {tok!r}") from None
    except OverflowError:  # a rational past the float range
        z = complex(math.inf)
    if not (math.isfinite(z.real) and math.isfinite(z.imag)):
        raise ValueError(f"complex value must be finite, got {tok!r}")
    return z


def _four(parse, what: str):
    """Reader of four comma-separated values, each read by ``parse``."""
    def read(s: str) -> tuple:
        parts = [parse(tok) for tok in s.split(",")]
        if len(parts) != 4:
            raise ValueError(f"expected 4 comma-separated {what}, got {len(parts)}")
        return tuple(parts)
    return read


_parse_fractions = _four(lambda tok: _parse_exact(Fraction, tok), "rationals")
_parse_gaussians = _four(lambda tok: _parse_exact(GaussianRational.parse, tok), "values")
_parse_masses = _four(lambda tok: _parse_complex(tok, "--m"), "complex values")
_rstr = core.rational_to_str


def _check_count(name: str, n: int, minimum: int) -> int:
    if n < minimum:
        raise ValueError(f"{name} must be >= {minimum}, got {n}")
    return n


def _label_json(label: chambers.ChamberLabel) -> dict:
    out = {
        "kind": label.kind,
        "type": label.ctype,
        "distinguished": label.index,
        "subsets": list(label.subsets),
        "vertices": [[_rstr(c) for c in v] for v in chambers.chamber_vertices(label)],
    }
    if label.i0 is not None:
        out["i0"] = label.i0
    return out


def _period_json(pv: torelli.PeriodVector) -> dict:
    return {
        "x": [_rstr(v) for v in pv.x],
        "z": [z.to_json() for z in pv.z],
        "x_unit": "4*pi^2",
        "z_unit": "2*pi",
        "basis": str(pv.basis),
    }


def _emit(payload: dict) -> int:
    print(json.dumps(payload, sort_keys=True, default=str))
    return 0


def _envelope(sub: str, params: dict, result) -> dict:
    return {"subcommand": sub, "parameters": params, "result": result}


# ---------------------------------------------------------------------------
# subcommand handlers
# ---------------------------------------------------------------------------

def _cmd_chamber(args) -> int:
    alpha = _parse_fractions(args.alpha)
    label = chambers.classify_chamber(alpha)
    return _emit(_envelope("chamber", {"alpha": args.alpha}, _label_json(label)))


def _cmd_generic(args) -> int:
    data = chambers.ParabolicData(_parse_fractions(args.alpha), _parse_gaussians(args.m))
    chambers.check_cube(data.alpha)
    violated = chambers.genericity_violations(data)
    return _emit(_envelope("generic", {"alpha": args.alpha, "m": args.m},
                           {"generic": not violated, "violated": violated}))


def _cmd_periods(args) -> int:
    alpha = _parse_fractions(args.alpha)
    masses = _parse_gaussians(args.m)
    data = chambers.ParabolicData(alpha, masses)
    pv = torelli.torelli_parallel(data) if args.basis == "parallel" \
        else torelli.torelli_chamber(data)
    return _emit(_envelope("periods",
                           {"alpha": args.alpha, "m": args.m, "basis": args.basis},
                           _period_json(pv)))


def _pv_from_args(args) -> torelli.PeriodVector:
    xs = [_parse_exact(Fraction, tok) for tok in args.x.split(",")]
    zs = [_parse_exact(GaussianRational.parse, tok) for tok in args.z.split(",")]
    if len(xs) == 4 and len(zs) == 4:
        return torelli.PeriodVector.from_outer(xs, zs, torelli.PARALLEL_BASIS)
    if len(xs) == 5 and len(zs) == 5:
        return torelli.PeriodVector(tuple(xs), tuple(zs), torelli.PARALLEL_BASIS)
    raise ValueError("x and z must both have 4 (outer) or 5 components")


def _cmd_invert(args) -> int:
    pv = _pv_from_args(args)
    data = torelli.inverse_torelli(pv)
    return _emit(_envelope("invert", {"x": args.x, "z": args.z}, {
        "alpha": [_rstr(a) for a in data.alpha],
        "m": [m.to_json() for m in data.masses],
    }))


def _cmd_domain(args) -> int:
    pv = _pv_from_args(args)
    ok, witness = torelli.in_period_domain(pv)
    return _emit(_envelope("domain", {"x": args.x, "z": args.z},
                           {"in_domain": ok, "witness": witness}))


def _cmd_coxeter(args) -> int:
    if args.action == "walk":
        alpha = _parse_fractions(args.alpha)
        g, alpha0, on_wall = coxeter.alcove_walk(alpha)
        return _emit(_envelope("coxeter", {"action": "walk", "alpha": args.alpha}, {
            "word": list(g.word),
            "alpha0": [_rstr(a) for a in alpha0],
            "on_wall": on_wall,
        }))
    word = [int(t) for t in args.word.split(",")] if args.word else []
    alpha = _parse_fractions(args.alpha)
    masses = _parse_gaussians(args.m)
    g = coxeter.compose_word(word, [coxeter.generator(i) for i in range(5)])
    return _emit(_envelope("coxeter",
                           {"action": "apply", "word": args.word,
                            "alpha": args.alpha, "m": args.m}, {
        "alpha": [_rstr(a) for a in g(alpha)],
        "m": [m.to_json() for m in coxeter.apply_to_masses(g, masses)],
    }))


def _cmd_homology(args) -> int:
    word = [int(t) for t in args.word.split(",")] if args.word else []
    A = homology.word_to_auto(word)
    hat = homology.hat_reduction(A)  # hatA[i][j] = L[j][i] / d, hatB = t / d
    return _emit(_envelope("homology", {"action": "twist", "word": args.word}, {
        "matrix": [list(r) for r in A],
        "hatA": [[_rstr(Fraction(v, hat.d)) for v in col] for col in zip(*hat.L)],
        "hatB": [_rstr(Fraction(v, hat.d)) for v in hat.t],
        "hatB_unit": "4*pi^2",
    }))


def _cmd_spectral(args) -> int:
    from . import spectral

    base = spectral.build_base(_parse_complex(args.p0, "--p0"), _parse_masses(args.m))
    if args.action == "fibers":
        roots = spectral.singular_fibers(base)
        return _emit(_envelope("spectral", {"action": "fibers", "p0": args.p0,
                                            "m": args.m}, {
            "f_coeffs": [[c.real, c.imag] for c in base.f_coeffs],
            "singular_beta": [[b.real, b.imag] for b in roots],
        }))
    if args.action == "residues":
        beta = _parse_complex(args.beta, "--beta")
        res = spectral.tautological_residues(base, beta)
        return _emit(_envelope("spectral", {"action": "residues", "p0": args.p0,
                                            "m": args.m, "beta": args.beta}, {
            k: [[r.real, r.imag] for r in pair] for k, pair in res.items()
        }))
    if args.sweep:
        fields = args.sweep.split(",")
        if len(fields) != 3:
            raise ValueError(f"--sweep needs bmin,bmax,n, got {args.sweep!r}")
        return _tau_sweep(base, fields[0], fields[1], int(fields[2]))
    beta = _parse_complex(args.beta, "--beta")
    A, B, tau = spectral.elliptic_periods(base, beta)
    return _emit(_envelope("spectral", {"action": "tau", "p0": args.p0,
                                        "m": args.m, "beta": args.beta}, {
        "A": [A.real, A.imag], "B": [B.real, B.imag],
        "tau": [tau.real, tau.imag],
    }))


def _cmd_monodromy(args) -> int:
    raw = args.factors.strip()
    try:
        factors = json.loads(raw)
    except json.JSONDecodeError:
        try:
            factors = json.loads(f"[{raw}]")  # bare comma-joined matrices
        except json.JSONDecodeError:
            factors = None
    if not (isinstance(factors, list) and all(_is_int_2x2(M) for M in factors)):
        raise ValueError(f"--factors must be a list of 2x2 integer matrices, got {raw!r}")
    f = monodromy.Factorization(tuple(tuple(tuple(row) for row in M) for M in factors))
    moves, normal = monodromy.normalize(f, max_depth=args.max_depth)
    return _emit(_envelope("monodromy", {"action": "normalize",
                                         "factors": args.factors}, {
        "moves": [{"i": i, "dir": d} for i, d in moves],
        "normal": [[list(r) for r in M] for M in normal.factors],
    }))


def _is_int_2x2(M) -> bool:
    return (isinstance(M, list) and len(M) == 2
            and all(isinstance(row, list) and len(row) == 2 for row in M)
            and all(type(x) is int for row in M for x in row))


def _cmd_hk(args) -> int:
    from . import hkmodel

    _check_count("trial count", args.trials, 1)
    p = hkmodel.HKParams(args.lambda1, args.lambda2, args.theta)
    worst = hkmodel.identity_deviations(p, args.trials, args.seed)
    passed = all(x < 1e-10 for x in worst.values())
    return _emit(_envelope("hk", {"lambda1": args.lambda1, "lambda2": args.lambda2,
                                  "theta": args.theta, "trials": args.trials,
                                  "seed": args.seed},
                           {"pass": passed, "max_deviation": worst}))


def _cmd_sweep(args) -> int:
    if args.kind == "beta":
        from . import spectral

        base = spectral.build_base(_parse_complex(args.p0, "--p0"), _parse_masses(args.m))
        return _tau_sweep(base, args.bmin, args.bmax, args.samples)
    a0 = _parse_fractions(args.start)
    a1 = _parse_fractions(args.stop)
    n = _check_count("sample count", args.samples, 0)
    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(["t", "alpha", "chamber"])
    for k in range(n):
        t = Fraction(k, n - 1) if n > 1 else Fraction(0)
        a = tuple(x + t * (y - x) for x, y in zip(a0, a1))
        astr = ";".join(_rstr(v) for v in a)
        try:
            label = chambers.classify_chamber(a)
            w.writerow([_rstr(t), astr, label.short()])
        except DomainError as exc:
            w.writerow([_rstr(t), astr, f"error:{type(exc).__name__}"])
    sys.stdout.write(buf.getvalue())
    return 0


def _tau_sweep(base, bmin: str, bmax: str, samples: int) -> int:
    """CSV of tau at ``samples`` real beta, log-spaced from bmin to bmax, on
    a ``spectral.HitchinBase``; a beta whose periods fail gets an error row
    naming the domain error."""
    import numpy as np

    from . import spectral

    bounds = []
    for tok in (bmin, bmax):
        b = float(tok)
        if not (math.isfinite(b) and b > 0):
            raise ValueError(f"beta bound must be finite and > 0, got {tok!r}")
        bounds.append(b)
    _check_count("sample count", samples, 0)
    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(["beta", "re_tau", "im_tau"])
    for b in np.logspace(np.log10(bounds[0]), np.log10(bounds[1]), samples):
        try:
            _, _, tau = spectral.elliptic_periods(base, complex(b))
            w.writerow([f"{b:.12g}", f"{tau.real:.12g}", f"{tau.imag:.12g}"])
        except DomainError as exc:
            w.writerow([f"{b:.12g}", "error", type(exc).__name__])
    sys.stdout.write(buf.getvalue())
    return 0


# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    p = _Parser(prog="hitchin4", description=__doc__,
                formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = p.add_subparsers(dest="cmd", required=True)

    q = sub.add_parser("chamber", help="classify a weight vector")
    q.add_argument("--alpha", required=True)
    q.set_defaults(fn=_cmd_chamber)

    q = sub.add_parser("generic", help="Nakajima genericity test")
    q.add_argument("--alpha", required=True)
    q.add_argument("--m", default="0,0,0,0")
    q.set_defaults(fn=_cmd_generic)

    q = sub.add_parser("periods", help="Torelli period vector")
    q.add_argument("--alpha", required=True)
    q.add_argument("--m", default="0,0,0,0")
    q.add_argument("--basis", choices=("chamber", "parallel"), default="chamber")
    q.set_defaults(fn=_cmd_periods)

    q = sub.add_parser("invert", help="invert the parallel-basis period map")
    q.add_argument("--x", required=True)
    q.add_argument("--z", required=True)
    q.set_defaults(fn=_cmd_invert)

    q = sub.add_parser("domain", help="period-domain membership")
    q.add_argument("action", nargs="?", choices=("check",), default="check")
    q.add_argument("--x", required=True)
    q.add_argument("--z", required=True)
    q.set_defaults(fn=_cmd_domain)

    q = sub.add_parser("coxeter", help="alcove walk / group action")
    q.add_argument("action", choices=("walk", "apply"))
    q.add_argument("--alpha", required=True)
    q.add_argument("--m", default="0,0,0,0")
    q.add_argument("--word", default="")
    q.set_defaults(fn=_cmd_coxeter)

    q = sub.add_parser("homology", help="Dehn-twist word to lattice matrix")
    q.add_argument("action", choices=("twist",))
    q.add_argument("--word", default="")
    q.set_defaults(fn=_cmd_homology)

    q = sub.add_parser("spectral", help="spectral-curve diagnostics")
    q.add_argument("action", choices=("fibers", "residues", "tau"))
    q.add_argument("--p0", required=True)
    q.add_argument("--m", default="0,0,0,0")
    q.add_argument("--beta", default="1")
    q.add_argument("--sweep", default="", help="bmin,bmax,n for a CSV tau sweep")
    q.set_defaults(fn=_cmd_spectral)

    q = sub.add_parser("monodromy", help="normalize a Hurwitz factorization")
    q.add_argument("action", choices=("normalize",))
    q.add_argument("--factors", required=True, help="JSON list of six 2x2 matrices")
    q.add_argument("--max-depth", type=int, default=24)
    q.set_defaults(fn=_cmd_monodromy)

    q = sub.add_parser("hk", help="hyperkahler model identity checks")
    q.add_argument("action", choices=("check",))
    q.add_argument("--lambda1", type=float, default=1.0)
    q.add_argument("--lambda2", type=float, default=1.0)
    q.add_argument("--theta", type=float, default=0.0)
    q.add_argument("--trials", type=int, default=1000)
    q.add_argument("--seed", type=int, default=0)
    q.set_defaults(fn=_cmd_hk)

    q = sub.add_parser("sweep", help="CSV sweeps over weights or beta")
    q.add_argument("--kind", choices=("alpha", "beta"), required=True)
    q.add_argument("--start", default="", help="alpha sweep: start weights")
    q.add_argument("--stop", default="", help="alpha sweep: end weights")
    q.add_argument("--samples", type=int, default=11)
    q.add_argument("--p0", default="2")
    q.add_argument("--m", default="1,0,0,0")
    q.add_argument("--bmin", default="10")
    q.add_argument("--bmax", default="10000")
    q.set_defaults(fn=_cmd_sweep)
    return p


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except DomainError as exc:
        print(json.dumps({"error": type(exc).__name__, "message": str(exc)},
                         sort_keys=True))
        return 2
    except ValueError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
