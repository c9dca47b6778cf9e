"""The three in-process workloads: exact-periods, group-actions and
spectral-numeric.

Every workload draws its items from one stream seeded by ``--seed``
(``next_item``), runs the item's calls into hitchin4 (``run``, the timed
part) and checks the outputs against recomputations written here in plain
``Fraction``/integer/complex arithmetic (``check``, untimed).  Input sizes
that set an item's cost (denominator size, walk distance, word length,
scramble depth, beta magnitude) follow golden-ratio sequences with a seeded
start, so every run covers the same size distribution evenly and run-to-run
spread stays small.
"""

from __future__ import annotations

import cmath
import math
import random
from fractions import Fraction
from itertools import product

import numpy as np
from hitchin4 import chambers, core, coxeter, hkmodel, homology, monodromy, spectral, torelli

from calibrate import loop_calibration, numpy_calibration
from checks import attempt, judge, raised, require, value

GOLDEN = (math.sqrt(5) - 1) / 2
HALF = Fraction(1, 2)


class _Stream:
    in_process = True
    cycle = 1   # items over which the input mix repeats exactly

    def __init__(self, seed: int):
        self.rng = random.Random(seed)
        self._u = {}

    def size(self, what: str) -> float:
        """Next point in [0, 1) of the golden-ratio sequence kept for ``what``,
        which starts at a seeded offset."""
        u = self._u.get(what)
        u = self.rng.random() if u is None else (u + GOLDEN) % 1.0
        self._u[what] = u
        return u

    def kind(self, item):
        return item["kind"]

    def calibration(self):
        """Reference task that scales this workload's timings (calibrate.py)."""
        return loop_calibration()

    def check(self, item, out):
        return judge(self._check, item, out)

    def counters(self, item, out):
        """Counts read from an item's outputs, for the per-layer ratios."""
        return {}


def _gauss(pair):
    return core.GaussianRational(pair[0], pair[1])


# ---------------------------------------------------------------------------
# exact-periods
# ---------------------------------------------------------------------------

E_REPS = (0b0000, 0b0011, 0b0101, 0b1001)
M_ROWS = ((-1, -1, -1, -1), (1, 1, -1, -1), (1, -1, 1, -1), (1, -1, -1, 1))
# The twelve walls of the weight cube as (c, c0) with sum c_i a_i = c0:
# K_{} = 0, K_{12} = K_{13} = K_{14} = 0, and L_i = 0 or 1.
WALLS = (((1, 1, 1, 1), 1), ((1, 1, -1, -1), 0), ((1, -1, 1, -1), 0), ((1, -1, -1, 1), 0)) + tuple(
    (tuple(-1 if j == i else 1 for j in range(4)), c0) for i in range(4) for c0 in (0, 1))


def _wall_k(mask, a):
    k = bin(mask).count("1")
    return sum(x if mask >> i & 1 else -x for i, x in enumerate(a)) + (4 - 2 * k) // 4


def _mass_m(mask, m):
    return tuple(sum(p[c] if mask >> i & 1 else -p[c] for i, p in enumerate(m)) for c in (0, 1))


def _sub(u, v):
    return (u[0] - v[0], u[1] - v[1])


def expected_chamber(a):
    """(kind, subsets, i0) of the open chamber holding a, or None on a wall."""
    ls = [sum(a) - 2 * x for x in a]
    if any(v in (0, 1) for v in ls):
        return None
    for i, v in enumerate(ls):
        if v < 0 or v > 1:
            i0 = 1 << i if v < 0 else 0b1111 ^ (1 << i)
            return "exterior", tuple(sorted(i0 ^ (1 << j) for j in range(4))), i0
    ks = [_wall_k(r, a) for r in E_REPS]
    if 0 in ks:
        return None
    return "interior", tuple(sorted(r if k > 0 else r ^ 0b1111 for r, k in zip(E_REPS, ks))), None


def expected_generic(a, m) -> bool:
    for c in product((1, -1), repeat=4):
        s = sum(ci * x for ci, x in zip(c, a))
        if s.denominator == 1 and not any(sum(ci * p[r] for ci, p in zip(c, m)) for r in (0, 1)):
            return False
    return True


def _complete(x4, z4):
    """Central entries from the fiber relations 2x0 + sum x = 1, 2z0 + sum z = 0."""
    x0 = (1 - sum(x4)) / 2
    z0 = tuple(-sum(z[c] for z in z4) / 2 for c in (0, 1))
    return (x0,) + tuple(x4), (z0,) + tuple(z4)


def _pairs(zs):
    return tuple((z.re, z.im) for z in zs)


def _check_witness(pv, w):
    x = pv.x[1:]
    z = _pairs(pv.z[1:])
    sx = sum(x)
    sz = tuple(sum(p[c] for p in z) for c in (0, 1))
    fam, k = w["family"], w["k"]
    if fam == "H_k":
        xv, zv = sx, sz
        want = 2 * k + 1
    elif fam == "H_k_i":
        xv, zv = x[w["i"] - 1], z[w["i"] - 1]
        want = k
    elif fam == "H'_k_i":
        i = w["i"] - 1
        xv, zv = 2 * x[i] - sx, tuple(2 * z[i][c] - sz[c] for c in (0, 1))
        want = 2 * k + 1
    else:
        require(fam == "H_k_i1_i2", f"unknown witness family {fam}")
        i, j = w["i1"] - 1, w["i2"] - 1
        xv = 2 * (x[i] + x[j]) - sx
        zv = tuple(2 * (z[i][c] + z[j][c]) - sz[c] for c in (0, 1))
        want = 2 * k + 1
    require(xv == want and zv == (0, 0), f"witness {w} does not hold")


class ExactPeriods(_Stream):
    """Chamber, genericity, Torelli map, inverse and period domain on random
    (alpha, m); every eighth item sits exactly on a wall or Nakajima plane."""

    cycle = 8

    def __init__(self, seed):
        super().__init__(seed)
        self.k = 0
        self.wall_slot = self.rng.randrange(8)

    def _alpha(self, large):
        rng = self.rng
        out = []
        for _ in range(4):
            q = int(10 ** rng.uniform(2, 9)) if large else rng.randint(3, 100)
            out.append(Fraction(rng.randint(1, (q - 1) // 2), q))
        return out

    def _masses(self):
        rng = self.rng
        return [tuple(Fraction(rng.randint(-30, 30), rng.randint(1, 30)) for _ in (0, 1))
                for _ in range(4)]

    def next_item(self):
        k = self.k
        large = self.size("denominator") < 0.5
        kind = "generic"
        if k % 8 == self.wall_slot:
            kind = ("wall", "plane")[(k // 8) % 2]
        m = self._masses()
        if kind == "generic":
            a = self._alpha(large)
        else:
            c, c0 = self.rng.choice(WALLS)
            j = self.rng.randrange(4)
            while True:
                a = self._alpha(large)
                a[j] = (c0 - sum(c[i] * a[i] for i in range(4) if i != j)) / c[j]
                if 0 < a[j] < HALF and (kind == "plane" or expected_chamber(a) is None):
                    break
            if kind == "plane":
                m[j] = tuple(-sum(c[i] * m[i][r] for i in range(4) if i != j) / c[j]
                             for r in (0, 1))
        self.k += 1
        return {"kind": kind, "alpha": tuple(a), "m": tuple(m)}

    def run(self, item):
        alpha = item["alpha"]
        data = chambers.ParabolicData(alpha, tuple(_gauss(p) for p in item["m"]))
        out = {"label": attempt(chambers.classify_chamber, alpha),
               "generic": attempt(chambers.is_generic, data),
               "chamber": attempt(torelli.torelli_chamber, data)}
        pv = out["parallel"] = attempt(torelli.torelli_parallel, data)
        ok = not isinstance(pv, Exception)
        out["inverse"] = attempt(torelli.inverse_torelli, pv) if ok else pv
        out["domain"] = attempt(torelli.in_period_domain, pv) if ok else pv
        return out

    def _check(self, item, out):
        a, m = item["alpha"], item["m"]
        exp = expected_chamber(a)
        gen = expected_generic(a, m)
        if exp is None:
            raised("classify_chamber", out["label"], chambers.OnWall)
            raised("torelli_chamber", out["chamber"],
                   chambers.OnWall if gen else (chambers.OnWall, torelli.NonGeneric))
        else:
            label = value("classify_chamber", out["label"])
            require((label.kind, tuple(label.subsets), label.i0) == exp,
                    f"chamber {label} != {exp}")
            if gen:
                pv = value("torelli_chamber", out["chamber"])
                kind, subsets, i0 = exp
                xs = [_wall_k(s, a) for s in subsets]
                zs = [_mass_m(s, m) for s in subsets]
                if kind == "exterior":
                    xs = [x - _wall_k(i0, a) for x in xs]
                    zs = [_sub(z, _mass_m(i0, m)) for z in zs]
                require((pv.x, _pairs(pv.z)) == _complete(xs, zs), "chamber periods")
                require(pv.basis == label, "chamber basis label")
            else:
                raised("torelli_chamber", out["chamber"], torelli.NonGeneric)
        require(value("is_generic", out["generic"]) is gen, f"is_generic != {gen}")
        pv = value("torelli_parallel", out["parallel"])
        x4 = [sum(r * x for r, x in zip(row, a)) for row in M_ROWS]
        x4[0] += 1
        z4 = [tuple(sum(r * p[c] for r, p in zip(row, m)) for c in (0, 1)) for row in M_ROWS]
        require((pv.x, _pairs(pv.z)) == _complete(x4, z4), "parallel periods")
        back = value("inverse_torelli", out["inverse"])
        require(tuple(back.alpha) == a and _pairs(back.masses) == m, "inverse round trip")
        ok, witness = value("in_period_domain", out["domain"])
        require(ok is gen, f"in_period_domain {ok} for generic={gen}")
        if not ok:
            _check_witness(pv, witness)

# ---------------------------------------------------------------------------
# group-actions
# ---------------------------------------------------------------------------

# Faces of the model alcove as (gradient, constant): f_i(x) = grad . x + const,
# positive inside; r_i reflects in face i, which omits vertex i of
# (barycenter, 0, v_12, v_13, v_14).
FACES = (((-2, 2, 2, 2), 0), ((-1, -1, -1, -1), 1), ((1, 1, -1, -1), 0),
         ((1, -1, 1, -1), 0), ((1, -1, -1, 1), 0))
I0 = ((-2, 1, 1, 1, 1), (1, -2, 0, 0, 0), (1, 0, -2, 0, 0), (1, 0, 0, -2, 0), (1, 0, 0, 0, -2))
MAT_A = ((1, 1), (0, 1))
MAT_B = ((1, 0), (-1, 1))
NEG_ID = ((-1, 0), (0, -1))
BLOCK = ("walk",) * 2 + ("word",) * 4 + ("normalize",) * 4


def _face(i, x):
    grad, const = FACES[i]
    return sum(g * v for g, v in zip(grad, x)) + const


def _reflect(i, x, linear=False):
    grad, const = FACES[i]
    f = sum(g * v for g, v in zip(grad, x)) + (0 if linear else const)
    n2 = sum(g * g for g in grad)
    return tuple(v - Fraction(2 * g) * f / n2 for v, g in zip(x, grad))


def _target_reflect(i, x):
    if i == 0:
        s = (sum(x) - 1) / 2
        return tuple(v - s for v in x)
    return tuple(-v if j == i - 1 else v for j, v in enumerate(x))


def _twist_product(word):
    A = [[int(r == c) for c in range(5)] for r in range(5)]
    for i in word:
        D = [[int(r == c) + (I0[i][c] if r == i else 0) for c in range(5)] for r in range(5)]
        A = [[sum(A[r][k] * D[k][c] for k in range(5)) for c in range(5)] for r in range(5)]
    return tuple(tuple(r) for r in A)


def _mul(M, N):
    return tuple(tuple(sum(M[r][k] * N[k][c] for k in range(2)) for c in range(2))
                 for r in range(2))


def _inv(M):
    (a, b), (c, d) = M
    return ((d, -b), (-c, a))


def _hurwitz(f, i, d):
    a, b = f[i - 1], f[i]
    pair = (b, _mul(_mul(_inv(b), a), b)) if d == 1 else (_mul(_mul(a, b), _inv(a)), a)
    return f[:i - 1] + pair + f[i + 1:]


def _product(fs):
    out = ((1, 0), (0, 1))
    for M in fs:
        out = _mul(out, M)
    return out


class GroupActions(_Stream):
    """Alcove walks, generator words through coxeter and homology, and
    Hurwitz normalization, in blocks of 2 walks, 4 words, 4 normalizations."""

    cycle = len(BLOCK)

    def __init__(self, seed):
        super().__init__(seed)
        self._block = []

    def _rational(self, lo, hi):
        den = self.rng.randint(1, 60)
        return Fraction(self.rng.randint(round(lo * den), round(hi * den)), den)

    def next_item(self):
        rng = self.rng
        if not self._block:
            self._block = list(BLOCK)
            rng.shuffle(self._block)
        kind = self._block.pop()
        if kind == "walk":
            size = 0.5 * 40 ** self.size("walk")
            item = {"kind": kind, "alpha": tuple(rng.choice((1, -1)) * self._rational(size / 2, size)
                                                 for _ in range(4))}
        elif kind == "word":
            length = 1 + int(16 * self.size("word"))
            item = {"kind": kind, "word": [rng.randrange(5) for _ in range(length)],
                    "x": tuple(self._rational(-2, 2) for _ in range(4)),
                    "m": tuple(tuple(self._rational(-3, 3) for _ in (0, 1)) for _ in range(4))}
        else:
            f = (MAT_B, MAT_A) * 3
            for _ in range(1 + int(12 * self.size("scramble"))):
                f = _hurwitz(f, rng.randint(1, 5), rng.randint(1, 2))
            item = {"kind": kind, "factors": f}
        return item

    def run(self, item):
        kind = item["kind"]
        if kind == "walk":
            return attempt(coxeter.alcove_walk, item["alpha"])
        if kind == "word":
            w = item["word"]
            g = attempt(coxeter.compose_word, w, [coxeter.generator(i) for i in range(5)])
            t = attempt(coxeter.compose_word, w, [coxeter.target_generator(i) for i in range(5)])
            A = attempt(homology.word_to_auto, w)
            ok_g = not isinstance(g, Exception)
            masses = tuple(_gauss(p) for p in item["m"])
            return {"g": g, "target": t, "auto": A,
                    "hat": attempt(homology.hat_reduction, A) if not isinstance(A, Exception) else A,
                    "masses": attempt(coxeter.apply_to_masses, g, masses) if ok_g else g}
        return attempt(monodromy.normalize, monodromy.Factorization(item["factors"]))

    def _check(self, item, out):
        kind = item["kind"]
        if kind == "walk":
            g, a0, on_wall = value("alcove_walk", out)
            faces = [_face(i, a0) for i in range(5)]
            require(all(f >= 0 for f in faces), "alpha0 outside the closed model alcove")
            require(on_wall == (0 in faces), "on_wall flag")
            x = a0
            for i in g.word:
                x = _reflect(i, x)
            require(x == item["alpha"], "replayed word does not map alpha0 to alpha")
            require(tuple(g(a0)) == item["alpha"], "g(alpha0) != alpha")
        elif kind == "word":
            w, x = item["word"], item["x"]
            g, t = value("compose_word", out["g"]), value("compose_word", out["target"])
            A = value("word_to_auto", out["auto"])
            value("hat_reduction", out["hat"])
            y, tx = x, x
            re = tuple(p[0] for p in item["m"])
            im = tuple(p[1] for p in item["m"])
            for i in w:
                y = _reflect(i, y)
                tx = _target_reflect(i, tx)
                re, im = _reflect(i, re, linear=True), _reflect(i, im, linear=True)
            require(tuple(g(x)) == y, "compose_word on weights")
            require(tuple(t(x)) == tx, "compose_word on targets")
            require(tuple(tuple(r) for r in A) == _twist_product(w), "word_to_auto")
            mine = tuple(sum((Fraction(A[i][j]) - Fraction(A[0][j], 2)) * x[i - 1]
                             for i in range(1, 5)) + Fraction(A[0][j], 2) for j in range(1, 5))
            require(mine == tx, "hat reduction of the lattice word")
            require(tuple(homology.hat_affine_apply(A, x)) == tx, "hat_affine_apply")
            require(_pairs(value("apply_to_masses", out["masses"])) == tuple(zip(re, im)),
                    "apply_to_masses")
        else:
            moves, normal = value("normalize", out)
            f = item["factors"]
            for i, d in moves:
                f = _hurwitz(f, i, d)
            require(tuple(normal.factors) == f, "replayed moves do not give the normal form")
            require(_product(f) == NEG_ID, "normal form product != -Id")
            require(all(M[0][0] + M[1][1] == 2 for M in f), "normal form factor not parabolic")

    def counters(self, item, out):
        if isinstance(out, Exception):
            return {}
        if item["kind"] == "walk":
            return {"walk_calls": 1, "walk_steps": len(out[0].word)}
        if item["kind"] == "normalize":
            return {"normalize_calls": 1, "normalize_moves": len(out[0])}
        return {}


# ---------------------------------------------------------------------------
# spectral-numeric
# ---------------------------------------------------------------------------

RES_TOL = 1e-7       # README: residues
CENTER_TOL = 1e-7    # beta^5 normalization: singular fibers sum to 0
LAMBDA_TOL = 1e-6    # modular-lambda oracle, as in the spectral tests
HK_TOL = 1e-10       # hyperkahler identities


def _lambda_of_tau(tau):
    import mpmath as mp

    q = mp.exp(1j * mp.pi * mp.mpc(tau))
    return complex((mp.jtheta(2, 0, q) / mp.jtheta(3, 0, q)) ** 4)


class SpectralNumeric(_Stream):
    """Base, singular fibers, B0 membership, residues and periods at a
    random (p0, m, beta), plus one hyperkahler identity check."""

    def calibration(self):
        return numpy_calibration()

    def _cnormal(self, scale=1.0):
        return complex(self.rng.gauss(0, scale), self.rng.gauss(0, scale))

    def _tangent(self):
        a = [[self._cnormal() for _ in range(2)] for _ in range(2)]
        a[1][1] = -a[0][0]
        return a

    def next_item(self):
        rng = self.rng
        while True:
            p0 = complex(rng.uniform(-2, 3), rng.uniform(-1.5, 1.5))
            if min(abs(p0), abs(p0 - 1)) >= 0.3:
                break
        beta = 10 ** (-1 + 5 * self.size("beta")) * cmath.exp(2j * math.pi * rng.random())
        item = {"kind": "spectral", "p0": p0, "m": tuple(self._cnormal(0.9) for _ in range(4)), "beta": beta,
                "hk": (10 ** rng.uniform(-1, 1), 10 ** rng.uniform(-1, 1),
                       rng.uniform(0, 2 * math.pi)),
                "v": (self._tangent(), self._tangent()), "w": (self._tangent(), self._tangent())}
        return item

    def _hk(self, item):
        p = hkmodel.HKParams(*item["hk"])
        v, w = hkmodel.PointTangent(*item["v"]), hkmodel.PointTangent(*item["w"])
        twice = {S: hkmodel.apply_structure(S, hkmodel.apply_structure(S, v, p), p)
                 for S in "IJK"}
        return v, twice, hkmodel.pairings(v, w, p), hkmodel.holomorphic_pairing_closed_form(v, w, p)

    def run(self, item):
        base = attempt(spectral.build_base, item["p0"], item["m"])
        out = {"base": base, "hk": attempt(self._hk, item)}
        if not isinstance(base, Exception):
            beta = item["beta"]
            out["fibers"] = attempt(spectral.singular_fibers, base)
            out["in_B0"] = attempt(spectral.in_B0, base, beta)
            out["residues"] = attempt(spectral.tautological_residues, base, beta)
            out["periods"] = attempt(spectral.elliptic_periods, base, beta)
        return out

    def _check(self, item, out):
        base = value("build_base", out["base"])
        beta = item["beta"]
        fibers = value("singular_fibers", out["fibers"])
        require(len(fibers) == 6, "six singular fibers")
        scale = max(1.0, max(abs(b) for b in fibers))
        require(abs(sum(fibers)) <= CENTER_TOL * scale, "singular fibers do not sum to 0")
        in_b0 = value("in_B0", out["in_B0"])
        near = min(abs(beta - b) for b in fibers) <= 1e-6 * max(1.0, abs(beta))
        require(in_b0 is True or (in_b0 is False and near), "in_B0 rejects a smooth fiber")
        if in_b0:
            res = value("tautological_residues", out["residues"])
            for key, m in zip(("0", "1", "p0", "inf"), item["m"]):
                plus, minus = res[key]
                require(abs(plus + minus) <= 1e-9, f"residue sheets at {key}")
                require(min(abs(plus - m), abs(plus + m)) <= RES_TOL, f"residue at {key}")
            _, _, tau = value("elliptic_periods", out["periods"])
            require(tau.imag > 0, "tau not in the upper half-plane")
            r = np.roots(np.asarray(base.curve_coeffs(beta))[::-1])
            cr = ((r[0] - r[2]) * (r[1] - r[3])) / ((r[1] - r[2]) * (r[0] - r[3]))
            lam = _lambda_of_tau(tau)
            orbit = (cr, 1 - cr, 1 / cr, 1 / (1 - cr), cr / (cr - 1), (cr - 1) / cr)
            require(min(abs(lam - o) for o in orbit) <= LAMBDA_TOL, "lambda(tau) vs cross-ratio")
        v, twice, pair, closed = value("hkmodel", out["hk"])
        l1, l2, _ = item["hk"]
        size = sum(abs(z) ** 2 for M in item["v"] + item["w"] for row in M for z in row)
        hk_scale = max(1.0, 2 * l1 * max(1.0, l2) * size)
        for S, s2 in twice.items():
            dev = max(np.abs(s2.a + v.a).max(), np.abs(s2.phi + v.phi).max())
            require(dev <= HK_TOL * hk_scale, f"{S}^2 != -1")
        require(abs(pair["OmegaItheta"] - closed) <= HK_TOL * hk_scale,
                "holomorphic pairing vs closed form")

    def counters(self, item, out):
        c = {}
        if "in_B0" in out:
            c["in_B0_calls"] = 1
            c["in_B0_true"] = int(out["in_B0"] is True)
        if "periods" in out:
            c["periods_calls"] = 1
            c["periods_ok"] = int(not isinstance(out["periods"], Exception))
        return c


WORKLOADS = {"exact-periods": ExactPeriods, "group-actions": GroupActions,
             "spectral-numeric": SpectralNumeric}
