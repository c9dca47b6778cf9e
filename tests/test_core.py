import random
from fractions import Fraction
from itertools import combinations

import numpy as np
import pytest

from hitchin4.core import GaussianRational, NonConvergence, as_fraction
from hitchin4.spectral import ComplexPoly, poly_roots

from lattice_oracle import ExactMatrix, det, nullspace

rng = random.Random(20260810)


def rand_fraction():
    return Fraction(rng.randint(-30, 30), rng.randint(1, 30))


def rand_gaussian():
    return GaussianRational(rand_fraction(), rand_fraction())


# ---------------------------------------------------------------------------
# rationals and Gaussian rationals
# ---------------------------------------------------------------------------

def test_gaussian_rational_json_form():
    # each part is its str, "p/q" or "p" for an integer; str(g) is "a+bi"
    g = GaussianRational(Fraction(-3, 10), 5)
    assert g.to_json() == {"re": "-3/10", "im": "5"}
    assert (str(g), str(g.conjugate())) == ("-3/10+5i", "-3/10-5i")


def test_gaussian_rational_json_and_parse_roundtrip():
    for _ in range(200):
        g = rand_gaussian()
        assert GaussianRational.from_json(g.to_json()) == g
    assert GaussianRational.parse("3/10") == GaussianRational(Fraction(3, 10))
    assert GaussianRational.parse("1+2i") == GaussianRational(1, 2)
    assert GaussianRational.parse("-1/2-3/4i") == GaussianRational(Fraction(-1, 2), Fraction(-3, 4))
    assert GaussianRational.parse("i") == GaussianRational(0, 1)
    assert GaussianRational.parse("-i") == GaussianRational(0, -1)


def test_gaussian_rational_parts_are_any_fraction_literal():
    # each part of a+bi reads as Fraction does, decimals and exponents too; the
    # sign of an exponent does not start the imaginary part
    parse = GaussianRational.parse
    assert parse("1.5i") == parse("3/2i") == GaussianRational(0, Fraction(3, 2))
    assert parse("1e-3+2i") == GaussianRational(Fraction(1, 1000), 2)
    assert parse("-0.25-0.5i") == GaussianRational(Fraction(-1, 4), Fraction(-1, 2))
    assert parse("2e+5i") == GaussianRational(0, 200000)
    assert parse("1E5-2e-3i") == GaussianRational(100000, Fraction(-1, 500))
    assert parse("1.5") == GaussianRational(Fraction(3, 2))
    for bad in ("1+2+3i", "1.5/2i", "ei", "1-i-2i", "--1i"):
        with pytest.raises(ValueError):
            parse(bad)


def test_rational_literals_are_bounded_by_the_int_string_limit(monkeypatch):
    # core.as_fraction, the one reader of rational literals, refuses a literal whose
    # mantissa digits plus |exponent| pass sys.get_int_max_str_digits() (4300 by
    # default) before building its power of ten; Gaussian parts go through it too
    import sys
    import time

    start = time.perf_counter()
    for bad in ("1e-5000000", "1e4305", "1e-4300", "0.1e-4299", "-1.5E+4300", "1e4_305"):
        with pytest.raises(ValueError, match="more than 4300 digits"):
            as_fraction(bad)
    for bad in ("1e-5000000i", "1e4305+2i", "2-1e-9999i"):
        with pytest.raises(ValueError, match="more than 4300 digits"):
            GaussianRational.parse(bad)
    with pytest.raises(ValueError, match="more than 4300 digits"):
        GaussianRational.from_json({"re": "0", "im": "1e-5000000"})
    assert time.perf_counter() - start < 0.5
    assert as_fraction("1e-4290") == Fraction(1, 10 ** 4290)
    assert as_fraction("1e-4299") == Fraction(1, 10 ** 4299)
    assert as_fraction(" 1.5e3 ") == 1500 and as_fraction("3/2") == Fraction(3, 2)
    assert as_fraction(7) == 7 and type(as_fraction(7)) is Fraction
    half = Fraction(1, 2)
    assert as_fraction(half) is half
    if hasattr(sys, "set_int_max_str_digits"):  # Python's own limit sets the bound
        monkeypatch.setattr(sys, "get_int_max_str_digits", lambda: 5000)
        assert as_fraction("1e-4305") == Fraction(1, 10 ** 4305)
        with pytest.raises(ValueError, match="more than 5000 digits"):
            as_fraction("1e-5000")


def test_gaussian_rational_field_axioms():
    for _ in range(100):
        a, b, c = rand_gaussian(), rand_gaussian(), rand_gaussian()
        assert a * (b + c) == a * b + a * c
        assert (a + b) * c == a * c + b * c
        assert a + b == b + a and a * b == b * a
        if b:
            assert (a / b) * b == a
    i = GaussianRational(0, 1)
    assert i * i == GaussianRational(-1, 0)


# ---------------------------------------------------------------------------
# exact matrices
# ---------------------------------------------------------------------------

def rand_matrix(n):
    return ExactMatrix([[rand_fraction() for _ in range(n)] for _ in range(n)])


def test_matrix_multiplication_associative():
    for _ in range(20):
        A, B, C = rand_matrix(3), rand_matrix(3), rand_matrix(3)
        assert (A * B) * C == A * (B * C)


def test_matrix_det():
    M = ExactMatrix([(-1, -1, -1, -1), (1, 1, -1, -1), (1, -1, 1, -1), (1, -1, -1, 1)])
    assert det(M) == 16


def test_nullspace():
    A = ExactMatrix([(1, 1, 0), (0, 0, 1)])
    ns = nullspace(A)
    assert len(ns) == 1
    v = ns[0]
    assert A.apply(v) == (0, 0)


# ---------------------------------------------------------------------------
# complex polynomials
# ---------------------------------------------------------------------------

def _match_multisets(xs, ys, tol):
    ys = list(ys)
    for x in xs:
        j = min(range(len(ys)), key=lambda j: abs(ys[j] - x))
        assert abs(ys[j] - x) < tol, (x, ys)
        ys.pop(j)


def poly_from_roots(roots, lead=1.0):
    """lead * prod(z - r) over the roots, built by convolution."""
    c = np.array([lead], dtype=complex)
    for r in roots:
        c = np.convolve(c, [-r, 1.0])
    return ComplexPoly(c)


def test_poly_roots_known():
    _match_multisets(poly_roots(ComplexPoly([1, 0, 1])), [1j, -1j], 1e-10)
    p = poly_from_roots([0, 1, 2])
    _match_multisets(poly_roots(p), [0, 1, 2], 1e-9)


def test_poly_roots_spectral_coefficients_product():
    # quartic from the base-polynomial family at m = (1,0,0,0), p0 = 2, beta = 0;
    # oracle: product of companion-matrix roots equals f(0)/lead
    from hitchin4.spectral import f_m_coefficients

    f = f_m_coefficients(2.0, (1.0, 0.0, 0.0, 0.0))
    deg = max(i for i, c in enumerate(f) if abs(c) > 1e-13)
    p = ComplexPoly(f[: deg + 1])
    roots = poly_roots(p)
    assert len(roots) == p.degree
    prod = np.prod(roots)
    expected = (-1) ** p.degree * p.coeffs[0] / p.coeffs[-1]
    assert abs(prod - expected) < 1e-8 * (1 + abs(expected))


def test_poly_roots_from_roots_roundtrip():
    for _ in range(30):
        deg = rng.randint(1, 8)
        # separated random roots
        roots = []
        while len(roots) < deg:
            z = complex(rng.uniform(-3, 3), rng.uniform(-3, 3))
            if all(abs(z - w) > 0.3 for w in roots):
                roots.append(z)
        p = poly_from_roots(roots, lead=complex(rng.uniform(0.5, 2)))
        _match_multisets(poly_roots(p), roots, 1e-8)


def test_poly_roots_degree_zero_rejected():
    with pytest.raises(ValueError):
        poly_roots(ComplexPoly([1.0]))


def test_nonconvergence_guard_exists():
    assert issubclass(NonConvergence, RuntimeError)


# ---------------------------------------------------------------------------
# the oracle row reduction behind det and nullspace, against slower references
# ---------------------------------------------------------------------------

def cofactor_det(rows):
    """Laplace expansion along the first row."""
    if not rows:
        return Fraction(1)
    return sum(((-1) ** j * a * cofactor_det([r[:j] + r[j + 1:] for r in rows[1:]])
                for j, a in enumerate(rows[0]) if a), Fraction(0))


def minor_rank(rows):
    """Largest k with a nonzero k x k minor."""
    n, m = len(rows), len(rows[0]) if rows else 0
    for k in range(min(n, m), 0, -1):
        for ri in combinations(range(n), k):
            for ci in combinations(range(m), k):
                if cofactor_det([[rows[i][j] for j in ci] for i in ri]):
                    return k
    return 0


def rand_exact_matrix(r, n, m, gaussian):
    """n x m matrix; with probability 1/3 it is a product of n x k and k x m
    factors with k < min(n, m), so rank-deficient matrices occur often."""
    def entry():
        if gaussian:
            return GaussianRational(Fraction(r.randint(-4, 4), r.randint(1, 3)),
                                    Fraction(r.randint(-4, 4), r.randint(1, 3)))
        return Fraction(r.randint(-5, 5), r.randint(1, 4))

    if min(n, m) > 1 and r.random() < 1 / 3:
        k = r.randint(1, min(n, m) - 1)
        L = ExactMatrix([[entry() for _ in range(k)] for _ in range(n)])
        R = ExactMatrix([[entry() for _ in range(m)] for _ in range(k)])
        return L * R
    return ExactMatrix([[entry() for _ in range(m)] for _ in range(n)])


@pytest.mark.parametrize("gaussian", [False, True])
def test_square_row_reduction_matches_references(gaussian):
    r = random.Random(7001 + gaussian)
    seen = {"singular": 0, "regular": 0}
    for _ in range(60):
        n = r.randint(1, 4)
        A = rand_exact_matrix(r, n, n, gaussian)
        rows = [list(row) for row in A.rows]
        want = cofactor_det(rows)
        assert det(A) == want
        seen["regular" if want else "singular"] += 1
    assert min(seen.values()) >= 10, seen


@pytest.mark.parametrize("gaussian", [False, True])
def test_nullspace_matches_minor_rank(gaussian):
    r = random.Random(7101 + gaussian)
    deficient = 0
    for _ in range(40):
        n, m = r.randint(1, 4), r.randint(1, 5)
        A = rand_exact_matrix(r, n, m, gaussian)
        rank = minor_rank([list(row) for row in A.rows])
        deficient += rank < min(n, m)
        ns = nullspace(A)
        assert len(ns) == m - rank
        for v in ns:
            assert all(not x for x in A.apply(v))
        if ns:
            assert minor_rank([list(v) for v in ns]) == len(ns)  # independent
    assert deficient >= 5
