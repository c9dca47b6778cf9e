import random
from fractions import Fraction
from itertools import combinations

import numpy as np
import pytest

from hitchin4.core import (
    ComplexPoly,
    ExactMatrix,
    GaussianRational,
    NonConvergence,
    Singular,
    discriminant_z,
    exact_solve,
    nullspace,
    poly_roots,
    rational_from_str,
    rational_to_str,
)

rng = random.Random(20260810)


def rand_fraction():
    return Fraction(rng.randint(-30, 30), rng.randint(1, 30))


def rand_gaussian():
    return GaussianRational(rand_fraction(), rand_fraction())


# ---------------------------------------------------------------------------
# rationals and Gaussian rationals
# ---------------------------------------------------------------------------

def test_rational_string_roundtrip():
    for _ in range(200):
        q = rand_fraction()
        assert rational_from_str(rational_to_str(q)) == q
    assert rational_to_str(Fraction(5)) == "5"
    assert rational_to_str(Fraction(-3, 10)) == "-3/10"


def test_gaussian_rational_json_and_parse_roundtrip():
    for _ in range(200):
        g = rand_gaussian()
        assert GaussianRational.from_json(g.to_json()) == g
    assert GaussianRational.parse("3/10") == GaussianRational(Fraction(3, 10))
    assert GaussianRational.parse("1+2i") == GaussianRational(1, 2)
    assert GaussianRational.parse("-1/2-3/4i") == GaussianRational(Fraction(-1, 2), Fraction(-3, 4))
    assert GaussianRational.parse("i") == GaussianRational(0, 1)
    assert GaussianRational.parse("-i") == GaussianRational(0, -1)


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


def test_exact_solve_identity():
    b = tuple(rand_fraction() for _ in range(4))
    assert exact_solve(ExactMatrix.identity(4), b) == b


def test_exact_solve_parallel_matrix():
    # M M^T = 4 Id, so the solve acts as M^T / 4
    M = ExactMatrix([(-1, -1, -1, -1), (1, 1, -1, -1), (1, -1, 1, -1), (1, -1, -1, 1)])
    b = (Fraction(-9, 10), Fraction(1, 10), Fraction(1, 10), Fraction(1, 10))
    x = exact_solve(M, b)
    assert x == (Fraction(3, 10), Fraction(1, 5), Fraction(1, 5), Fraction(1, 5))
    oracle = tuple(v / 4 for v in M.transpose().apply(b))
    assert x == oracle


def test_exact_solve_singular():
    A = ExactMatrix([(1, 2), (2, 4)])
    with pytest.raises(Singular):
        exact_solve(A, (Fraction(1), Fraction(1)))


def test_matrix_inverse_and_det():
    for _ in range(10):
        A = rand_matrix(4)
        if A.det() == 0:
            continue
        assert A * A.inverse() == ExactMatrix.identity(4)
    M = ExactMatrix([(-1, -1, -1, -1), (1, 1, -1, -1), (1, -1, 1, -1), (1, -1, -1, 1)])
    assert M.det() == 16


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


def test_poly_roots_known():
    _match_multisets(poly_roots(ComplexPoly([1, 0, 1])), [1j, -1j], 1e-10)
    p = ComplexPoly.from_roots([0, 1, 2])
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
        p = ComplexPoly.from_roots(roots, lead=complex(rng.uniform(0.5, 2)))
        _match_multisets(poly_roots(p), roots, 1e-8)


def test_poly_roots_degree_zero_rejected():
    with pytest.raises(ValueError):
        poly_roots(ComplexPoly([1.0]))


def test_discriminant_examples():
    assert abs(discriminant_z(ComplexPoly([-1, 0, 1])) - 4) < 1e-12
    dbl = ComplexPoly([1, -2, 1])  # (z-1)^2
    assert abs(discriminant_z(dbl)) < 1e-9


def test_discriminant_matches_resultant_oracle():
    # independent oracle: Sylvester resultant over complex doubles
    def sylvester_disc(c):
        c = np.asarray(c, dtype=complex)
        d = len(c) - 1
        dc = np.array([k * c[k] for k in range(1, d + 1)])
        n = 2 * d - 1
        S = np.zeros((n, n), dtype=complex)
        for i in range(d - 1):
            S[i, i:i + d + 1] = c[::-1]
        for i in range(d):
            S[d - 1 + i, i:i + d] = dc[::-1]
        sign = -1 if (d * (d - 1) // 2) % 2 else 1
        return sign * np.linalg.det(S) / c[-1]

    for _ in range(20):
        c = [complex(rng.uniform(-2, 2), rng.uniform(-2, 2)) for _ in range(4)] + [1.0]
        got = discriminant_z(ComplexPoly(c))
        want = sylvester_disc(c)
        assert abs(got - want) < 1e-6 * (1 + abs(want))


def test_discriminant_exact_double_root_vanishes():
    # ((z-a)^2 (z-b)) over Q(i): discriminant is exactly zero
    a = GaussianRational(Fraction(2, 3), Fraction(1, 5))
    b = GaussianRational(Fraction(-1, 2), Fraction(0))
    one = GaussianRational(Fraction(1))
    # expand (z-a)^2 (z-b)
    c0 = -(a * a * b)
    c1 = a * a + 2 * a * b
    c2 = -(2 * a + b)
    coeffs = [c0, c1, c2, one]
    assert discriminant_z(coeffs) == GaussianRational(Fraction(0))
    # and an exact nonzero case: z^2 - 1 -> 4
    assert discriminant_z([Fraction(-1), Fraction(0), Fraction(1)]) == Fraction(4)


def test_nonconvergence_guard_exists():
    assert issubclass(NonConvergence, RuntimeError)


# ---------------------------------------------------------------------------
# the row reduction behind det, inverse, exact_solve, nullspace and the exact
# discriminant, against slow references
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
        det = cofactor_det(rows)
        assert A.det() == det
        b = tuple(rand_exact_matrix(r, 1, n, gaussian).rows[0])
        if det:
            seen["regular"] += 1
            assert A * A.inverse() == ExactMatrix.identity(n)
            assert A.apply(exact_solve(A, b)) == b
        else:
            seen["singular"] += 1
            with pytest.raises(Singular):
                A.inverse()
            with pytest.raises(Singular):
                exact_solve(A, b)
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


def test_exact_discriminant_matches_root_product():
    r = random.Random(7201)
    one = GaussianRational(Fraction(1))
    for _ in range(30):
        d = r.randint(2, 5)
        roots = [GaussianRational(Fraction(r.randint(-4, 4), r.randint(1, 3)),
                                  Fraction(r.randint(-4, 4), r.randint(1, 3)))
                 for _ in range(d)]
        if r.random() < 0.25:
            roots[-1] = roots[0]  # a double root
        lead = GaussianRational(Fraction(r.randint(1, 5), r.randint(1, 3)),
                                Fraction(r.randint(-3, 3), r.randint(1, 3)))
        coeffs = [lead]  # ascending coefficients of lead * prod (z - r_i)
        for root in roots:
            coeffs = [-root * coeffs[0]] + [coeffs[k - 1] - root * coeffs[k]
                                            for k in range(1, len(coeffs))] + [coeffs[-1]]
        want = one
        for i in range(d):
            for j in range(i + 1, d):
                want = want * (roots[i] - roots[j]) * (roots[i] - roots[j])
        for _ in range(2 * d - 2):
            want = want * lead
        assert discriminant_z(coeffs) == want
