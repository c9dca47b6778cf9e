import json
import random
import re

import pytest

from hitchin4 import monodromy
from hitchin4.core import BrokenIdentity
from hitchin4.monodromy import (
    IDENT,
    MAT_A,
    MAT_B,
    NEG_IDENT,
    Exhausted,
    Factorization,
    NotParabolic,
    canonical_factorization,
    hurwitz_move,
    is_I1_twist,
    mat_det,
    mat_inv,
    mat_mul,
    normalize,
    parse_factors,
    twist_of_vector,
    vanishing_cycle_match,
    _certificate,
)

from lattice_oracle import bfs_normalize, conjugator_by_solve

rng = random.Random(123456)


def random_scramble(f, n):
    for _ in range(n):
        f = hurwitz_move(f, rng.randint(1, len(f.factors) - 1), rng.choice((1, 2)))
    return f


def random_sl2z(depth=6):
    S = ((0, -1), (1, 0))
    T = ((1, 1), (0, 1))
    Ti = ((1, -1), (0, 1))
    C = IDENT
    for _ in range(rng.randint(1, depth)):
        C = mat_mul(C, rng.choice((S, T, Ti)))
    return C


def random_conjugate(f):
    C = random_sl2z()
    return Factorization(tuple(mat_mul(mat_mul(mat_inv(C), M), C) for M in f.factors))


# ---------------------------------------------------------------------------
# I1 predicate
# ---------------------------------------------------------------------------

def test_is_I1_twist_examples():
    ok, v = is_I1_twist(MAT_A)
    assert ok and v == (1, 0)
    ok, v = is_I1_twist(MAT_B)
    assert ok and v == (0, 1)
    ok, v = is_I1_twist(NEG_IDENT)
    assert not ok and v is None


def test_is_I1_rejects_multiple_twists_and_identity():
    ok, _ = is_I1_twist(((1, 2), (0, 1)))  # I2 class, twist multiplicity 2
    assert not ok
    ok, _ = is_I1_twist(IDENT)
    assert not ok


def test_is_I1_conjugation_invariance():
    for _ in range(50):
        C = random_sl2z()
        M = mat_mul(mat_mul(C, MAT_A), mat_inv(C))
        ok, v = is_I1_twist(M)
        assert ok
        # eigenvector transforms as C e1 up to sign
        want = (C[0][0], C[1][0])
        from math import gcd
        g = gcd(want[0], want[1])
        want = (want[0] // g, want[1] // g)
        if want[1] < 0 or (want[1] == 0 and want[0] < 0):
            want = (-want[0], -want[1])
        assert v == want


# ---------------------------------------------------------------------------
# Hurwitz moves
# ---------------------------------------------------------------------------

def test_hurwitz_move_definition():
    f = Factorization((MAT_A, MAT_B))
    moved = hurwitz_move(f, 1, 1)
    assert moved.factors == (MAT_B, mat_mul(mat_mul(mat_inv(MAT_B), MAT_A), MAT_B))


def test_hurwitz_moves_invert_each_other():
    f = random_scramble(canonical_factorization(), 6)
    for i in range(1, 6):
        assert hurwitz_move(hurwitz_move(f, i, 1), i, 2).factors == f.factors
        assert hurwitz_move(hurwitz_move(f, i, 2), i, 1).factors == f.factors


def test_hurwitz_moves_preserve_product_and_classes():
    f = canonical_factorization()
    for _ in range(100):
        i = rng.randint(1, 5)
        d = rng.choice((1, 2))
        g = hurwitz_move(f, i, d)
        assert g.total_product() == f.total_product() == NEG_IDENT
        # conjugacy classes: all trace-2 single twists
        for M in g.factors:
            assert M[0][0] + M[1][1] == 2
            ok, _ = is_I1_twist(M)
            assert ok
        f = g


def test_hurwitz_move_bounds():
    f = canonical_factorization()
    with pytest.raises(IndexError):
        hurwitz_move(f, 6, 1)
    with pytest.raises(IndexError):
        hurwitz_move(f, 0, 1)


# ---------------------------------------------------------------------------
# canonical factorization
# ---------------------------------------------------------------------------

def test_canonical_factorization():
    f = canonical_factorization()
    assert f.factors == (MAT_B, MAT_A, MAT_B, MAT_A, MAT_B, MAT_A)
    assert f.total_product() == NEG_IDENT
    # reversed composition order also gives -Id for this pattern
    rev = IDENT
    for M in reversed(f.factors):
        rev = mat_mul(rev, M)
    assert rev == NEG_IDENT
    AB = mat_mul(MAT_A, MAT_B)
    assert AB == ((0, 1), (-1, 1))
    assert mat_mul(mat_mul(AB, AB), AB) == NEG_IDENT
    for M in f.factors:
        ok, _ = is_I1_twist(M)
        assert ok
    W = ((0, 1), (-1, 0))
    assert MAT_B == mat_mul(mat_mul(mat_inv(W), MAT_A), W)


# ---------------------------------------------------------------------------
# normalization
# ---------------------------------------------------------------------------

def test_normalize_canonical_is_trivial():
    moves, normal = normalize(canonical_factorization())
    assert moves == []
    assert normal.factors == canonical_factorization().factors


def test_normalize_scrambles():
    for _ in range(30):
        n = rng.randint(1, 12)
        f = random_scramble(canonical_factorization(), n)
        moves, normal = normalize(f)
        assert len(moves) <= n
        # replay reproduces the normal form
        g = f
        for i, d in moves:
            g = hurwitz_move(g, i, d)
        assert g.factors == normal.factors
        assert conjugator_by_solve(normal, canonical_factorization().factors) is not None


def test_normalize_global_conjugate():
    for _ in range(10):
        f = random_scramble(canonical_factorization(), rng.randint(0, 8))
        moves, normal = normalize(random_conjugate(f))
        assert conjugator_by_solve(normal, canonical_factorization().factors) is not None


def test_normalize_validates_input():
    with pytest.raises(ValueError):
        normalize(Factorization((MAT_A,) * 6))  # product is not -Id
    bad = (((1, 2), (0, 1)),) + canonical_factorization().factors[1:]
    with pytest.raises(NotParabolic):
        normalize(Factorization(bad))


def test_parse_factors():
    f = canonical_factorization()
    text = json.dumps(f.factors)
    # a JSON list, with or without surrounding blanks, is the one format
    assert parse_factors(text) == parse_factors(f" {text} ") == f
    for bad in ("[[1]]", "[1,2]", '"x"', "[[[1,0],[0]]]", "[[[1,0],[0,1.5]]]", "x",
                "[[[true,0],[0,1]]]", "{}", text[1:-1]):
        with pytest.raises(ValueError, match=f"2x2 integer matrices: {re.escape(repr(bad))}"):
            parse_factors(bad)


def seeded_scramble(seed, n):
    r = random.Random(seed)
    f = canonical_factorization()
    for _ in range(n):
        f = hurwitz_move(f, r.randint(1, 5), r.choice((1, 2)))
    return f


X = ((2, 1), (-1, 0))
# (seed, scramble depth, moves, normal): the exact search output, so any
# change to the move order or the tie-breaking shows here
PINNED = [
    (0, 1, [(4, 1)], (MAT_B, MAT_A) * 3),
    (1, 2, [(2, 1), (3, 1)], (MAT_B, MAT_A) * 3),
    (2, 3, [(2, 1)], (MAT_B, MAT_A) * 3),
    (3, 4, [(3, 1), (2, 2), (5, 1)], (MAT_B, MAT_A) * 3),
    (4, 5, [(5, 1)], (MAT_A, MAT_B) * 3),
    (5, 6, [(1, 1), (5, 2)], (MAT_A, X) * 3),
    (6, 7, [(2, 2), (4, 2)], (MAT_A, X) * 3),
    (7, 8, [(4, 2)], (MAT_B, MAT_A) * 3),
    (8, 9, [(5, 1)], (MAT_A, MAT_B) * 3),
    (9, 10, [(3, 2), (4, 1)], (MAT_B, MAT_A) * 3),
    (10, 11, [(1, 2), (4, 2)], (MAT_B, MAT_A) * 3),
    (11, 12, [(1, 1), (5, 2)], (MAT_A, MAT_B) * 3),
    (22, 11, [(3, 1), (2, 2), (5, 1)], (MAT_B, MAT_A) * 3),
    (208, 5, [], (X, MAT_B) * 3),
]


@pytest.mark.parametrize("seed, n, moves, normal", PINNED,
                         ids=[f"seed{p[0]}-depth{p[1]}" for p in PINNED])
def test_normalize_pinned_scrambles(seed, n, moves, normal):
    got_moves, got_normal = normalize(seeded_scramble(seed, n))
    assert got_moves == moves
    assert got_normal.factors == normal


def test_certificate_agrees_with_linear_solve():
    pattern = canonical_factorization().factors
    found = missed = 0
    for seed in range(60):
        f = seeded_scramble(seed, seed % 13)
        moves, normal = normalize(f)
        cases = [normal, random_conjugate(normal), random_conjugate(f)]
        if moves:
            cases.append(f)  # scrambled and not in the pattern's class
        for g in cases:
            C = _certificate(g)
            oracle = conjugator_by_solve(g, pattern)
            assert (C is None) == (oracle is None)
            if C is None:
                missed += 1
                continue
            found += 1
            assert mat_det(C) == 1
            assert all(mat_mul(C, M) == mat_mul(T, C) for M, T in zip(g.factors, pattern))
            assert C in (oracle, tuple(tuple(-x for x in row) for row in oracle))
    assert found > 0 and missed > 0


def test_normalize_raises_when_certificate_fails(monkeypatch):
    f = seeded_scramble(3, 4)
    S = ((0, -1), (1, 0))
    monkeypatch.setattr(monodromy, "_P_PATTERN", mat_mul(S, monodromy._P_PATTERN))
    # a certificate that fails after the table walk is a defect, not a disproof
    with pytest.raises(BrokenIdentity, match="replay failed"):
        normalize(f)


# ---------------------------------------------------------------------------
# vanishing cycles
# ---------------------------------------------------------------------------

def test_vanishing_cycle_examples():
    f = canonical_factorization()
    assert vanishing_cycle_match(f, 2, 4)      # both A
    assert not vanishing_cycle_match(f, 1, 2)  # B vs A
    assert vanishing_cycle_match(f, 3, 3)      # i = j
    assert vanishing_cycle_match(f, 1, 5)      # both B


def test_vanishing_cycle_transport_variant():
    f = canonical_factorization()
    # transporting the A-cycle at slot 2 through B at slot 3 moves it off
    # the A-cycle at slot 4
    assert not vanishing_cycle_match(f, 2, 4, through=True)


# ---------------------------------------------------------------------------
# the class-distance table against the per-call breadth-first search
# ---------------------------------------------------------------------------

def _outcome(normalizer, f, *depth):
    """(moves, normal factors), or (exception type, message)."""
    try:
        moves, normal = normalizer(f, *depth)
    except Exception as exc:
        return type(exc), str(exc)
    return moves, normal.factors


def _differential_corpus():
    """A representative of each tabulated class, seeded scrambles of depth
    0-14, seeded SL(2,Z) conjugates of both, and inputs that fail
    validation."""
    r = random.Random(2727)

    def conjugate(f):
        C = IDENT
        for _ in range(r.randint(1, 8)):
            C = mat_mul(C, r.choice((((0, -1), (1, 0)), ((1, 1), (0, 1)), ((1, -1), (0, 1)))))
        return Factorization(tuple(mat_mul(mat_mul(mat_inv(C), M), C) for M in f.factors))

    reps = [Factorization(tuple(map(twist_of_vector, cls))) for cls in monodromy._class_table()]
    scrambles = [seeded_scramble(r.randrange(10**6), r.randint(0, 14)) for _ in range(120)]
    invalid = [Factorization((MAT_A,) * 6), Factorization((MAT_B, MAT_A) * 2),
               Factorization((((1, 2), (0, 1)),) + canonical_factorization().factors[1:])]
    return reps + scrambles + [conjugate(f) for f in reps + scrambles] + invalid


@pytest.mark.parametrize("depth", [0, 1, 2, 3, 4, 24])
def test_normalize_matches_the_breadth_first_reference(depth):
    # the search bounded by depth finds normalize's moves when there are at
    # most depth of them, and none when there are more: they are the shortest
    corpus = _differential_corpus()
    outcomes = [_outcome(normalize, f) for f in corpus]
    shorter = [o for o in outcomes if isinstance(o[0], list) and len(o[0]) > depth]
    assert [o if o not in shorter else (Exhausted, f"no normalization within depth {depth}")
            for o in outcomes] == [_outcome(bfs_normalize, f, depth) for f in corpus]
    # every distance up to 3 is seen, and every kind of exception
    raised = {kind for kind, _ in outcomes if isinstance(kind, type)}
    assert {len(o[0]) for o in outcomes if isinstance(o[0], list)} == {0, 1, 2, 3}
    assert raised == {ValueError, NotParabolic}
    assert bool(shorter) == (depth < 3)


def test_class_table_is_forty_classes_closed_under_moves(monkeypatch):
    table = monodromy._class_table()
    assert len(table) == 40
    assert max(d for d, _ in table.values()) == 3
    for cls, (d, neighbours) in table.items():
        raw = monodromy._class_moves(cls)
        assert [m for m, _ in neighbours] == [m for m, _ in raw]
        assert [c for _, c in neighbours] == [monodromy._canonical_class(v)[1] for _, v in raw]
        assert all(c in table and abs(table[c][0] - d) <= 1 for _, c in neighbours)
        assert (d == 0) == (cls == monodromy._TARGET)
        assert d == 0 or any(table[c][0] == d - 1 for _, c in neighbours)
    # with the table built, a depth-3 normalization hashes two tuples: the
    # start class and the certificate's
    calls = []
    canonical = monodromy._canonical_class
    monkeypatch.setattr(monodromy, "_canonical_class",
                        lambda vectors: calls.append(vectors) or canonical(vectors))
    moves, _ = normalize(seeded_scramble(3, 4))
    assert len(moves) == 3
    assert len(calls) <= 2


def test_normalize_outside_the_table_is_exhausted(monkeypatch):
    monkeypatch.setattr(monodromy, "_class_table",
                        lambda: {monodromy._TARGET: (0, ())})
    assert normalize(canonical_factorization())[0] == []
    # the table is closed under moves, so a class outside it is a disproof
    message = "not Hurwitz-equivalent to a conjugate of (B, A, B, A, B, A)"
    with pytest.raises(Exhausted, match=f"^{re.escape(message)}$"):
        normalize(seeded_scramble(3, 4))


def test_matrix_and_slot_arguments_are_checked():
    with pytest.raises(ValueError, match="determinant must be 1"):
        mat_inv(((2, 0), (0, 1)))
    f = canonical_factorization()
    with pytest.raises(ValueError, match="direction must be 1 or 2"):
        hurwitz_move(f, 1, 3)
    for i, j in ((0, 1), (1, 7)):
        with pytest.raises(IndexError, match="slot out of range"):
            vanishing_cycle_match(f, i, j)
