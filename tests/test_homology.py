import random
from fractions import Fraction

import pytest

from hitchin4.core import BrokenIdentity, int_matvec
from hitchin4.coxeter import COXETER_MATRIX
from hitchin4.homology import (
    FIBER_CLASS,
    classes_of_square_minus2,
    dehn_twist_matrix,
    hat_affine_apply,
    hat_reduction,
    intersection,
    word_to_auto,
)

from lattice_oracle import (brute_force_minus2, hat_linear_apply, is_lattice_auto, linear,
                            translation)

rng = random.Random(99)

E = [tuple(int(i == j) for j in range(5)) for i in range(5)]


def test_intersection_form_entries():
    assert intersection(E[0], E[0]) == -2
    assert intersection(E[0], E[1]) == 1
    for c in E:
        assert intersection(FIBER_CLASS, c) == 0


def test_intersection_needs_two_five_vectors():
    # the sixth entries were ignored (-2 for the pair below) and a 4-vector raised IndexError
    for bad in ((), (1, 0, 0, 0), (1, 0, 0, 0, 0, 7)):
        for a, b in ((bad, E[0]), (E[0], bad)):
            with pytest.raises(ValueError, match="length mismatch"):
                intersection(a, b)
    with pytest.raises(ValueError, match="length mismatch"):
        intersection((1, 0, 0, 0, 0, 7), (1, 0, 0, 0, 0, 9))


def test_dehn_twist_sphere_action():
    A0 = dehn_twist_matrix(0)
    assert int_matvec(A0, E[0]) == (-1, 0, 0, 0, 0)
    # [S_j] -> [S_0] + [S_j] means the coefficient vector e_0 maps to
    # -e_0 + sum e_j under the dual reading; on coefficients:
    assert int_matvec(A0, E[1]) == (1, 1, 0, 0, 0)
    A1 = dehn_twist_matrix(1)
    assert int_matvec(A1, (0, 1, 0, 0, 0)) == (0, -1, 0, 0, 0)
    assert A1[1][0] == 1  # e_0 picks up +1 in the S_1 row


def test_twists_are_involutions_and_lattice_autos():
    ident = word_to_auto([])
    for i in range(5):
        A = dehn_twist_matrix(i)
        assert is_lattice_auto(A)
        assert word_to_auto([i, i]) == ident
        assert A == tuple(tuple(row) for row in A)


def test_picard_lefschetz_formula():
    spanning = E + [FIBER_CLASS, (1, 1, 1, 1, 1), (0, 1, -1, 2, 3)]
    for i in range(5):
        A = dehn_twist_matrix(i)
        for c in spanning:
            expected = tuple(cv + intersection(c, E[i]) * ev
                             for cv, ev in zip(c, E[i]))
            assert int_matvec(A, c) == expected


def test_generator_matrices_explicit():
    assert dehn_twist_matrix(0) == ((-1, 1, 1, 1, 1), (0, 1, 0, 0, 0),
                                    (0, 0, 1, 0, 0), (0, 0, 0, 1, 0), (0, 0, 0, 0, 1))
    assert dehn_twist_matrix(1) == ((1, 0, 0, 0, 0), (1, -1, 0, 0, 0),
                                    (0, 0, 1, 0, 0), (0, 0, 0, 1, 0), (0, 0, 0, 0, 1))


def test_coxeter_relations_in_lattice_representation():
    ident = word_to_auto([])
    for i in range(5):
        for j in range(5):
            m = COXETER_MATRIX[i][j]
            assert word_to_auto([i, j] * m) == ident


def test_word_fixes_fiber_class():
    for _ in range(30):
        w = [rng.randint(0, 4) for _ in range(rng.randint(0, 10))]
        A = word_to_auto(w)
        assert is_lattice_auto(A)
        assert int_matvec(A, FIBER_CLASS) == FIBER_CLASS


# ---------------------------------------------------------------------------
# -2 classes
# ---------------------------------------------------------------------------

def test_minus2_family_members():
    cls = classes_of_square_minus2(1)
    assert (0, 1, 0, 0, 0) in cls          # S_1 itself
    assert (3, 1, 1, 1, 1) in cls and (1, 1, 1, 1, 1) in cls
    for c in cls:
        assert intersection(c, c) == -2
        assert c != (0, 0, 0, 0, 0)
        # no multiple of the fiber class can have square -2
        assert any(ci * FIBER_CLASS[0] != c[0] * fi
                   for ci, fi in zip(c, FIBER_CLASS)) or c[0] == 0


def test_minus2_matches_brute_force_box():
    brute = brute_force_minus2(3)
    family = [c for c in classes_of_square_minus2(4) if all(abs(x) <= 3 for x in c)]
    assert sorted(family) == brute
    assert len(brute) > 0


def test_minus2_family_check_fires_on_a_broken_form(monkeypatch):
    from hitchin4 import homology

    monkeypatch.setattr(homology, "intersection", lambda a, b: 0)
    with pytest.raises(BrokenIdentity, match="has square 0"):
        classes_of_square_minus2(0)


# ---------------------------------------------------------------------------
# hat reduction
# ---------------------------------------------------------------------------

def test_hat_reduction_identity_and_A0():
    # hatA is the transpose of the linear part, hatB the translation
    ident = word_to_auto([])
    hat = hat_reduction(ident)
    assert (hat.L, hat.t, hat.d, hat.word) == (tuple(E[i][1:] for i in range(1, 5)),
                                               (0, 0, 0, 0), 1, ())
    assert linear(hat).transpose().rows == tuple(tuple(Fraction(int(i == j)) for j in range(4))
                                                 for i in range(4))
    assert translation(hat) == (0, 0, 0, 0)

    hat = hat_reduction(dehn_twist_matrix(0))
    assert (hat.L, hat.t, hat.d) == (tuple(tuple(2 * (i == j) - 1 for j in range(4))
                                           for i in range(4)), (1, 1, 1, 1), 2)
    want = tuple(tuple(Fraction(1, 2) if i == j else Fraction(-1, 2) for j in range(4))
                 for i in range(4))
    assert linear(hat).transpose().rows == want
    assert translation(hat) == (Fraction(1, 2),) * 4


def test_hat_reduction_composes_contravariantly():
    # the affine map of a product A B is (map of B) after (map of A)
    for _ in range(30):
        wa = [rng.randint(0, 4) for _ in range(rng.randint(1, 5))]
        wb = [rng.randint(0, 4) for _ in range(rng.randint(1, 5))]
        A, B = word_to_auto(wa), word_to_auto(wb)
        AB = word_to_auto(wa + wb)
        x = tuple(Fraction(rng.randint(-8, 8), rng.randint(1, 8)) for _ in range(4))
        lhs = hat_affine_apply(AB, x)
        rhs = hat_affine_apply(B, hat_affine_apply(A, x))
        assert lhs == rhs
        z = tuple(Fraction(rng.randint(-8, 8), rng.randint(1, 8)) for _ in range(4))
        assert hat_linear_apply(AB, z) == hat_linear_apply(B, hat_linear_apply(A, z))


def test_word_to_auto_matches_twist_matrix_product():
    # reference: one 5x5 product with dehn_twist_matrix per letter
    r = random.Random(1234)
    for _ in range(60):
        w = [r.randrange(5) for _ in range(r.randint(0, 200))]
        ref = word_to_auto([])
        for i in w:
            D = dehn_twist_matrix(i)
            ref = tuple(tuple(sum(ref[a][k] * D[k][b] for k in range(5)) for b in range(5))
                        for a in range(5))
        assert word_to_auto(w) == ref


def test_word_to_auto_rejects_letters_outside_0_4():
    for bad in (5, -1):
        with pytest.raises(ValueError, match=f"letter {bad} outside 0..4"):
            word_to_auto([0, bad])


def test_twist_index_and_class_bound_are_checked():
    for i in (5, -1):
        with pytest.raises(ValueError, match="index must be in 0..4"):
            dehn_twist_matrix(i)
    with pytest.raises(ValueError, match="k_max must be >= 0"):
        classes_of_square_minus2(-1)
