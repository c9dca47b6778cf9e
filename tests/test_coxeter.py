import random
from fractions import Fraction

import pytest

from hitchin4.chambers import enumerate_chambers, chamber_vertices
from hitchin4.core import ExactMatrix, GaussianRational
from hitchin4.coxeter import (
    COXETER_MATRIX,
    MODEL,
    AffineIsometry,
    NotAVertex,
    WalkLimitExceeded,
    alcove_walk,
    apply_to_masses,
    compose_word,
    enumerate_W_fin,
    generator,
    mass_action,
    target_generator,
    vertex_orbit,
)
from hitchin4.homology import hat_affine_apply, hat_linear_apply, word_to_auto

rng = random.Random(777)

GENS = [generator(i) for i in range(5)]
TGENS = [target_generator(i) for i in range(5)]
CENTER = (Fraction(1, 4),) * 4


def rand_point():
    return tuple(Fraction(rng.randint(-20, 20), rng.randint(1, 12)) for _ in range(4))


# ---------------------------------------------------------------------------
# generators
# ---------------------------------------------------------------------------

def test_generator_examples():
    assert generator(0)(CENTER) == (Fraction(1, 2), 0, 0, 0)
    assert generator(1)(CENTER) == CENTER
    half = Fraction(1, 2)
    want = ExactMatrix([[half, -half, half, half],
                        [-half, half, half, half],
                        [half, half, half, -half],
                        [half, half, -half, half]])
    assert generator(2).linear == want


def test_generators_are_exact_orthogonal_involutions():
    for g in GENS:
        assert g.linear.transpose() * g.linear == ExactMatrix.identity(4)
        gg = g.after(g)
        assert gg.linear == ExactMatrix.identity(4)
        assert gg.translation == (0, 0, 0, 0)


def test_model_chamber_dihedral_angles():
    # n_i . n_j = -cos(pi/m_ij) |n_i| |n_j|; for m in {2, 3} the cosines are
    # 0 and 1/2, so the squared relation is rational-exact
    for i in range(5):
        for j in range(i + 1, 5):
            ni, _ = MODEL.normals[i]
            nj, _ = MODEL.normals[j]
            dot = sum(a * b for a, b in zip(ni, nj))
            nn = sum(a * a for a in ni) * sum(b * b for b in nj)
            m = COXETER_MATRIX[i][j]
            if m == 2:
                assert dot == 0
            else:
                assert m == 3
                assert dot < 0 and 4 * dot * dot == nn


def test_coxeter_presentation_affine():
    ident = AffineIsometry.identity()
    for i in range(5):
        for j in range(5):
            m = COXETER_MATRIX[i][j]
            w = compose_word([i, j] * m, GENS)
            assert w.same_map(ident)


def test_mass_action_examples():
    ident = AffineIsometry.identity()
    assert mass_action(ident) == ExactMatrix(
        [[GaussianRational(int(i == j)) for j in range(4)] for i in range(4)])
    # r_1 acts on masses by its linear part only: the translation is dropped
    m = tuple(GaussianRational(Fraction(k + 1), Fraction(1, 2)) for k in range(4))
    got = apply_to_masses(generator(1), m)
    lin = generator(1).linear
    want = tuple(
        GaussianRational(sum(Fraction(lin.rows[i][j]) * m[j].re for j in range(4)),
                         sum(Fraction(lin.rows[i][j]) * m[j].im for j in range(4)))
        for i in range(4))
    assert got == want


def test_mass_action_is_homomorphism():
    for _ in range(20):
        wa = [rng.randint(0, 4) for _ in range(rng.randint(1, 5))]
        wb = [rng.randint(0, 4) for _ in range(rng.randint(1, 5))]
        ga, gb = compose_word(wa, GENS), compose_word(wb, GENS)
        lhs = mass_action(ga.after(gb))
        rhs = mass_action(ga) * mass_action(gb)
        assert lhs == rhs


def test_mass_action_orthogonal_real():
    for g in GENS:
        M = mass_action(g)
        for row in M.rows:
            for e in row:
                assert e.im == 0
        assert M.transpose() * M == ExactMatrix(
            [[GaussianRational(int(i == j)) for j in range(4)] for i in range(4)])


# ---------------------------------------------------------------------------
# target generators
# ---------------------------------------------------------------------------

def test_target_generator_matrices():
    r1 = target_generator(1)
    assert r1.linear == ExactMatrix([[-1, 0, 0, 0], [0, 1, 0, 0],
                                     [0, 0, 1, 0], [0, 0, 0, 1]])
    assert r1.translation == (0, 0, 0, 0)
    r0 = target_generator(0)
    assert r0.translation == (Fraction(1, 2),) * 4
    # R_0 equals the hat reduction of the lattice twist A_0 as an affine map
    for _ in range(10):
        x = rand_point()
        assert r0(x) == tuple(hat_affine_apply(word_to_auto([0]), x))


def test_hat_reduction_matches_target_words():
    # hat(word_to_auto(w)) applies the target generators leftmost-first
    for _ in range(40):
        w = [rng.randint(0, 4) for _ in range(rng.randint(1, 8))]
        A = word_to_auto(w)
        x = rand_point()
        y = x
        for i in w:
            y = target_generator(i)(y)
        assert hat_affine_apply(A, x) == tuple(y)
        tz = compose_word(w, TGENS)
        z = rand_point()
        assert hat_linear_apply(A, z) == tz.linear.apply(z)


# ---------------------------------------------------------------------------
# alcove walk
# ---------------------------------------------------------------------------

def test_alcove_walk_inside_is_identity():
    alpha = (Fraction(3, 10), Fraction(1, 5), Fraction(1, 5), Fraction(1, 5))
    g, a0, on_wall = alcove_walk(alpha)
    assert g.word == () and a0 == alpha and not on_wall


def test_alcove_walk_exterior_123_example():
    # centroid of the exterior chamber {1,2,3}; the walk element equals
    # the affine map of the word r0 r1 r4 (r0 applied first)
    verts = [(Fraction(1, 2), Fraction(1, 2), Fraction(1, 2), 0)] + [
        (Fraction(1, 2), Fraction(1, 2), 0, 0),
        (Fraction(1, 2), 0, Fraction(1, 2), 0),
        (0, Fraction(1, 2), Fraction(1, 2), 0),
        (Fraction(1, 2), Fraction(1, 2), Fraction(1, 2), Fraction(1, 2))]
    centroid = tuple(sum(v[i] for v in verts) / 5 for i in range(4))
    g, a0, on_wall = alcove_walk(centroid)
    assert not on_wall
    assert g.same_map(compose_word([0, 1, 4], GENS))
    assert g(a0) == centroid


def test_alcove_walk_random_points():
    for _ in range(60):
        alpha = rand_point()
        g, a0, _ = alcove_walk(alpha)
        assert MODEL.contains(a0, closed=True)
        assert g(a0) == alpha


def test_alcove_walk_reaches_all_24_chambers():
    for lab in enumerate_chambers():
        verts = chamber_vertices(lab)
        centroid = tuple(sum(v[i] for v in verts) / len(verts) for i in range(4))
        g, a0, on_wall = alcove_walk(centroid)
        assert not on_wall
        assert MODEL.contains(a0, closed=False)


# ---------------------------------------------------------------------------
# finite subgroup, vertex orbits
# ---------------------------------------------------------------------------

def test_W_fin_has_192_linear_elements():
    W = enumerate_W_fin()
    assert len(W) == 192
    keys = {(g.linear, g.translation) for g in W}
    for g in W:
        assert g.translation == (0, 0, 0, 0)
        inv = g.inverse()
        assert (inv.linear, inv.translation) in keys


def test_vertex_orbits():
    half = Fraction(1, 2)
    assert vertex_orbit((half, half, 0, 0)) == vertex_orbit((0, 0, half, half)) == "12/34"
    assert vertex_orbit((0, 0, 0, 0)) == vertex_orbit((half, half, half, half)) == "0/1234"
    assert vertex_orbit((half, 0, 0, 0)) == "odd"
    with pytest.raises(NotAVertex):
        vertex_orbit((Fraction(1, 4), 0, 0, 0))


def test_vertex_orbits_realized_by_group_elements():
    # spot-check: some generator word carries one vertex of a pair to the other
    half = Fraction(1, 2)
    pairs = [((half, half, 0, 0), (0, 0, half, half)),
             ((half, 0, half, 0), (0, half, 0, half)),
             ((half, 0, 0, half), (0, half, half, 0)),
             ((0, 0, 0, 0), (half, half, half, half))]
    W = enumerate_W_fin()
    trans = compose_word([1], GENS)  # the affine generator
    for a, b in pairs:
        reached = any(g(a) == b for g in W) or any(trans.after(g)(a) == b for g in W)
        assert reached


def test_alcove_walk_on_wall_flag():
    # the barycenter sits on the face where the weights sum to one
    g, a0, on_wall = alcove_walk(CENTER)
    assert on_wall and g.word == () and a0 == CENTER
    g, a0, on_wall = alcove_walk((Fraction(3, 10), Fraction(1, 5),
                                  Fraction(1, 5), Fraction(1, 5)))
    assert not on_wall


def test_compose_word_rejects_letters_outside_generators():
    for bad in (5, 9, -1):
        with pytest.raises(ValueError):
            compose_word([0, bad], GENS)
    with pytest.raises(ValueError):
        compose_word([2], GENS[:2])


def test_alcove_walk_step_limit():
    alpha = (Fraction(3), Fraction(0), Fraction(0), Fraction(0))
    g, a0, _ = alcove_walk(alpha)
    steps = len(g.word)
    assert steps > 1
    with pytest.raises(WalkLimitExceeded):
        alcove_walk(alpha, max_steps=steps)
    g2, b0, _ = alcove_walk(alpha, max_steps=steps + 1)
    assert g2.word == g.word and b0 == a0


def test_W_fin_linear_parts_are_half_integral():
    # the integer walk and composition rest on this: the denominator of
    # every group element is 1 or 2
    for g in enumerate_W_fin():
        for row in g.linear.rows:
            assert all((2 * e).denominator == 1 for e in row)


# ---------------------------------------------------------------------------
# differential tests against the Fraction reference
# ---------------------------------------------------------------------------

def _fraction_after(a, b):
    """Reference a o b: one Fraction matrix product per call."""
    lin = a.linear * b.linear
    tr = tuple(x + y for x, y in zip(a.linear.apply(b.translation), a.translation))
    return AffineIsometry(lin, tr, b.word + a.word)


def _fraction_compose_word(word, gens):
    g = AffineIsometry.identity()
    for i in word:
        g = _fraction_after(gens[i], g)
    return g


def _fraction_walk(alpha):
    """Reference walk: Fraction face functionals and reflections, step by step."""
    x = tuple(Fraction(a) for a in alpha)
    applied = []
    while True:
        viol = next((i for i in range(5) if MODEL.functional(i, x) < 0), None)
        if viol is None:
            break
        x = GENS[viol](x)
        applied.append(viol)
    on_wall = any(MODEL.functional(i, x) == 0 for i in range(5))
    return tuple(reversed(applied)), x, on_wall


def _diff_rational(r, size):
    den = r.randint(1, 10**9) if r.random() < 0.5 else r.randint(1, 60)
    return Fraction(r.randint(-round(size * den), round(size * den)), den)


def _same(g, h):
    return (g.word == h.word and g.linear.rows == h.linear.rows
            and g.translation == h.translation)


def test_alcove_walk_matches_fraction_reference():
    r = random.Random(2024)
    for k in range(16):
        # |alpha| log-uniform up to about 200; the last draw is the largest
        size = 100 if k == 15 else 0.25 * 400 ** r.random()
        alpha = tuple(_diff_rational(r, size) for _ in range(4))
        g, a0, on_wall = alcove_walk(alpha)
        word, x, wall = _fraction_walk(alpha)
        assert (g.word, a0, on_wall) == (word, x, wall)
        assert _same(g, _fraction_compose_word(word, GENS))
    # points on walls: integer coordinates land on the model's faces
    for alpha in [(0, 0, 0, 0), (1, 0, 0, 0), (2, -1, 3, 1), (Fraction(1, 4),) * 4]:
        g, a0, on_wall = alcove_walk(alpha)
        assert (g.word, a0, on_wall) == _fraction_walk(alpha)


def test_compose_word_matches_fraction_reference():
    r = random.Random(4711)
    for gens in (GENS, TGENS):
        for _ in range(40):
            w = [r.randrange(5) for _ in range(r.randint(0, 60))]
            assert _same(compose_word(w, gens), _fraction_compose_word(w, gens))
    W = enumerate_W_fin()
    for _ in range(40):
        a = compose_word([r.randrange(5) for _ in range(r.randint(0, 12))], GENS)
        b = r.choice(W)
        assert _same(a.after(b), _fraction_after(a, b))
        assert _same(b.after(a), _fraction_after(b, a))


def test_apply_to_masses_matches_mass_action():
    r = random.Random(31)
    for _ in range(40):
        g = compose_word([r.randrange(5) for _ in range(r.randint(0, 30))], GENS)
        masses = tuple(GaussianRational(_diff_rational(r, 3), _diff_rational(r, 3))
                       for _ in range(4))
        assert apply_to_masses(g, masses) == mass_action(g).apply(masses)
    g = compose_word([0, 2, 1], GENS)
    assert apply_to_masses(g, (1, Fraction(1, 3), 0, -2)) == mass_action(g).apply(
        tuple(GaussianRational(m) for m in (1, Fraction(1, 3), 0, -2)))
