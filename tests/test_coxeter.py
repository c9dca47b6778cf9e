import random
from dataclasses import replace
from fractions import Fraction
from itertools import chain
from math import gcd

import pytest

from hitchin4 import coxeter
from hitchin4.chambers import ParabolicData, enumerate_chambers, chamber_vertices
from hitchin4.core import BrokenIdentity, GaussianRational
from hitchin4.coxeter import (
    COXETER_MATRIX,
    _FACES,
    AffineIsometry,
    NotAVertex,
    WalkLimitExceeded,
    alcove_walk,
    apply_to_masses,
    compose_word,
    enumerate_W_fin,
    generator,
    target_generator,
    vertex_orbit,
)
from hitchin4.homology import hat_affine_apply, hat_reduction, word_to_auto
from hitchin4.torelli import torelli_parallel

from lattice_oracle import (
    ExactMatrix,
    FractionAffine,
    MODEL_FACES,
    MODEL_VERTICES,
    face_reflection,
    face_value,
    hat_linear_apply,
    in_model,
    linear,
    mass_action,
    translation,
)

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
    assert linear(generator(2)) == want


def test_generators_are_exact_orthogonal_involutions():
    for g in GENS:
        assert linear(g).transpose() * linear(g) == ExactMatrix.identity(4)
        gg = g.after(g)
        assert linear(gg) == ExactMatrix.identity(4)
        assert translation(gg) == (0, 0, 0, 0)


def test_model_chamber_dihedral_angles():
    # n_i . n_j = -cos(pi/m_ij) |n_i| |n_j|; for m in {2, 3} the cosines are
    # 0 and 1/2, so the squared relation is rational-exact
    for i in range(5):
        for j in range(i + 1, 5):
            ni, _ = MODEL_FACES[i]
            nj, _ = MODEL_FACES[j]
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
    lin = linear(generator(1))
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
    assert linear(r1) == ExactMatrix([[-1, 0, 0, 0], [0, 1, 0, 0],
                                      [0, 0, 1, 0], [0, 0, 0, 1]])
    assert translation(r1) == (0, 0, 0, 0)
    r0 = target_generator(0)
    assert translation(r0) == (Fraction(1, 2),) * 4
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
        assert hat_linear_apply(A, z) == linear(tz).apply(z)


def test_hat_reduction_is_the_target_word_map():
    # the identity of the coxeter docstring, as integer forms, on seeded words
    r = random.Random(2020)
    for _ in range(2000):
        w = [r.randrange(5) for _ in range(r.randint(0, 40))]
        hat = hat_reduction(word_to_auto(w))
        assert hat.same_map(compose_word(w, TGENS)) and hat.word == ()


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
        assert in_model(a0, closed=True)
        assert g(a0) == alpha


def test_alcove_walk_reaches_all_24_chambers():
    for lab in enumerate_chambers():
        verts = chamber_vertices(lab)
        centroid = tuple(sum(v[i] for v in verts) / len(verts) for i in range(4))
        g, a0, on_wall = alcove_walk(centroid)
        assert not on_wall
        assert in_model(a0, closed=False)


# ---------------------------------------------------------------------------
# finite subgroup, vertex orbits
# ---------------------------------------------------------------------------

def test_W_fin_has_192_linear_elements():
    W = enumerate_W_fin()
    assert len(W) == 192
    keys = {(linear(g), translation(g)) for g in W}
    for g in W:
        assert translation(g) == (0, 0, 0, 0)
        inv = g.inverse()
        assert (linear(inv), translation(inv)) in keys


def test_vertex_orbits():
    half = Fraction(1, 2)
    assert vertex_orbit((half, half, 0, 0)) == vertex_orbit((0, 0, half, half)) == "12/34"
    assert vertex_orbit((0, 0, 0, 0)) == vertex_orbit((half, half, half, half)) == "0/1234"
    assert vertex_orbit((half, 0, 0, 0)) == "odd"
    # a vertex has four coordinates, each 0 or 1/2
    for bad in ((Fraction(1, 4), 0, 0, 0), (0, 0, 0), (0, 0, 0, 0, 0), (half, half, 0, 0, 0)):
        with pytest.raises(NotAVertex):
            vertex_orbit(bad)


def test_not_a_vertex_writes_the_coordinates_as_rationals():
    # each coordinate is written "p/q" or "p", not as a Fraction repr
    for v, text in (((1, 2, 0, 0), "(1, 2, 0, 0)"), ((Fraction(1, 3), 0, 0), "(1/3, 0, 0)")):
        with pytest.raises(NotAVertex) as exc:
            vertex_orbit(v)
        assert str(exc.value) == f"{text} is not a vertex of [0,1/2]^4"


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


def test_alcove_walk_step_limit(monkeypatch):
    alpha = (Fraction(3), Fraction(0), Fraction(0), Fraction(0))
    g, a0, _ = alcove_walk(alpha)
    steps = len(g.word)
    assert steps > 1
    monkeypatch.setattr(coxeter, "WALK_LIMIT", steps)
    with pytest.raises(WalkLimitExceeded, match=f"in {steps} steps$"):
        alcove_walk(alpha)
    monkeypatch.setattr(coxeter, "WALK_LIMIT", steps + 1)
    g2, b0, _ = alcove_walk(alpha)
    assert g2.word == g.word and b0 == a0


def test_W_fin_linear_parts_are_half_integral():
    # the integer walk and composition rest on this: the denominator of
    # every group element is 1 or 2
    for g in enumerate_W_fin():
        for row in linear(g).rows:
            assert all((2 * e).denominator == 1 for e in row)


# ---------------------------------------------------------------------------
# differential tests against the Fraction reference
# ---------------------------------------------------------------------------

def _fraction_affine(g):
    """The Fraction reference of an ``AffineIsometry``, read off its integer form."""
    return FractionAffine(linear(g), translation(g), g.word)


def _fraction_after(a, b):
    """Reference a o b of two ``FractionAffine``: one Fraction matrix product per call."""
    lin = a.linear * b.linear
    tr = tuple(x + y for x, y in zip(a.linear.apply(b.translation), a.translation))
    return FractionAffine(lin, tr, b.word + a.word)


def _fraction_prefixes(word, gens):
    """The Fraction reference of every prefix of ``word``, shortest first: one
    Fraction matrix product per letter."""
    g = FractionAffine(ExactMatrix.identity(4), (Fraction(0),) * 4)
    yield g
    for i in word:
        g = _fraction_after(_fraction_affine(gens[i]), g)
        yield g


def _fraction_compose_word(word, gens):
    *_, g = _fraction_prefixes(word, gens)
    return g


# the oracle's faces as (signs of n, n . base): every entry of n is +-1, so
# |n|^2 = 4 and the reflection x - 2 (n.(x - base)) n / |n|^2 is x - (f/2) n
_SIGNED_FACES = tuple((tuple(c > 0 for c in n), sum(a * b for a, b in zip(n, base)))
                      for n, base in MODEL_FACES)


def _signed_face_value(i, x, affine=True):
    """``face_value(i, x)`` with n's entries applied as signs; its linear part
    n . x when not ``affine``."""
    signs, offset = _SIGNED_FACES[i]
    return sum(v if s else -v for s, v in zip(signs, x)) - (offset if affine else 0)


def _signed_reflect(i, x, affine=True):
    """Reflection of ``x`` in face i by the Fraction formula x - (f/2) n (its
    linear part when not ``affine``), n's entries applied as signs."""
    signs, _ = _SIGNED_FACES[i]
    h = _signed_face_value(i, x, affine) / 2
    return tuple(v - h if s else v + h for s, v in zip(signs, x))


def _fraction_walk(alpha):
    """Reference walk: Fraction face functionals and reflections, step by step."""
    x = tuple(Fraction(a) for a in alpha)
    applied = []
    while True:
        viol = next((i for i in range(5) if _signed_face_value(i, x) < 0), None)
        if viol is None:
            break
        x = _signed_reflect(viol, x)
        applied.append(viol)
    on_wall = any(_signed_face_value(i, x) == 0 for i in range(5))
    return tuple(reversed(applied)), x, on_wall


def _fraction_reflection_word(word):
    """Reference composite of the face reflections of ``word``, its first
    letter applied first: the images of the origin and of the unit vectors
    under the Fraction reflections."""
    origin = (Fraction(0),) * 4
    columns = [tuple(Fraction(int(r == c)) for r in range(4)) for c in range(4)]
    for i in word:
        origin = _signed_reflect(i, origin)
        columns = [_signed_reflect(i, v, affine=False) for v in columns]
    return FractionAffine(ExactMatrix(tuple(zip(*columns))), origin, tuple(word))


def _diff_rational(r, size):
    den = r.randint(1, 10**9) if r.random() < 0.5 else r.randint(1, 60)
    return Fraction(r.randint(-round(size * den), round(size * den)), den)


def _same(g, h):
    return (g.word == h.word and linear(g).rows == h.linear.rows
            and translation(g) == h.translation)


def test_alcove_walk_matches_fraction_reference():
    r = random.Random(2024)
    for k in range(16):
        # |alpha| log-uniform up to about 200; the last draw is the largest
        size = 100 if k == 15 else 0.25 * 400 ** r.random()
        alpha = tuple(_diff_rational(r, size) for _ in range(4))
        g, a0, on_wall = alcove_walk(alpha)
        word, x, wall = _fraction_walk(alpha)
        assert (g.word, a0, on_wall) == (word, x, wall)
        assert _same(g, _fraction_reflection_word(word))
    # points on walls: integer coordinates land on the model's faces
    for alpha in [(0, 0, 0, 0), (1, 0, 0, 0), (2, -1, 3, 1), (Fraction(1, 4),) * 4]:
        g, a0, on_wall = alcove_walk(alpha)
        assert (g.word, a0, on_wall) == _fraction_walk(alpha)


def _walk_draws():
    """600 seeded points shaped like the benchmark's walks (coordinates up to
    0.25..20, denominators 1..60 or up to 1e9), the wall and vertex points
    of the Fraction reference test, the model's vertices and one point at
    |alpha| about 1000."""
    r = random.Random(1808)
    for _ in range(600):
        size = 0.25 * 80 ** r.random()
        yield tuple(_diff_rational(r, size) for _ in range(4))
    yield from [(0, 0, 0, 0), (1, 0, 0, 0), (2, -1, 3, 1), (Fraction(1, 4),) * 4]
    yield from MODEL_VERTICES
    yield (Fraction(1000), Fraction(-3, 7), Fraction(250, 3), Fraction(-1, 1_000_000_007))


def test_alcove_walk_matches_compose_word():
    # g is read from face values and a linear-step memo, not composed: it
    # must be compose_word of its own word, field for field, and map alpha0
    # back to alpha
    for alpha in _walk_draws():
        g, a0, on_wall = alcove_walk(alpha)
        assert g == compose_word(g.word, GENS)
        assert g(a0) == tuple(Fraction(a) for a in alpha)
        assert in_model(a0, closed=True)
        assert on_wall == any(face_value(i, a0) == 0 for i in range(5))


def test_linear_step_memo_stays_in_W_fin():
    for alpha in _walk_draws():
        alcove_walk(alpha)
    # one memo serves every registered generator form: r_0..r_4 and the four
    # R_i that are not r_1
    assert len(coxeter._GENERATORS) == 9
    assert 0 < coxeter._linear_step.cache_info().currsize <= 9 * 192
    over_two = {tuple(tuple(e * (2 // g.d) for e in row) for row in g.L)
                for g in enumerate_W_fin()}
    assert len(over_two) == 192
    assert len(set(coxeter._LINEAR)) == len(coxeter._LINEAR) <= 192
    assert set(coxeter._LINEAR) <= over_two


def test_walk_exactness_checks_raise_broken_identity(monkeypatch):
    # both checks fire only on a defect; force each by corrupting the data
    # the walk steps on
    with monkeypatch.context() as m:
        # odd Gram entries make a later face value odd
        m.setattr(coxeter, "_GRAM", tuple(tuple(e + (i != j) for j, e in enumerate(row))
                                          for i, row in enumerate(coxeter._GRAM)))
        with pytest.raises(BrokenIdentity, match="alcove walk step is not integral"):
            alcove_walk((3, 0, 0, 0))
    with monkeypatch.context() as m:
        # an identity linear part cannot carry alpha0 to alpha by a
        # half-integral translation here
        m.setattr(coxeter, "_linear_step", lambda k, i: 0)
        with pytest.raises(BrokenIdentity, match="alcove walk translation is not integral"):
            alcove_walk((Fraction(1, 3), 0, 0, 0))
    g, a0, _ = alcove_walk((Fraction(1, 3), 0, 0, 0))
    assert g(a0) == (Fraction(1, 3), 0, 0, 0)


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
        fa, fb = _fraction_affine(a), _fraction_affine(b)
        assert _same(a.after(b), _fraction_after(fa, fb))
        assert _same(b.after(a), _fraction_after(fb, fa))


def test_compose_word_on_long_mixed_words_matches_fraction_reference():
    # 1,944 words of length 0..80 over r_0..r_4 and R_0..R_4 together: every
    # prefix and every suffix of 12 seeded words of length 80, each composed
    # on its own and compared field for field with its Fraction reference
    r = random.Random(8080)
    gens = GENS + TGENS
    checked = 0
    for _ in range(12):
        w = [r.randrange(10) for _ in range(80)]
        for n, ref in enumerate(_fraction_prefixes(w, gens)):
            assert _same(compose_word(w[:n], gens), ref)
            checked += 1
        ref = FractionAffine(ExactMatrix.identity(4), (Fraction(0),) * 4)
        for m in range(80, -1, -1):  # suffix w[m:], built by one product on the right
            if m < 80:
                ref = _fraction_after(ref, _fraction_affine(gens[w[m]]))
            assert _same(compose_word(w[m:], gens), ref)
            checked += 1
    assert checked == 1944
    # every linear part met lies in the 192-element W_fin
    assert len(coxeter._LINEAR) <= 192


def test_compose_word_fills_the_step_table_once_per_new_entry(monkeypatch):
    # int_matmul runs only when a (linear index, generator) entry is filled,
    # never once per letter
    calls = []
    real = coxeter.int_matmul
    monkeypatch.setattr(coxeter, "int_matmul", lambda A, B: calls.append(1) or real(A, B))
    coxeter._linear_step.cache_clear()
    r = random.Random(606)
    words = [[r.randrange(10) for _ in range(r.randint(0, 80))] for _ in range(300)]
    for w in words:
        compose_word(w, GENS + TGENS)
    letters = sum(map(len, words))
    filled = coxeter._linear_step.cache_info().misses
    assert len(calls) == filled <= 9 * 192 < letters
    for w in words:
        compose_word(w, GENS + TGENS)
    assert len(calls) == filled and len(coxeter._LINEAR) <= 192


def test_compose_word_rejects_generators_outside_the_domain():
    before = (len(coxeter._LINEAR), len(coxeter._GENERATORS))
    shear = AffineIsometry(((1, 1, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)), (0, 0, 0, 0), 1)
    third = AffineIsometry(((3, 0, 0, 0), (0, 3, 0, 0), (0, 0, 3, 0), (0, 0, 0, 3)), (1, 0, 0, 0), 3)
    # orthogonal over 2, but the translation (1/2, 0, 0, 0) is in neither Z^4 nor Z^4 + 1/2
    off = AffineIsometry(((2, 0, 0, 0), (0, 2, 0, 0), (0, 0, 2, 0), (0, 0, 0, 2)), (1, 0, 0, 0), 2)
    for bad in (shear, third, off):
        for word in ([2, 5, 0], []):
            with pytest.raises(ValueError, match="letter 5 is outside the domain"):
                compose_word(word, GENS + [bad])
    assert (len(coxeter._LINEAR), len(coxeter._GENERATORS)) == before


def test_compose_word_exactness_check_raises_broken_identity(monkeypatch):
    # the translation step divides exactly on the domain; corrupt r_0's
    # registered translation to an odd one to force the check
    L, s, d = coxeter._GENERATORS[0]
    monkeypatch.setattr(coxeter, "_GENERATORS", [(L, (1, 0, 0, 0), d)] + coxeter._GENERATORS[1:])
    with pytest.raises(BrokenIdentity, match="word translation is not integral"):
        compose_word([0], GENS)


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


# ---------------------------------------------------------------------------
# the integer form (L, t, d)
# ---------------------------------------------------------------------------

def _sample_elements():
    """All of W_fin, and seeded words over r_0..r_4, R_0..R_4 and both
    together, each with its inverse, a same-map word and a rebuilt copy."""
    r = random.Random(1414)
    out = list(enumerate_W_fin())
    for gens in (GENS, TGENS, GENS + TGENS):
        for _ in range(40):
            w = [r.randrange(len(gens)) for _ in range(r.randint(0, 40))]
            g = compose_word(w, gens)
            i = r.randrange(len(gens))
            out += [g, g.inverse(), compose_word(w + [i, i], gens),
                    compose_word(w, gens), g.inverse().inverse()]
    return out


def test_integer_form_is_reduced_with_denominator_one_or_two():
    for g in _sample_elements():
        entries = (*chain.from_iterable(g.L), *g.t)
        assert all(type(e) is int for e in entries) and type(g.d) is int
        assert g.d in (1, 2)
        assert gcd(g.d, *entries) == 1
        assert g.inverse().after(g).same_map(AffineIsometry.identity())
        assert g.after(g.inverse()).same_map(AffineIsometry.identity())


def test_equality_is_same_map_and_same_word():
    r = random.Random(1415)
    sample = _sample_elements()
    equal = 0
    for k in range(0, len(sample) - 4, 5):
        group = sample[k:k + 5]
        for g in group:
            for h in group + [r.choice(sample)]:
                same = g == h
                assert same == (g.same_map(h) and g.word == h.word)
                if same:
                    assert hash(g) == hash(h)
                    equal += g is not h
    assert equal > 0


def test_alcove_walk_needs_four_weights():
    # three weights raised BrokenIdentity, a defect's error, and five walked the first four
    for n in (0, 3, 5):
        with pytest.raises(ValueError, match="length mismatch"):
            alcove_walk((Fraction(1, 5),) * n)


def test_call_and_apply_to_masses_check_the_length_and_coerce():
    g = compose_word([0, 2, 1], GENS)
    for bad in ((1, 2, 3), (1, 2, 3, 4, 5), ()):
        with pytest.raises(ValueError, match="length mismatch"):
            g(bad)
        with pytest.raises(ValueError, match="length mismatch"):
            apply_to_masses(g, bad)
    x = ("1/2", 0.25, 3, Fraction(-2, 7))
    exact = (Fraction(1, 2), Fraction(1, 4), Fraction(3), Fraction(-2, 7))
    ref = _fraction_compose_word([0, 2, 1], GENS)
    got = g(x)
    assert got == g(exact) == tuple(
        a + b for a, b in zip(ref.linear.apply(exact), ref.translation))
    assert all(type(v) is Fraction for v in got)


# ---------------------------------------------------------------------------
# the integer face table
# ---------------------------------------------------------------------------

def _face_table_value(i, x):
    n, c = _FACES[i]
    return sum(a * v for a, v in zip(n, x)) + c


def test_faces_are_the_parallel_x_periods():
    r = random.Random(1105)
    for _ in range(300):
        alpha = tuple(_diff_rational(r, 2) for _ in range(4))
        masses = tuple(GaussianRational(_diff_rational(r, 3), _diff_rational(r, 3))
                       for _ in range(4))
        pv = torelli_parallel(ParabolicData(alpha, masses))
        assert pv.x == tuple(face_value(i, alpha) for i in range(5))
        # the z side is the linear part of each face functional on the masses
        assert pv.z == tuple(sum((c * m for c, m in zip(n, masses)), GaussianRational(0))
                             for n, _ in MODEL_FACES)
    # every walk lands where all five parallel x-periods are >= 0, on a wall
    # exactly when one of them is 0; integer points land on walls
    walls = 0
    zeros = (GaussianRational(0),) * 4
    for k in range(300):
        if k % 3:
            alpha = tuple(_diff_rational(r, 0.25 * 40 ** r.random()) for _ in range(4))
        else:
            alpha = tuple(Fraction(r.randint(-6, 6)) for _ in range(4))
        _, a0, on_wall = alcove_walk(alpha)
        x = torelli_parallel(ParabolicData(a0, zeros)).x
        assert all(v >= 0 for v in x)
        assert on_wall == (0 in x)
        walls += on_wall
    assert 100 <= walls < 300


def test_face_table_matches_the_vertex_derivation():
    # MODEL_FACES is derived from the vertices by the oracle nullspace
    for i, ((n, c), (derived, base)) in enumerate(zip(_FACES, MODEL_FACES)):
        assert n == derived and c == -sum(a * b for a, b in zip(n, base))
        assert sum(a * a for a in n) == 4 and set(n) <= {-1, 1}
        # orientation: zero on the face's vertices, positive on the omitted one
        for j, v in enumerate(MODEL_VERTICES):
            assert (_face_table_value(i, v) > 0) == (i == j)
            assert _face_table_value(i, v) == face_value(i, v)
        want = face_reflection(i)
        assert linear(generator(i)) == want.linear
        assert translation(generator(i)) == want.translation
        assert generator(i).word == want.word == (i,)


def test_generator_indices_are_checked():
    for make in (generator, target_generator):
        for i in (5, -1):
            with pytest.raises(ValueError, match="index must be in 0..4"):
                make(i)


def test_compose_word_is_closed_over_the_nine_generators():
    # the registry holds r_0..r_4 and R_0..R_4 from import on and never grows: a
    # generator of any other form, even an orthogonal one over (1/2)Z such as r_1
    # then r_0, is refused by its letter, and a registered form under another word is
    # accepted with that word
    before = (len(coxeter._LINEAR), len(coxeter._GENERATORS))
    assert before[1] == 9
    foreign = generator(0).after(generator(1))
    with pytest.raises(ValueError, match="letter 0 is outside the domain"):
        compose_word([0], [foreign])
    with pytest.raises(ValueError, match="letter 1 is outside the domain"):
        compose_word([], [generator(2), foreign])
    assert (len(coxeter._LINEAR), len(coxeter._GENERATORS)) == before
    renamed = replace(generator(3), word=(7,))
    g = compose_word([0, 0, 0], [renamed])
    assert g.word == (7, 7, 7) and g.same_map(generator(3))
