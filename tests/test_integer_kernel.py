"""Differential tests of the integer kernel of ``chambers`` and ``torelli``
against the ``Fraction`` reference in ``lattice_oracle``.

Every draw must give the same outcome in both: the same ``repr`` of the
returned value, or the same exception type and message.  Draws are weighted
toward the places where an integer test can go wrong: chamber walls,
Nakajima planes, the cube boundary, weights outside the cube, denominators
up to 1e9, and zero, negative and purely imaginary masses.
"""

import random
from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from hitchin4.chambers import (
    ParabolicData,
    classify_chamber,
    enumerate_chambers,
    genericity_violations,
    in_R_tilde,
    is_generic,
    mass_functional,
    wall_K,
    wall_L,
)
from hitchin4.core import GaussianRational
from hitchin4.torelli import (
    PARALLEL_BASIS,
    InconsistentFiberRelation,
    PeriodVector,
    central_x_closed_form,
    in_period_domain,
    inverse_torelli,
    torelli_chamber,
    torelli_parallel,
)

from lattice_oracle import (
    ref_central_x,
    ref_classify_chamber,
    ref_fiber_relation_error,
    ref_from_outer,
    ref_genericity_violations,
    ref_in_period_domain,
    ref_in_R_tilde,
    ref_inverse_torelli,
    ref_is_generic,
    ref_mass_functional,
    ref_torelli_chamber,
    ref_torelli_parallel,
    ref_wall_K,
    ref_wall_L,
)

# The twelve walls of the cube as (c, c0) with sum c_i a_i = c0: K_{} = 0 is
# sum a = 1, K_{12} = K_{13} = K_{14} = 0, and L_i = 0 or 1.
WALLS = (((1, 1, 1, 1), 1), ((1, 1, -1, -1), 0), ((1, -1, 1, -1), 0),
         ((1, -1, -1, 1), 0)) + tuple(
    (tuple(-1 if j == i else 1 for j in range(4)), c0) for i in range(4) for c0 in (0, 1))


def outcome(f, *args):
    """("ok", repr of the value) or ("raise", exception type, message)."""
    try:
        return "ok", repr(f(*args))
    except Exception as exc:  # every exception, so a changed type shows
        return "raise", type(exc), str(exc)


def denominator(rng):
    return rng.choice((1, 2, 3, 4, 6, 7, 10, 12, rng.randint(1, 100),
                       rng.randint(1, 10 ** 4), int(10 ** rng.uniform(6, 9))))


def rational(rng, lo, hi, q=None):
    q = q or denominator(rng)
    return Fraction(rng.randint(int(lo * q), int(hi * q)), q)


def draw_mass(rng):
    kind = rng.random()
    if kind < 0.2:
        return GaussianRational(0)
    q = denominator(rng)
    re, im = rational(rng, -3, 3, q), rational(rng, -3, 3, q)
    if kind < 0.35:
        return GaussianRational(0, im)  # purely imaginary
    if kind < 0.45:
        return GaussianRational(-abs(re))  # negative real
    return GaussianRational(re, im)


def in_cube(alpha):
    return all(0 < a < Fraction(1, 2) for a in alpha)


def draw(rng):
    """One (alpha, masses) pair: inside the cube, on a wall, on a Nakajima
    plane with masses to match, on the cube boundary, or outside the cube.
    Wall draws, and half the plane draws, are redrawn until they land in the
    open cube, where the chamber walls are."""
    kind = rng.choice(("cube",) * 3 + ("wall", "plane") * 2 + ("boundary", "outside"))
    inside = kind == "wall" or (kind == "plane" and rng.random() < 0.5)
    masses = [draw_mass(rng) for _ in range(4)]
    j = rng.randrange(4)
    for _ in range(50):
        q = rng.choice((5, 7, 10, 12, 30, rng.randint(3, 100), rng.randint(3, 10 ** 4),
                        int(10 ** rng.uniform(6, 9))))
        alpha = [Fraction(rng.randint(1, (q - 1) // 2), q) for _ in range(4)]
        if kind == "wall":
            c, c0 = rng.choice(WALLS)
            alpha[j] = (c0 - sum(c[i] * alpha[i] for i in range(4) if i != j)) / c[j]
        elif kind == "plane":
            # d + sum(e_i + s_i a_i) = 0 and sum(s_i m_i) = 0 with s_i = (-1)^{e_i}
            e = [rng.randint(0, 1) for _ in range(4)]
            s = [1 - 2 * ei for ei in e]
            d = rng.randint(-3, 1)
            alpha[j] = -s[j] * (d + sum(e) + sum(s[i] * alpha[i] for i in range(4) if i != j))
        if not inside or in_cube(alpha):
            break
    if kind == "plane" and rng.random() < 0.8:
        masses[j] = -s[j] * sum((s[i] * masses[i] for i in range(4) if i != j),
                                GaussianRational(0))
    elif kind == "boundary":
        alpha[j] = rng.choice((Fraction(0), Fraction(1, 2)))
    elif kind == "outside":
        alpha = [rational(rng, -2, 2) for _ in range(4)]
    return tuple(alpha), tuple(masses)


def perturbed(rng, pv):
    """(x, z) of ``pv``, with one entry moved or not, for the fiber check."""
    x, z = list(pv.x), list(pv.z)
    k = rng.randrange(5)
    move = rng.random()
    if move < 0.25:
        x[k] += Fraction(rng.choice((1, -1)), rng.choice((1, 2, 3, 10 ** 9)))
    elif move < 0.4:
        z[k] += GaussianRational(Fraction(1, rng.choice((1, 2, 7))))
    elif move < 0.55:
        z[k] += GaussianRational(0, Fraction(-1, rng.choice((1, 2, 7))))
    return x, z


def check_draw(alpha, masses, rng):
    """Compare every kernel entry point with the reference on one draw; the
    fiber check also sees the period vector with one entry moved off the
    fiber relations, and ``in_R_tilde`` is compared on one draw in four.
    The period vector is also rebuilt by ``from_outer`` and by the
    constructor, so inversion and the domain test read each integer form a
    vector can carry, and ``in_R_tilde`` also reads the inverse's."""
    data = ParabolicData(alpha, masses)
    assert outcome(classify_chamber, alpha) == outcome(ref_classify_chamber, alpha)
    assert outcome(is_generic, data) == outcome(ref_is_generic, data)
    assert genericity_violations(data) == ref_genericity_violations(data)
    assert outcome(torelli_chamber, data) == outcome(ref_torelli_chamber, data)
    pv = torelli_parallel(data)
    assert repr(pv) == repr(ref_torelli_parallel(data))
    outer = PeriodVector.from_outer(pv.x[1:], pv.z[1:], PARALLEL_BASIS)
    assert repr(outer) == repr(ref_from_outer(pv.x[1:], pv.z[1:], PARALLEL_BASIS))
    back, domain = repr(ref_inverse_torelli(pv)), ref_in_period_domain(pv)
    for vector in (pv, outer, PeriodVector(pv.x, pv.z, PARALLEL_BASIS)):
        assert repr(inverse_torelli(vector)) == back
        assert in_period_domain(vector) == domain
    back = inverse_torelli(pv)
    assert back == data
    if rng.random() < 0.25:
        full = rng.random() < 0.5
        assert in_R_tilde(data, full) == in_R_tilde(back, full) == ref_in_R_tilde(data, full)
    label = enumerate_chambers()[sum(a.numerator for a in alpha) % 24]  # leaves rng as it was
    assert repr(central_x_closed_form(label, alpha)) == repr(ref_central_x(label, alpha))
    x, z = perturbed(rng, pv)
    want = ref_fiber_relation_error(x, z)
    got = outcome(PeriodVector, x, z, PARALLEL_BASIS)
    assert got[0] == "ok" if want is None else got[1:] == (InconsistentFiberRelation, want)
    mask = rng.randrange(16)
    assert repr(wall_K(mask, alpha)) == repr(ref_wall_K(mask, alpha))
    assert repr(wall_L(mask % 4 + 1, alpha)) == repr(ref_wall_L(mask % 4 + 1, alpha))
    assert repr(mass_functional(mask, masses)) == repr(ref_mass_functional(mask, masses))


def test_integer_kernel_matches_the_fraction_reference_on_5000_draws():
    rng = random.Random(15015)
    for _ in range(5000):
        alpha, masses = draw(rng)
        check_draw(alpha, masses, rng)


def test_draws_reach_every_outcome():
    # the weighting is only useful if walls, planes and the cube boundary are
    # hit.  Inside the open cube every Nakajima plane is a chamber wall, so
    # torelli_chamber raises OnWall before NonGeneric; planes show up as
    # genericity violations and as period vectors outside the domain.
    rng = random.Random(15015)
    seen = set()
    for _ in range(1000):
        alpha, masses = draw(rng)
        data = ParabolicData(alpha, masses)
        got = outcome(torelli_chamber, data)
        seen.add(got[1].__name__ if got[0] == "raise" else got[0])
        pv = torelli_parallel(data)
        seen.add(f"domain {in_period_domain(pv)[0]}")
        seen.add(f"violations {bool(genericity_violations(data))}")
        seen.add(f"fiber {ref_fiber_relation_error(*perturbed(rng, pv))}")
    assert {"ok", "OnWall", "OutOfCube", "domain True", "domain False", "violations True",
            "violations False", "fiber None", "fiber 2 x0 + sum x_j != 1",
            "fiber 2 z0 + sum z_j != 0"} <= seen


# hypothesis: alpha near the walls, a few small denominators, masses on or off
# a Nakajima plane

def _near_wall(wall, base, q, shift):
    """base with one coordinate solved onto ``wall``, then moved by shift/q."""
    (c, c0), j = wall
    a = list(base)
    a[j] = (c0 - sum(c[i] * a[i] for i in range(4) if i != j)) / c[j] + Fraction(shift, q)
    return tuple(a)


@settings(derandomize=True, max_examples=300, deadline=None)
@given(wall=st.tuples(st.sampled_from(WALLS), st.integers(0, 3)),
       q=st.sampled_from((2, 3, 4, 5, 6, 8, 12, 30, 10 ** 9 + 7)),
       nums=st.lists(st.integers(-2, 40), min_size=4, max_size=4),
       shift=st.sampled_from((0, 0, 0, 1, -1)),
       m=st.lists(st.tuples(st.integers(-2, 2), st.integers(-2, 2)), min_size=4, max_size=4),
       on_plane=st.booleans())
def test_integer_kernel_matches_the_fraction_reference_near_walls(wall, q, nums, shift, m,
                                                                  on_plane):
    alpha = _near_wall(wall, [Fraction(n, 2 * q + 1) for n in nums], q, shift)
    masses = [GaussianRational(re, im) for re, im in m]
    if on_plane:  # put m on the mass side of the wall's own plane
        (c, _), j = wall
        masses[j] = -c[j] * sum((c[i] * masses[i] for i in range(4) if i != j),
                                GaussianRational(0))
    check_draw(alpha, tuple(masses), random.Random(sum(nums) + q))
