"""Exact kinematics: boosts, leaf parameters, collisions, schedules."""

import dataclasses
import itertools
import math
import random
import re
import warnings
from fractions import Fraction
from operator import eq, itemgetter
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from narratables import geometry, narrative, quantum
from narratables.errors import (
    CoincidentWorldlines,
    ExactnessWarning,
    OverlappingPairs,
    OverlappingSimultaneousPairs,
    SuperluminalVelocity,
)
from narratables.geometry import (
    FLOAT_TIE_TOLERANCE,
    METRIC_DIAGONAL,
    CollisionGroup,
    Crossings,
    Event,
    Foliation,
    Worldline,
    as_exact,
    boost_matrix,
    collide,
    collision_events,
    collision_schedule,
    group_by_leaf,
    leaf_runs,
    lorentz_gamma,
    rest_foliation,
)
from narratables.narrative import (
    Scenario,
    evolve,
    flip_rule,
    format_scalar,
    format_tau,
    format_taus,
    narratability_report,
)
from narratables.quantum import (
    SpinState,
    TwoSlotUnitary,
    identity_unitary,
    singlet_product,
    swap_unitary,
)

F = Fraction

ETA = METRIC_DIAGONAL


def crossing_lines():
    # the bundled demo geometry: one singlet pair at rest on the x axis,
    # one falling in from y = 2 at speed 1/2
    half = F(1, 2)
    return (
        Worldline(0, "s1", Event.of(0, -1, 0, 0), (0, 0, 0)),
        Worldline(1, "s2", Event.of(0, 1, 0, 0), (0, 0, 0)),
        Worldline(2, "s3", Event.of(0, -1, 2, 0), (0, -half, 0)),
        Worldline(3, "s4", Event.of(0, 1, 2, 0), (0, -half, 0)),
    )


def eta_conjugate(matrix):
    # Lambda^T eta Lambda, in whichever arithmetic the entries carry
    return [
        [
            sum(matrix[k][i] * ETA[k] * matrix[k][j] for k in range(4))
            for j in range(4)
        ]
        for i in range(4)
    ]


def exact_eta():
    return [[ETA[i] if i == j else F(0) for j in range(4)] for i in range(4)]


def test_gamma_exact_values():
    assert lorentz_gamma((F(3, 5), F(0), F(0))) == F(5, 4)
    assert isinstance(lorentz_gamma((F(3, 5), F(0), F(0))), Fraction)
    assert lorentz_gamma((F(0), F(4, 5), F(0))) == F(5, 3)
    assert lorentz_gamma((F(0), F(0), F(0))) == 1
    # ints with one Fraction are rational; ints alone are not Fractions
    assert type(lorentz_gamma((0, F(3, 5), 0))) is Fraction
    assert lorentz_gamma((0, F(3, 5), 0)) == F(5, 4)
    assert type(lorentz_gamma((0, 0, 0))) is float
    assert lorentz_gamma((0, 0, 0)) == 1.0


def test_gamma_float_and_irrational():
    assert lorentz_gamma((0.6, 0.0, 0.0)) == pytest.approx(1.25)
    # rational velocity, irrational gamma
    g = lorentz_gamma((F(0), F(1, 2), F(0)))
    assert isinstance(g, float)
    assert g == pytest.approx(2.0 / np.sqrt(3.0))


@pytest.mark.parametrize("velocity, rest", [
    ((F(0), F(0), F(0)), True),
    ((0.0, -0.0, 0.0), True),
    ((-0.0, -0.0, -0.0), True),
    ((F(3, 5), F(0), F(0)), False),
    ((F(0), F(0), F(-1, 2)), False),
    ((0.6, 0.0, 0.0), False),
    ((0.0, -1e-300, 0.0), False),
])
def test_is_rest_is_decided_once(velocity, rest):
    foliation = Foliation(velocity)
    assert foliation.is_rest is rest
    # kept on the foliation once read, out of its fields, equality and repr
    assert vars(foliation)["is_rest"] is rest
    assert foliation == Foliation(velocity) and "is_rest" not in repr(foliation)


def test_gamma_stays_finite_within_rounding_of_light_speed():
    # v = 1 - 1e-48: float(v.v) rounds to 1.0, the exact 1 - v.v does not
    v = F("9" * 48 + "/1" + "0" * 48)
    gamma = lorentz_gamma((v, F(0), F(0)))
    assert gamma == pytest.approx((2e-48) ** -0.5, rel=1e-12)  # 1 - v.v = 2e-48 - 1e-96
    with pytest.warns(ExactnessWarning):
        matrix = boost_matrix((v, 0, 0))
    assert matrix[0][0] == gamma
    assert all(np.isfinite(float(c)) for row in matrix for c in row)


def test_gamma_superluminal():
    with pytest.raises(SuperluminalVelocity):
        lorentz_gamma((F(1), F(0), F(0)))
    with pytest.raises(SuperluminalVelocity):
        lorentz_gamma((0.8, 0.8, 0.0))
    with pytest.raises(SuperluminalVelocity):
        lorentz_gamma((F(101, 100), F(0), F(0)))
    with pytest.raises(SuperluminalVelocity):
        lorentz_gamma((float("nan"), 0.0, 0.0))


def reference_gamma(velocity):
    """gamma in Fraction arithmetic: v.v as one sum, exact when 1 - v.v is the
    square of a rational, otherwise the float of v.v (or of 1 - v.v within
    rounding of light speed)."""
    v2 = sum(c * c for c in velocity)
    if not v2 < 1:
        raise SuperluminalVelocity(f"|v|^2 = {v2} >= 1")
    if isinstance(v2, Fraction):
        gap = 1 - v2
        rn, rd = math.isqrt(gap.numerator), math.isqrt(gap.denominator)
        if rn * rn == gap.numerator and rd * rd == gap.denominator:
            return Fraction(rd, rn)
    gap = 1.0 - float(v2)
    return 1.0 / math.sqrt(gap if gap > 0 else float(1 - v2))


def gamma_outcome(gamma, velocity):
    try:
        return gamma(velocity)
    except SuperluminalVelocity as exc:
        return f"SuperluminalVelocity: {exc}"


@st.composite
def pythagorean_velocities(draw):
    """(a, b, c)/d with a^2 + b^2 + c^2 + e^2 = d^2, from the quadruple
    parametrisation (m^2 + n^2 - p^2 - q^2, 2(mq + np), 2(nq - mp), m^2 + n^2
    + p^2 + q^2); a component is dropped for e, or kept for |v|^2 = 1."""
    m, n, p, q = draw(st.tuples(*[st.integers(-9, 9)] * 4).filter(any))
    quad = [m * m + n * n - p * p - q * q, 2 * (m * q + n * p), 2 * (n * q - m * p)]
    d = m * m + n * n + p * p + q * q
    gap = draw(st.sampled_from([0, 1, 2, None]))  # None: |v|^2 = 1
    if gap is not None:
        quad[gap] = 0
    velocity = [F(k, d) for k in draw(st.permutations(quad))]
    # a zero component may come as an int
    return tuple(0 if c == 0 and draw(st.booleans()) else c for c in velocity)


@st.composite
def near_light_velocities(draw):
    """One component within 1e-40 of 1 in |v|^2, on either side of it, with
    the others 0 as ints or Fractions."""
    big = 10**41 + draw(st.integers(0, 10**6))
    speed = F(big + draw(st.sampled_from([-1, 0, 1])), big)
    zero = draw(st.sampled_from([0, F(0)]))
    return draw(st.permutations([speed, zero, zero]))


GAMMA_COMPONENTS = st.one_of(
    st.integers(-1, 1),
    st.integers(-1, 1).map(np.int64),
    st.fractions(min_value=-1, max_value=1, max_denominator=50),
    st.floats(-1.0, 1.0),
)


@given(st.one_of(
    st.tuples(GAMMA_COMPONENTS, GAMMA_COMPONENTS, GAMMA_COMPONENTS),
    pythagorean_velocities(),
    near_light_velocities(),
))
def test_lorentz_gamma_matches_the_fraction_reference(velocity):
    got = gamma_outcome(lorentz_gamma, velocity)
    want = gamma_outcome(reference_gamma, velocity)
    assert type(got) is type(want)
    assert got == want


@given(st.one_of(
    st.tuples(*[st.fractions(min_value=-1, max_value=1, max_denominator=30)] * 3),
    pythagorean_velocities(),
    near_light_velocities(),
), st.tuples(*[st.fractions(min_value=-9, max_value=9, max_denominator=40)] * 4))
def test_worldline_is_rejected_iff_superluminal_and_its_integer_line_is_exact(
        velocity, start):
    v2 = sum(F(c) ** 2 for c in velocity)
    if v2 >= 1:
        with pytest.raises(SuperluminalVelocity) as caught:
            Worldline(3, "a", Event(*start), velocity)
        assert str(caught.value) == f"worldline 3: |v|^2 = {v2} >= 1"
        return
    line = Worldline(3, "a", Event(*start), velocity)
    (base, db), (numerators, dv) = line._integer_line
    assert tuple(F(p, db) for p in base) == line.base_point()
    assert tuple(F(k, dv) for k in numerators) == line.velocity


def test_boost_frozen_entries():
    m = boost_matrix((F(3, 5), F(0), F(0)))
    assert lorentz_gamma((F(3, 5), F(0), F(0))) == F(5, 4)
    assert m[0][0] == F(5, 4)
    assert m[0][1] == F(-3, 4)
    assert m[1][0] == F(-3, 4)
    assert m[1][1] == F(5, 4)
    assert m[2][2] == 1 and m[3][3] == 1
    assert all(isinstance(v, Fraction) for row in m for v in row)


def test_boost_identity_at_zero():
    assert boost_matrix((F(0), F(0), F(0))) == tuple(
        tuple(F(1) if i == j else F(0) for j in range(4)) for i in range(4)
    )
    # a float component that squares to 0.0 gives the float identity too
    with pytest.warns(ExactnessWarning):
        tiny = boost_matrix((1e-200, 0.0, 0.0))
    assert tiny == tuple(tuple(1.0 if i == j else 0.0 for j in range(4)) for i in range(4))
    assert all(type(v) is float for row in tiny for v in row)


def test_boost_transform_example():
    def transform(matrix, event):
        coords = event.coordinates()
        return tuple(sum(row[k] * coords[k] for k in range(4)) for row in matrix)

    m = boost_matrix((F(3, 5), F(0), F(0)))
    assert transform(m, Event.of(1, 1, 0, 0)) == (F(1, 2), F(1, 2), 0, 0)


def test_boost_matrix_function_matches_type():
    # ints and rational strings are coerced to Fractions; a float makes every entry a float
    exact = boost_matrix((F(3, 5), F(0), F(0)))
    assert boost_matrix((F(3, 5), 0, 0)) == boost_matrix(("3/5", "0", 0)) == exact
    assert all(type(v) is Fraction for row in boost_matrix((F(3, 5), 0, 0)) for v in row)
    with pytest.warns(ExactnessWarning):
        floats = boost_matrix((F(3, 5), 0.0, 0))
    assert all(type(v) is float for row in floats for v in row)
    assert np.allclose(np.array(floats, dtype=float), np.array(exact, dtype=float))


def test_exact_metric_preservation():
    velocities = [
        (F(3, 5), F(0), F(0)),
        (F(0), F(4, 5), F(0)),
        (F(0), F(0), F(-3, 5)),
        (F(9, 25), F(12, 25), F(0)),  # |v| = 3/5, gamma = 5/4
    ]
    for v in velocities:
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # exact: no ExactnessWarning
            m = boost_matrix(v)
        assert eta_conjugate(m) == exact_eta()


def test_float_metric_preservation_sampled():
    rng = np.random.default_rng(20260815)
    worst = 0.0
    for _ in range(2000):
        direction = rng.normal(size=3)
        direction /= np.linalg.norm(direction)
        v = tuple(direction * rng.uniform(0.0, 0.99))
        with pytest.warns(ExactnessWarning):
            m = np.array(boost_matrix(v), dtype=float)
        defect = np.max(np.abs(m.T @ np.diag(ETA).astype(float) @ m - np.diag(ETA)))
        worst = max(worst, defect)
    assert worst <= 1e-12


def test_boost_inverse_composition():
    v = (F(3, 5), F(0), F(0))
    fw = np.array(boost_matrix(v), dtype=object)
    bw = np.array(boost_matrix(tuple(-c for c in v)), dtype=object)
    prod = fw @ bw
    assert all(prod[i][j] == (1 if i == j else 0) for i in range(4) for j in range(4))

    rng = np.random.default_rng(7)
    for _ in range(200):
        direction = rng.normal(size=3)
        direction /= np.linalg.norm(direction)
        vf = tuple(direction * rng.uniform(0.0, 0.95))
        with pytest.warns(ExactnessWarning):
            m1 = np.array(boost_matrix(vf), dtype=float)
        with pytest.warns(ExactnessWarning):
            m2 = np.array(boost_matrix(tuple(-c for c in vf)), dtype=float)
        assert np.max(np.abs(m1 @ m2 - np.eye(4))) <= 1e-12


def test_boost_exactness_warning_paths():
    with pytest.warns(ExactnessWarning):
        boost_matrix((0.6, 0.0, 0.0))  # float input
    with pytest.warns(ExactnessWarning):
        boost_matrix((F(0), F(1, 2), F(0)))  # rational input, irrational gamma
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        boost_matrix((F(3, 5), F(0), F(0)))  # fully exact: silent
    with pytest.raises(SuperluminalVelocity):
        boost_matrix((F(4, 5), F(4, 5), F(0)))


def test_leaf_parameter_values():
    rest = rest_foliation()
    assert rest.leaf(Event.of(7, 123, -4, 9)) == 7
    fol = Foliation((F(3, 5), F(0), F(0)))
    assert fol.leaf(Event.of(0, 1, 0, 0)) == F(-3, 4)
    assert fol.leaf(Event.of(1, 1, 0, 0)) == F(1, 2)


def test_equal_time_events_split_by_x_boost():
    fol = Foliation((F(3, 5), F(0), F(0)))
    a, b = Event.of(4, -1, 0, 0), Event.of(4, 1, 0, 0)
    assert fol.leaf(a) != fol.leaf(b)
    assert rest_foliation().leaf(a) == rest_foliation().leaf(b)


def test_y_boost_keeps_x_separated_events_simultaneous():
    fol = Foliation((F(0), F(1, 2), F(0)))
    assert fol.exact  # velocity rational even though gamma is not
    a, b = Event.of(4, -1, 0, 0), Event.of(4, 1, 0, 0)
    assert fol.leaf_core(a) == fol.leaf_core(b) == F(4)
    assert isinstance(fol.leaf_core(a), Fraction)


def test_leaf_monotonic_along_worldlines():
    rng = random.Random(99)

    def rational(lo, hi):
        return F(rng.randint(lo * 8, hi * 8), 8)

    for _ in range(100):
        vline = tuple(rational(-1, 1) / 2 for _ in range(3))
        w = Worldline(
            0,
            "s",
            Event.of(rational(-3, 3), rational(-3, 3), rational(-3, 3), rational(-3, 3)),
            vline,
        )
        vfol = tuple(rational(-1, 1) / 2 for _ in range(3))
        fol = Foliation(vfol)
        t1 = rational(-5, 5)
        t2 = t1 + F(rng.randint(1, 40), 8)
        tau1 = fol.leaf(w.position_at(t1))
        tau2 = fol.leaf(w.position_at(t2))
        assert tau2 > tau1


def test_collide_frozen_events():
    w0, w1, w2, w3 = crossing_lines()
    assert collide(w0, w2) == Event.of(4, -1, 0, 0)
    assert collide(w1, w3) == Event.of(4, 1, 0, 0)
    assert collide(w0, w1) is None  # parallel, both static
    assert collide(w2, w3) is None
    assert collide(w0, w3) is None
    assert collide(w0, w2) == collide(w2, w0)


def test_collide_static_and_falling_lines():
    a = Worldline(0, "a", Event.of(0, 0, 0, 0), (0, 0, 0))
    b = Worldline(1, "b", Event.of(0, 0, 2, 0), (0, F(-1, 2), 0))
    assert collide(a, b) == Event.of(4, 0, 0, 0)


def test_collide_skew_lines_miss():
    a = Worldline(0, "a", Event.of(0, 0, 0, 0), (F(1, 2), 0, 0))
    b = Worldline(1, "b", Event.of(0, 0, 0, 1), (0, F(1, 2), 0))
    assert collide(a, b) is None


def test_collide_coincident_raises():
    a = Worldline(0, "a", Event.of(0, 0, 0, 0), (F(1, 2), 0, 0))
    b = Worldline(1, "b", Event.of(2, 1, 0, 0), (F(1, 2), 0, 0))  # same line
    with pytest.raises(CoincidentWorldlines):
        collide(a, b)


def test_collide_needs_distinct_ids():
    a = Worldline(0, "a", Event.of(0, 0, 0, 0), (0, 0, 0))
    with pytest.raises(ValueError):
        collide(a, a)
    twin = Worldline(0, "b", Event.of(0, 1, 0, 0), (F(1, 2), 0, 0))
    with pytest.raises(ValueError, match="^worldline ids must be unique$"):
        collision_events([a, twin])


def test_inexact_or_short_input_is_rejected():
    with pytest.raises(TypeError, match="^cannot interpret None as an exact rational$"):
        as_exact(None)
    with pytest.raises(ValueError, match="^expected a 3-vector$"):
        Worldline(0, "a", Event.of(0, 0, 0, 0), (0, 0))
    with pytest.raises(ValueError, match="^expected a 3-vector$"):
        Foliation((F(1, 2), 0))


def test_schedule_rest_single_group():
    groups = collision_schedule(crossing_lines(), rest_foliation())
    assert len(groups) == 1
    (g,) = groups
    assert g.core == F(4) and g.tau == F(4)
    assert g.pairs == ((0, 2), (1, 3))


def test_schedule_x_boost_two_ordered_groups():
    groups = collision_schedule(crossing_lines(), Foliation((F(3, 5), F(0), F(0))))
    assert [(g.core, g.tau, g.pairs) for g in groups] == [
        (F(17, 5), F(17, 4), ((1, 3),)),
        (F(23, 5), F(23, 4), ((0, 2),)),
    ]


def test_schedule_x_boost_sweep():
    for vx in (F(3, 5), F(4, 5), F(-3, 5)):
        groups = collision_schedule(crossing_lines(), Foliation((vx, F(0), F(0))))
        assert len(groups) == 2
        first = groups[0].pairs[0]
        assert first == ((1, 3) if vx > 0 else (0, 2))


def test_schedule_y_boost_single_group_exact():
    groups = collision_schedule(crossing_lines(), Foliation((F(0), F(1, 2), F(0))))
    assert len(groups) == 1
    (g,) = groups
    assert isinstance(g.core, Fraction) and g.core == F(4)
    assert g.tau == pytest.approx(4 * 2 / np.sqrt(3.0))
    assert g.pairs == ((0, 2), (1, 3))


@given(st.one_of(
    pythagorean_velocities().filter(lambda v: sum(c * c for c in v) < 1),  # rational gamma
    st.tuples(*[st.fractions(min_value=F(-1, 2), max_value=F(1, 2), max_denominator=9)] * 3),
    st.tuples(*[st.floats(-0.5, 0.5)] * 3),  # a float frame: float keys over 1
).map(Foliation), st.data())
def test_group_tau_is_gamma_times_its_core(foliation, data):
    if foliation.exact:
        key, scale = data.draw(st.integers(-10**30, 10**30)), data.draw(st.integers(1, 10**30))
    else:
        key, scale = data.draw(st.floats(-1e12, 1e12)), 1
    group = CollisionGroup(key, scale, foliation, ())
    tau, want = group.tau, foliation.gamma * group.core  # the core's tau, as built before
    assert type(tau) is type(want) is type(foliation.gamma)
    assert tau == want == foliation.gamma * (F(key) / scale)
    if isinstance(want, float):
        assert tau.hex() == want.hex()
    assert foliation.core_and_tau(key, scale) == (group.core, tau)


@given(st.one_of(
    pythagorean_velocities().filter(lambda v: sum(c * c for c in v) < 1),  # rational gamma
    st.tuples(*[st.fractions(min_value=F(-1, 2), max_value=F(1, 2), max_denominator=9)] * 3),
    st.tuples(*[st.floats(-0.5, 0.5)] * 3),  # a float frame: float keys over 1
).map(Foliation), st.data())
def test_printed_tau_is_the_formatted_leaf_tau(foliation, data):
    # any key, a key and scale sharing a factor, or a key whose tau is an integer
    kind = data.draw(st.sampled_from(["any", "shared factor", "integer tau"]))
    if not foliation.exact:
        key, scale = data.draw(st.floats(-1e12, 1e12)), 1
    elif kind == "any":
        key, scale = data.draw(st.integers(-10**30, 10**30)), data.draw(st.integers(1, 10**30))
    elif kind == "shared factor":
        factor = data.draw(st.integers(2, 10**6))
        key = factor * data.draw(st.integers(-10**9, 10**9))
        scale = factor * data.draw(st.integers(1, 10**9))
    else:
        scale = data.draw(st.integers(1, 10**9))
        over = foliation.gamma.denominator if isinstance(foliation.gamma, Fraction) else 1
        key = data.draw(st.integers(-10**6, 10**6)) * scale * over
    text = format_tau(foliation, key, scale)
    assert text == format_scalar(foliation.leaf_tau(key, scale))
    # a frame's taus in one call, as `render_report` formats them
    keys = [key, key + scale, -key, 0]
    assert format_taus(foliation, keys, scale) == [
        format_scalar(foliation.leaf_tau(k, scale)) for k in keys]
    if kind == "integer tau" and isinstance(foliation.gamma, Fraction):
        assert text == str(foliation.gamma.numerator * (key // (scale * over)))


def test_group_pairs_are_built_once():
    (g,) = collision_schedule(crossing_lines(), Foliation((F(0), F(1, 2), F(0))))
    rebuilt = CollisionGroup(g.key, g.scale, g.foliation, g.collisions)
    assert g.pairs is g.pairs
    # the pairs kept beside the fields leave the fields, equality, hash and repr as they were
    assert [f.name for f in dataclasses.fields(g)] == ["key", "scale", "foliation", "collisions"]
    assert g == rebuilt and hash(g) == hash(rebuilt)
    assert repr(g) == repr(rebuilt) and "pairs" not in repr(g)
    assert rebuilt.pairs == g.pairs


def test_schedule_permutation_invariant():
    lines = list(crossing_lines())
    reference = collision_schedule(lines, Foliation((F(3, 5), F(0), F(0))))
    rng = random.Random(5)
    for _ in range(10):
        rng.shuffle(lines)
        groups = collision_schedule(lines, Foliation((F(3, 5), F(0), F(0))))
        assert [(g.core, g.pairs) for g in groups] == [
            (g.core, g.pairs) for g in reference
        ]


def two_collision_lines(x_offset):
    # two independent pairs in separate z planes meeting at t = 2;
    # the second pair sits at x = x_offset so an x boost separates the leaves
    half = F(1, 2)
    return (
        Worldline(0, "a", Event.of(0, 0, 0, 0), (0, 0, 0)),
        Worldline(1, "b", Event.of(0, -1, 0, 0), (half, 0, 0)),
        Worldline(2, "c", Event.of(0, x_offset, 0, 1), (0, 0, 0)),
        Worldline(3, "d", Event.of(0, x_offset - 1, 0, 1), (half, 0, 0)),
    )


def test_schedule_float_tie_tolerance():
    # cores differ by 0.3 * x_offset under a float x boost of 0.3
    fol = Foliation((0.3, 0.0, 0.0))
    assert not fol.exact

    with pytest.warns(ExactnessWarning):
        groups = collision_schedule(two_collision_lines(F(1, 10**12)), fol)
    assert len(groups) == 1  # 3e-13 < 1e-9: merged
    assert groups[0].pairs == ((0, 1), (2, 3))

    with pytest.warns(ExactnessWarning):
        groups = collision_schedule(two_collision_lines(F(1, 1000)), fol)
    assert len(groups) == 2  # 3e-4 > 1e-9: split
    assert FLOAT_TIE_TOLERANCE == 1e-9


def test_schedule_overlapping_pairs_rejected():
    half = F(1, 2)
    lines = (
        Worldline(0, "a", Event.of(0, 0, 0, 0), (0, 0, 0)),
        Worldline(1, "b", Event.of(0, -2, 0, 0), (half, 0, 0)),
        Worldline(2, "c", Event.of(0, 2, 0, 0), (-half, 0, 0)),
    )
    # all three meet at (4, 0, 0, 0): every slot repeats on the leaf
    with pytest.raises(OverlappingSimultaneousPairs):
        collision_schedule(lines, rest_foliation())
    # a leaf of one hand-built pair that holds its slot twice, in every kind of frame
    events = [((2, 2), Event.of(4, 1, 0, 0))]
    for velocity, core in [((0, 0, 0), "4"), ((F(3, 5), 0, 0), "17/5"),
                           ((F(1, 2), F(1, 2), 0), "7/2"), ((0.6, 0.0, 0.0), "3.4")]:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", ExactnessWarning)
            with pytest.raises(OverlappingSimultaneousPairs,
                               match=f"^particle 2 collides twice on leaf core={core}$"):
                group_by_leaf(events, Foliation(velocity))


def test_worldline_superluminal_rejected():
    with pytest.raises(SuperluminalVelocity):
        Worldline(0, "a", Event.of(0, 0, 0, 0), (1, 0, 0))
    with pytest.raises(SuperluminalVelocity):
        Worldline(0, "a", Event.of(0, 0, 0, 0), (F(4, 5), F(4, 5), 0))


def test_metric_diagonal_convention():
    assert METRIC_DIAGONAL == (1, -1, -1, -1)


RATIONALS = st.fractions(min_value=-3, max_value=3, max_denominator=6)
SPEEDS = st.fractions(min_value=F(-1, 2), max_value=F(1, 2), max_denominator=6)
VELOCITIES = st.tuples(SPEEDS, SPEEDS, SPEEDS)


@st.composite
def crossing_scenarios(draw):
    # pairs of lines through shared random events, so every draw has crossings
    lines = []
    for _ in range(draw(st.integers(1, 3))):
        event = Event(*draw(st.tuples(RATIONALS, RATIONALS, RATIONALS, RATIONALS)))
        first = draw(VELOCITIES)
        second = draw(VELOCITIES.filter(lambda v: v != first))
        for velocity in (first, second):
            lines.append(Worldline(len(lines), f"s{len(lines)}", event, velocity))
    return lines


@given(crossing_scenarios(), VELOCITIES)
def test_collision_events_are_frame_independent(lines, velocity):
    foliation = Foliation(velocity)
    try:
        events = collision_events(lines)
        groups = collision_schedule(lines, foliation)
    except (CoincidentWorldlines, OverlappingSimultaneousPairs):
        assume(False)  # an accidental extra crossing; not what is probed here
    assert len(events) >= len(lines) // 2
    flattened = [hit for g in groups for hit in g.collisions]
    assert len(flattened) == len(events)
    assert set(flattened) == set(events)
    cores = [g.core for g in groups]
    assert all(a < b for a, b in zip(cores, cores[1:]))
    for g in groups:
        assert list(g.pairs) == sorted(g.pairs)
        assert {foliation.leaf_core(event) for _, event in g.collisions} == {g.core}
    # timelike-separated events (two crossings of one worldline) never reorder
    leaf_of = {hit: g.core for g in groups for hit in g.collisions}
    for line in lines:
        mine = sorted((event.t, leaf_of[(pair, event)]) for pair, event in events
                      if line.id in pair)
        assert all(a[1] < b[1] for a, b in zip(mine, mine[1:]))
    # nor do causally ordered events on different worldlines: dt > 0 and
    # dt^2 >= |dx|^2 give dt - v.dx >= dt (1 - |v|) > 0
    for first, later in itertools.permutations(events, 2):
        dt = later[1].t - first[1].t
        dx = [b - a for a, b in zip(first[1].position(), later[1].position())]
        if dt > 0 and dt * dt >= sum(c * c for c in dx):
            assert leaf_of[later] > leaf_of[first]


# the core gap is 1 - v_x, the smallest along +x; 0.999999 leaves 1e-6, beyond
# the float tie tolerance
@pytest.mark.parametrize("velocity", [
    (0, 0, 0), (F(3, 5), 0, 0), (F(-3, 5), 0, 0), (F(12, 13), 0, 0), (F(99, 100), 0, 0),
    (F(3, 5), F(4, 5) - F(1, 100), 0), (0.999999, 0.0, 0.0)])
def test_lightlike_separated_crossings_of_different_lines_never_reorder(velocity):
    # lines 0 and 1 cross at the origin, lines 2 and 3 at (1, 1, 0, 0), on
    # the light cone of the first crossing; no other pair of lines meets
    lines = [Worldline(0, "a", Event.of(0, 0, 0, 0), (0, 0, 0)),
             Worldline(1, "b", Event.of(0, 0, 0, 0), (0, 0, F(1, 2))),
             Worldline(2, "c", Event.of(1, 1, 0, 0), (0, 0, 0)),
             Worldline(3, "d", Event.of(1, 1, 0, 0), (0, F(1, 2), 0))]
    events = collision_events(lines)
    assert [pair for pair, _ in events] == [(0, 1), (2, 3)]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", ExactnessWarning)
        groups = group_by_leaf(events, Foliation(velocity))
    assert [g.pairs for g in groups] == [((0, 1),), ((2, 3),)]
    assert groups[0].core < groups[1].core


# mixed denominators and both signs; |v|^2 <= 3/4 keeps every draw subluminal
MIXED_SPEEDS = st.fractions(min_value=F(-1, 2), max_value=F(1, 2), max_denominator=12)
MIXED_COORDS = st.fractions(min_value=-5, max_value=5, max_denominator=30)


@st.composite
def leaf_event_sets(draw):
    """An exact velocity and events with distinct pairs, most placed on a few
    drawn leaves t - v.x = u, so that leaves often hold three or more events
    and a slot often meets two partners on one leaf."""
    velocity = draw(st.tuples(MIXED_SPEEDS, MIXED_SPEEDS, MIXED_SPEEDS))
    leaves = draw(st.lists(MIXED_COORDS, min_size=1, max_size=3))
    # up to six disjoint pairs, then a few more that may share a slot with them
    order = draw(st.permutations(range(12)))
    pairs = [tuple(sorted(order[k:k + 2])) for k in range(0, 2 * draw(st.integers(1, 6)), 2)]
    all_pairs = [(a, b) for a in range(12) for b in range(a + 1, 12)]
    pairs += draw(st.lists(st.sampled_from(all_pairs).filter(lambda p: p not in pairs),
                           max_size=2, unique=True))
    events = []
    for pair in pairs:
        x, y, z = draw(st.tuples(MIXED_COORDS, MIXED_COORDS, MIXED_COORDS))
        leaf = draw(st.integers(0, len(leaves)))  # len(leaves): off every drawn leaf
        t = draw(MIXED_COORDS) if leaf == len(leaves) else leaves[leaf] + sum(
            v * p for v, p in zip(velocity, (x, y, z)))
        events.append((pair, Event(t, x, y, z)))
    return velocity, events


def reference_grouping(events, velocity):
    """Leaves keyed by the Fraction t - v.x, in increasing order, members by
    pair; the first slot met twice on a leaf raises, as `group_by_leaf` does."""
    leaves = {}
    for pair, event in events:
        core = event.t - sum(v * p for v, p in zip(velocity, event.position()))
        leaves.setdefault(core, []).append((pair, event))
    gamma = lorentz_gamma(velocity)
    groups = []
    for core in sorted(leaves):
        members = sorted(leaves[core], key=lambda m: m[0])
        seen = set()
        for pair, _ in members:
            for slot in pair:
                if slot in seen:
                    raise OverlappingSimultaneousPairs(
                        f"particle {slot} collides twice on leaf core={core}")
                seen.add(slot)
        groups.append((core, gamma * core, tuple(members)))
    return groups


def grouping_outcome(group):
    try:
        return group()
    except OverlappingSimultaneousPairs as exc:
        return str(exc)


@given(leaf_event_sets(), st.randoms(use_true_random=False))
def test_integer_leaf_keys_match_a_fraction_reference(case, rng):
    velocity, events = case
    rng.shuffle(events)  # the grouping does not depend on the listing order
    expected = grouping_outcome(lambda: reference_grouping(events, velocity))
    got = grouping_outcome(lambda: [
        (g.core, g.tau, g.collisions) for g in group_by_leaf(events, Foliation(velocity))])
    assert got == expected
    # the same from the integer rows a Crossings tuple keeps
    crossings = Crossings(sorted(events, key=lambda m: m[0]))
    assert crossings.integer_rows is crossings.integer_rows
    assert grouping_outcome(lambda: [
        (g.core, g.tau, g.collisions) for g in group_by_leaf(crossings, Foliation(velocity))
    ]) == expected
    if isinstance(got, list):
        assert all(type(core) is Fraction for core, _, _ in got)


@st.composite
def meeting_scenarios(draw):
    """Pairs of lines through drawn events, as `crossing_scenarios` draws
    them, and half the time a third line through one of those events, so that
    three lines meet there."""
    lines, meetings = [], []
    for _ in range(draw(st.integers(1, 3))):
        event = Event(*draw(st.tuples(RATIONALS, RATIONALS, RATIONALS, RATIONALS)))
        first = draw(VELOCITIES)
        second = draw(VELOCITIES.filter(lambda v: v != first))
        for velocity in (first, second):
            lines.append(Worldline(len(lines), f"s{len(lines)}", event, velocity))
        meetings.append((event, (first, second)))
    if draw(st.booleans()):
        event, taken = draw(st.sampled_from(meetings))
        third = draw(VELOCITIES.filter(lambda v: v not in taken))
        lines.append(Worldline(len(lines), f"s{len(lines)}", event, third))
    return lines


@given(meeting_scenarios(), st.one_of(
    pythagorean_velocities().filter(lambda v: sum(c * c for c in v) < 1),  # rational gamma
    VELOCITIES,  # mostly irrational gamma
    VELOCITIES.map(lambda v: tuple(float(c) for c in v)),  # a float frame
))
def test_found_crossings_group_as_with_every_leaf_checked(lines, velocity):
    """Crossings found from lines group as the same events do as a plain list,
    and as the Fraction reference does: the groups, or the
    OverlappingSimultaneousPairs error and its message."""
    try:
        events = collision_events(lines)
    except CoincidentWorldlines:
        assume(False)
    foliation = Foliation(velocity)

    def outcome(listed):
        return grouping_outcome(lambda: [(g.key, g.scale, g.pairs, g.collisions)
                                         for g in group_by_leaf(listed, foliation)])

    with warnings.catch_warnings():
        warnings.simplefilter("ignore", ExactnessWarning)
        got = outcome(events)
        expected = outcome(list(events))
    assert got == expected
    if len(lines) % 2:  # three lines through one event: every frame raises
        assert isinstance(got, str)
    if foliation.exact:
        reference = grouping_outcome(lambda: reference_grouping(events, velocity))
        if isinstance(reference, str):
            assert got == reference
        else:
            assert [(F(key, scale), pairs) for key, scale, pairs, _ in got] == [
                (core, tuple(pair for pair, _ in members)) for core, _, members in reference]


CONTACTS = st.sampled_from([swap_unitary(), identity_unitary(),
                            TwoSlotUnitary(np.diag([1, 1, 1, -1])),
                            TwoSlotUnitary(np.eye(4)[[0, 2, 1, 3]] * 1j)])


@given(meeting_scenarios(), st.one_of(VELOCITIES, VELOCITIES.map(
    lambda v: tuple(float(c) for c in v))), st.data())
def test_a_walk_meets_only_groups_that_pass_the_contact_check(lines, velocity, data):
    """Lines as `crossing_scenarios` draws them, half the time with a third
    through one crossing, under an exact or a float frame.  Every run that
    `leaf_runs` yields from the scenario's crossings passes
    `quantum._checked` with any unitary on each pair, so the walk's `_step`
    does not check it again.  A leaf where one line meets two partners
    raises OverlappingSimultaneousPairs from grouping: `evolve` and a report
    raise it with that text before any step is walked."""
    n = len(lines)
    try:
        scenario = Scenario("walk", tuple(lines), SpinState(n, np.eye(1, 1 << n)[0]))
    except CoincidentWorldlines:
        assume(False)
    foliation = Foliation(velocity)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", ExactnessWarning)
        try:
            runs, _ = leaf_runs(scenario.events, foliation)
        except OverlappingSimultaneousPairs as exc:
            walks = (lambda: evolve(scenario, foliation, flip_rule()),
                     lambda: narratability_report(scenario, flip_rule(), flip_rule(),
                                                  [foliation, foliation]))
            with mock.patch.object(narrative, "_step", side_effect=AssertionError("walked")):
                for walk in walks:
                    with pytest.raises(OverlappingSimultaneousPairs) as got:
                        walk()
                    assert str(got.value) == str(exc)
            return
    for _, _, pairs in runs:
        actions = [(data.draw(CONTACTS), pair) for pair in pairs]
        assert quantum._checked(scenario.initial_state, actions) == [
            (u, a, b) for u, (a, b) in actions]


TWELVE_SLOTS = singlet_product(12, [(k, k + 1) for k in range(0, 12, 2)])


@given(leaf_event_sets(), st.sampled_from([None, 0.0, 1e-10, 4e-10]))
def test_grouping_refuses_the_leaves_the_contact_check_refuses(case, nudge):
    """Under the drawn exact velocity (nudge None) or its floats, nudged or
    not: `leaf_runs` raises OverlappingSimultaneousPairs exactly when a run
    it yields with its slot check off holds a slot twice, which
    `quantum._checked` refuses, naming the same slot as the first such run;
    otherwise it yields those runs, and each passes `_checked`."""
    velocity, events = case
    if nudge is not None:
        velocity = tuple(float(v) + nudge for v in velocity)
    foliation = Foliation(velocity)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", ExactnessWarning)
        got = grouping_outcome(lambda: leaf_runs(events, foliation)[0])
        with mock.patch.object(geometry, "_check_slots"):
            unchecked, _ = leaf_runs(events, foliation)
    refused = []
    for _, _, pairs in unchecked:
        try:
            quantum._checked(TWELVE_SLOTS, [(swap_unitary(), pair) for pair in pairs])
        except OverlappingPairs as exc:
            refused.append(re.match(r"slot (\d+) used by two", str(exc))[1])
    if refused:
        assert isinstance(got, str) and got.startswith(f"particle {refused[0]} collides twice")
    else:
        assert got == unchecked


@given(crossing_scenarios(), VELOCITIES)
def test_float_foliation_groups_like_the_exact_one_away_from_ties(lines, velocity):
    exact = Foliation(velocity)
    approx = Foliation(tuple(float(v) for v in velocity))
    try:
        events = collision_events(lines)
    except CoincidentWorldlines:
        assume(False)
    cores = sorted({exact.leaf_core(e) for _, e in events})
    # exact ties stay ties in floats; distinct leaves sit far beyond the tolerance
    assume(all(b - a > 1000 * FLOAT_TIE_TOLERANCE for a, b in zip(cores, cores[1:])))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", ExactnessWarning)
        expected = grouping_outcome(lambda: group_by_leaf(events, exact))
        got = grouping_outcome(lambda: group_by_leaf(events, approx))
    if isinstance(expected, str):
        assert isinstance(got, str)
        return
    assert [g.collisions for g in got] == [g.collisions for g in expected]
    for g, e in zip(got, expected):
        assert isinstance(g.core, float)
        assert g.core == pytest.approx(float(e.core), abs=1e-12)
        assert g.tau == pytest.approx(float(e.tau), abs=1e-12)


@given(leaf_event_sets(), st.sampled_from([0.0, 1e-10, 4e-10]))
def test_float_group_core_is_its_smallest_member_leaf_core(case, nudge):
    # a drawn leaf's events tie exactly under the rational velocity; as floats,
    # nudged or not, they tie within rounding or the tolerance, or split
    velocity, events = case
    foliation = Foliation(tuple(float(v) + nudge for v in velocity))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", ExactnessWarning)
        groups = grouping_outcome(lambda: group_by_leaf(events, foliation))
    if isinstance(groups, str):
        return
    assert sorted(m for g in groups for m in g.collisions) == sorted(events)
    for g in groups:
        core = min(foliation.leaf_core(event) for _, event in g.collisions)
        assert type(g.core) is float and g.core.hex() == core.hex()


def sorted_and_grouped(events, foliation):
    """`leaf_runs` as it grouped before a leaf of one event shared its tuples:
    (key, event) pairs sorted by key, stably, then grouped run by run into
    fresh tuples; then a float leaf of two or more events re-sorted by pair,
    and every leaf of two or more events, or of one pair that holds its slot
    twice, checked."""
    events = Crossings(sorted(events, key=itemgetter(0)))
    keys, scale = geometry._leaf_keys(events, foliation)
    exact = foliation.exact
    same_leaf = eq if exact else foliation.same_leaf
    runs = []
    for key, member in sorted(zip(keys, events), key=itemgetter(0)):
        if runs and same_leaf(runs[-1][0], key):
            first, members, pairs = runs[-1]
            runs[-1] = (first, members + (member,), pairs + (member[0],))
        else:
            runs.append((key, (member,), (member[0],)))
    for k, (key, members, pairs) in enumerate(runs):
        if len(pairs) > 1 and not exact:
            members = tuple(sorted(members, key=itemgetter(0)))
            pairs = tuple([pair for pair, _ in members])
            runs[k] = (key, members, pairs)
        if len(pairs) > 1 or pairs[0][0] == pairs[0][1]:
            geometry._check_slots(foliation, key, scale, pairs)
    return runs, scale


@st.composite
def leaf_run_cases(draw):
    """Events as `leaf_event_sets` draws them, now and then with one more
    whose pair holds a slot twice, and two frames.  The first is the drawn
    exact velocity or its floats, nudged or not, so that a drawn leaf's
    events tie exactly, within rounding or within 1e-9, or split; the second
    is another velocity, exact or float."""
    velocity, events = draw(leaf_event_sets())
    if draw(st.integers(0, 9)) == 0:
        slot = draw(st.integers(0, 11))
        events.append(((slot, slot), Event(*draw(st.tuples(*[MIXED_COORDS] * 4)))))

    def frame(velocity):
        if draw(st.booleans()):
            return Foliation(velocity)
        nudge = draw(st.sampled_from([0.0, 1e-10, 4e-10, 2e-9]))
        return Foliation(tuple(float(v) + nudge for v in velocity))

    other = draw(st.tuples(MIXED_SPEEDS, MIXED_SPEEDS, MIXED_SPEEDS))
    return events, (frame(velocity), frame(other))


@given(leaf_run_cases())
def test_leaf_runs_equal_the_sort_and_group_reference(case):
    """`leaf_runs` gives the reference's runs, key types and scale, or its
    OverlappingSimultaneousPairs text, from Crossings or a plain list; and a
    leaf of one event, in either frame, holds that event's members and pairs
    tuples from `Crossings.single_runs`, the same objects in both frames."""
    events, frames = case
    crossings = Crossings(sorted(events, key=itemgetter(0)))
    outcomes = []
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", ExactnessWarning)
        for foliation in frames:
            want = grouping_outcome(lambda: sorted_and_grouped(events, foliation))
            got = grouping_outcome(lambda: leaf_runs(crossings, foliation))
            assert got == want
            assert grouping_outcome(lambda: leaf_runs(list(events), foliation)) == want
            if not isinstance(got, str):
                assert [type(key) for key, _, _ in got[0]] == [type(key) for key, _, _ in want[0]]
            outcomes.append(got)
    if any(isinstance(got, str) for got in outcomes):
        return
    index = {member: k for k, member in enumerate(crossings)}  # distinct pairs
    alone = [{pairs[0]: (members, pairs) for _, members, pairs in runs if len(pairs) == 1}
             for runs, _ in outcomes]
    for runs in alone:
        for members, pairs in runs.values():
            shared = crossings.single_runs[index[members[0]]]
            assert members is shared[0] and pairs is shared[1]
    for pair in alone[0].keys() & alone[1].keys():
        assert all(x is y for x, y in zip(alone[0][pair], alone[1][pair], strict=True))


def reference_collide(a, b):
    """The crossing in Fraction arithmetic: t = dc / dv on every axis where the
    velocities differ, then the event at t on `a`."""
    ca, cb = a.base_point(), b.base_point()
    t, constrained = None, False
    for i in range(3):
        dv = a.velocity[i] - b.velocity[i]
        dc = cb[i] - ca[i]
        if dv == 0:
            if dc != 0:
                return None
            continue
        ti = dc / dv
        if constrained and ti != t:
            return None
        t, constrained = ti, True
    if not constrained:
        raise CoincidentWorldlines(f"worldlines {a.id} and {b.id} coincide")
    return a.position_at(t)


def collide_outcome(collide_pair, a, b):
    try:
        return collide_pair(a, b)
    except CoincidentWorldlines:
        return "coincident"


LINE_PAIR_KINDS = ("meet", "miss", "parallel", "one axis", "one axis, offset", "coincide")


@st.composite
def line_pairs(draw, first_id=0):
    """Two worldlines with mixed denominators that meet at a drawn event, miss
    (skew, or parallel off each other), differ in velocity on one axis only
    (through a shared event, or offset on another axis), or coincide."""
    kind = draw(st.sampled_from(LINE_PAIR_KINDS))
    event = Event(*draw(st.tuples(MIXED_COORDS, MIXED_COORDS, MIXED_COORDS, MIXED_COORDS)))
    velocity = draw(st.tuples(MIXED_SPEEDS, MIXED_SPEEDS, MIXED_SPEEDS))
    a = Worldline(first_id, "a", event, velocity)
    start, other = event, velocity
    if kind in ("meet", "miss"):
        other = draw(st.tuples(MIXED_SPEEDS, MIXED_SPEEDS, MIXED_SPEEDS).filter(
            lambda v: v != velocity))
    elif kind.startswith("one axis"):
        axis = draw(st.integers(0, 2))
        speed = draw(MIXED_SPEEDS.filter(lambda s: s != velocity[axis]))
        other = tuple(speed if i == axis else v for i, v in enumerate(velocity))
    if kind == "coincide":
        start = a.position_at(draw(MIXED_COORDS))
    elif kind in ("miss", "parallel", "one axis, offset"):
        shift = draw(st.tuples(MIXED_COORDS, MIXED_COORDS, MIXED_COORDS).filter(any))
        start = Event(draw(MIXED_COORDS), *(p + s for p, s in zip(event.position(), shift)))
    return a, Worldline(first_id + 1, "b", start, other)


@given(line_pairs(), line_pairs(first_id=2))
def test_integer_collide_matches_the_fraction_reference(first, second):
    for a, b in (first, second, (first[0], second[1]), (second[0], first[1])):
        expected = collide_outcome(reference_collide, a, b)
        assert collide_outcome(collide, a, b) == expected
        assert collide_outcome(collide, b, a) == collide_outcome(reference_collide, b, a)
        if isinstance(expected, Event):
            assert all(type(c) is Fraction for c in expected.coordinates())
    lines = [*first, *second]
    try:
        expected = Crossings(
            ((a.id, b.id), event) for k, a in enumerate(lines) for b in lines[k + 1:]
            if (event := reference_collide(a, b)) is not None)
    except CoincidentWorldlines:
        with pytest.raises(CoincidentWorldlines):
            collision_events(lines)
        return
    got = collision_events(lines)
    assert got == expected
    assert got.integer_rows == expected.integer_rows
