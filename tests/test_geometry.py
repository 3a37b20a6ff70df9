"""Exact kinematics: boosts, leaf parameters, collisions, schedules."""

import random
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from narratables.errors import (
    CoincidentWorldlines,
    ExactnessWarning,
    OverlappingSimultaneousPairs,
    SuperluminalVelocity,
)
from narratables.geometry import (
    FLOAT_TIE_TOLERANCE,
    METRIC_DIAGONAL,
    Boost,
    Event,
    Foliation,
    Worldline,
    boost_matrix,
    collide,
    collision_events,
    collision_schedule,
    group_by_leaf,
    leaf_parameter,
    lorentz_gamma,
    rest_foliation,
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


def test_gamma_float_and_irrational():
    assert lorentz_gamma((0.6, 0.0, 0.0)) == pytest.approx(1.25)
    # rational velocity, irrational gamma
    g = lorentz_gamma((F(0), F(1, 2), F(0)))
    assert isinstance(g, float)
    assert g == pytest.approx(2.0 / np.sqrt(3.0))


def test_gamma_superluminal():
    with pytest.raises(SuperluminalVelocity):
        lorentz_gamma((F(1), F(0), F(0)))
    with pytest.raises(SuperluminalVelocity):
        lorentz_gamma((0.8, 0.8, 0.0))
    with pytest.raises(SuperluminalVelocity):
        lorentz_gamma((F(101, 100), F(0), F(0)))
    with pytest.raises(SuperluminalVelocity):
        lorentz_gamma((float("nan"), 0.0, 0.0))


def test_boost_frozen_entries():
    b = Boost((F(3, 5), F(0), F(0)))
    assert b.exact
    assert b.gamma == F(5, 4)
    assert b.matrix[0][0] == F(5, 4)
    assert b.matrix[0][1] == F(-3, 4)
    assert b.matrix[1][0] == F(-3, 4)
    assert b.matrix[1][1] == F(5, 4)
    assert b.matrix[2][2] == 1 and b.matrix[3][3] == 1
    assert all(isinstance(v, Fraction) for row in b.matrix for v in row)


def test_boost_identity_at_zero():
    b = Boost((F(0), F(0), F(0)))
    assert b.matrix == tuple(
        tuple(F(1) if i == j else F(0) for j in range(4)) for i in range(4)
    )


def test_boost_transform_example():
    b = Boost((F(3, 5), F(0), F(0)))
    assert b.transform(Event.of(1, 1, 0, 0)) == (F(1, 2), F(1, 2), 0, 0)


def test_boost_matrix_function_matches_type():
    assert boost_matrix((F(3, 5), 0, 0)) == Boost((F(3, 5), F(0), F(0))).matrix


def test_exact_metric_preservation():
    velocities = [
        (F(3, 5), F(0), F(0)),
        (F(0), F(4, 5), F(0)),
        (F(0), F(0), F(-3, 5)),
        (F(9, 25), F(12, 25), F(0)),  # |v| = 3/5, gamma = 5/4
    ]
    for v in velocities:
        b = Boost(v)
        assert b.exact
        assert eta_conjugate(b.matrix) == exact_eta()


def test_float_metric_preservation_sampled():
    rng = np.random.default_rng(20260815)
    worst = 0.0
    for _ in range(2000):
        direction = rng.normal(size=3)
        direction /= np.linalg.norm(direction)
        v = tuple(direction * rng.uniform(0.0, 0.99))
        with pytest.warns(ExactnessWarning):
            b = Boost(v)
        m = np.array(b.matrix, dtype=float)
        defect = np.max(np.abs(m.T @ np.diag(ETA).astype(float) @ m - np.diag(ETA)))
        worst = max(worst, defect)
    assert worst <= 1e-12


def test_boost_inverse_composition():
    v = (F(3, 5), F(0), F(0))
    fw = np.array(Boost(v).matrix, dtype=object)
    bw = np.array(Boost(tuple(-c for c in v)).matrix, dtype=object)
    prod = fw @ bw
    assert all(prod[i][j] == (1 if i == j else 0) for i in range(4) for j in range(4))

    rng = np.random.default_rng(7)
    for _ in range(200):
        direction = rng.normal(size=3)
        direction /= np.linalg.norm(direction)
        vf = tuple(direction * rng.uniform(0.0, 0.95))
        with pytest.warns(ExactnessWarning):
            m1 = np.array(Boost(vf).matrix, dtype=float)
        with pytest.warns(ExactnessWarning):
            m2 = np.array(Boost(tuple(-c for c in vf)).matrix, dtype=float)
        assert np.max(np.abs(m1 @ m2 - np.eye(4))) <= 1e-12


def test_boost_exactness_warning_paths():
    with pytest.warns(ExactnessWarning):
        Boost((0.6, 0.0, 0.0))  # float input
    with pytest.warns(ExactnessWarning):
        Boost((F(0), F(1, 2), F(0)))  # rational input, irrational gamma
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        Boost((F(3, 5), F(0), F(0)))  # fully exact: silent


def test_leaf_parameter_values():
    rest = rest_foliation()
    assert leaf_parameter(rest, Event.of(7, 123, -4, 9)) == 7
    fol = Foliation((F(3, 5), F(0), F(0)))
    assert leaf_parameter(fol, Event.of(0, 1, 0, 0)) == F(-3, 4)
    assert leaf_parameter(fol, Event.of(1, 1, 0, 0)) == F(1, 2)


def test_equal_time_events_split_by_x_boost():
    fol = Foliation((F(3, 5), F(0), F(0)))
    a, b = Event.of(4, -1, 0, 0), Event.of(4, 1, 0, 0)
    assert leaf_parameter(fol, a) != leaf_parameter(fol, b)
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
    if isinstance(got, list):
        assert all(type(core) is Fraction for core, _, _ in got)


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
