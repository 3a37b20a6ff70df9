"""Histories across foliations and the non-narratability verdict."""

import warnings
from bisect import bisect_right
from dataclasses import replace
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from narratables import geometry, narrative
from narratables.cli import built_in_demo
from narratables.errors import (
    CoincidentWorldlines,
    ExactnessWarning,
    FoliationMismatch,
    LittleGroupWarning,
    OverlappingSimultaneousPairs,
)
from narratables.geometry import CollisionGroup, Event, Foliation, Worldline, rest_foliation
from narratables.narrative import (
    COMPARISON_TOLERANCE,
    REFOLIATION_NOTE,
    History,
    InteractionRule,
    Scenario,
    compare_histories,
    evolve,
    flip_rule,
    free_rule,
    histories_equal,
    narratability_report,
    render_report,
)
from narratables.quantum import (
    SpinState,
    TwoSlotUnitary,
    apply_contact,
    equal_up_to_phase,
    identity_unitary,
    overlap,
    singlet_product,
    swap_unitary,
)

F = Fraction

X_BOOST = Foliation((F(3, 5), F(0), F(0)))
Y_BOOST = Foliation((F(0), F(1, 2), F(0)))


def demo_scenario(initial=None):
    half = F(1, 2)
    lines = (
        Worldline(0, "s1", Event.of(0, -1, 0, 0), (0, 0, 0)),
        Worldline(1, "s2", Event.of(0, 1, 0, 0), (0, 0, 0)),
        Worldline(2, "s3", Event.of(0, -1, 2, 0), (0, -half, 0)),
        Worldline(3, "s4", Event.of(0, 1, 2, 0), (0, -half, 0)),
    )
    if initial is None:
        initial = singlet_product(4, [(0, 1), (2, 3)])
    return Scenario(name="demo", worldlines=lines, initial_state=initial)


def test_rule_lookup():
    rule = InteractionRule("r", ((("a", "b"), swap_unitary()),))
    assert np.array_equal(rule.unitary_for("b", "a").matrix, swap_unitary().matrix)
    assert np.array_equal(rule.unitary_for("a", "c").matrix, np.eye(4))
    with_default = InteractionRule("d", (), default=swap_unitary())
    assert np.array_equal(with_default.unitary_for("x", "y").matrix, swap_unitary().matrix)
    # a bare matrix entry is stored as the TwoSlotUnitary it is checked as
    raw = InteractionRule("m", ((("a", "b"), np.diag([1, 1, 1, -1])),))
    ((key, u),) = raw.mapping
    assert key == ("a", "b") and isinstance(u, TwoSlotUnitary)
    assert raw.unitary_for("b", "a") is u


def test_scenario_validation():
    lines = demo_scenario().worldlines
    with pytest.raises(ValueError):
        Scenario("bad", lines[:3], singlet_product(4, [(0, 1), (2, 3)]))  # ids 0..2 vs 4 slots
    with pytest.raises(ValueError):
        Scenario(
            "bad",
            (lines[0], lines[2].__class__(1, "s3", lines[2].start, lines[2].velocity)),
            singlet_product(4, [(0, 1), (2, 3)]),
        )
    twin = Worldline(1, "s2", lines[0].position_at(3), lines[0].velocity)  # line 0 again
    with pytest.raises(CoincidentWorldlines, match="worldlines 0 and 1 coincide"):
        Scenario("bad", (lines[0], twin), singlet_product(2, [(0, 1)]))


def test_evolve_free_rule_is_inert():
    history = evolve(demo_scenario(), rest_foliation(), free_rule())
    assert history.groups == ()
    assert len(history.segments) == 1
    assert len(history.inert_groups) == 1
    assert history.inert_groups[0].core == F(4)


def test_evolve_rest_flip_round_trip():
    scenario = demo_scenario()
    history = evolve(scenario, rest_foliation(), flip_rule())
    assert history.breakpoints == (F(4),)
    assert len(history.segments) == 2
    assert equal_up_to_phase(history.segments[0], history.segments[1])
    # both swaps on one leaf reconstitute the double singlet exactly
    assert np.max(np.abs(
        history.segments[1].amplitudes - scenario.initial_state.amplitudes
    )) <= 1e-12


def test_evolve_x_boost_three_segments():
    scenario = demo_scenario()
    history = evolve(scenario, X_BOOST, flip_rule())
    assert history.cores == (F(17, 5), F(23, 5))
    assert history.breakpoints == (F(17, 4), F(23, 4))
    assert len(history.segments) == 3
    middle = history.segments[1].amplitudes
    expected = {3: -0.5, 5: 0.5, 10: 0.5, 12: -0.5}
    for i in range(16):
        assert middle[i] == pytest.approx(expected.get(i, 0.0), abs=1e-15)
    assert equal_up_to_phase(history.segments[0], history.segments[2])


def test_history_right_continuous_at_breakpoints():
    history = evolve(demo_scenario(), X_BOOST, flip_rule())
    assert history.breakpoints[0] == F(17, 4)
    assert np.array_equal(
        history.state_at(F(17, 4)).amplitudes, history.segments[1].amplitudes
    )
    assert np.array_equal(
        history.state_at(F(17, 4) - F(1, 1000)).amplitudes,
        history.segments[0].amplitudes,
    )
    assert np.array_equal(
        history.state_at(float(F(23, 4))).amplitudes, history.segments[2].amplitudes
    )
    # the lookup tables are built once per history, not once per lookup
    assert history.cores is history.cores
    assert history._float_breakpoints is history._float_breakpoints


def test_histories_equal_rest_but_not_boosted():
    scenario = demo_scenario()
    free, flip = free_rule(), flip_rule()
    h_free = evolve(scenario, rest_foliation(), free)
    h_flip = evolve(scenario, rest_foliation(), flip)
    assert histories_equal(h_free, h_flip)
    assert histories_equal(h_free, h_free)

    b_free = evolve(scenario, X_BOOST, free)
    b_flip = evolve(scenario, X_BOOST, flip)
    comparison = compare_histories(b_free, b_flip)
    assert not comparison.equal
    assert comparison.witness_core == F(17, 5)
    assert comparison.witness_tau == F(17, 4)
    assert comparison.witness_overlap == pytest.approx(0.5, abs=1e-10)
    assert comparison.min_overlap == pytest.approx(0.5, abs=1e-10)


def test_comparison_sample_grid():
    scenario = demo_scenario()
    comparison = compare_histories(
        evolve(scenario, X_BOOST, free_rule()), evolve(scenario, X_BOOST, flip_rule())
    )
    cores = [c for c, _, _ in comparison.samples]
    # one point before, the two cores, the midpoint, one point after
    assert cores == [F(12, 5), F(17, 5), F(4), F(23, 5), F(28, 5)]
    taus = [t for _, t, _ in comparison.samples]
    assert taus == [F(3), F(17, 4), F(5), F(23, 4), F(7)]


def test_comparison_takes_one_overlap_per_merged_interval(monkeypatch):
    calls = []
    monkeypatch.setattr(narrative, "overlap", lambda a, b: calls.append(1) or overlap(a, b))
    scenario = demo_scenario()
    for foliation, rule_a, rule_b, expected in [
        (X_BOOST, free_rule(), flip_rule(), 3),  # one before the leaves, one per leaf
        (X_BOOST, flip_rule(), flip_rule(), 3),
        (rest_foliation(), free_rule(), flip_rule(), 2),
        (rest_foliation(), free_rule(), free_rule(), 1),
    ]:
        calls.clear()
        comparison = compare_histories(
            evolve(scenario, foliation, rule_a), evolve(scenario, foliation, rule_b)
        )
        assert len(calls) == expected
        assert len(comparison.samples) == 2 * expected - 1


def test_float_near_tie_reads_both_histories_past_the_leaf():
    # the second history's (0,2) crossing sits 5e-10 later in core: within the
    # float tie tolerance, so on that merged leaf both histories have fired
    foliation = Foliation((0.6, 0.0, 0.0))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", ExactnessWarning)
        early = evolve(demo_scenario(), foliation, flip_rule())
    assert [g.pairs for g in early.groups] == [((1, 3),), ((0, 2),)]
    first, crossing = early.groups
    core = crossing.core + 5e-10
    late = History(
        foliation, (first, replace(crossing, core=core, tau=foliation.gamma * core)),
        early.segments,
    )
    comparison = compare_histories(early, late)
    assert comparison.equal
    assert [c for c, _, _ in comparison.samples] == [
        first.core - 1, first.core, (first.core + crossing.core) / 2,
        crossing.core, crossing.core + 1,
    ]
    assert comparison.min_overlap == pytest.approx(1.0, abs=1e-12)


def test_compare_requires_same_foliation():
    scenario = demo_scenario()
    with pytest.raises(FoliationMismatch):
        compare_histories(
            evolve(scenario, rest_foliation(), free_rule()),
            evolve(scenario, X_BOOST, free_rule()),
        )


def test_x_boost_sweep_and_y_boost():
    scenario = demo_scenario()
    for vx in (F(3, 5), F(4, 5), F(-3, 5)):
        fol = Foliation((vx, F(0), F(0)))
        assert not histories_equal(
            evolve(scenario, fol, free_rule()), evolve(scenario, fol, flip_rule())
        )
    for vy in (F(1, 2), F(-1, 2)):
        fol = Foliation((F(0), vy, F(0)))
        assert histories_equal(
            evolve(scenario, fol, free_rule()), evolve(scenario, fol, flip_rule())
        )


def test_same_group_sequence_gives_same_segments():
    # rest and y-boost induce the identical one-group schedule, so the
    # flip histories agree segment by segment (exact amplitudes)
    scenario = demo_scenario()
    at_rest = evolve(scenario, rest_foliation(), flip_rule())
    boosted = evolve(scenario, Y_BOOST, flip_rule())
    assert [g.pairs for g in at_rest.groups] == [g.pairs for g in boosted.groups]
    for a, b in zip(at_rest.segments, boosted.segments):
        assert np.array_equal(a.amplitudes, b.amplitudes)


def test_report_flags_non_narratable():
    report = narratability_report(
        demo_scenario(),
        free_rule(),
        flip_rule(),
        [rest_foliation(), X_BOOST, Y_BOOST],
    )
    assert report.non_narratable
    assert [v.equal for v in report.verdicts] == [True, False, True]
    # verdicts expose the raw crossing schedule, rule-independent
    assert [len(v.groups) for v in report.verdicts] == [1, 2, 1]
    rows = report.csv_rows()
    assert len(rows) == sum(len(v.comparison.samples) for v in report.verdicts)
    assert all(isinstance(tau, float) for _, tau, _ in rows)


def test_report_not_flagged_when_all_equal_or_all_differ():
    scenario = demo_scenario()
    equal_only = narratability_report(
        scenario, free_rule(), flip_rule(), [rest_foliation(), Y_BOOST]
    )
    assert not equal_only.non_narratable
    assert all(v.equal for v in equal_only.verdicts)
    differ_only = narratability_report(
        scenario,
        free_rule(),
        flip_rule(),
        [X_BOOST, Foliation((F(4, 5), F(0), F(0)))],
    )
    assert not differ_only.non_narratable
    assert not any(v.equal for v in differ_only.verdicts)
    free_vs_free = narratability_report(
        scenario, free_rule(), free_rule(), [rest_foliation(), X_BOOST]
    )
    assert not free_vs_free.non_narratable


def test_report_symmetry_and_phase_insensitivity():
    scenario = demo_scenario()
    foliations = [rest_foliation(), X_BOOST, Y_BOOST]
    fwd = narratability_report(scenario, free_rule(), flip_rule(), foliations)
    rev = narratability_report(scenario, flip_rule(), free_rule(), foliations)
    assert [v.equal for v in fwd.verdicts] == [v.equal for v in rev.verdicts]

    rotated = demo_scenario(
        SpinState(4, singlet_product(4, [(0, 1), (2, 3)]).amplitudes * np.exp(0.3j))
    )
    spun = narratability_report(rotated, free_rule(), flip_rule(), foliations)
    assert [v.equal for v in spun.verdicts] == [v.equal for v in fwd.verdicts]


def test_report_needs_two_foliations():
    with pytest.raises(ValueError):
        narratability_report(
            demo_scenario(), free_rule(), flip_rule(), [rest_foliation()]
        )


def test_render_report_wording():
    report = narratability_report(
        demo_scenario(),
        free_rule(),
        flip_rule(),
        [rest_foliation(), X_BOOST, Y_BOOST],
    )
    text = render_report(report)
    assert "NON_NARRATABLE" in text
    assert "DIFFER at tau = 17/4" in text
    assert "|overlap| = 0.5" in text
    assert "verdict: EQUAL" in text
    assert REFOLIATION_NOTE in text
    assert "\x1b[" not in text
    colored = render_report(report, colorize=True)
    assert "\x1b[31m" in colored and "\x1b[32m" in colored


def test_little_group_guard():
    e0 = np.zeros(16)
    e0[0] = 1.0  # |++++>, total spin 2 along z
    spinning = demo_scenario(SpinState(4, e0))
    with pytest.warns(LittleGroupWarning):
        evolve(spinning, X_BOOST, flip_rule())
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        evolve(spinning, rest_foliation(), flip_rule())  # rest frame: no guard
        evolve(demo_scenario(), X_BOOST, flip_rule())  # spin zero: no guard


def test_little_group_guard_covers_non_conserving_contacts():
    # a CZ contact does not commute with S_a + S_b: under the x boost the
    # singlets pick up spin after each crossing, though the initial state has none
    bundle = built_in_demo()
    cz = InteractionRule("cz", default=TwoSlotUnitary(np.diag([1, 1, 1, -1])))
    with pytest.warns(LittleGroupWarning) as caught:
        evolve(bundle.scenario, X_BOOST, cz)
    messages = [str(w.message) for w in caught]
    assert len(messages) == 2
    assert "(s2, s4)" in messages[0] and "tau = 17/4" in messages[0]
    assert "(s1, s3)" in messages[1] and "tau = 23/4" in messages[1]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        evolve(bundle.scenario, rest_foliation(), cz)  # rest frame: no guard
        for fol in bundle.foliations:
            evolve(bundle.scenario, fol, bundle.rules["flip"])  # swap conserves spin


def _counting(monkeypatch, module, name):
    calls = []
    original = getattr(module, name)

    def wrapper(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(module, name, wrapper)
    return calls


def test_report_finds_each_crossing_once(monkeypatch):
    calls = _counting(monkeypatch, geometry, "collide")
    foliations = [rest_foliation(), X_BOOST, Y_BOOST, Foliation((F(-3, 5), 0, 0))]
    narratability_report(demo_scenario(), free_rule(), flip_rule(), foliations)
    assert sorted((a.id, b.id) for a, b in calls) == [
        (i, j) for i in range(4) for j in range(i + 1, 4)
    ]


def test_report_groups_each_foliation_once(monkeypatch):
    calls = _counting(monkeypatch, narrative, "group_by_leaf")
    foliations = [rest_foliation(), X_BOOST, Y_BOOST, Foliation((F(-3, 5), 0, 0))]
    report = narratability_report(demo_scenario(), free_rule(), flip_rule(), foliations)
    assert [fol for _events, fol in calls] == foliations
    assert [v.groups for v in report.verdicts] == [
        tuple(geometry.group_by_leaf(demo_scenario().events, fol)) for fol in foliations
    ]


def test_spin_guard_runs_once_per_scenario(monkeypatch):
    calls = _counting(monkeypatch, narrative, "angular_momentum_norms")
    scenario = demo_scenario()
    foliations = [rest_foliation(), X_BOOST, Y_BOOST, Foliation((F(-3, 5), 0, 0))]
    narratability_report(scenario, free_rule(), flip_rule(), foliations)
    narratability_report(scenario, flip_rule(), free_rule(), foliations)
    assert len(calls) == 1


def test_free_rule_report_constructs_no_unitary(monkeypatch):
    scenario, free, flip = demo_scenario(), free_rule(), flip_rule()
    calls = _counting(monkeypatch, TwoSlotUnitary, "__post_init__")
    foliations = [rest_foliation(), X_BOOST, Y_BOOST, Foliation((F(-3, 5), 0, 0))]
    narratability_report(scenario, free, flip, foliations)
    assert calls == []


def test_free_rule_constant_everywhere():
    scenario = demo_scenario()
    for fol in (rest_foliation(), X_BOOST, Y_BOOST):
        history = evolve(scenario, fol, free_rule())
        for segment in history.segments:
            assert np.array_equal(
                segment.amplitudes, scenario.initial_state.amplitudes
            )


def test_mixed_rule_fires_only_matching_species():
    # a rule that swaps only the (s2, s4) collision: the (s1, s3) crossing
    # stays inert, leaving one breakpoint under the x boost
    rule = InteractionRule("partial", ((("s2", "s4"), swap_unitary()),))
    history = evolve(demo_scenario(), X_BOOST, rule)
    assert len(history.groups) == 1
    assert history.groups[0].pairs == ((1, 3),)
    assert len(history.inert_groups) == 1
    assert history.inert_groups[0].pairs == ((0, 2),)


COORDS = st.fractions(min_value=-3, max_value=3, max_denominator=6)
SPEEDS = st.fractions(min_value=F(-1, 2), max_value=F(1, 2), max_denominator=6)
VELOCITIES = st.tuples(SPEEDS, SPEEDS, SPEEDS)
SPECIES = ("a", "b", "c")


@st.composite
def identity_rule_cases(draw):
    """Crossing pairs of lines, singlet-paired, and a rule of identity unitaries only."""
    lines = []
    for _ in range(draw(st.integers(1, 3))):
        event = Event(*draw(st.tuples(COORDS, COORDS, COORDS, COORDS)))
        first = draw(VELOCITIES)
        second = draw(VELOCITIES.filter(lambda v: v != first))
        for velocity in (first, second):
            lines.append(Worldline(len(lines), draw(st.sampled_from(SPECIES)), event, velocity))
    pairs = draw(st.lists(st.tuples(st.sampled_from(SPECIES), st.sampled_from(SPECIES)),
                          max_size=4))
    explicit = TwoSlotUnitary(np.eye(4))
    mapping = tuple((pair, draw(st.sampled_from([identity_unitary(), explicit])))
                    for pair in pairs)
    default = draw(st.sampled_from([None, identity_unitary(), explicit]))
    rule = InteractionRule("identities", mapping, default)
    initial = singlet_product(len(lines), [(i, i + 1) for i in range(0, len(lines), 2)])
    return lines, initial, rule, Foliation(draw(VELOCITIES))


@given(identity_rule_cases())
def test_identity_rules_fire_no_groups(case):
    lines, initial, rule, foliation = case
    try:
        scenario = Scenario(name="identities", worldlines=tuple(lines), initial_state=initial)
        groups = geometry.group_by_leaf(scenario.events, foliation)
    except (CoincidentWorldlines, OverlappingSimultaneousPairs):
        assume(False)  # an accidental extra crossing; not what is probed here
    history = evolve(scenario, foliation, rule)
    assert history.groups == ()
    assert history.segments == (scenario.initial_state,)
    assert history.inert_groups == tuple(groups)
    assert len(history.inert_groups) >= 1


ONE_SLOT_STATES = (
    SpinState(1, [1, 0]),
    SpinState(1, [0, 1]),
    SpinState(1, [2**-0.5, 2**-0.5]),
)


@st.composite
def history_pairs(draw):
    """Two histories under one exact foliation, on breakpoint cores drawn from
    one small pool so that they often share leaves."""
    foliation = Foliation(draw(VELOCITIES))
    pool = draw(st.lists(COORDS, min_size=1, max_size=6, unique=True))

    def history():
        cores = sorted(draw(st.lists(st.sampled_from(pool), unique=True)))
        groups = tuple(CollisionGroup(c, foliation.gamma * c, ()) for c in cores)
        segments = tuple(draw(st.sampled_from(ONE_SLOT_STATES)) for _ in range(len(cores) + 1))
        return History(foliation, groups, segments)

    return history(), history()


def merge_and_bisect_comparison(h1, h2):
    """The comparison in two steps: merge the breakpoint cores under the tie
    rule, then look every sample up in each history by bisection."""
    fol = h1.foliation
    merged = []
    for c in sorted(h1.cores + h2.cores):
        if not merged or not fol.same_leaf(merged[-1], c):
            merged.append(c)
    points = [merged[0] - 1] if merged else [F(0)]
    for k, c in enumerate(merged):
        points += [c, (c + merged[k + 1]) / 2 if k + 1 < len(merged) else c + 1]
    samples = tuple(
        (c, fol.gamma * c, abs(overlap(h1.segments[bisect_right(h1.cores, c)],
                                       h2.segments[bisect_right(h2.cores, c)])))
        for c in points
    )
    witness = next((s for s in samples if abs(s[2] - 1.0) > COMPARISON_TOLERANCE), None)
    return samples, witness, min(s[2] for s in samples), len(merged)


@given(history_pairs())
def test_walk_matches_merge_and_bisect_reference(pair):
    h1, h2 = pair
    samples, witness, least, leaves = merge_and_bisect_comparison(h1, h2)
    with mock.patch.object(narrative, "overlap", wraps=overlap) as counted:
        comparison = compare_histories(h1, h2)
    assert comparison.samples == samples
    assert comparison.equal == (witness is None)
    assert (comparison.witness_core, comparison.witness_tau, comparison.witness_overlap) == (
        witness or (None, None, None)
    )
    assert comparison.min_overlap == least
    assert counted.call_count == leaves + 1


def report_histories(scenario, rule_a, rule_b, foliations):
    """The report, and the histories it evolved: rule a then rule b per frame."""
    made = []
    original = narrative._evolve_groups

    def recording(*args, **kwargs):
        made.append(original(*args, **kwargs))
        return made[-1]

    with mock.patch.object(narrative, "_evolve_groups", recording):
        report = narratability_report(scenario, rule_a, rule_b, foliations)
    return report, made


def random_unitary(seed):
    rng = np.random.default_rng(seed)
    q, _ = np.linalg.qr(rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4)))
    return TwoSlotUnitary(q)


@st.composite
def shared_prefix_cases(draw):
    """Crossing line pairs, two drawn rules, and 2-5 foliations from a small
    pool, so that neighbouring frames often fire the same groups in order."""
    lines = []
    for _ in range(draw(st.integers(1, 3))):
        event = Event(*draw(st.tuples(COORDS, COORDS, COORDS, COORDS)))
        first = draw(VELOCITIES)
        second = draw(VELOCITIES.filter(lambda v: v != first))
        for velocity in (first, second):
            lines.append(Worldline(len(lines), draw(st.sampled_from(SPECIES)), event, velocity))
    unitary = st.sampled_from([swap_unitary(), identity_unitary()]) | st.integers(0, 99).map(
        random_unitary)

    def rule(name):
        keys = draw(st.lists(st.tuples(st.sampled_from(SPECIES), st.sampled_from(SPECIES)),
                             max_size=3))
        return InteractionRule(name, tuple((k, draw(unitary)) for k in keys),
                               draw(st.none() | unitary))

    pool = [rest_foliation(), X_BOOST, Y_BOOST] + [Foliation(v) for v in draw(
        st.lists(VELOCITIES, min_size=1, max_size=2))]
    foliations = draw(st.lists(st.sampled_from(pool), min_size=2, max_size=5))
    initial = singlet_product(len(lines), [(i, i + 1) for i in range(0, len(lines), 2)])
    return lines, initial, rule("a"), rule("b"), foliations


@given(shared_prefix_cases())
def test_report_histories_equal_fresh_evolutions(case):
    lines, initial, rule_a, rule_b, foliations = case
    try:
        scenario = Scenario(name="prefixes", worldlines=tuple(lines), initial_state=initial)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", LittleGroupWarning)
            _, made = report_histories(scenario, rule_a, rule_b, foliations)
            fresh = [evolve(scenario, fol, rule)
                     for fol in foliations for rule in (rule_a, rule_b)]
    except (CoincidentWorldlines, OverlappingSimultaneousPairs):
        assume(False)  # an accidental extra crossing; not what is probed here
    assert len(made) == len(fresh)
    for got, want in zip(made, fresh):
        assert got.foliation == want.foliation
        assert got.groups == want.groups
        assert got.inert_groups == want.inert_groups
        assert len(got.segments) == len(want.segments)
        for a, b in zip(got.segments, want.segments):
            assert np.array_equal(a.amplitudes, b.amplitudes)


def test_prefix_reuse_stops_at_the_first_differing_group(monkeypatch):
    # four crossings of disjoint pairs: A long before B, D and E, with B and D
    # on either side of E along x.  The x boosts +1/2 and -1/2 fire A, B, E, D
    # and A, D, E, B: E sits third in both, but after different states.
    crossings = [(-100, 0, 0), (2, 10, 1), (2, -10, 2), (2, 0, 3)]  # (t, x, y): A, B, D, E
    lines = []
    for t, x, y in crossings:
        for w in (F(1, 2), F(-1, 2)):
            lines.append(Worldline(len(lines), "s", Event.of(t, x, y, 0), (0, 0, w)))
    rng = np.random.default_rng(5)
    amplitudes = rng.normal(size=256) + 1j * rng.normal(size=256)
    initial = SpinState(8, amplitudes / np.linalg.norm(amplitudes))
    scenario = Scenario("diverging", tuple(lines), initial)
    rule = InteractionRule("random", default=random_unitary(7))
    forward, backward = Foliation((F(1, 2), 0, 0)), Foliation((F(-1, 2), 0, 0))
    calls = _counting(monkeypatch, narrative, "apply_group")
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", LittleGroupWarning)
        _, made = report_histories(scenario, free_rule(), rule, [forward, backward])
    assert [g.pairs for g in made[1].groups] == [((0, 1),), ((2, 3),), ((6, 7),), ((4, 5),)]
    assert [g.pairs for g in made[3].groups] == [((0, 1),), ((4, 5),), ((6, 7),), ((2, 3),)]
    assert len(calls) == 4 + 3  # only A is shared
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", LittleGroupWarning)
        fresh = evolve(scenario, backward, rule)
    for a, b in zip(made[3].segments, fresh.segments):
        assert np.array_equal(a.amplitudes, b.amplitudes)
    assert not np.allclose(made[3].segments[3].amplitudes, made[1].segments[3].amplitudes)


def test_same_fired_order_in_the_next_frame_applies_no_contact(monkeypatch):
    # the 3/5 and 4/5 x boosts both fire (1,3) and then (0,2)
    scenario, free, flip = demo_scenario(), free_rule(), flip_rule()
    calls = _counting(monkeypatch, narrative, "apply_group")
    evolve(scenario, X_BOOST, flip)
    assert len(calls) == 2
    calls.clear()
    narratability_report(scenario, free, flip, [X_BOOST, Foliation((F(4, 5), 0, 0))])
    assert len(calls) == 2  # all in the first frame
    calls.clear()
    # the -3/5 boost fires (0,2) first, so it shares no prefix and applies both
    narratability_report(scenario, free, flip, [X_BOOST, Foliation((F(-3, 5), 0, 0))])
    assert len(calls) == 4


def test_reused_prefix_raises_the_warnings_of_fresh_evolutions(monkeypatch):
    # a CZ contact leaves spin behind under a boost: each frame warns with its
    # own tau, though the second frame reuses every state of the first
    scenario = built_in_demo().scenario
    cz = InteractionRule("cz", default=TwoSlotUnitary(np.diag([1, 1, 1, -1])))
    foliations = [X_BOOST, Foliation((F(4, 5), 0, 0)), rest_foliation(), X_BOOST]

    def caught(run):
        with warnings.catch_warnings(record=True) as seen:
            warnings.simplefilter("always")
            run()
        return [(w.category, str(w.message)) for w in seen]

    calls = _counting(monkeypatch, narrative, "apply_group")
    in_report = caught(lambda: narratability_report(scenario, free_rule(), cz, foliations))
    assert len(calls) == 2 + 0 + 1 + 2
    fresh = caught(lambda: [evolve(scenario, fol, rule)
                            for fol in foliations for rule in (free_rule(), cz)])
    assert in_report == fresh
    assert {category for category, _ in in_report} == {LittleGroupWarning}
    taus = [message.split("tau = ")[1] for _, message in in_report]
    assert taus == ["17/4", "23/4", "16/3", "8", "17/4", "23/4"]
