"""State histories along foliations, and their frame-by-frame comparison.

A history is piecewise constant in the leaf parameter tau and right-continuous
at collision leaves.  Evolving the same scenario under two interaction rules
and several foliations yields a report; when the two rules agree under at
least one foliation and disagree under another, the pair of histories is
flagged NON_NARRATABLE: no single leaf-by-leaf record pins down the dynamics.

Boosted histories are obtained by re-grouping the same collision events under
the boosted leaves, not by actively transforming the states.  A verdict reads
only |<a|b>|: worldlines never deflect, so a boost acts on both rules' states
on a leaf as one product of per-worldline Wigner rotations, which leaves
|<a|b>| unchanged.  A printed segment is the re-foliated state; zero total
spin, which the spin guard checks, does not make it the boosted one.
"""

from __future__ import annotations

import warnings
from bisect import bisect_right
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from math import gcd, lcm
from typing import Iterable, Optional, Sequence

from .errors import FoliationMismatch, LittleGroupWarning
from .geometry import (Foliation, Scalar, as_float, collision_events, collision_groups,
                       leaf_runs)
from .quantum import (
    DotBuffers,
    SpinState,
    TwoSlotUnitary,
    _applied,
    _swapped,
    angular_momentum_norms,
    identity_unitary,
    overlap,
    permuted,
    placed_magnitude,
    swap_unitary,
)

COMPARISON_TOLERANCE = 1e-10
SPIN_GUARD_TOLERANCE = 1e-6

REFOLIATION_NOTE = (
    "histories are re-foliated rather than actively boosted; the zero "
    "angular-momentum guard certifies trivial spin transport"
)


def _carries_spin(state: SpinState) -> bool:
    return max(angular_momentum_norms(state)) > SPIN_GUARD_TOLERANCE


def _pair_key(a: str, b: str) -> frozenset:
    return frozenset((a, b))


@dataclass(frozen=True, eq=False)
class InteractionRule:
    """Contact unitaries keyed by unordered species pair.

    Pairs without an entry fall back to `default` (identity when None).  A
    unitary acts on the colliding slots ordered by slot index.
    """

    name: str
    mapping: tuple = ()  # ((species_a, species_b), TwoSlotUnitary) entries
    default: Optional[TwoSlotUnitary] = None

    def __post_init__(self):
        mapping = tuple(
            (key, u if isinstance(u, TwoSlotUnitary) else TwoSlotUnitary(u))
            for key, u in self.mapping
        )
        object.__setattr__(self, "mapping", mapping)
        object.__setattr__(self, "_table", {_pair_key(*key): u for key, u in mapping})

    def unitary_for(self, species_a: str, species_b: str) -> TwoSlotUnitary:
        u = self._table.get(_pair_key(species_a, species_b))
        if u is not None:
            return u
        if self.default is not None:
            return self.default
        return identity_unitary()


def free_rule() -> InteractionRule:
    return InteractionRule("free")


def flip_rule() -> InteractionRule:
    """Every collision exchanges the two spins, whatever the species."""
    return InteractionRule("flip", default=swap_unitary())


@dataclass(frozen=True, eq=False)
class Scenario:
    """Worldlines plus the joint spin state on their slots."""

    name: str
    worldlines: tuple
    initial_state: SpinState
    # every crossing, found once; a foliation only groups them into leaves
    events: tuple = field(init=False, repr=False)

    def __post_init__(self):
        lines = tuple(sorted(self.worldlines, key=lambda w: w.id))
        object.__setattr__(self, "worldlines", lines)
        ids = [w.id for w in lines]
        if ids != list(range(len(lines))):
            raise ValueError(f"worldline ids must be 0..{len(lines) - 1}, got {ids}")
        if self.initial_state.n_slots != len(lines):
            raise ValueError(
                f"state has {self.initial_state.n_slots} slots for {len(lines)} worldlines"
            )
        object.__setattr__(self, "events", collision_events(lines))

    @cached_property
    def has_initial_spin(self) -> bool:
        """Whether the initial state carries nonzero total spin.

        A singlet product answers from its `pairing`, with no dense pass: it
        carries spin exactly when it has single slots.  Every J_k annihilates
        a singlet pair, so with m >= 1 singles of Bloch vectors e_s,
        sum_k |J_k psi|^2 = <J^2> = (2m + |sum_s e_s|^2)/4 >= m/2, and
        max_k |J_k psi| >= sqrt(1/6) ~ 0.41, far above SPIN_GUARD_TOLERANCE;
        with none, all three norms are 0.  A state given by its amplitudes
        takes the dense check."""
        pairing = self.initial_state.pairing
        if pairing is not None:
            return bool(pairing.singles)
        return _carries_spin(self.initial_state)

    def species_of(self, slot: int) -> str:
        return self.worldlines[slot].species


@dataclass(frozen=True, eq=False)
class History:
    """Piecewise-constant record of the state along one foliation.

    Only collision groups that fire a non-identity unitary become
    breakpoints; crossings the rule leaves inert are kept separately.
    """

    foliation: Foliation
    groups: tuple  # CollisionGroup, ordered by tau
    segments: tuple  # SpinState, one more than groups
    inert_groups: tuple = ()

    def __post_init__(self):
        if len(self.segments) != len(self.groups) + 1:
            raise ValueError("need exactly one more segment than breakpoints")

    @cached_property
    def breakpoints(self) -> tuple:
        return tuple(g.tau for g in self.groups)

    @cached_property
    def _float_breakpoints(self) -> list:
        return [as_float(t, "breakpoint tau") for t in self.breakpoints]

    def segment_index(self, tau) -> int:
        """The index of the segment that holds at `tau`; right-continuous: on
        a collision leaf the new segment already holds."""
        return bisect_right(self._float_breakpoints, as_float(tau, "tau"))

    def state_at(self, tau) -> SpinState:
        return self.segments[self.segment_index(tau)]


def evolve(scenario: Scenario, foliation: Foliation, rule: InteractionRule) -> History:
    """Run the scenario leaf by leaf under one foliation and rule.

    Under a boost, LittleGroupWarning fires when the initial state carries
    spin, or when a contact unitary that does not conserve spin leaves some."""
    runs, scale = leaf_runs(scenario.events, foliation)
    unitaries, traces = _unitaries(scenario, rule), {}
    step = _origin(scenario)
    fired, segments, inert = [], [step.state], []
    for group in collision_groups(runs, scale, foliation):
        after = _step(step, group.pairs, unitaries, traces, {})
        if after is None:
            inert.append(group)
            continue
        step = after
        fired.append((group, step))
        segments.append(step.state)
    _emit(_spin_guard(scenario, foliation, scale, unitaries,
                      [(g.pairs, g.key, step) for g, step in fired]))
    return History(foliation, tuple(g for g, _ in fired), tuple(segments), tuple(inert))


def _unitaries(scenario: Scenario, rule: InteractionRule) -> dict:
    """The rule's contact unitary for each crossing pair of the scenario whose
    unitary is not the identity: an identity contact changes no amplitude, so
    it is left out of every group it shares."""
    pairs = {(a, b): rule.unitary_for(scenario.species_of(a), scenario.species_of(b))
             for (a, b), _event in scenario.events}
    return {pair: u for pair, u in pairs.items() if not u.is_identity}


def _emit(warned: list) -> None:
    # two frames up: the caller of `evolve` or `narratability_report`
    for message in warned:
        warnings.warn(message, LittleGroupWarning, stacklevel=3)


class _Step:
    """One rule's contact trace and state after a group it fires (or before
    any group).  The state is `base`, the state after the last group with a
    contact that is not a swap, with its slot axes permuted by `axes`, those
    of the swaps fired since (None: no swap).  A swap-only group moves no
    amplitude: the state is built where it is read, and not kept.

    A report links its steps as it walks: `moves` maps a group's pairs to
    the step the rule takes over that group from here (None: none of its
    contacts fires), and on rule a's steps `magnitudes` maps a step of rule
    b to |<a|b>| of the two.  Within one report and rule, a step stands for
    exactly one trace, so these keys are as good as traces."""

    def __init__(self, trace: tuple, base: SpinState, axes: Optional[tuple] = None):
        self.trace, self.base, self.axes = trace, base, axes
        self.moves: dict = {}
        self.magnitudes: dict = {}

    @property
    def state(self) -> SpinState:
        return permuted(self.base, self.axes)

    @cached_property
    def carries_spin(self) -> bool:
        return _carries_spin(self.state)


def _origin(scenario: Scenario) -> _Step:
    return _Step((0,) * len(scenario.worldlines), scenario.initial_state)


def _step(before: _Step, pairs: tuple, unitaries: dict, traces: dict,
          steps: dict) -> Optional[_Step]:
    """One rule's step over a group of crossing `pairs` from `before`, with
    the rule's `_unitaries`, or None when none of its contacts fires.

    The pairs are a `leaf_runs` run's, so `Scenario` and the grouping have
    checked them: distinct slots in range, none held twice on the leaf.  The
    step's contact trace is interned in `traces`.  `steps` holds the steps
    that evolutions of the same scenario and rule built, with the same
    `traces`, by their traces: a step held under the trace the step reaches
    has its state exactly, so it is returned.  Otherwise a group of swaps
    only permutes the slot axes of `before`, and any other group runs its
    contacts on `before`'s state; the new step is filed in `steps`."""
    contacts = [(unitaries[pair], *pair) for pair in pairs if pair in unitaries]
    if not contacts:
        return None
    trace = _trace_after(before.trace, contacts, traces)
    held = steps.get(trace)
    if held is not None:
        return held
    if all(u.is_swap for u, _, _ in contacts):
        step = _Step(trace, before.base, _swapped(before.base.n_slots, before.axes, contacts))
    else:
        step = _Step(trace, _applied(before.state, contacts))
    steps[trace] = step
    return step


def _spin_guard(scenario: Scenario, foliation: Foliation, scale: int, unitaries: dict,
                fired: Iterable) -> list:
    """The LittleGroupWarning messages of one rule's evolution, with the
    rule's `_unitaries`, whose fired groups, each as its pairs and key over
    the frame's `scale`, and the steps they reach are `fired`, (pairs, key,
    step) each: none at rest; under a boost, one when the initial state
    carries spin, then one per fired group whose contacts that do not
    conserve spin leave some spin."""
    if foliation.is_rest:
        return []
    warned = []
    if scenario.has_initial_spin:
        warned.append(
            "initial state carries nonzero total spin; re-foliated history "
            "ignores the boost's action on spins"
        )
    for pairs, key, step in fired:
        culprits = [pair for pair in pairs
                    if pair in unitaries and not unitaries[pair].conserves_spin]
        if culprits and step.carries_spin:
            species = ", ".join("({}, {})".format(*map(scenario.species_of, p))
                                for p in culprits)
            tau = format_tau(foliation, key, scale)
            warned.append(
                f"contact unitary for species {species} does not conserve spin; re-foliated "
                f"history ignores the spin it leaves from tau = {tau}"
            )
    return warned


def _trace_after(trace: tuple, contacts: list, traces: dict) -> tuple:
    """The contact trace `trace` after one group's (unitary, a, b) contacts.

    A contact trace holds, per slot, the sequence of contacts that touched it,
    interned in `traces` as (sequence id, a, b) -> id.  A moves-only contact
    touches its two slots; any other touches every slot, so it stays ordered
    against every contact.  Moves-only contacts on disjoint slots commute
    exactly, so two orders of the same contacts that reach one trace (the
    Mazurkiewicz trace of the contact sequence) reach one state."""
    slots = list(trace)
    for u, a, b in contacts:
        for s in (a, b) if u.moves_only else range(len(slots)):
            slots[s] = traces.setdefault((slots[s], a, b), len(traces) + 1)
    return tuple(slots)


@dataclass(frozen=True)
class HistoryComparison:
    equal: bool
    witness_core: Optional[Scalar]
    witness_tau: Optional[Scalar]
    witness_overlap: Optional[float]
    min_overlap: float
    foliation: Foliation = field(repr=False)
    start: float = field(repr=False)  # |overlap| before the first merged leaf
    leaves: tuple = field(repr=False)  # (key over scale/2, |overlap| from it on) per merged leaf
    scale: int = field(repr=False)  # a point's sum/scale is the sample's core

    @cached_property
    def points(self) -> tuple:
        """(sum of two keys, |overlap|) per sample, built when first read:
        before the first leaf, on each leaf, and after it (at the midpoint to
        the next leaf, or one unit past the last); with no leaf, the one
        sample is core 0."""
        leaves, start = self.leaves, self.start
        if not leaves:
            return ((0, start),)
        unit = self.scale // 2
        points = [(2 * (leaves[0][0] - unit), start)]
        for (key, mag), following in zip(leaves, leaves[1:] + (None,)):
            after = 2 * (key + unit) if following is None else key + following[0]
            points += [(2 * key, mag), (after, mag)]
        return tuple(points)

    @cached_property
    def samples(self) -> tuple:
        """(core, tau, |overlap|) per sample point, built when first read."""
        fol, scale = self.foliation, self.scale
        return tuple((*fol.core_and_tau(key, scale), mag) for key, mag in self.points)


def compare_histories(
    h1: History, h2: History, tol: float = COMPARISON_TOLERANCE
) -> HistoryComparison:
    """Sample both histories before the first merged leaf (core - 1), on each
    leaf, and at the midpoint after it (core + 1 after the last), in one walk.

    A merged leaf is a run of breakpoint cores of either history within
    `Foliation.same_leaf` of its first core; both histories step past every
    breakpoint on it.  Right-continuity makes the leaf and the interval after
    it hold the same two states, so one overlap serves both samples.

    The walk runs on the groups' keys over the lcm of both histories' group
    scales (integers for an exact foliation, float cores over 1 for a float
    one); `_sampled` turns the merged leaves into samples."""
    fol = h1.foliation
    if fol != h2.foliation:
        raise FoliationMismatch(
            f"cannot compare histories under {fol.velocity} and {h2.foliation.velocity}"
        )
    unit = lcm(*{g.scale for g in h1.groups + h2.groups})
    k1, k2 = ([g.key * (unit // g.scale) for g in h.groups] for h in (h1, h2))
    start = abs(overlap(h1.segments[0], h2.segments[0]))
    leaves, i, j = [], 0, 0
    leaf = min(k1[:1] + k2[:1], default=None)
    while leaf is not None:
        while i < len(k1) and fol.same_leaf(leaf, k1[i]):
            i += 1
        while j < len(k2) and fol.same_leaf(leaf, k2[j]):
            j += 1
        leaves.append((leaf, abs(overlap(h1.segments[i], h2.segments[j]))))
        leaf = min(k1[i:i + 1] + k2[j:j + 1], default=None)
    return _sampled(fol, start, leaves, unit, tol)


def _sampled(fol: Foliation, start: float, leaves: list, unit: int,
             tol: float) -> HistoryComparison:
    """The comparison sampled as `compare_histories` says, from the merged
    `leaves`, each (key over `unit`, |overlap| from it on), and the |overlap|
    `start` before them.  A sample is the sum of two keys, over 2 * unit (2
    with no leaf), with its |overlap|; the samples are built when first read.
    The first sample off unit |overlap| by more than `tol` is the witness,
    whose core and tau alone are built here: the start sample, or else the
    sample on the first such leaf, which comes before the one after it."""
    scale = 2 * unit if leaves else 2
    witness = (None, None, None)
    if abs(start - 1.0) > tol:
        first = 2 * (leaves[0][0] - unit) if leaves else 0
        witness = (*fol.core_and_tau(first, scale), start)
    else:
        for key, mag in leaves:
            if abs(mag - 1.0) > tol:
                witness = (*fol.core_and_tau(2 * key, scale), mag)
                break
    min_overlap = min([start] + [mag for _, mag in leaves])
    return HistoryComparison(witness[2] is None, *witness, min_overlap, fol, start,
                             tuple(leaves), scale)


@dataclass(frozen=True, eq=False)
class FrameVerdict:
    """One frame's verdict, with the frame's `leaf_runs`, (key, members,
    pairs) per leaf over the frame's one `scale`; `groups` wraps them as
    `group_by_leaf` does when first read."""

    foliation_index: int
    foliation: Foliation
    runs: tuple
    scale: int
    comparison: HistoryComparison

    @cached_property
    def groups(self) -> tuple:
        return tuple(collision_groups(self.runs, self.scale, self.foliation))

    @property
    def equal(self) -> bool:
        return self.comparison.equal


@dataclass(frozen=True, eq=False)
class NarratabilityReport:
    scenario_name: str
    rule_names: tuple
    verdicts: tuple

    @property
    def non_narratable(self) -> bool:
        return any(v.equal for v in self.verdicts) and any(
            not v.equal for v in self.verdicts
        )

    def csv_rows(self) -> list[tuple[int, float, float]]:
        rows = []
        for v in self.verdicts:
            where = f"CSV tau of foliation {v.foliation_index}"
            for _core, tau, mag in v.comparison.samples:
                rows.append((v.foliation_index, as_float(tau, where), mag))
        return rows


def format_scalar(value) -> str:
    """A Fraction as p/q, a float to 12 significant digits."""
    if isinstance(value, Fraction):
        return str(value)
    return f"{float(value):.12g}"


def format_tau(foliation: Foliation, key, scale: int) -> str:
    """`format_scalar` of the tau of the core key/scale (scale > 0), from the
    key: `format_taus` of one key."""
    return format_taus(foliation, (key,), scale)[0]


def format_taus(foliation: Foliation, keys: Iterable, scale: int) -> list:
    """`format_tau` of each of one frame's `keys` over one `scale`, with
    gamma's parts and the scale read once: for a rational gamma p/q, the
    reduced fraction p*key/(q*scale) with one gcd and no Fraction; otherwise
    the float `Foliation.leaf_tau` gives, to 12 significant digits."""
    gamma = foliation.gamma
    if not isinstance(gamma, Fraction):
        return [f"{gamma * (key / scale):.12g}" for key in keys]
    p, den = gamma.numerator, gamma.denominator * scale
    taus = []
    for key in keys:
        num = p * key
        common = gcd(num, den)
        taus.append(str(num // common) if den == common else f"{num // common}/{den // common}")
    return taus


def format_foliation(index: int, foliation: Foliation) -> str:
    """The header line of one frame: `foliation i: v = (…), gamma = …`."""
    vel = ", ".join(format_scalar(c) for c in foliation.velocity)
    return f"foliation {index}: v = ({vel}), gamma = {format_scalar(foliation.gamma)}"


def format_pairs(pairs) -> str:
    """Slot pairs as `(a,b), (c,d)`."""
    return ", ".join(f"({a},{b})" for a, b in pairs)


def paint(text: str, code: str, colorize: bool) -> str:
    """Wrap `text` in the ANSI color `code` when `colorize` is set."""
    return f"\x1b[{code}m{text}\x1b[0m" if colorize else text


def render_report(report: NarratabilityReport, colorize: bool = False) -> str:
    """Structured-text rendering of a narratability report."""
    lines = [
        f"scenario: {report.scenario_name}",
        f"rules: {report.rule_names[0]} vs {report.rule_names[1]}",
        f"note: {REFOLIATION_NOTE}",
        "",
    ]
    labels: dict = {}  # each distinct pair list, formatted once per report
    for v in report.verdicts:
        fol = v.foliation
        lines.append(format_foliation(v.foliation_index, fol))
        lines.append(f"  collision leaves: {len(v.runs)}")
        taus = format_taus(fol, [key for key, _, _ in v.runs], v.scale)
        for tau, (_, _, pairs) in zip(taus, v.runs):
            label = labels.get(pairs)
            if label is None:
                label = labels[pairs] = format_pairs(pairs)
            lines.append(f"    tau = {tau}: pairs {label}")
        c = v.comparison
        if c.equal:
            lines.append(
                "  verdict: "
                + paint("EQUAL", "32", colorize)
                + f" (min |overlap| = {c.min_overlap:.12g})"
            )
        else:
            lines.append(
                "  verdict: "
                + paint("DIFFER", "31", colorize)
                + f" at tau = {format_scalar(c.witness_tau)},"
                + f" |overlap| = {c.witness_overlap:.12g}"
            )
    lines.append("")
    if report.non_narratable:
        eq = next(v.foliation_index for v in report.verdicts if v.equal)
        df = next(v.foliation_index for v in report.verdicts if not v.equal)
        lines.append(
            "summary: "
            + paint("NON_NARRATABLE", "1;31", colorize)
            + f" (equal under foliation {eq}; differs under foliation {df})"
        )
    elif all(v.equal for v in report.verdicts):
        lines.append(
            "summary: histories agree under every tested foliation"
        )
    else:
        lines.append(
            "summary: histories differ under every tested foliation"
        )
    return "\n".join(lines)


def narratability_report(
    scenario: Scenario,
    rule_a: InteractionRule,
    rule_b: InteractionRule,
    foliations: Sequence[Foliation],
    tol: float = COMPARISON_TOLERANCE,
) -> NarratabilityReport:
    """Evolve under both rules in every frame and compare leaf by leaf.

    Every frame is grouped first (`leaf_runs` checks each leaf), then walked
    in input order from each rule's origin step.  A rule follows its steps'
    `moves` links and calls `_step` only for a new one; `_step` files each
    step under its trace, so a trace reached through another order of
    commuting contacts reuses its step.  |<a|b>| is taken once per pair of
    steps, kept in rule a's step's `magnitudes`, by `placed_magnitude` with
    no state built.  Each comparison equals `compare_histories` of the
    frame's two histories.  LittleGroupWarnings are emitted once every frame
    is walked, frame by frame, rule a's first.

    A step after a group with a contact that is not a swap holds its own 2^n
    amplitudes until the report ends: at most the distinct traces such groups
    reach, times 2^n * 16 bytes, per rule.  A swap-only step holds none."""
    if len(foliations) < 2:
        raise ValueError("need at least two foliations to probe narratability")
    # raw schedules: the crossings exist whichever rule fires them
    schedules = [leaf_runs(scenario.events, fol) for fol in foliations]
    rules = (_unitaries(scenario, rule_a), _unitaries(scenario, rule_b))
    # only a rule with a contact that does not conserve spin can leave some
    guarded = [any(not u.conserves_spin for u in unitaries.values()) for unitaries in rules]
    start = abs(overlap(scenario.initial_state, scenario.initial_state))
    # the origin's links differ per rule: one origin step each
    origins, traces = (_origin(scenario), _origin(scenario)), {}
    dots = DotBuffers(scenario.initial_state.n_slots)
    steps = ({}, {})  # per rule: `_step`'s steps by trace
    verdicts, warned = [], []
    for idx, (fol, (runs, scale)) in enumerate(zip(foliations, schedules)):
        now, leaves, fired = list(origins), [], ([], [])
        for key, _, pairs in runs:
            moved = False
            for r in (0, 1):
                before = now[r]
                after = before.moves.get(pairs, False)
                if after is False:
                    after = before.moves[pairs] = _step(before, pairs, rules[r], traces,
                                                        steps[r])
                if after is not None:
                    now[r], moved = after, True
                    if guarded[r]:
                        fired[r].append((pairs, key, after))
            if moved:
                a, b = now
                mag = a.magnitudes.get(b)
                if mag is None:
                    mag = a.magnitudes[b] = placed_magnitude(a.base, a.axes, b.base, b.axes,
                                                             dots)
                leaves.append((key, mag))
        for r in (0, 1):  # rule a's warnings first
            warned += _spin_guard(scenario, fol, scale, rules[r], fired[r])
        verdicts.append(FrameVerdict(idx, fol, tuple(runs), scale,
                                     _sampled(fol, start, leaves, scale, tol)))
    _emit(warned)
    return NarratabilityReport(
        scenario_name=scenario.name,
        rule_names=(rule_a.name, rule_b.name),
        verdicts=tuple(verdicts),
    )
