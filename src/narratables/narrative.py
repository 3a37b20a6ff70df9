"""State histories along foliations, and their frame-by-frame comparison.

A history is piecewise constant in the leaf parameter tau and right-continuous
at collision leaves.  Evolving the same scenario under two interaction rules
and several foliations yields a report; when the two rules agree under at
least one foliation and disagree under another, the pair of histories is
flagged NON_NARRATABLE: no single leaf-by-leaf record pins down the dynamics.

Boosted histories are obtained by re-grouping the same collision events under
the boosted leaves, not by actively transforming the states; the zero
angular-momentum guard in `evolve` is what licenses that shortcut.
"""

from __future__ import annotations

import warnings
from bisect import bisect_right
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from typing import Optional, Sequence

from .errors import FoliationMismatch, LittleGroupWarning
from .geometry import Foliation, Scalar, collision_events, group_by_leaf
from .quantum import (
    SpinState,
    TwoSlotUnitary,
    angular_momentum_norms,
    apply_group,
    identity_unitary,
    overlap,
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
        """Whether the initial state carries nonzero total spin."""
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
    def cores(self) -> tuple:
        return tuple(g.core for g in self.groups)

    @property
    def breakpoints(self) -> tuple:
        return tuple(g.tau for g in self.groups)

    @cached_property
    def _float_breakpoints(self) -> list:
        return [float(t) for t in self.breakpoints]

    def state_at(self, tau) -> SpinState:
        # right-continuous: on a collision leaf the new segment already holds
        return self.segments[bisect_right(self._float_breakpoints, float(tau))]


def evolve(scenario: Scenario, foliation: Foliation, rule: InteractionRule) -> History:
    """Run the scenario leaf by leaf under one foliation and rule.

    Under a boost, LittleGroupWarning fires when the initial state carries
    spin, or when a contact unitary that does not conserve spin leaves some."""
    return _evolve_groups(scenario, foliation, group_by_leaf(scenario.events, foliation), rule)


def _evolve_groups(
    scenario: Scenario,
    foliation: Foliation,
    groups: Sequence,
    rule: InteractionRule,
    previous: Optional[History] = None,
) -> History:
    """`evolve` over the foliation's collision groups, already found; warnings
    point at the caller of `evolve` or `narratability_report`.

    `previous` is a history of the same scenario and rule under another
    foliation.  While the groups fired so far have the same pairs as its
    groups, in the same order, its segments are the states they produce, so
    they are reused; `apply_group` runs from the first group that differs."""
    boosted = not foliation.is_rest
    if boosted and scenario.has_initial_spin:
        warnings.warn(
            "initial state carries nonzero total spin; re-foliated history "
            "ignores the boost's action on spins",
            LittleGroupWarning,
            stacklevel=3,
        )
    shared = previous.groups if previous is not None else ()
    fired, inert = [], []
    segments = [scenario.initial_state]
    for group in groups:
        actions = []
        for (a, b), _event in group.collisions:
            u = rule.unitary_for(scenario.species_of(a), scenario.species_of(b))
            actions.append((u, (a, b)))
        if all(u.is_identity for u, _ in actions):
            inert.append(group)
            continue
        k = len(fired)
        fired.append(group)
        if k < len(shared) and shared[k].pairs == group.pairs:
            segments.append(previous.segments[k + 1])
        else:
            shared = ()
            segments.append(apply_group(segments[-1], actions))
        culprits = [pair for u, pair in actions if not u.conserves_spin]
        if boosted and culprits and _carries_spin(segments[-1]):
            species = ", ".join("({}, {})".format(*map(scenario.species_of, p)) for p in culprits)
            warnings.warn(
                f"contact unitary for species {species} does not conserve spin; re-foliated "
                f"history ignores the spin it leaves from tau = {format_scalar(group.tau)}",
                LittleGroupWarning,
                stacklevel=3,
            )
    return History(
        foliation=foliation,
        groups=tuple(fired),
        segments=tuple(segments),
        inert_groups=tuple(inert),
    )


@dataclass(frozen=True)
class HistoryComparison:
    equal: bool
    witness_core: Optional[Scalar]
    witness_tau: Optional[Scalar]
    witness_overlap: Optional[float]
    samples: tuple  # (core, tau, |overlap|)
    min_overlap: float


def compare_histories(
    h1: History, h2: History, tol: float = COMPARISON_TOLERANCE
) -> HistoryComparison:
    """Sample both histories before the first merged leaf, on each leaf, and
    at the midpoint after it (core + 1 after the last), in one walk.

    A merged leaf is a run of breakpoint cores of either history within
    `Foliation.same_leaf` of its first core; both histories step past every
    breakpoint on it.  Right-continuity makes the leaf and the interval after
    it hold the same two states, so one overlap serves both samples."""
    fol = h1.foliation
    if fol != h2.foliation:
        raise FoliationMismatch(
            f"cannot compare histories under {fol.velocity} and {h2.foliation.velocity}"
        )
    c1, c2 = h1.cores, h2.cores
    leaf = min(c1[:1] + c2[:1], default=None)
    before = (Fraction(0) if fol.exact else 0.0) if leaf is None else leaf - 1
    points = [(before, abs(overlap(h1.segments[0], h2.segments[0])))]
    i = j = 0
    while leaf is not None:
        while i < len(c1) and fol.same_leaf(leaf, c1[i]):
            i += 1
        while j < len(c2) and fol.same_leaf(leaf, c2[j]):
            j += 1
        mag = abs(overlap(h1.segments[i], h2.segments[j]))
        following = min(c1[i:i + 1] + c2[j:j + 1], default=None)
        after = leaf + 1 if following is None else (leaf + following) / 2
        points += [(leaf, mag), (after, mag)]
        leaf = following

    gamma = fol.gamma
    samples = tuple((c, gamma * c, mag) for c, mag in points)
    witness = next((s for s in samples if abs(s[2] - 1.0) > tol), None)
    min_overlap = min(s[2] for s in samples)
    if witness is None:
        return HistoryComparison(True, None, None, None, samples, min_overlap)
    return HistoryComparison(False, *witness, samples, min_overlap)


def histories_equal(h1: History, h2: History, tol: float = COMPARISON_TOLERANCE) -> bool:
    """True when the two records agree (up to phase) on every leaf."""
    return compare_histories(h1, h2, tol).equal


@dataclass(frozen=True, eq=False)
class FrameVerdict:
    foliation_index: int
    foliation: Foliation
    groups: tuple
    comparison: HistoryComparison

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
            for _core, tau, mag in v.comparison.samples:
                rows.append((v.foliation_index, float(tau), mag))
        return rows


def format_scalar(value) -> str:
    """A Fraction as p/q, a float to 12 significant digits."""
    if isinstance(value, Fraction):
        return str(value)
    return f"{float(value):.12g}"


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
    for v in report.verdicts:
        vel = ", ".join(format_scalar(c) for c in v.foliation.velocity)
        lines.append(
            f"foliation {v.foliation_index}: v = ({vel}), "
            f"gamma = {format_scalar(v.foliation.gamma)}"
        )
        lines.append(f"  collision leaves: {len(v.groups)}")
        for g in v.groups:
            pairs = ", ".join(f"({a},{b})" for a, b in g.pairs)
            lines.append(f"    tau = {format_scalar(g.tau)}: pairs {pairs}")
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
    """Evolve under both rules in every frame and compare leaf by leaf."""
    if len(foliations) < 2:
        raise ValueError("need at least two foliations to probe narratability")
    verdicts = []
    ha = hb = None
    for idx, fol in enumerate(foliations):
        # raw schedule: the crossings exist whichever rule fires them
        groups = tuple(group_by_leaf(scenario.events, fol))
        # each rule's history in the previous frame lends its shared prefix
        ha = _evolve_groups(scenario, fol, groups, rule_a, previous=ha)
        hb = _evolve_groups(scenario, fol, groups, rule_b, previous=hb)
        verdicts.append(
            FrameVerdict(
                foliation_index=idx,
                foliation=fol,
                groups=groups,
                comparison=compare_histories(ha, hb, tol),
            )
        )
    return NarratabilityReport(
        scenario_name=scenario.name,
        rule_names=(rule_a.name, rule_b.name),
        verdicts=tuple(verdicts),
    )
