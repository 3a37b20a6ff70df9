"""Minkowski kinematics over exact rationals.

Conventions: units with c = 1, metric signature (+, -, -, -), and boosts in
the "passive" form x' = L x, so the leaf parameter of the foliation attached
to velocity v is tau = gamma * (t - v . x).  Worldlines are single-segment
inertial lines extended to all times.

Event and worldline coordinates are exact `fractions.Fraction` values, so
collision points and simultaneity ties are decided without tolerances.  Boost
velocities may be floats; in that case tau ties fall back to a 1e-9 tolerance
and an `ExactnessWarning` is emitted.
"""

from __future__ import annotations

import warnings
from bisect import bisect_left
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from math import gcd, isqrt, lcm, sqrt
from operator import eq, itemgetter
from typing import Iterable, Optional, Sequence, Union

from .errors import (
    BeyondFloatRange,
    CoincidentWorldlines,
    ExactnessWarning,
    OverlappingSimultaneousPairs,
    SuperluminalVelocity,
)

Scalar = Union[Fraction, float]

METRIC_DIAGONAL = (1, -1, -1, -1)

FLOAT_TIE_TOLERANCE = 1e-9


def as_exact(value) -> Fraction:
    """Coerce to an exact rational.

    Accepts ints, Fractions, strings like "3/5", and floats (taken at their
    exact binary value, so prefer strings for values like 0.6).
    """
    if isinstance(value, Fraction):
        return value
    if isinstance(value, (int, str, float)):
        return Fraction(value)
    raise TypeError(f"cannot interpret {value!r} as an exact rational")


def as_float(value, what: str) -> float:
    """float(value), or BeyondFloatRange naming `what` and the value when the
    value is beyond the float range."""
    try:
        return float(value)
    except OverflowError:
        raise BeyondFloatRange(f"{what} = {value} is beyond the float range") from None


def _vector3(components, coerce) -> tuple:
    comps = tuple(coerce(c) for c in components)
    if len(comps) != 3:
        raise ValueError("expected a 3-vector")
    return comps


def _velocity(components) -> tuple:
    # all Fractions, or all floats as soon as one component is a float
    vel = _vector3(components, lambda c: c if isinstance(c, float) else as_exact(c))
    if any(isinstance(c, float) for c in vel):
        vel = tuple(float(c) for c in vel)
    return vel


def lorentz_gamma(velocity: Sequence[Scalar]) -> Scalar:
    """gamma = 1/sqrt(1 - v.v), exact when that square root is rational;
    a float component makes gamma a float."""
    v2 = sum(c * c for c in velocity)
    if not v2 < 1:  # also catches a NaN component
        fault = ">= 1" if v2 >= 1 else "is not a number"
        raise SuperluminalVelocity(f"|v|^2 = {v2} {fault}")
    if isinstance(v2, Fraction):  # v.v = (p*q)/q^2 for v.v = p/q
        return _rational_gamma(v2.numerator * v2.denominator, v2.denominator)
    return _float_gamma(float(v2), float(1 - v2))


def _rational_gamma(n2: int, d: int) -> Scalar:
    """gamma for v.v = n2/d^2 < 1: the Fraction d/r when r = sqrt(d^2 - n2) is
    an integer, else a float from n2/d^2, which int division rounds correctly,
    as float() of the Fraction v.v does."""
    d2 = d * d
    r = isqrt(d2 - n2)
    if r * r == d2 - n2:
        return Fraction(d, r)
    return _float_gamma(n2 / d2, (d2 - n2) / d2)


def _float_gamma(v2: float, exact_gap: float) -> float:
    """1/sqrt(1 - v2); within rounding of light speed v2 is 1.0, and the
    float of the exact gap 1 - v.v is taken instead."""
    gap = 1.0 - v2
    return 1.0 / sqrt(gap if gap > 0 else exact_gap)


@dataclass(frozen=True)
class Event:
    """A spacetime point with exact rational coordinates."""

    t: Fraction
    x: Fraction
    y: Fraction
    z: Fraction

    @classmethod
    def of(cls, t, x, y, z) -> "Event":
        return cls(as_exact(t), as_exact(x), as_exact(y), as_exact(z))

    def position(self) -> tuple[Fraction, Fraction, Fraction]:
        return (self.x, self.y, self.z)

    def coordinates(self) -> tuple[Fraction, Fraction, Fraction, Fraction]:
        return (self.t, self.x, self.y, self.z)


@dataclass(frozen=True)
class Worldline:
    """An inertial particle line: position(t) = start + velocity*(t - start.t).

    `id` doubles as the spin-slot index of the particle, `species` selects
    which contact unitary fires when two lines meet.
    """

    id: int
    species: str
    start: Event
    velocity: tuple[Fraction, Fraction, Fraction]
    # the base point and the velocity as integers over their denominators,
    # ((P, dp), (V, dv)): `collide` reads it for every pair
    _integer_line: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "velocity", _vector3(self.velocity, as_exact))
        (velocity, dv), _ = _integer_velocity(self.velocity, f"worldline {self.id}: ")
        # with the start at (T, X)/ds, the base point is (X*dv - V*T)/(ds*dv), not reduced
        (t, *xyz), ds = _over_lcm(self.start.coordinates())
        base = tuple(x * dv - v * t for x, v in zip(xyz, velocity))
        object.__setattr__(self, "_integer_line", ((base, ds * dv), (velocity, dv)))

    def position_at(self, t) -> Event:
        t = as_exact(t)
        dt = t - self.start.t
        return Event(
            t,
            self.start.x + self.velocity[0] * dt,
            self.start.y + self.velocity[1] * dt,
            self.start.z + self.velocity[2] * dt,
        )

    def base_point(self) -> tuple[Fraction, Fraction, Fraction]:
        """Spatial position extrapolated to t = 0."""
        p = self.position_at(0)
        return (p.x, p.y, p.z)


def _over_lcm(values) -> tuple[tuple, int]:
    """Rationals as integers over their common denominator d: (N, d), v = N/d."""
    ratios = [v.as_integer_ratio() for v in values]
    d = lcm(*[q for _, q in ratios])
    return tuple([p * (d // q) for p, q in ratios]), d


def _integer_velocity(velocity, where: str = "") -> tuple[tuple, int]:
    """A rational velocity over one denominator, (N, d) with v = N/d, and N.N:
    the one speed rule, in integers, raises unless N.N < d^2."""
    numerators, d = _over_lcm(velocity)
    n2 = sum(k * k for k in numerators)
    if n2 >= d * d:
        raise SuperluminalVelocity(f"{where}|v|^2 = {Fraction(n2, d * d)} >= 1")
    return (numerators, d), n2


def boost_matrix(velocity) -> tuple:
    """4x4 boost matrix for the given velocity: rows of Fractions when gamma is rational.

    Float input, or a rational velocity with irrational gamma, gives rows of
    floats and an `ExactnessWarning`.
    """
    vel = _velocity(velocity)
    gamma = lorentz_gamma(vel)
    one = Fraction(1)  # selects the arithmetic of the result
    if not isinstance(gamma, Fraction):
        warnings.warn(
            "boost matrix falls back to float arithmetic (gamma is not "
            "rational); simultaneity ties would use a 1e-9 tolerance",
            ExactnessWarning,
            stacklevel=2,
        )
        vel, gamma, one = tuple(float(c) for c in vel), float(gamma), 1.0
    if sum(c * c for c in vel) == 0:
        return tuple(
            tuple(one if i == j else 0 * one for j in range(4)) for i in range(4)
        )
    # (gamma - 1)/v^2 written as gamma^2/(gamma + 1) to stay stable for floats
    coef = gamma * gamma / (gamma + one)
    rows = [[one * 0] * 4 for _ in range(4)]
    rows[0][0] = gamma
    for i in range(3):
        rows[0][i + 1] = rows[i + 1][0] = -gamma * vel[i]
        for j in range(3):
            rows[i + 1][j + 1] = (one if i == j else 0 * one) + coef * vel[i] * vel[j]
    return tuple(tuple(r) for r in rows)


@dataclass(frozen=True)
class Foliation:
    """Family of flat simultaneity leaves tau = gamma*(t - v . x).

    Leaf membership is decided on the reduced parameter t - v . x, which is
    exact whenever the velocity is rational -- even when gamma itself is
    irrational and the displayed tau is a float.
    """

    velocity: tuple
    gamma: Scalar = field(init=False, compare=False)
    exact: bool = field(init=False, compare=False)
    # a rational velocity as integers over one denominator, (N, dv); else None
    _integer_velocity: Optional[tuple] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        vel = _velocity(self.velocity)
        exact = all(isinstance(c, Fraction) for c in vel)
        if exact:
            integer_velocity, n2 = _integer_velocity(vel)
            gamma = _rational_gamma(n2, integer_velocity[1])
        else:
            integer_velocity, gamma = None, lorentz_gamma(vel)
        object.__setattr__(self, "velocity", vel)
        object.__setattr__(self, "gamma", gamma)
        object.__setattr__(self, "exact", exact)
        object.__setattr__(self, "_integer_velocity", integer_velocity)

    @cached_property
    def is_rest(self) -> bool:
        return all(c == 0 for c in self.velocity)

    def leaf_core(self, event: Event) -> Scalar:
        # t - v . x; the tie-breaking quantity
        return event.t - sum(v * p for v, p in zip(self.velocity, event.position()))

    def leaf(self, event: Event) -> Scalar:
        return self.gamma * self.leaf_core(event)

    def core_and_tau(self, key, scale: int) -> tuple:
        """The core key/scale and its tau: a Fraction core for an integer key of
        a rational velocity, a float core for a float key (scale 1)."""
        return (Fraction(key, scale) if self.exact else key / scale), self.leaf_tau(key, scale)

    def leaf_tau(self, key, scale: int) -> Scalar:
        """gamma * core for the core key/scale, without building the core: one
        Fraction for a rational gamma, else gamma times the correctly rounded
        key/scale, the float that gamma * Fraction(key, scale) multiplies."""
        gamma = self.gamma
        if isinstance(gamma, Fraction):  # only a rational velocity has one
            return Fraction(gamma.numerator * key, gamma.denominator * scale)
        return gamma * (key / scale)

    def same_leaf(self, first_core: Scalar, core: Scalar) -> bool:
        """Whether `core` lies on the leaf starting at the earlier `first_core`:
        equal for a rational velocity, within FLOAT_TIE_TOLERANCE for a float."""
        if self.exact:
            return core == first_core
        return core - first_core <= FLOAT_TIE_TOLERANCE


def rest_foliation() -> Foliation:
    return Foliation((Fraction(0), Fraction(0), Fraction(0)))


def collide(a: Worldline, b: Worldline, *,
            as_integers: bool = False) -> Union[Event, tuple, None]:
    """Exact intersection event of two worldlines, or None if they miss.

    With `as_integers`, the event as integers over one denominator instead:
    ((T, X, Y, Z), d) with t = T/d and so on, d > 0 and the five reduced by
    their gcd.  `collision_events` reads every crossing so, and builds no
    Event.

    Raises CoincidentWorldlines when the two trajectories are identical.

    With each line's base point over one denominator (p = P/dp) and its
    velocity over another (v = V/dv), the axis i meets at t = n_i/m_i times
    the same factor dva*dvb/(dpa*dpb), where n_i = Pb*dpa - Pa*dpb and
    m_i = Va*dvb - Vb*dva: the axes agree when their n/m cross-multiply
    equal, and every coordinate of the hit is an integer over m*dpa*dpb.
    """
    if a.id == b.id:
        raise ValueError("collide() needs two distinct worldlines")
    (pa, dpa), (va, dva) = a._integer_line
    (pb, dpb), (vb, dvb) = b._integer_line
    n = m = 0
    for i in range(3):
        dv = va[i] * dvb - vb[i] * dva
        dc = pb[i] * dpa - pa[i] * dpb
        if dv == 0:
            if dc != 0:
                return None
            continue
        if m and dc * m != n * dv:
            return None
        n, m = dc, dv
    if not m:
        raise CoincidentWorldlines(f"worldlines {a.id} and {b.id} coincide")
    # t = n*dva*dvb / d and x = Pa/dpa + (Va/dva)*t, both over d = m*dpa*dpb
    d = m * dpa * dpb
    n *= dvb
    row = (n * dva, *(p * m * dpb + v * n for p, v in zip(pa, va)))
    if not as_integers:
        return Event(*(Fraction(c, d) for c in row))
    common = gcd(*row, d)
    if d < 0:
        common = -common
    return tuple([c // common for c in row]), d // common


@dataclass(frozen=True)
class CollisionGroup:
    """All collisions sharing one leaf, keyed as `_leaf_keys` keys it: the
    leaf's core is key/scale and its tau gamma * core, each built when read.
    `pairs` is kept beside the fields, out of equality, hash and repr."""

    key: Union[int, float]
    scale: int
    foliation: Foliation
    collisions: tuple  # ((id_low, id_high), Event), sorted by pair

    def __post_init__(self):
        object.__setattr__(self, "pairs", tuple([pair for pair, _ in self.collisions]))

    @property
    def core(self) -> Scalar:
        return self.foliation.core_and_tau(self.key, self.scale)[0]

    @property
    def tau(self) -> Scalar:
        return self.foliation.leaf_tau(self.key, self.scale)


class Crossings:
    """A scenario's crossings: each crossing's pair, sorted and distinct, and
    its (T, X, Y, Z) as integers over the crossings' one common denominator
    d (`integer_rows`: t = T/d, x = X/d, and so on).  Its ((id_low, id_high),
    Event) `entries` are built when first read.

    `collision_events` builds one from worldlines without any Event, and
    `Crossings.of` from such entries."""

    def __init__(self, pairs: tuple, rows: list, d: int):
        if any(p >= q for p, q in zip(pairs, pairs[1:])):
            raise ValueError(f"crossing pairs must be sorted and distinct: {pairs}")
        self.pairs = pairs
        self.integer_rows = (rows, d)
        # per crossing, the `leaf_runs` pairs of a leaf that holds it alone,
        # shared by every frame
        self.single_runs = [(pair,) for pair in pairs]
        # whether some pair holds one slot twice: a leaf of that crossing
        # alone then holds a slot twice too
        self.repeats_a_slot = any(a == b for a, b in pairs)

    @classmethod
    def of(cls, entries: Iterable) -> "Crossings":
        """The crossings of ((id_low, id_high), Event) entries, in any order;
        a pair given twice raises ValueError."""
        entries = sorted(entries, key=itemgetter(0))
        flat, d = _over_lcm([c for _, e in entries for c in e.coordinates()])
        return cls(tuple([pair for pair, _ in entries]),
                   [flat[k:k + 4] for k in range(0, len(flat), 4)], d)

    @cached_property
    def entries(self) -> tuple:
        """((id_low, id_high), Event) per crossing, sorted by pair."""
        rows, d = self.integer_rows
        return tuple([(pair, Event(*(Fraction(c, d) for c in row)))
                      for pair, row in zip(self.pairs, rows)])

    def members(self, pairs: Sequence) -> tuple:
        """The `entries` of `pairs`, in their order."""
        entries, held = self.entries, self.pairs
        return tuple([entries[bisect_left(held, pair)] for pair in pairs])


def collision_events(worldlines: Sequence[Worldline]) -> Crossings:
    """Every pairwise crossing, sorted by pair, as integer rows over one
    common denominator; the same in every frame.  Identical lines raise
    CoincidentWorldlines."""
    lines = sorted(worldlines, key=lambda w: w.id)
    if len({w.id for w in lines}) != len(lines):
        raise ValueError("worldline ids must be unique")
    pairs, hits = [], []
    for ai in range(len(lines)):
        for bi in range(ai + 1, len(lines)):
            hit = collide(lines[ai], lines[bi], as_integers=True)
            if hit is not None:
                pairs.append((lines[ai].id, lines[bi].id))
                hits.append(hit)
    d = lcm(*[q for _, q in hits])
    rows = [row if q == d else tuple([c * (d // q) for c in row]) for row, q in hits]
    return Crossings(tuple(pairs), rows, d)


def _check_slots(foliation: Foliation, key, scale: int, pairs) -> None:
    """Raise OverlappingSimultaneousPairs for the first slot, in pair order,
    that a leaf's pairs hold twice."""
    seen: set[int] = set()
    for pair in pairs:
        for slot in pair:
            if slot in seen:
                core = foliation.core_and_tau(key, scale)[0]
                raise OverlappingSimultaneousPairs(
                    f"particle {slot} collides twice on leaf core={core}"
                )
            seen.add(slot)


def _leaf_keys(events: Crossings, foliation: Foliation) -> tuple[list, int]:
    """Each crossing's leaf key, and the scale that turns a key into a core.

    With the event coordinates over their common denominator de (t = T/de,
    ...) and a rational velocity over dv (v = (a, b, c)/dv), the core is
    t - v . x = (T*dv - (a*X + b*Y + c*Z)) / (dv*de): an integer key over
    dv*de.  A float velocity's key is the float core itself (scale 1),
    the same float `Foliation.leaf_core` gives; a coordinate beyond the float
    range raises BeyondFloatRange there."""
    rows, de = events.integer_rows
    if not foliation.exact:
        try:
            return [t / de - sum(v * (p / de) for v, p in zip(foliation.velocity, xyz))
                    for t, *xyz in rows], 1
        except OverflowError:  # t / de or p / de: name the first such coordinate
            for pair, event in events.entries:
                for name, c in zip("txyz", event.coordinates()):
                    as_float(c, f"float foliation {foliation.velocity}: {name} of crossing {pair}")
            raise
    (a, b, c), dv = foliation._integer_velocity
    return [t * dv - (a * x + b * y + c * z) for t, x, y, z in rows], dv * de


def _as_crossings(events: Iterable) -> Crossings:
    """`events` as Crossings, from ((id_low, id_high), Event) entries."""
    return events if isinstance(events, Crossings) else Crossings.of(events)


def leaf_runs(events: Sequence, foliation: Foliation, *,
              stacklevel: int = 2) -> tuple[list, int]:
    """Collision events grouped by leaf, ordered by increasing tau, as one run
    (key, pairs) per leaf, and the frame's one scale: the leaf's core is
    key/scale and `pairs` its crossings' pairs, sorted.  No core, tau or
    Event is built here.

    `Foliation.same_leaf` decides ties: exact for rational velocities, within
    1e-9 for float ones, with an ExactnessWarning at `stacklevel` as
    `warnings.warn` counts it (2: the caller).  A particle meeting two
    partners on one leaf raises OverlappingSimultaneousPairs.

    Each crossing's `Crossings.single_runs` entry is sorted by key, stably,
    so a leaf of one crossing keeps that entry's pairs tuple, shared by every
    frame, and every exact leaf's pairs stay in order; only a leaf of two or
    more crossings builds its own."""
    events = _as_crossings(events)
    keys, scale = _leaf_keys(events, foliation)
    exact = foliation.exact
    if not exact and keys:
        warnings.warn(
            "float foliation velocity: leaf ties grouped within 1e-9",
            ExactnessWarning,
            stacklevel=stacklevel,
        )
    # keys order like cores, so `same_leaf` (equality when exact) ties them too
    same_leaf = eq if exact else foliation.same_leaf
    runs: list = []
    merged: list = []  # the indices of the runs of two or more crossings, in order
    for key, pairs in sorted(zip(keys, events.single_runs), key=itemgetter(0)):
        if runs and same_leaf(runs[-1][0], key):
            first, held = runs[-1]
            runs[-1] = (first, held + pairs)
            if not merged or merged[-1] != len(runs) - 1:
                merged.append(len(runs) - 1)
        else:
            runs.append((key, pairs))
    # a run of one crossing holds a slot twice only when its pair does
    for k in range(len(runs)) if events.repeats_a_slot else merged:
        key, pairs = runs[k]
        if len(pairs) > 1 and not exact:  # a float leaf's pairs tie within 1e-9, not by key
            pairs = tuple(sorted(pairs))
            runs[k] = (key, pairs)
        _check_slots(foliation, key, scale, pairs)
    return runs, scale


def collision_groups(runs: Sequence, scale: int, foliation: Foliation,
                     events: Crossings) -> list[CollisionGroup]:
    """One `CollisionGroup` per `leaf_runs` run of `events` in the frame of
    `foliation`, with its crossings' entries looked up by pair."""
    return [CollisionGroup(key, scale, foliation, events.members(pairs))
            for key, pairs in runs]


def group_by_leaf(events: Sequence, foliation: Foliation) -> list[CollisionGroup]:
    """Collision events grouped by leaf, ordered by increasing tau: the
    `leaf_runs` of the frame, each as a `CollisionGroup` that keeps its
    leaf's key and the frame's one scale."""
    events = _as_crossings(events)
    return collision_groups(*leaf_runs(events, foliation, stacklevel=3), foliation, events)


def collision_schedule(
    worldlines: Sequence[Worldline], foliation: Foliation
) -> list[CollisionGroup]:
    """Pairwise collisions grouped by leaf, ordered by increasing tau."""
    return group_by_leaf(collision_events(worldlines), foliation)
