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
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from math import isqrt, lcm, sqrt
from typing import Optional, Sequence, Union

from .errors import (
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


def _rational_sqrt(q: Fraction) -> Optional[Fraction]:
    if q < 0:
        return None
    rn, rd = isqrt(q.numerator), isqrt(q.denominator)
    if rn * rn == q.numerator and rd * rd == q.denominator:
        return Fraction(rn, rd)
    return None


def speed_squared(velocity: Sequence[Scalar]) -> Scalar:
    return sum(c * c for c in velocity)


def lorentz_gamma(velocity: Sequence[Scalar]) -> Scalar:
    """gamma = 1/sqrt(1 - v.v), exact when that square root is rational."""
    v2 = speed_squared(velocity)
    if not v2 < 1:  # also catches a NaN component
        raise SuperluminalVelocity(f"|v|^2 = {v2} >= 1")
    if isinstance(v2, Fraction):
        root = _rational_sqrt(1 - v2)
        if root is not None:
            return 1 / root
    return 1.0 / sqrt(1.0 - float(v2))


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

    def __post_init__(self):
        object.__setattr__(self, "velocity", _vector3(self.velocity, as_exact))
        if speed_squared(self.velocity) >= 1:
            raise SuperluminalVelocity(
                f"worldline {self.id}: |v|^2 = {speed_squared(self.velocity)} >= 1"
            )

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
        return self._base_point

    @cached_property
    def _base_point(self) -> tuple[Fraction, Fraction, Fraction]:
        # computed once per line; `collide` reads it for every pair
        p = self.position_at(0)
        return (p.x, p.y, p.z)


def _boost_rows(velocity, gamma, one):
    # one = Fraction(1) or 1.0 selects the arithmetic of the result
    v2 = speed_squared(velocity)
    if v2 == 0:
        return tuple(
            tuple(one if i == j else 0 * one for j in range(4)) for i in range(4)
        )
    # (gamma - 1)/v^2 written as gamma^2/(gamma + 1) to stay stable for floats
    coef = gamma * gamma / (gamma + one)
    rows = [[one * 0] * 4 for _ in range(4)]
    rows[0][0] = gamma
    for i in range(3):
        rows[0][i + 1] = rows[i + 1][0] = -gamma * velocity[i]
        for j in range(3):
            rows[i + 1][j + 1] = (one if i == j else 0 * one) + coef * velocity[i] * velocity[j]
    return tuple(tuple(r) for r in rows)


@dataclass(frozen=True)
class Boost:
    """A pure Lorentz boost; `matrix` is exact when gamma is rational."""

    velocity: tuple
    gamma: Scalar = field(init=False, compare=False)
    matrix: tuple = field(init=False, compare=False, repr=False)
    exact: bool = field(init=False, compare=False)

    def __post_init__(self):
        vel = _velocity(self.velocity)
        object.__setattr__(self, "velocity", vel)
        gamma = lorentz_gamma(vel)
        exact = isinstance(gamma, Fraction) and all(
            isinstance(c, Fraction) for c in vel
        )
        if not exact:
            warnings.warn(
                "boost matrix falls back to float arithmetic (gamma is not "
                "rational); simultaneity ties would use a 1e-9 tolerance",
                ExactnessWarning,
                stacklevel=2,
            )
            vel = tuple(float(c) for c in vel)
            object.__setattr__(self, "velocity", vel)
            gamma = float(gamma)
        one = Fraction(1) if exact else 1.0
        object.__setattr__(self, "gamma", gamma)
        object.__setattr__(self, "matrix", _boost_rows(vel, gamma, one))
        object.__setattr__(self, "exact", exact)

    def transform(self, event: Event) -> tuple:
        coords = event.coordinates()
        return tuple(sum(row[k] * coords[k] for k in range(4)) for row in self.matrix)


def boost_matrix(velocity) -> tuple:
    """4x4 boost matrix for the given velocity (rows of Fractions or floats)."""
    return Boost(tuple(velocity)).matrix


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

    def __post_init__(self):
        vel = _velocity(self.velocity)
        object.__setattr__(self, "velocity", vel)
        object.__setattr__(self, "gamma", lorentz_gamma(vel))
        object.__setattr__(
            self, "exact", all(isinstance(c, Fraction) for c in vel)
        )

    @property
    def is_rest(self) -> bool:
        return all(c == 0 for c in self.velocity)

    def leaf_core(self, event: Event) -> Scalar:
        # t - v . x; the tie-breaking quantity
        return event.t - sum(v * p for v, p in zip(self.velocity, event.position()))

    def leaf(self, event: Event) -> Scalar:
        return self.gamma * self.leaf_core(event)

    def same_leaf(self, first_core: Scalar, core: Scalar) -> bool:
        """Whether `core` lies on the leaf starting at the earlier `first_core`:
        equal for a rational velocity, within FLOAT_TIE_TOLERANCE for a float."""
        if self.exact:
            return core == first_core
        return core - first_core <= FLOAT_TIE_TOLERANCE


def rest_foliation() -> Foliation:
    return Foliation((Fraction(0), Fraction(0), Fraction(0)))


def leaf_parameter(foliation: Foliation, event: Event) -> Scalar:
    """tau of the leaf through `event` under `foliation`."""
    return foliation.leaf(event)


def collide(a: Worldline, b: Worldline) -> Optional[Event]:
    """Exact intersection event of two worldlines, or None if they miss.

    Raises CoincidentWorldlines when the two trajectories are identical.
    """
    if a.id == b.id:
        raise ValueError("collide() needs two distinct worldlines")
    ca, cb = a.base_point(), b.base_point()
    t: Optional[Fraction] = None
    constrained = False
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


@dataclass(frozen=True)
class CollisionGroup:
    """All collisions sharing one leaf: tau = gamma * core."""

    core: Scalar
    tau: Scalar
    collisions: tuple  # ((id_low, id_high), Event), sorted by pair

    @property
    def pairs(self) -> tuple:
        return tuple(pair for pair, _ in self.collisions)


def collision_events(worldlines: Sequence[Worldline]) -> tuple:
    """Every pairwise crossing as ((id_low, id_high), Event), sorted by pair;
    the same in every frame.  Identical lines raise CoincidentWorldlines."""
    lines = sorted(worldlines, key=lambda w: w.id)
    if len({w.id for w in lines}) != len(lines):
        raise ValueError("worldline ids must be unique")
    events = []
    for ai in range(len(lines)):
        for bi in range(ai + 1, len(lines)):
            event = collide(lines[ai], lines[bi])
            if event is not None:
                events.append(((lines[ai].id, lines[bi].id), event))
    return tuple(events)


def _leaf_group(foliation: Foliation, core: Scalar, members: list) -> CollisionGroup:
    members.sort(key=lambda m: m[0])
    seen: set[int] = set()
    for pair, _ in members:
        for slot in pair:
            if slot in seen:
                raise OverlappingSimultaneousPairs(
                    f"particle {slot} collides twice on leaf core={core}"
                )
            seen.add(slot)
    return CollisionGroup(core=core, tau=foliation.gamma * core, collisions=tuple(members))


def _integer_leaf_keys(events: Sequence, velocity) -> tuple[list, int]:
    """Exact leaf keys as integers, and the scale that turns a key into a core.

    With every event coordinate and velocity component over one common
    denominator d (t = T/d, x = X/d, ..., v = (a, b, c)/d), the core is
    t - v . x = (T*d - (a*X + b*Y + c*Z)) / d**2."""
    d = lcm(*(v.denominator for v in velocity),
            *(c.denominator for _, e in events for c in e.coordinates()))
    a, b, c = (v.numerator * (d // v.denominator) for v in velocity)
    keys = []
    for _, e in events:
        t, x, y, z = (q.numerator * (d // q.denominator) for q in e.coordinates())
        keys.append(t * d - (a * x + b * y + c * z))
    return keys, d * d


def group_by_leaf(events: Sequence, foliation: Foliation) -> list[CollisionGroup]:
    """Collision events grouped by leaf, ordered by increasing tau.

    `Foliation.same_leaf` decides ties: exact for rational velocities, within
    1e-9 for float ones (with an ExactnessWarning).  An exact foliation sorts
    and ties integer keys and builds one Fraction core per leaf.  A particle
    meeting two partners on one leaf raises OverlappingSimultaneousPairs.
    """
    if foliation.exact:
        keys, scale = _integer_leaf_keys(events, foliation.velocity)
    else:
        keys = [foliation.leaf_core(e) for _, e in events]
        if keys:
            warnings.warn(
                "float foliation velocity: leaf ties grouped within 1e-9",
                ExactnessWarning,
                stacklevel=2,
            )
    grouped: list = []
    # keys order like cores, so `same_leaf` (equality when exact) ties them too
    for key, member in sorted(zip(keys, events), key=lambda h: h[0]):
        if grouped and foliation.same_leaf(grouped[-1][0], key):
            grouped[-1][1].append(member)
        else:
            grouped.append((key, [member]))
    return [
        _leaf_group(foliation, Fraction(key, scale) if foliation.exact else key, members)
        for key, members in grouped
    ]


def collision_schedule(
    worldlines: Sequence[Worldline], foliation: Foliation
) -> list[CollisionGroup]:
    """Pairwise collisions grouped by leaf, ordered by increasing tau."""
    return group_by_leaf(collision_events(worldlines), foliation)
