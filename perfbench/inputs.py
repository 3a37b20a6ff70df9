"""Seeded input generators for the benchmark.

Every input is drawn from `random.Random(f"{stream}:{seed}:{index}")`, so the
same seed and index always give the same input and inputs can be made one at
a time, outside the timed region.  Inputs are plain data owned by the
benchmark (fractions, floats, numpy arrays, JSON documents); the workloads
turn them into package objects and the oracles read them directly.

Scenario families (all crossings exact, no operation fails on them):

- tied: copies of the demo's double-singlet crossing on distinct z planes;
  the two crossings of a copy share a rest-frame leaf.
- collinear: particles on one line with distinct speeds; every pair crosses,
  and crossings that share a particle are timelike-separated.
- scattered: particles crossing in pairs on distinct z planes, so the pair
  scan mostly misses.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, replace
from fractions import Fraction as F

import numpy as np

import oracle

RATIONAL_GAMMA_SPEEDS = (
    F(3, 5), F(4, 5), F(5, 13), F(12, 13), F(8, 17), F(15, 17),
    F(7, 25), F(24, 25), F(20, 29), F(21, 29),
)
# 1 - s^2 is not a rational square for any of these
IRRATIONAL_GAMMA_SPEEDS = (F(1, 2), F(1, 3), F(2, 3), F(1, 4), F(3, 7), F(2, 7))
AXES = ((1, 0, 0), (0, 1, 0), (0, 0, 1))
UNIT_DIRECTIONS = AXES + (
    (F(3, 5), F(4, 5), 0), (0, F(3, 5), F(4, 5)), (F(4, 5), 0, F(3, 5)),
    (F(2, 3), F(2, 3), F(1, 3)),
)
SPECIES = ("a", "b", "c")
SINGLE_STATES = ((1.0, 0.0), (0.0, 1.0), (0.6, 0.8), (0.6, 0.8j))
NEAR_TIE = F(1, 10**6)


def stream(name: str, seed: int, index: int) -> random.Random:
    return random.Random(f"{name}:{seed}:{index}")


def _rat(rng, lo, hi, dens=(1, 2, 3, 4, 5, 6, 8)) -> F:
    den = rng.choice(dens)
    return F(rng.randint(lo * den, hi * den), den)


@dataclass
class ScenarioSpec:
    """A scenario as the benchmark knows it, independent of the package."""

    name: str
    family: str
    particles: list  # (species, start (t, x, y, z), velocity (vx, vy, vz))
    singlet_pairs: list  # (a, b)
    singles: list  # (slot, (amp_up, amp_down))
    foliations: list  # velocity 3-tuples, Fraction or float
    foliation_kinds: list  # "rest" | "exact" | "irrational" | "float"
    rules: dict  # name -> {"default": "swap" | None, "pairs": {(sa, sb): "swap" | "identity"}}

    @property
    def n_pairs(self) -> int:
        n = len(self.particles)
        return n * (n - 1) // 2


# -- worldline families -------------------------------------------------------

def _species(rng):
    return rng.choice(SPECIES)


def _tied(rng, copies):
    parts, pairs = [], []
    for c, z in enumerate(rng.sample(range(-6, 7), copies)):
        z = F(z)
        t_cross = _rat(rng, 2, 6)
        x0, y0 = _rat(rng, -3, 3), _rat(rng, -3, 3)
        d = _rat(rng, 1, 3)
        w = rng.choice((F(1, 2), F(1, 3), F(2, 5), F(3, 4), F(3, 5)))
        y_start = y0 + w * t_cross
        base = len(parts)
        zero = (F(0), F(0), F(0))
        parts += [
            (_species(rng), (F(0), x0 - d, y0, z), zero),
            (_species(rng), (F(0), x0 + d, y0, z), zero),
            (_species(rng), (F(0), x0 - d, y_start, z), (F(0), -w, F(0))),
            (_species(rng), (F(0), x0 + d, y_start, z), (F(0), -w, F(0))),
        ]
        pairs += [(base, base + 1), (base + 2, base + 3)]
    return parts, pairs


def _collinear(rng, n):
    while True:
        u = rng.choice(UNIT_DIRECTIONS)
        p0 = [_rat(rng, -2, 2) for _ in range(3)]
        speeds = set()
        while len(speeds) < n:
            speeds.add(_rat(rng, -4, 4, dens=(5, 6, 7, 9)) / 5)
        speeds = list(speeds)
        rng.shuffle(speeds)
        offsets = set()
        while len(offsets) < n:
            offsets.add(_rat(rng, -4, 4))
        offsets = list(offsets)
        points = set()
        for i in range(n):
            for j in range(i + 1, n):
                t = (offsets[j] - offsets[i]) / (speeds[i] - speeds[j])
                points.add((t, offsets[i] + speeds[i] * t))
        if len(points) == n * (n - 1) // 2:  # no three lines concurrent
            break
    parts = [
        (_species(rng),
         (F(0),) + tuple(p0[k] + offsets[i] * u[k] for k in range(3)),
         tuple(speeds[i] * u[k] for k in range(3)))
        for i in range(n)
    ]
    return parts


def _in_plane_velocity(rng):
    while True:
        v = (_rat(rng, -3, 3, dens=(4, 5, 6)) / 4, _rat(rng, -3, 3, dens=(4, 5, 6)) / 4)
        if v[0] ** 2 + v[1] ** 2 < 1:
            return v


def _scattered(rng, n):
    parts = []
    for z in rng.sample(range(-20, 21), n // 2):
        event = (_rat(rng, 1, 6), _rat(rng, -4, 4), _rat(rng, -4, 4), F(z))
        va = _in_plane_velocity(rng)
        vb = _in_plane_velocity(rng)
        while vb == va:
            vb = _in_plane_velocity(rng)
        for vx, vy in (va, vb):
            t = event[0]
            start = (F(0), event[1] - vx * t, event[2] - vy * t, event[3])
            parts.append((_species(rng), start, (vx, vy, F(0))))
    return parts


def _lone(rng, count):
    """Particles at rest on their own z planes: they never cross anything."""
    return [
        (_species(rng), (F(0), _rat(rng, -3, 3), F(0), F(100 + k)), (F(0), F(0), F(0)))
        for k in range(count)
    ]


def _random_pairing(rng, n):
    slots = list(range(n))
    rng.shuffle(slots)
    pairs = [tuple(sorted(slots[i:i + 2])) for i in range(0, n - 1, 2)]
    singles = [(slots[-1], rng.choice(SINGLE_STATES))] if n % 2 else []
    return pairs, singles


def _worldlines(rng, family, n):
    """Particles and the initial pairing for `n` slots of `family`."""
    if family == "tied":
        copies = max(1, min(3, n // 4))
        parts, pairs = _tied(rng, copies)
        extra = n - len(parts)
        parts += _lone(rng, extra)
        lone = list(range(4 * copies, n))
        pairs += [tuple(lone[i:i + 2]) for i in range(0, len(lone) - 1, 2)]
        singles = [(lone[-1], rng.choice(SINGLE_STATES))] if len(lone) % 2 else []
        return parts, pairs, singles
    if family == "collinear":
        parts = _collinear(rng, n)
    else:
        parts = _scattered(rng, n - n % 2)
        parts += _lone(rng, n % 2)
        if rng.random() < 0.5:
            # singlets on the crossing partners: a swap only flips their sign
            pairs = [(k, k + 1) for k in range(0, n - 1, 2)]
            singles = [(n - 1, rng.choice(SINGLE_STATES))] if n % 2 else []
            return parts, pairs, singles
    pairs, singles = _random_pairing(rng, n)
    return parts, pairs, singles


# -- foliations ---------------------------------------------------------------

def _float_velocity_ok(velocity, events) -> bool:
    """Distinct exact cores must be far apart, so 1e-9 grouping is unambiguous."""
    v = [F(c) for c in velocity]
    cores = sorted({e[0] - sum(v[k] * e[k + 1] for k in range(3)) for e in events})
    return all(b - a > NEAR_TIE for a, b in zip(cores, cores[1:]))


def _foliations(rng, count, events):
    fols = [(F(0), F(0), F(0))]
    kinds = ["rest"]
    if count < 5:
        plan = rng.sample(["exact", "exact", "irrational", "float"], count - 1)
    else:
        n_float = 1 if count < 12 else 2
        n_irr = (count - 1 - n_float) // 3
        plan = (["exact"] * (count - 1 - n_float - n_irr)
                + ["irrational"] * n_irr + ["float"] * n_float)
    for kind in plan:
        while True:
            if kind == "exact":
                s = rng.choice(RATIONAL_GAMMA_SPEEDS) * rng.choice((1, -1))
                u = rng.choice(UNIT_DIRECTIONS)
                vel = tuple(F(s * c) for c in u)
            elif kind == "irrational":
                s = rng.choice(IRRATIONAL_GAMMA_SPEEDS) * rng.choice((1, -1))
                vel = tuple(F(s * c) for c in rng.choice(AXES))
            else:
                axis = rng.randrange(3)
                vel = tuple(rng.uniform(-0.7, 0.7) if k == axis else 0.0 for k in range(3))
                if not _float_velocity_ok(vel, events):
                    continue
            if vel not in fols:
                break
        fols.append(vel)
        kinds.append(kind)
    return fols, kinds


# -- rules ----------------------------------------------------------------------

def _rules(rng):
    species_pairs = [(a, b) for i, a in enumerate(SPECIES) for b in SPECIES[i:]]
    mix = {}
    for pair in species_pairs:
        mix[pair] = rng.choice(("swap", "identity", None))
    mix[rng.choice(species_pairs)] = "identity"
    mix[rng.choice(species_pairs)] = "swap"
    return {
        "free": {"default": None, "pairs": {}},
        "flip": {"default": "swap", "pairs": {}},
        "mix": {"default": None, "pairs": {k: v for k, v in mix.items() if v}},
    }


FAMILIES = ("tied", "collinear", "scattered")
# (free, flip) is the paper's question; "mix" adds inert identity entries.
RULE_PAIRS = (("free", "flip"), ("mix", "flip"), ("free", "mix"))


def scenario(rng, family, n_slots, n_foliations, name) -> ScenarioSpec:
    parts, pairs, singles = _worldlines(rng, family, n_slots)
    events = list(oracle.crossing_events(parts).values())
    fols, kinds = _foliations(rng, n_foliations, events)
    return ScenarioSpec(name, family, parts, pairs, singles, fols, kinds, _rules(rng))


# -- workload inputs ----------------------------------------------------------------
# Family, size, foliation count and rules follow a fixed cycle over the op
# index; the seed draws everything else.  A run's pool is whole cycles
# (POOLS is a multiple of CYCLES), so every seed runs the same mix of op costs.

CYCLES = {"frames": 9, "diagnostics": 36, "cli": 5}
POOLS = {"frames": 54, "diagnostics": 360, "cli": 150}
FRAMES_SLOTS = {"tied": (4, 8, 12), "collinear": (6, 9, 12), "scattered": (8, 10, 12)}
FRAMES_FOLIATIONS = (8, 12, 16)


def frames_input(seed: int, index: int):
    rng = stream("frames", seed, index)
    f, k = index % 3, (index // 3) % 3
    family = FAMILIES[f]
    n_foliations = FRAMES_FOLIATIONS[(k + 2 * f) % 3]
    spec = scenario(rng, family, FRAMES_SLOTS[family][k], n_foliations, f"frames-{seed}-{index}")
    return spec, RULE_PAIRS[(k + f) % 3]


def round_shift(round_: int) -> tuple:
    """The spacetime translation (t, x, y, z) of a pool's scenarios in round `round_`.

    Integer steps move every event and leave all denominators alone, so each
    round gives the program new values at the same cost.
    """
    return (F(round_), F(2 * round_), F(-round_), F(3 * round_))


def translate(spec: ScenarioSpec, delta) -> ScenarioSpec:
    particles = [(sp, tuple(s + d for s, d in zip(start, delta)), vel)
                 for sp, start, vel in spec.particles]
    return replace(spec, particles=particles)


def _rat_doc(value):
    if isinstance(value, float):
        return value
    return str(value)


def scenario_doc(spec: ScenarioSpec) -> dict:
    """The spec as a scenario file (rationals as strings, floats as numbers)."""
    singles = {}
    for slot, (up, down) in spec.singles:
        singles[str(slot)] = [[c.real, c.imag] if isinstance(c, complex) else c
                              for c in (up, down)]
    state = {"singlet_pairs": [list(p) for p in spec.singlet_pairs]}
    if singles:
        state["singles"] = singles
    rules = {}
    for name, rule in spec.rules.items():
        entries = [{"pair": list(pair), "unitary": u} for pair, u in rule["pairs"].items()]
        if rule["default"]:
            entries.append({"unitary": rule["default"]})
        rules[name] = entries
    return {
        "name": spec.name,
        "particles": [
            {"id": i, "species": sp,
             "start": dict(zip("txyz", (str(c) for c in start))),
             "velocity": [str(c) for c in vel]}
            for i, (sp, start, vel) in enumerate(spec.particles)
        ],
        "initial_state": state,
        "rules": rules,
        "foliations": [[_rat_doc(c) for c in v] for v in spec.foliations],
    }


# -- kernels --------------------------------------------------------------------

KERNEL_CLASSES = ("compliant", "violation", "violation", "non-conserving", "compliant")
COEFFS = (F(-2), F(-1), F(1), F(2), F(1, 2), F(-3, 2))


@dataclass
class KernelSpec:
    out_slots: tuple
    in_slots: tuple
    rows: tuple  # tuples of Fractions over (out slots, in slots)
    smooth: bool

    def doc(self) -> dict:
        names = self.out_slots + self.in_slots
        return {
            "in_slots": list(self.in_slots),
            "out_slots": list(self.out_slots),
            "deltas": [
                {names[k]: (int(c) if c.denominator == 1 else str(c))
                 for k, c in enumerate(row) if c}
                for row in self.rows
            ],
            "smooth_prefactor_present": self.smooth,
        }


def renamed(spec: KernelSpec, round_: int) -> KernelSpec:
    """The same kernel with its slots renamed for round `round_` (round 0 keeps them)."""
    if round_ == 0:
        return spec
    return replace(spec, out_slots=tuple(f"{s}r{round_}" for s in spec.out_slots),
                   in_slots=tuple(f"{s}r{round_}" for s in spec.in_slots))


# a matrix shift that changes every input value by far less than its cost
ROUND_ENERGY = 2.0 ** -20


def _combo(rng, basis):
    while True:
        weights = [rng.choice((0,) + COEFFS) for _ in basis]
        row = tuple(sum((w * b[k] for w, b in zip(weights, basis)), F(0))
                    for k in range(len(basis[0])))
        if any(row):
            return row


def kernel(rng, intended: str, width: int) -> KernelSpec:
    n_out = rng.randint(1, width - 1)
    outs = tuple(f"q{i + 1}" for i in range(n_out))
    ins = tuple(f"p{i + 1}" for i in range(width - n_out))
    c = tuple([F(1)] * n_out + [F(-1)] * (width - n_out))
    if intended == "compliant":
        rows = [tuple(k * x for x in c)
                for k in (rng.choice(COEFFS) for _ in range(rng.randint(1, 3)))]
    elif intended == "violation":
        extra = []
        for _ in range(rng.randint(1, min(3, width - 1))):
            support = rng.sample(range(width), rng.randint(1, width - 1))
            extra.append(tuple(rng.choice(COEFFS) if k in support else F(0)
                               for k in range(width)))
        basis = [c] + extra
        rows = [_combo(rng, basis) for _ in range(rng.randint(len(basis), 6))]
    else:
        rows = []
        for _ in range(rng.randint(0, min(3, width - 1))):
            support = rng.sample(range(width), rng.randint(1, width - 1))
            rows.append(tuple(rng.choice(COEFFS) if k in support else F(0)
                              for k in range(width)))
    return KernelSpec(outs, ins, tuple(rows), rng.random() < 0.5)


# -- matrices ---------------------------------------------------------------------

ALGEBRA_DIMS = (4, 8, 16, 32, 12, 24)
# the non-Hermitian share is 2 of 6: those take the matrix-exponential path
HISTORY_CASES = ("shared", "generic", "shared-nonhermitian", "generic", "shared",
                 "generic-nonhermitian")
HISTORY_TIMES = tuple(k / 8 for k in range(25))


def _nprng(rng):
    return np.random.default_rng(rng.getrandbits(64))


def _hermitian(g, d):
    m = g.normal(size=(d, d)) + 1j * g.normal(size=(d, d))
    return (m + m.conj().T) / (2.0 * np.sqrt(d))


def solve_system(rng, dim):
    """(H0, V, K0) with H = H0 + V gapped by at least 0.05.

    V shares H's eigenvectors, so [K0, V] has no diagonal in that basis and
    the defining equation is solvable.
    """
    g = _nprng(rng)
    q, _ = np.linalg.qr(g.normal(size=(dim, dim)) + 1j * g.normal(size=(dim, dim)))
    energies = np.cumsum(g.uniform(0.05, 1.0, size=dim))
    h = q @ np.diag(energies) @ q.conj().T
    v = q @ np.diag(g.normal(size=dim)) @ q.conj().T
    return h - v, v, _hermitian(g, dim)


def history_system(rng, dim, case):
    """(H0, Va, Vb, psi0, expected phase rate or None)."""
    g = _nprng(rng)
    psi = g.normal(size=dim) + 1j * g.normal(size=dim)
    psi /= np.linalg.norm(psi)
    h0 = _hermitian(g, dim)
    nonhermitian = case.endswith("nonhermitian")
    if case.startswith("shared"):
        proj = np.eye(dim) - np.outer(psi, psi.conj())
        totals, rates = [], []
        for _ in range(2):
            rate = float(g.uniform(-1.0, 1.0))
            a = proj @ _hermitian(g, dim) @ proj + rate * np.outer(psi, psi.conj())
            if nonhermitian:
                a = a + 0.3 * (g.normal(size=(dim, dim)) / np.sqrt(dim)) @ proj
            totals.append(a)
            rates.append(rate)
        return h0, totals[0] - h0, totals[1] - h0, psi, rates[0] - rates[1]
    va, vb = _hermitian(g, dim), _hermitian(g, dim)
    if nonhermitian:
        va = va + 0.3 * g.normal(size=(dim, dim)) / np.sqrt(dim)
        vb = vb + 0.3 * g.normal(size=(dim, dim)) / np.sqrt(dim)
    return h0, va, vb, psi, None


# kernels are cheap and algebra checks are not: this cycle gives each
# diagnostic at least a third of the traced time
DIAGNOSTIC_CYCLE = ("kernel", "kernel", "solve", "kernel", "kernel", "history")


def diagnostics_input(seed: int, index: int):
    rng = stream("diagnostics", seed, index)
    kind = DIAGNOSTIC_CYCLE[index % len(DIAGNOSTIC_CYCLE)]
    turn = index // len(DIAGNOSTIC_CYCLE)
    if kind == "kernel":
        k = index % CYCLES["diagnostics"]
        return kind, kernel(rng, KERNEL_CLASSES[k % 5], width=2 + k % 7)
    dim = ALGEBRA_DIMS[turn % len(ALGEBRA_DIMS)]
    if kind == "solve":
        return kind, solve_system(rng, dim)
    case = HISTORY_CASES[turn % len(HISTORY_CASES)]
    return kind, (case, history_system(rng, dim, case))


# -- CLI invocations ----------------------------------------------------------------

CLI_KINDS = ("demo-paper", "compare-frames", "simulate", "cluster-check", "solve-w")


def cli_input(seed: int, index: int):
    """(kind, payload): a scenario spec, a kernel spec or a (H0, V, K0) system."""
    rng = stream("cli", seed, index)
    kind = CLI_KINDS[index % len(CLI_KINDS)]
    turn = index // len(CLI_KINDS)
    if kind == "demo-paper":
        return kind, None
    if kind in ("compare-frames", "simulate"):
        family = FAMILIES[turn % 3]
        # odd slot counts put a single spin in the state: the spin guard warns
        n = {"tied": 4 * (1 + turn % 2), "collinear": 5, "scattered": 7}[family]
        spec = scenario(rng, family, n, 3 + turn % 4, f"cli-{seed}-{index}")
        return kind, (spec, rng.randrange(len(spec.foliations)))
    if kind == "cluster-check":
        return kind, kernel(rng, KERNEL_CLASSES[turn % 5], width=2 + turn % 7)
    return kind, solve_system(rng, (4, 8, 12)[turn % 3])


def matrix_doc(m) -> list:
    return [[[float(z.real), float(z.imag)] for z in row] for row in np.asarray(m)]
