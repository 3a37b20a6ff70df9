"""Oracles that decide whether the program's outputs are correct.

Nothing here imports the package or shares code with it or with its tests:
events are solved by projection, leaves are grouped on the exact core
t - v.x, swaps act on dense states as index permutations, kernels are
reduced by an incremental Fraction echelon, and matrix exponentials come from
an eigendecomposition.  The `check_*` functions read the program's results
through their public attributes and return a list of disagreements (empty
when the output is correct).
"""

from __future__ import annotations

import math
import re
from fractions import Fraction as F

import numpy as np

COMPARISON_TOLERANCE = 1e-10
FLOAT_TOLERANCE = 1e-9

# README: "The built-in demonstration", byte for byte
DEMO_TRANSCRIPT = """\
scenario: two-singlet crossing
rules: free vs flip
note: histories are re-foliated rather than actively boosted; the zero angular-momentum guard certifies trivial spin transport

foliation 0: v = (0, 0, 0), gamma = 1
  collision leaves: 1
    tau = 4: pairs (0,2), (1,3)
  verdict: EQUAL (min |overlap| = 1)
foliation 1: v = (3/5, 0, 0), gamma = 5/4
  collision leaves: 2
    tau = 17/4: pairs (1,3)
    tau = 23/4: pairs (0,2)
  verdict: DIFFER at tau = 17/4, |overlap| = 0.5
foliation 2: v = (0, 1/2, 0), gamma = 1.15470053838
  collision leaves: 1
    tau = 4.61880215352: pairs (0,2), (1,3)
  verdict: EQUAL (min |overlap| = 1)

summary: NON_NARRATABLE (equal under foliation 0; differs under foliation 1)
"""

# README exit-code table
EXIT_CODES = {"compliant": 0, "violation": 2, "non-conserving": 3}


# -- geometry ------------------------------------------------------------------

def crossing_events(particles) -> dict:
    """{(i, j): (t, x, y, z)} for every pair of lines that meet.

    The relative position d(t) = d0 + dv t vanishes only at the projection
    t = -(d0.dv)/(dv.dv); the lines meet when d is exactly zero there.
    """
    lines = []
    for _, start, vel in particles:
        lines.append(([start[k + 1] - vel[k] * start[0] for k in range(3)], vel))
    events = {}
    for i in range(len(lines)):
        for j in range(i + 1, len(lines)):
            (pa, va), (pb, vb) = lines[i], lines[j]
            d0 = [pa[k] - pb[k] for k in range(3)]
            dv = [va[k] - vb[k] for k in range(3)]
            dd = sum(c * c for c in dv)
            if dd == 0:
                continue
            t = -sum(d0[k] * dv[k] for k in range(3)) / dd
            if all(d0[k] + dv[k] * t == 0 for k in range(3)):
                events[(i, j)] = (t,) + tuple(pa[k] + va[k] * t for k in range(3))
    return events


def is_exact(velocity) -> bool:
    return all(isinstance(c, F) for c in velocity)


def gamma_of(velocity):
    """Exact gamma when 1 - v.v is a rational square, else a float."""
    if is_exact(velocity):
        q = 1 - sum(c * c for c in velocity)
        n, d = math.isqrt(q.numerator), math.isqrt(q.denominator)
        if n * n == q.numerator and d * d == q.denominator:
            return F(d, n)
    return 1.0 / math.sqrt(1.0 - sum(float(c) ** 2 for c in velocity))


def leaf_groups(events: dict, velocity) -> list:
    """[(core, [pairs])] in increasing core, grouped on the exact core.

    Float velocities are taken at their exact binary value; the generator keeps
    distinct cores more than 1e-6 apart, so this matches 1e-9 grouping.
    """
    v = [F(c) for c in velocity]
    by_core: dict = {}
    for pair, (t, x, y, z) in events.items():
        by_core.setdefault(t - v[0] * x - v[1] * y - v[2] * z, []).append(pair)
    return [(core, sorted(by_core[core])) for core in sorted(by_core)]


# -- dense spin states -----------------------------------------------------------

_SINGLET = np.array([[0.0, 1.0], [-1.0, 0.0]]) / math.sqrt(2.0)


def initial_vector(n: int, singlet_pairs, singles) -> np.ndarray:
    """Product state as an n-axis array; slot 0 is the most significant bit."""
    state = np.ones((2,) * n, dtype=complex)
    for a, b in singlet_pairs:
        shape = [1] * n
        shape[a] = shape[b] = 2
        factor = _SINGLET if a < b else _SINGLET.T
        state = state * factor.reshape(shape)
    for slot, amps in singles:
        vec = np.array(amps, dtype=complex)
        shape = [1] * n
        shape[slot] = 2
        state = state * (vec / np.linalg.norm(vec)).reshape(shape)
    return state.reshape(-1)


def swap_index(n: int, a: int, b: int) -> np.ndarray:
    """Index permutation that exchanges the bits of slots a and b."""
    idx = np.arange(1 << n)
    sa, sb = n - 1 - a, n - 1 - b
    flip = ((idx >> sa) ^ (idx >> sb)) & 1
    return idx ^ (flip << sa) ^ (flip << sb)


def swaps(rule: dict, species_a: str, species_b: str) -> bool:
    for (x, y), unitary in rule["pairs"].items():
        if {x, y} == {species_a, species_b}:
            return unitary == "swap"
    return rule["default"] == "swap"


class ScenarioOracle:
    """Events, leaves and swap histories of one ScenarioSpec."""

    def __init__(self, spec):
        self.spec = spec
        self.n = len(spec.particles)
        self.events = crossing_events(spec.particles)
        self.initial = initial_vector(self.n, spec.singlet_pairs, spec.singles)
        self._groups = {}
        self._histories = {}
        self._verdicts = {}

    def groups(self, fol_index: int) -> list:
        if fol_index not in self._groups:
            self._groups[fol_index] = leaf_groups(self.events, self.spec.foliations[fol_index])
        return self._groups[fol_index]

    def _active(self, rule_name: str, pairs) -> list:
        rule = self.spec.rules[rule_name]
        species = [p[0] for p in self.spec.particles]
        return [(a, b) for a, b in pairs if swaps(rule, species[a], species[b])]

    def history(self, fol_index: int, rule_name: str):
        """(fired groups, inert count, number of segments)."""
        key = (fol_index, rule_name)
        if key not in self._histories:
            fired, inert = [], 0
            for core, pairs in self.groups(fol_index):
                if self._active(rule_name, pairs):
                    fired.append((core, pairs))
                else:
                    inert += 1
            self._histories[key] = (fired, inert, 1 + len(fired))
        return self._histories[key]

    def verdict(self, fol_index: int, rule_a: str, rule_b: str):
        """(equal, witness core or None, min |overlap|) over every distinct interval."""
        key = (fol_index, rule_a, rule_b)
        if key not in self._verdicts:
            self._verdicts[key] = self._verdict(fol_index, rule_a, rule_b)
        return self._verdicts[key]

    def _verdict(self, fol_index, rule_a, rule_b):
        # Both histories are walked together and only their current states are
        # kept, so the oracle's memory stays far below the program's.
        ua = ub = self.initial
        witness, least = None, 1.0
        for core, pairs in self.groups(fol_index):
            active_a, active_b = self._active(rule_a, pairs), self._active(rule_b, pairs)
            if not active_a and not active_b:
                continue
            for a, b in active_a:
                ua = ua[swap_index(self.n, a, b)]
            for a, b in active_b:
                ub = ub[swap_index(self.n, a, b)]
            mag = abs(np.vdot(ua, ub))
            least = min(least, mag)
            if witness is None and abs(mag - 1.0) > COMPARISON_TOLERANCE:
                witness = core
        return witness is None, witness, least

    def translated(self, delta) -> "TranslatedOracle":
        return TranslatedOracle(self, delta)


class TranslatedOracle:
    """The oracle of the same scenario with every worldline moved by delta = (t, x, y, z).

    Every event moves by delta, so under foliation v each leaf keeps its pairs
    and its core moves by delta_t - v.delta_x; the verdicts carry over with
    their witness cores moved.
    """

    def __init__(self, base: ScenarioOracle, delta):
        self.base, self.delta, self.events = base, delta, base.events

    def _shift(self, fol_index: int):
        v = [F(c) for c in self.base.spec.foliations[fol_index]]
        return self.delta[0] - sum(v[k] * self.delta[k + 1] for k in range(3))

    def groups(self, fol_index: int) -> list:
        shift = self._shift(fol_index)
        return [(core + shift, pairs) for core, pairs in self.base.groups(fol_index)]

    def history(self, fol_index: int, rule_name: str):
        fired, inert, segments = self.base.history(fol_index, rule_name)
        shift = self._shift(fol_index)
        return [(core + shift, pairs) for core, pairs in fired], inert, segments

    def verdict(self, fol_index: int, rule_a: str, rule_b: str):
        equal, witness, least = self.base.verdict(fol_index, rule_a, rule_b)
        return equal, None if witness is None else witness + self._shift(fol_index), least


def summary_class(equal_flags) -> str:
    if all(equal_flags):
        return "all-equal"
    if not any(equal_flags):
        return "all-differ"
    return "NON_NARRATABLE"


def _same_scalar(program, expected, exact: bool) -> bool:
    if exact:
        return program == expected
    return abs(float(program) - float(expected)) <= FLOAT_TOLERANCE * max(1.0, abs(float(expected)))


def _check_groups(where, program_groups, expected, velocity) -> list:
    exact = is_exact(velocity)
    gamma = gamma_of(velocity)
    if len(program_groups) != len(expected):
        return [f"{where}: {len(program_groups)} leaves, expected {len(expected)}"]
    problems = []
    for g, (core, pairs) in zip(program_groups, expected):
        if list(g.pairs) != pairs:
            problems.append(f"{where}: pairs {list(g.pairs)}, expected {pairs}")
        if not _same_scalar(g.core, core, exact):
            problems.append(f"{where}: core {g.core}, expected {core}")
        if not _same_scalar(g.tau, gamma * core, exact and isinstance(gamma, F)):
            problems.append(f"{where}: tau {g.tau}, expected {gamma * core}")
    return problems


def check_report(spec, rules, report, text: str, oracle: ScenarioOracle) -> list:
    """A narratability report and its rendering against the oracle."""
    problems = []
    if len(report.verdicts) != len(spec.foliations):
        return [f"{len(report.verdicts)} verdicts for {len(spec.foliations)} foliations"]
    flags = []
    for i, v in enumerate(report.verdicts):
        velocity = spec.foliations[i]
        problems += _check_groups(f"foliation {i}", v.groups, oracle.groups(i), velocity)
        equal, witness, least = oracle.verdict(i, *rules)
        flags.append(equal)
        c = v.comparison
        if c.equal != equal:
            problems.append(f"foliation {i}: equal={c.equal}, expected {equal}")
        elif not equal and not _same_scalar(c.witness_core, witness, is_exact(velocity)):
            problems.append(f"foliation {i}: witness core {c.witness_core}, expected {witness}")
        if abs(c.min_overlap - least) > FLOAT_TOLERANCE:
            problems.append(f"foliation {i}: min overlap {c.min_overlap}, expected {least}")
    expected = summary_class(flags)
    if report.non_narratable != (expected == "NON_NARRATABLE"):
        problems.append(f"non_narratable={report.non_narratable}, expected {expected}")
    if _summary_of(text) != expected:
        problems.append(f"rendered summary {_summary_of(text)!r}, expected {expected}")
    return problems


def _summary_of(text: str) -> str:
    last = text.rstrip("\n").rsplit("\n", 1)[-1]
    if last.startswith("summary: NON_NARRATABLE"):
        return "NON_NARRATABLE"
    if last == "summary: histories agree under every tested foliation":
        return "all-equal"
    if last == "summary: histories differ under every tested foliation":
        return "all-differ"
    return last


# -- kernels ----------------------------------------------------------------------

class RowSpace:
    """Incremental Fraction echelon: rows stored with a unit pivot, zeros before it."""

    def __init__(self, rows=()):
        self.rows = []  # (pivot column, row), sorted by pivot
        for row in rows:
            self.add(row)

    def reduce(self, vector) -> list:
        r = [F(c) for c in vector]
        for p, row in self.rows:
            if r[p]:
                f = r[p]
                r = [x - f * y for x, y in zip(r, row)]
        return r

    def add(self, vector) -> bool:
        r = self.reduce(vector)
        lead = next((k for k, c in enumerate(r) if c), None)
        if lead is None:
            return False
        self.rows.append((lead, [c / r[lead] for c in r]))
        self.rows.sort(key=lambda pr: pr[0])
        return True

    def contains(self, vector) -> bool:
        return not any(self.reduce(vector))

    @property
    def rank(self) -> int:
        return len(self.rows)


def kernel_class(spec):
    """(class, rank, conservation vector) of a KernelSpec."""
    c = [F(1)] * len(spec.out_slots) + [F(-1)] * len(spec.in_slots)
    space = RowSpace(spec.rows)
    conserves = space.rank > 0 and space.contains(c)
    if not conserves:
        return "non-conserving", space.rank, c
    return ("compliant" if space.rank == 1 else "violation"), space.rank, c


def check_kernel(spec, verdict, canonical) -> list:
    """analyze() verdict and, for conserving kernels, canonicalize() output."""
    cls, rank, c = kernel_class(spec)
    problems = []
    if verdict.rank != rank:
        problems.append(f"rank {verdict.rank}, expected {rank}")
    if verdict.conserves_momentum != (cls != "non-conserving"):
        problems.append(f"conserves={verdict.conserves_momentum}, expected class {cls}")
    if verdict.compliant != (cls == "compliant"):
        problems.append(f"compliant={verdict.compliant}, expected class {cls}")
    names = spec.out_slots + spec.in_slots
    space = RowSpace(spec.rows)
    if cls == "compliant" or rank == 0:
        if verdict.witness is not None:
            problems.append("unexpected witness")
    elif verdict.witness is None:
        problems.append("missing witness")
    else:
        coeffs, support = verdict.witness
        if not any(coeffs) or not space.contains(coeffs):
            problems.append("witness is not a nonzero row of the row space")
        if tuple(support) != tuple(n for n, x in zip(names, coeffs) if x):
            problems.append(f"witness support {support} does not match its coefficients")
        if cls == "violation" and (len(support) >= len(names) or RowSpace([c, coeffs]).rank != 2):
            problems.append("witness is not an extra constraint on a proper subset")
    if cls != "non-conserving":
        if canonical is None:
            problems.append("no canonical form for a conserving kernel")
        else:
            rows = [list(r) for r in canonical.deltas]
            if rows[0] != c:
                problems.append("canonical form does not start with the conservation row")
            joint = RowSpace(list(spec.rows) + rows)
            if len(rows) != rank or RowSpace(rows).rank != rank or joint.rank != rank:
                problems.append("canonical rows do not span the original row space")
    return problems


# -- algebra ----------------------------------------------------------------------

def _comm(a, b):
    return a @ b - b @ a


def solve_residual(h0, v, k0, w) -> tuple:
    """(|[K0,V] + [W,H]|_F, input scale) for a candidate W."""
    h = h0 + v
    residual = float(np.linalg.norm(_comm(k0, v) + _comm(w, h)))
    scale = max(1.0, *(float(np.linalg.norm(m)) for m in (h0, v, k0)))
    return residual, scale


def check_solve(system, solution) -> list:
    h0, v, k0 = system
    residual, scale = solve_residual(h0, v, k0, solution.W)
    problems = []
    if residual > 1e-8 * scale:
        problems.append(f"defining-equation residual {residual:.3g} > 1e-8 x {scale:.3g}")
    if solution.obstructed:
        problems.append("gapped system reported as obstructed")
    if float(np.linalg.norm(solution.W - solution.W.conj().T)) > 1e-8:
        problems.append("W is not Hermitian for a Hermitian system")
    return problems


def _evolve(h, psi, t):
    """exp(i h t) psi from an eigendecomposition of h."""
    if np.allclose(h, h.conj().T, atol=1e-12):
        evals, q = np.linalg.eigh(h)
        return q @ (np.exp(1j * evals * t) * (q.conj().T @ psi))
    evals, q = np.linalg.eig(h)
    return q @ (np.exp(1j * evals * t) * np.linalg.solve(q, psi))


def expected_history(system, times):
    """(times, same flag, [c(t)]) of a generic system; (times, None, None) for a shared one."""
    h0, va, vb, psi, rate = system
    if rate is not None:
        return times, None, None
    expected = []
    for t in times:
        u = _evolve(h0 + va, psi, t)
        w = _evolve(h0 + vb, psi, t)
        expected.append(complex(np.vdot(w, u)))
    return times, all(abs(abs(c) - 1.0) <= FLOAT_TOLERANCE for c in expected), expected


def check_same_history(case, system, expectation, same, samples) -> list:
    """same_history_check output against `expected_history(system, times)`."""
    rate = system[4]
    times, flag, expected = expectation
    problems = []
    if len(samples) != len(times):
        return [f"{len(samples)} samples for {len(times)} times"]
    if rate is not None:
        if not same:
            problems.append(f"{case}: shared-eigenvector construction not flagged as same")
        for t, c in samples:
            if abs(c - np.exp(1j * rate * t)) > 1e-8:
                problems.append(f"{case}: c({t}) = {c}, expected phase e^(i {rate:.6g} t)")
                break
        return problems
    if same != flag:
        problems.append(f"{case}: same={same}, expected {flag}")
    for (t, c), e in zip(samples, expected):
        if abs(c - e) > 1e-7 * max(1.0, abs(e)):
            problems.append(f"{case}: c({t}) = {c}, expected {e}")
            break
    return problems


# -- CLI transcripts ----------------------------------------------------------------

_LEAVES = re.compile(r"^ {0,2}collision leaves: (\d+)$", re.M)
_VERDICT = re.compile(r"^  verdict: (EQUAL|DIFFER)", re.M)


def _complex_token(token: str) -> complex:
    return complex(token.strip("()").replace("i", "j"))


def check_cli(kind: str, payload, code: int, out: str, oracle=None) -> list:
    """Exit code and key lines of one CLI run against the oracle."""
    if kind == "demo-paper":
        return [] if code == 0 and out == DEMO_TRANSCRIPT else [
            f"demo-paper: exit {code}, transcript differs from the README"]
    if kind == "cluster-check":
        cls, rank, _ = kernel_class(payload)
        problems = []
        if code != EXIT_CODES[cls]:
            problems.append(f"cluster-check: exit {code}, expected {EXIT_CODES[cls]} ({cls})")
        if f"\nconstraint rank: {rank}\n" not in out:
            problems.append(f"cluster-check: rank line missing or not {rank}")
        return problems
    if code != 0:
        return [f"{kind}: exit {code}, expected 0"]
    if kind == "solve-w":
        h0, v, k0 = payload
        rows = [line.strip()[1:-1] for line in out.split("W:\n", 1)[1].split("\nresidual")[0].splitlines()]
        w = np.array([[_complex_token(t) for t in row.split()] for row in rows])
        residual, scale = solve_residual(h0, v, k0, w)
        # W is printed with 12 significant digits, so allow for its size
        if w.shape != h0.shape or residual > 1e-8 * scale * max(1.0, float(np.linalg.norm(w))):
            return [f"solve-w: printed W leaves residual {residual:.3g}"]
        return []
    spec, fol_index = payload
    leaves = [int(n) for n in _LEAVES.findall(out)]
    if kind == "simulate":
        fired, inert, n_segments = oracle.history(fol_index, "flip")
        problems = []
        if leaves != [len(fired)]:
            problems.append(f"simulate: leaves {leaves}, expected {len(fired)}")
        if (f"inert crossings (identity unitary): {inert}\n" in out) != (inert > 0):
            problems.append(f"simulate: inert count line, expected {inert}")
        if f"\nsegments: {n_segments}\n" not in out:
            problems.append(f"simulate: segment count, expected {n_segments}")
        return problems
    expected_leaves = [len(oracle.groups(i)) for i in range(len(spec.foliations))]
    flags = [oracle.verdict(i, "free", "flip")[0] for i in range(len(spec.foliations))]
    problems = []
    if leaves != expected_leaves:
        problems.append(f"compare-frames: leaves {leaves}, expected {expected_leaves}")
    if _VERDICT.findall(out) != ["EQUAL" if f else "DIFFER" for f in flags]:
        problems.append("compare-frames: verdict lines differ from the oracle")
    if _summary_of(out) != summary_class(flags):
        problems.append(f"compare-frames: summary, expected {summary_class(flags)}")
    return problems
