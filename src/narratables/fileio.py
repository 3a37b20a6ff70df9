"""JSON input formats: scenario, kernel, matrix, vector and generator files.

Rationals are written as strings like "3/5" (or "-1/2"); bare JSON numbers
are accepted where noted but degrade exactness, which matters because
simultaneity verdicts are decided by exact comparisons.
"""

from __future__ import annotations

import cmath
import json
import math
import re
import warnings
from contextlib import contextmanager
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

import numpy as np

from .algebra import GeneratorSet
from .clusterkit import MomentumKernel
from .errors import ExactnessWarning, NarratablesError, ParseError
from .geometry import Event, Foliation, Worldline
from .narrative import InteractionRule, Scenario
from .quantum import (
    PairingSpec,
    SpinState,
    TwoSlotUnitary,
    identity_unitary,
    singlet_product,
    swap_unitary,
)

# the longest rational string read from a file, and the largest decimal
# exponent it may carry: Fraction("1e99999999") builds a 10**8-digit integer
MAX_RATIONAL_CHARS = 100
_EXPONENT = re.compile(r"e[-+]?([\d_]*)", re.IGNORECASE)
# the plain spellings p and p/q, read as two ints; every other one goes to Fraction()
_PLAIN_RATIONAL = re.compile(r"([-+]?\d+)(?:/(\d+))?", re.ASCII)


def _fail(where: str, why: str):
    raise ParseError(f"{where}: {why}")


@contextmanager
def _located(where):
    """A domain error (ParseError included), ValueError or TypeError raised while
    building an object from file data becomes a ParseError prefixed with `where`."""
    try:
        yield
    except (NarratablesError, ValueError, TypeError) as exc:
        raise ParseError(f"{where}: {exc}") from exc


def _load_json(path) -> dict:
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc
    # a plain ValueError here is an integer beyond the interpreter's digit limit
    with _located(path):
        try:
            return json.loads(text)
        except json.JSONDecodeError as exc:
            raise ParseError(f"invalid JSON at line {exc.lineno} column {exc.colno}") from exc
        except RecursionError as exc:
            raise ParseError("JSON nested too deeply to read") from exc


def _exact_rational(value, where: str) -> Fraction:
    """The one reader of exact rationals from files; oversized or non-finite
    values fail before Fraction() sees them."""
    if isinstance(value, bool):
        _fail(where, f"expected a rational, got {value!r}")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        if len(value) > MAX_RATIONAL_CHARS:
            _fail(where, f"rational string longer than {MAX_RATIONAL_CHARS} characters")
        plain = _PLAIN_RATIONAL.fullmatch(value)
        if plain:
            denominator = int(plain[2] or 1)
            if denominator:  # p/0 goes on to fail in Fraction() as any other
                return Fraction(int(plain[1]), denominator)
        exponent = _EXPONENT.search(value)
        if exponent and int(exponent[1].replace("_", "") or 0) > MAX_RATIONAL_CHARS:
            _fail(where, f"rational {value!r} has an exponent beyond {MAX_RATIONAL_CHARS}")
        try:
            return Fraction(value)
        except (ValueError, ZeroDivisionError):
            _fail(where, f"cannot parse rational {value!r}")
    if isinstance(value, float):
        if not math.isfinite(value):
            _fail(where, f"{value!r} is not a finite number")
        warnings.warn(
            f"{where}: bare number {value!r} read as the decimal it prints as; "
            "write rationals as strings like \"3/5\" to keep results exact",
            ExactnessWarning,
            stacklevel=3,
        )
        return Fraction(str(value))
    _fail(where, f"expected a rational, got {type(value).__name__}")


def _slot(value, where: str) -> int:
    """A slot number: a non-bool integer, or a digit string (JSON object keys,
    as in `singles`, are always strings)."""
    if isinstance(value, str) and value.isascii() and value.isdigit():
        return int(value)
    if isinstance(value, bool) or not isinstance(value, int):
        _fail(where, f"expected a slot number, got {value!r}")
    return value


def _complex_entry(value, where: str) -> complex:
    parts = value if isinstance(value, list) and len(value) == 2 else [value]
    if not all(isinstance(v, (int, float)) and not isinstance(v, bool) for v in parts):
        _fail(where, f"expected a number or [re, im], got {value!r}")
    try:
        z = complex(*parts)
    except OverflowError:
        _fail(where, "integer too large for a float")
    if not cmath.isfinite(z):
        _fail(where, f"{value!r} is not a finite number")
    return z


def parse_matrix(doc, where: str) -> np.ndarray:
    if isinstance(doc, dict):
        doc = doc.get("matrix", doc)
    if not isinstance(doc, list) or not doc or not all(isinstance(r, list) for r in doc):
        _fail(where, "expected a list of rows")
    widths = {len(r) for r in doc}
    if len(widths) != 1:
        _fail(where, "rows have unequal lengths")
    return np.array(
        [[_complex_entry(v, f"{where}[{i}][{j}]") for j, v in enumerate(row)]
         for i, row in enumerate(doc)],
        dtype=complex,
    )


def parse_vector(doc, where: str) -> np.ndarray:
    if isinstance(doc, dict):
        doc = doc.get("vector", doc)
    if not isinstance(doc, list) or not doc:
        _fail(where, "expected a list of entries")
    return np.array(
        [_complex_entry(v, f"{where}[{i}]") for i, v in enumerate(doc)], dtype=complex
    )


# sqrt of the smallest normal double: a plain norm below it comes from a
# subnormal sum of squares, which keeps too few digits to normalize by
_LEAST_PLAIN_NORM = 2.0**-511


def _with_norm(vec: np.ndarray, where: str) -> tuple[np.ndarray, float]:
    """`vec` and its norm, which is finite and nonzero.  Only when the plain
    norm overflows or is below `_LEAST_PLAIN_NORM` for a vector with a nonzero
    entry are `vec`'s real and imaginary parts first divided by the largest of
    them, as reals (a complex division by a subnormal overflows), which brings
    its norm to between 1 and sqrt(2 len(vec))."""
    with np.errstate(over="ignore"):
        norm = np.linalg.norm(vec)
    if not _LEAST_PLAIN_NORM <= norm < math.inf:
        parts = np.ascontiguousarray(vec, dtype=complex).view(float)
        largest = np.max(np.abs(parts))
        if largest == 0:
            _fail(where, "zero vector")
        vec = (parts / largest).view(complex)
        norm = np.linalg.norm(vec)
    return vec, norm


def normalize_vector(vec: np.ndarray, where: str) -> np.ndarray:
    """`vec` at unit norm, divided only when off by > 1e-12 so round trips stay exact."""
    vec, norm = _with_norm(vec, where)
    if abs(norm - 1.0) > 1e-12:
        vec = vec / norm
    return vec


def load_matrix_file(path) -> np.ndarray:
    return parse_matrix(_load_json(path), str(path))


def load_vector_file(path) -> np.ndarray:
    return parse_vector(_load_json(path), str(path))


def load_generator_file(path) -> GeneratorSet:
    """The generators in a file holding an object of at least two matrices,
    named from algebra.GENERATOR_NAMES and all of one dimension."""
    doc = _load_json(path)
    if not isinstance(doc, dict):
        _fail(path, "expected an object of named generators")
    matrices = {name: parse_matrix(value, f"{path}.{name}") for name, value in doc.items()}
    with _located(path):
        gens = GeneratorSet(**matrices)
    if len(matrices) < 2:
        _fail(path, "need at least two generators to check brackets")
    return gens


# -- kernel files -----------------------------------------------------------

def parse_kernel(doc: dict, where: str = "kernel") -> MomentumKernel:
    if not isinstance(doc, dict):
        _fail(where, "expected a JSON object")
    for key in ("in_slots", "out_slots", "deltas"):
        if key not in doc:
            _fail(where, f"missing key {key!r}")
    in_slots = doc["in_slots"]
    out_slots = doc["out_slots"]
    if not isinstance(in_slots, list) or not isinstance(out_slots, list):
        _fail(where, "in_slots and out_slots must be lists of names")
    names = [str(s) for s in out_slots] + [str(s) for s in in_slots]
    rows = []
    deltas = doc["deltas"]
    if not isinstance(deltas, list):
        _fail(where, "deltas must be a list of {slot: coefficient} maps")
    for i, entry in enumerate(deltas):
        if not isinstance(entry, dict):
            _fail(f"{where}.deltas[{i}]", "expected a {slot: coefficient} map")
        row = [Fraction(0)] * len(names)
        for slot, coeff in entry.items():
            if slot not in names:
                _fail(f"{where}.deltas[{i}]", f"unknown slot {slot!r}")
            row[names.index(slot)] = _exact_rational(coeff, f"{where}.deltas[{i}].{slot}")
        rows.append(tuple(row))
    metadata = doc.get("metadata", {})
    if not isinstance(metadata, dict):
        _fail(where, "metadata must be an object")
    with _located(where):
        return MomentumKernel(
            in_slots=tuple(str(s) for s in in_slots),
            out_slots=tuple(str(s) for s in out_slots),
            deltas=tuple(rows),
            smooth_prefactor_present=bool(doc.get("smooth_prefactor_present", False)),
            metadata=tuple((str(k), str(v)) for k, v in metadata.items()),
        )


def load_kernel_file(path) -> MomentumKernel:
    return parse_kernel(_load_json(path), str(path))


# -- scenario files ---------------------------------------------------------

@dataclass(eq=False)
class ScenarioBundle:
    """A scenario plus the rules and foliations its file declares."""

    scenario: Scenario
    rules: dict  # name -> InteractionRule
    foliations: list  # Foliation


def _parse_particle(entry, where: str) -> Worldline:
    if not isinstance(entry, dict):
        _fail(where, "expected an object")
    for key in ("id", "species", "start", "velocity"):
        if key not in entry:
            _fail(where, f"missing key {key!r}")
    start = entry["start"]
    if isinstance(start, dict):
        coords = [(start.get(k, 0), f"{where}.start.{k}") for k in ("t", "x", "y", "z")]
    elif isinstance(start, list) and len(start) == 4:
        coords = [(c, f"{where}.start[{i}]") for i, c in enumerate(start)]
    else:
        _fail(f"{where}.start", "expected {t,x,y,z} or a 4-list")
    velocity = entry["velocity"]
    if not isinstance(velocity, list) or len(velocity) != 3:
        _fail(f"{where}.velocity", "expected a 3-list")
    slot = _slot(entry["id"], f"{where}.id")
    event = Event(*[_exact_rational(c, at) for c, at in coords])
    components = tuple(
        _exact_rational(v, f"{where}.velocity[{i}]") for i, v in enumerate(velocity)
    )
    with _located(where):
        return Worldline(
            id=slot, species=str(entry["species"]), start=event, velocity=components
        )


def _parse_initial_state(doc, n_slots: int, where: str) -> SpinState:
    if not isinstance(doc, dict):
        _fail(where, "expected an object")
    if "amplitudes" in doc:
        here = f"{where}.amplitudes"
        vec = normalize_vector(parse_vector(doc["amplitudes"], here), here)
        with _located(here):
            return SpinState(n_slots, vec)
    if "singlet_pairs" in doc:
        here = f"{where}.singlet_pairs"
        if not isinstance(doc["singlet_pairs"], list):
            _fail(here, "expected a list of [a, b] pairs")
        pairs = []
        for k, pair in enumerate(doc["singlet_pairs"]):
            if not isinstance(pair, list) or len(pair) != 2:
                _fail(f"{here}[{k}]", f"expected a pair [a, b], got {pair!r}")
            pairs.append(tuple(_slot(v, f"{here}[{k}][{m}]") for m, v in enumerate(pair)))
        if not isinstance(doc.get("singles", {}), dict):
            _fail(f"{where}.singles", "expected an object of {slot: vector} entries")
        singles = []
        for key, vec in doc.get("singles", {}).items():
            at = f"{where}.singles[{key}]"
            slot = _slot(key, at)
            v, norm = _with_norm(parse_vector(vec, at), at)
            singles.append((slot, v / norm))
        with _located(where):
            return singlet_product(n_slots, PairingSpec(tuple(pairs), tuple(singles)))
    _fail(where, "need either 'singlet_pairs' or 'amplitudes'")


def _parse_contact_unitary(u, where: str) -> TwoSlotUnitary:
    if u == "swap":
        return swap_unitary()
    if u == "identity":
        return identity_unitary()
    try:
        matrix = parse_matrix(u, where)
    except ParseError:
        _fail(where, "expected 'swap', 'identity', or a 4x4 matrix")
    with _located(where):
        return TwoSlotUnitary(matrix)


def _parse_rule(name: str, entries, where: str) -> InteractionRule:
    """Entries look like {pair: [a, b], unitary: ...}; one entry may omit
    'pair' to set the rule's default contact unitary."""
    if not isinstance(entries, list):
        _fail(where, "expected a list of {pair, unitary} entries")
    mapping = []
    default = None
    for i, entry in enumerate(entries):
        here = f"{where}[{i}]"
        if not isinstance(entry, dict) or "unitary" not in entry:
            _fail(here, "expected {pair: [a, b], unitary: ...}")
        unitary = _parse_contact_unitary(entry["unitary"], f"{here}.unitary")
        if "pair" not in entry:
            if default is not None:
                _fail(here, "only one default (pair-less) entry allowed")
            default = unitary
            continue
        pair = entry["pair"]
        if not isinstance(pair, list) or len(pair) != 2:
            _fail(f"{here}.pair", "expected two species names")
        mapping.append(((str(pair[0]), str(pair[1])), unitary))
    with _located(where):
        return InteractionRule(name, tuple(mapping), default)


def parse_scenario(doc: dict, where: str = "scenario") -> ScenarioBundle:
    if not isinstance(doc, dict):
        _fail(where, "expected a JSON object")
    for key in ("particles", "initial_state", "rules", "foliations"):
        if key not in doc:
            _fail(where, f"missing key {key!r}")
    particles = doc["particles"]
    if not isinstance(particles, list) or not particles:
        _fail(f"{where}.particles", "expected a non-empty list")
    worldlines = [
        _parse_particle(p, f"{where}.particles[{i}]") for i, p in enumerate(particles)
    ]
    state = _parse_initial_state(
        doc["initial_state"], len(worldlines), f"{where}.initial_state"
    )
    with _located(where):
        scenario = Scenario(
            name=str(doc.get("name", "scenario")),
            worldlines=tuple(worldlines),
            initial_state=state,
        )
    rules_doc = doc["rules"]
    if not isinstance(rules_doc, dict) or not rules_doc:
        _fail(f"{where}.rules", "expected a non-empty object of rule definitions")
    rules = {
        str(name): _parse_rule(str(name), entries, f"{where}.rules.{name}")
        for name, entries in rules_doc.items()
    }
    foliations_doc = doc["foliations"]
    if not isinstance(foliations_doc, list) or not foliations_doc:
        _fail(f"{where}.foliations", "expected a non-empty list of velocities")
    foliations = []
    for i, vel in enumerate(foliations_doc):
        here = f"{where}.foliations[{i}]"
        if not isinstance(vel, list) or len(vel) != 3:
            _fail(here, "expected a velocity 3-list")
        # floats stay floats here: the foliation then groups ties within 1e-9
        components = tuple(
            v if isinstance(v, float) else _exact_rational(v, f"{here}[{j}]")
            for j, v in enumerate(vel)
        )
        if any(isinstance(v, float) for v in vel):
            warnings.warn(
                f"{here}: float velocity component; leaf grouping will use a "
                "1e-9 tolerance instead of exact comparison",
                ExactnessWarning,
                stacklevel=2,
            )
        with _located(here):
            foliations.append(Foliation(components))
    return ScenarioBundle(scenario=scenario, rules=rules, foliations=foliations)


def load_scenario_file(path) -> ScenarioBundle:
    return parse_scenario(_load_json(path), str(path))


def _scalar_doc(value):
    # a rational as a string; a float (a float foliation's velocity) as a JSON
    # number, which parses back to the same float
    return value if isinstance(value, float) else str(value)


def _complex_doc(z: complex):
    if z.imag == 0:
        return z.real
    return [z.real, z.imag]


def dump_scenario(bundle: ScenarioBundle) -> dict:
    """Serialize a bundle back to the file format (rationals as strings,
    float foliation components as numbers)."""
    particles = []
    for w in bundle.scenario.worldlines:
        particles.append(
            {
                "id": w.id,
                "species": w.species,
                "start": {
                    "t": _scalar_doc(w.start.t),
                    "x": _scalar_doc(w.start.x),
                    "y": _scalar_doc(w.start.y),
                    "z": _scalar_doc(w.start.z),
                },
                "velocity": [_scalar_doc(v) for v in w.velocity],
            }
        )
    state = bundle.scenario.initial_state

    def unitary_doc(unitary):
        if unitary.is_identity:
            return "identity"
        if unitary.is_swap:
            return "swap"
        return [[_complex_doc(v) for v in row] for row in unitary.matrix]

    rules = {}
    for name, rule in bundle.rules.items():
        entries = []
        for (a, b), unitary in rule.mapping:
            entries.append({"pair": [a, b], "unitary": unitary_doc(unitary)})
        if rule.default is not None:
            entries.append({"unitary": unitary_doc(rule.default)})
        rules[name] = entries
    return {
        "name": bundle.scenario.name,
        "particles": particles,
        "initial_state": {
            "amplitudes": [_complex_doc(a) for a in state.amplitudes]
        },
        "rules": rules,
        "foliations": [
            [_scalar_doc(c) for c in f.velocity] for f in bundle.foliations
        ],
    }


def write_scenario_file(bundle: ScenarioBundle, path) -> None:
    Path(path).write_text(json.dumps(dump_scenario(bundle), indent=2) + "\n")
