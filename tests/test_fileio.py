"""File-format tests: scenario, kernel, matrix, and vector files.

Round trips are compared byte-for-byte, error paths must raise ParseError
carrying a location string, and ExactnessWarning fires exactly when a bare
float enters a field that exact simultaneity grouping depends on.
"""

import cmath
import copy
import json
import re
import warnings
from fractions import Fraction
from importlib import resources

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from narratables import fileio
from narratables.clusterkit import analyze
from narratables.errors import (
    CoincidentWorldlines,
    ExactnessWarning,
    OverlappingSimultaneousPairs,
    ParseError,
)
from narratables.fileio import (
    ScenarioBundle,
    dump_scenario,
    load_generator_file,
    load_kernel_file,
    load_matrix_file,
    load_scenario_file,
    load_vector_file,
    parse_kernel,
    parse_matrix,
    parse_scenario,
    parse_vector,
    write_scenario_file,
)
from narratables.geometry import FLOAT_TIE_TOLERANCE, Event, Foliation, Worldline
from narratables.narrative import InteractionRule, Scenario, narratability_report, render_report
from narratables.quantum import (
    PairingSpec,
    SpinState,
    TwoSlotUnitary,
    identity_unitary,
    singlet_product,
    swap_unitary,
)


def data_path(name):
    return resources.files("narratables").joinpath("data", name)


def minimal_doc():
    return {
        "particles": [
            {
                "id": 0,
                "species": "a",
                "start": {"t": 0, "x": 0, "y": 0, "z": 0},
                "velocity": ["0", "0", "0"],
            }
        ],
        "initial_state": {"amplitudes": [1, 0]},
        "rules": {"free": []},
        "foliations": [["0", "0", "0"]],
    }


# -- scenario files -----------------------------------------------------------


def test_packaged_demo_loads_exactly():
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # everything in the file is exact
        bundle = load_scenario_file(data_path("demo_scenario.json"))
    lines = bundle.scenario.worldlines
    assert [w.species for w in lines] == ["s1", "s2", "s3", "s4"]
    assert lines[2].start.x == Fraction(-1)
    assert lines[2].start.y == Fraction(2)
    assert lines[2].velocity == (Fraction(0), Fraction(-1, 2), Fraction(0))
    assert isinstance(lines[2].velocity[1], Fraction)
    expected = singlet_product(4, PairingSpec(((0, 1), (2, 3)), ()))
    np.testing.assert_allclose(
        bundle.scenario.initial_state.amplitudes, expected.amplitudes, atol=1e-15
    )
    assert set(bundle.rules) == {"free", "flip"}
    flip = bundle.rules["flip"]
    assert np.array_equal(flip.unitary_for("s1", "s3").matrix, swap_unitary().matrix)
    assert np.array_equal(flip.unitary_for("s3", "s1").matrix, swap_unitary().matrix)
    assert np.array_equal(flip.unitary_for("s1", "s2").matrix, np.eye(4))
    assert bundle.foliations[0].is_rest
    assert bundle.foliations[1].velocity == (Fraction(3, 5), Fraction(0), Fraction(0))
    assert bundle.foliations[2].velocity == (Fraction(0), Fraction(1, 2), Fraction(0))
    assert all(f.exact for f in bundle.foliations)


def test_scenario_write_read_round_trip_is_byte_identical(tmp_path):
    bundle = load_scenario_file(data_path("demo_scenario.json"))
    first = tmp_path / "first.json"
    second = tmp_path / "second.json"
    write_scenario_file(bundle, first)
    reloaded = load_scenario_file(first)
    write_scenario_file(reloaded, second)
    assert first.read_bytes() == second.read_bytes()
    assert dump_scenario(bundle) == dump_scenario(reloaded)


COORDS = st.fractions(min_value=-3, max_value=3, max_denominator=6)
SPEEDS = st.fractions(min_value=Fraction(-1, 2), max_value=Fraction(1, 2), max_denominator=6)
VELOCITIES = st.tuples(SPEEDS, SPEEDS, SPEEDS)
FLOAT_SPEED = st.floats(min_value=-0.5, max_value=0.5)
FLOAT_VELOCITIES = st.tuples(FLOAT_SPEED, FLOAT_SPEED, FLOAT_SPEED)
SPECIES = ("a", "b", "c")


@st.composite
def unitaries(draw):
    kind = draw(st.sampled_from(["swap", "identity", "explicit"]))
    if kind == "swap":
        return swap_unitary()
    if kind == "identity":
        return identity_unitary()
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    q, _ = np.linalg.qr(rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4)))
    return TwoSlotUnitary(q)


@st.composite
def rules(draw, name):
    pairs = draw(st.lists(st.tuples(st.sampled_from(SPECIES), st.sampled_from(SPECIES)),
                          max_size=3))
    mapping = tuple((pair, draw(unitaries())) for pair in pairs)
    return InteractionRule(name, mapping, draw(st.none() | unitaries()))


def clear_of_ties(events, foliation):
    """Whether every two leaf cores of `events` under the float `foliation`
    are equal or further apart than 1000 times the tie tolerance."""
    cores = sorted(foliation.leaf_core(e) for _, e in events)
    return all(b == a or b - a > 1000 * FLOAT_TIE_TOLERANCE for a, b in zip(cores, cores[1:]))


@st.composite
def scenario_bundles(draw):
    """Pairs of lines crossing at drawn events, a drawn state, 1-3 rules and
    2-3 foliations, rational or float (away from float ties)."""
    lines = []
    for _ in range(draw(st.integers(1, 2))):
        event = Event(*draw(st.tuples(COORDS, COORDS, COORDS, COORDS)))
        first = draw(VELOCITIES)
        for velocity in (first, draw(VELOCITIES.filter(lambda v: v != first))):
            lines.append(Worldline(len(lines), draw(st.sampled_from(SPECIES)), event, velocity))
    amplitudes = np.array(draw(st.lists(
        st.complex_numbers(max_magnitude=4, allow_nan=False, allow_infinity=False),
        min_size=2 ** len(lines), max_size=2 ** len(lines))))
    norm = np.linalg.norm(amplitudes)
    assume(norm > 1e-3)
    try:
        scenario = Scenario("drawn", tuple(lines), SpinState(len(lines), amplitudes / norm))
    except CoincidentWorldlines:
        assume(False)
    names = draw(st.lists(st.sampled_from(["free", "flip", "mixed"]), min_size=1, unique=True))
    velocities = draw(st.lists(VELOCITIES | FLOAT_VELOCITIES, min_size=2, max_size=3))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", ExactnessWarning)
        foliations = [Foliation(v) for v in velocities]
    assume(all(f.exact or clear_of_ties(scenario.events.entries, f) for f in foliations))
    return ScenarioBundle(scenario, {name: draw(rules(name)) for name in names}, foliations)


def report_text(bundle):
    """The report of the bundle's first and last rule (a lone rule against itself)."""
    names = sorted(bundle.rules)
    rule_a, rule_b = bundle.rules[names[0]], bundle.rules[names[-1]]
    return render_report(narratability_report(bundle.scenario, rule_a, rule_b, bundle.foliations))


@settings(max_examples=60)
@given(scenario_bundles())
def test_scenario_files_round_trip(bundle):
    doc = dump_scenario(bundle)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", ExactnessWarning)  # float foliation components
        reloaded = parse_scenario(json.loads(json.dumps(doc)))
    assert dump_scenario(reloaded) == doc
    assert [f.velocity for f in reloaded.foliations] == [f.velocity for f in bundle.foliations]
    assert [f.exact for f in reloaded.foliations] == [f.exact for f in bundle.foliations]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # little-group warnings for spin-carrying states
        try:
            expected = report_text(bundle)
        except OverlappingSimultaneousPairs:
            assume(False)
        assert report_text(reloaded) == expected


def test_dump_scenario_shape():
    bundle = load_scenario_file(data_path("demo_scenario.json"))
    doc = dump_scenario(bundle)
    assert doc["particles"][0]["start"] == {"t": "0", "x": "-1", "y": "0", "z": "0"}
    assert doc["particles"][2]["velocity"] == ["0", "-1/2", "0"]
    assert doc["foliations"][1] == ["3/5", "0", "0"]
    # the singlet product becomes an explicit amplitude vector
    amps = doc["initial_state"]["amplitudes"]
    assert len(amps) == 16
    assert amps[5] == pytest.approx(0.5)
    assert doc["rules"]["flip"] == [
        {"pair": ["s1", "s3"], "unitary": "swap"},
        {"pair": ["s2", "s4"], "unitary": "swap"},
    ]


def test_rationals_parse_exactly_and_ints_are_exact():
    doc = minimal_doc()
    doc["particles"][0]["velocity"] = ["3/5", "0", "0"]
    doc["particles"][0]["start"] = {"t": 2, "x": "-7/3", "y": 0, "z": 0}
    bundle = parse_scenario(doc)
    line = bundle.scenario.worldlines[0]
    assert line.velocity[0] == Fraction(3, 5)
    assert line.start.x == Fraction(-7, 3)
    assert line.start.t == Fraction(2)


def reference_rational(text, where):
    """A rational string read as Fraction(text) after the length and exponent
    guards, with the same error messages as `_exact_rational`."""
    if len(text) > 100:
        raise ParseError(f"{where}: rational string longer than 100 characters")
    exponent = re.search(r"e[-+]?([\d_]*)", text, re.IGNORECASE)
    if exponent and int(exponent[1].replace("_", "") or 0) > 100:
        raise ParseError(f"{where}: rational {text!r} has an exponent beyond 100")
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise ParseError(f"{where}: cannot parse rational {text!r}") from None


def rational_outcome(read, text):
    try:
        return read(text, "here")
    except ParseError as exc:
        return str(exc)


RATIONAL_TEXT = "0123456789/+-_ .eE\t\u0663"


@given(st.one_of(
    st.text(RATIONAL_TEXT, max_size=12),
    st.text(RATIONAL_TEXT, min_size=95, max_size=105),
    # plain spellings, at times with a zero or a signed denominator
    st.from_regex(r"[-+]?[0-9]{1,30}(/[-+]?(0+|[0-9]{1,30}))?", fullmatch=True),
    # the same with Unicode digits and whitespace
    st.from_regex(r"\s?[-+]?\d{1,30}(/\d{1,30})?\s?", fullmatch=True),
))
def test_rational_strings_read_as_fraction_reads_them(text):
    got = rational_outcome(fileio._exact_rational, text)
    want = rational_outcome(reference_rational, text)
    assert type(got) is type(want)
    assert got == want


def test_plain_rational_spellings():
    read = fileio._exact_rational
    assert read("+3/5", "at") == read("0021/35", "at") == Fraction(3, 5)
    assert read("-0", "at") == 0 and read("-12", "at") == -12
    with pytest.raises(ParseError, match=r"^at: cannot parse rational '3/0'$"):
        read("3/0", "at")
    # non-ASCII digits, whitespace and underscores are Fraction()'s to read
    assert read("\u0663/5", "at") == read(" 3/5 ", "at") == read("3_0/5_0", "at") == Fraction(3, 5)


def test_float_coordinate_warns_and_reads_as_printed_decimal():
    doc = minimal_doc()
    doc["particles"][0]["start"] = {"t": 0.5, "x": 0, "y": 0, "z": 0}
    with pytest.warns(ExactnessWarning, match="3/5"):
        bundle = parse_scenario(doc)
    assert bundle.scenario.worldlines[0].start.t == Fraction(1, 2)


def test_a_bad_rational_string_is_reported_at_its_first_position():
    doc = minimal_doc()
    doc["particles"][0]["velocity"] = ["0", "0", "1/0"]
    doc["particles"][0]["start"] = {"t": 0, "x": "0", "y": "1/0", "z": 0}
    doc["foliations"] = [["1/0", "0", "0"]]
    with pytest.raises(ParseError) as caught:
        parse_scenario(doc)
    assert str(caught.value) == "scenario.particles[0].start.y: cannot parse rational '1/0'"


def test_a_repeated_float_coordinate_warns_at_each_position():
    doc = minimal_doc()
    doc["particles"][0]["start"] = {"t": 0.5, "x": 0, "y": 0.5, "z": 0}
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        bundle = parse_scenario(doc)
    assert [(w.category, str(w.message).split(": bare")[0]) for w in caught] == [
        (ExactnessWarning, "scenario.particles[0].start.t"),
        (ExactnessWarning, "scenario.particles[0].start.y"),
    ]
    start = bundle.scenario.worldlines[0].start
    assert start.t == start.y == Fraction(1, 2)


def test_each_distinct_rational_string_is_parsed_once_per_file(monkeypatch):
    read = []
    exact = fileio._exact_rational

    def counted(value, *where):
        read.append(value)
        return exact(value, *where)

    monkeypatch.setattr(fileio, "_exact_rational", counted)
    doc = json.loads(data_path("demo_scenario.json").read_text())
    strings = [c for p in doc["particles"] for c in [*p["start"].values(), *p["velocity"]]]
    strings += [c for f in doc["foliations"] for c in f]
    lines = parse_scenario(doc).scenario.worldlines
    assert sorted(read) == sorted(set(strings)) and len(read) < len(strings)
    # the memo lasts one call: a second parse reads every string again
    read.clear()
    assert parse_scenario(doc).scenario.worldlines == lines
    assert sorted(read) == sorted(set(strings))


def test_float_foliation_component_stays_float():
    doc = minimal_doc()
    doc["foliations"] = [[0.3, 0, 0]]
    with pytest.warns(ExactnessWarning, match="1e-9 tolerance"):
        bundle = parse_scenario(doc)
    fol = bundle.foliations[0]
    assert isinstance(fol.velocity[0], float)
    assert fol.velocity[0] == 0.3
    assert not fol.exact


def test_float_foliation_dumps_as_numbers_and_reads_back_float():
    bundle = load_scenario_file(data_path("demo_scenario.json"))
    bundle.foliations.append(Foliation((0.6, 0, 0)))
    doc = dump_scenario(bundle)
    assert doc["foliations"][3] == [0.6, 0.0, 0.0]
    assert doc["foliations"][1] == ["3/5", "0", "0"]
    with pytest.warns(ExactnessWarning, match="1e-9 tolerance"):
        reloaded = parse_scenario(json.loads(json.dumps(doc)))
    assert reloaded.foliations[3].velocity == (0.6, 0.0, 0.0)
    assert not reloaded.foliations[3].exact
    assert dump_scenario(reloaded) == doc


def test_invalid_json_reports_line_and_column(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text('{"particles": [,]}')
    with pytest.raises(ParseError, match=r"line 1 column"):
        load_scenario_file(bad)


def test_missing_file_is_a_parse_error(tmp_path):
    with pytest.raises(ParseError, match="cannot read"):
        load_scenario_file(tmp_path / "nope.json")


@pytest.mark.parametrize("key", ["particles", "initial_state", "rules", "foliations"])
def test_missing_top_level_key(key):
    doc = minimal_doc()
    del doc[key]
    with pytest.raises(ParseError, match=key):
        parse_scenario(doc)


def test_particle_field_errors():
    doc = minimal_doc()
    del doc["particles"][0]["velocity"]
    with pytest.raises(ParseError, match=r"particles\[0\].*velocity"):
        parse_scenario(doc)

    doc = minimal_doc()
    doc["particles"][0]["start"] = [0, 0, 0]
    with pytest.raises(ParseError, match=r"\{t,x,y,z\} or a 4-list"):
        parse_scenario(doc)

    doc = minimal_doc()
    doc["particles"][0]["velocity"] = ["0", "0"]
    with pytest.raises(ParseError, match="3-list"):
        parse_scenario(doc)

    doc = minimal_doc()
    doc["particles"][0]["start"] = {"t": "1/0", "x": 0, "y": 0, "z": 0}
    with pytest.raises(ParseError, match="cannot parse rational"):
        parse_scenario(doc)

    doc = minimal_doc()
    doc["particles"][0]["start"] = {"t": True, "x": 0, "y": 0, "z": 0}
    with pytest.raises(ParseError, match="expected a rational"):
        parse_scenario(doc)


def test_particle_start_may_be_a_4_list_or_leave_out_zero_coordinates():
    doc = json.loads(data_path("demo_scenario.json").read_text())
    listed, sparse = copy.deepcopy(doc), copy.deepcopy(doc)
    for particle in listed["particles"]:
        particle["start"] = [particle["start"][k] for k in "txyz"]
    for particle in sparse["particles"]:
        particle["start"] = {k: v for k, v in particle["start"].items() if v != "0"}
    assert sparse["particles"][0]["start"] == {"x": "-1"}
    lines = parse_scenario(doc).scenario.worldlines
    assert parse_scenario(listed).scenario.worldlines == lines
    assert parse_scenario(sparse).scenario.worldlines == lines


def test_superluminal_velocity_is_a_parse_error():
    doc = minimal_doc()
    doc["particles"][0]["velocity"] = ["5/3", "0", "0"]
    with pytest.raises(ParseError, match=r"particles\[0\]"):
        parse_scenario(doc)


def test_bad_ids_and_coincident_lines_become_parse_errors():
    doc = minimal_doc()
    doc["particles"][0]["id"] = 1
    with pytest.raises(ParseError, match="ids"):
        parse_scenario(doc)

    doc = minimal_doc()
    doc["particles"].append(copy.deepcopy(doc["particles"][0]))
    doc["particles"][1]["id"] = 1
    doc["initial_state"] = {"amplitudes": [1, 0, 0, 0]}
    with pytest.raises(ParseError, match="coincide"):
        parse_scenario(doc)


def test_initial_state_requires_a_known_key():
    doc = minimal_doc()
    doc["initial_state"] = {"mystery": 1}
    with pytest.raises(ParseError, match="singlet_pairs.*amplitudes"):
        parse_scenario(doc)


def test_amplitudes_normalized_only_when_needed():
    doc = minimal_doc()
    doc["initial_state"] = {"amplitudes": [1, 1]}
    bundle = parse_scenario(doc)
    amps = bundle.scenario.initial_state.amplitudes
    np.testing.assert_allclose(np.abs(amps), [2**-0.5, 2**-0.5], atol=1e-15)

    # an exactly normalized vector is left untouched, keeping round trips stable
    doc["initial_state"] = {"amplitudes": [[0, 1], 0]}
    bundle = parse_scenario(doc)
    assert bundle.scenario.initial_state.amplitudes[0] == 1j


def test_zero_amplitudes_rejected():
    doc = minimal_doc()
    doc["initial_state"] = {"amplitudes": [0, 0]}
    with pytest.raises(ParseError, match="zero vector"):
        parse_scenario(doc)


@pytest.mark.parametrize("entries, plain", [
    ([1e308, 1e308], [1, 1]), ([[1e308, 1e308], 0], [[1, 1], 0]),
    ([1e-160, 1e-160], [1, 1]), ([1e-200, 1e-200], [1, 1]), ([1e-320, 0], [1, 0]),
    ([[0, -5e-324], 0], [[0, -1], 0])])
def test_amplitudes_whose_norm_over_or_underflows_are_normalized(entries, plain):
    # the plain norm is inf, 0 or from a subnormal sum of squares with few
    # correct digits: the parts are divided by the largest first
    doc = minimal_doc()
    doc["initial_state"] = {"amplitudes": entries}
    got = parse_scenario(doc).scenario.initial_state.amplitudes
    doc["initial_state"] = {"amplitudes": plain}
    assert np.array_equal(got, parse_scenario(doc).scenario.initial_state.amplitudes)


@pytest.mark.parametrize("vector, state", [([1e-320, 0], [1, 0]), ([0, 1e308], [0, 1]),
                                           ([1e-160, 1e-160], [2**-0.5, 2**-0.5]),
                                           ([1e-200, 1e-200], [2**-0.5, 2**-0.5])])
def test_single_slot_vectors_whose_norm_over_or_underflows_are_normalized(vector, state):
    doc = minimal_doc()
    doc["initial_state"] = {"singlet_pairs": [], "singles": {"0": vector}}
    got = parse_scenario(doc).scenario.initial_state.amplitudes
    np.testing.assert_allclose(got, state, rtol=0, atol=1e-15)


def test_normalize_vector_keeps_a_finite_norm_on_its_bits():
    # only a norm that overflows or is below fileio._LEAST_PLAIN_NORM takes the
    # scaled path; 1e-150 is above it
    vec = np.array([1e-150, 3e-151, 0], dtype=complex)
    assert np.array_equal(fileio.normalize_vector(vec, "v"), vec / np.linalg.norm(vec))
    vec = np.array([1e150, -2e150j, 0], dtype=complex)
    assert np.array_equal(fileio.normalize_vector(vec, "v"), vec / np.linalg.norm(vec))
    with pytest.raises(ParseError, match="v: zero vector"):
        fileio.normalize_vector(np.zeros(3, dtype=complex), "v")


def test_wrong_amplitude_dimension_rejected():
    doc = minimal_doc()
    doc["initial_state"] = {"amplitudes": [1, 0, 0]}
    with pytest.raises(ParseError, match="amplitudes"):
        parse_scenario(doc)


def test_singlet_pairs_with_singles():
    doc = minimal_doc()
    doc["particles"] = [
        {
            "id": i,
            "species": f"s{i}",
            "start": {"t": 0, "x": i, "y": 0, "z": 0},
            "velocity": ["0", "0", "0"],
        }
        for i in range(3)
    ]
    doc["initial_state"] = {"singlet_pairs": [[0, 1]], "singles": {"2": [2, 0]}}
    bundle = parse_scenario(doc)
    expected = singlet_product(
        3, PairingSpec(((0, 1),), ((2, np.array([1.0, 0.0])),))
    )
    np.testing.assert_allclose(
        bundle.scenario.initial_state.amplitudes, expected.amplitudes, atol=1e-15
    )


def test_bad_singlet_pairing_is_a_parse_error():
    doc = minimal_doc()
    doc["initial_state"] = {"singlet_pairs": [[0, 0]]}
    with pytest.raises(ParseError):
        parse_scenario(doc)


def pair_doc(initial_state):
    doc = minimal_doc()
    doc["particles"].append(copy.deepcopy(doc["particles"][0]))
    doc["particles"][1].update(id=1, start={"t": 0, "x": 1, "y": 0, "z": 0})
    doc["initial_state"] = initial_state
    return doc


@pytest.mark.parametrize("initial_state, second_id, where", [
    pytest.param({"singlet_pairs": [[0, 1]]}, 1.0, "particles[1].id", id="float-id"),
    pytest.param({"singlet_pairs": [[0, 1]]}, True, "particles[1].id", id="bool-id"),
    pytest.param({"singlet_pairs": [[0, 1.0]]}, 1, "singlet_pairs[0][1]", id="float-entry"),
    pytest.param({"singlet_pairs": [[0, "x"]]}, 1, "singlet_pairs[0][1]", id="text-entry"),
    pytest.param({"singlet_pairs": [[0, 1, 1]]}, 1, "singlet_pairs[0]", id="three-entries"),
    pytest.param({"singlet_pairs": [{"a": 0}]}, 1, "singlet_pairs[0]", id="object-pair"),
    pytest.param({"singlet_pairs": [], "singles": {"-1": [1, 0], "1": [1, 0]}}, 1,
                 "singles[-1]", id="negative-key"),
    pytest.param({"singlet_pairs": [], "singles": {"1.0": [1, 0], "0": [1, 0]}}, 1,
                 "singles[1.0]", id="decimal-key"),
    pytest.param({"singlet_pairs": [], "singles": [[1, 0], [1, 0]]}, 1,
                 "initial_state.singles", id="singles-list"),
])
def test_slot_numbers_are_integers(initial_state, second_id, where):
    doc = pair_doc(initial_state)
    doc["particles"][1]["id"] = second_id
    with pytest.raises(ParseError, match=re.escape(where)):
        parse_scenario(doc)


def test_slot_numbers_may_be_digit_strings():
    doc = pair_doc({"singlet_pairs": [], "singles": {"0": [1, 0], "1": [0, 1]}})
    doc["particles"][1]["id"] = "1"
    bundle = parse_scenario(doc)
    assert [w.id for w in bundle.scenario.worldlines] == [0, 1]
    assert abs(bundle.scenario.initial_state.amplitudes[1]) == 1


def test_rule_default_entry_round_trip():
    doc = minimal_doc()
    doc["rules"] = {"always-swap": [{"unitary": "swap"}]}
    bundle = parse_scenario(doc)
    rule = bundle.rules["always-swap"]
    assert np.array_equal(rule.unitary_for("a", "b").matrix, swap_unitary().matrix)
    dumped = dump_scenario(bundle)
    assert dumped["rules"]["always-swap"] == [{"unitary": "swap"}]
    again = parse_scenario(dumped)
    assert np.array_equal(
        again.rules["always-swap"].unitary_for("x", "y").matrix,
        swap_unitary().matrix,
    )


def test_swap_entries_parse_to_the_shared_swap():
    doc = minimal_doc()
    as_matrix = [[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]]
    doc["rules"] = {"named": [{"unitary": "swap"}], "matrix": [{"unitary": as_matrix}]}
    bundle = parse_scenario(doc)
    named = bundle.rules["named"].unitary_for("a", "b")
    assert named is swap_unitary()
    # a swap written out as a matrix is a unitary of its own that is still a swap
    spelled = bundle.rules["matrix"].unitary_for("a", "b")
    assert spelled is not swap_unitary() and spelled.is_swap
    assert dump_scenario(bundle)["rules"]["matrix"] == [{"unitary": "swap"}]


def test_rule_matrix_unitary_round_trip():
    phase = [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, -1]]
    doc = minimal_doc()
    doc["rules"] = {"phase": [{"pair": ["a", "a"], "unitary": phase}]}
    bundle = parse_scenario(doc)
    matrix = bundle.rules["phase"].unitary_for("a", "a").matrix
    assert np.array_equal(matrix, np.diag([1, 1, 1, -1]).astype(complex))
    dumped = dump_scenario(bundle)
    reparsed = parse_scenario(dumped)
    assert np.array_equal(
        reparsed.rules["phase"].unitary_for("a", "a").matrix, matrix
    )


def test_rule_errors():
    doc = minimal_doc()
    doc["rules"] = {"r": [{"pair": ["a", "b"]}]}
    with pytest.raises(ParseError, match="unitary"):
        parse_scenario(doc)

    doc["rules"] = {"r": [{"unitary": "swap"}, {"unitary": "identity"}]}
    with pytest.raises(ParseError, match="only one default"):
        parse_scenario(doc)

    doc["rules"] = {"r": [{"pair": ["a"], "unitary": "swap"}]}
    with pytest.raises(ParseError, match="two species names"):
        parse_scenario(doc)

    doc["rules"] = {"r": [{"pair": ["a", "b"], "unitary": "frobnicate"}]}
    with pytest.raises(ParseError, match="'swap', 'identity', or a 4x4 matrix"):
        parse_scenario(doc)

    doc["rules"] = {"r": [{"pair": ["a", "b"], "unitary": [[2, 0, 0, 0]] * 4}]}
    with pytest.raises(ParseError, match="not unitary"):
        parse_scenario(doc)

    doc["rules"] = {}
    with pytest.raises(ParseError, match="non-empty object"):
        parse_scenario(doc)

    doc["rules"] = {"r": {"pair": 1}}
    with pytest.raises(ParseError, match="list of"):
        parse_scenario(doc)


def test_foliation_errors():
    doc = minimal_doc()
    doc["foliations"] = [["0", "0"]]
    with pytest.raises(ParseError, match="3-list"):
        parse_scenario(doc)

    doc["foliations"] = [["1", "0", "0"]]
    with pytest.raises(ParseError, match=r"foliations\[0\]"):
        parse_scenario(doc)

    doc["foliations"] = []
    with pytest.raises(ParseError, match="non-empty list"):
        parse_scenario(doc)


# -- kernel files -------------------------------------------------------------


def test_packaged_kernels_load():
    swap = load_kernel_file(data_path("spin_swap.kernel.json"))
    assert swap.out_slots == ("q1", "q2")
    assert swap.in_slots == ("p1", "p2")
    assert swap.deltas == ((0, 1, -1, 0), (1, 0, 0, -1))
    assert swap.smooth_prefactor_present
    assert dict(swap.metadata)["spin"].startswith("outgoing spins")
    assert not analyze(swap).compliant

    single = load_kernel_file(data_path("single_delta.kernel.json"))
    assert single.deltas == ((1, 1, -1, -1),)
    assert analyze(single).compliant


def test_kernel_rational_and_float_coefficients():
    doc = {
        "in_slots": ["p1", "p2"],
        "out_slots": ["q1", "q2"],
        "deltas": [{"q1": "1/2", "p1": "-1/2"}],
    }
    kernel = parse_kernel(doc)
    assert kernel.deltas == ((Fraction(1, 2), 0, Fraction(-1, 2), 0),)

    doc["deltas"] = [{"q1": 0.5, "p1": -0.5}]
    with pytest.warns(ExactnessWarning):
        kernel = parse_kernel(doc)
    assert kernel.deltas == ((Fraction(1, 2), 0, Fraction(-1, 2), 0),)


def test_kernel_errors():
    base = {
        "in_slots": ["p1", "p2"],
        "out_slots": ["q1", "q2"],
        "deltas": [{"q1": 1, "p1": -1}],
    }

    doc = copy.deepcopy(base)
    del doc["deltas"]
    with pytest.raises(ParseError, match="deltas"):
        parse_kernel(doc)

    # q1 named twice; the deltas name only known slots, so the repeat is the one fault
    doc = copy.deepcopy(base)
    doc["in_slots"] = ["q1", "p1"]
    with pytest.raises(ParseError, match="unique"):
        parse_kernel(doc)

    # a repeated q1 that also drops p1, which the deltas name: either fault is reported
    doc = copy.deepcopy(base)
    doc["in_slots"] = ["q1", "p2"]
    with pytest.raises(ParseError):
        parse_kernel(doc)

    doc = copy.deepcopy(base)
    doc["deltas"] = [{"nope": 1}]
    with pytest.raises(ParseError, match="unknown slot 'nope'"):
        parse_kernel(doc)

    doc = copy.deepcopy(base)
    doc["deltas"] = ["not-a-map"]
    with pytest.raises(ParseError, match="map"):
        parse_kernel(doc)

    doc = copy.deepcopy(base)
    doc["deltas"] = [{"q1": 0}]
    with pytest.raises(ParseError):
        parse_kernel(doc)

    doc = copy.deepcopy(base)
    doc["metadata"] = ["not-an-object"]
    with pytest.raises(ParseError, match="metadata"):
        parse_kernel(doc)

    doc = copy.deepcopy(base)
    doc["in_slots"] = "p1"
    with pytest.raises(ParseError, match="lists of names"):
        parse_kernel(doc)

    with pytest.raises(ParseError, match="JSON object"):
        parse_kernel(["not", "a", "dict"])


# -- matrix and vector files --------------------------------------------------


def test_parse_matrix_entries():
    m = parse_matrix([[1, 0], [0, [0, -1]]], "m")
    assert m.dtype == complex
    assert m[1, 1] == -1j

    m = parse_matrix({"matrix": [[1.5]]}, "m")
    assert m[0, 0] == 1.5


def test_parse_matrix_errors():
    with pytest.raises(ParseError, match="list of rows"):
        parse_matrix([], "m")
    with pytest.raises(ParseError, match="list of rows"):
        parse_matrix({"rows": []}, "m")
    with pytest.raises(ParseError, match="unequal"):
        parse_matrix([[1, 2], [3]], "m")
    with pytest.raises(ParseError, match=r"m\[0\]\[1\]"):
        parse_matrix([[1, True]], "m")
    with pytest.raises(ParseError, match=r"\[re, im\]"):
        parse_matrix([[[1, 2, 3]]], "m")


def test_parse_vector():
    v = parse_vector([1, [0, 1]], "v")
    assert v[1] == 1j
    v = parse_vector({"vector": [2]}, "v")
    assert v[0] == 2
    with pytest.raises(ParseError, match="list of entries"):
        parse_vector([], "v")
    with pytest.raises(ParseError, match=r"v\[0\]"):
        parse_vector([None], "v")


def reference_entry(value, where):
    """One matrix or vector entry read on its own, with the messages of the
    per-entry reader."""
    parts = value if isinstance(value, list) and len(value) == 2 else [value]
    if not all(isinstance(v, (int, float)) and not isinstance(v, bool) for v in parts):
        raise ParseError(f"{where}: expected a number or [re, im], got {value!r}")
    try:
        z = complex(*parts)
    except OverflowError:
        raise ParseError(f"{where}: integer too large for a float") from None
    if not cmath.isfinite(z):
        raise ParseError(f"{where}: {value!r} is not a finite number")
    return z


def reference_matrix(doc, where):
    if not isinstance(doc, list) or not doc or not all(isinstance(r, list) for r in doc):
        raise ParseError(f"{where}: expected a list of rows")
    if len({len(r) for r in doc}) != 1:
        raise ParseError(f"{where}: rows have unequal lengths")
    return np.array([[reference_entry(v, f"{where}[{i}][{j}]") for j, v in enumerate(row)]
                     for i, row in enumerate(doc)], dtype=complex)


def reference_vector(doc, where):
    if not isinstance(doc, list) or not doc:
        raise ParseError(f"{where}: expected a list of entries")
    return np.array([reference_entry(v, f"{where}[{i}]") for i, v in enumerate(doc)],
                    dtype=complex)


def read_outcome(read, doc, where):
    try:
        value = read(doc, where)
    except ParseError as exc:
        return str(exc)
    return value.dtype, value.shape, value.tobytes()


# ints, floats (NaN, +-inf and -0.0 among them) and integers at and beyond the
# float range, alone or as [re, im] pairs
NUMBERS = st.one_of(
    st.integers(-2**64, 2**64),
    st.floats(allow_nan=False, allow_infinity=False),
    st.floats(),
    st.sampled_from([0.0, -0.0]),
    st.integers(2**1023, 2**1025).map(lambda n: n * (-1) ** (n % 2)),
)
PAIRS = st.lists(NUMBERS, min_size=2, max_size=2)
NON_FINITE = st.sampled_from([float("nan"), float("inf"), -float("inf")])
FORMS = {"number": NUMBERS, "pair": PAIRS, "mixed": st.one_of(NUMBERS, PAIRS)}
# entries neither reader takes: the per-entry one names each
HOSTILE = st.one_of(
    st.booleans(), st.none(), st.text(max_size=3),
    st.lists(NUMBERS, max_size=3).filter(lambda parts: len(parts) != 2),
    st.lists(PAIRS, min_size=2, max_size=2),
    st.lists(st.one_of(NUMBERS, st.booleans(), st.none()), min_size=2, max_size=2),
    st.dictionaries(st.text(max_size=1), NUMBERS, max_size=1),
)


@st.composite
def entry_docs(draw, dims):
    """A matrix (dims 2) or vector (dims 1) doc of one form, at times with one
    hostile or non-finite entry in it, or with one row made longer."""
    entry = FORMS[draw(st.sampled_from(sorted(FORMS)))]
    shape = [draw(st.integers(1, 4)) for _ in range(dims)]
    if dims == 1:
        doc = draw(st.lists(entry, min_size=shape[0], max_size=shape[0]))
        rows = [doc]
    else:
        doc = [draw(st.lists(entry, min_size=shape[1], max_size=shape[1]))
               for _ in range(shape[0])]
        rows = doc
    spoil = draw(st.sampled_from(["none", "none", "hostile", "non-finite", "ragged"]))
    row = rows[draw(st.integers(0, len(rows) - 1))]
    if spoil == "hostile":
        row[draw(st.integers(0, len(row) - 1))] = draw(HOSTILE)
    elif spoil == "non-finite":
        part = draw(NON_FINITE)
        row[draw(st.integers(0, len(row) - 1))] = draw(
            st.sampled_from([part, [part, 0], [0, part]]))
    elif spoil == "ragged":
        row.append(draw(entry))
    return doc


@settings(max_examples=300)
@given(entry_docs(2))
def test_matrices_read_as_the_per_entry_reference_reads_them(doc):
    assert read_outcome(parse_matrix, doc, "m") == read_outcome(reference_matrix, doc, "m")


@settings(max_examples=300)
@given(entry_docs(1))
def test_vectors_read_as_the_per_entry_reference_reads_them(doc):
    assert read_outcome(parse_vector, doc, "v") == read_outcome(reference_vector, doc, "v")


def test_only_a_doc_of_mixed_or_faulty_entries_is_read_entry_by_entry(monkeypatch):
    calls = []
    per_entry = fileio._complex_entry

    def counted(value, *where):
        calls.append(value)
        return per_entry(value, *where)

    monkeypatch.setattr(fileio, "_complex_entry", counted)
    for doc in ([[1, 0.5], [-0.0, 2**70]], [[[1, 0], [0, -0.0]], [[2, 3], [0.5, 1e308]]]):
        assert parse_matrix(doc, "m").shape == (2, 2)
        assert parse_vector(doc[0], "v").shape == (2,)
    assert calls == []
    assert parse_vector([1, [0, 1]], "v").tolist() == [1, 1j]
    assert calls == [1, [0, 1]]
    for doc, message in [
        ([[1, 2], [3, float("nan")]], "m[1][1]: nan is not a finite number"),
        ([[[1, 2], [3, 10**400]]], "m[0][1]: integer too large for a float"),
        ([[1, 2], [3, True]], "m[1][1]: expected a number or [re, im], got True"),
        ([[[1, 2], [3, 4, 5]]], "m[0][1]: expected a number or [re, im], got [3, 4, 5]"),
    ]:
        with pytest.raises(ParseError) as caught:
            parse_matrix(doc, "m")
        assert str(caught.value) == message


def test_matrix_and_vector_files(tmp_path):
    mpath = tmp_path / "m.json"
    mpath.write_text(json.dumps({"matrix": [[0, 1], [1, 0]]}))
    np.testing.assert_array_equal(load_matrix_file(mpath), [[0, 1], [1, 0]])

    vpath = tmp_path / "v.json"
    vpath.write_text(json.dumps([1, 0, 0]))
    np.testing.assert_array_equal(load_vector_file(vpath), [1, 0, 0])


def test_generator_files(tmp_path):
    path = tmp_path / "g.json"
    path.write_text(json.dumps({"H": [[1, 0], [0, 2]], "K1": {"matrix": [[0, 1], [1, 0]]}}))
    gens = load_generator_file(path)
    assert list(gens.present()) == ["H", "K1"]
    np.testing.assert_array_equal(gens.K1, [[0, 1], [1, 0]])

    for doc, located in [
        ([[0]], ": expected an object of named generators"),
        ({"H": [[0]], "Q": [[0]]}, ": unknown generator names ['Q']; allowed: ['H', 'P1', 'P2', "
                                   "'P3', 'J1', 'J2', 'J3', 'K1', 'K2', 'K3']"),
        ({"H": [[0, "x"]]}, ".H[0][1]: expected a number or [re, im], got 'x'"),
    ]:
        path.write_text(json.dumps(doc))
        with pytest.raises(ParseError) as caught:
            load_generator_file(path)
        assert str(caught.value) == f"{path}{located}"
