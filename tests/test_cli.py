"""End-to-end command-line tests: output wording, CSV shape, exit codes.

Everything runs in-process through main(argv), by `corpus.run_cli`, with color
disabled via the environment so assertions see plain text.
"""

import json
import os
import subprocess
import sys
import warnings
from importlib import resources

import numpy as np
import pytest

import narratables
from narratables import algebra, cli
from narratables.cli import built_in_demo
from narratables.errors import ExactnessWarning
from narratables.fileio import (
    dump_scenario,
    load_scenario_file,
    parse_matrix,
    parse_vector,
    write_scenario_file,
)

from corpus import run_cli

DEMO = str(resources.files("narratables").joinpath("data", "demo_scenario.json"))


def csv_rows(path):
    lines = path.read_text().splitlines()
    assert lines[0] == "foliation_id,tau,overlap_magnitude"
    return [line.split(",") for line in lines[1:]]


# -- demo-paper ---------------------------------------------------------------


def test_demo_paper_reports_non_narratable():
    code, out, err = run_cli("demo-paper")
    assert code == 0
    assert err == ""
    assert "summary: NON_NARRATABLE" in out
    assert "(equal under foliation 0; differs under foliation 1)" in out
    assert "DIFFER at tau = 17/4, |overlap| = 0.5" in out
    assert "verdict: EQUAL" in out
    assert "note: histories are re-foliated" in out


def test_demo_paper_csv(tmp_path):
    target = tmp_path / "demo.csv"
    code, out, _ = run_cli("demo-paper", "--csv", str(target))
    assert code == 0
    rows = csv_rows(target)
    # one sampled tau grid per foliation: 3 (rest) + 5 (x-boost) + 3 (y-boost)
    assert len(rows) == 11
    assert [r[0] for r in rows] == ["0"] * 3 + ["1"] * 5 + ["2"] * 3
    mags = [float(r[2]) for r in rows]
    assert all(0.0 <= m <= 1.0 + 1e-12 for m in mags)
    boost_rows = [r for r in rows if r[0] == "1"]
    assert any(abs(float(r[2]) - 0.5) < 1e-12 for r in boost_rows)
    # taus are written with enough digits to round-trip exactly
    assert float(boost_rows[1][1]) == 17 / 4


# -- simulate -----------------------------------------------------------------


def test_simulate_free_rule_single_segment():
    code, out, _ = run_cli("simulate", DEMO, "--rule", "free", "--foliation", "0")
    assert code == 0
    assert "scenario: two-singlet crossing" in out
    assert "rule: free" in out
    assert "collision leaves: 0" in out
    assert "inert crossings (identity unitary): 1" in out
    assert "segments: 1" in out
    assert "segment 0 (all tau):" in out
    # the double singlet is constant throughout
    assert "|+-+-> +0.5" in out
    assert "|-+-+> +0.5" in out
    assert "|+--+> -0.5" in out
    assert "|-++-> -0.5" in out


def test_simulate_flip_rest():
    code, out, _ = run_cli("simulate", DEMO, "--rule", "flip", "--foliation", "0")
    assert code == 0
    assert "collision leaves: 1" in out
    assert "tau = 4: pairs (0,2), (1,3)" in out
    assert "segments: 2" in out
    assert "inert crossings" not in out


def test_simulate_flip_boosted_shows_repaired_middle():
    code, out, _ = run_cli("simulate", DEMO, "--rule", "flip", "--foliation", "1")
    assert code == 0
    assert "foliation 1: v = (3/5, 0, 0), gamma = 5/4" in out
    assert "collision leaves: 2" in out
    assert "tau = 17/4: pairs (1,3)" in out
    assert "tau = 23/4: pairs (0,2)" in out
    assert "segments: 3" in out
    assert "segment 1 (17/4 <= tau < 23/4):" in out
    middle = out.split("segment 1")[1].split("segment 2")[0]
    assert "|++--> -0.5" in middle
    assert "|+-+-> +0.5" in middle
    assert "|-+-+> +0.5" in middle
    assert "|--++> -0.5" in middle


def test_simulate_prints_an_imaginary_amplitude_without_a_real_part(tmp_path):
    # the demo plus a fifth line in the state 0.6|+> + 0.8i|->, crossing line 2
    # alone; the flip rule at foliation 1 leaves slot 4 as it is
    with open(DEMO) as fh:
        doc = json.load(fh)
    doc["particles"].append({"id": 4, "species": "s5", "velocity": ["1/2", "0", "0"],
                             "start": {"t": "0", "x": "-7", "y": "-4", "z": "0"}})
    doc["initial_state"]["singles"] = {"4": [[0.6, 0], [0, 0.8]]}
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        code, out, _ = run_cli("simulate", write_json(tmp_path / "single.json", doc),
                               "--rule", "flip", "--foliation", "1")
    assert code == 0
    segment = out.split("segment 0 (tau < 17/4):\n")[1].split("segment 1")[0]
    assert segment.splitlines()[:2] == ["  |+-+-+> +0.3", "  |+-+--> +0.4i"]


def test_simulate_csv_shapes(tmp_path):
    target = tmp_path / "sim.csv"
    code, _, _ = run_cli(
        "simulate", DEMO, "--rule", "flip", "--foliation", "1", "--csv", str(target)
    )
    assert code == 0
    rows = csv_rows(target)
    assert len(rows) == 41  # default tau grid
    taus = [float(r[1]) for r in rows]
    assert taus[0] == pytest.approx(17 / 4 - 1)
    assert taus[-1] == pytest.approx(23 / 4 + 1)
    mags = [float(r[2]) for r in rows]
    assert mags[0] == pytest.approx(1.0)
    assert any(abs(m - 0.5) < 1e-12 for m in mags)  # the repaired stretch
    assert mags[-1] == pytest.approx(1.0)  # roundtrip back to the start

    code, _, _ = run_cli(
        "simulate", DEMO, "--rule", "free", "--foliation", "0",
        "--csv", str(target), "--tau-grid", "5",
    )
    assert code == 0
    rows = csv_rows(target)
    assert len(rows) == 5
    assert all(float(r[2]) == pytest.approx(1.0) for r in rows)


def test_simulate_csv_takes_one_overlap_per_segment(tmp_path, monkeypatch):
    # 1001 samples on three segments: each sample's |overlap| is looked up by
    # its segment, with the bits of an overlap taken at that sample
    calls = []
    original = cli.overlap

    def counted(a, b):
        calls.append(b)
        return original(a, b)

    monkeypatch.setattr(cli, "overlap", counted)
    target = tmp_path / "sim.csv"
    code, _, _ = run_cli("simulate", DEMO, "--rule", "flip", "--foliation", "1",
                         "--tau-grid", "1001", "--csv", str(target))
    assert code == 0
    bundle = built_in_demo()
    history = cli.evolve(bundle.scenario, bundle.foliations[1], bundle.rules["flip"])
    assert len(calls) == len(history.segments) == 3
    rows = csv_rows(target)
    assert len(rows) == 1001
    for _, tau, mag in rows:
        state = history.state_at(float(tau))
        assert mag == f"{abs(original(history.segments[0], state)):.17g}"


def test_simulate_formats_its_taus_in_one_call(monkeypatch):
    # a history's groups share the frame's one scale: flip fires one group at
    # rest and two under the x boost, free none, and each run formats all its
    # taus in one call, whose strings label the leaves and the segments
    calls = []
    original = cli.format_taus

    def counted(foliation, keys, scale):
        calls.append(list(keys))
        return original(foliation, keys, scale)

    monkeypatch.setattr(cli, "format_taus", counted)
    for rule, index, fired, label in [("flip", "0", 1, "tau >= 4"),
                                      ("flip", "1", 2, "17/4 <= tau < 23/4"),
                                      ("free", "1", 0, "all tau")]:
        calls.clear()
        code, out, _ = run_cli("simulate", DEMO, "--rule", rule, "--foliation", index)
        assert code == 0
        assert [len(keys) for keys in calls] == [fired]
        assert f"({label})" in out


def test_simulate_error_exits(tmp_path):
    code, _, err = run_cli("simulate", DEMO, "--rule", "nope", "--foliation", "0")
    assert code == 5
    assert "error: rule 'nope' not defined" in err

    code, _, err = run_cli("simulate", DEMO, "--rule", "free", "--foliation", "9")
    assert code == 6
    assert "foliation index 9 outside 0..2" in err

    code, _, err = run_cli(
        "simulate", str(tmp_path / "missing.json"), "--rule", "free", "--foliation", "0"
    )
    assert code == 4
    assert "cannot read" in err

    bad = tmp_path / "bad.json"
    bad.write_text("{]")
    code, _, err = run_cli("simulate", str(bad), "--rule", "free", "--foliation", "0")
    assert code == 4
    assert "invalid JSON" in err

    superluminal = tmp_path / "fast.json"
    doc = json.loads(resources.files("narratables").joinpath(
        "data", "demo_scenario.json").read_text())
    doc["particles"][0]["velocity"] = ["5/3", "0", "0"]
    superluminal.write_text(json.dumps(doc))
    code, _, err = run_cli(
        "simulate", str(superluminal), "--rule", "free", "--foliation", "0"
    )
    assert code == 4

    crowded = tmp_path / "crowded.json"
    doc["particles"] = [
        {"id": i, "species": f"s{i}", "start": {"t": "0", "x": str(i), "y": "0", "z": "0"},
         "velocity": ["0", "0", "0"]}
        for i in range(14)
    ]
    doc["initial_state"] = {"singlet_pairs": [[2 * i, 2 * i + 1] for i in range(7)]}
    crowded.write_text(json.dumps(doc))
    code, out, err = run_cli("simulate", str(crowded), "--rule", "free", "--foliation", "0")
    assert (code, out) == (4, "")
    assert "14 slots exceed the cap of 12" in err


# -- compare-frames -----------------------------------------------------------


def test_compare_frames_default_rules():
    code, out, _ = run_cli("compare-frames", DEMO)
    assert code == 0
    assert "rules: free vs flip" in out
    assert "summary: NON_NARRATABLE" in out


def test_compare_frames_same_rule_agrees_everywhere():
    code, out, _ = run_cli("compare-frames", DEMO, "--rules", "flip", "flip")
    assert code == 0
    assert "NON_NARRATABLE" not in out
    assert "summary: histories agree under every tested foliation" in out


def test_float_foliation_warns_once_per_grouping(tmp_path):
    # one parse warning per float foliation, however many components are floats
    for float_foliation in ([0.6, 0, 0], [0.6, 0.0, 0.0]):
        with open(DEMO) as fh:
            doc = json.load(fh)
        doc["foliations"].append(float_foliation)
        path = tmp_path / "float.json"
        path.write_text(json.dumps(doc))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code, _, _ = run_cli("compare-frames", str(path))
        assert code == 0
        messages = [str(w.message) for w in caught if issubclass(w.category, ExactnessWarning)]
        assert sum("leaf ties grouped" in m for m in messages) == 1
        assert [m for m in messages if "float velocity component" in m] == [
            f"{path}.foliations[3]: float velocity component; leaf grouping will use "
            "a 1e-9 tolerance instead of exact comparison"]


# -- cluster-check ------------------------------------------------------------


def test_cluster_check_spin_swap_violates():
    code, out, _ = run_cli("cluster-check", "--builtin", "spin-swap")
    assert code == 2
    assert "kernel: 2 out (q1, q2), 2 in (p1, p2)" in out
    assert "smooth prefactor present: yes" in out
    assert "conserves momentum: yes" in out
    assert "constraint rank: 2" in out
    assert "canonical form:" in out
    assert "q1 + q2 - p1 - p2" in out
    assert "verdict: VIOLATION (extra delta on proper subset {q1, p2}: q1 - p2)" in out


def test_cluster_check_single_delta_compliant():
    code, out, _ = run_cli("cluster-check", "--builtin", "single-delta")
    assert code == 0
    assert "constraint rank: 1" in out
    assert "verdict: COMPLIANT (overall momentum conservation only)" in out


def test_cluster_check_non_conserving(tmp_path):
    path = tmp_path / "k.json"
    path.write_text(json.dumps({
        "in_slots": ["p1", "p2"],
        "out_slots": ["q1", "q2"],
        "deltas": [{"q1": 1, "p1": -1}],
    }))
    code, out, _ = run_cli("cluster-check", str(path))
    assert code == 3
    assert "conserves momentum: no" in out
    assert "verdict: NON-CONSERVING (overall momentum conservation is absent)" in out


def test_cluster_check_needs_a_kernel():
    code, _, err = run_cli("cluster-check")
    assert code == 4
    assert "kernel file path or --builtin" in err


# -- algebra ------------------------------------------------------------------


def write_json(path, doc):
    path.write_text(json.dumps(doc))
    return str(path)


def test_algebra_residuals_zero_generators(tmp_path):
    names = ["H", "P1", "P2", "P3", "J1", "J2", "J3", "K1", "K2", "K3"]
    gens = write_json(tmp_path / "g.json", {n: [[0]] for n in names})
    code, out, _ = run_cli("algebra", "residuals", gens)
    assert code == 0
    assert "generators: H, J1, J2, J3, K1, K2, K3, P1, P2, P3 (dim 1)" in out
    assert "bracket residuals (Frobenius norms):" in out
    residual_lines = [
        line for line in out.splitlines() if line.startswith("  [")
    ]
    assert len(residual_lines) == 45
    assert all(line.endswith(": 0") for line in residual_lines)


def test_algebra_residuals_rejects_unknown_names(tmp_path):
    gens = write_json(tmp_path / "g.json", {"H": [[0]], "Q": [[0]]})
    code, _, err = run_cli("algebra", "residuals", gens)
    assert code == 4
    assert "unknown generator names ['Q']" in err


@pytest.mark.parametrize("doc, why", [
    ({"H": [[0]], "K1": [[0, 1], [1, 0]]}, "K1 is 2x2, others are 1x1"),
    ({}, "no generators supplied"),
    ({"H": [[0]]}, "need at least two generators to check brackets"),
], ids=["mixed-dimensions", "empty-object", "one-generator"])
def test_algebra_residuals_malformed_generator_file_exits_4(tmp_path, doc, why):
    gens = write_json(tmp_path / "g.json", doc)
    code, out, err = run_cli("algebra", "residuals", gens)
    assert (code, out, err) == (4, "", f"error: {gens}: {why}\n")


def test_algebra_solve_w_frozen_example(tmp_path):
    h0 = write_json(tmp_path / "h0.json", [[0, 0], [0, 1]])
    v = write_json(tmp_path / "v.json", [[0, 0], [0, 0.5]])
    k0 = write_json(tmp_path / "k0.json", [[0, 1], [1, 0]])
    code, out, _ = run_cli("algebra", "solve-w", h0, v, k0)
    assert code == 0
    assert "dimension: 2" in out
    assert "-0.333333333333" in out
    assert "degenerate obstructions: none" in out
    residual_line = next(l for l in out.splitlines() if l.startswith("residual"))
    assert float(residual_line.split("=")[1]) < 1e-10


def test_algebra_solve_w_reports_degenerate_obstructions(tmp_path):
    # H = diag(1, 1, 2), with [K0, V] coupling the degenerate pair
    v = [[0, 0.5, 0], [0.5, 0, 0], [0, 0, 0]]
    h0 = write_json(tmp_path / "h0.json", [[1, -0.5, 0], [-0.5, 1, 0], [0, 0, 2]])
    k0 = write_json(tmp_path / "k0.json", [[1, 0, 0], [0, -1, 0], [0, 0, 0]])
    code, out, _ = run_cli("algebra", "solve-w", h0, write_json(tmp_path / "v.json", v), k0)
    assert code == 0
    assert out.splitlines()[-1] == "degenerate obstructions: (0,1), (1,0)"


def test_algebra_same_history_names_a_mismatched_interaction(tmp_path):
    h0 = write_json(tmp_path / "h0.json", [[1, 0, 0], [0, 2, 0], [0, 0, 3]])
    v = write_json(tmp_path / "v.json", [[0, 0, 0], [0, 0, 0], [0, 0, 0]])
    small = write_json(tmp_path / "small.json", [[0.5]])
    psi = write_json(tmp_path / "psi.json", [1, 0, 0])
    for va, vb, name in [(small, v, "Va"), (v, small, "Vb")]:
        code, out, err = run_cli("algebra", "same-history", h0, va, vb, psi)
        assert (code, out, err) == (7, "", f"error: {name} is 1x1, others are 3x3\n")


def test_algebra_same_history_yes_and_no(tmp_path):
    h0 = write_json(tmp_path / "h0.json", [[1, 0], [0, 2]])
    va = write_json(tmp_path / "va.json", [[0.3, 0], [0, 0.1]])
    psi = write_json(tmp_path / "psi.json", [1, 0])
    code, out, _ = run_cli("algebra", "same-history", h0, va, va, psi)
    assert code == 0
    assert "same history: yes" in out
    sample_lines = [l for l in out.splitlines() if l.strip().startswith("t = ")]
    assert len(sample_lines) == 5  # default --times grid
    assert all("|c| = 1" in l for l in sample_lines)

    vb = write_json(tmp_path / "vb.json", [[0, 1], [1, 0]])
    zero = write_json(tmp_path / "zero.json", [[0, 0], [0, 0]])
    sz = write_json(tmp_path / "sz.json", [[1, 0], [0, -1]])
    code, out, _ = run_cli(
        "algebra", "same-history", sz, zero, vb, psi, "--times", "0,0.5,1,2"
    )
    assert code == 0
    assert "same history: no" in out

    code, _, err = run_cli("algebra", "same-history", h0, va, va, psi,
                           "--times", "abc")
    assert code == 4
    assert "--times" in err

    upper = write_json(tmp_path / "upper.json", [[0, 0.4], [0, 0]])  # not Hermitian
    for vb in (va, upper):
        for times in ("nan", "inf", "0,0.5,-inf", "1,Infinity"):
            code, out, err = run_cli("algebra", "same-history", h0, va, vb, psi,
                                     "--times", times)
            assert (code, out) == (4, ""), times
            assert "--times" in err and "finite" in err


def test_algebra_boost_check(tmp_path):
    zero = write_json(tmp_path / "zero.json", [[0, 0], [0, 0]])
    sx = write_json(tmp_path / "sx.json", [[0, 1], [1, 0]])
    psi = write_json(tmp_path / "psi.json", [1, 0])
    code, out, _ = run_cli("algebra", "boost-check", zero, psi)
    assert code == 0
    assert "W acts nontrivially on psi: no" in out

    code, out, _ = run_cli("algebra", "boost-check", sx, psi)
    assert code == 0
    assert "W acts nontrivially on psi: yes" in out

    bad = write_json(tmp_path / "bad.json", [0, 0])
    code, _, err = run_cli("algebra", "boost-check", sx, bad)
    assert code == 4
    assert "zero vector" in err


@pytest.mark.parametrize("scale", [1e308, 1e-160, 1e-200])
def test_algebra_runs_on_a_state_whose_norm_over_or_underflows(tmp_path, scale):
    # [s, s, 0] is read as [1, 1, 0]/sqrt(2), not as an unnormalized or zero state
    h0 = write_json(tmp_path / "h0.json", [[1, 0, 0], [0, 2, 0], [0, 0, 3]])
    v = write_json(tmp_path / "v.json", [[0, 0, 0], [0, 0, 0], [0, 0, 0]])
    vb = write_json(tmp_path / "vb.json", [[0, 1, 0], [1, 0, 0], [0, 0, 0]])
    plain = write_json(tmp_path / "plain.json", [1, 1, 0])
    scaled = write_json(tmp_path / "scaled.json", [scale, scale, 0])
    for argv in (["same-history", h0, v, vb], ["boost-check", vb]):
        want = run_cli("algebra", *argv, plain)
        assert want[0] == 0
        assert run_cli("algebra", *argv, scaled) == want


def test_boost_check_prints_the_algebra_residual(tmp_path):
    w = [[0.1, 0.2, 0], [0.3, -1, [0, 0.5]], [0, 1, 2]]
    psi = [1, [0, 1], 0.5]
    code, out, _ = run_cli("algebra", "boost-check",
                           write_json(tmp_path / "w.json", w),
                           write_json(tmp_path / "psi.json", psi))
    assert code == 0
    vec = parse_vector(psi, "psi")
    residual = algebra.boost_residual(parse_matrix(w, "w"), vec / np.linalg.norm(vec))
    assert out == f"W acts nontrivially on psi: yes (residual norm = {residual:.12g})\n"


def test_cli_import_leaves_scipy_unloaded():
    # the package is numpy-only: not even a non-Hermitian history check loads scipy
    probe = (
        "import sys, numpy as np, narratables.cli\n"
        "print('scipy' in sys.modules)\n"
        "from narratables.algebra import same_history_check\n"
        "same_history_check(np.eye(2), np.array([[0, 1], [0, 0]]), np.zeros((2, 2)),\n"
        "                   np.array([1, 0]), [0.5])\n"
        "print('scipy' in sys.modules)\n"
    )
    src = os.path.dirname(os.path.dirname(narratables.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    result = subprocess.run([sys.executable, "-W", "ignore", "-c", probe],
                            capture_output=True, text=True, env=env, check=True)
    assert result.stdout.split() == ["False", "False"]


# -- usage, color, determinism ------------------------------------------------


def test_usage_errors_exit_64():
    code, _, err = run_cli()
    assert code == 64

    code, _, err = run_cli("simulate", DEMO, "--rule", "free")
    assert code == 64
    assert "--foliation" in err

    code, _, err = run_cli("no-such-command")
    assert code == 64


def test_main_builds_its_parser_once(tmp_path, monkeypatch):
    # one argparse tree serves every call: after a usage error, and without
    # carrying a previous call's --csv into the next
    monkeypatch.chdir(tmp_path)
    target = tmp_path / "demo.csv"
    cli.build_parser.cache_clear()
    assert run_cli("cluster-check", "--builtin", "spin-swap")[0] == 2
    assert run_cli("demo-paper", "--tolerance")[0] == 64
    code, with_csv, _ = run_cli("demo-paper", "--csv", str(target))
    assert code == 0
    target.unlink()
    assert run_cli("demo-paper") == (0, with_csv, "")
    assert run_cli("cluster-check", "--builtin", "single-delta")[0] == 0
    assert cli.build_parser.cache_info()[:2] == (4, 1)  # hits, builds
    assert list(tmp_path.iterdir()) == []


def test_color_modes():
    _, plain, _ = run_cli("demo-paper", color="never")
    assert "\x1b[" not in plain
    _, painted, _ = run_cli("demo-paper", color="always")
    assert "\x1b[1;31mNON_NARRATABLE\x1b[0m" in painted


def test_serialized_scenario_reproduces_builtin_output(tmp_path):
    path = tmp_path / "demo.json"
    write_scenario_file(built_in_demo(), path)
    args = ("--rule", "flip", "--foliation", "1")
    _, from_file, _ = run_cli("simulate", str(path), *args)
    _, from_packaged, _ = run_cli("simulate", DEMO, *args)
    assert from_file == from_packaged
    # and the dump itself is stable under a reload cycle
    assert dump_scenario(load_scenario_file(path)) == dump_scenario(built_in_demo())


def test_repeated_runs_are_byte_identical(tmp_path):
    first_csv, second_csv = tmp_path / "a.csv", tmp_path / "b.csv"
    code_a, out_a, _ = run_cli("demo-paper", "--csv", str(first_csv))
    code_b, out_b, _ = run_cli("demo-paper", "--csv", str(second_csv))
    assert (code_a, out_a) == (code_b, out_b)
    assert first_csv.read_bytes() == second_csv.read_bytes()


# -- hostile input ------------------------------------------------------------


def _scenario_edit(key, edit, located=None):
    """`located`, when given, is how the error line goes on after the file path."""
    def write(tmp_path):
        with open(DEMO) as fh:
            doc = json.load(fh)
        edit(doc)
        path = tmp_path / "hostile.json"
        # "HUGE" stands for a JSON integer beyond the interpreter's 4300-digit limit
        path.write_text(json.dumps(doc).replace('"HUGE"', "1" * 5000))
        return ["compare-frames", str(path)]
    return pytest.param(write, located, id=key)


def _kernel_coefficient(key, value):
    def write(tmp_path):
        doc = {"in_slots": ["p1"], "out_slots": ["q1"], "deltas": [{"q1": value, "p1": -1}]}
        return ["cluster-check", write_json(tmp_path / "k.json", doc)]
    return pytest.param(write, None, id=key)


def _same_history_va(key, entry):
    def write(tmp_path):
        return ["algebra", "same-history",
                write_json(tmp_path / "h0.json", [[1, 0], [0, 2]]),
                write_json(tmp_path / "va.json", [[1, entry], [0, 1]]),
                write_json(tmp_path / "vb.json", [[1, 0], [0, 1]]),
                write_json(tmp_path / "psi.json", [1, 0])]
    return pytest.param(write, None, id=key)


def _nested(key, command, text):
    def write(tmp_path):
        path = tmp_path / "nested.json"
        path.write_text(text)
        return [command, str(path)]
    return pytest.param(write, ": JSON nested too deeply", id=key)


def _set_x(value):
    return lambda doc: doc["particles"][0]["start"].__setitem__("x", value)


@pytest.mark.parametrize("write, located", [
    _same_history_va("nan-matrix-entry", float("nan")),
    _same_history_va("infinite-matrix-entry", float("inf")),
    _scenario_edit("nan-amplitude", lambda doc: doc.__setitem__(
        "initial_state", {"amplitudes": [float("nan")] + [0] * 15})),
    _scenario_edit("float-overflowing-amplitude", lambda doc: doc.__setitem__(
        "initial_state", {"amplitudes": [10**400] + [0] * 15})),
    _scenario_edit("nan-foliation", lambda doc: doc["foliations"].append([float("nan"), 0, 0]),
                   ".foliations[3]: |v|^2 = nan is not a number"),
    _scenario_edit("nan-coordinate", _set_x(float("nan")), ".particles[0].start.x: "),
    _scenario_edit("huge-exponent-coordinate", _set_x("1e99999999"), ".particles[0].start.x: "),
    _scenario_edit("long-rational-string", _set_x("1" * 101), ".particles[0].start.x: "),
    _scenario_edit("integer-beyond-digit-limit", _set_x("HUGE")),
    _scenario_edit("null-particle-id", lambda doc: doc["particles"][0].__setitem__("id", None)),
    _scenario_edit("fractional-particle-id", lambda doc: doc["particles"][0].__setitem__("id", 0.5)),
    _scenario_edit("null-pair-entry", lambda doc: doc["initial_state"].__setitem__(
        "singlet_pairs", [[0, None], [2, 3]])),
    _scenario_edit("one-entry-pair", lambda doc: doc["initial_state"].__setitem__(
        "singlet_pairs", [[0], [2, 3]])),
    _scenario_edit("singles-as-list", lambda doc: doc["initial_state"].__setitem__(
        "singles", [[1, 0]])),
    _scenario_edit("non-digit-singles-key", lambda doc: doc["initial_state"].update(
        singlet_pairs=[[0, 1]], singles={"x": [1, 0], "3": [1, 0]})),
    _kernel_coefficient("nan-kernel-coefficient", float("nan")),
    _kernel_coefficient("huge-exponent-kernel-coefficient", "1e99999999"),
    _nested("deeply-nested-scenario", "compare-frames", "[" * 10**5 + "]" * 10**5),
    _nested("deeply-nested-kernel", "cluster-check", '{"a": ' * 50_000 + "1" + "}" * 50_000),
])
def test_hostile_numbers_exit_4(tmp_path, write, located):
    argv = write(tmp_path)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", ExactnessWarning)
        code, out, err = run_cli(*argv)
    assert (code, out) == (4, "")
    assert err.startswith("error: " if located is None else f"error: {argv[-1]}{located}")


def _malformed(key, command, doc, located):
    """`located` is the error line after the file path."""
    def write(tmp_path):
        return [command, write_json(tmp_path / "malformed.json", doc)]
    return pytest.param(write, located, id=key)


KERNEL = {"in_slots": ["p1", "p2"], "out_slots": ["q1", "q2"], "deltas": [{"q1": 1, "p1": -1}]}


@pytest.mark.parametrize("write, located", [
    _malformed("scenario-not-an-object", "compare-frames", [], ": expected a JSON object"),
    _scenario_edit("empty-particles", lambda doc: doc.__setitem__("particles", []),
                   ".particles: expected a non-empty list"),
    _scenario_edit("particle-not-an-object", lambda doc: doc["particles"].__setitem__(1, "s2"),
                   ".particles[1]: expected an object"),
    _scenario_edit("start-3-list", lambda doc: doc["particles"][2].__setitem__(
        "start", ["0", "-1", "2"]), ".particles[2].start: expected {t,x,y,z} or a 4-list"),
    _scenario_edit("initial-state-not-an-object", lambda doc: doc.__setitem__(
        "initial_state", [[0, 1], [2, 3]]), ".initial_state: expected an object"),
    _scenario_edit("singlet-pairs-not-a-list", lambda doc: doc["initial_state"].__setitem__(
        "singlet_pairs", {"0": 1, "2": 3}),
        ".initial_state.singlet_pairs: expected a list of [a, b] pairs"),
    _scenario_edit("zero-singles-vector", lambda doc: doc.__setitem__("initial_state", {
        "singlet_pairs": [[0, 1]], "singles": {"2": [1, 0], "3": [0, [0, 0]]}}),
        ".initial_state.singles[3]: zero vector"),
    _scenario_edit("null-velocity-component", lambda doc: doc["particles"][1].__setitem__(
        "velocity", [None, "0", "0"]),
        ".particles[1].velocity[0]: expected a rational, got NoneType"),
    _scenario_edit("list-foliation-component", lambda doc: doc["foliations"][1].__setitem__(
        0, ["3/5"]), ".foliations[1][0]: expected a rational, got list"),
    _malformed("kernel-deltas-not-a-list", "cluster-check", dict(KERNEL, deltas={"q1": 1}),
               ": deltas must be a list of {slot: coefficient} maps"),
    _malformed("kernel-name-in-and-out", "cluster-check", dict(KERNEL, in_slots=["p1", "q2"]),
               ": slot names must be unique"),
    _malformed("kernel-name-twice-in-one-list", "cluster-check",
               dict(KERNEL, out_slots=["q1", "q1"]), ": slot names must be unique"),
])
def test_malformed_files_exit_4(tmp_path, write, located):
    argv = write(tmp_path)
    assert run_cli(*argv) == (4, "", f"error: {argv[-1]}{located}\n")


def test_foliation_within_rounding_of_light_speed_runs(tmp_path):
    # v = 1 - 1e-48 squares to 1.0 in floats; gamma comes from the exact 1 - v.v
    with open(DEMO) as fh:
        doc = json.load(fh)
    doc["foliations"].append(["9" * 48 + "/1" + "0" * 48, "0", "0"])
    code, out, err = run_cli("compare-frames", write_json(tmp_path / "fast.json", doc))
    assert (code, err) == (0, "")
    assert "gamma = 7.07106781187e+23" in out


def _far_crossing(tmp_path, *foliations):
    """Two lines from x = -/+(1e190 - 1e100) at t = 0 with speeds +/-1e-189,
    which cross at a tau beyond the float range, under the rest frame, x 3/5
    and `foliations`."""
    far, slow = "9" * 90 + "e100", "0." + "0" * 88 + "1e-100"
    doc = {"name": "far", "initial_state": {"singlet_pairs": [[0, 1]]},
           "particles": [{"id": i, "species": "s", "velocity": [sign + slow, "0", "0"],
                          "start": {"t": "0", "x": other + far, "y": "0", "z": "0"}}
                         for i, (sign, other) in enumerate((("", "-"), ("-", "")))],
           "rules": {"flip": [{"unitary": "swap"}], "free": []},
           "foliations": [["0", "0", "0"], ["3/5", "0", "0"], *foliations]}
    return write_json(tmp_path / "far.json", doc)


def test_crossing_beyond_the_float_range_prints_its_exact_tau(tmp_path):
    tau = str((10**190 - 10**100) * 10**189)  # at rest: t = x / v
    for argv in (("compare-frames",), ("simulate", "--rule", "flip", "--foliation", "0")):
        code, out, err = run_cli(*argv[:1], _far_crossing(tmp_path), *argv[1:])
        assert (code, err) == (0, "")
        assert f"tau = {tau}" in out or f"tau < {tau}" in out


@pytest.mark.parametrize("argv, what", [
    pytest.param(("simulate", "--rule", "flip", "--foliation", "0", "--csv"),
                 "CSV breakpoint tau", id="simulate-csv"),
    pytest.param(("compare-frames", "--csv"), "CSV tau of foliation 0", id="compare-frames-csv"),
    pytest.param(("compare-frames",), "float foliation (0.6, 0.0, 0.0): t of crossing (0, 1)",
                 id="compare-frames-float-foliation"),
    pytest.param(("simulate", "--rule", "flip", "--foliation", "2"),
                 "float foliation (0.6, 0.0, 0.0): t of crossing (0, 1)",
                 id="simulate-float-foliation"),
])
def test_a_float_of_a_crossing_beyond_the_float_range_exits_7(tmp_path, argv, what):
    # a CSV holds floats, and a float foliation takes each event as floats:
    # an exact value past the float range is named, and nothing is printed
    csv = (str(tmp_path / "out.csv"),) if argv[-1] == "--csv" else ()
    path = _far_crossing(tmp_path) if csv else _far_crossing(tmp_path, [0.6, 0.0, 0.0])
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", ExactnessWarning)
        code, out, err = run_cli(argv[0], path, *argv[1:], *csv)
    assert (code, out) == (7, "")
    assert err.startswith(f"error: {what} = 9999") and err.endswith(" is beyond the float range\n")
    assert not (tmp_path / "out.csv").exists()


@pytest.mark.parametrize("argv", [
    pytest.param(("demo-paper", "--tolerance", "nan"), id="nan-tolerance"),
    pytest.param(("demo-paper", "--tolerance", "inf"), id="infinite-tolerance"),
    pytest.param(("demo-paper", "--tolerance", "-1"), id="negative-tolerance"),
    pytest.param(("compare-frames", DEMO, "--tolerance", "nan"), id="compare-nan-tolerance"),
    pytest.param(("simulate", DEMO, "--rule", "flip", "--foliation", "1", "--tau-grid", "0"),
                 id="zero-tau-grid"),
    pytest.param(("simulate", DEMO, "--rule", "flip", "--foliation", "1", "--tau-grid", "-3"),
                 id="negative-tau-grid"),
    pytest.param(("simulate", DEMO, "--rule", "flip", "--foliation", "1",
                  "--tau-grid", "1000001"), id="tau-grid-above-the-cap"),
])
def test_bad_flag_values_exit_4(argv):
    code, out, err = run_cli(*argv)
    assert (code, out) == (4, "")
    assert err.startswith(f"error: {argv[-2]}: ")


def test_tolerance_zero_is_allowed():
    code, out, _ = run_cli("demo-paper", "--tolerance", "0")
    assert code == 0
    assert "summary:" in out


@pytest.mark.parametrize("argv", [
    ("demo-paper",),
    ("compare-frames", DEMO),
    ("simulate", DEMO, "--rule", "flip", "--foliation", "1"),
])
def test_unwritable_csv_path_exits_4(tmp_path, argv):
    # the CSV is written before the report is printed: nothing reaches stdout
    target = tmp_path / "missing" / "out.csv"
    code, out, err = run_cli(*argv, "--csv", str(target))
    assert (code, out) == (4, "")
    assert err.startswith(f"error: cannot write {target}: ")
    assert not target.exists()
