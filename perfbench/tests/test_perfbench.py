"""Tests of the benchmark itself: inputs, oracles, tracing and output format.

Run from the repository root:  python3 -m pytest perfbench/tests -q
"""

import json
import pickle
import shutil
import subprocess
import sys
import warnings
from fractions import Fraction
from importlib import resources
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import inputs  # noqa: E402
import oracle  # noqa: E402
import run  # noqa: E402
import speed  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from narratables import cli, clusterkit, fileio, geometry, narrative  # noqa: E402


def _builtin(name):
    return json.loads(resources.files("narratables").joinpath("data", name).read_text())


def _demo_spec():
    doc = _builtin("demo_scenario.json")
    particles = [
        (p["species"], tuple(Fraction(p["start"][k]) for k in "txyz"),
         tuple(Fraction(v) for v in p["velocity"]))
        for p in doc["particles"]
    ]
    foliations = [tuple(Fraction(c) for c in v) for v in doc["foliations"]]
    rules = {"free": {"default": None, "pairs": {}}, "flip": {"default": "swap", "pairs": {}}}
    return inputs.ScenarioSpec("demo", "tied", particles, [(0, 1), (2, 3)], [], foliations,
                               ["rest", "exact", "irrational"], rules)


def _traced_ops(workload, count):
    tracer = tracing.Tracer()
    tracer.install()
    ops = []
    try:
        for index in range(count):
            op = workload.make(index)
            args = workload.variant(op, 0)
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                tracer.begin_op(op)
                workload.run(args)
                tracer.end_op(caught)
            ops.append(op)
    finally:
        tracer.uninstall()
    return tracer, ops


def test_same_seed_gives_identical_inputs():
    for make in (inputs.frames_input, inputs.diagnostics_input, inputs.cli_input):
        for index in range(8):
            assert pickle.dumps(make(3, index)) == pickle.dumps(make(3, index))
    assert pickle.dumps(inputs.frames_input(3, 0)) != pickle.dumps(inputs.frames_input(4, 0))


def test_demo_transcript_matches_the_cli(capsys, monkeypatch):
    monkeypatch.setenv("NARRATABLES_COLOR", "never")
    assert cli.main(["demo-paper"]) == 0
    assert capsys.readouterr().out == oracle.DEMO_TRANSCRIPT


def test_scenario_oracle_agrees_on_the_builtin_demo():
    spec = _demo_spec()
    bundle = cli.built_in_demo()
    report = narrative.narratability_report(
        bundle.scenario, bundle.rules["free"], bundle.rules["flip"], bundle.foliations)
    sc_oracle = oracle.ScenarioOracle(spec)
    assert oracle.check_report(spec, ("free", "flip"), report,
                               narrative.render_report(report), sc_oracle) == []
    assert sc_oracle.verdict(1, "free", "flip") == (False, Fraction(17, 5), pytest.approx(0.5))
    assert [len(sc_oracle.groups(i)) for i in range(3)] == [1, 2, 1]


@pytest.mark.parametrize("name, expected", [
    ("spin_swap.kernel.json", "violation"),
    ("single_delta.kernel.json", "compliant"),
])
def test_kernel_oracle_agrees_on_the_builtin_kernels(name, expected):
    kernel = fileio.parse_kernel(_builtin(name))
    spec = inputs.KernelSpec(kernel.out_slots, kernel.in_slots, kernel.deltas, True)
    assert oracle.kernel_class(spec)[0] == expected
    verdict = clusterkit.analyze(kernel)
    canonical = clusterkit.canonicalize(kernel) if verdict.conserves_momentum else None
    assert oracle.check_kernel(spec, verdict, canonical) == []


@pytest.mark.parametrize("name", ["frames", "diagnostics"])
def test_seeded_ops_agree_with_the_oracles_in_every_round(name):
    workload = run.make_workload(name, 5, None)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        for index in range(min(inputs.CYCLES[name], 12)):
            op = workload.make(index)
            for round_ in (0, 1, 7):
                out = workload.run(workload.variant(op, round_))
                assert workload.check(op, round_, out) == [], (name, index, round_)


def test_rounds_give_new_values_at_the_same_shape():
    frames, diagnostics = workloads.Frames(5), workloads.Diagnostics(5)
    op = frames.make(1)
    first, second = frames.variant(op, 0)[1], frames.variant(op, 1)[1]
    assert first != second
    assert [w.velocity for w in first] == [w.velocity for w in second]
    kinds = {}
    for index in range(6):
        op = diagnostics.make(index)
        kinds[op.kind] = (diagnostics.variant(op, 0)[1], diagnostics.variant(op, 1)[1])
    kernel_0, kernel_1 = kinds["kernel"]
    assert kernel_0.out_slots != kernel_1.out_slots and kernel_0.deltas == kernel_1.deltas
    for kind in ("solve", "history"):
        (h0_0, *rest_0), (h0_1, *rest_1) = kinds[kind]
        assert (h0_0 != h0_1).any()


def test_cli_ops_agree_with_the_oracles(tmp_path, monkeypatch):
    monkeypatch.setenv("NARRATABLES_COLOR", "never")
    workload = workloads.Cli(5, ROOT, tmp_path)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        for index in range(2 * inputs.CYCLES["cli"]):
            op = workload.make(index)
            out = workload.run(workload.variant(op, 0))
            assert workload.check(op, 0, out) == [], (op.kind, index)
    op = workload.make(1)
    assert workload.check(op, 1, workload.run_child(workload.variant(op, 1))) == []


def test_oracles_reject_wrong_outputs():
    spec, _ = inputs.frames_input(5, 0)  # a tied scenario: NON_NARRATABLE for free vs flip
    workload = workloads.Frames(5)
    op = workload.make(0)
    name, lines, state, foliations, _ = workload.variant(op, 0)
    scenario = narrative.Scenario(name, lines, state)
    free = narrative.free_rule()
    wrong = narrative.narratability_report(scenario, free, free, foliations)
    assert oracle.check_report(spec, ("free", "flip"), wrong, narrative.render_report(wrong),
                               oracle.ScenarioOracle(spec))
    kernel = fileio.parse_kernel(_builtin("spin_swap.kernel.json"))
    compliant = fileio.parse_kernel(_builtin("single_delta.kernel.json"))
    spec = inputs.KernelSpec(kernel.out_slots, kernel.in_slots, kernel.deltas, True)
    assert oracle.check_kernel(spec, clusterkit.analyze(compliant), None)
    assert oracle.check_cli("demo-paper", None, 0, oracle.DEMO_TRANSCRIPT.replace("0.5", "0.6"))
    assert oracle.check_cli("demo-paper", None, 7, oracle.DEMO_TRANSCRIPT)


def test_frames_calls_per_pair_and_spin_guard_counts_on_the_seed_code():
    tracer, ops = _traced_ops(workloads.Frames(5), 6)
    collide = tracer.per_op_counts("geometry.collide")
    norms = tracer.per_op_counts("quantum.angular_momentum_norms")
    for op, calls, guards in zip(ops, collide, norms):
        assert calls == 3 * op.foliations * op.pairs
        assert guards == 2 * op.nonrest
    metrics = tracer.metrics()
    expected = sum(3 * op.foliations for op in ops) / len(ops)
    assert metrics["geometry.collide.calls_per_pair"] == pytest.approx(expected)


def test_one_evolve_calls_collide_once_per_pair_on_the_seed_code(tmp_path, monkeypatch):
    monkeypatch.setenv("NARRATABLES_COLOR", "never")
    workload = workloads.Cli(5, ROOT, tmp_path)
    op = workload.make(2)
    assert op.kind == "simulate"
    tracer = tracing.Tracer()
    tracer.install()
    try:
        with warnings.catch_warnings(record=True) as caught:
            tracer.begin_op(op)
            workload.run(workload.variant(op, 0))
            tracer.end_op(caught)
    finally:
        tracer.uninstall()
    assert tracer.per_op_counts("geometry.collide") == [op.pairs]
    assert tracer.calls_per_pair_by_kind() == {"simulate": 1.0}


def test_tracer_restores_every_name_and_tolerates_a_missing_target(monkeypatch):
    original = geometry.collision_schedule
    monkeypatch.delattr(clusterkit, "_rref")
    tracer, _ = _traced_ops(workloads.Frames(5), 1)
    assert geometry.collision_schedule is original
    assert narrative.collision_schedule is original
    assert tracer.absent == ["clusterkit._rref"]
    assert tracer.metrics()["clusterkit._rref.calls"] == 0


def test_latencies_scale_by_the_reference_time_around_them():
    clock = speed.Speed()
    # the reference took 2x its nominal time for the first 10 s, then 1x
    clock.times = [0.1 * k for k in range(200)]
    clock.durations = [(2.0 if t < 10 else 1.0) * speed.REFERENCE_MS / 1e3 for t in clock.times]
    assert clock.normalize(3.0, 0.2) == pytest.approx(0.1)
    assert clock.normalize(15.0, 0.2) == pytest.approx(0.2)
    # past the last sample, the nearest samples stand in
    assert clock.normalize(50.0, 0.2) == pytest.approx(0.2)


def _run(cwd, workload, trace):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "2",
         "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=300)


def test_every_workload_prints_the_metrics_of_benchmark_json():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    expected = {
        0: {m["name"]: m["unit"] for m in bench["end_to_end"]},
        1: {m["name"]: m["unit"] for m in bench["per_layer"]},
    }
    for workload in (w["name"] for w in bench["workloads"]):
        for trace in (0, 1):
            done = _run(ROOT, workload, trace)
            assert done.returncode == 0, done.stderr
            result = json.loads(done.stdout.strip().splitlines()[-1])
            assert set(result) == {"correct", "attempted", "failed", "metrics"}
            assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
            units = {name: m["unit"] for name, m in result["metrics"].items()}
            assert units == expected[trace], (workload, trace)
            assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())


def test_fails_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    done = _run(tmp_path, "frames", 0)
    assert done.returncode != 0
    assert done.stdout == ""
