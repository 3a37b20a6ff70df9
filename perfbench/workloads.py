"""The three workloads: how an op is prepared, run and checked.

A run measures a pool of ops, `make(0)` to `make(pool - 1)`, round after
round.  Each workload has:

- `make(index)`: op `index` of the pool, built from the seed, with its input
  properties (`Op.props`) and whatever the oracle needs;
- `variant(op, round_)`: the program's inputs for that op in that round.
  Every round gives the program new values at the same cost (a translated
  scenario, renamed kernel slots, a shifted energy), so no input recurs
  within a run;
- `run(args)`: the timed call into the package's public entry points;
- `check(op, round_, out)`: the oracle's disagreements, empty when correct.

None of these but `run` is timed.  All calls go through module attributes
(`narrative.evolve`, not a name bound at import), so the traced run sees them.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import subprocess
import sys
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from narratables import algebra, cli, clusterkit, geometry, narrative, quantum

import inputs
import oracle


@dataclass
class Op:
    index: int
    kind: str
    payload: object
    pairs: int = 0  # worldline pairs the op's scenario has
    foliations: int = 0  # foliations one op evolves under
    nonrest: int = 0  # of which not the rest frame
    props: dict = field(default_factory=dict)
    check_with: object = None  # oracle state built with the input


def _rule(name, rule_spec):
    unitaries = {"swap": quantum.swap_unitary(), "identity": quantum.identity_unitary()}
    mapping = tuple((pair, unitaries[u]) for pair, u in rule_spec["pairs"].items())
    default = unitaries[rule_spec["default"]] if rule_spec["default"] else None
    return narrative.InteractionRule(name, mapping, default)


def _events_props(spec, sc_oracle):
    return {"family": spec.family, "slots": len(spec.particles),
            "events": len(sc_oracle.events)}


class Frames:
    """One narratability report (and its rendering) per op."""

    name = "frames"
    pool = inputs.POOLS[name]

    def __init__(self, seed):
        self.seed = seed

    def make(self, index):
        spec, rules = inputs.frames_input(self.seed, index)
        foliations = [geometry.Foliation(v) for v in spec.foliations]
        rule_objs = tuple(_rule(name, spec.rules[name]) for name in rules)
        sc_oracle = oracle.ScenarioOracle(spec)
        props = _events_props(spec, sc_oracle)
        props["rules"] = " vs ".join(rules)
        props["foliation kind"] = {k: spec.foliation_kinds.count(k)
                                   for k in set(spec.foliation_kinds)}
        props["foliations"] = len(foliations)
        n_fol = len(spec.foliations)
        props["verdict"] = oracle.summary_class(
            [sc_oracle.verdict(i, *rules)[0] for i in range(n_fol)])
        histories = [sc_oracle.history(i, rule) for i in range(n_fol) for rule in rules]
        props["groups"] = {"fired": sum(len(h[0]) for h in histories),
                           "inert": sum(h[1] for h in histories)}
        nonrest = sum(k != "rest" for k in spec.foliation_kinds)
        return Op(index, spec.family, (spec, rules, foliations, rule_objs),
                  spec.n_pairs, len(foliations), nonrest, props, sc_oracle)

    def variant(self, op, round_):
        spec, _, foliations, rules = op.payload
        moved = inputs.translate(spec, inputs.round_shift(round_))
        lines = tuple(
            geometry.Worldline(i, sp, geometry.Event(*start), vel)
            for i, (sp, start, vel) in enumerate(moved.particles)
        )
        state = quantum.singlet_product(
            len(lines), quantum.PairingSpec(tuple(spec.singlet_pairs), tuple(spec.singles)))
        return spec.name, lines, state, foliations, rules

    def run(self, args):
        name, lines, state, foliations, (rule_a, rule_b) = args
        scenario = narrative.Scenario(name, lines, state)
        report = narrative.narratability_report(scenario, rule_a, rule_b, foliations)
        return report, narrative.render_report(report)

    def check(self, op, round_, out):
        spec, rules = op.payload[:2]
        sc_oracle = op.check_with.translated(inputs.round_shift(round_))
        return oracle.check_report(spec, rules, out[0], out[1], sc_oracle)


class Diagnostics:
    """One kernel lint or one algebra check per op, interleaved at a fixed ratio."""

    name = "diagnostics"
    pool = inputs.POOLS[name]

    def __init__(self, seed):
        self.seed = seed
        self.seen_kernels = set()

    def make(self, index):
        kind, payload = inputs.diagnostics_input(self.seed, index)
        props = {"op": kind}
        check_with = None
        if kind == "kernel":
            key = (payload.out_slots, payload.in_slots, payload.rows)
            props["kernel"] = oracle.kernel_class(payload)[0]
            props["kernel width"] = len(key[0]) + len(key[1])
            props["duplicate kernel"] = "repeat" if key in self.seen_kernels else "first"
            self.seen_kernels.add(key)
        elif kind == "solve":
            props["dimension"] = payload[0].shape[0]
        else:
            case, system = payload
            props["history case"] = case
            props["hermitian"] = "non-Hermitian" if case.endswith("nonhermitian") else "Hermitian"
            props["dimension"] = system[0].shape[0]
            check_with = oracle.expected_history(system, inputs.HISTORY_TIMES)
        return Op(index, kind, payload, props=props, check_with=check_with)

    def variant(self, op, round_):
        if op.kind == "kernel":
            spec = inputs.renamed(op.payload, round_)
            return op.kind, clusterkit.MomentumKernel(
                in_slots=spec.in_slots, out_slots=spec.out_slots,
                deltas=spec.rows, smooth_prefactor_present=spec.smooth)
        # adding a multiple of the identity to H0 changes neither W nor c(t)
        system = op.payload if op.kind == "solve" else op.payload[1]
        h0 = system[0] + round_ * inputs.ROUND_ENERGY * np.eye(system[0].shape[0])
        return op.kind, (h0,) + tuple(system[1:])

    def run(self, args):
        kind, payload = args
        if kind == "kernel":
            verdict = clusterkit.analyze(payload)
            canonical = clusterkit.canonicalize(payload) if verdict.conserves_momentum else None
            return verdict, canonical
        if kind == "solve":
            h0, v, k0 = payload
            return algebra.solve_W(algebra.SplitSystem(H0=h0, V=v, K0=(k0,)))
        h0, va, vb, psi, _ = payload
        return algebra.same_history_check(h0, va, vb, psi, inputs.HISTORY_TIMES)

    def check(self, op, round_, out):
        if op.kind == "kernel":
            return oracle.check_kernel(inputs.renamed(op.payload, round_), *out)
        if op.kind == "solve":
            return oracle.check_solve(self.variant(op, round_)[1], out)
        case, system = op.payload
        return oracle.check_same_history(case, system, op.check_with, *out)


class Cli:
    """One `cli.main` call per op, in this process, round-robin over commands.

    The program's start-up is measured apart, as setup_s (setup_probe.py):
    a child process's wall time spreads too much from run to run on a shared
    machine to bound.  The traced run also times every command as
    `python -m narratables.cli` in a child process (`run_child`).  Each round
    rewrites the op's files with that round's values.
    """

    name = "cli"
    pool = inputs.POOLS[name]

    def __init__(self, seed, root: Path, workdir: Path):
        self.seed = seed
        self.root = root
        self.workdir = workdir
        self.env = dict(os.environ, PYTHONPATH="src", NARRATABLES_COLOR="never")

    def make(self, index):
        kind, payload = inputs.cli_input(self.seed, index)
        props = {"command": kind}
        check_with = None
        pairs = foliations = nonrest = 0
        files = [str(self.workdir / f"{name}-{index}.json")
                 for name in {"compare-frames": ["scenario"], "simulate": ["scenario"],
                              "cluster-check": ["kernel"],
                              "solve-w": ["h0", "v", "k0"]}.get(kind, [])]
        if kind == "demo-paper":
            argv = ["demo-paper"]
        elif kind in ("compare-frames", "simulate"):
            spec, fol = payload
            check_with = oracle.ScenarioOracle(spec)
            props.update(_events_props(spec, check_with))
            pairs = spec.n_pairs
            if kind == "simulate":
                argv = ["simulate", files[0], "--rule", "flip", "--foliation", str(fol)]
                foliations, nonrest = 1, int(spec.foliation_kinds[fol] != "rest")
            else:
                argv = ["compare-frames", files[0]]
                foliations = len(spec.foliations)
                nonrest = sum(k != "rest" for k in spec.foliation_kinds)
        elif kind == "cluster-check":
            argv = ["cluster-check", files[0]]
            props["kernel"] = oracle.kernel_class(payload)[0]
        else:
            argv = ["algebra", "solve-w"] + files
            props["dimension"] = payload[0].shape[0]
        return Op(index, kind, (payload, argv, files), pairs, foliations, nonrest, props,
                  check_with)

    def _round_input(self, op, round_):
        payload = op.payload[0]
        if op.kind in ("compare-frames", "simulate"):
            spec, fol = payload
            return inputs.translate(spec, inputs.round_shift(round_)), fol
        if op.kind == "cluster-check":
            return inputs.renamed(payload, round_)
        if op.kind == "solve-w":
            h0, v, k0 = payload
            return h0 + round_ * inputs.ROUND_ENERGY * np.eye(h0.shape[0]), v, k0
        return payload

    def variant(self, op, round_):
        given = self._round_input(op, round_)
        if op.kind in ("compare-frames", "simulate"):
            docs = [inputs.scenario_doc(given[0])]
        elif op.kind == "cluster-check":
            docs = [given.doc()]
        else:
            docs = [inputs.matrix_doc(m) for m in given] if op.kind == "solve-w" else []
        for path, doc in zip(op.payload[2], docs):
            Path(path).write_text(json.dumps(doc))
        return op.payload[1]

    def run(self, argv):
        buffer = io.StringIO()
        with contextlib.redirect_stdout(buffer):
            try:
                code = cli.main(argv)
            except SystemExit as exc:
                code = exc.code
        return code, buffer.getvalue()

    def run_child(self, argv):
        done = subprocess.run(
            [sys.executable, "-m", "narratables.cli", *argv],
            cwd=self.root, env=self.env, capture_output=True, text=True, timeout=120,
        )
        return done.returncode, done.stdout

    def check(self, op, round_, out):
        code, stdout = out
        return oracle.check_cli(op.kind, self._round_input(op, round_), code, stdout,
                                op.check_with)
