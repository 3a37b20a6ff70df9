"""Command-line front end.

Subcommands: demo-paper, simulate, compare-frames, cluster-check, and the
algebra group (residuals, solve-w, same-history, boost-check).  Exit codes:
0 success/compliant, 2 cluster violation, 3 non-conserving kernel, 4 parse
error, 5 unknown rule, 6 index out of range, 7 other domain errors, 64 usage.
Set NARRATABLES_COLOR to auto (default), never, or always.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys
from importlib import resources

from . import algebra, clusterkit, fileio
from .errors import IndexOutOfRange, NarratablesError, ParseError, UnknownRule
from .geometry import Foliation, as_float
from .narrative import (COMPARISON_TOLERANCE, evolve, format_foliation, format_pairs,
                        format_scalar, format_taus, narratability_report, paint, render_report)
from .quantum import overlap

EXIT_OK = 0
EXIT_VIOLATION = 2
EXIT_NONCONSERVING = 3
EXIT_PARSE = 4
EXIT_UNKNOWN_RULE = 5
EXIT_INDEX = 6
EXIT_DOMAIN = 7
EXIT_USAGE = 64

# error class -> exit code; the first class the error is an instance of wins
ERROR_EXIT_CODES = {
    ParseError: EXIT_PARSE,
    UnknownRule: EXIT_UNKNOWN_RULE,
    IndexOutOfRange: EXIT_INDEX,
    NarratablesError: EXIT_DOMAIN,
    ValueError: EXIT_DOMAIN,
}

# the most tau samples `simulate --csv` takes; every row is held in memory
MAX_TAU_GRID = 10**6

BUILTIN_KERNELS = {
    "spin-swap": "spin_swap.kernel.json",
    "single-delta": "single_delta.kernel.json",
}


def _color_enabled() -> bool:
    mode = os.environ.get("NARRATABLES_COLOR", "auto")
    if mode == "always":
        return True
    if mode == "never":
        return False
    return sys.stdout.isatty()


def _fmt_amplitude(z: complex) -> str:
    if abs(z.imag) <= 1e-12:
        return f"{z.real:+.12g}"
    if abs(z.real) <= 1e-12:
        return f"{z.imag:+.12g}i"
    return f"({z.real:+.12g}{z.imag:+.12g}i)"


def _write_overlap_csv(path, rows) -> None:
    try:
        with open(path, "w", newline="") as fh:
            fh.write("foliation_id,tau,overlap_magnitude\n")
            for foliation_id, tau, mag in rows:
                fh.write(f"{foliation_id},{float(tau):.17g},{float(mag):.17g}\n")
    except OSError as exc:
        raise ParseError(f"cannot write {path}: {exc}") from exc


def _packaged_json(name: str):
    return json.loads(resources.files("narratables").joinpath("data", name).read_text())


def built_in_demo() -> fileio.ScenarioBundle:
    """The crossing-singlets scenario of the packaged data/demo_scenario.json."""
    return fileio.parse_scenario(_packaged_json("demo_scenario.json"), "builtin:demo")


def _report(bundle, rule_names, args) -> int:
    """Print the narratability report of `bundle` under two of its rules, after
    writing its overlap samples when --csv is given."""
    if not 0 <= args.tolerance < math.inf:
        raise ParseError(f"--tolerance: {args.tolerance} is not a finite, non-negative number")
    rule_a, rule_b = (_resolve_rule(bundle, name) for name in rule_names)
    report = narratability_report(
        bundle.scenario, rule_a, rule_b, bundle.foliations, tol=args.tolerance
    )
    if args.csv:
        _write_overlap_csv(args.csv, report.csv_rows())
    print(render_report(report, colorize=_color_enabled()))
    return EXIT_OK


def cmd_demo_paper(args) -> int:
    return _report(built_in_demo(), ("free", "flip"), args)


def _resolve_rule(bundle, name: str):
    if name not in bundle.rules:
        raise UnknownRule(
            f"rule {name!r} not defined; choose from {sorted(bundle.rules)}"
        )
    return bundle.rules[name]


def _resolve_foliation(bundle, index: int) -> Foliation:
    if not 0 <= index < len(bundle.foliations):
        raise IndexOutOfRange(
            f"foliation index {index} outside 0..{len(bundle.foliations) - 1}"
        )
    return bundle.foliations[index]


def cmd_simulate(args) -> int:
    if args.tau_grid < 1:
        raise ParseError(f"--tau-grid: {args.tau_grid} is not a positive number of samples")
    if args.tau_grid > MAX_TAU_GRID:
        raise ParseError(f"--tau-grid: {args.tau_grid} is more than {MAX_TAU_GRID} samples")
    bundle = fileio.load_scenario_file(args.scenario)
    rule = _resolve_rule(bundle, args.rule)
    foliation = _resolve_foliation(bundle, args.foliation)
    history = evolve(bundle.scenario, foliation, rule)

    if args.csv:
        breakpoints = history.breakpoints
        if breakpoints:
            lo = as_float(breakpoints[0], "CSV breakpoint tau") - 1.0
            hi = as_float(breakpoints[-1], "CSV breakpoint tau") + 1.0
        else:
            lo, hi = -1.0, 1.0
        # one |overlap| per segment, looked up by each sample's segment
        initial = history.segments[0]
        magnitudes = [abs(overlap(initial, state)) for state in history.segments]
        rows = []
        for k in range(args.tau_grid):
            tau = lo + (hi - lo) * k / (args.tau_grid - 1) if args.tau_grid > 1 else lo
            rows.append((args.foliation, tau, magnitudes[history.segment_index(tau)]))
        _write_overlap_csv(args.csv, rows)

    print(f"scenario: {bundle.scenario.name}")
    print(f"rule: {rule.name}")
    print(format_foliation(args.foliation, foliation))
    print(f"collision leaves: {len(history.groups)}")
    # a history's groups share the frame's one scale
    scale = history.groups[0].scale if history.groups else 1
    taus = format_taus(foliation, [g.key for g in history.groups], scale)
    for g, tau in zip(history.groups, taus):
        events = ", ".join(
            "(t={}, x={}, y={}, z={})".format(*(map(format_scalar, e.coordinates())))
            for _, e in g.collisions
        )
        print(f"  tau = {tau}: pairs {format_pairs(g.pairs)} at {events}")
    if history.inert_groups:
        print(f"inert crossings (identity unitary): {len(history.inert_groups)}")
    print(f"segments: {len(history.segments)}")
    for i, segment in enumerate(history.segments):
        if not taus:
            span = "all tau"
        elif i == 0:
            span = f"tau < {taus[0]}"
        elif i == len(taus):
            span = f"tau >= {taus[-1]}"
        else:
            span = f"{taus[i - 1]} <= tau < {taus[i]}"
        print(f"segment {i} ({span}):")
        for label, amp in segment.nonzero_terms():
            print(f"  |{label}> {_fmt_amplitude(amp)}")
    return EXIT_OK


def cmd_compare_frames(args) -> int:
    return _report(fileio.load_scenario_file(args.scenario), args.rules, args)


def _kernel_from_args(args) -> clusterkit.MomentumKernel:
    if args.builtin:
        doc = _packaged_json(BUILTIN_KERNELS[args.builtin])
        return fileio.parse_kernel(doc, f"builtin:{args.builtin}")
    if not args.kernel:
        raise ParseError("give a kernel file path or --builtin NAME")
    return fileio.load_kernel_file(args.kernel)


def cmd_cluster_check(args) -> int:
    kernel = _kernel_from_args(args)
    verdict = clusterkit.analyze(kernel)
    colorize = _color_enabled()

    out = ", ".join(kernel.out_slots)
    inn = ", ".join(kernel.in_slots)
    print(f"kernel: {len(kernel.out_slots)} out ({out}), {len(kernel.in_slots)} in ({inn})")
    print("deltas:")
    for row in kernel.deltas:
        print(f"  {clusterkit.format_constraint(kernel, row)}")
    print(f"smooth prefactor present: {'yes' if kernel.smooth_prefactor_present else 'no'}")
    print(f"conserves momentum: {'yes' if verdict.conserves_momentum else 'no'}")
    print(f"constraint rank: {verdict.rank}")
    if verdict.conserves_momentum:
        canonical = clusterkit.canonicalize(kernel)
        print("canonical form:")
        for row in canonical.deltas:
            print(f"  {clusterkit.format_constraint(canonical, row)}")

    if verdict.compliant:
        print("verdict: " + paint("COMPLIANT", "32", colorize)
              + " (overall momentum conservation only)")
        return EXIT_OK
    if verdict.conserves_momentum:
        coeffs, support = verdict.witness
        constraint = clusterkit.format_constraint(kernel, coeffs)
        subset = ", ".join(support)
        print(
            "verdict: "
            + paint("VIOLATION", "31", colorize)
            + f" (extra delta on proper subset {{{subset}}}: {constraint})"
        )
        return EXIT_VIOLATION
    print("verdict: " + paint("NON-CONSERVING", "1;31", colorize)
          + " (overall momentum conservation is absent)")
    return EXIT_NONCONSERVING


def cmd_algebra_residuals(args) -> int:
    gens = fileio.load_generator_file(args.generators)
    print(f"generators: {', '.join(sorted(gens.present()))} (dim {gens.dim})")
    print("hermiticity defects:")
    for name, defect in gens.hermiticity_residuals().items():
        print(f"  {name}: {defect:.12g}")
    print("bracket residuals (Frobenius norms):")
    for name, value in algebra.bracket_residuals(gens).items():
        print(f"  {name}: {value:.12g}")
    return EXIT_OK


def cmd_algebra_solve_w(args) -> int:
    system = algebra.SplitSystem(
        H0=fileio.load_matrix_file(args.h0),
        V=fileio.load_matrix_file(args.v),
        K0=(fileio.load_matrix_file(args.k0),),
    )
    solution = algebra.solve_W(system)
    print(f"dimension: {system.H0.shape[0]}")
    print("W:")
    for row in solution.W:
        print("  [" + "  ".join(_fmt_amplitude(z) for z in row) + "]")
    print(f"residual |[K0,V] + [W,H]|_F = {solution.residual:.12g}")
    print(f"hermiticity defect of W: {algebra.hermiticity_defect(solution.W):.12g}")
    if solution.degenerate_obstructions:
        pairs = ", ".join(f"({a},{b})" for a, b in solution.degenerate_obstructions)
        print(f"degenerate obstructions: {pairs}")
    else:
        print("degenerate obstructions: none")
    return EXIT_OK


def _parse_times(text: str) -> list[float]:
    try:
        times = [float(part) for part in text.split(",") if part.strip() != ""]
    except ValueError as exc:
        raise ParseError(f"--times: cannot parse {text!r}") from exc
    for t in times:
        if not math.isfinite(t):
            raise ParseError(f"--times: {t} is not a finite time")
    return times


def cmd_algebra_same_history(args) -> int:
    psi0 = fileio.normalize_vector(fileio.load_vector_file(args.psi0), args.psi0)
    same, samples = algebra.same_history_check(
        fileio.load_matrix_file(args.h0),
        fileio.load_matrix_file(args.va),
        fileio.load_matrix_file(args.vb),
        psi0,
        _parse_times(args.times),
    )
    print(f"same history: {'yes' if same else 'no'}")
    for t, c in samples:
        print(f"  t = {t:.12g}: c = {_fmt_amplitude(c)}, |c| = {abs(c):.12g}")
    return EXIT_OK


def cmd_algebra_boost_check(args) -> int:
    w = fileio.load_matrix_file(args.w)
    psi = fileio.normalize_vector(fileio.load_vector_file(args.psi), args.psi)
    residual = algebra.boost_residual(w, psi)
    nontrivial = residual > algebra.NONTRIVIALITY_TOLERANCE
    print(f"W acts nontrivially on psi: {'yes' if nontrivial else 'no'} "
          f"(residual norm = {residual:.12g})")
    return EXIT_OK


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        # keep exit code 2 free for cluster violations
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argparse tree, built on first use and shared by every later call."""
    parser = _Parser(prog="narratables", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    demo = sub.add_parser("demo-paper", help="run the built-in crossing-singlets demo")
    demo.add_argument("--csv", help="write overlap samples as CSV")
    demo.add_argument("--tolerance", type=float, default=COMPARISON_TOLERANCE,
                      help=f"history comparison tolerance (default {COMPARISON_TOLERANCE:g})")
    demo.set_defaults(func=cmd_demo_paper)

    sim = sub.add_parser("simulate", help="evolve one scenario/rule/foliation")
    sim.add_argument("scenario", help="scenario JSON file")
    sim.add_argument("--rule", required=True, help="rule name from the file")
    sim.add_argument("--foliation", type=int, required=True,
                     help="index into the file's foliation list")
    sim.add_argument("--csv", help="write overlap-with-initial samples as CSV")
    sim.add_argument("--tau-grid", type=int, default=41,
                     help="number of tau samples for --csv (default 41)")
    sim.set_defaults(func=cmd_simulate)

    cmp_ = sub.add_parser("compare-frames", help="two rules across the file's foliations")
    cmp_.add_argument("scenario", help="scenario JSON file")
    cmp_.add_argument("--rules", nargs=2, default=("free", "flip"),
                      metavar=("RULE_A", "RULE_B"))
    cmp_.add_argument("--csv", help="write overlap samples as CSV")
    cmp_.add_argument("--tolerance", type=float, default=COMPARISON_TOLERANCE,
                      help=f"history comparison tolerance (default {COMPARISON_TOLERANCE:g})")
    cmp_.set_defaults(func=cmd_compare_frames)

    clu = sub.add_parser("cluster-check", help="momentum-delta compliance linter")
    clu.add_argument("kernel", nargs="?", help="kernel JSON file")
    clu.add_argument("--builtin", choices=sorted(BUILTIN_KERNELS),
                     help="use a bundled kernel instead of a file")
    clu.set_defaults(func=cmd_cluster_check)

    alg = sub.add_parser("algebra", help="commutator diagnostics")
    alg_sub = alg.add_subparsers(dest="subcommand", required=True)

    res = alg_sub.add_parser("residuals", help="bracket residual table")
    res.add_argument("generators", help="JSON object of named generator matrices")
    res.set_defaults(func=cmd_algebra_residuals)

    sw = alg_sub.add_parser("solve-w", help="boost correction from [K0,V] = -[W,H]")
    sw.add_argument("h0", help="free Hamiltonian matrix file")
    sw.add_argument("v", help="interaction matrix file")
    sw.add_argument("k0", help="free boost generator matrix file")
    sw.set_defaults(func=cmd_algebra_solve_w)

    sh = alg_sub.add_parser("same-history", help="compare two interaction pictures")
    sh.add_argument("h0", help="free Hamiltonian matrix file")
    sh.add_argument("va", help="first interaction matrix file")
    sh.add_argument("vb", help="second interaction matrix file")
    sh.add_argument("psi0", help="initial state vector file")
    sh.add_argument("--times", default="0,0.25,0.5,0.75,1",
                    help="comma-separated sample times (default 0..1)")
    sh.set_defaults(func=cmd_algebra_same_history)

    bc = alg_sub.add_parser("boost-check", help="does W move the state?")
    bc.add_argument("w", help="boost correction matrix file")
    bc.add_argument("psi", help="state vector file")
    bc.set_defaults(func=cmd_algebra_boost_check)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except tuple(ERROR_EXIT_CODES) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return next(code for cls, code in ERROR_EXIT_CODES.items() if isinstance(exc, cls))


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
