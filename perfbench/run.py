#!/usr/bin/env python3
"""Benchmark for narratables: one workload, one client, a closed loop.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload {cli,frames,diagnostics} \
        --seed N --seconds S --trace {0,1}

The package is imported from ./src of the checkout and nowhere else; without
it the benchmark exits with code 2.  Inputs are generated from --seed (see
inputs.py) and every output is checked against the oracles in oracle.py.

A run measures a pool of ops (inputs.POOLS) round after round.  --trace 0
measures the end-to-end metrics with tracing off, every time scaled to the
reference speed of speed.py.  --trace 1 traces every second round (tracing.py)
and reports the per-layer metrics, per traced op, with the tracing overhead;
its spans are written to .perfbench_out/.  The metric names and units are
read from BENCHMARK.json.  The last line of standard output is one JSON
object with the keys correct, attempted, failed and metrics.
"""

import os

# Pinned before numpy loads, here and (through the environment) in every child:
# default OpenBLAS threading on a small machine measures the scheduler.
BLAS_THREADS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
os.environ.update(BLAS_THREADS)
os.environ["NARRATABLES_COLOR"] = "never"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import warnings  # noqa: E402
from collections import Counter, defaultdict  # noqa: E402
from importlib import metadata  # noqa: E402
from pathlib import Path  # noqa: E402

from speed import REFERENCE_MS, Speed  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
SETUP_REPEATS = 9
PROBE_SPEED_SAMPLES = 3  # reference samples before and after each set-up probe
BARE_REPEATS = 5
MIN_ROUNDS = 3
CHILD_ENV = dict(os.environ, PYTHONPATH="src")


def import_package():
    """Import narratables from the checkout's src/, or exit with code 2."""
    if not (SRC / "narratables" / "__init__.py").is_file():
        print(f"perfbench: no package source at {SRC}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(SRC))
    import narratables
    if Path(narratables.__file__).resolve().parent != (SRC / "narratables").resolve():
        print(f"perfbench: narratables imported from {narratables.__file__}", file=sys.stderr)
        sys.exit(2)


class Phase:
    """Latencies and failures of one stretch of rounds over a pool."""

    def __init__(self, size):
        # per op of the pool, one (start, latency) per round
        self.untraced = [[] for _ in range(size)]
        self.traced = [[] for _ in range(size)]
        self.rounds = 0
        self.attempted = 0
        self.failed = 0
        self.problems = []

    def medians(self, traced=False) -> list:
        """Each op's median latency over its rounds, as measured."""
        return [statistics.median(lat for _, lat in s)
                for s in (self.traced if traced else self.untraced)]

    def overhead_ratio(self) -> float:
        """Traced / untraced ops_per_s, each from the ops' median latencies."""
        return sum(self.medians()) / sum(self.medians(traced=True))


def rounds(workload, run, pool, seconds, setups, speed=None, tracer=None) -> Phase:
    """Run every op of the pool in turn, round after round, until `seconds` have passed.

    A run ends on a whole round, after at least MIN_ROUNDS, so every op has
    the same number of samples.  Only `run` is timed; making the round's
    variant of the input and checking the output are not.  The set-up probes
    that are due run between rounds, and the time they take is added to the
    run.  With a `Speed`, the reference is sampled between ops.  With a
    tracer, every second round is traced, so each op has traced and untraced
    samples.
    """
    phase = Phase(len(pool))
    deadline = time.perf_counter() + seconds
    while True:
        on = tracer is not None and phase.rounds % 2 == 1
        for i, op in enumerate(pool):
            args = workload.variant(op, phase.rounds)
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                if on:
                    tracer.begin_op(op)
                start = time.perf_counter()
                try:
                    out, error = run(args), None
                except Exception as exc:  # counted as a failed op, the loop goes on
                    out, error = None, exc
                latency = time.perf_counter() - start
                if on:
                    tracer.end_op(caught)
            (phase.traced if on else phase.untraced)[i].append((start, latency))
            if speed is not None:
                speed.maybe_sample()
            phase.attempted += 1
            problems = [f"raised {error!r}"] if error else workload.check(op, phase.rounds, out)
            if problems:
                phase.failed += 1
                phase.problems.append((op.index, phase.rounds, problems))
        phase.rounds += 1
        deadline += setups.run_due()
        if time.perf_counter() >= deadline and phase.rounds >= MIN_ROUNDS:
            return phase


def tail(latencies):
    """(latency, percentile, samples beyond): the highest percentile with 10 samples beyond it.

    With 10 samples or fewer there is none, and the slowest one stands in.
    """
    ordered = sorted(latencies)
    n = len(ordered)
    if n < 11:
        return ordered[-1], 100.0, 0
    return ordered[n - 11], 100.0 * (n - 10) / n, 10


def child(args, timeout=120):
    return subprocess.run(args, cwd=ROOT, env=CHILD_ENV, capture_output=True,
                          text=True, timeout=timeout, check=True)


class SetupProbes:
    """SETUP_REPEATS set-ups of the program, each in a fresh interpreter, spread over the run.

    The machine's speed drifts over seconds, so probes spread through the
    run sample more of that drift than probes made back to back.  The
    reference is sampled just before and after each probe, so that its time
    can be scaled like an op's (speed.py).
    """

    def __init__(self, workload: str, seconds: float, speed=None):
        self.workload, self.seconds, self.speed = workload, seconds, speed
        self.start = time.perf_counter()
        self.spent = 0.0
        self.probes = []

    def _probe(self):
        self._sample_speed()
        start = time.perf_counter()
        done = child([sys.executable, str(HERE / "setup_probe.py"), self.workload])
        end = time.perf_counter()
        self._sample_speed()
        probe = json.loads(done.stdout.strip().splitlines()[-1])
        if Path(probe["package"]).resolve().parent != (SRC / "narratables").resolve():
            raise RuntimeError(f"set-up probe imported {probe['package']}")
        probe["span"] = (start, end)
        self.probes.append(probe)

    def _sample_speed(self):
        if self.speed is not None:
            for _ in range(PROBE_SPEED_SAMPLES):
                self.speed.sample()

    def run_due(self) -> float:
        """Run the probes due by now, one more per 1/SETUP_REPEATS of the run; their time."""
        start = time.perf_counter()
        gone = (start - self.start - self.spent) / self.seconds
        while len(self.probes) < min(SETUP_REPEATS, 1 + int(gone * SETUP_REPEATS)):
            self._probe()
        took = time.perf_counter() - start
        self.spent += took
        return took

    def finish(self) -> list:
        while len(self.probes) < SETUP_REPEATS:
            self._probe()
        return self.probes


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def shares(props_list) -> dict:
    """Share of each label per property; mean of each numeric property."""
    counts, numbers = defaultdict(Counter), defaultdict(list)
    for props in props_list:
        for key, value in props.items():
            if isinstance(value, dict):
                counts[key].update(value)
            elif isinstance(value, str):
                counts[key][value] += 1
            else:
                numbers[key].append(value)
    out = {}
    for key, counter in counts.items():
        total = sum(counter.values())
        out[key] = {label: round(n / total, 3) for label, n in sorted(counter.items())}
    for key, values in numbers.items():
        out[f"mean {key}"] = round(statistics.fmean(values), 2)
    return out


def machine_note(load_at_start) -> dict:
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "load_average_at_start": load_at_start,
        "blas_threads": BLAS_THREADS,
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "scipy": metadata.version("scipy"),
        "platform": platform.platform(),
        "loop": "closed, 1 client, no worker threads",
    }


def make_workload(name, seed, workdir):
    import workloads
    if name == "cli":
        return workloads.Cli(seed, ROOT, workdir)
    return {"frames": workloads.Frames, "diagnostics": workloads.Diagnostics}[name](seed)


def warm_up(workload):
    """A few untimed, unchecked ops from an input range the run never uses."""
    for index in range(10**6, 10**6 + 3):
        workload.run(workload.variant(workload.make(index), 0))


def end_to_end(workload, pool, seconds):
    """The end-to-end metrics, every time scaled to the reference speed (speed.py)."""
    speed = Speed()
    setups = SetupProbes(workload.name, seconds, speed)
    phase = rounds(workload, workload.run, pool, seconds, setups, speed)
    probes = setups.finish()
    measured = phase.medians()
    scaled = [statistics.median(speed.normalize(start, lat) for start, lat in op)
              for op in phase.untraced]
    tail_s, pct, beyond = tail(scaled)
    setup = [(p["import_s"] + p["warmup_s"]) * speed.scale(*p["span"]) for p in probes]
    values = {
        "ops_per_s": len(scaled) / sum(scaled),
        "op_p50_ms": statistics.median(scaled) * 1e3,
        "op_tail_ms": tail_s * 1e3,
        "setup_s": statistics.median(setup),
        "peak_rss_mb": peak_rss_mb(),
    }
    of = f"each of {len(pool)} ops at its median of {phase.rounds} rounds"
    notes = {
        "ops_per_s": f"{of}; {len(measured) / sum(measured):.4g} as measured",
        "op_p50_ms": f"{statistics.median(measured) * 1e3:.4g} as measured",
        "op_tail_ms": f"p{pct:.1f}, {beyond} ops beyond; {tail(measured)[0] * 1e3:.4g} as measured",
        "setup_s": f"median of {len(setup)} set-ups spread over the run; "
                   f"{statistics.median(p['import_s'] + p['warmup_s'] for p in probes):.4g} "
                   "as measured",
    }
    note = (f"reference: median {statistics.median(speed.durations) * 1e3:.4g} ms over "
            f"{len(speed.durations)} samples, {REFERENCE_MS} ms at reference speed")
    return values, notes, [phase], note


def traced(workload, pool, seconds, spans_path):
    import inputs
    import tracing
    tracer = tracing.Tracer()
    setups = SetupProbes(workload.name, seconds)
    extra = dict.fromkeys(("cli.python_bare_ms", "cli.import_ms", "cli.startup_ms"), 0.0)
    phases = []
    if workload.name == "cli":
        bare = []
        for _ in range(BARE_REPEATS):
            start = time.perf_counter()
            child([sys.executable, "-c", "pass"])
            bare.append(time.perf_counter() - start)
        # the first half runs one cycle of commands in child processes, untraced
        cycle = pool[:len(inputs.CLI_KINDS)]
        outside = rounds(workload, workload.run_child, cycle, seconds / 2, setups)
        phases.append(outside)
        seconds /= 2
    tracer.install()
    try:
        phase = rounds(workload, workload.run, pool, seconds, setups, tracer=tracer)
    finally:
        tracer.uninstall()
    phases.append(phase)
    tracer.write(spans_path)
    values = tracer.metrics()
    probes = setups.finish()
    if workload.name == "cli":
        extra = {"cli.python_bare_ms": statistics.median(bare) * 1e3,
                 "cli.import_ms": statistics.median(p["import_s"] for p in probes) * 1e3,
                 "cli.startup_ms": (statistics.median(outside.medians())
                                    - statistics.median(phase.medians()[:len(cycle)])) * 1e3}
    values.update(extra)
    values["trace.overhead_ratio"] = phase.overhead_ratio()
    notes = {name: "absent" for name in values
             if name.rpartition(".")[0] in tracer.absent}
    by_kind = tracer.calls_per_pair_by_kind()
    if by_kind:
        notes["geometry.collide.calls_per_pair"] = ", ".join(
            f"{kind} {value:.4g}" for kind, value in sorted(by_kind.items()))
    return values, notes, phases, None


def main(argv=None) -> int:
    # workload and metric names, with their units, as BENCHMARK.json declares them
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=[w["name"] for w in bench["workloads"]])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    load_at_start = os.getloadavg()

    import_package()
    sys.path.insert(0, str(HERE))

    OUT.mkdir(exist_ok=True)
    workdir = OUT / f"work-{os.getpid()}"
    workdir.mkdir(exist_ok=True)
    try:
        workload = make_workload(args.workload, args.seed, workdir)
        pool = [workload.make(index) for index in range(workload.pool)]
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            warm_up(workload)
        if args.trace:
            spans_path = OUT / f"spans-{args.workload}-{args.seed}.jsonl"
            values, notes, phases, speed_note = traced(workload, pool, args.seconds, spans_path)
        else:
            values, notes, phases, speed_note = end_to_end(workload, pool, args.seconds)
        units = {m["name"]: m["unit"]
                 for m in bench["per_layer" if args.trace else "end_to_end"]}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted = sum(p.attempted for p in phases)
    failed = sum(p.failed for p in phases)
    print(f"perfbench {args.workload}: seed {args.seed}, {args.seconds:g} s, trace {args.trace}; "
          f"pool of {len(pool)} ops, {attempted} runs, {failed} failed, "
          f"failed_ratio {failed / attempted:.4g}")
    for name, unit in units.items():
        note = f"  ({notes[name]})" if name in notes else ""
        print(f"  {name:48s} {values[name]:14.6g} {unit}{note}")
    for phase in phases:
        for index, round_, problems in phase.problems[:5]:
            print(f"  FAILED op {index} in round {round_}: {'; '.join(problems[:3])}")
    print("shares: " + json.dumps(shares([op.props for op in pool])))
    print("machine: " + json.dumps(machine_note(load_at_start)))
    if speed_note:
        print(speed_note)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
