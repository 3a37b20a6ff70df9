"""One set-up of the program, timed from inside a fresh interpreter.

Usage: python3 perfbench/setup_probe.py WORKLOAD   (from the repo root, PYTHONPATH=src)

Prints {"import_s": ..., "warmup_s": ...}: the time to import the package with
its command-line module, then one warm-up call of each entry point the
workload times, on the package's built-in data.  The interpreter's own start
is not included; the benchmark reports it as cli.python_bare_ms.
"""

import json
import sys
import time
import warnings

start = time.perf_counter()
import narratables  # noqa: E402
from narratables import algebra, cli, clusterkit, fileio, narrative  # noqa: E402

imported = time.perf_counter()


def _builtin_json(name):
    from importlib import resources  # after the timed import, like numpy below
    return json.loads(resources.files("narratables").joinpath("data", name).read_text())


def warm_frames():
    bundle = cli.built_in_demo()
    rules = bundle.rules
    report = narrative.narratability_report(
        bundle.scenario, rules["free"], rules["flip"], bundle.foliations)
    narrative.render_report(report)


def warm_diagnostics():
    import numpy as np
    for name in ("spin_swap.kernel.json", "single_delta.kernel.json"):
        kernel = fileio.parse_kernel(_builtin_json(name))
        if clusterkit.analyze(kernel).conserves_momentum:
            clusterkit.canonicalize(kernel)
    h0 = np.diag([1.0, 2.0, 4.0, 7.0])
    v = np.full((4, 4), 0.1)
    algebra.solve_W(algebra.SplitSystem(H0=h0, V=v, K0=(v + v.T,)))
    psi = np.array([1.0, 0.0, 0.0, 0.0])
    algebra.same_history_check(h0, v, np.triu(v), psi, [0.0, 0.5])


def warm_cli():
    import contextlib
    import io
    with contextlib.redirect_stdout(io.StringIO()):
        cli.main(["demo-paper"])


WARMUPS = {"frames": warm_frames, "diagnostics": warm_diagnostics, "cli": warm_cli}

if __name__ == "__main__":
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        WARMUPS[sys.argv[1]]()
    done = time.perf_counter()
    print(json.dumps({"import_s": imported - start, "warmup_s": done - imported,
                      "package": narratables.__file__}))
