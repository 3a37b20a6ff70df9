"""The command-line output contract: input files, a table of cases run on them,
and a recorder of what each case prints: NAME.out (stdout, then `exit N`),
NAME.csv (the CSV bytes, when the case passes `--csv`) and, when there is
either, NAME.err (each warning as `Category: message`, in order, then the
`error:` line).

`tests/expected/` holds the committed recording; with the package importable
(installed, or PYTHONPATH=src), `python tests/corpus.py` re-records it.  To
compare checkouts, build the inputs once and record each checkout from them:

    PYTHONPATH=src python tests/corpus.py build IN
    PYTHONPATH=CHECKOUT/src python tests/corpus.py record IN OUT
"""

import contextlib
import io
import json
import os
import shutil
import sys
import tempfile
import warnings
from fractions import Fraction as F
from importlib import resources
from pathlib import Path
from unittest import mock

import numpy as np

from narratables import cli
from narratables.fileio import dump_scenario, load_scenario_file

EXPECTED = Path(__file__).resolve().parent / "expected"

# (name, argv) per row; file names are relative to the input directory, and a
# trailing --csv writes NAME.csv into the output directory
CASES = [tuple(row.split(maxsplit=1)) for row in """
demo                            demo-paper --csv
# the demo plus a float and an irrational-gamma foliation, under every rule pairing;
# under free/free no leaf fires, so each frame has one sample
free-flip                       compare-frames frames.json --csv
flip-free                       compare-frames frames.json --rules flip free --csv
mixed-flip                      compare-frames frames.json --rules mixed flip --csv
flip-mixed                      compare-frames frames.json --rules flip mixed --csv
swap-cz-free                    compare-frames frames.json --rules swap-cz free --csv
free-free                       compare-frames frames.json --rules free free --csv
collinear-free                  compare-frames collinear.json --rules free flip --csv
collinear-mixed                 compare-frames collinear.json --rules mixed flip --csv
collinear-swap-cz               compare-frames collinear.json --rules swap-cz flip --csv
collinear-spin-free             compare-frames collinear-spin.json --rules free flip --csv
collinear-spin-mixed            compare-frames collinear-spin.json --rules mixed flip --csv
collinear-spin-swap-cz          compare-frames collinear-spin.json --rules swap-cz flip --csv
collinear-dense-free            compare-frames collinear-dense.json --rules free flip --csv
collinear-dense-mixed           compare-frames collinear-dense.json --rules mixed flip --csv
collinear-float-free            compare-frames collinear-float.json --rules free flip --csv
collinear-float-mixed           compare-frames collinear-float.json --rules mixed flip --csv
collinear-reversed-mixed        compare-frames collinear-reversed.json --rules mixed flip --csv
collinear-reversed-swap-cz      compare-frames collinear-reversed.json --rules swap-cz flip --csv
# the amplitude-form copies: the only cases whose initial spin takes the dense check
frames-amplitudes-free          compare-frames frames-amplitudes.json --rules free flip --csv
frames-amplitudes-mixed         compare-frames frames-amplitudes.json --rules mixed flip --csv
collinear-spin-amplitudes-free  compare-frames collinear-spin-amplitudes.json --rules free flip --csv
collinear-spin-amplitudes-mixed compare-frames collinear-spin-amplitudes.json --rules mixed flip --csv
# simulate prints amplitudes, so a change to the contact kernel shows here first;
# foliation 3 is a float one, 4 has irrational gamma; swap-cz puts a swap beside
# a CZ on one leaf at rest (0), then apart (1)
simulate-flip                   simulate frames.json --rule flip --foliation 1 --csv
simulate-mixed                  simulate frames.json --rule mixed --foliation 1 --csv
simulate-flip-3                 simulate frames.json --rule flip --foliation 3 --csv
simulate-flip-4                 simulate frames.json --rule flip --foliation 4 --csv
simulate-mixed-3                simulate frames.json --rule mixed --foliation 3 --csv
simulate-mixed-4                simulate frames.json --rule mixed --foliation 4 --csv
frames-simulate-swap-cz-0       simulate frames.json --rule swap-cz --foliation 0 --csv
collinear-simulate-swap-cz-0    simulate collinear.json --rule swap-cz --foliation 0 --csv
frames-simulate-swap-cz-1       simulate frames.json --rule swap-cz --foliation 1 --csv
collinear-simulate-swap-cz-1    simulate collinear.json --rule swap-cz --foliation 1 --csv
# three lines through one event: exit 7, and the error line prints that leaf's core
triple-frames                   compare-frames triple.json
triple-simulate-1               simulate triple.json --rule flip --foliation 1
triple-simulate-3               simulate triple.json --rule flip --foliation 3
triple-simulate-4               simulate triple.json --rule flip --foliation 4
# rationals in every spelling, a complex single slot, and light speed (exit 4)
spellings-frames                compare-frames spellings.json
spellings-simulate-1            simulate spellings.json --rule flip --foliation 1
spellings-simulate-3            simulate spellings.json --rule flip --foliation 3
spellings-simulate-4            simulate spellings.json --rule flip --foliation 4
single-frames                   compare-frames single.json --csv
single-simulate                 simulate single.json --rule flip --foliation 1 --csv
superluminal-line               compare-frames superluminal-line.json
superluminal-foliation          compare-frames superluminal-foliation.json
# the cluster verdict, canonical rows and witness
spin-swap                       cluster-check --builtin spin-swap
single-delta                    cluster-check --builtin single-delta
compliant                       cluster-check compliant.kernel.json
violation                       cluster-check violation.kernel.json
non-conserving                  cluster-check non-conserving.kernel.json
# the algebra diagnostics; the residual table refuses four files (exit 4), and
# solve-w reads V files the one-pass matrix reader leaves to the per-entry one
residuals-full          algebra residuals full.generators.json
residuals-partial       algebra residuals partial.generators.json
residuals-unknown       algebra residuals unknown.generators.json
residuals-mixed         algebra residuals mixed.generators.json
residuals-single        algebra residuals single.generators.json
residuals-empty         algebra residuals empty.generators.json
solve-w                 algebra solve-w h0.json v.json k0.json
solve-w-degenerate      algebra solve-w degenerate-h0.json degenerate-v.json degenerate-k0.json
solve-w-bool            algebra solve-w h0.json v-bool.json k0.json
solve-w-three-parts     algebra solve-w h0.json v-three-parts.json k0.json
solve-w-nan             algebra solve-w h0.json v-nan.json k0.json
solve-w-huge            algebra solve-w h0.json v-huge.json k0.json
solve-w-mixed           algebra solve-w h0.json v-mixed.json k0.json
solve-w-negative-zero   algebra solve-w h0.json v-negative-zero.json k0.json
# history overlaps, at one repeated time too; a 1x1 Va beside a 3x3 H0 exits 7
same-history-vb  algebra same-history h0.json va.json vb.json psi.json --times 0,0.3,-0.7,1.5,1.5,-2
same-history-vn  algebra same-history h0.json va.json vn.json psi.json --times 0,0.3,-0.7,1.5,1.5,-2
same-history-1x1 algebra same-history degenerate-h0.json va-1x1.json degenerate-v.json psi3.json
boost-check      algebra boost-check w.json psi.json
""".splitlines() if row and not row.startswith("#")]


def run_cli(*argv, color="never"):
    """`cli.main(argv)` in-process with NARRATABLES_COLOR=`color`: the exit
    code (an argparse usage error's too), stdout and stderr."""
    out, err = io.StringIO(), io.StringIO()
    with mock.patch.dict(os.environ, NARRATABLES_COLOR=color), \
            contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(list(argv))
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def record(inputs: Path, out: Path) -> None:
    """Run every case on the files in `inputs` and write what it prints into `out`.

    Each case runs under a fresh "default" warnings filter, so a warning is
    shown once per source line, as in a fresh `python -m narratables.cli`."""
    out = out.resolve()
    out.mkdir(parents=True, exist_ok=True)
    cwd = os.getcwd()
    os.chdir(inputs)  # file names, and so the error lines, are relative to `inputs`
    try:
        for name, args in CASES:
            argv = args.split()
            if argv[-1] == "--csv":
                argv.append(str(out / f"{name}.csv"))
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("default")
                code, stdout, stderr = run_cli(*argv)
            (out / f"{name}.out").write_text(f"{stdout}exit {code}\n", encoding="utf-8")
            shown = "".join(f"{w.category.__name__}: {w.message}\n" for w in caught)
            if shown + stderr:
                (out / f"{name}.err").write_text(shown + stderr, encoding="utf-8")
    finally:
        os.chdir(cwd)


def _demo() -> dict:
    return json.loads(resources.files("narratables").joinpath("data", "demo_scenario.json")
                      .read_text())


def cx(a):
    """A complex array's entries as [re, im] lists."""
    return np.stack([a.real, a.imag], axis=-1).tolist()


def build(root: Path) -> None:
    """Write the input files of every case into `root`."""
    root.mkdir(parents=True, exist_ok=True)

    def put(name, doc):
        (root / name).write_text(json.dumps(doc))

    # the demo plus a float and an irrational-gamma foliation; rule "mixed" is a
    # random unitary on (s1, s3) and CZ on every other pair, so contacts that are
    # not exact data movement run too; rule "swap-cz" is a swap on (s1, s3) and CZ
    # elsewhere: at rest the demo's (0, 2) and (1, 3) share a leaf, so one group
    # holds a swap and a CZ, and swap-only groups permute slots between products
    doc = _demo()
    doc["foliations"] += [[0.6, 0.0, 0.0], ["1/3", "1/4", "0"]]
    rng = np.random.default_rng(13)
    q, _ = np.linalg.qr(rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4)))
    cz = {"unitary": np.diag([1, 1, 1, -1]).tolist()}
    doc["rules"]["mixed"] = [{"pair": ["s1", "s3"], "unitary": cx(q)}, cz]
    doc["rules"]["swap-cz"] = [{"pair": ["s1", "s3"], "unitary": "swap"}, cz]
    put("frames.json", doc)
    # twelve lines along d = (2, 2, 1)/3, at s = a + v*t on it: every pair crosses
    # once, and the draw is repeated until no three lines meet at one event.  Nine
    # boosts along d, close in speed, order the 66 events so that frames share long
    # leaf prefixes; under "mixed", CZ crossings of a boost warn
    draw = np.random.default_rng(0)
    while True:
        starts = draw.choice(np.arange(-30, 31), 12, replace=False).tolist()
        speeds = [F(k, 10) for k in draw.choice(np.arange(-9, 10), 12, replace=False).tolist()]
        meets = [(F(starts[j] - starts[i]) / (speeds[i] - speeds[j]), i)
                 for i in range(12) for j in range(i + 1, 12)]
        if len({(t, starts[i] + speeds[i] * t) for t, i in meets}) == len(meets):
            break
    d = (F(2, 3), F(2, 3), F(1, 3))
    collinear = dict(doc, name="collinear twelve", particles=[
        {"id": i, "species": f"s{i + 1}", "velocity": [str(v * c) for c in d],
         "start": dict(zip("txyz", ["0", *(str(a * c) for c in d)]))}
        for i, (a, v) in enumerate(zip(starts, speeds))])
    collinear["initial_state"] = {"singlet_pairs": [[i, i + 1] for i in range(0, 12, 2)]}
    collinear["rules"] = dict(doc["rules"], flip=[{"unitary": "swap"}])
    collinear["foliations"] = [["0", "0", "0"]] + [[str(s * c) for c in d] for s in (
        F(3, 5), F(59, 100), F(61, 100), F(29, 50), F(31, 50), F(4, 5), F(79, 100),
        F(81, 100), F(5, 13))]
    put("collinear.json", collinear)
    # the frames in reverse order: the order a report walks them never shows
    put("collinear-reversed.json", dict(collinear, foliations=collinear["foliations"][::-1]))
    # singlets on slots 0-9 and single states on 10 and 11: 128 of 4096 amplitudes
    # are nonzero, and the initial state's spin warns under every boost
    put("collinear-spin.json", dict(collinear, name="collinear twelve, two singles", initial_state={
        "singlet_pairs": [[i, i + 1] for i in range(0, 10, 2)],
        "singles": {"10": [0.6, [0, 0.8]], "11": [[0, 0.8], -0.6]}}))
    # every slot single in (0.6, 0.8): all 4096 amplitudes are nonzero
    put("collinear-dense.json", dict(collinear, name="collinear twelve, all single", initial_state={
        "singlet_pairs": [], "singles": {str(i): [0.6, 0.8] for i in range(12)}}))
    # float frames along d at the speeds of the exact ones, and a rational one with
    # irrational gamma: float leaves tie within 1e-9, and each float frame warns
    put("collinear-float.json", dict(collinear, name="collinear twelve, float frames", foliations=[
        ["0", "0", "0"], *([float(s * c) for c in d] for s in (
            F(3, 5), F(59, 100), F(61, 100), F(29, 50), F(4, 5), F(5, 13))),
        [str(F(1, 2) * c) for c in d]]))
    # a fifth line through the demo's (0,2) crossing: three lines meet at one event
    doc["particles"].append({"id": 4, "species": "s5", "velocity": ["0", "0", "1/2"],
                             "start": {"t": "0", "x": "-1", "y": "0", "z": "-2"}})
    doc["initial_state"]["singles"] = {"4": [1, 0]}
    put("triple.json", doc)
    # the demo's values in other spellings: plain ones read as two ints, the rest
    # by Fraction(); one start as a 4-list, and one without a zero coordinate
    doc = _demo()
    doc["particles"][0]["start"]["t"] = "-0"
    doc["particles"][0]["velocity"] = ["+0", "0", "-0"]
    doc["particles"][1]["start"]["x"] = "1_0/10"
    doc["particles"][2]["start"] = ["0", "-1", "2", "0"]
    del doc["particles"][3]["start"]["z"]
    doc["particles"][2]["velocity"][1] = "-007/14"
    doc["particles"][3]["velocity"][1] = " -1/2 "
    doc["foliations"] = [["-0", "0", "0"], ["+3/5", "0", "0"], ["0.6", "0", "0"],
                         ["3e-1", "007/14", "0"], [" 3/5 ", "0", "1_0/20"]]
    put("spellings.json", doc)
    doc = _demo()
    doc["particles"][1]["velocity"] = ["1", "0", "0"]
    put("superluminal-line.json", doc)
    doc = _demo()
    doc["foliations"].append(["3/5", "4/5", "0"])
    put("superluminal-foliation.json", doc)
    # a fifth line in a complex single-slot state, crossing line 2 alone
    doc = _demo()
    doc["particles"].append({"id": 4, "species": "s5", "velocity": ["1/2", "0", "0"],
                             "start": {"t": "0", "x": "-7", "y": "-4", "z": "0"}})
    doc["initial_state"]["singles"] = {"4": [[0.6, 0], [0, 0.8]]}
    put("single.json", doc)
    # two scenarios in amplitude form, as dump_scenario writes them
    for name in ("frames", "collinear-spin"):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            put(f"{name}-amplitudes.json", dump_scenario(load_scenario_file(root / f"{name}.json")))
    # kernels: a scaled conservation row, fractional coefficients with two residual
    # rows, and no conservation row
    put("compliant.kernel.json", {"in_slots": ["p1", "p2"], "out_slots": ["q1", "q2"], "deltas": [
        {"q1": "-5/3", "q2": "-5/3", "p1": "5/3", "p2": "5/3"},
        {"q1": 2, "q2": 2, "p1": -2, "p2": -2}]})
    put("violation.kernel.json", {"in_slots": ["p1", "p2", "p3"], "out_slots": ["q1", "q2", "q3"],
        "deltas": [{"q1": "1/2", "q2": "2/3", "p2": "-3/4", "p3": "-2/3"}, {
            "q1": "3/2", "q2": "3/2", "q3": "3/2", "p1": "-3/2", "p2": "-3/2", "p3": "-3/2"},
            {"q2": "2/3", "p3": "-2/3"}], "smooth_prefactor_present": True})
    put("non-conserving.kernel.json",
        {"in_slots": ["p1", "p2"], "out_slots": ["q1"], "deltas": [{"q1": 1, "p1": "-1/2"}]})

    def noise(*shape):
        return rng.normal(size=shape) + 1j * rng.normal(size=shape)

    def put_matrix(name, a):
        put(f"{name}.json", cx(a))

    # all ten generators, and a set without J3 (no JJ or KK rows)
    gens = {n: cx(noise(3, 3)) for n in ("H", "P1", "P2", "P3", "J1", "J2", "J3", "K1", "K2", "K3")}
    put("full.generators.json", gens)
    put("partial.generators.json", {n: gens[n] for n in ("H", "P1", "K1", "J1", "J2", "K3")})
    # random Hermitian matrices, and H = diag(1, 1, 2) with [K0, V] coupling the
    # degenerate pair
    for name in ("h0", "v", "k0", "va", "vb"):
        g = noise(4, 4)
        put_matrix(name, (g + g.conj().T) / 2)
    v = np.array([[0.0, 0.5, 0.0], [0.5, 0.0, 0.0], [0.0, 0.0, 0.0]])
    put_matrix("degenerate-h0", np.diag([1.0, 1.0, 2.0]) - v)
    put_matrix("degenerate-v", v)
    put_matrix("degenerate-k0", np.diag([1.0, -1.0, 0.0]))
    # a non-Hermitian interaction, a state, a W
    put_matrix("vn", noise(4, 4))
    psi = noise(4)
    put_matrix("psi", psi / np.linalg.norm(psi))
    put_matrix("w", noise(4, 4))
    put_matrix("va-1x1", np.array([[0.5]]))
    put_matrix("psi3", np.array([1.0, 0.0, 0.0]))
    # an unknown name, mixed sizes, a single generator and an empty object
    for name, refused in (("unknown", {"H": [[0]], "Q": [[0]]}),
                          ("mixed", {"H": [[0]], "K1": [[0, 1], [1, 0]]}),
                          ("single", {"H": [[0]]}), ("empty", {})):
        put(f"{name}.generators.json", refused)
    # V with a bool, a 3-part entry, a NaN, an integer beyond the float range, a
    # scalar among pairs and a -0.0 imaginary part
    for name, spoil in (("bool", lambda v: v[0].__setitem__(1, True)),
                        ("three-parts", lambda v: v[1][2].append(0.0)),
                        ("nan", lambda v: v[2].__setitem__(3, [float("nan"), 0.0])),
                        ("huge", lambda v: v[3].__setitem__(0, 10**400)),
                        ("mixed", lambda v: v[0].__setitem__(0, v[0][0][0])),
                        ("negative-zero", lambda v: v[1][1].__setitem__(1, -0.0))):
        v = json.loads((root / "v.json").read_text())
        spoil(v)
        put(f"v-{name}.json", v)


def main(argv: list[str]) -> None:
    if not argv:
        with tempfile.TemporaryDirectory() as inputs:
            build(Path(inputs))
            shutil.rmtree(EXPECTED, ignore_errors=True)
            record(Path(inputs), EXPECTED)
    elif argv[0] == "build" and len(argv) == 2:
        build(Path(argv[1]))
    elif argv[0] == "record" and len(argv) == 3:
        record(Path(argv[1]), Path(argv[2]))
    else:
        sys.exit("usage: corpus.py [build IN | record IN OUT]")


if __name__ == "__main__":
    main(sys.argv[1:])
