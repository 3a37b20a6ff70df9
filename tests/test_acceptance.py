"""Acceptance gate: one test per shipped guarantee, at the pinned tolerances.

Each test prints exactly one line, `criterion N: PASS/FAIL - summary`, on the
real stdout so the verdicts survive pytest's capture.  Expected values come
from oracles built inside this file (dense tensor algebra, rational
elimination), not from the package's own code paths.
"""

import contextlib
import json
import sys
import time
import warnings
from fractions import Fraction

import numpy as np
import pytest

from narratables.algebra import (
    SplitSystem,
    boost_nontriviality_check,
    commutator,
    hermiticity_defect,
    same_history_check,
    solve_W,
)
from narratables.cli import built_in_demo
from narratables.clusterkit import (
    MomentumKernel,
    analyze,
    canonicalize,
    conservation_vector,
)
from narratables.geometry import (
    Event,
    Foliation,
    Worldline,
    boost_matrix,
    collision_schedule,
)
from narratables.narrative import compare_histories, evolve
from narratables.quantum import (
    angular_momentum_norms,
    apply_contact,
    apply_group,
    overlap,
    singlet_product,
    swap_unitary,
)

from corpus import run_cli


@contextlib.contextmanager
def criterion(number, summary):
    try:
        yield
    except BaseException:
        print(f"criterion {number}: FAIL - {summary}", file=sys.__stdout__)
        raise
    print(f"criterion {number}: PASS - {summary}", file=sys.__stdout__)


# -- independent oracles ------------------------------------------------------


def tensor_double_singlet():
    """16-component state built from kron alone: slot 0 most significant."""
    plus = np.array([1.0, 0.0])
    minus = np.array([0.0, 1.0])
    singlet = (np.kron(plus, minus) - np.kron(minus, plus)) / np.sqrt(2.0)
    return np.kron(singlet, singlet)


def tensor_swap(a, b):
    """16x16 permutation exchanging the bits of slots a and b."""
    m = np.zeros((16, 16))
    for idx in range(16):
        bits = [(idx >> (3 - k)) & 1 for k in range(4)]
        bits[a], bits[b] = bits[b], bits[a]
        m[sum(bit << (3 - k) for k, bit in enumerate(bits)), idx] = 1.0
    return m


def rational_rank(rows):
    m = [list(map(Fraction, row)) for row in rows if any(row)]
    if not m:
        return 0
    rank = 0
    for col in range(len(m[0])):
        pivot = next((r for r in range(rank, len(m)) if m[r][col] != 0), None)
        if pivot is None:
            continue
        m[rank], m[pivot] = m[pivot], m[rank]
        lead = m[rank][col]
        m[rank] = [x / lead for x in m[rank]]
        for r in range(len(m)):
            if r != rank and m[r][col] != 0:
                factor = m[r][col]
                m[r] = [x - factor * y for x, y in zip(m[r], m[rank])]
        rank += 1
        if rank == len(m):
            break
    return rank


def in_row_space(rows, vector):
    kept = [row for row in rows if any(row)]
    return rational_rank(kept + [vector]) == rational_rank(kept)


def random_hermitian(rng, dim):
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    return (g + g.conj().T) / 2.0


# -- criterion 1: the crossing-singlets demo ----------------------------------


def test_criterion_1_demo_overlap_matches_tensor_oracle():
    with criterion(
        1,
        "demo histories equal at rest, boosted mid-interval overlap 0.5 "
        "within 1e-10 of the dense tensor oracle, under 1s",
    ):
        start = time.perf_counter()
        bundle = built_in_demo()
        free, flip = bundle.rules["free"], bundle.rules["flip"]
        rest, xboost = bundle.foliations[0], bundle.foliations[1]

        at_rest = compare_histories(
            evolve(bundle.scenario, rest, free), evolve(bundle.scenario, rest, flip)
        )
        assert at_rest.equal
        assert all(abs(mag - 1.0) <= 1e-10 for _, _, mag in at_rest.samples)

        boosted = compare_histories(
            evolve(bundle.scenario, xboost, free),
            evolve(bundle.scenario, xboost, flip),
        )
        assert not boosted.equal
        elapsed = time.perf_counter() - start

        psi0 = tensor_double_singlet()
        after_first = tensor_swap(1, 3) @ psi0
        oracle = abs(np.vdot(psi0, after_first))
        assert abs(oracle - 0.5) <= 1e-12
        assert boosted.witness_tau == Fraction(17, 4)
        assert abs(boosted.witness_overlap - oracle) <= 1e-10
        # the oracle also fixes the rest-frame agreement: both swaps at once
        both = tensor_swap(0, 2) @ after_first
        assert abs(abs(np.vdot(psi0, both)) - 1.0) <= 1e-12
        assert elapsed < 1.0


# -- criterion 2: boost family, exact leaf grouping ---------------------------


def test_criterion_2_exact_grouping_across_boosts():
    with criterion(
        2,
        "y-boost keeps one simultaneous leaf (histories equal); x-boosts "
        "3/5, 4/5, -3/5 split it (histories differ); grouping is exact",
    ):
        bundle = built_in_demo()
        scenario = bundle.scenario
        free, flip = bundle.rules["free"], bundle.rules["flip"]

        y = Foliation((Fraction(0), Fraction(1, 2), Fraction(0)))
        schedule = collision_schedule(scenario.worldlines, y)
        assert len(schedule) == 1
        assert schedule[0].pairs == ((0, 2), (1, 3))
        assert isinstance(schedule[0].core, Fraction)
        assert schedule[0].core == Fraction(4)
        same = compare_histories(evolve(scenario, y, free), evolve(scenario, y, flip))
        assert same.equal

        for vx in (Fraction(3, 5), Fraction(4, 5), Fraction(-3, 5)):
            fol = Foliation((vx, Fraction(0), Fraction(0)))
            schedule = collision_schedule(scenario.worldlines, fol)
            assert len(schedule) == 2
            cores = [g.core for g in schedule]
            assert all(isinstance(c, Fraction) for c in cores)
            assert cores[0] != cores[1]  # distinct exact rationals, no tolerance
            differs = compare_histories(
                evolve(scenario, fol, free), evolve(scenario, fol, flip)
            )
            assert not differs.equal


# -- criterion 3: cluster compliance vs rational-elimination oracle -----------


def random_kernel(rng):
    while True:
        n_out = int(rng.integers(1, 5))
        n_in = int(rng.integers(1, 6 - n_out))
        width = n_out + n_in
        rows = []
        dead = False
        for _ in range(int(rng.integers(0, 5))):
            for _ in range(32):
                row = tuple(int(c) for c in rng.integers(-2, 3, size=width))
                if any(row):
                    rows.append(row)
                    break
            else:
                dead = True
                break
        if dead:
            continue
        return MomentumKernel(
            in_slots=tuple(f"p{i + 1}" for i in range(n_in)),
            out_slots=tuple(f"q{i + 1}" for i in range(n_out)),
            deltas=tuple(rows),
        )


def test_criterion_3_cluster_verdicts_match_oracle():
    with criterion(
        3,
        "spin-exchange kernel flagged (rank 2, proper-subset witness), "
        "single-delta kernel passes, 10^4 random kernels agree with the "
        "rational row-space oracle",
    ):
        swap_kernel = MomentumKernel(
            in_slots=("p1", "p2"),
            out_slots=("q1", "q2"),
            deltas=((0, 1, -1, 0), (1, 0, 0, -1)),
        )
        verdict = analyze(swap_kernel)
        assert verdict.conserves_momentum
        assert not verdict.compliant
        assert verdict.rank == 2
        coeffs, support = verdict.witness
        assert set(support) < set(swap_kernel.slots)
        assert support == ("q1", "p2")
        canonical = canonicalize(swap_kernel)
        assert canonical.deltas[0] == (1, 1, -1, -1)

        single = MomentumKernel(
            in_slots=("p1", "p2"),
            out_slots=("q1", "q2"),
            deltas=((1, 1, -1, -1),),
        )
        assert analyze(single).compliant

        rng = np.random.default_rng(20260815)
        for _ in range(10_000):
            kernel = random_kernel(rng)
            got = analyze(kernel)
            cons = conservation_vector(kernel)
            conserves = in_row_space(kernel.deltas, cons)
            rank = rational_rank(kernel.deltas)
            assert got.conserves_momentum == conserves
            assert got.rank == rank
            assert got.compliant == (conserves and rank == 1)
            if conserves and rank > 1:
                coeffs, support = got.witness
                assert in_row_space(kernel.deltas, coeffs)
                assert rational_rank([coeffs, cons]) == 2
                assert set(support) < set(kernel.slots)
                assert support == tuple(
                    s for s, c in zip(kernel.slots, coeffs) if c != 0
                )


# -- criterion 4: repaired crossings undo each other --------------------------


def test_criterion_4_sequential_swaps_return_and_commute():
    with criterion(
        4,
        "swap(0,2) then swap(1,3) returns the double singlet with phase +1 "
        "within 1e-12; simultaneous equals sequential within 1e-12",
    ):
        psi0 = singlet_product(4, [(0, 1), (2, 3)])
        swap = swap_unitary()
        sequential = apply_contact(
            apply_contact(psi0, swap, (0, 2)), swap, (1, 3)
        )
        phase = overlap(psi0, sequential)
        assert abs(phase - 1.0) <= 1e-12

        simultaneous = apply_group(psi0, [(swap, (0, 2)), (swap, (1, 3))])
        assert np.max(np.abs(simultaneous.amplitudes - sequential.amplitudes)) <= 1e-12

        reversed_order = apply_group(psi0, [(swap, (1, 3)), (swap, (0, 2))])
        assert np.max(np.abs(reversed_order.amplitudes - sequential.amplitudes)) <= 1e-12


# -- criterion 5: boost-correction solver on random solvable systems ----------


def test_criterion_5_solver_residuals_on_random_systems():
    with criterion(
        5,
        "100 random Hermitian systems (dim <= 10, gaps > 1e-3): defining-"
        "equation residual <= 1e-8 x input scale, W Hermitian within 1e-8, "
        "V = 0 gives W = 0 exactly",
    ):
        rng = np.random.default_rng(505)
        for _ in range(100):
            dim = int(rng.integers(2, 11))
            g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
            q, _ = np.linalg.qr(g)
            energies = np.cumsum(rng.uniform(0.01, 1.0, size=dim))
            h = q @ np.diag(energies) @ q.conj().T
            v = q @ np.diag(rng.normal(size=dim)) @ q.conj().T
            k0 = random_hermitian(rng, dim)

            gaps = np.diff(np.linalg.eigvalsh(h))
            assert gaps.min() > 1e-3

            solution = solve_W(SplitSystem(H0=h - v, V=v, K0=(k0,)))
            scale = max(
                1.0,
                float(np.linalg.norm(h - v)),
                float(np.linalg.norm(v)),
                float(np.linalg.norm(k0)),
            )
            assert not solution.obstructed
            assert solution.residual <= 1e-8 * scale
            assert hermiticity_defect(solution.W) <= 1e-8

        h0 = random_hermitian(rng, 6)
        k0 = random_hermitian(rng, 6)
        trivial = solve_W(SplitSystem(H0=h0, V=np.zeros((6, 6)), K0=(k0,)))
        assert np.count_nonzero(trivial.W) == 0
        assert trivial.residual == 0.0


# -- criterion 6: history comparison and boost-action checks ------------------


def test_criterion_6_same_history_and_nontriviality():
    with criterion(
        6,
        "shared-eigenvector interactions agree with phase e^{0.7it} within "
        "1e-9; non-commuting pair disagrees; W in {0, identity} acts "
        "trivially, perturbed eigenvector does not",
    ):
        h0 = np.diag([1.0, 2.0, 4.0])
        va = np.diag([0.7, 0.1, -0.3])
        vb = np.zeros((3, 3))
        psi = np.array([1.0, 0.0, 0.0])
        same, samples = same_history_check(h0, va, vb, psi, [0.0, 0.3, 1.0, 2.5])
        assert same
        for t, c in samples:
            assert abs(c - np.exp(0.7j * t)) <= 1e-9

        sz = np.diag([1.0, -1.0])
        sx = np.array([[0.0, 1.0], [1.0, 0.0]])
        plus = np.array([1.0, 0.0])
        different, samples = same_history_check(
            sz, np.zeros((2, 2)), sx, plus, [0.0, 0.5, 1.0, 2.0]
        )
        assert not different
        assert min(abs(c) for _, c in samples) < 1.0 - 1e-6

        assert not boost_nontriviality_check(np.zeros((2, 2)), plus)
        assert not boost_nontriviality_check(np.eye(2), plus)
        rng = np.random.default_rng(606)
        w = random_hermitian(rng, 4)
        _, vecs = np.linalg.eigh(w)
        assert not boost_nontriviality_check(w, vecs[:, 0])
        perturbed = vecs[:, 0] + 0.1 * vecs[:, 1]
        perturbed = perturbed / np.linalg.norm(perturbed)
        assert boost_nontriviality_check(w, perturbed)


# -- criterion 7: geometry stress tests ---------------------------------------


def random_rational(rng, lo, hi, max_den):
    den = int(rng.integers(1, max_den + 1))
    return Fraction(int(rng.integers(lo * den, hi * den + 1)), den)


def random_crossing_pair(rng, ids, z):
    """Two worldlines forced through one event at a rational time > 0."""
    while True:
        t_hit = random_rational(rng, 1, 3, 4)
        point = (random_rational(rng, -2, 2, 4), random_rational(rng, -2, 2, 4))
        velocities = [
            (
                random_rational(rng, -1, 1, 4) / 2,
                random_rational(rng, -1, 1, 4) / 2,
                Fraction(0),
            )
            for _ in range(2)
        ]
        if velocities[0] == velocities[1]:
            continue
        return [
            Worldline(
                wid,
                f"s{wid}",
                Event.of(0, point[0] - v[0] * t_hit, point[1] - v[1] * t_hit, z),
                v,
            )
            for wid, v in zip(ids, velocities)
        ]


def test_criterion_7_boosts_singlets_and_float_agreement():
    with criterion(
        7,
        "10^4 random boosts preserve the metric within 1e-12, singlet "
        "angular momenta vanish within 1e-12, exact and float scheduling "
        "agree within 1e-9 on 10^3 random rational scenarios",
    ):
        rng = np.random.default_rng(707)
        eta = np.diag([1.0, -1.0, -1.0, -1.0])
        worst = 0.0
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            for _ in range(10_000):
                direction = rng.normal(size=3)
                direction /= np.linalg.norm(direction)
                speed = rng.uniform(0.0, 0.99)
                lam = np.array(boost_matrix(tuple(direction * speed)), dtype=float)
                worst = max(worst, float(np.max(np.abs(lam.T @ eta @ lam - eta))))
        assert worst <= 1e-12

        for state in (singlet_product(2, [(0, 1)]), singlet_product(4, [(0, 1), (2, 3)])):
            assert max(angular_momentum_norms(state)) <= 1e-12

        produced = 0
        while produced < 1_000:
            lines = tuple(
                random_crossing_pair(rng, (0, 1), Fraction(0))
                + random_crossing_pair(rng, (2, 3), Fraction(1))
            )
            velocity = tuple(random_rational(rng, -1, 1, 6) / 2 for _ in range(3))
            exact = collision_schedule(lines, Foliation(velocity))
            cores = sorted(float(g.core) for g in exact)
            if len(cores) == 2 and 0.0 < cores[1] - cores[0] < 1e-6:
                continue  # keep the tie tolerance out of this comparison
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                approx = collision_schedule(
                    lines, Foliation(tuple(float(c) for c in velocity))
                )
            assert len(exact) == len(approx)
            exact_taus = {}
            for group in exact:
                for pair in group.pairs:
                    exact_taus[pair] = float(group.tau)
            seen = set()
            for group in approx:
                for pair in group.pairs:
                    assert abs(exact_taus[pair] - float(group.tau)) <= 1e-9
                    seen.add(pair)
            assert seen == set(exact_taus)
            produced += 1


# -- criterion 8: the command-line surface is deterministic -------------------


def test_criterion_8_cli_runs_are_byte_identical(tmp_path):
    with criterion(
        8,
        "two consecutive runs of the full command suite produce identical "
        "stdout and identical CSV bytes",
    ):
        from narratables.fileio import write_scenario_file

        scenario = tmp_path / "scenario.json"
        write_scenario_file(built_in_demo(), scenario)
        h0 = tmp_path / "h0.json"
        h0.write_text(json.dumps([[0, 0], [0, 1]]))
        v = tmp_path / "v.json"
        v.write_text(json.dumps([[0, 0], [0, 0.5]]))
        k0 = tmp_path / "k0.json"
        k0.write_text(json.dumps([[0, 1], [1, 0]]))
        psi = tmp_path / "psi.json"
        psi.write_text(json.dumps([1, 0]))
        gens = tmp_path / "gens.json"
        gens.write_text(json.dumps(
            {n: [[0]] for n in ("H", "P1", "P2", "P3", "J1", "J2", "J3", "K1", "K2", "K3")}
        ))

        def suite(tag):
            csv_dir = tmp_path / tag
            csv_dir.mkdir()
            demo_csv = csv_dir / "demo.csv"
            sim_csv = csv_dir / "sim.csv"
            cmp_csv = csv_dir / "cmp.csv"
            transcript = [
                run_cli("demo-paper", "--csv", str(demo_csv)),
                run_cli("simulate", str(scenario), "--rule", "free", "--foliation", "0"),
                run_cli("simulate", str(scenario), "--rule", "flip", "--foliation", "1",
                        "--csv", str(sim_csv)),
                run_cli("simulate", str(scenario), "--rule", "flip", "--foliation", "2"),
                run_cli("compare-frames", str(scenario), "--csv", str(cmp_csv)),
                run_cli("cluster-check", "--builtin", "spin-swap"),
                run_cli("cluster-check", "--builtin", "single-delta"),
                run_cli("algebra", "residuals", str(gens)),
                run_cli("algebra", "solve-w", str(h0), str(v), str(k0)),
                run_cli("algebra", "same-history", str(h0), str(v), str(v), str(psi)),
                run_cli("algebra", "boost-check", str(k0), str(psi)),
            ]
            blobs = [p.read_bytes() for p in (demo_csv, sim_csv, cmp_csv)]
            return transcript, blobs

        first_transcript, first_blobs = suite("first")
        second_transcript, second_blobs = suite("second")
        assert all(code == 0 or code == 2 for code, _, _ in first_transcript)
        assert first_transcript == second_transcript
        assert first_blobs == second_blobs
