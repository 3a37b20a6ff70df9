"""Bracket tables, the boost correction W, and the history checks."""

import warnings

import numpy as np
import pytest
import scipy.linalg
from hypothesis import assume, given
from hypothesis import strategies as st

from narratables import algebra
from narratables.algebra import (
    GeneratorSet,
    SplitSystem,
    WSolution,
    boost_nontriviality_check,
    boost_residual,
    bracket_residuals,
    commutator,
    hermiticity_defect,
    same_history_check,
    solve_W,
)
from narratables.errors import DimensionMismatch, NonHermitianInput, NotNormalized

ETA = np.diag([1.0, -1.0, -1.0, -1.0])


def rotation_generator(mu, nu):
    # 5x5 affine representation: (m)^a_b = i(delta^a_mu eta_nu_b - delta^a_nu eta_mu_b)
    out = np.zeros((5, 5), dtype=complex)
    for a in range(4):
        for b in range(4):
            out[a, b] = 1j * (
                (1.0 if a == mu else 0.0) * ETA[nu, b]
                - (1.0 if a == nu else 0.0) * ETA[mu, b]
            )
    return out


def translation_generator(mu):
    out = np.zeros((5, 5), dtype=complex)
    out[mu, 4] = 1.0
    return out


def affine_generators():
    return GeneratorSet(
        H=translation_generator(0),
        P1=translation_generator(1),
        P2=translation_generator(2),
        P3=translation_generator(3),
        J1=rotation_generator(2, 3),
        J2=rotation_generator(3, 1),
        J3=rotation_generator(1, 2),
        K1=rotation_generator(0, 1),
        K2=rotation_generator(0, 2),
        K3=rotation_generator(0, 3),
    )


def loop_commutator(a, b):
    # independent second path: no numpy matmul
    n = a.shape[0]
    out = np.zeros((n, n), dtype=complex)
    for i in range(n):
        for j in range(n):
            out[i, j] = sum(
                a[i, k] * b[k, j] - b[i, k] * a[k, j] for k in range(n)
            )
    return out


def frobenius(m):
    return float(np.sqrt(sum(abs(m[i, j]) ** 2 for i in range(m.shape[0]) for j in range(m.shape[1]))))


def random_hermitian(rng, dim):
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    return (g + g.conj().T) / 2.0


def test_commutator_and_defect_basics():
    x = np.array([[0, 1], [1, 0]], dtype=complex)
    z = np.array([[1, 0], [0, -1]], dtype=complex)
    assert np.allclose(commutator(x, z), x @ z - z @ x)
    assert hermiticity_defect(x) == 0.0
    assert hermiticity_defect(np.array([[0, 1j], [1j, 0]])) > 0


def test_generator_set_validation():
    with pytest.raises(ValueError):
        GeneratorSet()
    with pytest.raises(DimensionMismatch):
        GeneratorSet(H=np.eye(2), P1=np.eye(3))
    with pytest.raises(DimensionMismatch):
        GeneratorSet(H=np.zeros((2, 3)))
    gens = GeneratorSet(H=np.eye(2), K1=np.array([[0, 1j], [0, 0]]))
    defects = gens.hermiticity_residuals()
    assert defects["H"] == 0.0
    assert defects["K1"] > 0


def test_generator_set_reads_by_name_in_table_order():
    with pytest.raises(TypeError) as caught:
        GeneratorSet(H=np.eye(2), Q=np.eye(2))
    assert str(caught.value) == ("unknown generator names ['Q']; allowed: ['H', 'P1', 'P2', "
                                 "'P3', 'J1', 'J2', 'J3', 'K1', 'K2', 'K3']")
    gens = GeneratorSet(K3=np.eye(2), J1=np.eye(2), H=np.eye(2), P2=None)
    assert gens.P2 is None and gens.K1 is None
    np.testing.assert_array_equal(gens.K3, np.eye(2))
    assert list(gens.present()) == ["H", "J1", "K3"]
    assert list(gens.hermiticity_residuals()) == ["H", "J1", "K3"]
    # the first generator in table order sets the dimension, whatever the keyword order
    with pytest.raises(DimensionMismatch, match=r"^K1 is 2x2, others are 1x1$"):
        GeneratorSet(K1=np.eye(2), H=np.eye(1))
    with pytest.raises(AttributeError):
        gens.Q


def test_bracket_residuals_needs_two_generators():
    with pytest.raises(ValueError):
        bracket_residuals(GeneratorSet(H=np.eye(3)))


# (residual name, A, B, c, C): the 45 rows of the Poincare bracket table with
# required right-hand side c * C (C None for a vanishing bracket), in the order
# the CLI prints them
BRACKET_ROWS = [
    ("[J1,K1]", "J1", "K1", 0, None),
    ("[J1,P1]", "J1", "P1", 0, None),
    ("[P1,K1] - i*H", "P1", "K1", 1j, "H"),
    ("[J1,J2] - i*J3", "J1", "J2", 1j, "J3"),
    ("[K1,K2] + i*J3", "K1", "K2", -1j, "J3"),
    ("[P1,P2]", "P1", "P2", 0, None),
    ("[J1,K2] - i*K3", "J1", "K2", 1j, "K3"),
    ("[J1,P2] - i*P3", "J1", "P2", 1j, "P3"),
    ("[P1,K2]", "P1", "K2", 0, None),
    ("[J1,J3] + i*J2", "J1", "J3", -1j, "J2"),
    ("[K1,K3] - i*J2", "K1", "K3", 1j, "J2"),
    ("[P1,P3]", "P1", "P3", 0, None),
    ("[J1,K3] + i*K2", "J1", "K3", -1j, "K2"),
    ("[J1,P3] + i*P2", "J1", "P3", -1j, "P2"),
    ("[P1,K3]", "P1", "K3", 0, None),
    ("[J2,K1] + i*K3", "J2", "K1", -1j, "K3"),
    ("[J2,P1] + i*P3", "J2", "P1", -1j, "P3"),
    ("[P2,K1]", "P2", "K1", 0, None),
    ("[J2,K2]", "J2", "K2", 0, None),
    ("[J2,P2]", "J2", "P2", 0, None),
    ("[P2,K2] - i*H", "P2", "K2", 1j, "H"),
    ("[J2,J3] - i*J1", "J2", "J3", 1j, "J1"),
    ("[K2,K3] + i*J1", "K2", "K3", -1j, "J1"),
    ("[P2,P3]", "P2", "P3", 0, None),
    ("[J2,K3] - i*K1", "J2", "K3", 1j, "K1"),
    ("[J2,P3] - i*P1", "J2", "P3", 1j, "P1"),
    ("[P2,K3]", "P2", "K3", 0, None),
    ("[J3,K1] - i*K2", "J3", "K1", 1j, "K2"),
    ("[J3,P1] - i*P2", "J3", "P1", 1j, "P2"),
    ("[P3,K1]", "P3", "K1", 0, None),
    ("[J3,K2] + i*K1", "J3", "K2", -1j, "K1"),
    ("[J3,P2] + i*P1", "J3", "P2", -1j, "P1"),
    ("[P3,K2]", "P3", "K2", 0, None),
    ("[J3,K3]", "J3", "K3", 0, None),
    ("[J3,P3]", "J3", "P3", 0, None),
    ("[P3,K3] - i*H", "P3", "K3", 1j, "H"),
    ("[K1,H] + i*P1", "K1", "H", -1j, "P1"),
    ("[P1,H]", "P1", "H", 0, None),
    ("[J1,H]", "J1", "H", 0, None),
    ("[K2,H] + i*P2", "K2", "H", -1j, "P2"),
    ("[P2,H]", "P2", "H", 0, None),
    ("[J2,H]", "J2", "H", 0, None),
    ("[K3,H] + i*P3", "K3", "H", -1j, "P3"),
    ("[P3,H]", "P3", "H", 0, None),
    ("[J3,H]", "J3", "H", 0, None),
]


def test_affine_representation_closes_exactly():
    residuals = bracket_residuals(affine_generators())
    assert list(residuals) == [name for name, *_ in BRACKET_ROWS]
    assert all(value == 0.0 for value in residuals.values())


@st.composite
def generator_subsets(draw):
    names = draw(st.lists(st.sampled_from(algebra.GENERATOR_NAMES), min_size=2, unique=True))
    dim = draw(st.integers(1, 4))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    return {name: rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
            for name in names}


@given(generator_subsets())
def test_bracket_residuals_match_the_written_table(mats):
    expected = {
        name: float(np.linalg.norm(mats[a] @ mats[b] - mats[b] @ mats[a]
                                   - (c * mats[rhs] if rhs else 0)))
        for name, a, b, c, rhs in BRACKET_ROWS
        if a in mats and b in mats and (rhs is None or rhs in mats)
    }
    residuals = bracket_residuals(GeneratorSet(**mats))
    assert list(residuals) == list(expected)
    for name, value in expected.items():
        assert residuals[name] == pytest.approx(value, abs=1e-12)


def test_all_zero_generators_give_zero_table():
    zero = np.zeros((3, 3), dtype=complex)
    gens = GeneratorSet(**{name: zero for name in
                           ("H", "P1", "P2", "P3", "J1", "J2", "J3", "K1", "K2", "K3")})
    residuals = bracket_residuals(gens)
    assert len(residuals) == 45
    assert set(residuals.values()) == {0.0}


def test_forced_residual_equals_h_norm():
    rng = np.random.default_rng(11)
    h = random_hermitian(rng, 4)
    zero = np.zeros((4, 4), dtype=complex)
    residuals = bracket_residuals(GeneratorSet(H=h, P1=zero, K1=zero))
    assert residuals["[P1,K1] - i*H"] == pytest.approx(np.linalg.norm(h), abs=1e-12)
    assert residuals["[K1,H] + i*P1"] == 0.0
    assert residuals["[P1,H]"] == 0.0


def test_bracket_residuals_against_loop_oracle():
    rng = np.random.default_rng(5150)
    h = random_hermitian(rng, 3)
    p = [random_hermitian(rng, 3) for _ in range(3)]
    k = [random_hermitian(rng, 3) for _ in range(3)]
    gens = GeneratorSet(H=h, P1=p[0], P2=p[1], P3=p[2], K1=k[0], K2=k[1], K3=k[2])
    residuals = bracket_residuals(gens)

    oracle = {}
    for i in range(1, 4):
        for j in range(1, 4):
            if i < j:
                oracle[f"[P{i},P{j}]"] = frobenius(loop_commutator(p[i - 1], p[j - 1]))
            if i != j:
                oracle[f"[P{i},K{j}]"] = frobenius(loop_commutator(p[i - 1], k[j - 1]))
            else:
                oracle[f"[P{i},K{i}] - i*H"] = frobenius(
                    loop_commutator(p[i - 1], k[i - 1]) - 1j * h
                )
        oracle[f"[K{i},H] + i*P{i}"] = frobenius(
            loop_commutator(k[i - 1], h) + 1j * p[i - 1]
        )
        oracle[f"[P{i},H]"] = frobenius(loop_commutator(p[i - 1], h))
    assert set(residuals) == set(oracle)
    for name, value in oracle.items():
        assert residuals[name] == pytest.approx(value, abs=1e-12)


def test_missing_generators_skip_rows():
    gens = GeneratorSet(J1=np.eye(2), J2=np.eye(2))  # no J3: JJ bracket unverifiable
    residuals = bracket_residuals(gens)
    assert not any(name.startswith("[J1,J2]") for name in residuals)
    assert "[J1,J1]" not in residuals


def test_split_system_validation():
    with pytest.raises(ValueError):
        SplitSystem(H0=np.eye(2), V=np.zeros((2, 2)), K0=())
    with pytest.raises(DimensionMismatch, match=r"^V is 3x3, others are 2x2$"):
        SplitSystem(H0=np.eye(2), V=np.zeros((3, 3)), K0=(np.eye(2),))
    with pytest.raises(DimensionMismatch, match=r"^K0\[1\] is 3x3, others are 2x2$"):
        SplitSystem(H0=np.eye(2), V=np.zeros((2, 2)), K0=(np.eye(2), np.eye(3)))
    with pytest.raises(DimensionMismatch, match=r"^K0\[0\] must be a square matrix"):
        SplitSystem(H0=np.eye(2), V=np.zeros((2, 2)), K0=(np.zeros((2, 3)),))
    with pytest.warns(NonHermitianInput):
        SplitSystem(H0=np.eye(2), V=np.array([[0, 1], [0, 0]]), K0=(np.eye(2),))
    system = SplitSystem(H0=np.diag([0.0, 1.0]), V=np.diag([0.0, 0.5]),
                         K0=(np.array([[0.0, 1.0], [1.0, 0.0]]),))
    assert np.array_equal(system.H, np.diag([0.0, 1.5]))


def test_solve_w_frozen_2x2():
    system = SplitSystem(
        H0=np.diag([0.0, 1.0]),
        V=np.diag([0.0, 0.5]),
        K0=(np.array([[0.0, 1.0], [1.0, 0.0]]),),
    )
    solution = solve_W(system)
    expected = np.array([[0.0, -1.0 / 3.0], [-1.0 / 3.0, 0.0]])
    assert np.max(np.abs(solution.W - expected)) <= 1e-12
    assert solution.residual <= 1e-10
    assert solution.degenerate_obstructions == ()
    assert not solution.obstructed
    assert hermiticity_defect(solution.W) <= 1e-12


def test_solve_w_zero_interaction():
    rng = np.random.default_rng(3)
    h0 = random_hermitian(rng, 5)
    k0 = random_hermitian(rng, 5)
    solution = solve_W(SplitSystem(H0=h0, V=np.zeros((5, 5)), K0=(k0,)))
    assert np.all(solution.W == 0)
    assert solution.residual == 0.0


def random_solvable_system(rng, dim):
    """Random Hermitian system with [V, H] = 0, so the defining equation
    is solvable: the diagonal of [K0, V] vanishes in the H eigenbasis.

    (For dense independent V and K0 that diagonal is generically nonzero
    and no W can cancel it; see test_solve_w_dense_diagonal_obstruction.)
    """
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, _ = np.linalg.qr(g)
    energies = np.cumsum(rng.uniform(0.01, 1.0, size=dim))
    v_eigs = rng.normal(size=dim)
    h = q @ np.diag(energies) @ q.conj().T
    v = q @ np.diag(v_eigs) @ q.conj().T
    k0 = random_hermitian(rng, dim)
    return SplitSystem(H0=h - v, V=v, K0=(k0,))


def test_solve_w_random_residuals():
    rng = np.random.default_rng(1031)
    for _ in range(20):
        dim = int(rng.integers(2, 9))
        system = random_solvable_system(rng, dim)
        solution = solve_W(system)
        scale = max(1.0, float(np.linalg.norm(commutator(system.K0[0], system.V))))
        assert not solution.obstructed
        assert solution.residual <= 1e-8 * scale
        assert hermiticity_defect(solution.W) <= 1e-8
        # rescaling V keeps the defining equation solvable
        rescaled = solve_W(SplitSystem(H0=system.H0, V=3.0 * system.V, K0=system.K0))
        rescale_norm = max(
            1.0, float(np.linalg.norm(commutator(system.K0[0], 3.0 * system.V)))
        )
        assert rescaled.residual <= 1e-8 * rescale_norm


def test_solve_w_dense_diagonal_obstruction():
    # independent dense V and K0: <a|[K0,V]|a> != 0 while any [W,H] has a
    # zero diagonal in the H eigenbasis, so the solver must report rather
    # than hide the unsolvable part
    rng = np.random.default_rng(4)
    h0 = random_hermitian(rng, 5)
    v = random_hermitian(rng, 5)
    k0 = random_hermitian(rng, 5)
    solution = solve_W(SplitSystem(H0=h0, V=v, K0=(k0,)))
    assert solution.obstructed
    assert all(a == b for a, b in solution.degenerate_obstructions)
    # the residual equals exactly the unsolvable diagonal's norm
    h = h0 + v
    _, q = np.linalg.eigh(h)
    m_eig = q.conj().T @ commutator(k0, v) @ q
    assert solution.residual == pytest.approx(
        float(np.linalg.norm(np.diag(m_eig))), abs=1e-10
    )


def test_solve_w_degenerate_obstruction():
    # H = diag(1, 1, 2) with [K0, V] coupling the degenerate pair
    v = np.array([[0.0, 0.5, 0.0], [0.5, 0.0, 0.0], [0.0, 0.0, 0.0]])
    h0 = np.diag([1.0, 1.0, 2.0]) - v
    k0 = np.diag([1.0, -1.0, 0.0])
    solution = solve_W(SplitSystem(H0=h0, V=v, K0=(k0,)))
    assert solution.obstructed
    assert (0, 1) in solution.degenerate_obstructions
    assert solution.residual == pytest.approx(np.sqrt(2.0), abs=1e-12)


def loop_solve_w(system):
    """solve_W's eigenbasis division written entry by entry, as the reference."""
    h = system.H
    m = commutator(system.K0[0], system.V)
    if hermiticity_defect(h) <= algebra.HERMITIAN_TOLERANCE:
        energies, q = np.linalg.eigh(h)
        q_inv = q.conj().T
    else:
        energies, q = np.linalg.eig(h)
        q_inv = np.linalg.inv(q)
    m_eig = q_inv @ m @ q
    eps_deg = algebra.DEGENERACY_FACTOR * np.linalg.norm(h)
    eps_obs = algebra.OBSTRUCTION_FACTOR * np.linalg.norm(m)
    n = len(energies)
    w_eig = np.zeros((n, n), dtype=complex)
    obstructions = []
    for a in range(n):
        for b in range(n):
            gap = energies[a] - energies[b]
            if abs(gap) > eps_deg:
                w_eig[a, b] = m_eig[a, b] / gap
            elif abs(m_eig[a, b]) > eps_obs:
                obstructions.append((a, b))
    w = q @ w_eig @ q_inv
    return w, float(np.linalg.norm(m + commutator(w, h))), tuple(obstructions)


def test_solve_w_matches_entry_by_entry_reference():
    rng = np.random.default_rng(2024)
    v = random_hermitian(rng, 5)
    systems = [
        SplitSystem(H0=np.diag([1.0, 1.0, 2.0, 2.0, 3.0]) - v, V=v,
                    K0=(random_hermitian(rng, 5),)),
    ]
    for dim in (1, 2, 5, 8, 24):
        systems.append(random_solvable_system(rng, dim))
        systems.append(SplitSystem(H0=random_hermitian(rng, dim), V=random_hermitian(rng, dim),
                                   K0=(random_hermitian(rng, dim),)))
    with pytest.warns(NonHermitianInput):
        systems.append(SplitSystem(H0=random_hermitian(rng, 4),
                                   V=np.triu(rng.normal(size=(4, 4)), 1),
                                   K0=(random_hermitian(rng, 4),)))
    for system in systems:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", NonHermitianInput)
            solution = solve_W(system)
            w, residual, obstructions = loop_solve_w(system)
        assert np.array_equal(solution.W, w)
        assert solution.residual == residual
        assert solution.degenerate_obstructions == obstructions
        assert all(type(i) is int for pair in obstructions for i in pair)
    assert solve_W(systems[0]).degenerate_obstructions  # the degenerate pairs obstruct


def test_solve_w_axis_bounds():
    system = SplitSystem(H0=np.eye(2), V=np.zeros((2, 2)), K0=(np.eye(2),))
    with pytest.raises(DimensionMismatch):
        solve_W(system, axis=1)


def test_same_history_identical_interactions():
    rng = np.random.default_rng(77)
    h0 = random_hermitian(rng, 4)
    v = random_hermitian(rng, 4)
    psi = rng.normal(size=4) + 1j * rng.normal(size=4)
    psi /= np.linalg.norm(psi)
    same, samples = same_history_check(h0, v, v, psi, [0.0, 0.5, 1.0, 50.0])
    assert same
    for _, c in samples:
        # c(t) = <psi(t)|psi(t)>: doubles as the exponential-unitarity check
        assert c == pytest.approx(1.0, abs=1e-10)


def test_same_history_shared_eigenvector_phase():
    h0 = np.diag([1.0, 2.0, 4.0])
    va = np.diag([0.7, 0.1, -0.3])
    vb = np.zeros((3, 3))
    psi = np.array([1.0, 0.0, 0.0])
    times = [0.0, 0.3, 1.1, 2.5]
    same, samples = same_history_check(h0, va, vb, psi, times)
    assert same
    for t, c in samples:
        assert abs(c - np.exp(1j * 0.7 * t)) <= 1e-9


def test_same_history_non_commuting_false():
    h0 = np.diag([1.0, -1.0])
    va = np.zeros((2, 2))
    vb = np.array([[0.0, 1.0], [1.0, 0.0]])
    psi = np.array([1.0, 0.0])
    same, samples = same_history_check(h0, va, vb, psi, [0.0, 0.5, 1.0])
    assert not same
    assert min(abs(c) for _, c in samples) < 1.0 - 1e-6


def test_same_history_swap_symmetry():
    rng = np.random.default_rng(123)
    h0 = random_hermitian(rng, 3)
    va = random_hermitian(rng, 3)
    vb = random_hermitian(rng, 3)
    psi = rng.normal(size=3) + 1j * rng.normal(size=3)
    psi /= np.linalg.norm(psi)
    times = [0.2, 0.9, 1.7]
    flag_ab, samples_ab = same_history_check(h0, va, vb, psi, times)
    flag_ba, samples_ba = same_history_check(h0, vb, va, psi, times)
    assert flag_ab == flag_ba
    for (_, c_ab), (_, c_ba) in zip(samples_ab, samples_ba):
        assert abs(c_ab - np.conj(c_ba)) <= 1e-12


def test_same_history_input_checks():
    h0 = np.diag([1.0, 2.0])
    v = np.zeros((2, 2))
    with pytest.raises(NotNormalized, match="^psi0 must be normalized$"):
        same_history_check(h0, v, v, np.array([1.0, 1.0]), [0.0])
    with pytest.raises(DimensionMismatch, match="^state has dimension 3, H0 has 2$"):
        same_history_check(h0, v, v, np.array([1.0, 0.0, 0.0]), [0.0])
    upper = np.array([[0.0, 0.4], [0.0, 0.0]])  # not Hermitian
    for va in (v, upper):
        for times in ([float("nan")], [float("inf")], [0.0, 0.5, -float("inf")]):
            with pytest.raises(ValueError, match="finite"):
                same_history_check(h0, va, v, np.array([1.0, 0.0]), times)


def test_same_history_names_an_interaction_of_another_dimension():
    h0 = np.diag([1.0, 2.0, 3.0])
    v = np.zeros((3, 3))
    psi = np.array([1.0, 0.0, 0.0])
    for va, vb, why in [(np.array([[0.5]]), v, "Va is 1x1, others are 3x3"),
                        (v, np.array([[0.5]]), "Vb is 1x1, others are 3x3"),
                        (np.eye(2), v, "Va is 2x2, others are 3x3")]:
        with pytest.raises(DimensionMismatch) as caught:
            same_history_check(h0, va, vb, psi, [0.0, 1.0])
        assert str(caught.value) == why


def test_same_history_non_hermitian_fallback_warns():
    h0 = np.diag([1.0, 2.0])
    va = np.array([[0.0, 0.4], [0.0, 0.0]])  # not Hermitian
    vb = np.zeros((2, 2))
    psi = np.array([1.0, 0.0])
    with pytest.warns(NonHermitianInput):
        same, samples = same_history_check(h0, va, vb, psi, [0.0, 0.5])
    assert len(samples) == 2
    assert all(np.isfinite(abs(c)) for _, c in samples)


def reference_overlaps(h0, va, vb, psi, times, hermitian):
    """c(t) sample by sample: a fresh eigh, or a fresh expm, for every t."""

    def state(h, t):
        if hermitian:
            evals, q = np.linalg.eigh(h)
            return q @ (np.exp(1j * evals * t) * (q.conj().T @ psi))
        return scipy.linalg.expm(1j * t * h) @ psi

    return [complex(np.vdot(state(h0 + vb, t), state(h0 + va, t))) for t in times]


TIME_VALUES = st.one_of(
    st.sampled_from([0.0, -0.0, 0.125, 0.25, 1.0, -1.0]),
    st.integers(-16, 16).map(lambda k: k / 8),
    st.floats(-2.0, 2.0, allow_nan=False),
)


@st.composite
def history_cases(draw):
    """(h0, va, vb, psi, times, hermitian): times unsorted, repeated and irregular."""
    dim = draw(st.integers(2, 8))
    hermitian = draw(st.booleans())
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    h0, va, vb = (random_hermitian(rng, dim) for _ in range(3))
    if not hermitian:
        scale = draw(st.floats(0.05, 0.5))
        va = va + scale * (rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim)))
        if draw(st.booleans()):
            vb = vb + scale * np.triu(rng.normal(size=(dim, dim)), 1)
    if draw(st.booleans()):
        vb = va.copy()
    psi = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    psi /= np.linalg.norm(psi)
    times = draw(st.lists(TIME_VALUES, max_size=12))
    repeats = draw(st.lists(st.integers(0, 11), max_size=4))
    times += [times[i % len(times)] for i in repeats if times]
    return h0, va, vb, psi, draw(st.permutations(times)), hermitian


@given(history_cases())
def test_same_history_matches_sample_by_sample_reference(case):
    h0, va, vb, psi, times, hermitian = case
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", NonHermitianInput)
        same, samples = same_history_check(h0, va, vb, psi, times)
    expected = reference_overlaps(h0, va, vb, psi, times, hermitian)
    assert [t for t, _ in samples] == [float(t) for t in times]
    for (_, c), e in zip(samples, expected):
        assert abs(c - e) <= 1e-10 * max(1.0, abs(e))
    assert same == all(abs(abs(e) - 1.0) <= 1e-9 for e in expected)


def test_same_history_non_hermitian_steps_away_from_zero():
    # modes growing as e^t and e^-t along non-orthogonal axes: reaching t = -0.1
    # by way of t = -10 would lose about eight digits to the e^-t mode
    s = np.array([[1.0, 0.9], [0.0, 0.5]])
    h = s @ np.diag([-1j, 1j]) @ np.linalg.inv(s)
    psi = np.array([0.6, 0.8])
    times = [-10.0, -0.1, 0.1, 10.0]
    zero = np.zeros((2, 2))
    with pytest.warns(NonHermitianInput):
        _, samples = same_history_check(zero, h, zero, psi, times)
    for t, c in samples:
        expected = complex(np.vdot(psi, scipy.linalg.expm(1j * t * h) @ psi))
        assert abs(c - expected) <= 1e-12 * max(1.0, abs(expected))


def test_same_history_one_expm_per_distinct_step(monkeypatch):
    calls = []
    original = algebra._expm

    def counting(a):
        calls.append(a)
        return original(a)

    monkeypatch.setattr(algebra, "_expm", counting)
    h0 = np.diag([1.0, 2.0, 4.0])
    upper = np.triu(np.full((3, 3), 0.3), 1)  # not Hermitian
    lower = upper.T * 0.5
    hermitian = upper + upper.T
    psi = np.array([0.6, 0.0, 0.8])
    grid = [k / 8 for k in range(25)]

    def count(va, vb, times):
        calls.clear()
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", NonHermitianInput)
            same_history_check(h0, va, vb, psi, times)
        return len(calls)

    assert count(upper, lower, grid) == 2  # one per evolver
    assert count(upper, lower, grid[::-1]) == 2  # sampled in any order
    assert count(upper, hermitian, grid + grid[:5]) == 1  # repeats reuse states
    assert count(upper, lower, [0.0, 0.25, 0.5, 0.75, 1.0]) == 2  # the CLI default
    irregular = [0.3, -0.1, 0.0, 1.7, 0.4, -0.9, 2.2]
    assert count(upper, lower, irregular) <= 2 * len(irregular)
    assert count(hermitian, np.zeros((3, 3)), grid) == 0


@st.composite
def exponent_cases(draw):
    """Random complex matrices of dimension 1-8 with 1-norms from 1e-3 to 1e3."""
    dim = draw(st.integers(1, 8))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    return a * (draw(st.floats(1e-3, 1e3)) / np.linalg.norm(a, 1))


@given(exponent_cases())
def test_expm_matches_scipy(a):
    with np.errstate(over="ignore", invalid="ignore"):
        expected = scipy.linalg.expm(a)
    # past e^709 the exponential itself overflows
    assume(np.isfinite(expected).all())
    got = algebra._expm(a)
    # squaring s times amplifies the error of the scaled approximant, so the
    # bound grows with the 1-norm once it passes 50 (along the positive real
    # axis the error reaches about 6e-15 per unit of norm)
    norm_a = np.linalg.norm(a, 1)
    tol = 2e-14 * max(50.0, norm_a) * max(1.0, np.linalg.norm(expected, 1))
    assert np.linalg.norm(got - expected, 1) <= tol


def test_expm_exact_cases():
    for dim in (1, 3, 6):
        # the solve divides by its pivot through a reciprocal: one ulp off at most
        got = algebra._expm(np.zeros((dim, dim), dtype=complex))
        assert np.max(np.abs(got - np.eye(dim))) <= np.finfo(float).eps
    d = np.array([-2.5, 0.0, 0.5j, 1.0 + 1.0j, 4.0, 12.0 - 3.0j])
    got = algebra._expm(np.diag(d))
    assert np.array_equal(got, np.diag(np.diag(got)))  # off-diagonal stays exactly zero
    assert np.allclose(np.diag(got), np.exp(d), rtol=1e-13, atol=0)


def test_boost_nontriviality_check():
    dim = 4
    assert not boost_nontriviality_check(np.zeros((dim, dim)), np.eye(dim)[0])
    assert not boost_nontriviality_check(np.eye(dim), np.eye(dim)[0])
    sigma_x = np.array([[0.0, 1.0], [1.0, 0.0]])
    assert boost_nontriviality_check(sigma_x, np.array([1.0, 0.0]))

    # eigenvector of a Hermitian W: trivial; perturbed by 0.1 orthogonal: acts
    w = np.diag([2.0, 5.0, 7.0])
    v1 = np.array([1.0, 0.0, 0.0])
    v2 = np.array([0.0, 1.0, 0.0])
    assert not boost_nontriviality_check(w, v1)
    perturbed = (v1 + 0.1 * v2) / np.linalg.norm(v1 + 0.1 * v2)
    assert boost_nontriviality_check(w, perturbed)


def test_boost_check_input_validation():
    for check in (boost_nontriviality_check, boost_residual):
        with pytest.raises(NotNormalized, match="^psi must be normalized$"):
            check(np.eye(2), np.array([1.0, 1.0]))
        with pytest.raises(DimensionMismatch, match="^state has dimension 3, W has 2$"):
            check(np.eye(2), np.array([1.0, 0.0, 0.0]))


def test_boost_residual_is_the_orthogonal_part():
    sigma_x = np.array([[0.0, 1.0], [1.0, 0.0]])
    assert boost_residual(sigma_x, np.array([1.0, 0.0])) == 1.0
    assert boost_residual(np.diag([2.0, 5.0]), np.array([0.0, 1.0])) == 0.0
    psi = np.array([0.6, 0.8j])
    image = sigma_x @ psi
    expected = np.linalg.norm(image - np.vdot(psi, image) * psi)
    assert boost_residual(sigma_x, psi) == pytest.approx(expected, abs=1e-15)
    assert boost_nontriviality_check(sigma_x, psi) == (expected > 1e-9)


def test_wsolution_obstructed_property():
    sol = WSolution(W=np.zeros((2, 2)), residual=0.0, degenerate_obstructions=())
    assert not sol.obstructed
    sol = WSolution(W=np.zeros((2, 2)), residual=1.0, degenerate_obstructions=((0, 1),))
    assert sol.obstructed
