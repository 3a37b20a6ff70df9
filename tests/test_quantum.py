"""Spin-slot states and contact unitaries against independent oracles."""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from narratables import quantum
from narratables.errors import (
    DimensionMismatch,
    EqualSlots,
    InvalidPairing,
    NonUnitaryMatrix,
    NotNormalized,
    OverlappingPairs,
    SlotOutOfRange,
    TooManySlots,
)
from narratables.fileio import parse_matrix
from narratables.quantum import (
    MAX_SLOTS,
    SINGLET_PAIR,
    DotBuffers,
    PairingSpec,
    SpinState,
    TwoSlotUnitary,
    angular_momentum_norms,
    apply_contact,
    apply_group,
    basis_label,
    equal_up_to_phase,
    identity_unitary,
    overlap,
    permuted,
    placed_magnitude,
    singlet_product,
    swap_unitary,
)

INV_SQRT2 = 1.0 / np.sqrt(2.0)


def embedded_unitary(u4, n_slots, a, b):
    """Independent oracle: the full 2^n x 2^n matrix for u4 on slots (a, b).

    Built index by index from the basis convention (slot 0 = most
    significant bit, |+> = bit 0), with no tensor reshaping.
    """
    dim = 2**n_slots
    full = np.zeros((dim, dim), dtype=complex)
    for col in range(dim):
        bits = [(col >> (n_slots - 1 - k)) & 1 for k in range(n_slots)]
        ain, bin_ = bits[a], bits[b]
        for aout in (0, 1):
            for bout in (0, 1):
                out_bits = list(bits)
                out_bits[a], out_bits[b] = aout, bout
                row = 0
                for bit in out_bits:
                    row = (row << 1) | bit
                full[row, col] += u4[2 * aout + bout, 2 * ain + bin_]
    return full


def random_state(rng, n_slots):
    vec = rng.normal(size=2**n_slots) + 1j * rng.normal(size=2**n_slots)
    return SpinState(n_slots, vec / np.linalg.norm(vec))


def random_unitary4(rng):
    g = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    q, _ = np.linalg.qr(g)
    return TwoSlotUnitary(q)


def test_singlet_pair_frozen():
    assert np.allclose(SINGLET_PAIR, [0, INV_SQRT2, -INV_SQRT2, 0])
    state = singlet_product(2, [(0, 1)])
    assert np.allclose(state.amplitudes, SINGLET_PAIR)


def test_singlet_antisymmetry():
    fwd = singlet_product(2, [(0, 1)]).amplitudes
    rev = singlet_product(2, [(1, 0)]).amplitudes
    assert np.array_equal(rev, -fwd)


def test_double_singlet_frozen_terms():
    state = singlet_product(4, [(0, 1), (2, 3)])
    expected = {5: 0.5, 6: -0.5, 9: -0.5, 10: 0.5}
    for i in range(16):
        assert state.amplitudes[i] == pytest.approx(expected.get(i, 0.0), abs=1e-15)
    assert state.nonzero_terms() == [
        ("+-+-", pytest.approx(0.5)),
        ("+--+", pytest.approx(-0.5)),
        ("-++-", pytest.approx(-0.5)),
        ("-+-+", pytest.approx(0.5)),
    ]


def test_singlet_product_checks_the_cap_before_building(monkeypatch):
    class NoNumpy:
        def __getattr__(self, name):
            raise AssertionError("built a product past the slot cap")

    monkeypatch.setattr(quantum, "np", NoNumpy())
    n = MAX_SLOTS + 2
    with pytest.raises(TooManySlots):
        singlet_product(n, [(2 * i, 2 * i + 1) for i in range(n // 2)])


def test_singlet_with_single_slots():
    up = np.array([1.0, 0.0])
    spec = PairingSpec(((0, 1),), ((2, up),))
    state = singlet_product(3, spec)
    # singlet(0,1) tensor |+> on slot 2: indices 010 and 100
    assert state.amplitudes[0b010] == pytest.approx(INV_SQRT2)
    assert state.amplitudes[0b100] == pytest.approx(-INV_SQRT2)
    assert np.count_nonzero(state.amplitudes) == 2


def kron_singlet_product(n_slots, pairs, singles):
    """The product built with np.kron, factor by factor in the pairing's
    order, then its axes moved to slot order."""
    vec = np.ones(1, dtype=complex)
    order = []
    for a, b in pairs:
        vec = np.kron(vec, SINGLET_PAIR)
        order += [a, b]
    for slot, single in singles:
        vec = np.kron(vec, single)
        order.append(slot)
    arr = vec.reshape([2] * n_slots).transpose([order.index(s) for s in range(n_slots)])
    return arr.reshape(-1)


@st.composite
def pairings(draw):
    """A random pairing of 1..12 slots, the unpaired ones given random
    normalized complex single-slot states."""
    n = draw(st.integers(1, MAX_SLOTS))
    slots = draw(st.permutations(range(n)))
    k = draw(st.integers(0, n // 2))
    pairs = [(slots[2 * i], slots[2 * i + 1]) for i in range(k)]
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    singles = []
    for slot in slots[2 * k:]:
        v = rng.normal(size=2) + 1j * rng.normal(size=2)
        singles.append((slot, v / np.linalg.norm(v)))
    return n, pairs, singles


@given(pairings())
def test_singlet_product_matches_the_kron_build_bit_for_bit(pairing):
    n, pairs, singles = pairing
    state = singlet_product(n, PairingSpec(tuple(pairs), tuple(singles)))
    assert state.amplitudes.tobytes() == kron_singlet_product(n, pairs, singles).tobytes()


def looped_nonzero_terms(state, floor=1e-12):
    """The printed terms as a loop over every amplitude selects them."""
    return [(basis_label(i, state.n_slots), state.amplitudes[i])
            for i in range(len(state.amplitudes)) if abs(state.amplitudes[i]) > floor]


@given(st.integers(1, MAX_SLOTS), st.integers(0, 2**32 - 1),
       st.sampled_from([1e-12, 1e-8, 5e-324, 0.0]))
def test_nonzero_terms_match_the_loop_at_and_near_the_floor(n_slots, seed, floor):
    rng = np.random.default_rng(seed)
    amps = rng.normal(size=2**n_slots) + 1j * rng.normal(size=2**n_slots)
    # a quarter of the entries (at least one) on or next to the floor, on and off
    # the axes, some zero; they are too small to move the norm past its guard
    picked = rng.choice(amps.size, size=max(1, amps.size // 4), replace=False)
    amps[picked] = 0
    amps /= np.linalg.norm(amps)
    scale = rng.choice([1.0, np.nextafter(1.0, 2.0), np.nextafter(1.0, 0.0), 0.0], size=picked.size)
    angle = rng.choice([0.0, np.pi / 2, np.pi, 0.3, 2.0], size=picked.size)
    amps[picked] = floor * scale * np.exp(1j * angle)
    state = SpinState(n_slots, amps)
    got, want = state.nonzero_terms(floor), looped_nonzero_terms(state, floor)
    assert [label for label, _ in got] == [label for label, _ in want]
    assert all(type(a) is np.complex128 and a.tobytes() == b.tobytes()
               for (_, a), (_, b) in zip(got, want))


def test_pairing_validation():
    with pytest.raises(InvalidPairing):
        singlet_product(4, [(0, 1), (1, 2)])
    with pytest.raises(InvalidPairing):
        singlet_product(4, [(0, 1)])  # slots 2, 3 uncovered
    with pytest.raises(InvalidPairing):
        PairingSpec(((0, 0),))
    with pytest.raises(InvalidPairing, match=r"^negative slot -1$"):
        PairingSpec(((0, 1), (2, -1)))
    with pytest.raises(NotNormalized):
        PairingSpec(((0, 1),), ((2, np.array([1.0, 1.0])),))
    up = np.array([1.0, 0.0])
    for singles, slot in [(((-1, up),), -1), (((2, up), (2, up)), 2), (((1, up),), 1)]:
        with pytest.raises(InvalidPairing, match=rf"^single slot {slot} is negative or repeated$"):
            PairingSpec(((0, 1),), singles)
    with pytest.raises(DimensionMismatch, match="^single-slot states must be 2-vectors$"):
        PairingSpec(((0, 1),), ((2, np.array([1.0, 0.0, 0.0])),))


def test_basis_label_convention():
    assert basis_label(0, 2) == "++"
    assert basis_label(1, 2) == "+-"
    assert basis_label(2, 2) == "-+"
    assert basis_label(5, 4) == "+-+-"
    assert basis_label(10, 4) == "-+-+"


def test_state_validation():
    with pytest.raises(ValueError, match="^need at least one slot$"):
        SpinState(0, np.array([1.0]))
    with pytest.raises(NotNormalized):
        SpinState(1, np.array([1.0, 1.0]))
    with pytest.raises(NotNormalized):
        SpinState(1, np.array([np.nan, 0.0]))
    with pytest.raises(DimensionMismatch):
        SpinState(2, np.array([1.0, 0.0]))
    with pytest.raises(TooManySlots):
        amps = np.zeros(2 ** (MAX_SLOTS + 1))
        amps[0] = 1.0
        SpinState(MAX_SLOTS + 1, amps)
    state = SpinState(1, np.array([1.0, 0.0]))
    with pytest.raises(ValueError):
        state.amplitudes[0] = 0.0  # read-only


@pytest.mark.parametrize("first", [np.nan, np.inf, -np.inf, complex(np.inf, np.inf), 1 + 2e-12],
                         ids=["nan", "inf", "minus-inf", "complex-inf", "off-norm"])
def test_state_guard_rejects_non_finite_and_off_norm(first):
    with pytest.raises(NotNormalized):
        SpinState(2, np.array([first, 0, 0, 0], dtype=complex))
    # the uncopied path that `apply_group` builds its results through
    with pytest.raises(NotNormalized):
        SpinState._owning(2, np.array([first, 0, 0, 0], dtype=complex))
    with pytest.raises(DimensionMismatch):
        SpinState._owning(2, np.array([1, 0], dtype=complex))


def test_states_copy_their_input_and_stay_read_only():
    caller = np.array([0, 1.0, 0, 0], dtype=complex)
    state = SpinState(2, caller)
    assert caller.flags.writeable
    caller[1] = 0.0
    assert state.amplitudes[1] == 1.0

    rng = np.random.default_rng(5)
    state = random_state(rng, 5)
    before = state.amplitudes.copy()
    out = apply_group(state, [(random_unitary4(rng), (3, 1)), (swap_unitary(), (0, 4))])
    assert np.array_equal(state.amplitudes, before)
    assert not state.amplitudes.flags.writeable
    assert not out.amplitudes.flags.writeable
    with pytest.raises(ValueError):
        out.amplitudes[0] = 0.0


def test_unitary_validation():
    with pytest.raises(NonUnitaryMatrix):
        TwoSlotUnitary(np.eye(4) * 2.0)
    with pytest.raises(NonUnitaryMatrix):
        TwoSlotUnitary(np.full((4, 4), np.nan))
    with pytest.raises(DimensionMismatch):
        TwoSlotUnitary(np.eye(3))
    u = swap_unitary()
    assert np.array_equal(u.matrix @ u.matrix, np.eye(4))


def test_swap_unitary_action():
    # |+-> <-> |-+>, diagonal states fixed
    m = swap_unitary().matrix.real
    assert m[2, 1] == m[1, 2] == 1.0
    assert m[0, 0] == m[3, 3] == 1.0
    state = SpinState(2, np.array([0, 1.0, 0, 0]))
    assert apply_contact(state, swap_unitary(), (0, 1)).amplitudes[2] == 1.0


def test_swap_on_own_singlet_gives_minus():
    state = singlet_product(2, [(0, 1)])
    flipped = apply_contact(state, swap_unitary(), (0, 1))
    assert np.allclose(flipped.amplitudes, -state.amplitudes, atol=1e-15)


def test_apply_contact_against_embedding_oracle():
    rng = np.random.default_rng(31415)
    for _ in range(100):
        n = int(rng.integers(2, 6))
        state = random_state(rng, n)
        u = random_unitary4(rng)
        a, b = rng.choice(n, size=2, replace=False)
        got = apply_contact(state, u, (int(a), int(b))).amplitudes
        want = embedded_unitary(u.matrix, n, int(a), int(b)) @ state.amplitudes
        assert np.max(np.abs(got - want)) <= 1e-12


def test_apply_contact_swap_is_bit_permutation():
    rng = np.random.default_rng(8)
    state = random_state(rng, 4)
    got = apply_contact(state, swap_unitary(), (1, 3)).amplitudes
    for idx in range(16):
        bits = [(idx >> (3 - k)) & 1 for k in range(4)]
        bits[1], bits[3] = bits[3], bits[1]
        src = (bits[0] << 3) | (bits[1] << 2) | (bits[2] << 1) | bits[3]
        assert got[idx] == state.amplitudes[src]


def test_apply_contact_norm_and_identity():
    rng = np.random.default_rng(21)
    for _ in range(50):
        state = random_state(rng, 3)
        u = random_unitary4(rng)
        out = apply_contact(state, u, (0, 2))
        assert abs(np.linalg.norm(out.amplitudes) - 1.0) <= 1e-12
    state = random_state(rng, 3)
    out = apply_contact(state, identity_unitary(), (1, 2))
    assert np.array_equal(out.amplitudes, state.amplitudes)


def test_apply_contact_slot_errors():
    state = singlet_product(2, [(0, 1)])
    with pytest.raises(SlotOutOfRange):
        apply_contact(state, swap_unitary(), (0, 2))
    with pytest.raises(EqualSlots):
        apply_contact(state, swap_unitary(), (1, 1))


@pytest.mark.parametrize("pairs, error, message", [
    (((0, 4),), SlotOutOfRange, "slot 4 outside 0..3"),
    (((-1, 0),), SlotOutOfRange, "slot -1 outside 0..3"),
    (((0, 4), (-1, 0)), SlotOutOfRange, "slot 4 outside 0..3"),
    (((2, 2),), EqualSlots, "contact unitary needs two distinct slots, got 2"),
    (((2, 7),), SlotOutOfRange, "slot 7 outside 0..3"),
    (((0, 1), (1, 2)), OverlappingPairs, "slot 1 used by two simultaneous unitaries"),
    (((0, 1), (3, 3)), EqualSlots, "contact unitary needs two distinct slots, got 3"),
])
def test_apply_group_refuses_a_group_with_the_first_fault_named(pairs, error, message):
    # each pair in turn: its slots in range, then distinct, then unused by
    # the pairs before it
    state = singlet_product(4, [(0, 1), (2, 3)])
    for u in (swap_unitary(), TwoSlotUnitary(np.diag([1, 1, 1, -1]))):
        with pytest.raises(error, match=f"^{message}$"):
            apply_group(state, [(u, pair) for pair in pairs])


def test_disjoint_contacts_commute():
    rng = np.random.default_rng(2718)
    for _ in range(1000):
        state = random_state(rng, 4)
        u, v = random_unitary4(rng), random_unitary4(rng)
        slots = rng.permutation(4)
        p, q = (int(slots[0]), int(slots[1])), (int(slots[2]), int(slots[3]))
        fwd = apply_contact(apply_contact(state, u, p), v, q).amplitudes
        rev = apply_contact(apply_contact(state, v, q), u, p).amplitudes
        assert np.max(np.abs(fwd - rev)) <= 1e-12


def test_apply_group_matches_sequential_and_rejects_overlap():
    state = singlet_product(4, [(0, 1), (2, 3)])
    actions = [(swap_unitary(), (0, 2)), (swap_unitary(), (1, 3))]
    grouped = apply_group(state, actions).amplitudes
    seq = apply_contact(
        apply_contact(state, swap_unitary(), (0, 2)), swap_unitary(), (1, 3)
    ).amplitudes
    assert np.max(np.abs(grouped - seq)) <= 1e-12
    reversed_ = apply_group(state, actions[::-1]).amplitudes
    assert np.max(np.abs(grouped - reversed_)) <= 1e-12
    assert np.array_equal(apply_group(state, []).amplitudes, state.amplitudes)
    with pytest.raises(OverlappingPairs):
        apply_group(state, [(swap_unitary(), (0, 2)), (swap_unitary(), (2, 3))])


def contraction_group(state, actions):
    """The contraction formula the kernel reproduces bit for bit: one tensordot
    over (a, b) per contact, its two new axes moved back to a and b."""
    arr = state.amplitudes.reshape([2] * state.n_slots)
    for u, (a, b) in actions:
        out = np.tensordot(u.matrix.reshape(2, 2, 2, 2), arr, axes=([2, 3], [a, b]))
        arr = np.moveaxis(out, [0, 1], [a, b])
    return arr.reshape(-1)


def contraction_norms(state):
    """angular_momentum_norms by the same contraction formula, one slot at a time."""
    arr = state.amplitudes.reshape([2] * state.n_slots)
    norms = []
    for sigma in (quantum.PAULI_X, quantum.PAULI_Y, quantum.PAULI_Z):
        acc = np.zeros_like(arr)
        for slot in range(state.n_slots):
            acc = acc + np.moveaxis(np.tensordot(sigma / 2.0, arr, axes=([1], [slot])), 0, slot)
        norms.append(float(np.linalg.norm(acc.reshape(-1))))
    return tuple(norms)


def kron_operator(u4, n_slots, a, b):
    """Independent oracle: u4 (x) identity on the slot order (a, b, rest...),
    conjugated by the permutation matrix that brings slots into that order."""
    order = [a, b] + [s for s in range(n_slots) if s not in (a, b)]
    dim = 2**n_slots
    perm = np.zeros((dim, dim))
    for i in range(dim):
        bits = [(i >> (n_slots - 1 - k)) & 1 for k in range(n_slots)]
        perm[int("".join(str(bits[s]) for s in order), 2), i] = 1.0
    return perm.T @ np.kron(u4, np.eye(2 ** (n_slots - 2))) @ perm


@st.composite
def contact_groups(draw):
    """A random state on 2..8 slots and 1..3 random unitaries on disjoint
    ordered pairs, listed in shuffled order."""
    n = draw(st.integers(2, 8))
    slots = draw(st.permutations(range(n)))
    k = draw(st.integers(1, min(3, n // 2)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    actions = [(random_unitary4(rng), (slots[2 * i], slots[2 * i + 1])) for i in range(k)]
    return random_state(rng, n), draw(st.permutations(actions))


@given(contact_groups())
def test_apply_group_matches_kron_oracle_and_contraction_bit_for_bit(group):
    state, actions = group
    got = apply_group(state, actions).amplitudes
    dense = np.eye(2**state.n_slots, dtype=complex)
    for u, (a, b) in actions:
        dense = kron_operator(u.matrix, state.n_slots, a, b) @ dense
    assert np.max(np.abs(got - dense @ state.amplitudes)) <= 1e-12
    assert np.array_equal(got, contraction_group(state, actions))


@given(st.integers(1, MAX_SLOTS), st.integers(0, 2**32 - 1))
def test_angular_momentum_norms_match_contraction_bit_for_bit(n_slots, seed):
    state = random_state(np.random.default_rng(seed), n_slots)
    assert angular_momentum_norms(state) == contraction_norms(state)


@st.composite
def sparse_states(draw):
    """A state on 1..MAX_SLOTS slots with few nonzero amplitudes: a singlet
    product on a random pairing, the other slots (any number, so odd n too)
    in random single-slot states, some of them basis states; or random
    amplitudes on a random support of 1/8 to 1/2 of the basis."""
    n = draw(st.integers(1, MAX_SLOTS))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if draw(st.booleans()):
        slots = draw(st.permutations(range(n)))
        k = draw(st.integers(0, n // 2))
        singles = []
        for s in slots[2 * k:]:
            v = draw(st.sampled_from([(1, 0), (0, 1), None]))
            v = rng.normal(size=2) + 1j * rng.normal(size=2) if v is None else np.array(v)
            singles.append((s, v / np.linalg.norm(v)))
        pairs = tuple((slots[2 * i], slots[2 * i + 1]) for i in range(k))
        return singlet_product(n, PairingSpec(pairs, tuple(singles)))
    size = 2**n
    nnz = draw(st.integers(max(1, size // 8), max(1, size // 2)))
    amps = np.zeros(size, dtype=complex)
    support = rng.choice(size, nnz, replace=False)
    amps[support] = rng.normal(size=nnz) + 1j * rng.normal(size=nnz)
    return SpinState(n, amps / np.linalg.norm(amps))


@given(sparse_states())
def test_angular_momentum_norms_match_contraction_bit_for_bit_on_sparse_states(state):
    assert angular_momentum_norms(state) == contraction_norms(state)


UNITS = (1, -1, 1j, -1j)


def times_unit(unit, z):
    """unit * z for a unit 1, -1, i or -i, built from z's parts with no rounding."""
    parts = {1: (z.real, z.imag), -1: (-z.real, -z.imag),
             1j: (-z.imag, z.real), -1j: (z.imag, -z.real)}
    return complex(*parts[unit])


@st.composite
def moving_contacts(draw):
    """A 4x4 contact with one entry 1, -1, i or -i in each row and column."""
    m = np.zeros((4, 4), dtype=complex)
    for row, col in enumerate(draw(st.permutations(range(4)))):
        m[row, col] = draw(st.sampled_from(UNITS))
    return TwoSlotUnitary(m)


def moved_amplitudes(u, state, a, b):
    """Independent oracle: each amplitude of the result, index by index, is
    the one u's nonzero entry in its row picks, times that entry."""
    n = state.n_slots
    out = np.empty(2**n, dtype=complex)
    for i in range(2**n):
        bits = [(i >> (n - 1 - k)) & 1 for k in range(n)]
        row = 2 * bits[a] + bits[b]
        col = int(np.flatnonzero(u.matrix[row])[0])
        bits[a], bits[b] = divmod(col, 2)
        out[i] = times_unit(complex(u.matrix[row, col]),
                            state.amplitudes[int("".join(map(str, bits)), 2)])
    return out


@st.composite
def moving_pairs(draw):
    """A random state on 4..8 slots (no zero amplitude, so no zero's sign is
    in play) and two moves-only contacts on disjoint ordered pairs."""
    n = draw(st.integers(4, 8))
    slots = draw(st.permutations(range(n)))
    state = random_state(np.random.default_rng(draw(st.integers(0, 2**32 - 1))), n)
    return state, [(draw(moving_contacts()), (slots[0], slots[1])),
                   (draw(moving_contacts()), (slots[2], slots[3]))]


@given(moving_pairs())
def test_moves_only_contacts_move_amplitudes_and_commute_bit_for_bit(case):
    state, [(u, p), (v, q)] = case
    assert u.moves_only and v.moves_only
    assert (apply_group(state, [(u, p)]).amplitudes.tobytes()
            == moved_amplitudes(u, state, *p).tobytes())
    one = apply_group(apply_group(state, [(u, p)]), [(v, q)])
    other = apply_group(apply_group(state, [(v, q)]), [(u, p)])
    assert one.amplitudes.tobytes() == other.amplitudes.tobytes()


@given(st.integers(0, 2**32 - 1))
def test_random_unitaries_are_not_moves_only(seed):
    assert not random_unitary4(np.random.default_rng(seed)).moves_only


def test_moves_only_names_exact_data_movement():
    hadamard = np.array([[1, 1], [1, -1]]) * INV_SQRT2
    cz = np.diag([1, 1, 1, -1])
    assert identity_unitary().moves_only and swap_unitary().moves_only
    assert TwoSlotUnitary(cz).moves_only
    assert TwoSlotUnitary(cz * 1j).moves_only
    assert not TwoSlotUnitary(np.kron(hadamard, np.eye(2))).moves_only
    # a phase whose modulus rounds to 1 still rounds the amplitudes it multiplies
    assert abs(0.6 + 0.8j) == 1.0
    assert not TwoSlotUnitary(np.diag([1, 1, 1, 0.6 + 0.8j])).moves_only
    assert not TwoSlotUnitary(np.diag([1, 1, 1, np.exp(0.3j)])).moves_only


SWAP_DOC = [[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]]


def state_with_zeros(rng, n_slots):
    """A random state in which about half the amplitudes are zero and a
    quarter of the rest have a zero real part; every part has a random sign,
    zeros included."""
    dim = 2**n_slots
    parts = rng.normal(size=(dim, 2))
    parts[rng.random(dim) < 0.25, 0] = 0.0
    parts[rng.random(dim) < 0.5] = 0.0
    parts[rng.integers(dim)] = (1.0, 0.5)
    parts = np.copysign(parts / np.linalg.norm(parts), rng.choice([-1.0, 1.0], size=(dim, 2)))
    return SpinState(n_slots, parts.view(complex).reshape(-1))


def stepwise(state, actions):
    """Independent oracle for a group: its contacts one at a time in listing
    order, a swap by `moved_amplitudes` and any other by the contraction."""
    for u, pair in actions:
        amps = (moved_amplitudes(u, state, *pair) if u.is_swap
                else contraction_group(state, [(u, pair)]))
        state = SpinState(state.n_slots, amps)
    return state.amplitudes


@st.composite
def swap_groups(draw):
    """A state on 4..8 slots with zero amplitudes and a group of two contacts
    on disjoint pairs in either order: a swap, shared or built from a matrix
    as a scenario file gives it, and a second swap or a random dense unitary."""
    n = draw(st.integers(4, 8))
    slots = draw(st.permutations(range(n)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    swaps = st.sampled_from([swap_unitary(), TwoSlotUnitary(parse_matrix(SWAP_DOC, "u"))])
    other = draw(st.one_of(swaps, st.just(random_unitary4(rng))))
    actions = [(draw(swaps), (slots[0], slots[1])), (other, (slots[2], slots[3]))]
    return state_with_zeros(rng, n), draw(st.permutations(actions))


@given(swap_groups())
def test_swap_contacts_move_amplitudes_bit_for_bit(case):
    state, actions = case
    (u, (a, b)) = next(action for action in actions if action[0].is_swap)
    want = moved_amplitudes(u, state, a, b).tobytes()
    assert apply_group(state, [(u, (a, b))]).amplitudes.tobytes() == want
    assert apply_group(state, [(u, (b, a))]).amplitudes.tobytes() == want
    assert apply_group(state, actions).amplitudes.tobytes() == stepwise(state, actions).tobytes()


def test_swap_groups_make_no_product(monkeypatch):
    def refuse(*args):
        raise AssertionError("a swap ran a matrix product")

    state = state_with_zeros(np.random.default_rng(3), 6)
    fresh = TwoSlotUnitary(parse_matrix(SWAP_DOC, "u"))
    want = stepwise(state, [(swap_unitary(), (4, 1)), (fresh, (0, 5))])
    monkeypatch.setattr(quantum.np, "dot", refuse)
    out = apply_group(state, [(swap_unitary(), (4, 1)), (fresh, (0, 5))])
    assert out.amplitudes.tobytes() == want.tobytes()


def test_swapped_composes_swaps_and_permuted_builds_their_state():
    state = state_with_zeros(np.random.default_rng(5), 4)
    first = [(swap_unitary(), (0, 2)), (swap_unitary(), (3, 1))]
    axes = quantum._swapped(4, None, quantum._checked(state, first))
    assert axes == (2, 3, 0, 1)
    assert quantum._swapped(4, axes, [(swap_unitary(), 2, 1)]) == (2, 0, 3, 1)
    assert permuted(state, None) is state
    built = permuted(state, axes)
    assert built.amplitudes.tobytes() == apply_group(state, first).amplitudes.tobytes()
    assert not built.amplitudes.flags.writeable
    with pytest.raises(ValueError):
        quantum._swapped(4, None, [(TwoSlotUnitary(np.diag([1, 1, 1, -1])), 0, 1)])


# no base is placed at 2**13, every base is at 1
@pytest.mark.parametrize("share", [1, quantum.PLACED_SHARE, 2**13])
def test_placed_magnitude_of_a_base_with_negative_zeros_keeps_the_dense_bits(share):
    # every zero amplitude of the base is -0.0 - 0.0j, and its nonzero ones
    # carry signed zero parts; a placed copy holds +0 where a transposed copy
    # holds -0.  The magnitudes keep the dense overlaps' bits, the exact zero
    # of two disjoint supports too
    n, rng = 12, np.random.default_rng(17)
    amps = np.full(2**n, complex(-0.0, -0.0))
    where = rng.choice(2**n, 48, replace=False)
    amps[where] = rng.normal(size=48) + 1j * rng.normal(size=48)
    amps[where[:8]] = amps[where[:8]].real - 0.0j
    amps[where[8:16]] = complex(-0.0, 1.0) * amps[where[8:16]].imag
    base = SpinState(n, amps / np.linalg.norm(amps))
    other = SpinState(n, np.eye(2**n)[0])  # |++...+>, outside the base's support
    assert amps[0] == 0 and np.signbit(base.amplitudes[0].real)
    dots = DotBuffers(n)
    with mock.patch.object(quantum, "PLACED_SHARE", share):
        for _ in range(8):
            a_axes, b_axes = (tuple(rng.permutation(n).tolist()) for _ in range(2))
            for a, a_ax, b, b_ax in [(base, a_axes, base, b_axes), (base, None, base, b_axes),
                                     (base, a_axes, base, None), (base, a_axes, other, b_axes)]:
                want = abs(overlap(permuted(a, a_ax), permuted(b, b_ax)))
                assert placed_magnitude(a, a_ax, b, b_ax, dots).hex() == want.hex()
    assert (dots.supports[base] is None) == (48 * share > 2**n)
    zeros = permuted(base, a_axes).amplitudes == 0
    assert np.signbit(permuted(base, a_axes).amplitudes[zeros].real).all()


def test_placed_magnitude_leaves_both_buffers_zero():
    # a 12-slot singlet product is placed (64 of 4096 amplitudes nonzero), as
    # is |++...+>, which lies outside its support wherever the slots go: a
    # buffer that kept the product placed by the first call would read
    # |<s|s>| near 1 in the second, not 0
    n = 12
    state = singlet_product(n, [(i, i + 1) for i in range(0, n, 2)])
    basis = SpinState(n, np.eye(2**n)[0])
    axes, other = tuple(range(1, n)) + (0,), tuple(reversed(range(n)))
    same = abs(overlap(permuted(state, axes), permuted(state, axes)))
    dots = DotBuffers(n)
    placed_magnitude(state, axes, state, None, dots)
    assert dots.buffers[1] is None  # made on first use
    for second in [(basis, other, state, axes), (state, axes, basis, other)]:
        assert placed_magnitude(state, axes, state, axes, dots) == same
        assert not dots.buffers[0].any() and not dots.buffers[1].any()
        assert placed_magnitude(*second, dots) == 0.0
        assert not dots.buffers[0].any() and not dots.buffers[1].any()
    assert dots.supports[basis] is not None and dots.supports[state] is not None
    with pytest.raises(DimensionMismatch):
        placed_magnitude(singlet_product(2, [(0, 1)]), None, state, None, dots)


def test_swap_unitary_is_shared_flagged_and_read_only():
    assert swap_unitary() is swap_unitary()
    assert swap_unitary().is_swap
    assert TwoSlotUnitary(parse_matrix(SWAP_DOC, "u")).is_swap
    assert not identity_unitary().is_swap
    assert not TwoSlotUnitary(-swap_unitary().matrix).is_swap
    assert not TwoSlotUnitary(np.diag([1, 1, 1, -1])).is_swap
    with pytest.raises(ValueError):
        swap_unitary().matrix[0, 0] = 0.0


def test_apply_group_builds_one_state_per_group(monkeypatch):
    # one shape and norm guard per group, on the array the result holds
    state = singlet_product(4, [(0, 1), (2, 3)])
    checked = []
    guard = quantum._guarded

    def counting(n_slots, amps):
        checked.append(amps)
        return guard(n_slots, amps)

    monkeypatch.setattr(quantum, "_guarded", counting)
    out = apply_group(state, [(swap_unitary(), (0, 2)), (swap_unitary(), (1, 3))])
    assert len(checked) == 1
    assert checked[0] is out.amplitudes


def test_repairing_round_trip():
    # swap (0,2) then (1,3) returns the double singlet exactly
    state = singlet_product(4, [(0, 1), (2, 3)])
    once = apply_contact(state, swap_unitary(), (0, 2))
    back = apply_contact(once, swap_unitary(), (1, 3))
    assert abs(overlap(state, back)) == pytest.approx(1.0, abs=1e-12)
    assert overlap(state, back).real == pytest.approx(1.0, abs=1e-12)  # phase +1


def test_repaired_state_frozen_terms():
    # the x-boost middle segment: swap (1,3) first
    state = singlet_product(4, [(0, 1), (2, 3)])
    mid = apply_contact(state, swap_unitary(), (1, 3))
    expected = {3: -0.5, 5: 0.5, 10: 0.5, 12: -0.5}
    for i in range(16):
        assert mid.amplitudes[i] == pytest.approx(expected.get(i, 0.0), abs=1e-15)
    assert abs(overlap(state, mid)) == pytest.approx(0.5, abs=1e-15)


def test_repaired_overlap_between_pairings():
    # <singlet(0,1) singlet(2,3) | singlet(2,1) singlet(0,3)> has magnitude 1/2
    initial = singlet_product(4, [(0, 1), (2, 3)])
    repaired = singlet_product(4, [(2, 1), (0, 3)])
    assert abs(overlap(initial, repaired)) == pytest.approx(0.5, abs=1e-15)


def test_overlap_basics():
    state = singlet_product(4, [(0, 1), (2, 3)])
    assert overlap(state, state) == pytest.approx(1.0)
    e5 = np.zeros(16)
    e5[5] = 1.0
    e6 = np.zeros(16)
    e6[6] = 1.0
    assert overlap(SpinState(4, e5), SpinState(4, e6)) == 0
    with pytest.raises(DimensionMismatch):
        overlap(state, singlet_product(2, [(0, 1)]))


def test_equal_up_to_phase():
    state = singlet_product(2, [(0, 1)])
    rotated = SpinState(2, state.amplitudes * np.exp(0.7j))
    assert equal_up_to_phase(state, rotated)
    other = SpinState(2, np.array([1.0, 0, 0, 0]))
    assert not equal_up_to_phase(state, other)


def test_angular_momentum_norms():
    double = singlet_product(4, [(0, 1), (2, 3)])
    assert max(angular_momentum_norms(double)) <= 1e-12
    single = singlet_product(2, [(0, 1)])
    assert max(angular_momentum_norms(single)) <= 1e-12
    upup = SpinState(2, np.array([1.0, 0, 0, 0]))
    jx, jy, jz = angular_momentum_norms(upup)
    assert jz == pytest.approx(1.0)  # Jz eigenstate, eigenvalue +1
    assert jx == pytest.approx(np.sqrt(0.5))
    assert jy == pytest.approx(np.sqrt(0.5))


def test_conserves_spin():
    assert swap_unitary().conserves_spin
    assert identity_unitary().conserves_spin
    assert not TwoSlotUnitary(np.diag([1, 1, 1, -1])).conserves_spin  # CZ


def test_identity_unitary_is_shared_and_flagged():
    assert identity_unitary() is identity_unitary()
    assert identity_unitary().is_identity
    assert TwoSlotUnitary(np.eye(4)).is_identity
    assert not swap_unitary().is_identity
    assert not TwoSlotUnitary(np.diag([1, 1, 1, -1])).is_identity
