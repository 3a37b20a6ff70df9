"""Dense spin-1/2 statevectors and two-slot contact unitaries.

Basis conventions: each slot holds a spin-1/2 with |+> at bit 0 and |-> at
bit 1; slot 0 is the most significant bit of the basis index, so for two
slots the ordering is |++>, |+->, |-+>, |-->.  States are dense complex
vectors of length 2**n_slots, capped at 12 slots.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterable, Optional

import numpy as np

from .errors import (
    DimensionMismatch,
    EqualSlots,
    InvalidPairing,
    NonUnitaryMatrix,
    NotNormalized,
    OverlappingPairs,
    SlotOutOfRange,
    TooManySlots,
)

MAX_SLOTS = 12
NORM_TOLERANCE = 1e-12
PHASE_TOLERANCE = 1e-10
# `placed_magnitude` places a permuted base with at most 2^n / PLACED_SHARE
# nonzero amplitudes into a zeroed buffer, and transposes one with more.
# Placing costs about 3 us more in numpy calls and saves a copy that grows
# with 2^n: on a 2-vCPU x86-64 VM it wins at 12 slots up to about 2^n/8
# nonzeros, at 10 up to about 2^n/10, and at 9 or fewer by no more than
# noise.  64 places a 12-slot singlet product (64 of 4096) and no smaller one.
PLACED_SHARE = 64

_INV_SQRT2 = 1.0 / math.sqrt(2.0)

# (|+-> - |-+>)/sqrt(2) in the two-slot basis above
SINGLET_PAIR = np.array([0.0, _INV_SQRT2, -_INV_SQRT2, 0.0], dtype=complex)

PAULI_X = np.array([[0, 1], [1, 0]], dtype=complex)
PAULI_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
PAULI_Z = np.array([[1, 0], [0, -1]], dtype=complex)

# 2 (S_a + S_b) along x, y and z on an ordered slot pair
_PAIR_SPIN = [np.kron(s, np.eye(2)) + np.kron(np.eye(2), s) for s in (PAULI_X, PAULI_Y, PAULI_Z)]

# For the ordered pair (a, b) with lo < hi, the amplitudes are viewed as
# (2^lo, 2, 2^(hi-lo-1), 2, 2^(n-hi-1)).  `front` brings a's axis, then b's,
# before the rest in order, as a contraction over (a, b) would; `back` undoes
# it.  Keyed by a < b.  np.dot, the product numpy's own contraction routine
# calls, then sums every amplitude in the contraction's order: results are
# bit-identical to it.
_PAIR_FRONT = {
    True: ((1, 3, 0, 2, 4), (2, 0, 3, 1, 4)),
    False: ((3, 1, 0, 2, 4), (2, 1, 3, 0, 4)),
}

# the entries of a contact that only moves amplitudes and multiplies them by a unit
_MOVING_ENTRIES = (0, 1, -1, 1j, -1j)

# per slot count, the weight of each slot's bit in a basis index: slot 0 is
# the most significant
_BIT_WEIGHTS = {n: 1 << np.arange(n - 1, -1, -1) for n in range(1, MAX_SLOTS + 1)}


@dataclass(frozen=True, eq=False)
class SpinState:
    """Normalized state of n_slots spin-1/2 particles.

    `pairing` is the `PairingSpec` a state from `singlet_product` was built
    from, and None for every other state."""

    n_slots: int
    amplitudes: np.ndarray
    pairing: Optional["PairingSpec"] = field(default=None, init=False, repr=False,
                                             compare=False)

    def __post_init__(self):
        if self.n_slots < 1:
            raise ValueError("need at least one slot")
        if self.n_slots > MAX_SLOTS:
            raise TooManySlots(f"{self.n_slots} slots exceed the cap of {MAX_SLOTS}")
        amps = np.array(self.amplitudes, dtype=complex)  # the caller keeps its array
        object.__setattr__(self, "amplitudes", _guarded(self.n_slots, amps))

    @classmethod
    def _owning(cls, n_slots: int, amps: np.ndarray) -> "SpinState":
        """A state on a complex array no one else writes to, without copying it;
        the same shape and norm guard runs."""
        state = object.__new__(cls)
        object.__setattr__(state, "n_slots", n_slots)
        object.__setattr__(state, "amplitudes", _guarded(n_slots, amps))
        return state

    def nonzero_terms(self, floor: float = 1e-12) -> list[tuple[str, complex]]:
        amps = self.amplitudes
        return [(basis_label(i, self.n_slots), amps[i])
                for i in np.flatnonzero(np.abs(amps) > floor).tolist()]


def _guarded(n_slots: int, amps: np.ndarray) -> np.ndarray:
    """`amps`, made read-only, once its shape and unit norm are checked."""
    if amps.shape != (2**n_slots,):
        raise DimensionMismatch(f"expected {2**n_slots} amplitudes, got shape {amps.shape}")
    norm = math.sqrt(np.vdot(amps, amps).real)
    if not abs(norm - 1.0) <= NORM_TOLERANCE:  # a NaN norm fails too
        raise NotNormalized(f"state norm {norm} is not 1")
    amps.setflags(write=False)
    return amps


_SPINS = str.maketrans("01", "+-")


def basis_label(index: int, n_slots: int) -> str:
    return format(index, f"0{n_slots}b").translate(_SPINS)


@dataclass(frozen=True, eq=False)
class TwoSlotUnitary:
    """A 4x4 unitary acting on an ordered pair of slots."""

    matrix: np.ndarray

    def __post_init__(self):
        m = np.array(self.matrix, dtype=complex)
        if m.shape != (4, 4):
            raise DimensionMismatch(f"expected a 4x4 matrix, got {m.shape}")
        if not np.max(np.abs(m.conj().T @ m - np.eye(4))) <= NORM_TOLERANCE:
            raise NonUnitaryMatrix("matrix is not unitary within 1e-12")
        m.setflags(write=False)
        object.__setattr__(self, "matrix", m)

    @cached_property
    def conserves_spin(self) -> bool:
        """[U, S_a + S_b] = 0 along x, y and z, within 1e-12."""
        m = self.matrix
        return all(np.max(np.abs(m @ s - s @ m)) <= NORM_TOLERANCE for s in _PAIR_SPIN)

    @cached_property
    def is_identity(self) -> bool:
        return np.array_equal(self.matrix, np.eye(4))

    @cached_property
    def is_swap(self) -> bool:
        """The swap: `apply_group` then exchanges the two slots' bit axes."""
        return np.array_equal(self.matrix, _SWAP.matrix)

    @cached_property
    def moves_only(self) -> bool:
        """Each row and column holds one nonzero entry, and it is 1, -1, i or
        -i (identity, swap and CZ qualify): `apply_group` then only moves
        amplitudes and multiplies them by that unit, which rounds nothing, so
        two such contacts on disjoint slots give equal amplitudes in either
        order.  Every entry in 0, 1, -1, i, -i suffices: the unit rows and
        columns of a unitary then hold one nonzero entry each."""
        return all(z in _MOVING_ENTRIES for row in self.matrix.tolist() for z in row)


# |+-> <-> |-+>, diagonal states fixed
_SWAP = TwoSlotUnitary(np.eye(4, dtype=complex)[[0, 2, 1, 3]])
_IDENTITY = TwoSlotUnitary(np.eye(4, dtype=complex))


def swap_unitary() -> TwoSlotUnitary:
    """The one shared swap, exchanging the spin contents of two slots:
    |+-> <-> |-+> (immutable, so safe to share)."""
    return _SWAP


def identity_unitary() -> TwoSlotUnitary:
    """The one shared identity contact unitary (immutable, so safe to share)."""
    return _IDENTITY


@dataclass(frozen=True, eq=False)
class PairingSpec:
    """Disjoint ordered slot pairs, plus explicit states for unpaired slots."""

    pairs: tuple
    singles: tuple = ()  # (slot, normalized 2-vector) entries

    def __post_init__(self):
        pairs = tuple((int(a), int(b)) for a, b in self.pairs)
        singles = tuple((int(s), np.asarray(v, dtype=complex)) for s, v in self.singles)
        used: set[int] = set()
        for a, b in pairs:
            if a == b:
                raise InvalidPairing(f"pair ({a}, {b}) repeats a slot")
            for s in (a, b):
                if s < 0:
                    raise InvalidPairing(f"negative slot {s}")
                if s in used:
                    raise InvalidPairing(f"slot {s} appears twice in the pairing")
                used.add(s)
        for s, v in singles:
            if s < 0 or s in used:
                raise InvalidPairing(f"single slot {s} is negative or repeated")
            used.add(s)
            if v.shape != (2,):
                raise DimensionMismatch("single-slot states must be 2-vectors")
            if abs(np.linalg.norm(v) - 1.0) > NORM_TOLERANCE:
                raise NotNormalized(f"single-slot state for slot {s} is not normalized")
        object.__setattr__(self, "pairs", pairs)
        object.__setattr__(self, "singles", singles)

    def covered_slots(self) -> set[int]:
        used = {s for p in self.pairs for s in p}
        used.update(s for s, _ in self.singles)
        return used


def singlet_product(n_slots: int, pairing) -> SpinState:
    """Tensor product of singlets on the given pairs (and explicit singles).

    `pairing` is a PairingSpec or a bare list of pairs.  The pairing together
    with the singles must cover slots 0..n_slots-1 exactly.  The state keeps
    the PairingSpec as its `pairing`.
    """
    if n_slots > MAX_SLOTS:
        # before the product is built: 2**n_slots amplitudes can exhaust memory
        raise TooManySlots(f"{n_slots} slots exceed the cap of {MAX_SLOTS}")
    if not isinstance(pairing, PairingSpec):
        pairing = PairingSpec(tuple(pairing))
    covered = pairing.covered_slots()
    if covered != set(range(n_slots)):
        raise InvalidPairing(
            f"pairing covers {sorted(covered)}, expected 0..{n_slots - 1}"
        )
    vec = np.ones(1, dtype=complex)
    slot_order: list[int] = []
    # each amplitude is one product of a factor's entry with the rest's, as in np.kron
    for a, b in pairing.pairs:
        vec = np.multiply.outer(vec, SINGLET_PAIR).reshape(-1)
        slot_order += [a, b]
    for s, v in pairing.singles:
        vec = np.multiply.outer(vec, v).reshape(-1)
        slot_order.append(s)
    arr = vec.reshape([2] * n_slots)
    arr = np.transpose(arr, axes=[slot_order.index(s) for s in range(n_slots)])
    state = SpinState(n_slots, arr.reshape(-1))
    object.__setattr__(state, "pairing", pairing)
    return state


def _checked(state: SpinState, actions: Iterable) -> list:
    """(unitary, a, b) per action of one group, once each pair's slots are in
    range and distinct and no slot is used by two of the group's actions."""
    checked = []
    used: set[int] = set()
    for u, pair in actions:
        a, b = int(pair[0]), int(pair[1])
        for s in (a, b):
            if not 0 <= s < state.n_slots:
                raise SlotOutOfRange(f"slot {s} outside 0..{state.n_slots - 1}")
        if a == b:
            raise EqualSlots(f"contact unitary needs two distinct slots, got {a}")
        for s in (a, b):
            if s in used:
                raise OverlappingPairs(f"slot {s} used by two simultaneous unitaries")
            used.add(s)
        checked.append((u, a, b))
    return checked


def apply_contact(state: SpinState, u: TwoSlotUnitary, pair) -> SpinState:
    """Apply `u` to the ordered slot pair, identity on the rest."""
    return apply_group(state, [(u, pair)])


def apply_group(state: SpinState, actions: Iterable) -> SpinState:
    """Apply disjoint contact unitaries for one simultaneous collision group.

    `actions` is an iterable of (TwoSlotUnitary, pair); the result does not
    depend on the listing order because the pairs must be disjoint.  All
    contacts act on one amplitude array; only the result is validated, and
    it is not copied again.  A swap is an exchange of the two slots' bit
    axes, a view that moves amplitudes with no arithmetic; every other
    unitary is one `np.dot` product.
    """
    return _applied(state, _checked(state, actions))


def _applied(state: SpinState, checked: list) -> SpinState:
    """`apply_group` for a checked group: its (unitary, a, b) triples, each on
    two distinct slots in range, no slot used twice."""
    n = state.n_slots
    arr = state.amplitudes
    for u, a, b in checked:
        lo, hi = min(a, b), max(a, b)
        view = arr.reshape(1 << lo, 2, 1 << (hi - lo - 1), 2, 1 << (n - hi - 1))
        if u.is_swap:
            arr = view.transpose(0, 3, 2, 1, 4)
            continue
        front, back = _PAIR_FRONT[a < b]
        moved = view.transpose(front)
        arr = np.dot(u.matrix, moved.reshape(4, -1)).reshape(moved.shape).transpose(back)
    return SpinState._owning(n, arr.reshape(-1))


def _swapped(n_slots: int, axes: Optional[tuple], checked: list) -> tuple:
    """The slot permutation `axes` of `permuted(state, axes)` (None for the
    identity) after one checked group of swaps, its (unitary, a, b) triples:
    a swap exchanges its two slots' bit axes, so it exchanges their entries
    of `axes`, and no amplitude is moved."""
    order = list(range(n_slots)) if axes is None else list(axes)
    for u, a, b in checked:
        if not u.is_swap:
            raise ValueError("_swapped takes swap contacts only")
        order[a], order[b] = order[b], order[a]
    return tuple(order)


def permuted(state: SpinState, axes: Optional[tuple]) -> SpinState:
    """`state` with its slot axes permuted: slot i of the result holds what
    slot axes[i] of `state` holds (`state` itself for None).  It is one
    transposed copy, through the norm guard, that moves amplitudes with no
    arithmetic: bit for bit what `apply_group` gives for the swaps whose
    `_swapped` axes are `axes`, signed zeros included."""
    if axes is None:
        return state
    n = state.n_slots
    amps = state.amplitudes.reshape((2,) * n).transpose(axes).reshape(-1)
    return SpinState._owning(n, amps)


def overlap(a: SpinState, b: SpinState) -> complex:
    """<a|b> (conjugate-linear in the first argument)."""
    if a.n_slots != b.n_slots:
        raise DimensionMismatch(f"{a.n_slots} vs {b.n_slots} slots")
    return complex(np.vdot(a.amplitudes, b.amplitudes))


class DotBuffers:
    """What `placed_magnitude` keeps for one caller on `n_slots` slots: two
    2^n buffers, one per side of a dot, all zero between calls and each made
    on first use (None before); and per base read with a slot permutation,
    the slot bits and values of its nonzero amplitudes when it has at most
    2^n / PLACED_SHARE of them (None: it is dotted through a transposed
    copy)."""

    def __init__(self, n_slots: int):
        self.n_slots = n_slots
        self.buffers: list = [None, None]
        self.supports: dict = {}
        self.weights = _BIT_WEIGHTS[n_slots]


def placed_magnitude(a: SpinState, a_axes: Optional[tuple], b: SpinState,
                     b_axes: Optional[tuple], dots: DotBuffers) -> float:
    """abs(overlap(permuted(a, a_axes), permuted(b, b_axes))), bit for bit,
    without building either state.

    A side with no permutation is dotted as its own amplitudes.  A permuted
    side whose base has at most 2^n / PLACED_SHARE nonzero amplitudes has
    them written to their permuted positions in that side's buffer of
    `dots`, which is zeroed again after the dot; any other permuted side is
    one transposed copy.  The
    bases passed the norm guard when they were built, and a permutation only
    moves amplitudes.  Every amplitude sits at its dense position, so
    `np.vdot` sums the same terms in the same order: a term can differ only
    in the sign of a zero (+0 where the copy held -0), which leaves a
    nonzero partial sum exactly as it is, and `abs` drops the sign of a zero
    result."""
    n = dots.n_slots
    if a.n_slots != n or b.n_slots != n:
        raise DimensionMismatch(f"{a.n_slots} and {b.n_slots} slots for {n}-slot buffers")
    sides, placed = [], []
    for k, (state, axes) in enumerate(((a, a_axes), (b, b_axes))):
        if axes is None:
            sides.append(state.amplitudes)
            continue
        support = dots.supports.get(state, False)
        if support is False:
            support = dots.supports[state] = _support(state, dots.weights)
        if support is None:
            sides.append(state.amplitudes.reshape((2,) * n).transpose(axes).reshape(-1))
            continue
        buffer = dots.buffers[k]
        if buffer is None:
            buffer = dots.buffers[k] = np.zeros(1 << n, dtype=complex)
        bits, values = support
        weights = np.empty_like(dots.weights)
        weights[list(axes)] = dots.weights  # slot axes[i]'s bit lands at slot i
        where = np.dot(weights, bits)
        buffer[where] = values
        placed.append((buffer, where))
        sides.append(buffer)
    result = abs(complex(np.vdot(sides[0], sides[1])))
    for buffer, where in placed:
        buffer[where] = 0
    return result


def _support(state: SpinState, weights: np.ndarray) -> Optional[tuple]:
    """The slot bits (one row per slot, of `weights`) and the values of
    `state`'s nonzero amplitudes, or None when they exceed 2^n / PLACED_SHARE."""
    where = np.flatnonzero(state.amplitudes)
    if len(where) * PLACED_SHARE > len(state.amplitudes):
        return None
    return ((where & weights[:, None]) != 0).astype(np.int64), state.amplitudes[where]


def equal_up_to_phase(a: SpinState, b: SpinState, tol: float = PHASE_TOLERANCE) -> bool:
    return abs(abs(overlap(a, b)) - 1.0) <= tol


def angular_momentum_norms(state: SpinState) -> tuple[float, float, float]:
    """Norms of J_k |psi> for k = x, y, z with J_k = sum over slots of sigma_k/2.

    All three vanish for products of singlets; that certifies the boosted
    re-foliation shortcut used by the narrative layer.

    For one slot, with bit b of the basis index, sigma_x/2 sends an amplitude
    times 1/2 to the index with b flipped, sigma_y/2 sends it there times i/2
    from b = 0 and -i/2 from b = 1, and sigma_z/2 keeps it in place times 1/2
    and -1/2.  Every term is an exact product and the slots are summed in
    order, so the sums are those of a contraction over one slot at a time.

    The terms are added from the nonzero amplitudes only (a singlet product
    on 12 slots has 64 of 4096).  A term that is skipped is +0 or -0, and
    adding one changes at most the sign of a zero sum, which the norms square
    away: the norms keep the full contraction's bits.
    """
    amps, n = state.amplitudes, state.n_slots
    jx, jy, jz = (np.zeros_like(amps) for _ in range(3))
    support = np.flatnonzero(amps)
    # x * 0.5 and x * 1j round each part at most once: the full array's bits
    half = amps[support] * 0.5
    half_i = half * 1j
    minus, minus_i = -half, -half_i
    for slot in range(n):
        bit = 1 << (n - 1 - slot)
        flipped, up = support ^ bit, (support & bit) == 0
        jx[flipped] += half
        jy[flipped] += np.where(up, half_i, minus_i)  # a + (-b) is a - b
        jz[support] += np.where(up, half, minus)
    return tuple(float(np.linalg.norm(j)) for j in (jx, jy, jz))
