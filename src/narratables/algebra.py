"""Finite-dimensional commutator diagnostics for split Hamiltonians.

Bracket conventions (hbar = 1, metric (+,-,-,-)):

    [J_i, J_j] =  i e_ijk J_k        [P_i, K_j] =  i d_ij H
    [J_i, K_j] =  i e_ijk K_k        [K_i, H]   = -i P_i
    [J_i, P_j] =  i e_ijk P_k        [P_i, P_j] = [P_i, H] = [J_i, H] = 0
    [K_i, K_j] = -i e_ijk J_k

The interaction correction W to a boost generator solves [K0, V] = -[W, H]
with H = H0 + V; matrix elements between energy eigenstates are

    W_ab = <a|[K0, V]|b> / (E_a - E_b),

the diagonal (and any degenerate pair) being gauged to zero.  Degenerate
pairs with a nonzero numerator are reported as obstructions, not raised.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .errors import DimensionMismatch, NonHermitianInput, NotNormalized

HERMITIAN_TOLERANCE = 1e-10
DEGENERACY_FACTOR = 1e-9
OBSTRUCTION_FACTOR = 1e-9
HISTORY_TOLERANCE = 1e-9
NONTRIVIALITY_TOLERANCE = 1e-9

GENERATOR_NAMES = ("H", "P1", "P2", "P3", "J1", "J2", "J3", "K1", "K2", "K3")


def commutator(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return a @ b - b @ a


def hermiticity_defect(m: np.ndarray) -> float:
    return float(np.linalg.norm(m - m.conj().T))


def _as_matrix(value, name: str) -> np.ndarray:
    m = np.asarray(value, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise DimensionMismatch(f"{name} must be a square matrix, got shape {m.shape}")
    return m


def _as_state(value, label: str, m: np.ndarray, m_name: str) -> np.ndarray:
    """A flat state vector with the dimension of the square matrix `m` and
    unit norm within 1e-10."""
    vec = np.asarray(value, dtype=complex).reshape(-1)
    if vec.shape[0] != m.shape[0]:
        raise DimensionMismatch(f"state has dimension {vec.shape[0]}, {m_name} has {m.shape[0]}")
    if abs(np.linalg.norm(vec) - 1.0) > 1e-10:
        raise NotNormalized(f"{label} must be normalized")
    return vec


def _operators(named: dict) -> tuple[dict, Optional[int]]:
    """The named matrices, each square and of the first one's dimension, with
    that dimension (None when there are none)."""
    ops, dim = {}, None
    for name, value in named.items():
        m = ops[name] = _as_matrix(value, name)
        if dim is None:
            dim = m.shape[0]
        elif m.shape[0] != dim:
            raise DimensionMismatch(f"{name} is {m.shape[0]}x{m.shape[0]}, others are {dim}x{dim}")
    return ops, dim


class GeneratorSet:
    """Any subset of the ten toy generators, all of one dimension; each name
    reads as an attribute, None when absent."""

    def __init__(self, /, **named):
        unknown = [name for name in named if name not in GENERATOR_NAMES]
        if unknown:
            raise TypeError(f"unknown generator names {unknown}; allowed: {list(GENERATOR_NAMES)}")
        self._ops, self.dim = _operators(
            {name: named[name] for name in GENERATOR_NAMES if named.get(name) is not None})
        if self.dim is None:
            raise ValueError("no generators supplied")

    def __getattr__(self, name):
        if name in GENERATOR_NAMES:
            return self._ops.get(name)
        raise AttributeError(f"{type(self).__name__!r} object has no attribute {name!r}")

    def present(self) -> dict:
        """The generators given, in GENERATOR_NAMES order."""
        return dict(self._ops)

    def hermiticity_residuals(self) -> dict:
        return {name: hermiticity_defect(m) for name, m in self._ops.items()}


# the checkable pairs (A, B), in the order their rows print
_PAIRS = tuple(
    [(f"{x}{i}", f"{y}{j}") for i in (1, 2, 3) for j in (1, 2, 3)
     for x, y in (("JJ", "KK", "PP") if i < j else ()) + ("JK", "JP", "PK")]
    + [(f"{x}{i}", "H") for i in (1, 2, 3) for x in "KPJ"]
)


def _bracket(a: str, b: str) -> Optional[tuple]:
    """(sign, c) with [a, b] = sign * i * c, or None when the bracket of the
    pair (a, b) of `_PAIRS` vanishes."""
    x, i = a[0], int(a[1:] or 0)
    y, j = b[0], int(b[1:] or 0)
    if i != j and "H" not in (a, b):
        k = 6 - i - j
        epsilon = 1 if (j - i) % 3 == 1 else -1
        if x == "J":
            return epsilon, f"{y}{k}"
        if x == y == "K":
            return -epsilon, f"J{k}"
    if x == "P" and y == "K" and i == j:
        return 1, "H"
    if x == "K" and y == "H":
        return -1, f"P{i}"
    return None


def bracket_residuals(gens: GeneratorSet) -> dict:
    """Frobenius norms of [A,B] - RHS for every checkable bracket of `_PAIRS`:
    A, B and the right-hand generator all present.  A residual is named after
    [A,B] - RHS."""
    present = gens.present()
    if len(present) < 2:
        raise ValueError("need at least two generators to check brackets")
    residuals = {}
    for a, b in _PAIRS:
        sign, c = _bracket(a, b) or (0, None)
        if a in present and b in present and (c is None or c in present):
            name = f"[{a},{b}]" if c is None else f"[{a},{b}] {'-' if sign > 0 else '+'} i*{c}"
            rhs = 0 if c is None else 1j * sign * present[c]
            residuals[name] = float(np.linalg.norm(commutator(present[a], present[b]) - rhs))
    return residuals


@dataclass(eq=False)
class SplitSystem:
    """H = H0 + V with the free boost generators K0 along up to three axes."""

    H0: np.ndarray
    V: np.ndarray
    K0: tuple

    def __post_init__(self):
        ops, _ = _operators({"H0": self.H0, "V": self.V,
                             **{f"K0[{i}]": k for i, k in enumerate(self.K0)}})
        self.H0, self.V, *k0 = ops.values()
        self.K0 = tuple(k0)
        if not self.K0:
            raise ValueError("need at least one K0 axis")
        for name, m in (("H0", self.H0), ("V", self.V)):
            if hermiticity_defect(m) > HERMITIAN_TOLERANCE:
                warnings.warn(f"{name} is not Hermitian", NonHermitianInput, stacklevel=2)

    @property
    def H(self) -> np.ndarray:
        return self.H0 + self.V


@dataclass(eq=False)
class WSolution:
    """Correction W with its defining-equation residual and gauge notes."""

    W: np.ndarray
    residual: float
    degenerate_obstructions: tuple  # (a, b) eigenindex pairs

    @property
    def obstructed(self) -> bool:
        return bool(self.degenerate_obstructions)


def solve_W(system: SplitSystem, axis: int = 0) -> WSolution:
    """Solve [K0, V] = -[W, H] in the eigenbasis of H = H0 + V.

    Gauge: diagonal and degenerate-pair elements of W are set to zero; a
    degenerate pair whose numerator <a|[K0,V]|b> is nonzero cannot be solved
    and is recorded in degenerate_obstructions (visible in the residual).
    """
    if not 0 <= axis < len(system.K0):
        raise DimensionMismatch(f"axis {axis} outside 0..{len(system.K0) - 1}")
    k0 = system.K0[axis]
    h = system.H
    m = commutator(k0, system.V)

    if hermiticity_defect(h) <= HERMITIAN_TOLERANCE:
        energies, q = np.linalg.eigh(h)
        q_inv = q.conj().T
    else:
        warnings.warn("H = H0 + V is not Hermitian; using a general "
                      "eigendecomposition", NonHermitianInput, stacklevel=2)
        energies, q = np.linalg.eig(h)
        q_inv = np.linalg.inv(q)

    m_eig = q_inv @ m @ q
    eps_deg = DEGENERACY_FACTOR * np.linalg.norm(h)
    eps_obs = OBSTRUCTION_FACTOR * np.linalg.norm(m)
    gaps = energies[:, None] - energies[None, :]
    solvable = np.abs(gaps) > eps_deg
    w_eig = np.divide(m_eig, gaps, out=np.zeros_like(m_eig), where=solvable)
    rows, cols = np.nonzero(~solvable & (np.abs(m_eig) > eps_obs))
    obstructions = tuple(zip(rows.tolist(), cols.tolist()))
    w = q @ w_eig @ q_inv
    residual = float(np.linalg.norm(m + commutator(w, h)))
    return WSolution(W=w, residual=residual, degenerate_obstructions=obstructions)


# b_0..b_13 of the degree-13 Pade approximant to exp, and the 1-norm up to
# which it is accurate to double precision (Higham 2005, SIAM J. Matrix Anal.
# Appl. 26:1179, table 2.3 and eq. 2.1)
_PADE13 = (
    64764752532480000.0, 32382376266240000.0, 7771770303897600.0,
    1187353796428800.0, 129060195264000.0, 10559470521600.0, 670442572800.0,
    33522128640.0, 1323241920.0, 40840800.0, 960960.0, 16380.0, 182.0, 1.0,
)
_THETA13 = 5.371920351148152


def _expm(a: np.ndarray) -> np.ndarray:
    """exp(a) by scaling and squaring the degree-13 Pade approximant."""
    norm = np.linalg.norm(a, 1)
    # an inf or nan norm gives s = 0 and a nan result rather than an OverflowError
    s = math.ceil(math.log2(norm / _THETA13)) if _THETA13 < norm < math.inf else 0
    a = a / 2.0**s
    b = _PADE13
    ident = np.eye(len(a), dtype=a.dtype)
    a2 = a @ a
    a4 = a2 @ a2
    a6 = a4 @ a2
    u = a @ (a6 @ (b[13] * a6 + b[11] * a4 + b[9] * a2)
             + b[7] * a6 + b[5] * a4 + b[3] * a2 + b[1] * ident)
    v = (a6 @ (b[12] * a6 + b[10] * a4 + b[8] * a2)
         + b[6] * a6 + b[4] * a4 + b[2] * a2 + b[0] * ident)
    r = np.linalg.solve(v - u, v + u)
    for _ in range(s):
        r = r @ r
    return r


def _sampled_states(h: np.ndarray, psi0: np.ndarray, times: np.ndarray, label: str):
    """Rows exp(i h t) psi0 for t in times, a (len(times), dim) array.

    Hermitian h: one eigendecomposition, every phase applied in one product.
    Otherwise: walk out from t = 0 (ascending over t >= 0, descending over
    t < 0), stepping by exp(i dt h) with one matrix exponential per distinct
    increment dt; a repeated time reuses the state it already has.
    """
    if hermiticity_defect(h) <= HERMITIAN_TOLERANCE:
        evals, q = np.linalg.eigh(h)
        coeffs = q.conj().T @ psi0
        return (q @ (np.exp(1j * np.outer(evals, times)) * coeffs[:, None])).T
    warnings.warn(f"{label} is not Hermitian; falling back to "
                  "scaling-and-squaring matrix exponentials",
                  NonHermitianInput, stacklevel=3)
    states = np.empty((len(times), len(psi0)), dtype=complex)
    steps = {}
    order = np.argsort(times, kind="stable")
    split = int(np.searchsorted(times[order], 0.0))
    # each walk moves away from t = 0, so no step undoes a growing mode
    for walk in (order[split:], order[:split][::-1]):
        t_now, state = 0.0, psi0
        for i in walk:
            dt = times[i] - t_now
            if dt != 0:
                if dt not in steps:
                    steps[dt] = _expm(1j * dt * h)
                state = steps[dt] @ state
                t_now = times[i]
            states[i] = state
    return states


def same_history_check(
    h0: np.ndarray,
    v_a: np.ndarray,
    v_b: np.ndarray,
    psi0: np.ndarray,
    times: Sequence[float],
    tol: float = HISTORY_TOLERANCE,
):
    """Do exp(i(H0+Va)t)|psi0> and exp(i(H0+Vb)t)|psi0> trace one history?

    Returns (flag, samples) with samples = [(t, c(t))] where c(t) is the
    overlap <w(t)|u(t)>; the flag is True when |c| stays at 1 within tol,
    i.e. the two evolutions differ only by a time-dependent phase.  Every
    time must be finite.
    """
    h0, v_a, v_b = _operators({"H0": h0, "Va": v_a, "Vb": v_b})[0].values()
    psi = _as_state(psi0, "psi0", h0, "H0")
    ts = np.array([float(t) for t in times])
    if not np.isfinite(ts).all():
        raise ValueError(f"sample times must be finite, got {ts[~np.isfinite(ts)][0]}")
    u = _sampled_states(h0 + v_a, psi, ts, "H0 + Va")
    w = _sampled_states(h0 + v_b, psi, ts, "H0 + Vb")
    overlaps = np.einsum("tk,tk->t", w.conj(), u)
    samples = [(t, complex(c)) for t, c in zip(ts.tolist(), overlaps)]
    same = not any(abs(abs(c) - 1.0) > tol for _, c in samples)
    return same, samples


def boost_residual(w: np.ndarray, psi: np.ndarray) -> float:
    """Norm of the part of W|psi> orthogonal to the normalized state |psi>."""
    w = _as_matrix(w, "W")
    vec = _as_state(psi, "psi", w, "W")
    image = w @ vec
    return float(np.linalg.norm(image - np.vdot(vec, image) * vec))


def boost_nontriviality_check(
    w: np.ndarray, psi: np.ndarray, tol: float = NONTRIVIALITY_TOLERANCE
) -> bool:
    """True when W|psi> is not proportional to |psi> (the boost acts)."""
    return boost_residual(w, psi) > tol
