"""Momentum-delta bookkeeping for contact vertices.

A kernel records the product of momentum delta functions attached to an
interaction with named incoming and outgoing slots.  Cluster decomposition
requires the constraints to amount to overall momentum conservation and
nothing more; any further delta ties a proper subset of the momenta and
survives as a witness.  All arithmetic is exact: rows are eliminated as
primitive integer rows, and only the witness and canonical rows are Fractions.
"""

from __future__ import annotations

from bisect import insort
from dataclasses import dataclass, fields
from fractions import Fraction
from functools import cached_property
from math import gcd, lcm
from typing import Optional, Sequence

from .errors import NotConserving


def _to_fraction(value) -> Fraction:
    if isinstance(value, Fraction):
        return value
    if isinstance(value, (int, str)):
        return Fraction(value)
    raise TypeError(f"kernel coefficients must be rational, got {value!r}")


@dataclass(frozen=True)
class MomentumKernel:
    """Delta rows over columns ordered (out slots, then in slots)."""

    in_slots: tuple
    out_slots: tuple
    deltas: tuple  # rows of Fractions
    smooth_prefactor_present: bool = False
    metadata: tuple = ()  # free-form (key, note) pairs, not analyzed

    def __post_init__(self):
        in_slots = tuple(str(s) for s in self.in_slots)
        out_slots = tuple(str(s) for s in self.out_slots)
        if len(in_slots) + len(out_slots) < 2:
            raise ValueError("a kernel needs at least two slots")
        names = out_slots + in_slots
        if len(set(names)) != len(names):
            raise ValueError("slot names must be unique")
        rows = tuple(tuple(_to_fraction(c) for c in row) for row in self.deltas)
        for row in rows:
            if len(row) != len(names):
                raise ValueError(
                    f"delta row has {len(row)} coefficients for {len(names)} slots"
                )
            if not any(row):
                raise ValueError("zero delta rows are not allowed")
        object.__setattr__(self, "in_slots", in_slots)
        object.__setattr__(self, "out_slots", out_slots)
        object.__setattr__(self, "deltas", rows)
        object.__setattr__(self, "metadata", tuple(self.metadata))

    def _with_rows(self, deltas: tuple) -> "MomentumKernel":
        """This kernel with `deltas`, Fraction rows built from its checked rows,
        without `__post_init__`'s coercion and checks of parsed input."""
        kernel = object.__new__(MomentumKernel)
        kernel.__dict__.update({f.name: getattr(self, f.name) for f in fields(self)}, deltas=deltas)
        return kernel

    @property
    def slots(self) -> tuple:
        return self.out_slots + self.in_slots

    @cached_property
    def _elimination(self) -> tuple:
        """Integer (deltas, basis, (pivot, row) echelon, conserves, residuals), once."""
        deltas = tuple(_integer_row(row) for row in self.deltas)
        basis, pivots = _rref(deltas)
        echelon = tuple(zip(pivots, basis))
        c = _conservation_row(self)
        conserves = bool(basis) and _in_span(c, echelon)
        residuals = _residual_rows(basis, c) if conserves else ()
        return deltas, basis, echelon, conserves, residuals


def conservation_vector(kernel: MomentumKernel) -> tuple:
    """+1 on every outgoing slot, -1 on every incoming slot."""
    return tuple(map(Fraction, _conservation_row(kernel)))


def _conservation_row(kernel: MomentumKernel) -> tuple:
    return (1,) * len(kernel.out_slots) + (-1,) * len(kernel.in_slots)


def _integer_row(row) -> tuple:
    """The primitive integer multiple of a rational row (a zero row stays zero)."""
    dens = [x.denominator for x in row]
    scale = lcm(*dens)
    ints = [x.numerator * (scale // d) for x, d in zip(row, dens)]
    g = gcd(*ints)
    return tuple(v // g for v in ints) if g > 1 else tuple(ints)


def _fraction_row(row) -> tuple:
    """A row over its leading entry: a reduced row as a Fraction elimination gives it."""
    lead = next(x for x in row if x)
    return tuple(Fraction(x, lead) for x in row)


def _cancel(v, row, col: int) -> list:
    """Integer combination of v and row that vanishes in column col, made primitive."""
    g = gcd(v[col], row[col])
    a, b = v[col] // g, row[col] // g
    out = [b * x - a * y for x, y in zip(v, row)]
    g = gcd(*out)
    return [x // g for x in out] if g > 1 else out


def _rref(rows: Sequence[Sequence[int]]) -> tuple[tuple, list]:
    """Reduced row echelon form of integer rows: (nonzero rows, pivot columns).

    Gauss-Jordan by cross-multiplication, each combination divided by its gcd,
    so the rows stay primitive; `_fraction_row` divides one by its pivot.
    """
    m = list(rows)
    pivots = []
    r = 0
    for c in range(len(m[0]) if m else 0):
        pivot = next((i for i in range(r, len(m)) if m[i][c]), None)
        if pivot is None:
            continue
        m[r], m[pivot] = m[pivot], m[r]
        for i in range(len(m)):
            if i != r and m[i][c]:
                m[i] = _cancel(m[i], m[r], c)
        pivots.append(c)
        r += 1
        if r == len(m):
            break
    return tuple(tuple(row) for row in m[:r]), pivots


def _remainder(v, echelon) -> Sequence[int]:
    """Integer remainder of integer row v against echelon rows, each zero before its pivot.

    Zero exactly when v lies in their span; otherwise its leading column is a
    new pivot.
    """
    for p, row in echelon:
        if v[p]:
            v = _cancel(v, row, p)
    return v


def _in_span(vector, echelon) -> bool:
    return not any(_remainder(vector, echelon))


def _support(row) -> tuple:
    return tuple(i for i, c in enumerate(row) if c != 0)


def _residual_rows(basis, c) -> tuple:
    """Spanning complement of c inside the row space, rows in support order.

    Greedy over the reduced basis sorted by lexicographic support: keep a row
    whenever it is independent of c together with the rows kept so far, each
    candidate being reduced against a running echelon of that span.  This
    projects the conservation constraint out of the spanning role and leaves
    the residual constraints.
    """
    echelon = [(0, c)]  # c is +-1 in every column
    kept: list = []
    for row in sorted(basis, key=_support):
        rest = _remainder(row, echelon)
        if any(rest):
            kept.append(row)
            insort(echelon, (_support(rest)[0], rest))
    return tuple(kept)


@dataclass(frozen=True)
class ClusterVerdict:
    """Outcome of the elimination: does the kernel factorize correctly?"""

    conserves_momentum: bool
    compliant: bool
    rank: int
    witness: Optional[tuple]  # (coefficients, support slot names)


def analyze(kernel: MomentumKernel) -> ClusterVerdict:
    """Decide compliance: the row space must equal span{conservation vector}.

    A kernel with no deltas at all conserves nothing; extra independent rows
    produce a witness constraint on a proper subset of the slots, chosen as
    the reduced basis row with lexicographically smallest support.
    """
    _, basis, _, conserves, residuals = kernel._elimination
    rank = len(basis)
    compliant = conserves and rank == 1
    witness = None
    if not compliant and rank > 0:
        chosen = residuals[0] if conserves else min(basis, key=_support)
        names = kernel.slots
        witness = (_fraction_row(chosen), tuple(names[i] for i in _support(chosen)))
    return ClusterVerdict(
        conserves_momentum=conserves,
        compliant=compliant,
        rank=rank,
        witness=witness,
    )


def canonicalize(kernel: MomentumKernel) -> MomentumKernel:
    """Rewrite the deltas as (conservation vector, reduced residual rows).

    Requires a conserving kernel; the row space is verified unchanged by
    mutual containment under elimination.
    """
    deltas, _, echelon, conserves, residuals = kernel._elimination
    if not conserves:
        raise NotConserving("kernel does not contain overall momentum conservation")
    new_rows = (_conservation_row(kernel),) + residuals
    new_basis, new_pivots = _rref(new_rows)
    new_echelon = tuple(zip(new_pivots, new_basis))
    for row in deltas:
        if not _in_span(row, new_echelon):
            raise RuntimeError("canonical rows lost part of the row space")
    for row in new_rows:
        if not _in_span(row, echelon):
            raise RuntimeError("canonical rows added to the row space")
    return kernel._with_rows((conservation_vector(kernel),) + tuple(map(_fraction_row, residuals)))


def format_constraint(kernel: MomentumKernel, coefficients) -> str:
    """Human-readable form of a delta row, e.g. 'q1 + q2 - p1 - p2'."""
    names = kernel.slots
    parts = []
    for name, coeff in zip(names, coefficients):
        if coeff == 0:
            continue
        sign = "-" if coeff < 0 else "+"
        mag = abs(coeff)
        term = name if mag == 1 else f"{mag}*{name}"
        if not parts:
            parts.append(term if sign == "+" else f"-{term}")
        else:
            parts.append(f"{sign} {term}")
    return " ".join(parts) if parts else "0"
