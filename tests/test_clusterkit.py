"""Delta-structure analysis against a brute-force row-space oracle."""

import random
from dataclasses import replace
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from narratables import clusterkit
from narratables.clusterkit import (
    ClusterVerdict,
    MomentumKernel,
    analyze,
    canonicalize,
    conservation_vector,
    format_constraint,
)
from narratables.errors import NotConserving

F = Fraction


def kernel_2x2(rows):
    return MomentumKernel(
        in_slots=("p1", "p2"), out_slots=("q1", "q2"), deltas=tuple(rows)
    )


SPIN_SWAP_ROWS = ((0, 1, -1, 0), (1, 0, 0, -1))  # q2 - p1, q1 - p2
CONSERVATION = (1, 1, -1, -1)


def determinant(mat):
    # Laplace expansion over exact integers/rationals
    n = len(mat)
    if n == 1:
        return mat[0][0]
    total = 0
    for j in range(n):
        minor = [row[:j] + row[j + 1 :] for row in mat[1:]]
        term = mat[0][j] * determinant(minor)
        total += term if j % 2 == 0 else -term
    return total


def rank_by_minors(rows):
    rows = [list(r) for r in rows]
    if not rows:
        return 0
    ncols = len(rows[0])
    for k in range(min(len(rows), ncols), 0, -1):
        for ridx in combinations(range(len(rows)), k):
            for cidx in combinations(range(ncols), k):
                sub = [[rows[i][j] for j in cidx] for i in ridx]
                if determinant(sub) != 0:
                    return k
    return 0


def in_row_space(vector, rows):
    return rank_by_minors(list(rows) + [list(vector)]) == rank_by_minors(rows)


def test_conservation_vector_shapes():
    assert conservation_vector(kernel_2x2([CONSERVATION])) == (1, 1, -1, -1)
    one_one = MomentumKernel(("p1",), ("q1",), ((1, -1),))
    assert conservation_vector(one_one) == (1, -1)
    three_two = MomentumKernel(
        ("p1", "p2", "p3"), ("q1", "q2"), ((1, 1, -1, -1, -1),)
    )
    assert conservation_vector(three_two) == (1, 1, -1, -1, -1)


def test_spin_swap_kernel_frozen_verdict():
    verdict = analyze(kernel_2x2(SPIN_SWAP_ROWS))
    assert verdict.conserves_momentum
    assert not verdict.compliant
    assert verdict.rank == 2
    coeffs, support = verdict.witness
    assert coeffs == (F(1), F(0), F(0), F(-1))
    assert support == ("q1", "p2")
    assert set(support) < {"q1", "q2", "p1", "p2"}  # proper subset


def test_single_delta_compliant():
    verdict = analyze(kernel_2x2([CONSERVATION]))
    assert verdict == ClusterVerdict(
        conserves_momentum=True, compliant=True, rank=1, witness=None
    )


def test_empty_kernel_non_conserving():
    verdict = analyze(kernel_2x2([]))
    assert not verdict.conserves_momentum
    assert not verdict.compliant
    assert verdict.rank == 0
    assert verdict.witness is None


def test_rewritten_kernel_same_verdict():
    # {c, q1 - p2} has the same row space as the spin-swap rows
    verdict = analyze(kernel_2x2([CONSERVATION, (1, 0, 0, -1)]))
    reference = analyze(kernel_2x2(SPIN_SWAP_ROWS))
    assert verdict == reference


def test_non_conserving_single_row():
    verdict = analyze(kernel_2x2([(1, 0, 0, 0)]))
    assert not verdict.conserves_momentum
    assert not verdict.compliant
    assert verdict.rank == 1
    coeffs, support = verdict.witness
    assert support == ("q1",)


def test_canonicalize_frozen():
    canonical = canonicalize(kernel_2x2(SPIN_SWAP_ROWS))
    assert canonical.deltas == (
        (F(1), F(1), F(-1), F(-1)),
        (F(1), F(0), F(0), F(-1)),
    )
    assert canonical.slots == ("q1", "q2", "p1", "p2")


def test_canonicalize_identity_and_scaling():
    plain = kernel_2x2([CONSERVATION])
    assert canonicalize(plain).deltas == ((F(1), F(1), F(-1), F(-1)),)
    doubled = kernel_2x2([tuple(2 * c for c in CONSERVATION)])
    assert canonicalize(doubled).deltas == ((F(1), F(1), F(-1), F(-1)),)


def test_canonicalize_idempotent():
    once = canonicalize(kernel_2x2(SPIN_SWAP_ROWS))
    twice = canonicalize(once)
    assert once.deltas == twice.deltas
    assert analyze(once) == analyze(kernel_2x2(SPIN_SWAP_ROWS))


def test_canonicalize_requires_conservation():
    with pytest.raises(NotConserving):
        canonicalize(kernel_2x2([(1, 0, 0, 0)]))
    with pytest.raises(NotConserving):
        canonicalize(kernel_2x2([]))


def test_verdict_invariant_under_row_operations():
    rng = random.Random(1234)
    base_rows = [list(r) for r in SPIN_SWAP_ROWS]
    reference = analyze(kernel_2x2(SPIN_SWAP_ROWS))
    for _ in range(200):
        rows = [list(r) for r in base_rows]
        op = rng.randrange(3)
        if op == 0:
            i = rng.randrange(len(rows))
            scale = F(rng.choice([-3, -1, 2, 5]), rng.choice([1, 2, 7]))
            rows[i] = [scale * c for c in rows[i]]
        elif op == 1:
            i, j = rng.sample(range(len(rows)), 2)
            factor = F(rng.randint(-3, 3))
            candidate = [a + factor * b for a, b in zip(rows[i], rows[j])]
            if not any(candidate):
                continue
            rows[i] = candidate
        else:
            rng.shuffle(rows)
        assert analyze(kernel_2x2(rows)) == reference
        base_rows = rows  # compound the operations


def test_slot_permutation_keeps_booleans_and_rank():
    verdict = analyze(kernel_2x2(SPIN_SWAP_ROWS))
    # relabel q1<->q2, p1<->p2 by permuting columns consistently
    permuted_rows = [(r[1], r[0], r[3], r[2]) for r in SPIN_SWAP_ROWS]
    permuted = analyze(kernel_2x2(permuted_rows))
    assert permuted.conserves_momentum == verdict.conserves_momentum
    assert permuted.compliant == verdict.compliant
    assert permuted.rank == verdict.rank
    # the witness stays a valid residual constraint of the permuted kernel
    coeffs, support = permuted.witness
    assert in_row_space(coeffs, permuted_rows)
    assert rank_by_minors([list(coeffs), list(CONSERVATION)]) == 2
    assert 0 < len(support) < 4


def test_kernel_validation():
    with pytest.raises(ValueError):
        MomentumKernel((), ("q1",), ())  # fewer than two slots
    with pytest.raises(ValueError):
        MomentumKernel(("p1",), ("p1",), ())  # duplicate names
    with pytest.raises(ValueError):
        kernel_2x2([(0, 0, 0, 0)])  # zero row
    with pytest.raises(ValueError):
        kernel_2x2([(1, -1)])  # wrong width
    with pytest.raises(TypeError):
        kernel_2x2([(0.5, 0, 0, 0)])  # floats are not exact


def test_format_constraint():
    k = kernel_2x2(SPIN_SWAP_ROWS)
    assert format_constraint(k, CONSERVATION) == "q1 + q2 - p1 - p2"
    assert format_constraint(k, (1, 0, 0, -1)) == "q1 - p2"
    assert format_constraint(k, (-1, 0, 2, 0)) == "-q1 + 2*p1"
    assert format_constraint(k, (0, 0, 0, 0)) == "0"
    assert format_constraint(k, (F(1, 2), 0, 0, 0)) == "1/2*q1"


def random_kernel(rng):
    n_out = rng.randint(1, 3)
    n_in = rng.randint(1, 4 - n_out) if n_out < 4 else 1
    ncols = n_out + n_in
    n_rows = rng.randint(0, 4)
    rows = []
    for _ in range(n_rows):
        row = [rng.randint(-2, 2) for _ in range(ncols)]
        while not any(row):
            row = [rng.randint(-2, 2) for _ in range(ncols)]
        rows.append(tuple(row))
    return MomentumKernel(
        in_slots=tuple(f"p{i + 1}" for i in range(n_in)),
        out_slots=tuple(f"q{i + 1}" for i in range(n_out)),
        deltas=tuple(rows),
    )


def oracle_verdict(kernel):
    rows = [list(r) for r in kernel.deltas]
    c = [int(x) for x in conservation_vector(kernel)]
    rank = rank_by_minors(rows)
    conserves = rank > 0 and in_row_space(c, rows)
    return conserves, conserves and rank == 1, rank


def test_analyze_matches_minor_rank_oracle():
    rng = random.Random(424242)
    for _ in range(500):
        kernel = random_kernel(rng)
        verdict = analyze(kernel)
        conserves, compliant, rank = oracle_verdict(kernel)
        assert verdict.conserves_momentum == conserves
        assert verdict.compliant == compliant
        assert verdict.rank == rank
        if verdict.witness is not None:
            coeffs, support = verdict.witness
            assert in_row_space(coeffs, kernel.deltas)
            assert support == tuple(
                kernel.slots[i] for i, v in enumerate(coeffs) if v != 0
            )
            if conserves:
                # witness independent of the conservation vector
                cons = [int(x) for x in conservation_vector(kernel)]
                assert rank_by_minors([list(coeffs), cons]) == 2


def test_canonical_row_space_unchanged_oracle():
    rng = random.Random(99)
    checked = 0
    while checked < 100:
        kernel = random_kernel(rng)
        verdict = analyze(kernel)
        if not verdict.conserves_momentum:
            continue
        canonical = canonicalize(kernel)
        joint = [list(r) for r in kernel.deltas] + [list(r) for r in canonical.deltas]
        assert (
            rank_by_minors(kernel.deltas)
            == rank_by_minors(canonical.deltas)
            == rank_by_minors(joint)
        )
        assert canonical.deltas[0] == conservation_vector(kernel)
        checked += 1


# -- the integer elimination against a plain Fraction one ---------------------


def fraction_rref(rows):
    """Textbook Gauss-Jordan over Fractions: (nonzero rows, pivot columns)."""
    m = [[F(x) for x in row] for row in rows]
    pivots = []
    r = 0
    for col in range(len(m[0]) if m else 0):
        i = next((i for i in range(r, len(m)) if m[i][col] != 0), None)
        if i is None:
            continue
        m[r], m[i] = m[i], m[r]
        lead = m[r][col]
        m[r] = [x / lead for x in m[r]]
        for j in range(len(m)):
            factor = m[j][col]
            if j != r and factor != 0:
                m[j] = [a - factor * b for a, b in zip(m[j], m[r])]
        pivots.append(col)
        r += 1
    return m[:r], pivots


RATIONALS = st.one_of(
    st.just(F(0)),
    st.integers(-5, 5).map(F),
    st.fractions(min_value=-10, max_value=10, max_denominator=60),
    st.builds(F, st.integers(-(10**30), 10**30), st.integers(1, 10**20)),
)


@st.composite
def rational_matrices(draw):
    """Random rows plus zero rows, copies and combinations of earlier rows."""
    ncols = draw(st.integers(1, 7))
    rows = draw(st.lists(st.lists(RATIONALS, min_size=ncols, max_size=ncols), max_size=6))
    for _ in range(draw(st.integers(0, 3))):
        kind = draw(st.sampled_from(["zero", "copy", "combination"]))
        if kind == "zero" or not rows:
            rows.append([F(0)] * ncols)
        elif kind == "copy":
            rows.append(list(draw(st.sampled_from(rows))))
        else:
            a, b = draw(st.sampled_from(rows)), draw(st.sampled_from(rows))
            s, t = draw(RATIONALS), draw(RATIONALS)
            rows.append([s * x + t * y for x, y in zip(a, b)])
    return draw(st.permutations(rows))


@given(rational_matrices())
def test_rref_matches_fraction_gauss_jordan(rows):
    got_rows, got_pivots = clusterkit._rref([clusterkit._integer_row(r) for r in rows])
    got_rows = [list(clusterkit._fraction_row(row)) for row in got_rows]
    assert (got_rows, got_pivots) == fraction_rref(rows)
    assert all(type(x) is F for row in got_rows for x in row)


SMALL = st.fractions(min_value=-4, max_value=4, max_denominator=6)


@st.composite
def kernels_with_row_ops(draw):
    """A kernel (often conserving) and a list of (op, i, j, factor) row operations."""
    n_out, n_in = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    width = n_out + n_in
    rows = draw(st.lists(st.lists(SMALL, min_size=width, max_size=width).filter(any),
                         max_size=3))
    if draw(st.booleans()):
        scale = draw(SMALL.filter(bool))
        rows.insert(draw(st.integers(0, len(rows))),
                    [scale] * n_out + [-scale] * n_in)
    kernel = MomentumKernel(
        in_slots=tuple(f"p{i + 1}" for i in range(n_in)),
        out_slots=tuple(f"q{i + 1}" for i in range(n_out)),
        deltas=tuple(map(tuple, rows)),
    )
    ops = draw(st.lists(st.tuples(st.sampled_from(["scale", "add", "swap"]),
                                  st.integers(0, 5), st.integers(0, 5), SMALL),
                        max_size=6))
    return kernel, ops


def apply_row_ops(rows, ops):
    rows = [list(r) for r in rows]
    for op, i, j, factor in ops:
        if not rows:
            break
        i, j = i % len(rows), j % len(rows)
        if op == "scale" and factor != 0:
            rows[i] = [factor * x for x in rows[i]]
        elif op == "add" and i != j:
            added = [x + factor * y for x, y in zip(rows[i], rows[j])]
            if any(added):  # zero delta rows are not allowed
                rows[i] = added
        elif op == "swap":
            rows[i], rows[j] = rows[j], rows[i]
    return rows


@given(kernels_with_row_ops())
def test_row_operations_keep_verdict_and_canonical_rows(case):
    kernel, ops = case
    moved = MomentumKernel(
        in_slots=kernel.in_slots,
        out_slots=kernel.out_slots,
        deltas=tuple(map(tuple, apply_row_ops(kernel.deltas, ops))),
    )
    verdict = analyze(kernel)
    assert analyze(moved) == verdict
    if verdict.conserves_momentum:
        assert canonicalize(moved).deltas == canonicalize(kernel).deltas


def fraction_witness_and_canonical_rows(kernel):
    """(analyze's witness row, canonicalize's deltas or None), in Fraction arithmetic only."""
    def support(row):
        return tuple(i for i, x in enumerate(row) if x != 0)

    basis, _ = fraction_rref(kernel.deltas)
    c = list(conservation_vector(kernel))
    if fraction_rref(basis + [c])[0] != basis:  # c lies outside the row space
        return (tuple(min(basis, key=support)) if basis else None), None
    kept = []  # greedy over the basis by support: rows independent of c and the kept ones
    for row in sorted(basis, key=support):
        if len(fraction_rref([c] + kept + [row])[0]) == len(kept) + 2:
            kept.append(row)
    return (tuple(kept[0]) if kept else None), tuple(map(tuple, [c] + kept))


@st.composite
def fraction_kernels(draw):
    """Kernels with fractional rows, often with a scaled conservation row."""
    n_out = draw(st.integers(0, 3))
    n_in = draw(st.integers(max(1, 2 - n_out), 4))
    width = n_out + n_in
    rows = draw(st.lists(st.lists(RATIONALS, min_size=width, max_size=width).filter(any),
                         max_size=4))
    if draw(st.booleans()):
        scale = draw(RATIONALS.filter(bool))
        rows.insert(draw(st.integers(0, len(rows))), [scale] * n_out + [-scale] * n_in)
    return MomentumKernel(
        in_slots=tuple(f"p{i + 1}" for i in range(n_in)),
        out_slots=tuple(f"q{i + 1}" for i in range(n_out)),
        deltas=tuple(map(tuple, rows)),
    )


@given(fraction_kernels())
def test_witness_and_canonical_rows_match_fraction_reference(kernel):
    witness, canonical = fraction_witness_and_canonical_rows(kernel)
    verdict = analyze(kernel)
    got = verdict.witness[0] if verdict.witness else None
    assert got == witness
    assert all(type(x) is F for x in got or ())
    assert verdict.conserves_momentum == (canonical is not None)
    if canonical is not None:
        deltas = canonicalize(kernel).deltas
        assert deltas == canonical
        assert all(type(x) is F for row in deltas for x in row)


@st.composite
def conserving_kernels(draw):
    """Random delta rows plus a multiple of the conservation row, in any order."""
    n_out, n_in = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    width = n_out + n_in
    rows = draw(st.lists(st.lists(SMALL, min_size=width, max_size=width).filter(any),
                         max_size=4))
    scale = draw(SMALL.filter(bool))
    rows.insert(draw(st.integers(0, len(rows))), [scale] * n_out + [-scale] * n_in)
    return MomentumKernel(
        in_slots=tuple(f"p{i + 1}" for i in range(n_in)),
        out_slots=tuple(f"q{i + 1}" for i in range(n_out)),
        deltas=tuple(map(tuple, rows)),
    )


@given(conserving_kernels(), st.booleans(), st.sampled_from([(), (("note", "kept"),)]))
def test_canonicalize_builds_what_the_checked_constructor_builds(kernel, smooth, metadata):
    kernel = replace(kernel, smooth_prefactor_present=smooth, metadata=metadata)
    canonical = canonicalize(kernel)
    checked = MomentumKernel(canonical.in_slots, canonical.out_slots, canonical.deltas,
                             canonical.smooth_prefactor_present, canonical.metadata)
    assert canonical == checked and repr(canonical) == repr(checked)
    assert (canonical.smooth_prefactor_present, canonical.metadata) == (smooth, metadata)
    assert all(type(x) is F for row in canonical.deltas for x in row)
    assert analyze(canonical) == analyze(checked)


@given(conserving_kernels())
def test_canonicalize_is_idempotent(kernel):
    once = canonicalize(kernel)
    twice = canonicalize(once)
    assert twice.deltas == once.deltas
    assert twice.slots == once.slots == kernel.slots
    assert analyze(once) == analyze(kernel)


def test_analyze_and_canonicalize_share_one_elimination(monkeypatch):
    calls = []
    original = clusterkit._rref

    def counting(rows):
        calls.append(rows)
        return original(rows)

    monkeypatch.setattr(clusterkit, "_rref", counting)
    three_swaps = MomentumKernel(  # rank 3, two residual rows
        in_slots=("p1", "p2", "p3"),
        out_slots=("q1", "q2", "q3"),
        deltas=((1, 0, 0, -1, 0, 0), (0, 1, 0, 0, -1, 0), (0, 0, 1, 0, 0, -1)),
    )
    for kernel in (three_swaps, kernel_2x2(SPIN_SWAP_ROWS), kernel_2x2([CONSERVATION])):
        calls.clear()
        assert analyze(kernel).conserves_momentum
        assert analyze(kernel) == analyze(kernel)
        canonicalize(kernel)
        # one for the kernel's rows, one for the canonical rows' check
        assert len(calls) == 2
    calls.clear()
    assert not analyze(kernel_2x2([(1, 0, 0, 0)])).conserves_momentum
    assert len(calls) == 1
