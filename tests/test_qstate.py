import functools
from bisect import bisect_right
from itertools import accumulate
from typing import NamedTuple

import numpy as np
import pytest

from swapqkd import adversary, qstate
from swapqkd.qstate import (
    GATES,
    collapse_rows,
    gate_rows,
    project_rows,
    to_front,
)

import oracle
from streams import RandomSource, random_sources
from swapqkd.harness import splitmix64

SQRT2_INV = 1.0 / np.sqrt(2.0)


# --- independent oracle -----------------------------------------------------
# Brute-force Born probabilities by explicit index bookkeeping, sharing no
# code with the reshape/transpose implementation under test.


def oracle_pair_probs(state: np.ndarray, basis: np.ndarray, pair) -> list[float]:
    n = len(state).bit_length() - 1
    i, j = pair
    rest = [q for q in range(n) if q not in (i, j)]
    probs = []
    for k in range(4):
        total = 0.0
        for rest_bits in range(2 ** len(rest)):
            amp = 0.0 + 0.0j
            for bi in (0, 1):
                for bj in (0, 1):
                    idx = (bi << i) | (bj << j)
                    for pos, q in enumerate(rest):
                        idx |= ((rest_bits >> pos) & 1) << q
                    amp += np.conj(basis[k][2 * bi + bj]) * state[idx]
            total += abs(amp) ** 2
        probs.append(total)
    return probs


def oracle_collapse(amps: np.ndarray, basis: np.ndarray, pair, k: int) -> np.ndarray:
    """Amplitudes of (|b_k><b_k| on the pair) |amps>, renormalized, index by index."""
    i, j = pair
    out = np.zeros_like(amps)
    for idx in range(len(amps)):
        base = idx & ~((1 << i) | (1 << j))
        rest = sum(
            np.conj(basis[k][2 * bi + bj]) * amps[base | (bi << i) | (bj << j)]
            for bi in (0, 1)
            for bj in (0, 1)
        )
        out[idx] = basis[k][2 * ((idx >> i) & 1) + ((idx >> j) & 1)] * rest
    return out / np.linalg.norm(out)


def random_state(rng: np.random.Generator, n: int) -> np.ndarray:
    amps = rng.standard_normal(2**n) + 1j * rng.standard_normal(2**n)
    return amps / np.linalg.norm(amps)


def same_ray(a: np.ndarray, b: np.ndarray, atol: float = 1e-10) -> bool:
    """|<a|b>| == 1 within ``atol``: the states are equal up to a global phase."""
    return abs(abs(np.vdot(a, b)) - 1.0) <= atol


def pairs_state(n: int, pairs) -> np.ndarray:
    """An :func:`oracle.product_state` as a flat amplitude array, in the canonical order."""
    return oracle.product_state(n, pairs).reshape(-1)


def canonical(n: int) -> tuple[int, ...]:
    """The qubit order of a flat amplitude array: qubit n - 1 first."""
    return tuple(range(n - 1, -1, -1))


def flat(batch: np.ndarray, order) -> np.ndarray:
    """A batch held in ``order``, back in the canonical order as ``(rows, 2**n)``."""
    return to_front(batch, order, canonical(len(order)))[0].reshape(len(batch), -1)


def gate_flat(amps: np.ndarray, gates, qubit: int, choice=None) -> np.ndarray:
    """:func:`gate_rows` on ``qubit`` of a canonical ``(rows, 2**n)`` batch, returned
    canonical."""
    front, order = to_front(amps, canonical(amps.shape[1].bit_length() - 1), (qubit,))
    return flat(gate_rows(front, gates, choice), order)


def project(amps: np.ndarray, basis: np.ndarray, pair):
    """:func:`project_rows` on ``pair`` of a canonical batch: ``(proj, probs, order)``,
    ``order`` the layout that :func:`collapse_rows` then returns."""
    front, order = to_front(amps, canonical(amps.shape[1].bit_length() - 1), pair)
    return (*project_rows(front, basis), order)


def measure(amps: np.ndarray, basis: np.ndarray, pair, rng: RandomSource):
    """One sampled measurement of a single state through the batch kernels."""
    proj, probs, order = project(amps[None], basis, pair)
    k = int(oracle.pick(probs[:1], np.array([rng.uniform()]))[0])
    return k, flat(collapse_rows(basis, proj, probs, np.array([k])), order)[0]


def basis_pair(bits: str) -> np.ndarray:
    """The two-qubit computational basis state |bits>, pair-indexed."""
    return np.eye(4, dtype=complex)[int(bits, 2)]


# --- construction -----------------------------------------------------------


def test_init_basis_state_single_qubit():
    # A one-qubit basis state is a valid register, and X on qubit 0 flips
    # its only bit.
    state = np.array([1.0, 0.0], dtype=complex)
    assert np.array_equal(gate_flat(state[None], (GATES["X"],), 0), [[0, 1]])


# --- gates ------------------------------------------------------------------


def test_gate_lookup_composes_right_to_left():
    assert np.allclose(qstate.gate("XS"), GATES["X"] @ GATES["S"])
    with pytest.raises(ValueError):
        qstate.gate("Q")


def test_compound_gates_are_one_read_only_array_each(monkeypatch):
    # One array per name, checked for unitarity once, as it is composed.
    checks = []
    real = qstate.is_unitary
    monkeypatch.setattr(qstate, "is_unitary", lambda m: checks.append(1) or real(m))
    names = ("XS", "YS", "ZS", "SZSZSX")
    made = {name: qstate.gate(name) for name in names}
    checks.clear()
    for name, matrix in made.items():
        assert qstate.gate(name) is matrix
        assert not matrix.flags.writeable
        assert np.array_equal(matrix, functools.reduce(np.matmul, (GATES[c] for c in name)))
    assert checks == []
    qstate.gate("SXSXSZ")  # a name no other test composes
    assert checks == [1]
    # A product that is not unitary is refused as it is composed, and never kept.
    monkeypatch.setitem(GATES, "Q", np.array([[1, 1], [0, 1]], dtype=complex))
    for _ in range(2):
        with pytest.raises(ValueError, match="'QS' is not unitary"):
            qstate.gate("QS")
    assert len(checks) == 3


def test_oracle_gate_library_matches_the_engine():
    # tests/oracle.py looks gate names up in its own library; the walk compares masses bit
    # for bit, so every name a plan can hold must mean the same bits there.
    names = set(adversary.CORRECTIONS_EXTENDED) | set(adversary.PRE_UNITARIES) | {"SZSZSX"}
    assert oracle.GATES.keys() == GATES.keys()
    for name in sorted(names):
        assert oracle.gate_matrix(name).tobytes() == qstate.gate(name).tobytes(), name


def test_s_on_zero_gives_equal_superposition():
    out = gate_flat(np.array([[1.0, 0.0]], dtype=complex), (GATES["S"],), 0)
    assert np.allclose(out, [[SQRT2_INV, SQRT2_INV]])


def test_identity_gate_is_noop():
    rng = np.random.default_rng(1)
    state = random_state(rng, 3)
    out = gate_flat(state[None], (GATES["I"],), 1)
    assert np.allclose(out[0], state)


def test_s_on_acting_factor_of_label00_gives_01_plus_10(conv):
    # Two-qubit check of the defining rotation identity, in Bell labels.
    qubit = 0 if conv.acting_factor == "second" else 1  # pair (q1, q0)
    rotated = gate_flat(conv.states["00"][None], (GATES["S"],), qubit)[0]
    assert same_ray(rotated, (conv.states["01"] + conv.states["10"]) / np.sqrt(2))


def test_z_on_acting_factor_of_plus_plus_gives_00_minus_11(conv):
    plus_plus = (conv.states["01"] + conv.states["10"]) / np.sqrt(2)
    qubit = 0 if conv.acting_factor == "second" else 1
    flipped = gate_flat(plus_plus[None], (GATES["Z"],), qubit)[0]
    assert same_ray(flipped, (conv.states["00"] - conv.states["11"]) / np.sqrt(2))


def test_apply_gate_rejects_bad_input():
    amps = np.eye(4, dtype=complex)[:1]
    with pytest.raises(ValueError, match="out of range"):
        gate_flat(amps, (GATES["X"],), 2)


def test_is_unitary_rejects_nan_and_near_misses():
    assert qstate.is_unitary(GATES["S"])
    assert qstate.is_unitary(np.array([[1, 1e-13], [0, 1]], dtype=complex))
    assert not qstate.is_unitary(np.array([[1, 1e-11], [0, 1]], dtype=complex))
    nan = np.eye(2, dtype=complex)
    nan[1, 0] = np.nan
    assert not qstate.is_unitary(nan)
    assert not qstate.is_unitary(np.eye(3))


def test_apply_gate_preserves_norm_on_random_states():
    rng = np.random.default_rng(7)
    for _ in range(50):
        n = int(rng.integers(2, 7))
        state = random_state(rng, n)
        name = ["I", "X", "Y", "Z", "S"][int(rng.integers(5))]
        out = gate_flat(state[None], (GATES[name],), int(rng.integers(n)))
        assert abs(np.linalg.norm(out[0]) - 1.0) < 1e-12


# --- measurement ------------------------------------------------------------


def born(state: np.ndarray, basis: np.ndarray, pair) -> np.ndarray:
    """The four outcome probabilities of one state, from :func:`project_rows`."""
    return project(state[None], basis, pair)[1][0]


def test_basis_probabilities_on_eigenstate(conv):
    state = pairs_state(2, [(0, 1, conv.states["10"])])
    probs = born(state, conv.basis_matrix, (0, 1))
    assert np.allclose(probs, [0, 0, 1, 0], atol=1e-12)


def test_basis_probabilities_match_oracle_on_random_states(conv):
    rng = np.random.default_rng(11)
    for _ in range(25):
        n = int(rng.integers(2, 7))
        state = random_state(rng, n)
        qubits = rng.choice(n, size=2, replace=False)
        pair = (int(qubits[0]), int(qubits[1]))
        probs = born(state, conv.basis_matrix, pair)
        assert np.allclose(probs, oracle_pair_probs(state, conv.basis_matrix, pair), atol=1e-10)
        assert abs(probs.sum() - 1.0) < 1e-10


def test_basis_probabilities_uniform_on_swapped_pair(conv):
    # One qubit from each of two independent pairs is maximally mixed.
    vec = conv.states["00"]
    state = pairs_state(4, [(0, 1, vec), (2, 3, vec)])
    probs = born(state, conv.basis_matrix, (0, 2))
    assert np.allclose(oracle_pair_probs(state, conv.basis_matrix, (0, 2)), 0.25, atol=1e-12)
    assert np.allclose(probs, 0.25, atol=1e-10)


def test_six_qubit_initial_state_key_pair_is_uniform(conv):
    # The full six-qubit starting state: pairs (1,2), (3,5), (4,6) in the
    # labeled-00 state; Bell-measuring qubits (1,3) is uniform over labels.
    vec = conv.states["00"]
    state = pairs_state(6, [(0, 1, vec), (2, 4, vec), (3, 5, vec)])
    pair = (0, 2)
    assert np.allclose(oracle_pair_probs(state, conv.basis_matrix, pair), 0.25, atol=1e-12)
    assert np.allclose(born(state, conv.basis_matrix, pair), 0.25, atol=1e-10)


def test_basis_probabilities_rejects_bad_pair():
    amps = np.eye(4, dtype=complex)[:1]
    with pytest.raises(ValueError, match="repeated"):
        project(amps, np.eye(4, dtype=complex), (1, 1))
    with pytest.raises(ValueError, match="out of range"):
        project(amps, np.eye(4, dtype=complex), (0, 2))


def test_measure_eigenstate_is_deterministic_and_stable(conv):
    state = pairs_state(2, [(0, 1, conv.states["01"])])
    for seed in range(5):
        rng = RandomSource(seed)
        outcome, collapsed = measure(state, conv.basis_matrix, (0, 1), rng)
        assert outcome == 1
        assert same_ray(collapsed, state)


def test_remeasurement_is_idempotent(conv):
    rng_states = np.random.default_rng(23)
    for trial in range(20):
        state = random_state(rng_states, 4)
        rng = RandomSource(trial)
        outcome, collapsed = measure(state, conv.basis_matrix, (1, 3), rng)
        outcome2, collapsed2 = measure(collapsed, conv.basis_matrix, (1, 3), rng)
        assert outcome2 == outcome
        assert abs(abs(np.vdot(collapsed, collapsed2)) - 1.0) < 1e-10


def test_measurement_is_bit_exact_deterministic(conv):
    state = random_state(np.random.default_rng(3), 5)
    a = measure(state, conv.basis_matrix, (0, 4), RandomSource(99))
    b = measure(state, conv.basis_matrix, (0, 4), RandomSource(99))
    assert a[0] == b[0]
    assert np.array_equal(a[1], b[1])


def test_collapse_onto_probability_and_norm(conv):
    state = random_state(np.random.default_rng(31), 4)
    proj, probs, order = project(state[None], conv.basis_matrix, (0, 2))
    live = np.flatnonzero(probs[0] >= 1e-12)
    collapsed = flat(collapse_rows(conv.basis_matrix, proj, probs, live), order)
    for k, after in zip(live, collapsed):
        assert abs(probs[0, k] - oracle_pair_probs(state, conv.basis_matrix, (0, 2))[k]) < 1e-12
        assert abs(np.linalg.norm(after) - 1.0) < 1e-12


def test_collapse_onto_zero_weight_is_degenerate(conv):
    # Collapsing onto an outcome with no weight cannot give a unit state.
    state = pairs_state(2, [(0, 1, conv.states["00"])])
    proj, probs, _ = project(state[None], conv.basis_matrix, (0, 1))
    assert probs[0, 3] == 0.0
    with np.errstate(divide="ignore", invalid="ignore"), pytest.raises(ValueError, match="not 1"):
        collapse_rows(conv.basis_matrix, proj, probs, np.array([3]))


def test_live_outcomes_match_probabilities_and_collapse(conv):
    rng = np.random.default_rng(41)
    basis = conv.basis_matrix
    for n in (6, 8):
        state = random_state(rng, n)
        tensor = state.reshape((1,) + (2,) * n)
        for pair in ((0, 1), (1, 0), (2, n - 1), (n - 1, 3)):
            proj, probs, order = project(state[None], basis, pair)
            live = np.flatnonzero(probs[0] > 1e-9)
            by_index = oracle_pair_probs(state, basis, pair)
            assert live.tolist() == [k for k in range(4) if by_index[k] > 1e-9]
            collapsed = flat(collapse_rows(basis, proj, probs, live), order)
            want_proj, want_probs = oracle.project(tensor, basis, pair)
            for k, after in zip(live, collapsed):
                assert abs(probs[0, k] - by_index[k]) < 1e-12
                want = oracle.collapse(n, basis, pair, want_proj, want_probs, np.array([k]))
                for expected in (want.reshape(-1), oracle_collapse(state, basis, pair, k)):
                    assert np.allclose(after, expected, rtol=0.0, atol=1e-12)


def test_live_outcomes_skip_zero_weight(conv):
    state = pairs_state(4, [(0, 1, conv.states["10"]), (2, 3, conv.states["00"])])
    proj, probs, order = project(state[None], conv.basis_matrix, (0, 1))
    live = np.flatnonzero(probs[0] > 1e-9)
    assert [(int(k), round(float(probs[0, k]), 12)) for k in live] == [(2, 1.0)]
    after = flat(collapse_rows(conv.basis_matrix, proj, probs, live), order)[0]
    assert same_ray(after, state)


def test_batch_kernels_match_single_states(conv):
    # The kernels against tests/oracle.py, row by row.  The gate, the
    # projection and the probabilities are the same arithmetic in both, so
    # they must agree bit for bit.  The collapse divides by sqrt(p) in the
    # oracle and multiplies by its reciprocal in the kernel, which numpy's
    # complex-by-real division does too, so it is bit for bit as well.
    rng = np.random.default_rng(43)
    basis = conv.basis_matrix
    amps = np.stack([random_state(rng, 8) for _ in range(5)])
    tensor = amps.reshape((5,) + (2,) * 8)
    gates = (GATES["S"], GATES["Y"])
    choice = np.array([1, 0, 0, 1, 1])
    rotated = gate_flat(amps, gates, 5, choice)
    want = oracle.gate(tensor, np.array(gates)[choice], 5)
    assert np.array_equal(rotated, want.reshape(5, -1))
    proj, probs, order = project(amps, basis, (6, 2))
    want_proj, want_probs = oracle.project(tensor, basis, (6, 2))
    assert np.array_equal(proj, want_proj)
    assert np.array_equal(probs, want_probs)
    rows, outcomes = np.array([0, 2, 4, 4]), np.array([3, 0, 1, 2])
    collapsed = flat(collapse_rows(basis, proj, probs, 4 * rows + outcomes), order)
    want = oracle.collapse(8, basis, (6, 2), want_proj[rows], want_probs[rows], outcomes)
    assert np.array_equal(collapsed, want.reshape(len(rows), -1))
    # Chained layouts: the gate's result, left in its layout, projects to the same bits.
    front, order = to_front(amps, canonical(8), (5,))
    rotated, order = to_front(gate_rows(front, gates, choice), order, (6, 2))
    proj, probs = project_rows(rotated, basis)
    want_proj, want_probs = oracle.project(oracle.gate(tensor, np.array(gates)[choice], 5),
                                           basis, (6, 2))
    assert np.array_equal(proj, want_proj)
    assert np.array_equal(probs, want_probs)


def test_collapse_rows_checks_every_norm(conv):
    rng = np.random.default_rng(44)
    basis = conv.basis_matrix
    amps = np.stack([random_state(rng, 4) for _ in range(3)])
    proj, probs, _ = project(amps, basis, (0, 1))
    picks = np.array([0, 5, 10])  # row b after outcome b
    qstate.collapse_rows(basis, proj, probs, picks)
    wrong = probs.copy()
    wrong[1, 1] *= 2.0
    with pytest.raises(ValueError, match="not 1 within"):
        qstate.collapse_rows(basis, proj, wrong, picks)
    broken = proj.copy()
    broken[2, 2, 0] = np.nan
    with pytest.raises(ValueError, match="not 1 within"):
        qstate.collapse_rows(basis, broken, probs, picks)


def test_project_rows_rejects_non_finite_amplitudes(conv):
    amps = np.stack([random_state(np.random.default_rng(45), 4) for _ in range(2)])
    amps[1, 5] = np.nan
    with np.errstate(invalid="ignore"), pytest.raises(ValueError, match="not finite"):
        project(amps, conv.basis_matrix, (0, 1))
    amps[1, 5] = np.inf
    with np.errstate(invalid="ignore"), pytest.raises(ValueError, match="not finite"):
        project(amps, conv.basis_matrix, (3, 2))


# --- layout -----------------------------------------------------------------


def test_to_front_matches_oracle_front_from_chained_orders():
    # Each call starts from the order the previous one left, yet fronts the
    # same array that tests/oracle.py moves out of the canonical tensor.
    rng = np.random.default_rng(46)
    for n in (3, 6, 8):
        amps = np.stack([random_state(rng, n) for _ in range(3)])
        tensor = amps.reshape((3,) + (2,) * n)
        batch, order = amps, canonical(n)
        for _ in range(12):
            size = int(rng.integers(1, 3))
            qubits = tuple(int(q) for q in rng.choice(n, size=size, replace=False))
            batch, order = to_front(batch, order, qubits)
            rest = tuple(q for q in canonical(n) if q not in qubits)
            assert order == qubits + rest
            assert np.array_equal(batch, oracle._front(tensor, qubits)[0])
        assert np.array_equal(flat(batch, order), amps)


def test_to_front_rejects_repeated_and_out_of_range_qubits():
    amps = np.eye(16, dtype=complex)[:2]
    for qubits in ((1, 1), (3, 0, 3)):
        with pytest.raises(ValueError, match="repeated"):
            to_front(amps, canonical(4), qubits)
    for qubits in ((4,), (0, -1), (2, 7)):
        with pytest.raises(ValueError, match="out of range"):
            to_front(amps, canonical(4), qubits)


# --- randomness -------------------------------------------------------------


def test_random_source_is_reproducible():
    a = RandomSource(123456789)
    b = RandomSource(123456789)
    assert [a.uniform() for _ in range(20)] == [b.uniform() for _ in range(20)]


def test_random_source_masks_to_64_bits():
    assert RandomSource(2**64 + 5).seed == 5


class Node(NamedTuple):
    """A drawing row of a tree written out for :func:`compile_nested`."""

    probabilities: tuple
    children: list


class End(NamedTuple):
    """A row that ends a walk at ``leaf`` after ``levels`` more uniforms: a chain of ``levels``
    one-outcome rows above ``leaf``, which :func:`compile_nested` folds into one row."""

    leaf: object
    levels: int


def compile_nested(root) -> qstate.CompiledTree:
    """:func:`qstate.compile_tree` of a tree written out as :class:`Node` and :class:`End`
    descriptions, rows in pre-order; any other node is a leaf.  A tree that holds an
    :class:`End` is compiled with each leaf as its own fold key, which folds every chain."""
    probabilities, children, leaves, ends = [], [], [], []

    def visit(node) -> int:
        if isinstance(node, End):
            ends.append(node)
            node = Node((1.0,), [End(node.leaf, node.levels - 1)]) if node.levels else node.leaf
        i, drawing = len(leaves), isinstance(node, Node)
        probabilities.append(node.probabilities if drawing else None)
        children.append([])
        leaves.append(None if drawing else node)
        if drawing:
            children[i] = [visit(child) for child in node.children]
        return i

    visit(root)
    return qstate.compile_tree(probabilities, children, leaves,
                               (lambda leaf: leaf) if ends else None)


def pick(probs, u: float) -> int:
    """The outcome a one-row tree over ``probs`` steps to for uniform ``u``: the lanes' walk
    and the bisect over the row's thresholds that ``RandomSource.descend`` takes agree on it."""
    tree = compile_nested(Node(probs, list(range(len(probs)))))
    outcome = tree.leaves[int(tree.descend(np.array([[u]]))[0])]
    thresholds, children = tree.rows
    assert tree.leaves[children[0][bisect_right(thresholds[0], u)]] == outcome
    return outcome


def test_row_pick_boundaries():
    probs = np.array([0.25, 0.25, 0.25, 0.25])
    assert pick(probs, 0.0) == 0
    assert pick(probs, 0.999999) == 3
    # rounding gap above the last bucket falls back to the last live outcome
    assert pick(np.array([1.0, 0.0, 0.0, 0.0]), 0.9999999999) == 0


# --- the stream is numpy's PCG64 ---------------------------------------------
# RandomSource computes numpy's SeedSequence -> PCG64 -> Generator.random()
# itself; these pin it to numpy bit for bit, so a numpy change fails loudly.

STREAM_SEEDS = (0, 1, 2**32 - 1, 2**32, 2**63 - 1, 2**63, 2**64 - 1, 2**64 + 5)
DRAWS = 200


def numpy_stream(seed: int) -> list[float]:
    generator = np.random.Generator(np.random.PCG64(seed & (2**64 - 1)))
    return generator.random(DRAWS).tolist()


def draws(rng: RandomSource, count: int = DRAWS) -> list[float]:
    return [rng.uniform() for _ in range(count)]


@pytest.mark.parametrize("seed", STREAM_SEEDS)
def test_random_source_is_numpy_pcg64(seed):
    (batched,) = random_sources(np.array([seed % 2**64], dtype=np.uint64))
    assert batched.seed == RandomSource(seed).seed == seed % 2**64
    assert draws(RandomSource(seed)) == draws(batched) == numpy_stream(seed)


def test_batched_sources_are_numpy_pcg64_over_splitmix_seeds():
    seeds = [splitmix64(2024, i) for i in range(10_000)]
    batch = random_sources(np.array(seeds, dtype=np.uint64))
    for seed, batched in zip(seeds, batch, strict=True):
        assert draws(batched) == numpy_stream(seed)


@pytest.mark.parametrize(
    "size", [0, 1, qstate.SEED_CHUNK - 1, qstate.SEED_CHUNK, qstate.SEED_CHUNK + 1]
)
def test_a_batch_equals_its_seeds_one_at_a_time(size):
    seeds = [splitmix64(2024, i) for i in range(size)]
    batch = list(random_sources(np.array(seeds, dtype=np.uint64)))
    assert [rng.seed for rng in batch] == seeds
    assert [draws(rng, 3) for rng in batch] == [draws(RandomSource(s), 3) for s in seeds]


# Levels of the chains a descent walks: coins at q = 0.3, 1 and 0, and four-outcome
# nodes with dead outcomes; the fourth node's thresholds stop at 0.5, so every
# uniform above that lands in the slot where ``pick`` falls back to ``last_live``.
DESCENT_LEVELS = (
    (0.3, 0.7),
    (0.25, 0.25, 0.25, 0.25),
    (0.0, 0.5, 0.5, 0.0),
    (0.25, 0.25, 0.0, 0.0),
    (1.0, 0.0),
    (0.0, 1.0),
)


def pick_tree(levels, prefix=()):
    """A full tree over ``levels``, written out, whose leaf is the path of picks that reaches it."""
    if len(prefix) == len(levels):
        return prefix
    probs = levels[len(prefix)]
    return Node(probs, [pick_tree(levels, prefix + (k,)) for k in range(len(probs))])


@pytest.mark.parametrize("depth", range(1, len(DESCENT_LEVELS) + 1))
@pytest.mark.parametrize("seed", STREAM_SEEDS)
def test_descent_consumes_the_stream_as_uniform_does(seed, depth):
    levels = DESCENT_LEVELS[:depth]
    tree, stream = compile_nested(pick_tree(levels)), numpy_stream(seed)
    rng, twin = RandomSource(seed), RandomSource(seed)
    used = 0
    while used + depth < DRAWS:
        # One uniform per level, picked as a one-row tree picks it.
        assert rng.descend(tree) == tuple(pick(probs, twin.uniform()) for probs in levels)
        used += depth
        assert rng.uniform() == twin.uniform() == stream[used]
        used += 1


# A jump's seeds: both ends of the range, the top bit alone, and three drawn at random.
JUMP_SEEDS = (0, 2**63, 2**64 - 1, 0xE848F808F54D35BF, 0x3E1C26D323EF323E, 0x9CF342CA060BB525)


@pytest.mark.parametrize("levels", range(9))
@pytest.mark.parametrize("seed", JUMP_SEEDS)
def test_a_jump_steps_the_stream_as_its_levels_of_uniforms_do(seed, levels):
    leaf = object()
    rng, twin = RandomSource(seed), RandomSource(seed)
    # A root that ends every walk: no row draws, the jump alone moves the stream.
    assert rng.descend(compile_nested(End(leaf, levels))) is leaf
    draws(twin, levels)
    assert rng._state == twin._state
    assert draws(rng, 3) == draws(twin, 3) == numpy_stream(seed)[levels:levels + 3]


@pytest.mark.parametrize("levels", range(9))
@pytest.mark.parametrize("seed", JUMP_SEEDS)
def test_a_jump_below_a_node_ends_the_descent_where_the_walk_would(seed, levels):
    # The folded shape: a coin draws, then the row in its slot ends the walk for the rest.
    leaves = ("first", "second")
    coin = compile_nested(Node((0.3, 0.7), [End(leaf, levels) for leaf in leaves]))
    rng, twin = RandomSource(seed), RandomSource(seed)
    for _ in range(20):
        assert rng.descend(coin) == leaves[pick((0.3, 0.7), twin.uniform())]
        draws(twin, levels)
        assert rng.uniform() == twin.uniform()


# --- inverse-CDF picks --------------------------------------------------------


def loop_pick(probabilities, u: float) -> int:
    """The inverse-CDF loop that picked outcomes before thresholds were kept."""
    acc, last_live = 0.0, 0
    for k, p in enumerate(probabilities):
        if p > 0.0:
            last_live = k
        acc += max(float(p), 0.0)
        if u < acc:
            return k
    return last_live


@pytest.mark.parametrize(
    "probs,u,want",
    [
        # rounding gap above the last bucket: the last live outcome, not a trailing zero
        ((0.5, 0.49999999, 0.0, 0.0), 0.999999995, 1),
        ((0.25, 0.25, 0.25, 0.0), 0.9, 2),
        ((0.3, 0.3, 0.39999999, -1e-17), 1.0 - 2**-53, 2),
        # zero-probability outcomes at either end are never picked
        ((0.0, 0.5, 0.5, 0.0), 0.0, 1),
        ((0.0, 0.5, 0.5, 0.0), 1.0 - 2**-53, 2),
        ((0.0, 0.0, 0.0, 1.0), 0.0, 3),
        # a -1e-17 probability counts as 0
        ((0.5, -1e-17, 0.5, 0.0), 0.5, 2),
        ((-1e-17, 0.5, 0.5, 0.0), 0.0, 1),
        # u equal to a threshold belongs to the next bucket
        ((0.25, 0.25, 0.25, 0.25), 0.25, 1),
        ((0.25, 0.25, 0.25, 0.25), 0.75, 3),
        ((0.5, 0.0, 0.5, 0.0), 0.5, 2),
        ((0.0, 0.0, 0.0, 0.0), 0.5, 0),
    ],
)
def test_threshold_pick_matches_the_loop_at_the_edges(probs, u, want):
    tree = compile_nested(Node(probs, list(range(len(probs)))))
    assert tree.thresholds[0].tolist() == list(accumulate(max(p, 0.0) for p in probs))
    assert pick(probs, u) == loop_pick(probs, u) == want
    assert pick(np.array(probs), u) == want


# --- lanes --------------------------------------------------------------------
# RandomLanes is RandomSource over uint64 arrays, and CompiledTree.descend is
# RandomSource.descend over a grid of uniforms; both are pinned to the scalar forms.

LANE_SEEDS = JUMP_SEEDS[:4]  # 0, the top bit alone, 2**64 - 1, and one drawn at random


def test_lane_grids_are_numpy_pcg64_across_blocks():
    lanes = qstate.RandomLanes(np.array(LANE_SEEDS, dtype=np.uint64))
    assert len(lanes) == len(LANE_SEEDS)
    # Three blocks of unequal widths, then one lane dropped: the rest carry on.
    grid = np.concatenate([lanes.uniforms(count) for count in (24, 1, 7)], axis=1)
    assert grid.dtype == np.float64
    assert grid.tolist() == [numpy_stream(seed)[:32] for seed in LANE_SEEDS]
    lanes.keep(np.array([True, False, True, True]))
    kept = LANE_SEEDS[:1] + LANE_SEEDS[2:]
    assert lanes.uniforms(13).tolist() == [numpy_stream(seed)[32:45] for seed in kept]


def test_lanes_of_a_chunk_equal_random_sources():
    seeds = np.array([splitmix64(2024, i) for i in range(qstate.SEED_CHUNK + 1)],
                     dtype=np.uint64)
    grid = qstate.RandomLanes(seeds).uniforms(3)
    assert grid.tolist() == [draws(rng, 3) for rng in random_sources(seeds)]


def assert_lanes_walk_as_descend(root, rounds=40):
    """Lanes seeded with STREAM_SEEDS walk ``rounds`` rounds of ``root``'s compiled tree
    from one grid and end at the leaves ``RandomSource.descend`` reaches, round by round."""
    tree = compile_nested(root)
    seeds = [seed % 2**64 for seed in STREAM_SEEDS]
    grid = qstate.RandomLanes(np.array(seeds, dtype=np.uint64)).uniforms(rounds * tree.draws)
    ends = tree.descend(grid.reshape(len(seeds), rounds, tree.draws))
    for seed, row in zip(seeds, ends):
        rng = RandomSource(seed)
        assert [tree.leaves[node] for node in row] == [rng.descend(tree) for _ in range(rounds)]
    return tree


@pytest.mark.parametrize("depth", range(1, len(DESCENT_LEVELS) + 1))
def test_lane_walks_reach_the_leaves_descend_reaches(depth):
    # DESCENT_LEVELS has zero-probability outcomes and a node whose uniforms above 0.5
    # land in the gap slot, so every kind of step is taken.
    assert assert_lanes_walk_as_descend(pick_tree(DESCENT_LEVELS[:depth])).draws == depth


@pytest.mark.parametrize("levels", [1, 4])
def test_a_compiled_jump_absorbs_its_levels(levels):
    # The folded shape: a coin, then a row that ends the walk after as many levels as the
    # walk in the other slot takes.
    root = Node((0.3, 0.7), [End("jumped", levels), pick_tree(DESCENT_LEVELS[:levels])])
    assert assert_lanes_walk_as_descend(root).draws == levels + 1
    # A root that ends every walk draws nothing itself; its leaf is the tree's one end, and
    # the chain's rows below it, unreached, end at that leaf too.
    tree = compile_nested(End("all", levels))
    assert (tree.draws, tree.levels[0], set(tree.leaves)) == (levels, levels, {"all"})


def test_compiling_refuses_paths_of_unequal_draws():
    # A leaf after one draw beside one after two; a jump a level short of its sibling.
    for root in (
        Node((0.5, 0.5), ["shallow", Node((1.0,), ["deep"])]),
        Node((0.5, 0.5), [End("short", 1), pick_tree(DESCENT_LEVELS[:2])]),
    ):
        with pytest.raises(ValueError, match="uniforms"):
            compile_nested(root)
    # No uniform picks an outcome of probability 0, so its subtree's depth does not count,
    # and no slot leads to it.
    tree = compile_nested(Node((0.5, 0.0, 0.5), ["left", Node((1.0,), ["dead"]), "right"]))
    assert tree.draws == 1 and "dead" not in [tree.leaves[row] for row in tree.children[0]]
    # Rows are listed each before its children, so a pass in reverse sees children first.
    with pytest.raises(ValueError, match="listed before"):
        qstate.compile_tree([(1.0,), None], [[0], []], [None, "leaf"])
