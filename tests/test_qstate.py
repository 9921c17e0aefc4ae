import numpy as np
import pytest

from swapqkd import qstate
from swapqkd.qstate import (
    GATES,
    RandomSource,
    collapse_rows,
    gate_rows,
    prepare_pairs,
    project_rows,
)

import oracle
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


def measure(amps: np.ndarray, basis: np.ndarray, pair, rng: RandomSource):
    """One sampled measurement of a single state through the batch kernels."""
    n = int(np.log2(len(amps)))
    proj, probs = project_rows(amps[None], n, basis, pair)
    k = qstate.Distribution(probs[0]).pick(rng.uniform())
    return k, collapse_rows(n, basis, pair, proj, probs, np.array([k]))[0]


def basis_pair(bits: str) -> np.ndarray:
    """The two-qubit computational basis state |bits>, pair-indexed."""
    return np.eye(4, dtype=complex)[int(bits, 2)]


# --- construction -----------------------------------------------------------


def test_init_basis_state_single_qubit():
    # A one-qubit basis state is a valid register, and X on qubit 0 flips
    # its only bit.
    state = np.array([1.0, 0.0], dtype=complex)
    assert np.array_equal(gate_rows(state[None], 1, (GATES["X"],), 0), [[0, 1]])


def test_init_basis_state_index_matches_bit_pattern():
    # Qubit q is bit q of the amplitude index: qubit 1 set, qubit 0 clear is 0b10.
    state = prepare_pairs(2, [(1, 0, basis_pair("10"))])
    assert state[0b10] == 1.0
    assert np.count_nonzero(state) == 1
    assert np.array_equal(oracle.product_state(2, [(1, 0, basis_pair("10"))]).reshape(-1),
                          state)


def test_init_basis_state_six_qubits_all_zero():
    state = prepare_pairs(6, [(q, q + 1, basis_pair("00")) for q in (0, 2, 4)])
    assert state[0] == 1.0
    assert state.shape == (64,) and not state.flags.writeable


def test_prepare_pairs_rejects_unnormalized_nonfinite_and_misshapen():
    with pytest.raises(ValueError, match="not 1 within"):
        prepare_pairs(2, [(0, 1, np.array([1.0, 1.0, 0.0, 0.0]))])
    with pytest.raises(ValueError, match="not 1 within"):
        prepare_pairs(2, [(0, 1, np.array([np.nan, 0.0, 0.0, 0.0]))])
    with pytest.raises(ValueError, match="4 amplitudes"):
        prepare_pairs(2, [(0, 1, np.array([1.0, 0.0]))])


def test_prepare_pairs_register_cap():
    with pytest.raises(ValueError, match="1..8"):
        prepare_pairs(9, [(q, q + 1, basis_pair("00")) for q in range(0, 8, 2)])


def test_prepare_pairs_matches_kron_oracle():
    rng = np.random.default_rng(5)
    v1 = rng.standard_normal(4) + 1j * rng.standard_normal(4)
    v1 /= np.linalg.norm(v1)
    v2 = rng.standard_normal(4) + 1j * rng.standard_normal(4)
    v2 /= np.linalg.norm(v2)
    state = prepare_pairs(4, [(3, 1, v1), (2, 0, v2)])
    expected = np.zeros(16, dtype=complex)
    for b3 in (0, 1):
        for b1 in (0, 1):
            for b2 in (0, 1):
                for b0 in (0, 1):
                    idx = (b3 << 3) | (b2 << 2) | (b1 << 1) | b0
                    expected[idx] = v1[2 * b3 + b1] * v2[2 * b2 + b0]
    assert np.allclose(state, expected, atol=1e-12)


def test_prepare_pairs_requires_partition():
    v = np.array([1, 0, 0, 0], dtype=complex)
    with pytest.raises(ValueError):
        prepare_pairs(4, [(0, 1, v), (1, 2, v)])
    with pytest.raises(ValueError):
        prepare_pairs(4, [(0, 1, v)])


# --- gates ------------------------------------------------------------------


def test_gate_lookup_composes_right_to_left():
    assert np.allclose(qstate.gate("XS"), GATES["X"] @ GATES["S"])
    with pytest.raises(ValueError):
        qstate.gate("Q")


def test_compound_gates_are_one_read_only_array_each(monkeypatch):
    # One array per name, so the kernels' unitarity memo hits on every use.
    amps = np.eye(2, dtype=complex)
    for name in ("XS", "YS", "ZS"):
        matrix = qstate.gate(name)
        assert qstate.gate(name) is matrix
        assert not matrix.flags.writeable
        assert np.array_equal(matrix, GATES[name[0]] @ GATES[name[1]])
        qstate.gate_rows(amps, 1, (matrix,), 0)
    checks = []
    real = qstate.is_unitary
    monkeypatch.setattr(qstate, "is_unitary", lambda m: checks.append(1) or real(m))
    for name in ("XS", "YS", "ZS"):
        qstate.gate_rows(amps, 1, (qstate.gate(name),), 0)
    assert checks == []
    # A matrix not known to be unitary is still checked, and rejected, on
    # both the broadcast and the per-row path.
    shear = np.array([[1, 1], [0, 1]], dtype=complex)
    with pytest.raises(ValueError, match="not unitary"):
        qstate.gate_rows(amps, 1, (shear,), 0)
    with pytest.raises(ValueError, match="not unitary"):
        qstate.gate_rows(amps, 1, (qstate.gate("XS"), shear), 0, np.array([0, 0]))
    assert len(checks) == 2


def test_s_on_zero_gives_equal_superposition():
    out = gate_rows(np.array([[1.0, 0.0]], dtype=complex), 1, (GATES["S"],), 0)
    assert np.allclose(out, [[SQRT2_INV, SQRT2_INV]])


def test_identity_gate_is_noop():
    rng = np.random.default_rng(1)
    state = random_state(rng, 3)
    out = gate_rows(state[None], 3, (GATES["I"],), 1)
    assert np.allclose(out[0], state)


def test_s_on_acting_factor_of_label00_gives_01_plus_10(conv):
    # Two-qubit check of the defining rotation identity, in Bell labels.
    qubit = 0 if conv.acting_factor == "second" else 1  # pair (q1, q0)
    rotated = gate_rows(conv.states["00"][None], 2, (GATES["S"],), qubit)[0]
    assert same_ray(rotated, (conv.states["01"] + conv.states["10"]) / np.sqrt(2))


def test_z_on_acting_factor_of_plus_plus_gives_00_minus_11(conv):
    plus_plus = (conv.states["01"] + conv.states["10"]) / np.sqrt(2)
    qubit = 0 if conv.acting_factor == "second" else 1
    flipped = gate_rows(plus_plus[None], 2, (GATES["Z"],), qubit)[0]
    assert same_ray(flipped, (conv.states["00"] - conv.states["11"]) / np.sqrt(2))


def test_apply_gate_rejects_bad_input():
    amps = np.eye(4, dtype=complex)[:1]
    with pytest.raises(ValueError):
        gate_rows(amps, 2, (GATES["X"],), 2)
    with pytest.raises(ValueError):
        gate_rows(amps, 2, (np.array([[1, 1], [0, 1]], dtype=complex),), 0)


def test_is_unitary_rejects_nan_and_near_misses():
    assert qstate.is_unitary(GATES["S"])
    assert qstate.is_unitary(np.array([[1, 1e-13], [0, 1]], dtype=complex))
    assert not qstate.is_unitary(np.array([[1, 1e-11], [0, 1]], dtype=complex))
    nan = np.eye(2, dtype=complex)
    nan[1, 0] = np.nan
    assert not qstate.is_unitary(nan)
    assert not qstate.is_unitary(np.eye(3))


def test_check_basis_rejects_bad_shape_and_non_orthonormal(conv):
    with pytest.raises(ValueError, match="4x4"):
        qstate._check_basis(np.eye(2, dtype=complex))
    with pytest.raises(ValueError, match="orthonormal"):
        qstate._check_basis(conv.basis_matrix * (1 + 1e-9))
    nan = np.eye(4, dtype=complex)
    nan[2, 3] = np.nan
    with pytest.raises(ValueError, match="orthonormal"):
        qstate._check_basis(nan)
    assert qstate._check_basis(conv.basis_matrix) is conv.basis_matrix


def test_apply_gate_preserves_norm_on_random_states():
    rng = np.random.default_rng(7)
    for _ in range(50):
        n = int(rng.integers(2, 7))
        state = random_state(rng, n)
        name = ["I", "X", "Y", "Z", "S"][int(rng.integers(5))]
        out = gate_rows(state[None], n, (GATES[name],), int(rng.integers(n)))
        assert abs(np.linalg.norm(out[0]) - 1.0) < 1e-12


# --- measurement ------------------------------------------------------------


def born(state: np.ndarray, basis: np.ndarray, pair) -> np.ndarray:
    """The four outcome probabilities of one state, from :func:`project_rows`."""
    return project_rows(state[None], len(state).bit_length() - 1, basis, pair)[1][0]


def test_basis_probabilities_on_eigenstate(conv):
    state = prepare_pairs(2, [(0, 1, conv.states["10"])])
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
    state = prepare_pairs(4, [(0, 1, vec), (2, 3, vec)])
    probs = born(state, conv.basis_matrix, (0, 2))
    assert np.allclose(oracle_pair_probs(state, conv.basis_matrix, (0, 2)), 0.25, atol=1e-12)
    assert np.allclose(probs, 0.25, atol=1e-10)


def test_six_qubit_initial_state_key_pair_is_uniform(conv):
    # The full six-qubit starting state: pairs (1,2), (3,5), (4,6) in the
    # labeled-00 state; Bell-measuring qubits (1,3) is uniform over labels.
    vec = conv.states["00"]
    state = prepare_pairs(6, [(0, 1, vec), (2, 4, vec), (3, 5, vec)])
    pair = (0, 2)
    assert np.allclose(oracle_pair_probs(state, conv.basis_matrix, pair), 0.25, atol=1e-12)
    assert np.allclose(born(state, conv.basis_matrix, pair), 0.25, atol=1e-10)


def test_basis_probabilities_rejects_bad_basis_and_pair():
    amps = np.eye(4, dtype=complex)[:1]
    bad = np.eye(4, dtype=complex)
    bad[0, 0] = 0.9
    with pytest.raises(ValueError):
        project_rows(amps, 2, bad, (0, 1))
    with pytest.raises(ValueError):
        project_rows(amps, 2, np.eye(4, dtype=complex), (1, 1))
    with pytest.raises(ValueError):
        project_rows(amps, 2, np.eye(4, dtype=complex), (0, 2))


def test_measure_eigenstate_is_deterministic_and_stable(conv):
    state = prepare_pairs(2, [(0, 1, conv.states["01"])])
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
    proj, probs = project_rows(state[None], 4, conv.basis_matrix, (0, 2))
    live = np.flatnonzero(probs[0] >= 1e-12)
    collapsed = collapse_rows(4, conv.basis_matrix, (0, 2), proj, probs, live)
    for k, after in zip(live, collapsed):
        assert abs(probs[0, k] - oracle_pair_probs(state, conv.basis_matrix, (0, 2))[k]) < 1e-12
        assert abs(np.linalg.norm(after) - 1.0) < 1e-12


def test_collapse_onto_zero_weight_is_degenerate(conv):
    # Collapsing onto an outcome with no weight cannot give a unit state.
    state = prepare_pairs(2, [(0, 1, conv.states["00"])])
    proj, probs = project_rows(state[None], 2, conv.basis_matrix, (0, 1))
    assert probs[0, 3] == 0.0
    with np.errstate(divide="ignore", invalid="ignore"), pytest.raises(ValueError, match="not 1"):
        collapse_rows(2, conv.basis_matrix, (0, 1), proj, probs, np.array([3]))


def test_live_outcomes_match_probabilities_and_collapse(conv):
    rng = np.random.default_rng(41)
    basis = conv.basis_matrix
    for n in (6, 8):
        state = random_state(rng, n)
        tensor = state.reshape((1,) + (2,) * n)
        for pair in ((0, 1), (1, 0), (2, n - 1), (n - 1, 3)):
            proj, probs = project_rows(state[None], n, basis, pair)
            live = np.flatnonzero(probs[0] > 1e-9)
            by_index = oracle_pair_probs(state, basis, pair)
            assert live.tolist() == [k for k in range(4) if by_index[k] > 1e-9]
            collapsed = collapse_rows(n, basis, pair, proj, probs, live)
            want_proj, want_probs = oracle.project(tensor, basis, pair)
            for k, after in zip(live, collapsed):
                assert abs(probs[0, k] - by_index[k]) < 1e-12
                want = oracle.collapse(n, basis, pair, want_proj, want_probs, np.array([k]))
                for expected in (want.reshape(-1), oracle_collapse(state, basis, pair, k)):
                    assert np.allclose(after, expected, rtol=0.0, atol=1e-12)


def test_live_outcomes_skip_zero_weight(conv):
    state = prepare_pairs(4, [(0, 1, conv.states["10"]), (2, 3, conv.states["00"])])
    proj, probs = project_rows(state[None], 4, conv.basis_matrix, (0, 1))
    live = np.flatnonzero(probs[0] > 1e-9)
    assert [(int(k), round(float(probs[0, k]), 12)) for k in live] == [(2, 1.0)]
    after = collapse_rows(4, conv.basis_matrix, (0, 1), proj, probs, live)[0]
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
    rotated = gate_rows(amps, 8, gates, 5, choice)
    want = oracle.gate(tensor, np.array(gates)[choice], 5)
    assert np.array_equal(rotated, want.reshape(5, -1))
    proj, probs = project_rows(amps, 8, basis, (6, 2))
    want_proj, want_probs = oracle.project(tensor, basis, (6, 2))
    assert np.array_equal(proj, want_proj)
    assert np.array_equal(probs, want_probs)
    rows, outcomes = np.array([0, 2, 4, 4]), np.array([3, 0, 1, 2])
    collapsed = collapse_rows(8, basis, (6, 2), proj, probs, 4 * rows + outcomes)
    want = oracle.collapse(8, basis, (6, 2), want_proj[rows], want_probs[rows], outcomes)
    assert np.array_equal(collapsed, want.reshape(len(rows), -1))


def test_collapse_rows_checks_every_norm(conv):
    rng = np.random.default_rng(44)
    basis = conv.basis_matrix
    amps = np.stack([random_state(rng, 4) for _ in range(3)])
    proj, probs = qstate.project_rows(amps, 4, basis, (0, 1))
    picks = np.array([0, 5, 10])  # row b after outcome b
    qstate.collapse_rows(4, basis, (0, 1), proj, probs, picks)
    wrong = probs.copy()
    wrong[1, 1] *= 2.0
    with pytest.raises(ValueError, match="not 1 within"):
        qstate.collapse_rows(4, basis, (0, 1), proj, wrong, picks)
    broken = proj.copy()
    broken[2, 2, 0] = np.nan
    with pytest.raises(ValueError, match="not 1 within"):
        qstate.collapse_rows(4, basis, (0, 1), broken, probs, picks)


# --- randomness -------------------------------------------------------------


def test_random_source_is_reproducible():
    a = RandomSource(123456789)
    b = RandomSource(123456789)
    assert [a.uniform() for _ in range(20)] == [b.uniform() for _ in range(20)]


def test_random_source_masks_to_64_bits():
    assert RandomSource(2**64 + 5).seed == 5


def test_distribution_pick_boundaries():
    probs = np.array([0.25, 0.25, 0.25, 0.25])
    assert qstate.Distribution(probs).pick(0.0) == 0
    assert qstate.Distribution(probs).pick(0.999999) == 3
    # rounding gap above the last bucket falls back to the last live outcome
    assert qstate.Distribution(np.array([1.0, 0.0, 0.0, 0.0])).pick(0.9999999999) == 0


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
    (batched,) = qstate.random_sources([seed])
    assert batched.seed == RandomSource(seed).seed == seed % 2**64
    assert draws(RandomSource(seed)) == draws(batched) == numpy_stream(seed)


def test_batched_sources_are_numpy_pcg64_over_splitmix_seeds():
    seeds = [splitmix64(2024, i) for i in range(10_000)]
    for seed, batched in zip(seeds, qstate.random_sources(seeds), strict=True):
        assert draws(batched) == numpy_stream(seed)


@pytest.mark.parametrize(
    "size", [0, 1, qstate.SEED_CHUNK - 1, qstate.SEED_CHUNK, qstate.SEED_CHUNK + 1]
)
def test_a_batch_equals_its_seeds_one_at_a_time(size):
    seeds = [splitmix64(2024, i) for i in range(size)]
    batch = list(qstate.random_sources(iter(seeds)))
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
    """A full tree over ``levels`` whose leaf is the path of picks that reaches it."""
    if len(prefix) == len(levels):
        return prefix
    probs = levels[len(prefix)]
    return qstate.Distribution(probs, [pick_tree(levels, prefix + (k,)) for k in range(len(probs))])


@pytest.mark.parametrize("depth", range(1, len(DESCENT_LEVELS) + 1))
@pytest.mark.parametrize("seed", STREAM_SEEDS)
def test_descent_consumes_the_stream_as_uniform_does(seed, depth):
    levels = DESCENT_LEVELS[:depth]
    root, stream = pick_tree(levels), numpy_stream(seed)
    rng, twin = RandomSource(seed), RandomSource(seed)
    used = 0
    while used + depth < DRAWS:
        # One uniform per level, picked as Distribution.pick picks it.
        assert rng.descend(root) == tuple(
            qstate.Distribution(probs).pick(twin.uniform()) for probs in levels
        )
        used += depth
        assert rng.uniform() == twin.uniform() == stream[used]
        used += 1


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
    dist = qstate.Distribution(probs)
    assert dist == probs
    assert dist.pick(u) == loop_pick(probs, u) == want
    assert qstate.Distribution(np.array(probs)).pick(u) == want
