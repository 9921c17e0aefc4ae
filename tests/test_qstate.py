import numpy as np
import pytest

from swapqkd import bell, qstate
from swapqkd.qstate import (
    GATES,
    DegenerateMeasurementError,
    RandomSource,
    StateVector,
    apply_gate,
    basis_probabilities,
    collapse_onto,
    init_basis_state,
    live_outcomes,
    measure_in_basis,
    prepare_pairs,
)

SQRT2_INV = 1.0 / np.sqrt(2.0)


# --- independent oracle -----------------------------------------------------
# Brute-force Born probabilities by explicit index bookkeeping, sharing no
# code with the reshape/transpose implementation under test.


def oracle_pair_probs(state: StateVector, basis: np.ndarray, pair) -> list[float]:
    n = state.num_qubits
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
                    amp += np.conj(basis[k][2 * bi + bj]) * state.amplitudes[idx]
            total += abs(amp) ** 2
        probs.append(total)
    return probs


def oracle_collapse(state: StateVector, basis: np.ndarray, pair, k: int) -> np.ndarray:
    """Amplitudes of (|b_k><b_k| on the pair) |state>, renormalized, index by index."""
    i, j = pair
    amps = state.amplitudes
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


def random_state(rng: np.random.Generator, n: int) -> StateVector:
    amps = rng.standard_normal(2**n) + 1j * rng.standard_normal(2**n)
    return StateVector(n, amps / np.linalg.norm(amps))


# --- construction -----------------------------------------------------------


def test_init_basis_state_single_qubit():
    state = init_basis_state(1, "0")
    assert np.allclose(state.amplitudes, [1, 0])


def test_init_basis_state_index_matches_bit_pattern():
    state = init_basis_state(2, "10")
    assert state.amplitudes[0b10] == 1.0
    assert np.count_nonzero(state.amplitudes) == 1


def test_init_basis_state_six_qubits_all_zero():
    state = init_basis_state(6, "000000")
    assert state.amplitudes[0] == 1.0
    assert len(state.amplitudes) == 64


@pytest.mark.parametrize("bits", ["0", "001", "02"])
def test_init_basis_state_rejects_bad_strings(bits):
    with pytest.raises(ValueError):
        init_basis_state(2, bits)


def test_state_vector_rejects_unnormalized_and_nonfinite():
    with pytest.raises(ValueError):
        StateVector(1, np.array([1.0, 1.0]))
    with pytest.raises(ValueError):
        StateVector(1, np.array([np.nan, 0.0]))
    with pytest.raises(ValueError):
        StateVector(2, np.array([1.0, 0.0]))


def test_state_vector_register_cap():
    with pytest.raises(ValueError):
        StateVector(9, np.zeros(512))


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
    assert np.allclose(state.amplitudes, expected, atol=1e-12)


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
    state = apply_gate(init_basis_state(1, "0"), GATES["S"], 0)
    assert np.allclose(state.amplitudes, [SQRT2_INV, SQRT2_INV])


def test_identity_gate_is_noop():
    rng = np.random.default_rng(1)
    state = random_state(rng, 3)
    out = apply_gate(state, GATES["I"], 1)
    assert np.allclose(out.amplitudes, state.amplitudes)


def test_s_on_acting_factor_of_label00_gives_01_plus_10(conv):
    # Two-qubit check of the defining rotation identity, in Bell labels.
    state = bell.bell_state(conv, "00")
    qubit = 0 if conv.acting_factor == "second" else 1  # pair (q1, q0)
    rotated = apply_gate(state, GATES["S"], qubit)
    target = StateVector(2, (conv.states["01"] + conv.states["10"]) / np.sqrt(2))
    assert rotated.equals_up_to_phase(target)


def test_z_on_acting_factor_of_plus_plus_gives_00_minus_11(conv):
    plus_plus = StateVector(2, (conv.states["01"] + conv.states["10"]) / np.sqrt(2))
    qubit = 0 if conv.acting_factor == "second" else 1
    flipped = apply_gate(plus_plus, GATES["Z"], qubit)
    target = StateVector(2, (conv.states["00"] - conv.states["11"]) / np.sqrt(2))
    assert flipped.equals_up_to_phase(target)


def test_apply_gate_rejects_bad_input():
    state = init_basis_state(2, "00")
    with pytest.raises(ValueError):
        apply_gate(state, GATES["X"], 2)
    with pytest.raises(ValueError):
        apply_gate(state, np.array([[1, 1], [0, 1]], dtype=complex), 0)


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
        out = apply_gate(state, GATES[name], int(rng.integers(n)))
        assert abs(np.linalg.norm(out.amplitudes) - 1.0) < 1e-12


# --- measurement ------------------------------------------------------------


def test_basis_probabilities_on_eigenstate(conv):
    state = prepare_pairs(2, [(0, 1, conv.states["10"])])
    probs = basis_probabilities(state, conv.basis_matrix, (0, 1))
    assert np.allclose(probs, [0, 0, 1, 0], atol=1e-12)


def test_basis_probabilities_match_oracle_on_random_states(conv):
    rng = np.random.default_rng(11)
    for _ in range(25):
        n = int(rng.integers(2, 7))
        state = random_state(rng, n)
        qubits = rng.choice(n, size=2, replace=False)
        pair = (int(qubits[0]), int(qubits[1]))
        probs = basis_probabilities(state, conv.basis_matrix, pair)
        assert np.allclose(probs, oracle_pair_probs(state, conv.basis_matrix, pair), atol=1e-10)
        assert abs(probs.sum() - 1.0) < 1e-10


def test_basis_probabilities_uniform_on_swapped_pair(conv):
    # One qubit from each of two independent pairs is maximally mixed.
    vec = conv.states["00"]
    state = prepare_pairs(4, [(0, 1, vec), (2, 3, vec)])
    probs = basis_probabilities(state, conv.basis_matrix, (0, 2))
    oracle = oracle_pair_probs(state, conv.basis_matrix, (0, 2))
    assert np.allclose(oracle, 0.25, atol=1e-12)
    assert np.allclose(probs, 0.25, atol=1e-10)


def test_six_qubit_initial_state_key_pair_is_uniform(conv):
    # The full six-qubit starting state: pairs (1,2), (3,5), (4,6) in the
    # labeled-00 state; Bell-measuring qubits (1,3) is uniform over labels.
    vec = conv.states["00"]
    state = prepare_pairs(6, [(0, 1, vec), (2, 4, vec), (3, 5, vec)])
    pair = (0, 2)
    oracle = oracle_pair_probs(state, conv.basis_matrix, pair)
    assert np.allclose(oracle, 0.25, atol=1e-12)
    assert np.allclose(basis_probabilities(state, conv.basis_matrix, pair), 0.25, atol=1e-10)


def test_basis_probabilities_rejects_bad_basis_and_pair():
    state = init_basis_state(2, "00")
    bad = np.eye(4, dtype=complex)
    bad[0, 0] = 0.9
    with pytest.raises(ValueError):
        basis_probabilities(state, bad, (0, 1))
    with pytest.raises(ValueError):
        basis_probabilities(state, np.eye(4, dtype=complex), (1, 1))
    with pytest.raises(ValueError):
        basis_probabilities(state, np.eye(4, dtype=complex), (0, 2))


def test_measure_eigenstate_is_deterministic_and_stable(conv):
    state = prepare_pairs(2, [(0, 1, conv.states["01"])])
    for seed in range(5):
        outcome, collapsed = measure_in_basis(state, conv.basis_matrix, (0, 1), RandomSource(seed))
        assert outcome == 1
        assert collapsed.equals_up_to_phase(state)


def test_remeasurement_is_idempotent(conv):
    rng_states = np.random.default_rng(23)
    for trial in range(20):
        state = random_state(rng_states, 4)
        rng = RandomSource(trial)
        outcome, collapsed = measure_in_basis(state, conv.basis_matrix, (1, 3), rng)
        outcome2, collapsed2 = measure_in_basis(collapsed, conv.basis_matrix, (1, 3), rng)
        assert outcome2 == outcome
        assert abs(abs(np.vdot(collapsed.amplitudes, collapsed2.amplitudes)) - 1.0) < 1e-10


def test_measurement_is_bit_exact_deterministic(conv):
    state = random_state(np.random.default_rng(3), 5)
    a = measure_in_basis(state, conv.basis_matrix, (0, 4), RandomSource(99))
    b = measure_in_basis(state, conv.basis_matrix, (0, 4), RandomSource(99))
    assert a[0] == b[0]
    assert np.array_equal(a[1].amplitudes, b[1].amplitudes)


def test_collapse_onto_probability_and_norm(conv):
    state = random_state(np.random.default_rng(31), 4)
    probs = basis_probabilities(state, conv.basis_matrix, (0, 2))
    for k in range(4):
        if probs[k] < 1e-12:
            continue
        p, collapsed = collapse_onto(state, conv.basis_matrix, (0, 2), k)
        assert abs(p - probs[k]) < 1e-12
        assert abs(np.linalg.norm(collapsed.amplitudes) - 1.0) < 1e-12


def test_collapse_onto_zero_weight_is_degenerate(conv):
    state = prepare_pairs(2, [(0, 1, conv.states["00"])])
    with pytest.raises(DegenerateMeasurementError):
        collapse_onto(state, conv.basis_matrix, (0, 1), 3)


def test_live_outcomes_match_probabilities_and_collapse(conv):
    rng = np.random.default_rng(41)
    basis = conv.basis_matrix
    for n in (6, 8):
        state = random_state(rng, n)
        for pair in ((0, 1), (1, 0), (2, n - 1), (n - 1, 3)):
            probs = basis_probabilities(state, basis, pair)
            live = live_outcomes(state, basis, pair, 1e-9)
            assert [k for k, _p, _s in live] == [k for k in range(4) if probs[k] > 1e-9]
            for k, p, collapsed in live:
                want_p, want_state = collapse_onto(state, basis, pair, k)
                assert abs(p - want_p) < 1e-12
                assert abs(p - oracle_pair_probs(state, basis, pair)[k]) < 1e-12
                for want in (want_state.amplitudes, oracle_collapse(state, basis, pair, k)):
                    assert np.allclose(collapsed.amplitudes, want, rtol=0.0, atol=1e-12)


def test_live_outcomes_skip_zero_weight(conv):
    state = prepare_pairs(4, [(0, 1, conv.states["10"]), (2, 3, conv.states["00"])])
    live = live_outcomes(state, conv.basis_matrix, (0, 1), 1e-9)
    assert [(k, round(p, 12)) for k, p, _s in live] == [(2, 1.0)]
    assert live[0][2].equals_up_to_phase(state)


def test_batch_kernels_match_single_states(conv):
    # A batch row gets exactly what the same state gets as a batch of one.
    rng = np.random.default_rng(43)
    basis = conv.basis_matrix
    states = [random_state(rng, 8) for _ in range(5)]
    amps = np.stack([s.amplitudes for s in states])
    gates = (GATES["S"], GATES["Y"])
    choice = np.array([1, 0, 0, 1, 1])
    rotated = qstate.gate_rows(amps, 8, gates, 5, choice)
    for row, state, c in zip(rotated, states, choice):
        assert np.array_equal(row, apply_gate(state, gates[c], 5).amplitudes)
    proj, probs = qstate.project_rows(amps, 8, basis, (6, 2))
    rows, outcomes = np.array([0, 2, 4, 4]), np.array([3, 0, 1, 2])
    collapsed = qstate.collapse_rows(8, basis, (6, 2), proj, probs, 4 * rows + outcomes)
    for b, state in enumerate(states):
        assert np.array_equal(probs[b], basis_probabilities(state, basis, (6, 2)))
    for row, b, k in zip(collapsed, rows, outcomes):
        live = {kk: after for kk, _p, after in live_outcomes(states[b], basis, (6, 2), 0.0)}
        assert np.array_equal(row, live[k].amplitudes)


def test_collapse_rows_checks_every_norm(conv):
    rng = np.random.default_rng(44)
    basis = conv.basis_matrix
    amps = np.stack([random_state(rng, 4).amplitudes for _ in range(3)])
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


def test_sample_index_boundaries():
    class FakeRng:
        def __init__(self, u):
            self.u = u

        def uniform(self):
            return self.u

    probs = np.array([0.25, 0.25, 0.25, 0.25])
    assert qstate.sample_index(probs, FakeRng(0.0)) == 0
    assert qstate.sample_index(probs, FakeRng(0.999999)) == 3
    # rounding gap above the last bucket falls back to the last live outcome
    assert qstate.sample_index(np.array([1.0, 0.0, 0.0, 0.0]), FakeRng(0.9999999999)) == 0
