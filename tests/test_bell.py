import itertools
import time

import numpy as np
import pytest

from swapqkd import adversary, bell, protocol, qstate
from swapqkd.bell import (
    LABELS,
    BellConvention,
    all_conventions,
    convention_residuals,
    label_xor,
    xor_permutation,
)
from swapqkd.protocol import ConventionError, derive_swap_table
from swapqkd.qstate import GATES

import oracle
from streams import RandomSource


def reduced_single_qubit(amps: np.ndarray, keep_first: bool) -> np.ndarray:
    rho = np.outer(amps, amps.conj()).reshape(2, 2, 2, 2)
    # pair index 2*b_first + b_second: axis 0/2 is the first qubit
    return np.trace(rho, axis1=1, axis2=3) if keep_first else np.trace(rho, axis1=0, axis2=2)


def test_derivation_matches_frozen_convention():
    assert all_conventions()[0] == bell.FROZEN_CONVENTION


def test_derivation_enumeration_is_fast_and_exhaustive():
    start = time.monotonic()
    found = all_conventions()
    elapsed = time.monotonic() - start
    assert elapsed < 1.0
    assert len(found) == 64  # regression: count observed for this constraint set
    for conv in found:
        r1, r2 = convention_residuals(conv)
        assert r1 < 1e-10 and r2 < 1e-10


# --- loop oracle for the batched convention search ----------------------------


def oracle_conventions() -> list[tuple[BellConvention, float, float]]:
    """Every satisfying candidate with its residuals, scored one at a time."""
    found = []
    for perm in itertools.permutations(bell.BASE_ORDER):
        for signs in itertools.product((1, -1), repeat=4):
            states = [sign * bell.BASE_STATES[name] for name, sign in zip(perm, signs)]
            plus_plus = (states[1] + states[2]) / np.sqrt(2)
            target2 = (states[0] - states[3]) / np.sqrt(2)
            for factor in ("first", "second"):
                if factor == "first":
                    s_op, z_op = np.kron(GATES["S"], np.eye(2)), np.kron(GATES["Z"], np.eye(2))
                else:
                    s_op, z_op = np.kron(np.eye(2), GATES["S"]), np.kron(np.eye(2), GATES["Z"])
                r1 = abs(1.0 - abs(np.vdot(plus_plus, s_op @ states[0])))
                r2 = abs(1.0 - abs(np.vdot(target2, z_op @ plus_plus)))
                if r1 <= bell.CONSTRAINT_ATOL and r2 <= bell.CONSTRAINT_ATOL:
                    found.append((BellConvention(tuple(zip(perm, signs)), factor), r1, r2))
    return found


def test_batched_search_matches_loop_oracle():
    oracle = oracle_conventions()
    assert all_conventions() == [conv for conv, _r1, _r2 in oracle]
    for conv, r1, r2 in oracle:
        b1, b2 = convention_residuals(conv)
        assert abs(b1 - r1) <= 1e-15 and abs(b2 - r2) <= 1e-15


def test_residuals_of_frozen_convention(conv):
    r1, r2 = convention_residuals(conv)
    assert r1 < 1e-10
    assert r2 < 1e-10


def test_convention_basis_is_orthonormal(conv):
    gram = conv.basis_matrix @ conv.basis_matrix.conj().T
    assert np.allclose(gram, np.eye(4), atol=1e-12)


def test_bell_states_are_maximally_entangled(conv):
    for label in LABELS:
        amps = conv.states[label]
        for keep_first in (True, False):
            rho = reduced_single_qubit(amps, keep_first)
            assert np.allclose(rho, np.eye(2) / 2, atol=1e-12)


def test_bell_state_rejects_unknown_label(conv):
    assert list(conv.states) == list(LABELS)
    with pytest.raises(KeyError):
        conv.states["2"]


def test_convention_states_are_read_only():
    # Every plan's start reads the states by label: a write into the frozen convention's
    # cached mapping would change every later enumeration.
    states = bell.FROZEN_CONVENTION.states
    with pytest.raises(TypeError):
        states["00"] = states["01"]
    with pytest.raises(TypeError):
        states["2"] = states["00"]
    with pytest.raises(TypeError):
        del states["00"]
    assert list(states) == list(LABELS)


def _on_acting_factor(conv, matrix, pair_states):
    """``matrix`` on the acting factor of each row's pair; a pair is qubits (1, 0)."""
    qubit = 0 if conv.acting_factor == "second" else 1
    return oracle.gate(pair_states.reshape(-1, 2, 2), matrix, qubit).reshape(-1, 4)


def test_rotation_of_label00_expands_as_01_plus_10(conv):
    # Expansion coefficients of the rotated 00 state in the Bell basis.
    (rotated,) = _on_acting_factor(conv, GATES["S"], conv.states["00"])
    coeffs = conv.basis_matrix.conj() @ rotated
    phase = coeffs[1] / abs(coeffs[1])
    assert np.allclose(coeffs / phase, [0, 2**-0.5, 2**-0.5, 0], atol=1e-12)


def test_rotated_states_are_orthonormal(conv):
    stack = _on_acting_factor(conv, GATES["S"], conv.basis_matrix)
    assert np.allclose(stack @ stack.conj().T, np.eye(4), atol=1e-10)


def test_bell_measure_on_fresh_state_is_deterministic(conv):
    state = oracle.product_state(2, [(0, 1, conv.states["01"])]).reshape(-1)
    basis = conv.basis_matrix
    front, order = qstate.to_front(state[None], (1, 0), (0, 1))
    proj, probs = qstate.project_rows(front, basis)
    k = int(oracle.pick(probs[:1], np.array([RandomSource(0).uniform()]))[0])
    assert LABELS[k] == "01"
    collapsed = qstate.collapse_rows(basis, proj, probs, np.array([k]))
    collapsed, _ = qstate.to_front(collapsed, order, (1, 0))
    assert abs(abs(np.vdot(collapsed.reshape(-1), state)) - 1.0) <= 1e-10


def test_bell_measure_uniform_across_independent_pairs(conv):
    vec = conv.states["00"]
    state = oracle.product_state(4, [(0, 1, vec), (2, 3, vec)]).reshape(-1)
    front, _ = qstate.to_front(state[None], (3, 2, 1, 0), (0, 2))
    _proj, probs = qstate.project_rows(front, conv.basis_matrix)
    assert np.allclose(probs, 0.25, atol=1e-10)


# --- swap algebra -----------------------------------------------------------


def test_swap_table_is_total_uniform_and_bijective(conv):
    table = derive_swap_table(conv)
    assert len(table) == 64
    with pytest.raises(TypeError):
        table["00", "00", "00"] = "01"  # read-only
    for a in LABELS:
        for b in LABELS:
            images = [table[(a, b, m)] for m in LABELS]
            assert sorted(images) == sorted(LABELS)


def test_swap_table_xor_structure_finding(conv):
    # Property discovery, recorded as a regression: for this convention the
    # remainder label is exactly a xor b xor m (identity permutation).
    perm = xor_permutation(derive_swap_table(conv))
    assert perm == {lab: lab for lab in LABELS}


def _swap_table_oracle(conv):
    """Measure each two-pair state's (1,3) outcome, then Bell-measure the rest.

    Every state, projection and collapse comes from ``tests/oracle.py``.
    """
    basis = conv.basis_matrix
    entries = []
    for a, b in itertools.product(LABELS, repeat=2):
        state = oracle.product_state(4, [(0, 1, conv.states[a]), (2, 3, conv.states[b])])
        proj, probs = oracle.project(state, basis, (0, 2))
        for k in np.flatnonzero(probs[0] > 1e-9):
            after = oracle.collapse(4, basis, (0, 2), proj, probs, np.array([k]))
            (hit,) = np.nonzero(oracle.project(after, basis, (1, 3))[1][0] > 0.5)
            entries.append(((a, b, LABELS[k]), LABELS[int(hit[0])]))
    return tuple(entries)


def test_swap_table_matches_per_outcome_oracle():
    want = [_swap_table_oracle(candidate) for candidate in all_conventions()]
    got = [tuple(derive_swap_table(candidate).items()) for candidate in all_conventions()]
    assert got == want


def test_label_xor():
    assert label_xor("01", "10") == "11"
    assert label_xor("11", "11", "01") == "01"


def test_bad_convention_raises_on_swap_derivation():
    # A labeling that fails the defining constraints still yields a valid
    # orthonormal basis, so the swap table must still be derivable; a truly
    # broken "basis" is refused earlier, where basis_matrix builds it.
    conv_bad = BellConvention(
        assignment=(("phi+", 1), ("phi-", 1), ("psi+", 1), ("psi-", -1)),
        acting_factor="first",
    )
    table = derive_swap_table(conv_bad)
    assert len(table) == 64


def _derive_with_edited_masses(conv, edit):
    """derive_swap_table with ``edit(masses)`` applied to its family's outcome masses."""
    real = protocol.outcome_masses

    def outcome_masses(*args):
        masses = real(*args)
        edit(masses)
        return masses

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(protocol, "outcome_masses", outcome_masses)
        return derive_swap_table(conv)


def test_swap_derivation_rejects_malformed_outcomes(conv):
    # The family's masses are [cell, m, r]: one cell per (a, b), at 4 * a + b by LABELS
    # index, then the (1,3) outcome m and the remainder pair's Bell state r.  The edits go to
    # the masses: an edited projection would fail the norm check of the collapse after it.
    def skewed(masses):
        masses[5] = np.diag([0.5, 0.5, 0.0, 0.0])

    with pytest.raises(ConventionError, match=r"\(a=01, b=01\) are not uniform"):
        _derive_with_edited_masses(conv, skewed)

    def split(masses):
        masses[4 * 0 + 2, 3] = [0.125, 0.125, 0.0, 0.0]

    with pytest.raises(ConventionError, match=r"\(a=00, b=10, m=11\) is not a Bell state"):
        _derive_with_edited_masses(conv, split)

    def collapsed(masses):
        masses[1] = [[0.25, 0.0, 0.0, 0.0]] * 4

    with pytest.raises(ConventionError, match=r"\(a=00, b=01\) is not a bijection"):
        _derive_with_edited_masses(conv, collapsed)
    # Unedited, the same read passes.
    assert len(_derive_with_edited_masses(conv, lambda masses: None)) == 64


def test_swap_derivation_checks_state_norms(monkeypatch):
    monkeypatch.setitem(bell.BASE_STATES, "phi+", 2 * bell.BASE_STATES["phi+"])
    stretched = BellConvention(bell.FROZEN_CONVENTION.assignment, "second")
    with pytest.raises(ValueError, match="not orthonormal within 1e-10"):
        derive_swap_table(stretched)


def test_basis_matrix_refuses_a_basis_that_is_not_orthonormal(monkeypatch):
    # Every measurement reads basis_matrix, and it is checked once, as it is built.
    psi = bell.BASE_STATES["psi-"]
    for scale in (1 + 1e-12, -1.0):
        monkeypatch.setitem(bell.BASE_STATES, "psi-", scale * psi)
        BellConvention(bell.FROZEN_CONVENTION.assignment, "second").basis_matrix
    nan = psi.copy()
    nan[1] = np.nan
    for bad in (psi * (1 + 1e-9), psi + bell.BASE_STATES["psi+"] * 1e-9, nan):
        monkeypatch.setitem(bell.BASE_STATES, "psi-", bad)
        conv = BellConvention(bell.FROZEN_CONVENTION.assignment, "second")
        with pytest.raises(ValueError, match="not orthonormal within 1e-10"):
            conv.basis_matrix


def test_convention_arrays_are_built_on_first_read():
    conv = BellConvention(bell.FROZEN_CONVENTION.assignment, "second")
    assert "states" not in vars(conv) and "basis_matrix" not in vars(conv)
    assert conv.basis_matrix is conv.basis_matrix
    assert np.array_equal(conv.basis_matrix, bell.FROZEN_CONVENTION.basis_matrix)
    assert not conv.basis_matrix.flags.writeable
    assert not any(vec.flags.writeable for vec in conv.states.values())
    # The assignment is still checked on construction.
    for assignment in ((("phi+", 1),) * 3, (("phi+", 2),) * 4, (("chi", 1),) * 4):
        with pytest.raises(ValueError):
            BellConvention(assignment, "second")


def test_convention_labels_each_base_state_once():
    # A labeling names each canonical state once; one that repeats a state is no basis.
    frozen = bell.FROZEN_CONVENTION.assignment
    repeats = ((("phi+", 1),) * 4, frozen[:3] + (("phi+", -1),),
               frozen[:3] + (("psi-", 1), ("psi-", -1)))
    for assignment in repeats:
        with pytest.raises(ValueError, match="sign each of"):
            BellConvention(assignment, "second")
    with pytest.raises(ValueError, match="sign each of"):
        BellConvention(frozen[:3] + (("psi-", 0),), "second")
    flipped = BellConvention(frozen[::-1], "first")
    assert list(flipped.signed_states().values()) == ["+psi-", "+psi+", "+phi-", "+phi+"]


def test_convention_error_message():
    with pytest.raises(ConventionError):
        raise ConventionError("probe")


# --- convention invariance ---------------------------------------------------


def _strip_transformation(rows):
    return tuple(r[:6] + r[7:] for r in rows)


def test_outcome_tables_across_all_conventions():
    """Recorded finding: the published tables constrain beyond the equations.

    All 64 labelings satisfying the two defining identities fall into clean
    halves: those whose label-00 state lies on a ray preserved by the
    two-sided rotation (phi+ or psi-) reproduce both outcome tables'
    label columns; the others (label 00 on phi- or psi+) do not, because
    the narrative's claim about the post-measurement state of the
    undisturbed pair fails for them.  Among the reproducing half, exactly
    those with the published outcome-to-Pauli naming (I, Z, X, Y) match
    the attack table bit for bit.  The first convention in enumeration
    order, the frozen one, reproduces everything.
    """
    expected2_outcomes = _strip_transformation(adversary.EXPECTED_TABLE2)
    izxy = {"00": "I", "01": "Z", "10": "X", "11": "Y"}
    full_matches = 0
    for candidate in all_conventions():
        symmetric_ray = candidate.assignment[0][0] in ("phi+", "psi-")
        t1 = tuple(protocol.six_qubit_outcome_rows(candidate)) == protocol.EXPECTED_TABLE1
        rows2 = tuple(adversary.zlg_outcome_rows(candidate))
        t2_outcomes = _strip_transformation(rows2) == expected2_outcomes
        assert t1 == symmetric_ray
        assert t2_outcomes == symmetric_ray
        t2_full = rows2 == adversary.EXPECTED_TABLE2
        assert t2_full == (symmetric_ray and adversary.pauli_for_label(candidate) == izxy)
        full_matches += t2_full
    assert full_matches == 16
    assert tuple(adversary.zlg_outcome_rows(all_conventions()[0])) == adversary.EXPECTED_TABLE2
