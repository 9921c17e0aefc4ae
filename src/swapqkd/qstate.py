"""Exact statevector simulation for registers of up to eight qubits.

Conventions, fixed once for the whole package:

* Amplitude indexing: qubit ``q`` occupies bit ``q`` of the basis-state
  index, i.e. qubit 0 is the least significant bit.  The bit string passed
  to :func:`init_basis_state` reads like a binary literal (leftmost
  character is the highest-numbered qubit).
* Pair addressing: operations on a qubit pair ``(i, j)`` index the four
  two-qubit amplitudes as ``2 * bit_i + bit_j`` — the first-listed qubit
  is the high bit of the pair index.

States are dense complex128 vectors; at 8 qubits (256 amplitudes) there is
no reason for anything cleverer.  Gates, projections and collapses are
computed by three batch kernels over ``(rows, 2**n)`` arrays, one state per
row; the :class:`StateVector` functions are batches of one.  All operations
are pure: they return new arrays or instances and never mutate their inputs.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np

MAX_QUBITS = 8

# Tolerances: 1e-12 for algebraic identities (norms, unitarity), 1e-10 for
# composed or measured quantities (orthonormality of supplied bases,
# probability completeness).
ATOL_ALGEBRA = 1e-12
ATOL_MEASURE = 1e-10

# Probability floor below which a measurement outcome is treated as
# unreachable; for valid normalized inputs at least one outcome always
# clears it by a huge margin.
DEGENERACY_FLOOR = 1e-14

_SQRT2_INV = 1.0 / np.sqrt(2.0)

# Single-qubit gate library.  "S" is the protocol's basis-change gate (the
# Hadamard matrix); two-letter names are matrix products applied right to
# left, e.g. "XS" means: apply S, then X.
GATES: dict[str, np.ndarray] = {
    "I": np.eye(2, dtype=complex),
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "Z": np.array([[1, 0], [0, -1]], dtype=complex),
    "S": np.array([[1, 1], [1, -1]], dtype=complex) * _SQRT2_INV,
}
for _m in GATES.values():
    _m.setflags(write=False)


class DegenerateMeasurementError(RuntimeError):
    """All outcome probabilities vanished; impossible for valid input."""


@functools.cache
def gate(name: str) -> np.ndarray:
    """One read-only array per gate name; compound names compose right to left."""
    if name in GATES:
        return GATES[name]
    if name and all(c in GATES for c in name):
        out = np.eye(2, dtype=complex)
        for c in name:
            out = out @ GATES[c]
        out.setflags(write=False)
        return out
    raise ValueError(f"unknown gate name {name!r}")


def is_unitary(matrix: np.ndarray, atol: float = ATOL_ALGEBRA) -> bool:
    matrix = np.asarray(matrix, dtype=complex)
    if matrix.shape != (2, 2):
        return False
    # A NaN entry makes the maximum NaN, which fails the comparison.
    return bool(np.abs(matrix @ matrix.conj().T - np.eye(2)).max() <= atol)


# Validation memo keyed by array identity: gate matrices and measurement
# bases are long-lived module- or convention-level constants, so caching
# their (expensive) unitarity/orthonormality checks takes them off the
# per-measurement hot path.  Values hold strong references to keep ids
# stable.
_KNOWN_GOOD_GATES: dict[int, np.ndarray] = {}
_KNOWN_GOOD_BASES: dict[int, np.ndarray] = {}


@dataclass(frozen=True)
class StateVector:
    """Normalized pure state of ``num_qubits`` qubits.

    ``amplitudes`` has length ``2**num_qubits`` and unit L2 norm within
    1e-12; both are validated on construction.
    """

    num_qubits: int
    amplitudes: np.ndarray = field(repr=False)

    def __post_init__(self) -> None:
        if not 1 <= self.num_qubits <= MAX_QUBITS:
            raise ValueError(f"num_qubits must be in 1..{MAX_QUBITS}, got {self.num_qubits}")
        amps = np.asarray(self.amplitudes, dtype=complex)
        if amps.shape != (2**self.num_qubits,):
            raise ValueError(
                f"expected {2**self.num_qubits} amplitudes, got shape {amps.shape}"
            )
        # A non-finite amplitude makes the norm non-finite, so this one
        # check enforces both normalization and finiteness.
        norm = float(np.vdot(amps, amps).real) ** 0.5
        if not abs(norm - 1.0) <= ATOL_ALGEBRA:
            raise ValueError(
                f"state norm {norm!r} is not 1 within {ATOL_ALGEBRA} "
                "(non-finite amplitudes also land here)"
            )
        amps.setflags(write=False)
        object.__setattr__(self, "amplitudes", amps)

    def overlap(self, other: "StateVector") -> complex:
        """Inner product <self|other>."""
        return complex(np.vdot(self.amplitudes, other.amplitudes))

    def equals_up_to_phase(self, other: "StateVector", atol: float = ATOL_MEASURE) -> bool:
        """Ray equality: |<self|other>| == 1 within ``atol``."""
        return abs(abs(self.overlap(other)) - 1.0) <= atol


def init_basis_state(num_qubits: int, bits: str) -> StateVector:
    """Computational basis state |bits>, e.g. ``init_basis_state(2, "10")``."""
    if len(bits) != num_qubits:
        raise ValueError(f"bit string {bits!r} does not match num_qubits={num_qubits}")
    if any(c not in "01" for c in bits):
        raise ValueError(f"bit string {bits!r} must contain only 0 and 1")
    amps = np.zeros(2**num_qubits, dtype=complex)
    amps[int(bits, 2)] = 1.0
    return StateVector(num_qubits, amps)


def prepare_pairs(num_qubits: int, pairs: list[tuple[int, int, np.ndarray]]) -> StateVector:
    """Tensor product of two-qubit states placed on disjoint pairs.

    Each entry is ``(i, j, vec4)`` where ``vec4`` is indexed ``2*bit_i + bit_j``.
    Every qubit of the register must be covered by exactly one pair.
    """
    seen: set[int] = set()
    for i, j, _ in pairs:
        for q in (i, j):
            if not 0 <= q < num_qubits or q in seen:
                raise ValueError(f"pairs must partition 0..{num_qubits - 1}, bad qubit {q}")
            seen.add(q)
    if len(seen) != num_qubits:
        raise ValueError("pairs do not cover the whole register")

    # einsum: one axis letter per qubit, output axes ordered high qubit first
    # to match the amplitude-index convention.
    letters = "abcdefgh"
    subs, operands = [], []
    for i, j, vec in pairs:
        subs.append(letters[i] + letters[j])
        operands.append(np.asarray(vec, dtype=complex).reshape(2, 2))
    out = "".join(letters[q] for q in range(num_qubits - 1, -1, -1))
    amps = np.einsum(",".join(subs) + "->" + out, *operands).reshape(-1)
    return StateVector(num_qubits, amps)


# Memoized axis permutations of a ``(rows,) + (2,) * n`` amplitude batch
# that move the given qubits' axes to just after the row axis, and back;
# keyed by (n, qubits...).
_PERM_MEMO: dict[tuple[int, ...], tuple[tuple[int, ...], tuple[int, ...]]] = {}


def _front_perm(n: int, qubits: tuple[int, ...]) -> tuple[tuple[int, ...], tuple[int, ...]]:
    key = (n,) + qubits
    if key not in _PERM_MEMO:
        # qubit q is bit q of the index, i.e. axis n - q (axis 0 holds the rows)
        front = tuple(n - q for q in qubits)
        fwd = (0,) + front + tuple(k for k in range(1, n + 1) if k not in front)
        inv = [0] * (n + 1)
        for pos, ax in enumerate(fwd):
            inv[ax] = pos
        _PERM_MEMO[key] = (fwd, tuple(inv))
    return _PERM_MEMO[key]


def _to_front(amps: np.ndarray, n: int, qubits: tuple[int, ...]) -> np.ndarray:
    """View a ``(rows, 2**n)`` batch as ``(rows, 2**len(qubits), rest)``.

    The middle index is 2*bit_first + bit_second for a pair.
    """
    fwd, _ = _front_perm(n, qubits)
    arr = amps.reshape((len(amps),) + (2,) * n).transpose(fwd)
    return arr.reshape(len(amps), 2 ** len(qubits), -1)


def _from_front(mat: np.ndarray, n: int, qubits: tuple[int, ...]) -> np.ndarray:
    _, inv = _front_perm(n, qubits)
    return mat.reshape((len(mat),) + (2,) * n).transpose(inv).reshape(len(mat), -1)


def _check_qubit(num_qubits: int, qubit: int) -> None:
    if not 0 <= qubit < num_qubits:
        raise ValueError(f"qubit {qubit} out of range for {num_qubits}-qubit state")


def _check_pair(num_qubits: int, pair: tuple[int, int]) -> None:
    i, j = pair
    if i == j:
        raise ValueError("pair indices must be distinct")
    for q in (i, j):
        _check_qubit(num_qubits, q)


def _check_gate(gate_matrix: np.ndarray) -> np.ndarray:
    matrix = np.asarray(gate_matrix, dtype=complex)
    if id(matrix) in _KNOWN_GOOD_GATES:
        return matrix
    if not is_unitary(matrix):
        raise ValueError("gate is not unitary within 1e-12")
    matrix.setflags(write=False)
    if len(_KNOWN_GOOD_GATES) > 1024:
        _KNOWN_GOOD_GATES.clear()
    _KNOWN_GOOD_GATES[id(matrix)] = matrix
    return matrix


def _check_basis(basis: np.ndarray) -> np.ndarray:
    basis = np.asarray(basis, dtype=complex)
    if id(basis) in _KNOWN_GOOD_BASES:
        return basis
    if basis.shape != (4, 4):
        raise ValueError("basis must be four two-qubit states (a 4x4 array of rows)")
    if not np.abs(basis @ basis.conj().T - np.eye(4)).max() <= ATOL_MEASURE:
        raise ValueError("basis states are not orthonormal within 1e-10")
    basis.setflags(write=False)
    if len(_KNOWN_GOOD_BASES) > 1024:
        _KNOWN_GOOD_BASES.clear()
    _KNOWN_GOOD_BASES[id(basis)] = basis
    return basis


# --- batch kernels ----------------------------------------------------------
#
# A batch is a ``(rows, 2**n)`` complex array, one pure state per row.  These
# three kernels are the only place gates, projections and collapses are
# computed; the single-state functions below are batches of one.


def gate_rows(
    amps: np.ndarray, num_qubits: int, gates: tuple[np.ndarray, ...], qubit: int,
    choice: np.ndarray | None = None,
) -> np.ndarray:
    """Apply a single-qubit unitary to one qubit of every row of a batch.

    Row b gets ``gates[choice[b]]``, or ``gates[0]`` for every row when
    ``choice`` is None.  Every gate is checked for unitarity.
    """
    _check_qubit(num_qubits, qubit)
    checked = [_check_gate(g) for g in gates]
    matrix = checked[0] if choice is None else np.array(checked)[choice]
    return _from_front(matrix @ _to_front(amps, num_qubits, (qubit,)), num_qubits, (qubit,))


def project_rows(
    amps: np.ndarray, num_qubits: int, basis: np.ndarray, pair: tuple[int, int]
) -> tuple[np.ndarray, np.ndarray]:
    """Project the pair of every row onto every basis state at once.

    ``basis`` is a 4x4 array whose rows are orthonormal two-qubit states in
    the pair-index convention.  Returns ``(proj, probs)``: ``proj[b, k]`` is
    the rest of row b's register given outcome k (unnormalized), and
    ``probs[b, k]`` its Born probability.
    """
    _check_pair(num_qubits, pair)
    basis = _check_basis(basis)
    proj = basis.conj() @ _to_front(amps, num_qubits, pair)
    return proj, np.einsum("bkr,bkr->bk", proj, proj.conj()).real


def collapse_rows(
    num_qubits: int, basis: np.ndarray, pair: tuple[int, int],
    proj: np.ndarray, probs: np.ndarray, picks: np.ndarray,
) -> np.ndarray:
    """States after a :func:`project_rows` call, renormalized.

    ``picks`` index the flattened ``(rows, 4)`` outcome grid: pick
    ``4 * b + k`` is batch row b after outcome k, so
    ``np.flatnonzero(probs > floor)`` keeps every live outcome in (row,
    outcome) order.  Raises ValueError unless every resulting row has unit
    norm within 1e-12.
    """
    basis = _check_basis(basis)
    # outer(basis state, projection) / sqrt(p), in that order: normalizing
    # the projection first changes the last bits of later branch masses.
    # Dividing a complex number by a real one multiplies both of its parts by
    # the reciprocal, so scaling the real and imaginary parts in place gives
    # the same bits without a complex division.
    mat = basis[picks % 4, :, None] * proj.reshape(-1, 1, proj.shape[-1])[picks]
    parts = mat.view(np.float64).reshape(len(mat), 1, -1)  # real and imaginary parts
    parts *= 1.0 / np.sqrt(probs.reshape(-1, 1, 1)[picks])
    squared = parts @ parts.transpose(0, 2, 1)
    # |norm - 1| <= 1e-12 is |norm**2 - 1| <= 2e-12, up to 1e-24.
    deviation = np.abs(squared - 1.0)
    if len(mat) and not deviation.max() <= 2 * ATOL_ALGEBRA:
        bad = int(np.argmin(deviation <= 2 * ATOL_ALGEBRA))
        raise ValueError(
            f"state norm {float(np.sqrt(squared.flat[bad]))!r} is not 1 within {ATOL_ALGEBRA} "
            "(non-finite amplitudes also land here)"
        )
    return _from_front(mat, num_qubits, pair)


# --- single states ----------------------------------------------------------


def apply_gate(state: StateVector, gate_matrix: np.ndarray, qubit: int) -> StateVector:
    """Apply a single-qubit unitary to one tensor factor."""
    n = state.num_qubits
    return StateVector(n, gate_rows(state.amplitudes[None], n, (gate_matrix,), qubit)[0])


def _project(
    state: StateVector, basis: np.ndarray, pair: tuple[int, int]
) -> tuple[np.ndarray, np.ndarray]:
    return project_rows(state.amplitudes[None], state.num_qubits, basis, pair)


def _collapsed(
    state: StateVector, basis: np.ndarray, pair: tuple[int, int],
    proj: np.ndarray, probs: np.ndarray, outcomes: np.ndarray,
) -> list[StateVector]:
    """The state after each of ``outcomes`` of a :func:`_project` call."""
    collapsed = collapse_rows(state.num_qubits, basis, pair, proj, probs, outcomes)
    return [StateVector(state.num_qubits, amps) for amps in collapsed]


def basis_probabilities(
    state: StateVector, basis: np.ndarray, pair: tuple[int, int]
) -> np.ndarray:
    """Born probabilities of the four basis outcomes on the given pair.

    ``basis`` is a 4x4 array whose rows are orthonormal two-qubit states in
    the pair-index convention.  The result sums to 1 within 1e-10.
    """
    return _project(state, basis, pair)[1][0]


def collapse_onto(
    state: StateVector, basis: np.ndarray, pair: tuple[int, int], outcome: int
) -> tuple[float, StateVector]:
    """Project the pair onto one basis state and renormalize.

    Returns ``(probability, collapsed_state)``.  Raises
    :class:`DegenerateMeasurementError` if the outcome has no weight.
    """
    if not 0 <= outcome < 4:
        raise ValueError(f"outcome must be 0..3, got {outcome}")
    proj, probs = _project(state, basis, pair)
    prob = float(probs[0, outcome])
    if prob < DEGENERACY_FLOOR:
        raise DegenerateMeasurementError(
            f"outcome {outcome} has probability {prob:.3e}, below {DEGENERACY_FLOOR}"
        )
    return prob, _collapsed(state, basis, pair, proj, probs, np.array([outcome]))[0]


def live_outcomes(
    state: StateVector, basis: np.ndarray, pair: tuple[int, int], floor: float
) -> list[tuple[int, float, StateVector]]:
    """Every outcome of measuring the pair whose probability exceeds ``floor``.

    Projects once and returns ``(outcome, probability, collapsed_state)`` in
    outcome order.  Every collapsed state is norm-checked.
    """
    proj, probs = _project(state, basis, pair)
    live = np.flatnonzero(probs > floor)
    collapsed = _collapsed(state, basis, pair, proj, probs, live)
    return [(int(k), float(probs[0, k]), after) for k, after in zip(live, collapsed)]


class RandomSource:
    """Deterministic uniform stream: identical seed, identical stream.

    Backed by numpy's PCG64; the seed is reduced to 64 bits.
    """

    def __init__(self, seed: int):
        self.seed = int(seed) & 0xFFFFFFFFFFFFFFFF
        self._gen = np.random.Generator(np.random.PCG64(self.seed))

    def uniform(self) -> float:
        """Next uniform float in [0, 1)."""
        return float(self._gen.random())

    def __repr__(self) -> str:
        return f"RandomSource(seed={self.seed})"


def sample_index(probabilities: np.ndarray, rng: RandomSource) -> int:
    """Sample an index by inverse CDF; ties broken toward lower index."""
    u = rng.uniform()
    acc = 0.0
    last_live = 0
    for k, p in enumerate(probabilities):
        if p > 0.0:
            last_live = k
        acc += max(float(p), 0.0)
        if u < acc:
            return k
    return last_live  # u landed in the rounding gap above the last bucket


def measure_in_basis(
    state: StateVector, basis: np.ndarray, pair: tuple[int, int], rng: RandomSource
) -> tuple[int, StateVector]:
    """Projective measurement of a pair in an arbitrary orthonormal basis.

    Returns ``(outcome index 0..3, collapsed state)``; the outcome is sampled
    from the Born probabilities using ``rng``.
    """
    proj, probs = _project(state, basis, pair)
    if probs.max() < DEGENERACY_FLOOR:
        raise DegenerateMeasurementError("all four outcome probabilities are ~0")
    outcome = sample_index(probs[0], rng)
    return outcome, _collapsed(state, basis, pair, proj, probs, np.array([outcome]))[0]
