"""Exact statevector simulation for registers of up to eight qubits.

Conventions, fixed once for the whole package:

* Amplitude indexing: qubit ``q`` occupies bit ``q`` of the basis-state
  index, i.e. qubit 0 is the least significant bit.
* Pair addressing: operations on a qubit pair ``(i, j)`` index the four
  two-qubit amplitudes as ``2 * bit_i + bit_j`` — the first-listed qubit
  is the high bit of the pair index.

States are dense complex128 vectors; at 8 qubits (256 amplitudes) there is
no reason for anything cleverer.  Gates, projections and collapses are
computed by three batch kernels over ``(rows, 2**n)`` arrays, one state per
row.  All operations are pure: they return new arrays and never mutate their
inputs.
"""

from __future__ import annotations

import functools
from bisect import bisect_right
from itertools import accumulate
from typing import Iterable, Iterator, Sequence

import numpy as np

MAX_QUBITS = 8

# Tolerances: 1e-12 for algebraic identities (norms, unitarity), 1e-10 for
# composed or measured quantities (orthonormality of supplied bases,
# probability completeness).
ATOL_ALGEBRA = 1e-12
ATOL_MEASURE = 1e-10

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


def prepare_pairs(num_qubits: int, pairs: list[tuple[int, int, np.ndarray]]) -> np.ndarray:
    """Tensor product of two-qubit states placed on disjoint pairs, as a read-only
    ``(2**num_qubits,)`` amplitude array.

    Each entry is ``(i, j, vec4)`` where ``vec4`` is indexed ``2*bit_i + bit_j``.
    ``num_qubits`` is in 1..MAX_QUBITS, every qubit of the register must be
    covered by exactly one pair, and the product must have unit norm within 1e-12.
    """
    if not 1 <= num_qubits <= MAX_QUBITS:
        raise ValueError(f"num_qubits must be in 1..{MAX_QUBITS}, got {num_qubits}")
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
        vec = np.asarray(vec, dtype=complex)
        if vec.shape != (4,):
            raise ValueError(f"a pair state has 4 amplitudes, got shape {vec.shape}")
        subs.append(letters[i] + letters[j])
        operands.append(vec.reshape(2, 2))
    out = "".join(letters[q] for q in range(num_qubits - 1, -1, -1))
    amps = np.einsum(",".join(subs) + "->" + out, *operands).reshape(-1)
    # A non-finite amplitude makes the norm non-finite, so this one check
    # enforces both normalization and finiteness.
    norm = float(np.vdot(amps, amps).real) ** 0.5
    if not abs(norm - 1.0) <= ATOL_ALGEBRA:
        raise ValueError(
            f"state norm {norm!r} is not 1 within {ATOL_ALGEBRA} "
            "(non-finite amplitudes also land here)"
        )
    amps.setflags(write=False)
    return amps


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
# computed.


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


# --- randomness ---------------------------------------------------------------
#
# numpy's ``Generator(PCG64(seed)).random()`` stream with Python ints, seeded the
# way numpy's SeedSequence (a four-word pool) and PCG64's set-seq init seed it.

_MASK32, _MASK53, _MASK64, _MASK128 = ((1 << n) - 1 for n in (32, 53, 64, 128))
_PCG64_MULT = 0x2360ED051FC65DA44385DF649FCCF645
SEED_CHUNK = 1024  # seeds its callers pass to one :func:`random_sources` call


def _hash_steps(const: int, mult: int, steps: int) -> list[tuple[int, int]]:
    """Each SeedSequence hash step xors a running constant and multiplies by the next."""
    out = []
    for _ in range(steps):
        out.append((const, const := const * mult & _MASK32))
    return out


_ENTROPY_STEPS = _hash_steps(0x43B0D7E5, 0x931E8875, 16)  # 4 pool words, then 12 mixes
_MIX_PAIRS = [(src, dst) for src in range(4) for dst in range(4) if src != dst]
_DRAW_STEPS = _hash_steps(0x8B51F9DD, 0x58F38DED, 8)


def _seed_words(seed):
    """``np.random.SeedSequence(seed).generate_state(4, np.uint64)``, elementwise.

    ``seed`` is a Python int in [0, 2**64) or a uint64 array; every product is
    masked to 32 bits, so both give the same words.
    """
    pool = []  # the seed's two 32-bit words are its entropy; a missing one hashes as 0
    for word, (xor, mul) in zip((seed & _MASK32, seed >> 32, 0, 0), _ENTROPY_STEPS):
        word = (word ^ xor) * mul & _MASK32
        pool.append(word ^ word >> 16)
    for (src, dst), (xor, mul) in zip(_MIX_PAIRS, _ENTROPY_STEPS[4:]):
        word = (pool[src] ^ xor) * mul & _MASK32
        word = (0xCA01F9DD * pool[dst] - 0x4973F715 * (word ^ word >> 16)) & _MASK32
        pool[dst] = word ^ word >> 16
    words = []
    for k, (xor, mul) in enumerate(_DRAW_STEPS):
        word = (pool[k % 4] ^ xor) * mul & _MASK32
        words.append(word ^ word >> 16)
    return [words[k] | words[k + 1] << 32 for k in (0, 2, 4, 6)]


class RandomSource:
    """Deterministic uniform stream: numpy's ``Generator(PCG64(seed)).random()`` bit
    for bit, the seed reduced to 64 bits, with no numpy generator built.  ``words``
    are the seed's :func:`_seed_words` when :func:`random_sources` has them."""

    __slots__ = ("seed", "_state", "_inc")

    def __init__(self, seed: int, words: Sequence[int] | None = None):
        self.seed = int(seed) & _MASK64
        s_high, s_low, i_high, i_low = _seed_words(self.seed) if words is None else words
        # PCG64's set-seq init: an odd increment, then two LCG steps around the seed.
        self._inc = ((i_high << 64 | i_low) << 1 | 1) & _MASK128
        self._state = ((self._inc + (s_high << 64 | s_low)) * _PCG64_MULT + self._inc) & _MASK128

    def uniform(self) -> float:
        """Next uniform float in [0, 1): the top 53 bits of the next XSL-RR output."""
        self._state = state = (self._state * _PCG64_MULT + self._inc) & _MASK128
        x = (state >> 64 ^ state) & _MASK64  # xor the halves; rotate right by the top 6 bits
        return ((x << 64 | x) >> (11 + (state >> 122)) & _MASK53) * 2.0**-53

    def descend(self, node: Distribution | Jump):
        """The leaf a walk down from ``node`` reaches: each :class:`Distribution` on the way
        draws the next uniform ``u`` and steps to ``node.children[node.pick(u)]``, and a
        :class:`Jump` steps the stream over its levels at once and ends at its leaf.

        :meth:`uniform` and the pick are inlined, and the gap slot of ``children`` stands
        in for ``last_live``, so this consumes the stream exactly as one :meth:`uniform`
        per node does and steps where ``pick`` would.
        """
        state, inc = self._state, self._inc
        while node.__class__ is Distribution:
            state = (state * _PCG64_MULT + inc) & _MASK128
            x = (state >> 64 ^ state) & _MASK64
            u = ((x << 64 | x) >> (11 + (state >> 122)) & _MASK53) * 2.0**-53
            node = node.children[bisect_right(node.thresholds, u)]
        if node.__class__ is Jump:
            state = (state * node.mult + inc * node.add) & _MASK128
            node = node.leaf
        self._state = state
        return node


def random_sources(seeds: np.ndarray) -> Iterator[RandomSource]:
    """``RandomSource(seed)`` for each seed of a uint64 array, in order, all seeded in
    one vectorized pass; callers chunk long seed lists (``SEED_CHUNK`` per call)."""
    for seed, *seed_words in zip(seeds.tolist(), *(w.tolist() for w in _seed_words(seeds))):
        yield RandomSource(seed, seed_words)


class Distribution(tuple):
    """Outcome probabilities; ``thresholds[k]`` is ``p_0 + ... + p_k`` summed left
    to right, a negative p counting as 0, and ``last_live`` the last k with p > 0.

    As a node of a tree that :meth:`RandomSource.descend` walks, ``children[k]`` is
    what outcome k leads to: another Distribution, a :class:`Jump`, or a leaf, which
    is anything else.
    One more slot, for a uniform in the rounding gap, repeats ``children[last_live]``.
    """

    def __new__(cls, probabilities: Iterable[float], children: Sequence = ()):
        self = super().__new__(cls, probabilities)
        self.thresholds = list(accumulate(max(float(p), 0.0) for p in self))
        self.last_live = max((k for k, p in enumerate(self) if p > 0.0), default=0)
        self.children = (*children, children[self.last_live]) if children else ()
        return self

    def pick(self, u: float) -> int:
        """The first index whose threshold exceeds ``u``; ``last_live`` when ``u``
        lands in the rounding gap above the last threshold."""
        k = bisect_right(self.thresholds, u)
        return k if k < len(self) else self.last_live


class Jump:
    """A subtree folded into one step: :meth:`RandomSource.descend` reaching it steps the
    stream over ``levels`` draws at once and returns ``leaf``.

    ``levels`` LCG steps ``state -> state * MULT + inc`` compose to ``state * mult + inc *
    add`` with ``mult = MULT**levels`` and ``add = MULT**0 + ... + MULT**(levels - 1)``,
    mod 2**128, so the stream ends where ``levels`` :meth:`RandomSource.uniform` calls
    leave it.
    """

    __slots__ = ("leaf", "levels", "mult", "add")

    def __init__(self, leaf, levels: int):
        self.leaf, self.levels = leaf, levels
        self.mult = pow(_PCG64_MULT, levels, 1 << 128)
        self.add = sum(pow(_PCG64_MULT, j, 1 << 128) for j in range(levels)) & _MASK128
