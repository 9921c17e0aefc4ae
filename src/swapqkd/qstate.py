"""Exact statevector simulation for registers of up to eight qubits.

Conventions, fixed once for the whole package:

* Amplitude indexing: qubit ``q`` occupies bit ``q`` of the basis-state
  index, i.e. qubit 0 is the least significant bit.
* Pair addressing: operations on a qubit pair ``(i, j)`` index the four
  two-qubit amplitudes as ``2 * bit_i + bit_j`` — the first-listed qubit
  is the high bit of the pair index.

States are dense complex128 vectors; at 8 qubits (256 amplitudes) there is
no reason for anything cleverer.  A batch holds one state per row, its
amplitudes indexed by its qubits in some order, most significant first;
:func:`prepare_pairs` gives the canonical order, highest qubit first.
:func:`to_front` lays a batch out for one step, the step's qubits first, and
three batch kernels compute the step's gates, projections and collapses in
that layout and leave their results in it.  The caller carries each batch's
order.  All operations are pure: they return new arrays and never mutate
their inputs.

Monte Carlo reads numpy's PCG64 stream, seeded a chunk of seeds at a time, and walks a
round's :class:`CompiledTree`, one row per node, whose ``leaves`` and ``levels`` say where
and after how many skipped draws a walk ends: :func:`descend_streams` walks one round on
each stream with Python ints, over the tree's ``rows`` (its thresholds and children as
lists), and :meth:`CompiledTree.descend` walks a grid of uniforms that :class:`RandomLanes`
draws as uint64 lanes.
"""

from __future__ import annotations

import functools
from bisect import bisect_right
from itertools import accumulate
from typing import Sequence

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
# bases are long-lived, read-only module- or convention-level constants, so
# caching their (expensive) unitarity/orthonormality checks takes them off the
# per-measurement hot path.  Only a read-only array that owns its data is
# remembered, since a read-only view changes with its base; any other array is
# checked on every call, and no array's flags are changed.  Values hold strong
# references to keep ids stable.
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


def to_front(
    amps: np.ndarray, order: tuple[int, ...], qubits: Sequence[int]
) -> tuple[np.ndarray, tuple[int, ...]]:
    """A batch laid out for one step on ``qubits``, as ``(front, order)``.

    ``amps`` holds one state per row, its amplitudes indexed by the qubits of
    ``order``, the first most significant; a :func:`prepare_pairs` state is in
    the canonical order ``(n - 1, ..., 0)``.  ``front`` is ``(rows,
    2**len(qubits), rest)``: the middle index is ``2 * bit_first + bit_second``
    for a pair, and ``rest`` runs over the other qubits in descending order,
    whatever order ``amps`` held.  The returned order is ``qubits`` and then
    that rest.  Raises ValueError on a repeated or out-of-range qubit.
    """
    qubits, n = tuple(qubits), len(order)
    for k, q in enumerate(qubits):
        if not 0 <= q < n:
            raise ValueError(f"qubit {q} out of range for {n}-qubit state")
        if q in qubits[:k]:
            raise ValueError(f"qubit {q} is repeated in {qubits}")
    front = qubits + tuple(q for q in range(n - 1, -1, -1) if q not in qubits)
    axes = (0,) + tuple(1 + order.index(q) for q in front)
    arr = amps.reshape((len(amps),) + (2,) * n).transpose(axes)
    return arr.reshape(len(amps), 2 ** len(qubits), -1), front


def _check_gate(gate_matrix: np.ndarray) -> np.ndarray:
    matrix = np.asarray(gate_matrix, dtype=complex)
    frozen = not matrix.flags.writeable and matrix.flags.owndata
    if frozen and id(matrix) in _KNOWN_GOOD_GATES:
        return matrix
    if not is_unitary(matrix):
        raise ValueError("gate is not unitary within 1e-12")
    if frozen:
        if len(_KNOWN_GOOD_GATES) > 1024:
            _KNOWN_GOOD_GATES.clear()
        _KNOWN_GOOD_GATES[id(matrix)] = matrix
    return matrix


def _check_basis(basis: np.ndarray) -> np.ndarray:
    basis = np.asarray(basis, dtype=complex)
    frozen = not basis.flags.writeable and basis.flags.owndata
    if frozen and id(basis) in _KNOWN_GOOD_BASES:
        return basis
    if basis.shape != (4, 4):
        raise ValueError("basis must be four two-qubit states (a 4x4 array of rows)")
    if not np.abs(basis @ basis.conj().T - np.eye(4)).max() <= ATOL_MEASURE:
        raise ValueError("basis states are not orthonormal within 1e-10")
    if frozen:
        if len(_KNOWN_GOOD_BASES) > 1024:
            _KNOWN_GOOD_BASES.clear()
        _KNOWN_GOOD_BASES[id(basis)] = basis
    return basis


# --- batch kernels ----------------------------------------------------------
#
# A batch is one pure state per row, laid out by :func:`to_front` for the step
# at hand.  These three kernels are the only place gates, projections and
# collapses are computed; each leaves its result in the layout it was given.


def gate_rows(
    front: np.ndarray, gates: tuple[np.ndarray, ...], choice: np.ndarray | None = None
) -> np.ndarray:
    """Apply a single-qubit unitary to the front qubit of every row of a ``(rows, 2,
    rest)`` batch, and return the batch in that layout.

    Row b gets ``gates[choice[b]]``, or ``gates[0]`` for every row when
    ``choice`` is None.  Every gate is checked for unitarity.
    """
    checked = [_check_gate(g) for g in gates]
    matrix = checked[0] if choice is None else np.array(checked)[choice]
    return matrix @ front


def project_rows(front: np.ndarray, basis: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Project the front pair of every row of a ``(rows, 4, rest)`` batch onto every
    basis state at once.

    ``basis`` is a 4x4 array whose rows are orthonormal two-qubit states in
    the pair-index convention.  Returns ``(proj, probs)``: ``proj[b, k]`` is
    the rest of row b's register given outcome k (unnormalized), and
    ``probs[b, k]`` its Born probability.  Raises ValueError if a probability
    is not finite.
    """
    basis = _check_basis(basis)
    proj = basis.conj() @ front
    probs = np.einsum("bkr,bkr->bk", proj, proj.conj()).real
    if not np.isfinite(probs).all():
        raise ValueError("outcome probabilities are not finite (a non-finite amplitude)")
    return proj, probs


def collapse_rows(
    basis: np.ndarray, proj: np.ndarray, probs: np.ndarray, picks: np.ndarray
) -> np.ndarray:
    """States after a :func:`project_rows` call, renormalized, as a ``(len(picks), 4,
    rest)`` batch in the layout that call was given.

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
    return mat


# --- randomness ---------------------------------------------------------------
#
# numpy's ``Generator(PCG64(seed)).random()`` stream, seeded the way numpy's
# SeedSequence (a four-word pool) and PCG64's set-seq init seed it.

_MASK32, _MASK53, _MASK64, _MASK128 = ((1 << n) - 1 for n in (32, 53, 64, 128))
_PCG64_MULT = 0x2360ED051FC65DA44385DF649FCCF645
SEED_CHUNK = 1024  # seeds its callers pass to one :func:`descend_streams` or :class:`RandomLanes`


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


@functools.lru_cache(maxsize=64)
def _jump(levels: int) -> tuple[int, int]:
    """``(MULT**levels, MULT**0 + ... + MULT**(levels - 1))`` mod 2**128, as ``(mult, add)``:
    ``levels`` LCG steps ``state -> state * MULT + inc`` compose to ``state * mult + inc * add``,
    so the stream ends where ``levels`` draws leave it."""
    add = sum(pow(_PCG64_MULT, j, 1 << 128) for j in range(levels)) & _MASK128
    return pow(_PCG64_MULT, levels, 1 << 128), add


# --- streams and lanes --------------------------------------------------------
#
# Many streams are seeded at once, one lane per seed: a lane's 128-bit state and
# increment are uint64 (high, low) word arrays.  Every operand is uint64, since numpy
# 1.x promotes uint64 mixed with int64 to float64, and a 64 x 64-bit product's high
# word is built from 32-bit limbs.  :func:`descend_streams` steps each lane's stream
# with Python ints; :class:`RandomLanes` steps all of them as arrays.

_SHIFT32, _LOW32 = np.uint64(32), np.uint64(_MASK32)
_MULT_WORDS = (np.uint64(_PCG64_MULT >> 64), np.uint64(_PCG64_MULT & _MASK64))


def _mul_high(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The high words of the 128-bit products ``a * b`` of uint64 arrays."""
    a_low, a_high = a & _LOW32, a >> _SHIFT32
    b_low, b_high = b & _LOW32, b >> _SHIFT32
    low, cross, cross2 = a_low * b_low, a_low * b_high, a_high * b_low
    carry = ((low >> _SHIFT32) + (cross & _LOW32) + (cross2 & _LOW32)) >> _SHIFT32
    return a_high * b_high + (cross >> _SHIFT32) + (cross2 >> _SHIFT32) + carry


def _mul128(a_high, a_low, b_high, b_low):
    """``a * b`` mod 2**128, as (high, low) words; uint64 arithmetic wraps mod 2**64."""
    return _mul_high(a_low, b_low) + a_low * b_high + a_high * b_low, a_low * b_low


def _add128(a_high, a_low, b_high, b_low):
    """``a + b`` mod 2**128, as (high, low) words."""
    low = a_low + b_low
    return a_high + b_high + (low < a_low), low


def _pcg64_init(seeds: np.ndarray) -> tuple[np.ndarray, ...]:
    """PCG64's set-seq init of each seed of a uint64 array, from one vectorized
    :func:`_seed_words` pass: an odd increment, then two LCG steps around the seed.  Returns
    the state's (high, low) words, then the increment's, as uint64 arrays; the state is that of
    ``np.random.PCG64(seed)``."""
    s_high, s_low, i_high, i_low = _seed_words(seeds)
    inc = ((i_high << np.uint64(1)) | (i_low >> np.uint64(63)),
           (i_low << np.uint64(1)) | np.uint64(1))
    return (*_add128(*_mul128(*_add128(*inc, s_high, s_low), *_MULT_WORDS), *inc), *inc)


def descend_streams(tree: CompiledTree, seeds: np.ndarray) -> tuple[list[int], list[float]]:
    """One walk down ``tree`` on each stream of a uint64 array of seeds, in order, as ``(rows,
    uniforms)``: the row each walk ends at and the uniform its stream draws next.

    A stream is numpy's ``Generator(PCG64(seed)).random()``, seeded by :func:`_pcg64_init` and
    stepped with Python ints.  Each drawing row on the way draws the next uniform ``u`` and steps
    to the row of the slot ``u`` picks; the row that ends the walk steps the stream over its
    levels and one more draw at once.  So a stream is consumed as one uniform per row and per
    level, then one more, and steps where :meth:`CompiledTree.descend` steps.  Callers chunk long
    seed lists (``SEED_CHUNK`` per call).
    """
    (thresholds, children), jumps = tree.rows, tree.jumps
    mult, mask53, mask64, mask128 = _PCG64_MULT, _MASK53, _MASK64, _MASK128
    rows, uniforms = [], []
    for s_high, s_low, i_high, i_low in zip(*(w.tolist() for w in _pcg64_init(seeds))):
        state, inc, node = s_high << 64 | s_low, i_high << 64 | i_low, 0
        while (jump := jumps[node]) is None:
            state = (state * mult + inc) & mask128
            x = (state >> 64 ^ state) & mask64  # xor the halves; rotate right by the top 6 bits
            u = ((x << 64 | x) >> (11 + (state >> 122)) & mask53) * 2.0**-53
            node = children[node][bisect_right(thresholds[node], u)]
        state = (state * jump[0] + inc * jump[1]) & mask128
        x = (state >> 64 ^ state) & mask64
        rows.append(node)
        uniforms.append(((x << 64 | x) >> (11 + (state >> 122)) & mask53) * 2.0**-53)
    return rows, uniforms


@functools.lru_cache(maxsize=32)
def _jump_words(steps: int) -> tuple[np.ndarray, ...]:
    """The :func:`_jump` constants of 1, 2, ..., ``steps`` LCG steps, as uint64 rows
    ``(mult high, mult low, add high, add low)``."""
    jumps = map(_jump, range(1, steps + 1))
    words = [(mult >> 64, mult & _MASK64, add >> 64, add & _MASK64) for mult, add in jumps]
    return tuple(np.array(row, dtype=np.uint64) for row in zip(*words))


class RandomLanes:
    """numpy's ``Generator(PCG64(seed)).random()`` stream of each seed of a uint64 array, as
    lanes seeded in one :func:`_pcg64_init` pass.  :meth:`uniforms` draws over a grid: the next
    ``count`` draws of every lane at once, bit for bit."""

    __slots__ = ("_state", "_inc")

    def __init__(self, seeds: np.ndarray):
        s_high, s_low, i_high, i_low = _pcg64_init(seeds)
        self._state, self._inc = (s_high, s_low), (i_high, i_low)

    def __len__(self) -> int:
        return len(self._inc[1])

    def uniforms(self, count: int) -> np.ndarray:
        """The next ``count`` uniforms of every lane, as a ``(lanes, count)`` float64 grid.

        Draw j of a lane comes from ``state * MULT**(j+1) + inc * (MULT**0 + ... + MULT**j)``
        (mod 2**128), its state after j + 1 steps, by XSL-RR and the top 53 bits; each lane
        is left at its last draw's state.
        """
        mult_high, mult_low, add_high, add_low = _jump_words(count)
        s_high, s_low = (w[:, None] for w in self._state)
        i_high, i_low = (w[:, None] for w in self._inc)
        high, low = _add128(*_mul128(s_high, s_low, mult_high, mult_low),
                            *_mul128(i_high, i_low, add_high, add_low))
        self._state = (high[:, -1].copy(), low[:, -1].copy())
        # xor the halves; rotate right by the top 6 bits of the state.
        x, rot = high ^ low, high >> np.uint64(58)
        out = (x >> rot) | (x << ((np.uint64(64) - rot) & np.uint64(63)))
        return (out >> np.uint64(11)).astype(np.float64) * 2.0**-53

    def keep(self, mask: np.ndarray) -> None:
        """Drop every lane whose ``mask`` entry is False."""
        self._state = tuple(w[mask] for w in self._state)
        self._inc = tuple(w[mask] for w in self._inc)


class CompiledTree:
    """A round tree as arrays, one row per node, each row before its children; row 0 is the root.

    A row whose ``leaves`` entry is None draws one uniform ``u`` and steps to
    ``children[i, (thresholds[i] <= u).sum()]``: ``thresholds[i]`` are its outcome probabilities
    summed left to right, padded with +inf, and ``children[i]`` holds each outcome's row, then
    the gap slot's, for a ``u`` in the rounding gap above the last threshold, repeated to the
    width.  No uniform picks an outcome of probability 0, so its slot holds the gap slot's row.
    Any other row ends a walk at its leaf, after ``levels[i]`` more uniforms that the stream
    skips at once; its thresholds are all +inf and every slot is itself.  :func:`compile_tree`
    computes ``levels``: the draws below a row it folded, 0 for every other row.  ``draws`` is
    the uniforms every walk consumes, levels included, ``rows`` the thresholds and children as
    Python lists, and ``jumps`` per row None where it draws, or the :func:`_jump` over its levels
    and one more draw where it ends a walk, for :func:`descend_streams`.
    """

    __slots__ = ("thresholds", "children", "leaves", "levels", "draws", "rows", "jumps")

    def __init__(self, thresholds: np.ndarray, children: np.ndarray, leaves: tuple,
                 levels: tuple[int, ...], draws: int):
        thresholds.setflags(write=False)
        children.setflags(write=False)
        self.thresholds, self.children, self.leaves, self.levels, self.draws = (
            thresholds, children, leaves, levels, draws)
        self.rows = (thresholds.tolist(), children.tolist())
        self.jumps = tuple(None if leaf is None else _jump(level + 1)
                           for leaf, level in zip(leaves, levels))

    def descend(self, uniforms: np.ndarray) -> np.ndarray:
        """The row each walk ends at: a walk over ``uniforms[..., :draws]`` per leading index,
        level d reading ``uniforms[..., d]``, from the root."""
        node = np.zeros(uniforms.shape[:-1], dtype=np.intp)
        for level in range(self.draws):
            picks = (self.thresholds[node] <= uniforms[..., level, None]).sum(axis=-1)
            node = self.children[node, picks]
        return node


def compile_tree(probabilities: Sequence, children: Sequence[Sequence[int]], leaves: Sequence,
                 fold=None) -> CompiledTree:
    """The :class:`CompiledTree` of rows listed each before its children, row 0 the root.

    Row i draws over ``probabilities[i]``, outcome k leading to row ``children[i][k]``, when
    ``leaves[i]`` is None; otherwise it ends a walk at ``leaves[i]``.  A drawing row's thresholds
    are ``accumulate(max(p, 0))``, and its gap slot leads where its last outcome of positive
    probability does, outcome 0's when none has.  Raises ValueError unless every walk from the
    root draws the same number of uniforms, so that a lane's round t reads draws ``t * draws``
    to ``t * draws + draws - 1`` of its stream.

    With a ``fold`` key, a drawing row whose every slot ends a walk at a leaf of one
    ``fold(leaf)`` ends a walk itself, at the leaf of its lowest slot, with the draws below it as
    its levels; one pass in reverse sees every row after its children, so whole subtrees fold.
    """
    leaves = list(leaves)
    depths, sums, slots = [0] * len(leaves), [[] for _ in leaves], [[i] for i in range(len(leaves))]
    width = max((len(probabilities[i]) for i, leaf in enumerate(leaves) if leaf is None), default=0)
    for i in reversed(range(len(leaves))):
        if leaves[i] is None:
            live = [p > 0.0 for p in probabilities[i]]
            gap = children[i][max((k for k, alive in enumerate(live) if alive), default=0)]
            reached = [child if alive else gap for child, alive in zip(children[i], live)] + [gap]
            if min(reached) <= i:
                raise ValueError(f"row {i} leads to a row listed before it")
            below = {depths[k] for k in reached}
            if len(below) != 1:
                raise ValueError(f"walks below row {i} draw {sorted(below)} uniforms")
            depths[i] = 1 + below.pop()
            if (fold is not None and all(leaves[k] is not None for k in reached)
                    and len({fold(leaves[k]) for k in reached}) == 1):
                leaves[i] = leaves[min(reached)]
            else:
                slots[i] = reached
                sums[i] = list(accumulate(max(float(p), 0.0) for p in probabilities[i]))
    levels = tuple(depth if leaf is not None else 0 for depth, leaf in zip(depths, leaves))
    thresholds = np.array([row + [np.inf] * (width - len(row)) for row in sums])
    rows = np.array([row + row[-1:] * (width + 1 - len(row)) for row in slots], dtype=np.intp)
    return CompiledTree(thresholds, rows, tuple(leaves), levels, depths[0])
