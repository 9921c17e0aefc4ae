"""A plain-numpy statevector reference that shares no code with the engine.

A state batch is a ``(rows,) + (2,) * n`` complex tensor, one pure state per
row.  Qubit ``q`` (0-based) is bit ``q`` of a row's flat amplitude index, so
it lives on axis ``n - q``; a pair ``(i, j)`` indexes its four amplitudes as
``2 * bit_i + bit_j``.  Gates, projections and collapses are written here with
``np.moveaxis`` and matmul, never through ``swapqkd.qstate``, so a fault in
the engine's batch kernels shows up as a disagreement with this module.
Plans number their qubits from 1, as the protocol narrative does, and name
their gates, which :func:`gate_matrix` looks up in this module's own library.
"""

from functools import reduce

import numpy as np

from swapqkd.bell import LABELS
from swapqkd.protocol import PROB_CUTOFF, GateStep, MeasureStep


# The single-qubit gate library, written out again: "S" is the Hadamard matrix.
GATES = {
    "I": np.eye(2, dtype=complex),
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "Z": np.array([[1, 0], [0, -1]], dtype=complex),
    "S": np.array([[1, 1], [1, -1]], dtype=complex) * (1.0 / np.sqrt(2.0)),
}


def gate_matrix(name):
    """The matrix of a gate name; a compound name is a product applied right to left, so
    "XS" is S, then X, multiplied onto the identity letter by letter."""
    if name in GATES:
        return GATES[name]
    return reduce(np.matmul, (GATES[c] for c in name), np.eye(2, dtype=complex))


def pauli_for_label(conv):
    """Each label -> the first Pauli P, in I, X, Y, Z order, with ``|<label|(I x P)|00>| = 1``
    on ``conv.states``: the correction column's overlap check, with no enumeration."""
    images = {p: np.kron(GATES["I"], GATES[p]) @ conv.states["00"] for p in "IXYZ"}
    return {
        label: next(
            p for p, image in images.items()
            if abs(abs(np.vdot(conv.states[label], image)) - 1.0) <= 1e-10
        )
        for label in LABELS
    }


def _front(state, qubits):
    """``state`` as ``(rows, 2**len(qubits), rest)`` with the qubits' axes first."""
    n = state.ndim - 1
    axes = [n - q for q in qubits]
    moved = np.moveaxis(state, axes, range(1, len(axes) + 1))
    return moved.reshape(len(state), 2 ** len(axes), -1), axes


def _back(mat, n, axes):
    """Undo :func:`_front`."""
    return np.moveaxis(mat.reshape((len(mat),) + (2,) * n), range(1, len(axes) + 1), axes)


def product_state(num_qubits, pairs):
    """One row: each ``(i, j, vec4)`` of ``pairs`` puts qubits i and j in ``vec4``."""
    state, order = np.ones(1, dtype=complex), []
    for i, j, vec in pairs:
        state = np.multiply.outer(state, np.asarray(vec, dtype=complex).reshape(2, 2))
        order += [i, j]
    return np.moveaxis(state, range(1, len(order) + 1), [num_qubits - q for q in order])


def initial_state(conv, plan):
    """One row: every pair of ``plan`` in the labeled-00 state."""
    vec = conv.states["00"]
    return product_state(plan.num_qubits, [(i - 1, j - 1, vec) for i, j in plan.pairs])


def gate(state, matrix, qubit):
    """``matrix`` on ``qubit`` of every row: one ``(2, 2)`` for all, or one per row."""
    mat, axes = _front(state, (qubit,))
    return _back(matrix @ mat, state.ndim - 1, axes)


def project(state, basis, pair):
    """``(proj, probs)``: ``proj[b, k]`` is row b's rest after outcome k, unnormalized."""
    mat, _ = _front(state, pair)
    proj = basis.conj() @ mat
    return proj, np.einsum("bkr,bkr->bk", proj, proj.conj()).real


def collapse(num_qubits, basis, pair, proj, probs, outcomes):
    """Row b after outcome ``outcomes[b]``: outer(basis state, projection) / sqrt(p)."""
    rows = np.arange(len(proj))
    mat = basis[outcomes][:, :, None] * proj[rows, outcomes][:, None, :]
    mat = mat / np.sqrt(probs[rows, outcomes])[:, None, None]
    return _back(mat, num_qubits, [num_qubits - q for q in pair])


def walk(conv, plan):
    """Every branch ``(mass, outcomes)`` of a plan, depth first, one state at a time.

    This is the walk the engine's breadth-first enumeration replaced, with its
    arithmetic: a gate is ``matrix @ (2, rest)``, a measurement projects with
    ``basis.conj() @ (4, rest)`` and collapses as ``outer(basis[k],
    projection) / sqrt(p)``, so the engine's masses compare bit for bit.
    """
    n = plan.num_qubits
    basis = conv.basis_matrix
    branches = []

    def visit(state, idx, prob, outcomes):
        if idx == len(plan.steps):
            branches.append((prob, outcomes))
            return
        step = plan.steps[idx]
        if isinstance(step, MeasureStep):
            pair = (step.pair[0] - 1, step.pair[1] - 1)
            proj, probs = project(state, basis, pair)
            for k in range(4):
                if probs[0, k] > PROB_CUTOFF:
                    after = collapse(n, basis, pair, proj, probs, np.array([k]))
                    out = {**outcomes, step.name: LABELS[k]}
                    visit(after, idx + 1, prob * float(probs[0, k]), out)
            return
        if isinstance(step, GateStep):
            matrix = gate_matrix(step.gate)
        else:  # one gate per outcome, in LABELS order
            matrix = gate_matrix(step.gates[LABELS.index(outcomes[step.on])])
        visit(gate(state, matrix, step.qubit - 1), idx + 1, prob, outcomes)

    visit(initial_state(conv, plan), 0, 1.0, {})
    return branches


def pick(probs, uniforms):
    """Per row, the outcome uniform u picks, as a descent's threshold bisect picks it.

    The first k with ``u < cumsum(max(p, 0))[k]``, else the last k with p > 0.
    """
    hit = uniforms[:, None] < np.cumsum(np.maximum(probs, 0.0), axis=1)
    last_live = 3 - np.argmax(probs[:, ::-1] > 0.0, axis=1)
    return np.where(hit.any(axis=1), np.argmax(hit, axis=1), last_live)


def sample(conv, plan, uniforms):
    """Measurement outcomes of ``plan`` for each row of ``uniforms``, in lockstep.

    Row r of the ``(rows, measurements)`` uniforms is one round: its j-th
    measurement picks an outcome with column j.  Returns measurement name ->
    each row's outcome label.
    """
    n = plan.num_qubits
    basis = conv.basis_matrix
    state = np.repeat(initial_state(conv, plan), len(uniforms), axis=0)
    picked = {}
    draws = iter(uniforms.T)
    for step in plan.steps:
        if isinstance(step, MeasureStep):
            pair = (step.pair[0] - 1, step.pair[1] - 1)
            proj, probs = project(state, basis, pair)
            picked[step.name] = pick(probs, next(draws))
            state = collapse(n, basis, pair, proj, probs, picked[step.name])
        elif isinstance(step, GateStep):
            state = gate(state, gate_matrix(step.gate), step.qubit - 1)
        else:
            matrices = np.array([gate_matrix(name) for name in step.gates])
            state = gate(state, matrices[picked[step.on]], step.qubit - 1)
    return {name: [LABELS[k] for k in ks] for name, ks in picked.items()}
