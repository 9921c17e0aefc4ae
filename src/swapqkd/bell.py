"""Bell-basis labeling convention.

The protocols label the four Bell states "00", "01", "10", "11" but never
write out which maximally entangled state each label means.  The labeling
is pinned down here by two published constraints:

* applying the basis-change gate S to one factor of the pair state
  labeled 00 must give (|01> + |10>)/sqrt(2) in Bell labels, and
* applying Z to the same factor of that result must give
  (|00> - |11>)/sqrt(2),

both up to a global phase.  :func:`all_conventions` enumerates every
assignment of labels to the four canonical Bell states, with per-state sign
choices and both choices of acted-on tensor factor, and returns those
satisfying both constraints, in a documented order.  The first is frozen
into :data:`FROZEN_CONVENTION`; a regeneration test keeps the two in sync.
Several assignments satisfy the constraints — all of them must (and do)
reproduce the same protocol outcome tables, which is checked in the test
suite rather than resolved here.

:func:`xor_permutation` reads the XOR structure off a swap table, the
``(a, b, m) -> r`` mapping that ``protocol.derive_swap_table`` enumerates.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property
from types import MappingProxyType
from typing import Mapping

import numpy as np

from . import qstate
from .qstate import GATES

LABELS: tuple[str, ...] = ("00", "01", "10", "11")

# Canonical maximally entangled two-qubit states, pair-index 2*b_first + b_second.
BASE_STATES: dict[str, np.ndarray] = {
    "phi+": np.array([1, 0, 0, 1], dtype=complex) / np.sqrt(2),
    "phi-": np.array([1, 0, 0, -1], dtype=complex) / np.sqrt(2),
    "psi+": np.array([0, 1, 1, 0], dtype=complex) / np.sqrt(2),
    "psi-": np.array([0, 1, -1, 0], dtype=complex) / np.sqrt(2),
}
BASE_ORDER: tuple[str, ...] = ("phi+", "phi-", "psi+", "psi-")

CONSTRAINT_ATOL = 1e-10


def label_xor(*labels: str) -> str:
    out = 0
    for lab in labels:
        out ^= int(lab, 2)
    return format(out, "02b")


# The acting factors in enumeration order, and S and Z on each of them as
# two-qubit operators (index = position in _FACTORS).
_FACTORS: tuple[str, ...] = ("first", "second")
_S_ON = np.stack([np.kron(GATES["S"], np.eye(2)), np.kron(np.eye(2), GATES["S"])])
_Z_ON = np.stack([np.kron(GATES["Z"], np.eye(2)), np.kron(np.eye(2), GATES["Z"])])


def _overlap_residuals(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """1 - |<a|b>| over the last axis of unit vectors; 0 means equal up to phase."""
    return np.abs(1.0 - np.abs(np.einsum("...i,...i->...", a.conj(), b)))


def _residuals(states: np.ndarray, factor: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Residuals of the two defining constraints for a batch of labelings.

    ``states`` is ``(..., 4, 4)``, row k the state of LABELS[k]; ``factor``
    is ``(...)``, each entry an index into _FACTORS.
    """
    plus_plus = (states[..., 1, :] + states[..., 2, :]) / np.sqrt(2)
    target2 = (states[..., 0, :] - states[..., 3, :]) / np.sqrt(2)
    rotated = np.einsum("...ij,...j->...i", _S_ON[factor], states[..., 0, :])
    flipped = np.einsum("...ij,...j->...i", _Z_ON[factor], plus_plus)
    return _overlap_residuals(plus_plus, rotated), _overlap_residuals(target2, flipped)


@dataclass(frozen=True)
class BellConvention:
    """A concrete meaning for the labels "00".."11".

    ``assignment`` maps each label, in LABELS order, to a signed canonical
    state.  ``acting_factor`` says which tensor factor of a labeled pair the
    narrative's single-qubit operations act on; it matters only for the
    defining constraints, never for the (factor-symmetric) plain Bell
    preparation and measurement.
    """

    assignment: tuple[tuple[str, int], ...]
    acting_factor: str

    def __post_init__(self) -> None:
        names = sorted(name for name, _sign in self.assignment)
        if names != sorted(BASE_ORDER) or any(sign not in (1, -1) for _, sign in self.assignment):
            raise ValueError(f"assignment must sign each of {BASE_ORDER} once by +1 or -1, "
                             f"got {self.assignment!r}")

    # Built on first read: all_conventions() makes 64 conventions that mostly
    # go unread.
    @cached_property
    def states(self) -> Mapping[str, np.ndarray]:
        """Label -> two-qubit pair state (index 2*b_first + b_second), read-only: every plan's
        start reads it, so no write may change a later enumeration."""
        states = {}
        for label, (name, sign) in zip(LABELS, self.assignment):
            vec = sign * BASE_STATES[name]
            vec.setflags(write=False)
            states[label] = vec
        return MappingProxyType(states)

    @cached_property
    def basis_matrix(self) -> np.ndarray:
        """4x4 array, row k = state of LABELS[k]; every measurement reads it, and it is
        checked orthonormal within 1e-10 here, once."""
        basis = np.vstack([self.states[lab] for lab in LABELS])
        if not np.abs(basis @ basis.conj().T - np.eye(4)).max() <= qstate.ATOL_MEASURE:
            raise ValueError(f"basis states are not orthonormal within {qstate.ATOL_MEASURE}")
        basis.setflags(write=False)
        return basis

    def signed_states(self) -> dict[str, str]:
        """Label -> its signed canonical state, as ``"+phi+"``."""
        signs = {1: "+", -1: "-"}
        return {lab: signs[sign] + name for lab, (name, sign) in zip(LABELS, self.assignment)}


def convention_residuals(conv: BellConvention) -> tuple[float, float]:
    """Residuals of the two defining constraints (0 = exact)."""
    r1, r2 = _residuals(conv.basis_matrix, np.array(_FACTORS.index(conv.acting_factor)))
    return float(r1), float(r2)


# Every candidate labeling, in enumeration order: permutations of
# BASE_ORDER assigned to labels 00,01,10,11, then sign tuples.
_PERMUTATIONS = tuple(itertools.permutations(range(len(BASE_ORDER))))
_SIGN_TUPLES = tuple(itertools.product((1, -1), repeat=len(LABELS)))


def all_conventions() -> list[BellConvention]:
    """Every satisfying convention, in the documented enumeration order.

    Order: permutations of BASE_ORDER assigned to labels 00,01,10,11 (in
    itertools.permutations order), then sign tuples over (+1, -1), then
    acting factor "first" before "second".  All candidates are scored in
    one batch; a convention object is built only for those that pass.
    """
    base = np.stack([BASE_STATES[name] for name in BASE_ORDER])
    signs = np.array(_SIGN_TUPLES)
    # (permutation, signs, row, amplitude), then one copy per acting factor.
    states = signs[None, :, :, None] * base[np.array(_PERMUTATIONS)][:, None]
    shape = states.shape[:2] + (len(_FACTORS),)
    states = np.broadcast_to(states[:, :, None], shape + (4, 4))
    r1, r2 = _residuals(states, np.broadcast_to(np.arange(len(_FACTORS)), shape))
    passing = (r1 <= CONSTRAINT_ATOL) & (r2 <= CONSTRAINT_ATOL)
    return [
        BellConvention(
            tuple((BASE_ORDER[i], s) for i, s in zip(_PERMUTATIONS[p], _SIGN_TUPLES[g])),
            _FACTORS[f],
        )
        for p, g, f in zip(*np.nonzero(passing))
    ]


# The first of all_conventions(), frozen; the test suite re-derives and
# compares.  Reads: 00 -> phi+, 01 -> phi-, 10 -> psi+, 11 -> psi-, all
# with + sign, narrative gates acting on the second factor of a pair.
FROZEN_CONVENTION = BellConvention(
    assignment=(("phi+", 1), ("phi-", 1), ("psi+", 1), ("psi-", 1)),
    acting_factor="second",
)


def convention() -> BellConvention:
    """The frozen package-wide convention."""
    return FROZEN_CONVENTION


def xor_permutation(table: Mapping[tuple[str, str, str], str]) -> dict[str, str] | None:
    """Discovered structure: r == perm[a xor b xor m], if that holds.

    Returns the fixed permutation when the table factors through the
    label-wise XOR of its arguments, else None.  This is recorded as a
    finding; only totality and per-(a, b) bijectivity are guaranteed.
    """
    perm = {m: table["00", "00", m] for m in LABELS}
    if all(perm[label_xor(a, b, m)] == r for (a, b, m), r in table.items()):
        return perm
    return None
