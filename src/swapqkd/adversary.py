"""Eavesdropping strategies against the two protocols.

All attacks share one commitment rule, enforced structurally by the
channel: everything quantum an eavesdropper does happens at the in-flight
interception point, before any announcement exists.  What she hears later
(the procedure choice, and in the six-qubit protocol the public result)
only feeds her classical key inference.

Every attack is one :class:`protocol.Attack` record, its steps written in
gate names with its ancilla pairs and forwarding, and :data:`ATTACKS` maps
each attack kind to its protocols and weighted attacks.

Six-qubit interception: Eve holds an ancilla pair (7,8) in the labeled-00
state.  She captures qubit 2 on its way to Bob and sends her qubit 7
instead, captures qubit 6 on its way to Alice, rotates qubits 6 and 8 and
Bell-measures them, then applies an outcome-dependent correction to the
captured qubit 2 and forwards that to Alice.  Bob's secret measurement
therefore physically acts on (7,4) and Alice's public measurement on
(5,2).  The two six-qubit attacks are this one interception with two
parameter choices: "zlg", the published attack, uses no rotation and the
Pauli corrections :func:`pauli_for_label` reads off the enumeration;
"tailored", its procedure-(ii) mirror, is found by :func:`derive_tailored_attack`,
one exhaustive deterministic scan over the extended corrections that scores
each candidate as a sum of per-outcome detection terms read from two small
block enumerations, and is frozen in :data:`FROZEN_TAILORED_PARAMS` with a
regeneration test.  The scan needs the S products: no Pauli-only map collapses
Alice's rotated public pair under any of the 64 conventions
(``test_only_extended_corrections_pass_the_ii_predicate``).

Four-qubit "four-swap": Eve intercepts both transmitted qubits and
Bell-measures them in the basis of the procedure she guesses, rotating
qubit 2 by that procedure's gate before and after the plain measurement,
and forwards the pair in the collapsed state.

Eve's key inference is computed exactly: for each attack and procedure the
protocol driver enumerates the full branch distribution once, and her
inferred-key set for an observation is its :func:`protocol.key_support`, the
keys with positive probability given that observation, as Bob's inference is.
A matched attack makes it a singleton; a mismatched one leaves a
two-candidate set.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass
from functools import partial, reduce
from operator import add
from typing import Callable, ClassVar, Sequence

import numpy as np

from .bell import LABELS, BellConvention
from .protocol import (
    Attack,
    ConditionalGateStep,
    GateStep,
    MeasureStep,
    Plan,
    Procedure,
    _checked_rows,
    enumerate_plans,
    protocol_driver,
)

# Correction gates Eve may apply to the captured qubit 2: the Paulis, and
# compositions of a Pauli with the basis-change gate S (needed whenever the
# pair she is correcting sits in the rotated frame).
CORRECTIONS_PAULI: tuple[str, ...] = ("I", "X", "Y", "Z")
CORRECTIONS_EXTENDED: tuple[str, ...] = ("I", "X", "Y", "Z", "S", "XS", "YS", "ZS")
PRE_UNITARIES: tuple[str, ...] = ("I", "X", "Y", "Z", "S")


class AttackSearchError(RuntimeError):
    """The exhaustive attack search found no satisfying parameters."""


@dataclass(frozen=True)
class TailoredParams:
    """Parameters of the six-qubit interception.

    ``pre_unitaries`` act on qubits 6 and 8 before Eve's Bell measurement;
    ``pauli_map`` maps her outcome to the correction applied to qubit 2.
    """

    pre_unitaries: tuple[str, str]
    pauli_map: tuple[tuple[str, str], ...]

    def __post_init__(self) -> None:
        if len(self.pre_unitaries) != 2:
            raise ValueError(f"one pre-unitary each for qubits 6 and 8, got {self.pre_unitaries}")
        for name in self.pre_unitaries:
            if name not in PRE_UNITARIES:
                raise ValueError(f"pre-unitary {name!r} not in {PRE_UNITARIES}")
        if sorted(m for m, _name in self.pauli_map) != sorted(LABELS):
            raise ValueError("pauli_map must name each of the four outcome labels once")
        for _m, name in self.pauli_map:
            if name not in CORRECTIONS_EXTENDED:
                raise ValueError(f"correction {name!r} not in {CORRECTIONS_EXTENDED}")

    def to_json_dict(self) -> dict:
        return {
            "pre_unitaries": {"qubit6": self.pre_unitaries[0], "qubit8": self.pre_unitaries[1]},
            "pauli_map": dict(self.pauli_map),
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), indent=2, sort_keys=True)


def pauli_for_label(conv: BellConvention) -> dict[str, str]:
    """Each label -> the Pauli that shifts the labeled-00 pair state to it (up to phase), on
    either qubit: the interception's published correction column, read off the enumeration.

    One batch applies each Pauli of :data:`CORRECTIONS_PAULI` to qubit 2 of a labeled-00 pair,
    then Bell-measures the pair.  A label maps to the first Pauli, in that order, whose plan
    reaches it in a single branch; a plan with several branches reaches no label.
    """
    plans = [Plan(2, ((1, 2),), (GateStep(2, p), MeasureStep("label", (1, 2))))
             for p in CORRECTIONS_PAULI]
    reached: dict[str, str] = {}
    for name, branches in zip(CORRECTIONS_PAULI, enumerate_plans(conv, plans)):
        if len(branches) == 1:
            reached.setdefault(branches[0][1]["label"], name)
    for label in LABELS:
        if label not in reached:
            raise AttackSearchError(f"no Pauli shifts label 00 to {label}")
    return {label: reached[label] for label in LABELS}


def _gates(*gates: tuple[int, str]) -> tuple[GateStep, ...]:
    """A step per ``(qubit, gate name)``; an identity gate emits no step."""
    return tuple(GateStep(qubit, name) for qubit, name in gates if name != "I")


def _six_interception(kind: str, params: TailoredParams) -> Attack:
    """Rotate 6 and 8, Bell-measure them, correct 2 by Eve's outcome; deliver 7 for 2, 2 for 6."""
    mapping = dict(params.pauli_map)
    steps = _gates(*zip((6, 8), params.pre_unitaries)) + (
        MeasureStep("eve", (6, 8)),
        ConditionalGateStep(2, "eve", tuple(mapping[m] for m in LABELS)),
    )
    return Attack(kind, "six", steps, ancilla_pairs=((7, 8),), forward=((6, 2), (2, 7)))


def ZlgAttack(conv: BellConvention) -> Attack:
    """The published interception: no rotation, Pauli corrections."""
    paulis = tuple(pauli_for_label(conv).items())
    return _six_interception("zlg", TailoredParams(("I", "I"), paulis))


def TailoredAttack(conv: BellConvention, params: TailoredParams | None = None) -> Attack:
    """The procedure-(ii)-matched interception; the frozen search result by default."""
    return _six_interception("tailored", params if params is not None else FROZEN_TAILORED_PARAMS)


def FourSwapAttack(conv: BellConvention, guess: Procedure) -> Attack:
    """Bell-measure (2, 4) in the guessed basis: its gate on 2 before and after it."""
    rotation = _gates((2, guess.rotation))  # I or S, each its own inverse
    return Attack("four-swap", "four", rotation + (MeasureStep("eve", (2, 4)),) + rotation)


# Attack kind -> (the protocols it applies to, the constructors, each called with
# the convention, a round draws from with their weights), in CLI order.
ATTACKS: dict[str, tuple[tuple[str, ...], tuple[tuple[float, Callable], ...]]] = {
    "none": (("six", "four"), ((1.0, lambda conv: None),)),
    "zlg": (("six",), ((1.0, ZlgAttack),)),
    "tailored": (("six",), ((1.0, TailoredAttack),)),
    "four-swap": (("four",), tuple((0.5, partial(FourSwapAttack, guess=g)) for g in Procedure)),
    "mixed": (("six",), ((0.5, ZlgAttack), (0.5, TailoredAttack))),
}


@dataclass(frozen=True)
class AttackStrategy:
    """Harness-level description of the eavesdropper's behavior.

    ``kind`` names an :data:`ATTACKS` entry: "none" (no eavesdropper), "zlg"
    or "tailored" (six-qubit), "four-swap" (four-qubit, per-round uniform
    procedure guess), or "mixed" (six-qubit: zlg with probability
    ``weight_zlg``, else the tailored attack).
    """

    kind: str
    weight_zlg: ClassVar[float] = ATTACKS["mixed"][1][0][0]

    def __post_init__(self) -> None:
        if self.kind not in ATTACKS:
            raise ValueError(f"unknown attack kind {self.kind!r}")

    def compatible_protocols(self) -> tuple[str, ...]:
        return ATTACKS[self.kind][0]

    def mixture(self, conv: BellConvention) -> tuple[tuple[float, Attack | None], ...]:
        """The attacks this kind draws each round, with their weights."""
        return tuple((weight, build(conv)) for weight, build in ATTACKS[self.kind][1])


# --- exact attack statistics ------------------------------------------------


def attack_detection_probability(
    conv: BellConvention, protocol: str, procedure: Procedure, attack
) -> float:
    """Per-compared-round detection probability, by exhaustive enumeration.

    Both exact reads sum their leaves' masses left to right: ``sum()`` of floats rounds
    differently from Python 3.12 on.
    """
    leaves = protocol_driver(conv, protocol).round_model(procedure, attack).leaves
    return reduce(add, (leaf.mass for leaf in leaves if leaf.detected), 0.0)


def eve_information_probability(
    conv: BellConvention, protocol: str, procedure: Procedure, attack
) -> float:
    """Probability that Eve's inferred-key set is exactly the true key."""
    leaves = protocol_driver(conv, protocol).round_model(procedure, attack).leaves
    return reduce(add, (leaf.mass for leaf in leaves if leaf.informed), 0.0)


# --- tailored attack search -------------------------------------------------

# The six-qubit round factors into two blocks that share no qubits: Alice's
# {1,2,3,5} (key and public measurements, Eve's correction on 2) and the
# travel block {4,6,7,8} (Eve's measurement, Bob's secret on (7,4)).  They
# couple only through Eve's outcome m, so a candidate's detection probability
# is a sum over m of one term per (pre-rotation pair, m, correction): one
# small table replaces an 8-qubit enumeration per candidate, and only the
# winner is re-verified on the full round engine.  As in
# ``protocol.build_plan``, procedure (i) applies ``I`` where (ii) rotates,
# so a block's plans for both procedures enumerate as one batch.

ROTATIONS: tuple[tuple[str, str], ...] = tuple(itertools.product(PRE_UNITARIES, repeat=2))


def _alice_block_plan(correction: str, procedure: Procedure) -> Plan:
    # block qubits 1,2,3,5 -> 1,2,3,4
    steps = (
        GateStep(3, procedure.rotation),
        MeasureStep("key", (1, 3)),
        GateStep(2, correction),
        MeasureStep("public", (4, 2)),
    )
    return Plan(4, ((1, 2), (3, 4)), steps)


def _travel_block_plan(u6: str, u8: str, procedure: Procedure) -> Plan:
    # block qubits 4,6,7,8 -> 1,2,3,4
    steps = (
        GateStep(2, u6),
        GateStep(4, u8),
        MeasureStep("eve", (2, 4)),
        GateStep(1, procedure.rotation),
        MeasureStep("secret", (3, 1)),
    )
    return Plan(4, ((1, 2), (3, 4)), steps)


def _block_masses(conv: BellConvention, build: Callable[..., Plan], names: Sequence) -> np.ndarray:
    """Per procedure, a ``(plans, 4, 4)`` array: the plans ``build(name, procedure)``,
    all enumerated in one batch; ``[i, a, b]`` is the mass at which plan ``names[i]``'s
    first measurement reads ``LABELS[a]`` and its second ``LABELS[b]``.
    """
    plans = [build(name, procedure) for procedure in Procedure for name in names]
    masses = np.zeros((len(plans), 4, 4))
    for joint, branches in zip(masses, enumerate_plans(conv, plans)):
        for mass, _out, (first, second) in branches:
            joint[first, second] = mass  # each cell takes at most one branch
    return masses.reshape(len(Procedure), len(names), 4, 4)


def _detection_terms(conv: BellConvention) -> list[np.ndarray]:
    """Per procedure, ``terms[r, m, g]``: the probability that Eve measures ``m`` after
    pre-rotation pair ``ROTATIONS[r]`` and Bob then infers a wrong key, given correction
    ``CORRECTIONS_EXTENDED[g]``.  Terms sum non-negative products, so a zero is exact.
    """
    driver = protocol_driver(conv, "six")
    alice = _block_masses(conv, _alice_block_plan, CORRECTIONS_EXTENDED)  # [g, key, public]
    travel = _block_masses(conv, lambda r, p: _travel_block_plan(*r, p), ROTATIONS)  # [r, m, sec]
    terms = []
    for procedure, alice_p, travel_p in zip(Procedure, alice, travel):
        infer = driver.inference[procedure]  # (public, secret) -> (Bob's key,)
        wrong = np.array([[[infer[p, s] != (k,) for s in LABELS] for p in LABELS] for k in LABELS])
        W = np.einsum("gkp,kps->gs", alice_p, wrong)  # [g, secret]: Alice's mass decoded wrong
        terms.append(np.einsum("rms,gs->rmg", travel_p, W))  # travel @ W.T, with no BLAS buffer
    return terms


def derive_tailored_attack(conv: BellConvention) -> TailoredParams:
    """Exhaustive deterministic search for the procedure-(ii) attack.

    One scan runs lexicographically over (gate on qubit 6, gate on qubit 8,
    correction map), gates ordered I, X, Y, Z, S and each outcome's correction
    drawn from :data:`CORRECTIONS_EXTENDED` in its order.  It returns the first
    candidate whose :func:`_detection_terms` meet both predicates: every (ii)
    term of its map is exactly ``0.0`` (Bob always infers the key under (ii)),
    and some (i) term is ``> 0.0`` (procedure (i) detects it).  The full eight-qubit round
    engine re-verifies the winner, and that Eve's (ii) inference is a correct singleton.
    """
    terms_i, terms_ii = _detection_terms(conv)
    detected, undetected = (terms_i > 0.0).tolist(), (terms_ii == 0.0).tolist()
    for r, rotation in enumerate(ROTATIONS):
        # Per outcome, the corrections that leave procedure (ii) undetected.
        valid = [[g for g, ok in enumerate(row) if ok] for row in undetected[r]]
        for combo in itertools.product(*valid):
            if any(detected[r][m][g] for m, g in enumerate(combo)):
                corrections = (CORRECTIONS_EXTENDED[g] for g in combo)
                params = TailoredParams(rotation, tuple(zip(LABELS, corrections)))
                _verify_tailored(conv, params)
                return params
    raise AttackSearchError("no (pre-unitaries, correction map) candidate defeats procedure "
                            "(ii); the parameterization would need further widening")


def _verify_tailored(conv: BellConvention, params: TailoredParams) -> None:
    """Check the found parameters against the full 8-qubit round engine."""
    attack = TailoredAttack(conv, params)
    for leaf in protocol_driver(conv, "six").round_model(Procedure.P_II, attack).leaves:
        if leaf.detected:
            raise AttackSearchError("block-table search and full engine disagree on (ii)")
        if not leaf.informed:
            raise AttackSearchError("found attack does not pin the key under (ii)")
    if attack_detection_probability(conv, "six", Procedure.P_I, attack) <= 0.0:
        raise AttackSearchError("found attack is undetectable under (i)")


# Output of derive_tailored_attack() for the frozen convention, kept as a
# committed constant; a regeneration test re-runs the search and compares.
FROZEN_TAILORED_PARAMS = TailoredParams(
    pre_unitaries=("I", "S"),
    pauli_map=(("00", "S"), ("01", "ZS"), ("10", "XS"), ("11", "YS")),
)


# --- published attack outcome table -----------------------------------------

# Every branch of the zlg interception with key 00: columns procedure, key,
# public, Bob secret, Bob inferred, Eve secret, Eve's transformation, Eve
# inferred.  Rows ordered by (procedure, Bob secret, Eve secret, public).
EXPECTED_TABLE2: tuple[tuple[str, ...], ...] = (
    ("(i)", "00", "00", "00", "00", "00", "I", "00"),
    ("(i)", "00", "01", "01", "00", "01", "Z", "00"),
    ("(i)", "00", "10", "10", "00", "10", "X", "00"),
    ("(i)", "00", "11", "11", "00", "11", "Y", "00"),
    ("(ii)", "00", "00", "00", "00", "01", "Z", "00 or 11"),
    ("(ii)", "00", "11", "00", "11", "01", "Z", "00 or 11"),
    ("(ii)", "00", "00", "00", "00", "10", "X", "00 or 11"),
    ("(ii)", "00", "11", "00", "11", "10", "X", "00 or 11"),
    ("(ii)", "00", "01", "01", "11", "00", "I", "00 or 11"),
    ("(ii)", "00", "10", "01", "00", "00", "I", "00 or 11"),
    ("(ii)", "00", "01", "01", "11", "11", "Y", "00 or 11"),
    ("(ii)", "00", "10", "01", "00", "11", "Y", "00 or 11"),
    ("(ii)", "00", "01", "10", "00", "00", "I", "00 or 11"),
    ("(ii)", "00", "10", "10", "11", "00", "I", "00 or 11"),
    ("(ii)", "00", "01", "10", "00", "11", "Y", "00 or 11"),
    ("(ii)", "00", "10", "10", "11", "11", "Y", "00 or 11"),
    ("(ii)", "00", "00", "11", "11", "01", "Z", "00 or 11"),
    ("(ii)", "00", "11", "11", "00", "01", "Z", "00 or 11"),
    ("(ii)", "00", "00", "11", "11", "10", "X", "00 or 11"),
    ("(ii)", "00", "11", "11", "00", "10", "X", "00 or 11"),
)

TABLE2_COLUMNS = (
    "procedure",
    "key",
    "public",
    "secret",
    "inferred",
    "eve_secret",
    "transformation",
    "eve_inferred",
)


def zlg_outcome_rows(conv: BellConvention) -> list[tuple[str, ...]]:
    """All distinct zlg-attack rows with key 00, in the published order."""
    driver = protocol_driver(conv, "six")
    attack = ZlgAttack(conv)
    transformation = dict(zip(LABELS, attack.steps[-1].gates))  # Eve's correction per outcome
    rows = set()
    for procedure in Procedure:
        model = driver.round_model(procedure, attack)
        for out in (leaf.outcomes for leaf in model.leaves):
            if out["key"] != "00":
                continue
            rows.add(
                (
                    procedure.printed,
                    out["key"],
                    out["public"],
                    out["secret"],
                    driver.infer(procedure, out),
                    out["eve"],
                    transformation[out["eve"]],
                    " or ".join(model.posterior[driver.spec.eve_observation(out)]),
                )
            )
    return sorted(rows, key=lambda r: (r[0], r[3], r[5], r[2]))


def reproduce_table2(conv: BellConvention) -> list[tuple[str, ...]]:
    """Reproduce the attack outcome table; raise on any drift."""
    return _checked_rows("zlg attack outcome table", EXPECTED_TABLE2, zlg_outcome_rows(conv))
