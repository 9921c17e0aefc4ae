"""Eavesdropping strategies against the two protocols.

All attacks share one commitment rule, enforced structurally by the
channel: everything quantum an eavesdropper does happens at the in-flight
interception point, before any announcement exists.  What she hears later
(the procedure choice, and in the six-qubit protocol the public result)
only feeds her classical key inference.

Six-qubit interception: Eve holds an ancilla pair (7,8) in the labeled-00
state.  She captures qubit 2 on its way to Bob and sends her qubit 7
instead, captures qubit 6 on its way to Alice, rotates qubits 6 and 8 and
Bell-measures them, then applies an outcome-dependent correction to the
captured qubit 2 and forwards that to Alice.  Bob's secret measurement
therefore physically acts on (7,4) and Alice's public measurement on
(5,2).  The two six-qubit attacks are this one interception with two
parameter choices: "zlg", the published attack, uses no rotation and
Pauli corrections; "tailored", its procedure-(ii) mirror, is found by
:func:`derive_tailored_attack`, an exhaustive deterministic search, and
the found values are frozen in :data:`FROZEN_TAILORED_PARAMS` with a
regeneration test.

Four-qubit "four-swap": Eve intercepts both transmitted qubits and
Bell-measures them — in the plain labeled basis when guessing procedure I,
in the S-rotated basis when guessing procedure II — and forwards the pair
in the collapsed state.

Eve's key inference is computed exactly: for each attack and procedure the
protocol driver enumerates the full branch distribution once, and her
inferred-key set for an observation is the set of keys with positive
probability given that observation.  A matched attack makes it a
singleton; a mismatched one leaves a two-candidate set.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass
from typing import Callable, ClassVar, Sequence

import numpy as np

from . import qstate
from .bell import LABELS, BellConvention
from .protocol import (
    ConditionalGateStep,
    GateStep,
    MeasureStep,
    Plan,
    Posterior,
    Procedure,
    TableMismatchError,
    TransitPlan,
    _row_diff,
    enumerate_plans,
    protocol_driver,
)
from .qstate import GATES

# Correction gates Eve may apply to the captured qubit 2: the Paulis, and
# compositions of a Pauli with the basis-change gate S (needed whenever the
# pair she is correcting sits in the rotated frame).
CORRECTIONS_PAULI: tuple[str, ...] = ("I", "X", "Y", "Z")
CORRECTIONS_EXTENDED: tuple[str, ...] = ("I", "X", "Y", "Z", "S", "XS", "YS", "ZS")
PRE_UNITARIES: tuple[str, ...] = ("I", "X", "Y", "Z", "S")


# Attack kind -> the protocols it applies to, in the order the CLI lists kinds.
ATTACK_PROTOCOLS: dict[str, tuple[str, ...]] = {
    "none": ("six", "four"),
    "zlg": ("six",),
    "tailored": ("six",),
    "four-swap": ("four",),
    "mixed": ("six",),
}


class AttackSearchError(RuntimeError):
    """The exhaustive attack search found no satisfying parameters."""


@dataclass(frozen=True)
class EveRecord:
    """What the eavesdropper learned in one round."""

    attack: str
    secret: str
    transformation: str | None
    inferred_keys: tuple[str, ...]

    def __post_init__(self) -> None:
        if not self.inferred_keys:
            raise ValueError("inferred_keys must not be empty")


@dataclass(frozen=True)
class TailoredParams:
    """Parameters of the six-qubit interception.

    ``pre_unitaries`` act on qubits 6 and 8 before Eve's Bell measurement;
    ``pauli_map`` maps her outcome to the correction applied to qubit 2.
    """

    pre_unitaries: tuple[str, str]
    pauli_map: tuple[tuple[str, str], ...]

    def __post_init__(self) -> None:
        for name in self.pre_unitaries:
            if name not in PRE_UNITARIES:
                raise ValueError(f"pre-unitary {name!r} not in {PRE_UNITARIES}")
        mapping = dict(self.pauli_map)
        if sorted(mapping) != sorted(LABELS):
            raise ValueError("pauli_map must cover exactly the four outcome labels")
        for name in mapping.values():
            if name not in CORRECTIONS_EXTENDED:
                raise ValueError(f"correction {name!r} not in {CORRECTIONS_EXTENDED}")
        object.__setattr__(self, "_corrections", mapping)

    def correction(self, outcome: str) -> str:
        return self._corrections[outcome]  # type: ignore[attr-defined]

    def to_json_dict(self) -> dict:
        return {
            "pre_unitaries": {"qubit6": self.pre_unitaries[0], "qubit8": self.pre_unitaries[1]},
            "pauli_map": dict(self.pauli_map),
        }

    @classmethod
    def from_json_dict(cls, data: dict) -> "TailoredParams":
        pre = data["pre_unitaries"]
        return cls(
            pre_unitaries=(pre["qubit6"], pre["qubit8"]),
            pauli_map=tuple(sorted(data["pauli_map"].items())),
        )

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), indent=2, sort_keys=True)


def pauli_for_label(conv: BellConvention) -> dict[str, str]:
    """The Pauli that shifts the labeled-00 pair state to each label.

    Applying the returned gate to either qubit of a pair in state 00 leaves
    the pair in the keyed Bell state (up to phase).  This reproduces the
    published outcome-to-transformation column of the interception attack.
    """
    # Each Pauli on the pair's second qubit: (I x P) v is P applied to v's rows.
    pair = conv.states["00"].reshape(2, 2)
    images = {name: (pair @ GATES[name].T).reshape(-1) for name in CORRECTIONS_PAULI}
    mapping = {}
    for label in LABELS:
        target = conv.states[label]
        for name, image in images.items():
            if abs(abs(np.vdot(target, image)) - 1.0) <= 1e-10:
                mapping[label] = name
                break
        else:
            raise AttackSearchError(f"no Pauli shifts label 00 to {label}")
    return mapping


class _PosteriorMixin:
    """Exact Bayesian key inference shared by all attacks."""

    conv: BellConvention
    protocol: str
    kind: str

    def _posterior(self, procedure: Procedure) -> Posterior:
        """Eve's inferred-key sets, shared by every attack with this ``cache_key``."""
        return protocol_driver(self.conv, self.protocol).round_model(procedure, self).posterior

    def transformation_for(self, eve_outcome: str) -> str | None:
        return None

    def eve_record(self, eve_outcome: str, inferred_keys: tuple[str, ...]) -> EveRecord:
        """One round's record, given Eve's posterior for what she observed."""
        return EveRecord(
            attack=self.kind,
            secret=eve_outcome,
            transformation=self.transformation_for(eve_outcome),
            inferred_keys=inferred_keys,
        )


class TailoredAttack(_PosteriorMixin):
    """Six-qubit interception: rotate 6 and 8, Bell-measure them, correct 2."""

    protocol = "six"
    kind = "tailored"

    def __init__(self, conv: BellConvention, params: "TailoredParams | None" = None):
        self.conv = conv
        self.params = params if params is not None else FROZEN_TAILORED_PARAMS
        self.cache_key = (self.kind, self.params)

    def transit_plan(self) -> TransitPlan:
        rotations = tuple(
            GateStep(q, qstate.gate(u))
            for q, u in zip((6, 8), self.params.pre_unitaries)
            if u != "I"
        )
        gates = tuple((m, qstate.gate(self.params.correction(m))) for m in LABELS)
        return TransitPlan(
            steps=rotations + (
                MeasureStep("eve", (6, 8)),
                ConditionalGateStep(qubit=2, on="eve", gates=gates),
            ),
            ancilla_pairs=((7, 8),),
            forward=((6, 2), (2, 7)),
        )

    def transformation_for(self, eve_outcome: str) -> str:
        return self.params.correction(eve_outcome)


class ZlgAttack(TailoredAttack):
    """The published interception: no rotation, Pauli corrections."""

    kind = "zlg"

    def __init__(self, conv: BellConvention):
        super().__init__(conv, TailoredParams(("I", "I"), tuple(pauli_for_label(conv).items())))


class FourSwapAttack(_PosteriorMixin):
    """Four-qubit intercept-swap-resend with a committed procedure guess."""

    protocol = "four"
    kind = "four-swap"

    def __init__(self, conv: BellConvention, guess: Procedure):
        self.conv = conv
        self.guess = guess
        self.cache_key = ("four-swap", guess)

    def transit_plan(self) -> TransitPlan:
        if self.guess is Procedure.P_I:
            steps: tuple = (MeasureStep("eve", (2, 4)),)
        else:
            # Measuring in the S-rotated Bell basis: rotate qubit 2, measure
            # in the plain basis, rotate back so the forwarded pair is the
            # collapsed rotated-basis state.
            steps = (
                GateStep(2, GATES["S"]),
                MeasureStep("eve", (2, 4)),
                GateStep(2, GATES["S"]),
            )
        return TransitPlan(steps=steps)


Attack = TailoredAttack | FourSwapAttack


@dataclass(frozen=True)
class AttackStrategy:
    """Harness-level description of the eavesdropper's behavior.

    kind "none" (no eavesdropper), "zlg" or "tailored" (six-qubit),
    "four-swap" (four-qubit, per-round uniform procedure guess), or
    "mixed" (six-qubit: zlg with probability ``weight_zlg``, else the
    tailored attack).
    """

    kind: str
    weight_zlg: ClassVar[float] = 0.5

    def __post_init__(self) -> None:
        if self.kind not in ATTACK_PROTOCOLS:
            raise ValueError(f"unknown attack kind {self.kind!r}")

    def compatible_protocols(self) -> tuple[str, ...]:
        return ATTACK_PROTOCOLS[self.kind]

    def mixture(self, conv: BellConvention) -> tuple[tuple[float, Attack | None], ...]:
        """The attacks this kind draws each round, with their weights."""
        if self.kind == "none":
            return ((1.0, None),)
        if self.kind == "zlg":
            return ((1.0, ZlgAttack(conv)),)
        if self.kind == "tailored":
            return ((1.0, TailoredAttack(conv)),)
        if self.kind == "mixed":
            weight = self.weight_zlg
            return ((weight, ZlgAttack(conv)), (1.0 - weight, TailoredAttack(conv)))
        return tuple((0.5, FourSwapAttack(conv, guess)) for guess in Procedure)


# --- exact attack statistics ------------------------------------------------


def attack_detection_probability(
    conv: BellConvention, protocol: str, procedure: Procedure, attack
) -> float:
    """Per-compared-round detection probability, by exhaustive enumeration."""
    driver = protocol_driver(conv, protocol)
    table = driver.inference[procedure]
    return sum(
        prob
        for prob, out in driver.enumerate_branches(procedure, attack)
        if table.infer(out) != out["key"]
    )


def eve_information_probability(
    conv: BellConvention, protocol: str, procedure: Procedure, attack
) -> float:
    """Probability that Eve's inferred-key set is exactly the true key."""
    model = protocol_driver(conv, protocol).round_model(procedure, attack)
    return sum(
        prob
        for prob, out in model.branches
        if model.posterior[(out["eve"], out.get("public"))] == (out["key"],)
    )


# --- tailored attack search -------------------------------------------------

# The six-qubit round factors into two blocks that share no qubits: Alice's
# {1,2,3,5} (key and public measurements, Eve's correction on 2) and the
# travel block {4,6,7,8} (Eve's measurement, Bob's secret on (7,4)).  They
# couple only through Eve's classical outcome, so each candidate can be
# scored from two small per-block branch tables instead of one 8-qubit
# enumeration.  The winning candidate is re-verified against the full
# 8-qubit round engine before being returned.  As in ``protocol.build_plan``,
# procedure (i) applies ``I`` where (ii) rotates, so a block's plans for both
# procedures enumerate as one batch.


def _alice_block_plan(correction: str, procedure: Procedure) -> Plan:
    # block qubits 1,2,3,5 -> 1,2,3,4
    rotation = GATES["S"] if procedure is Procedure.P_II else GATES["I"]
    steps = (
        GateStep(3, rotation),
        MeasureStep("key", (1, 3)),
        GateStep(2, qstate.gate(correction)),
        MeasureStep("public", (4, 2)),
    )
    return Plan(4, ((1, 2), (3, 4)), steps)


def _travel_block_plan(u6: str, u8: str, procedure: Procedure) -> Plan:
    # block qubits 4,6,7,8 -> 1,2,3,4
    rotation = GATES["S"] if procedure is Procedure.P_II else GATES["I"]
    steps = (
        GateStep(2, qstate.gate(u6)),
        GateStep(4, qstate.gate(u8)),
        MeasureStep("eve", (2, 4)),
        GateStep(1, rotation),
        MeasureStep("secret", (3, 1)),
    )
    return Plan(4, ((1, 2), (3, 4)), steps)


ConditionalTable = dict[str, tuple[float, list[tuple[str, float]]]]


def _block_tables(conv: BellConvention, build: Callable[..., Plan], names: Sequence) -> list[dict]:
    """Per procedure, the tables of the plans ``build(name, procedure)``.

    Every plan of both procedures is enumerated in one batch.  Each plan gives
    a table: its first measurement's outcome -> (marginal, [(its second
    measurement's outcome, conditional probability)]).
    """
    plans = [build(name, procedure) for procedure in Procedure for name in names]
    found = iter(enumerate_plans(conv, plans))
    families = []
    for _procedure in Procedure:
        tables: dict[object, ConditionalTable] = {}
        for name, branches in zip(names, found):
            joint: dict[str, dict[str, float]] = {}
            for prob, out in branches:
                first, second = out.values()
                cell = joint.setdefault(first, {})
                cell[second] = cell.get(second, 0.0) + prob
            tables[name] = {}
            for outcome, cell in joint.items():
                total = sum(cell.values())
                tables[name][outcome] = (total, [(o, w / total) for o, w in sorted(cell.items())])
        families.append(tables)
    return families


def _candidate_p1_detection(
    params: TailoredParams,
    travel_p1: ConditionalTable,
    alice_tables_p1: dict[str, ConditionalTable],
    inferred_p1: dict[tuple[str, ...], str],
) -> float:
    detection = 0.0
    for m, (prob_m, secrets) in travel_p1.items():
        alice = alice_tables_p1[params.correction(m)]
        for key, (prob_key, publics) in alice.items():
            for public, ap in publics:
                for secret, sp in secrets:
                    if inferred_p1[public, secret] != key:
                        detection += prob_m * prob_key * ap * sp
    return detection


def derive_tailored_attack(conv: BellConvention) -> TailoredParams:
    """Exhaustive deterministic search for the procedure-(ii) attack.

    Candidates are scanned lexicographically over (gate on qubit 6, gate on
    qubit 8, correction map), gates ordered I, X, Y, Z, S.  The correction
    set starts as the bare Paulis; since no Pauli-only candidate can make
    Alice's rotated public pair collapse deterministically, the search then
    widens the corrections to Pauli-times-S products (order I, X, Y, Z, S,
    XS, YS, ZS) and returns the first candidate such that

    * under procedure (ii) every branch leaves Bob's inferred key equal to
      the key (undetected) and Eve's inference a correct singleton, and
    * under procedure (i) the detection probability is strictly positive.

    The winner is re-verified against the full eight-qubit round engine.
    """
    driver = protocol_driver(conv, "six")
    # Bob's key by (public, secret), per procedure.
    inferred_p1 = driver.inference[Procedure.P_I].as_dict()
    inferred_p2 = driver.inference[Procedure.P_II].as_dict()

    # Every block plan is enumerated once, in two batches over both procedures: Alice's
    # tables (key -> public) by correction, the travel tables (Eve's outcome -> secret) by (u6, u8).
    alice_p1, alice_p2 = _block_tables(conv, _alice_block_plan, CORRECTIONS_EXTENDED)
    rotations = list(itertools.product(PRE_UNITARIES, repeat=2))
    travel_p1, travel_p2 = _block_tables(conv, lambda r, p: _travel_block_plan(*r, p), rotations)

    for corrections in (CORRECTIONS_PAULI, CORRECTIONS_EXTENDED):
        for u6, u8 in rotations:
            # Undetected under (ii) needs Bob's secret pinned by Eve's outcome.
            travel = travel_p2[u6, u8]
            if any(len(secrets) != 1 for _pm, secrets in travel.values()):
                continue
            taus = {m: secrets[0][0] for m, (_pm, secrets) in travel.items()}
            # Per outcome, the corrections that pin a public result Bob decodes right.
            valid = [
                [g for g in corrections if all(
                    len(publics) == 1 and inferred_p2[publics[0][0], taus[m]] == key
                    for key, (_pk, publics) in alice_p2[g].items()
                )]
                for m in LABELS
            ]
            if not all(valid):
                continue
            for combo in itertools.product(*valid):
                params = TailoredParams((u6, u8), tuple(zip(LABELS, combo)))
                if _candidate_p1_detection(params, travel_p1[u6, u8], alice_p1, inferred_p1) > 0.0:
                    _verify_tailored(conv, params)
                    return params
    raise AttackSearchError(
        "no (pre-unitaries, correction map) candidate defeats procedure (ii); "
        "the parameterization would need further widening"
    )


def _verify_tailored(conv: BellConvention, params: TailoredParams) -> None:
    """Check the found parameters against the full 8-qubit round engine."""
    attack = TailoredAttack(conv, params)
    driver = protocol_driver(conv, "six")
    table = driver.inference[Procedure.P_II]
    posterior = attack._posterior(Procedure.P_II)
    for prob, out in driver.enumerate_branches(Procedure.P_II, attack):
        if table.infer(out) != out["key"]:
            raise AttackSearchError("block-table search and full engine disagree on (ii)")
        if posterior[(out["eve"], out["public"])] != (out["key"],):
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
    rows = set()
    for procedure in Procedure:
        table = driver.inference[procedure]
        posterior = attack._posterior(procedure)
        for _prob, out in driver.enumerate_branches(procedure, attack):
            if out["key"] != "00":
                continue
            inferred = table.infer(out)
            eve_inferred = " or ".join(posterior[(out["eve"], out["public"])])
            rows.add(
                (
                    procedure.printed,
                    out["key"],
                    out["public"],
                    out["secret"],
                    inferred,
                    out["eve"],
                    attack.transformation_for(out["eve"]),
                    eve_inferred,
                )
            )
    return sorted(rows, key=lambda r: (r[0], r[3], r[5], r[2]))


def reproduce_table2(conv: BellConvention) -> list[tuple[str, ...]]:
    """Reproduce the attack outcome table; raise on any drift."""
    rows = zlg_outcome_rows(conv)
    if tuple(rows) != EXPECTED_TABLE2:
        raise TableMismatchError(
            "zlg attack outcome table mismatch", _row_diff(EXPECTED_TABLE2, rows)
        )
    return rows
