"""Round state machines for the two entanglement-swapping key protocols.

Six-qubit protocol: Alice prepares pairs (1,2) and (3,5), Bob prepares
(4,6), all in the state labeled 00.  Qubit 2 travels to Bob and qubit 6 to
Alice.  Alice either Bell-measures directly (procedure i) or first applies
the basis-change gate S to qubit 3 (procedure ii); her (1,3) result is the
key, her (5,6) result is announced publicly together with the procedure.
Bob, applying S to qubit 4 first under procedure ii, Bell-measures (2,4)
and infers the key from his result plus the announcement.

Four-qubit protocol: Alice prepares (1,2) and (3,4) and sends qubits 2 and
4 to Bob.  She either does nothing (procedure I) or applies S to qubit 1
(procedure II), measures (1,3) for the key, and announces the procedure.
Bob, applying S to qubit 2 first under procedure II, measures (2,4); his
result alone determines the key.

Each protocol is one :data:`PROTOCOLS` entry: its pairs, its in-flight
qubits, Alice's and Bob's steps, and the outcomes Bob infers the key from.
:func:`build_plan` and its channel check read only the entry, never the
protocol's name, and reroute the honest steps through an attack's
``forward`` map.  An attack's two procedure plans are enumerated once, as
one batch, over every measurement branch; the exact tables and
probabilities read those branches, and Monte Carlo samples the same branch
tree, drawing one uniform per measurement and picking the outcome by
inverse CDF over its conditional probabilities.  Bob's key-inference tables and Eve's
posteriors are read off those same branches (the adversary-free ones for
Bob), never assumed in closed form.

Qubits are numbered 1..8 as in the protocol narrative; conversion to the
0-based register happens only at the physics boundary.
"""

from __future__ import annotations

import json
import operator
from dataclasses import dataclass, replace
from enum import Enum
from functools import cached_property, lru_cache
from types import MappingProxyType
from typing import TYPE_CHECKING, Iterable, Mapping, Sequence

import numpy as np

from . import qstate
from .bell import LABELS, BellConvention
from .qstate import GATES, RandomSource, StateVector

if TYPE_CHECKING:  # pragma: no cover
    from .adversary import EveRecord

# Branch probabilities in these protocols are multiples of 1/4 per
# measurement; anything below this is numerical dust, not a branch.
PROB_CUTOFF = 1e-9


class Procedure(Enum):
    """Alice's per-round choice: plain swapping or the S-rotated variant."""

    P_I = "i"
    P_II = "ii"

    @property
    def printed(self) -> str:
        return f"({self.value})"


class AmbiguityError(RuntimeError):
    """An observation Bob infers the key from is consistent with two keys."""


class MalformedAdversaryError(RuntimeError):
    """An attack violated the channel contract."""


class WrongProtocolError(ValueError):
    """An attack was attached to a round of the other protocol."""


class TableMismatchError(RuntimeError):
    """A reproduced table differs from the expected rows."""

    def __init__(self, message: str, diff: list[str]):
        super().__init__(message + "\n" + "\n".join(diff))
        self.diff = diff


# --- step plans -----------------------------------------------------------


@dataclass(frozen=True)
class GateStep:
    qubit: int
    matrix: np.ndarray


@dataclass(frozen=True)
class MeasureStep:
    name: str
    pair: tuple[int, int]


@dataclass(frozen=True)
class ConditionalGateStep:
    """Gate on one qubit chosen by the outcome of an earlier measurement."""

    qubit: int
    on: str
    gates: tuple[tuple[str, np.ndarray], ...]  # outcome label -> matrix

    def gate_for(self, label: str) -> np.ndarray:
        return dict(self.gates)[label]


Step = GateStep | MeasureStep | ConditionalGateStep


@dataclass(frozen=True)
class TransitPlan:
    """What an eavesdropper does while qubits are in flight.

    ``steps`` run at the interception point, before any announcement
    exists; the channel structurally cannot leak Alice's procedure choice
    to them.  ``ancilla_pairs`` are extra qubit pairs prepared in the
    labeled-00 state and appended to the register.  ``forward`` pairs an
    in-flight qubit with the physical qubit delivered in its place; an
    in-flight qubit it does not name is delivered as itself.
    """

    steps: tuple[Step, ...] = ()
    ancilla_pairs: tuple[tuple[int, int], ...] = ()
    forward: tuple[tuple[int, int], ...] = ()


# What Bob's and Eve's inference read, in every protocol: no attack may measure into them.
RESERVED_NAMES = frozenset({"key", "public", "secret"})


@dataclass(frozen=True)
class ProtocolSpec:
    """One protocol's geometry.

    ``pairs`` start in the labeled-00 state; ``in_flight`` qubits travel
    between the parties.  ``steps`` are Alice's measurements, then Bob's, as
    if nothing were intercepted; their ``GateStep``s are the procedure-(ii)
    S rotations, which procedure (i) replaces with the identity so that both
    procedures share one step skeleton.  Bob infers the key from the
    ``observed`` outcomes.
    """

    pairs: tuple[tuple[int, int], ...]
    in_flight: frozenset[int]
    steps: tuple[GateStep | MeasureStep, ...]
    observed: tuple[str, ...]


# Protocol name -> spec, in the order the CLI lists protocols.  Steps: Alice's
# line, then Bob's; the six-qubit public result is announced with the procedure.
PROTOCOLS: dict[str, ProtocolSpec] = {
    "six": ProtocolSpec(
        pairs=((1, 2), (3, 5), (4, 6)),
        in_flight=frozenset({2, 6}),
        steps=(
            GateStep(3, GATES["S"]), MeasureStep("key", (1, 3)), MeasureStep("public", (5, 6)),
            GateStep(4, GATES["S"]), MeasureStep("secret", (2, 4)),
        ),
        observed=("public", "secret"),
    ),
    "four": ProtocolSpec(
        pairs=((1, 2), (3, 4)),
        in_flight=frozenset({2, 4}),
        steps=(
            GateStep(1, GATES["S"]), MeasureStep("key", (1, 3)),
            GateStep(2, GATES["S"]), MeasureStep("secret", (2, 4)),
        ),
        observed=("secret",),
    ),
}


@dataclass(frozen=True)
class Plan:
    """A fully wired round: register size, initial pairs, ordered steps."""

    num_qubits: int
    pairs: tuple[tuple[int, int], ...]
    steps: tuple[Step, ...]


def _validate_transit(spec: ProtocolSpec, transit: TransitPlan) -> None:
    base = 2 * len(spec.pairs)
    ancilla = [q for pair in transit.ancilla_pairs for q in pair]
    if sorted(ancilla) != list(range(base + 1, base + 1 + len(ancilla))):
        raise MalformedAdversaryError(
            f"ancilla pairs must extend the register contiguously, got {transit.ancilla_pairs}"
        )
    allowed = spec.in_flight | set(ancilla)
    for step in transit.steps:
        bad = set(step.pair if isinstance(step, MeasureStep) else (step.qubit,)) - allowed
        if bad:
            raise MalformedAdversaryError(f"attack touches protected qubits {sorted(bad)}")
        if isinstance(step, MeasureStep) and step.name in RESERVED_NAMES:
            raise MalformedAdversaryError(f"attack reuses reserved measurement name {step.name!r}")
    route = dict(transit.forward)
    if len(route) < len(transit.forward) or not route.keys() <= spec.in_flight:
        raise MalformedAdversaryError(f"forwards protected or repeated sources {transit.forward}")
    delivered = [route.get(q, q) for q in sorted(spec.in_flight)]
    if len(set(delivered)) < len(delivered) or not set(delivered) <= allowed:
        raise MalformedAdversaryError(f"delivers protected or repeated qubits {delivered}")


def build_plan(spec: ProtocolSpec, procedure: Procedure, transit: TransitPlan | None) -> Plan:
    """Eve's steps, then the honest steps on the qubits actually delivered.

    Procedure (i) applies ``I`` where (ii) rotates, so the two procedures'
    plans differ only in gate matrices and enumerate as one batch.
    """
    transit = transit or TransitPlan()
    _validate_transit(spec, transit)
    route = dict(transit.forward)
    steps: list[Step] = list(transit.steps)
    for step in spec.steps:
        if isinstance(step, MeasureStep):
            steps.append(replace(step, pair=tuple(route.get(q, q) for q in step.pair)))
        else:
            matrix = step.matrix if procedure is Procedure.P_II else GATES["I"]
            steps.append(GateStep(route.get(step.qubit, step.qubit), matrix))
    pairs = spec.pairs + transit.ancilla_pairs
    return Plan(2 * len(pairs), pairs, tuple(steps))


# --- plan execution -------------------------------------------------------


def _initial_state(conv: BellConvention, plan: Plan) -> StateVector:
    vec = conv.states["00"]
    return qstate.prepare_pairs(
        plan.num_qubits, [(i - 1, j - 1, vec) for i, j in plan.pairs]
    )


Branch = tuple[float, Mapping[str, str]]


def enumerate_plan(conv: BellConvention, plan: Plan) -> list[Branch]:
    """All measurement branches of a plan with their exact probabilities."""
    return enumerate_plans(conv, (plan,))[0]


def _skeleton(step: Step) -> tuple | MeasureStep:
    """The step with its gate matrices left out."""
    if isinstance(step, GateStep):
        return (GateStep, step.qubit)
    if isinstance(step, ConditionalGateStep):
        return (ConditionalGateStep, step.qubit, step.on, tuple(label for label, _ in step.gates))
    return step


def enumerate_plans(conv: BellConvention, plans: Sequence[Plan]) -> list[list[Branch]]:
    """:func:`enumerate_plan` for plans that differ only in gate matrices.

    Every live branch of every plan is a row of one amplitude batch, so each
    step is one batched gate or projection.  Survivors of a measurement keep
    (row, outcome) order: each plan's branches come out in depth-first order.
    """
    if len({(p.num_qubits, p.pairs, tuple(map(_skeleton, p.steps))) for p in plans}) != 1:
        raise ValueError("enumerate_plans needs plans that differ only in gate matrices")
    n = plans[0].num_qubits
    basis = conv.basis_matrix
    amps = np.repeat(_initial_state(conv, plans[0]).amplitudes[None], len(plans), axis=0)
    owner = np.arange(len(plans))  # the plan each row belongs to
    masses = np.ones(len(plans))
    # Column j holds each row's outcome index of the j-th measurement.
    picked = np.empty((len(plans), 0), dtype=np.intp)
    column: dict[str, int] = {}  # measurement name, in first-measured order -> its latest column
    for steps in zip(*(p.steps for p in plans)):
        step = steps[0]
        if isinstance(step, GateStep):
            matrices = tuple(s.matrix for s in steps)
            shared = all(m is matrices[0] for m in matrices)
            amps = qstate.gate_rows(amps, n, matrices, step.qubit - 1, None if shared else owner)
        elif isinstance(step, ConditionalGateStep):
            labels = [label for label, _ in step.gates]
            matrices = tuple(g for s in steps for _, g in s.gates)  # plan-major
            on = [labels.index(LABELS[k]) for k in picked[:, column[step.on]].tolist()]
            amps = qstate.gate_rows(amps, n, matrices, step.qubit - 1, owner * len(labels) + on)
        else:
            pair = (step.pair[0] - 1, step.pair[1] - 1)
            proj, probs = qstate.project_rows(amps, n, basis, pair)
            picks = np.flatnonzero(probs > PROB_CUTOFF)
            amps = qstate.collapse_rows(n, basis, pair, proj, probs, picks)
            del proj
            rows, outcome = np.divmod(picks, 4)
            owner = owner[rows]
            masses = masses[rows] * probs.flat[picks]
            column[step.name] = picked.shape[1]
            picked = np.column_stack((picked[rows], outcome))
    branches: list[list[Branch]] = [[] for _ in plans]
    for i, mass, row in zip(owner.tolist(), masses.tolist(), picked.tolist()):
        branches[i].append((mass, {name: LABELS[row[j]] for name, j in column.items()}))
    return branches


# Outcome-index prefix -> (name of the next measurement, conditional
# probability of each of its four outcomes given the prefix).
OutcomeTree = dict[tuple[int, ...], tuple[str, tuple[float, float, float, float]]]


def _outcome_tree(branches: Iterable[Branch]) -> OutcomeTree:
    """Conditional-probability tree over the branches' outcomes, in step order.

    The probability of outcome ``k`` after a prefix is
    ``mass(prefix + (k,)) / mass(prefix)``, both summed from leaf masses.
    """
    mass: dict[tuple[int, ...], float] = {}
    names: dict[tuple[int, ...], str] = {}
    for prob, outcomes in branches:
        prefix: tuple[int, ...] = ()
        mass[prefix] = mass.get(prefix, 0.0) + prob
        for name, label in outcomes.items():
            names[prefix] = name
            prefix += (LABELS.index(label),)
            mass[prefix] = mass.get(prefix, 0.0) + prob
    return {
        prefix: (name, tuple(mass.get(prefix + (k,), 0.0) / mass[prefix] for k in range(4)))
        for prefix, name in names.items()
    }


def _sample_outcomes(tree: OutcomeTree, rng: RandomSource) -> dict[str, str]:
    """One round's outcomes, one ``sample_index`` draw per measurement.

    This consumes the stream exactly as measuring the statevector with
    ``qstate.measure_in_basis`` step by step would.
    """
    outcomes: dict[str, str] = {}
    prefix: tuple[int, ...] = ()
    while prefix in tree:
        name, probs = tree[prefix]
        k = qstate.sample_index(probs, rng)
        outcomes[name] = LABELS[k]
        prefix += (k,)
    return outcomes


# (Eve's outcome, public result or None) -> keys with positive probability.
Posterior = Mapping[tuple[str, str | None], tuple[str, ...]]


def _eve_posterior(branches: Iterable[Branch]) -> Posterior:
    """Eve's exact inferred-key sets; empty for an adversary-free round."""
    support: dict[tuple[str, str | None], set[str]] = {}
    for _prob, out in branches:
        if "eve" in out:
            support.setdefault((out["eve"], out.get("public")), set()).add(out["key"])
    return MappingProxyType({obs: tuple(sorted(keys)) for obs, keys in support.items()})


@dataclass(frozen=True)
class RoundModel:
    """A wired plan, its exact branches, and what is read off them.

    ``tree`` (built on first read) is what Monte Carlo samples; ``posterior`` is Eve's inference.
    """

    plan: Plan
    branches: tuple[Branch, ...]
    posterior: Posterior

    @cached_property
    def tree(self) -> OutcomeTree:
        return _outcome_tree(self.branches)


# --- key inference --------------------------------------------------------


@dataclass(frozen=True)
class InferenceTable:
    """Bob's key inference, derived from every adversary-free branch.

    Entries are keyed by the values of the ``observed`` outcomes, in order.
    """

    observed: tuple[str, ...]
    procedure: Procedure
    entries: tuple[tuple[tuple[str, ...], str], ...]

    def __post_init__(self) -> None:
        key = operator.itemgetter(*self.observed)  # built once: infer() runs every round
        table = {key(dict(zip(self.observed, obs))): k for obs, k in self.entries}
        object.__setattr__(self, "_key", key)
        object.__setattr__(self, "_map", table)

    def infer(self, outcomes: Mapping[str, str | None]) -> str:
        """Bob's key for a round's outcomes; ``KeyError`` if no branch observed them."""
        return self._map[self._key(outcomes)]  # type: ignore[attr-defined]

    def as_dict(self) -> dict[tuple[str, ...], str]:
        return dict(self.entries)


def derive_inference_table(
    observed: tuple[str, ...], procedure: Procedure, branches: Iterable[Branch]
) -> InferenceTable:
    """Build the inference table from the adversary-free ``branches``."""
    mapping: dict[tuple[str, ...], str] = {}
    for _prob, outcome in branches:
        obs = tuple(outcome[name] for name in observed)
        key = outcome["key"]
        if mapping.get(obs, key) != key:
            raise AmbiguityError(
                f"{procedure.printed}: observation {observed} = {obs} is consistent "
                f"with keys {mapping[obs]} and {key}; the protocol could not work"
            )
        mapping[obs] = key
    return InferenceTable(observed, procedure, tuple(sorted(mapping.items())))


# --- transcripts ----------------------------------------------------------


@dataclass(frozen=True)
class RoundTranscript:
    """Everything observable about one protocol round."""

    protocol: str
    procedure: Procedure
    key: str
    public_result: str | None
    bob_secret: str
    bob_inferred_key: str
    eve_record: "EveRecord | None" = None
    compared: bool = False
    detected: bool = False

    def __post_init__(self) -> None:
        if self.detected and not self.compared:
            raise ValueError("a round cannot be detected without being compared")

    def to_json_dict(self) -> dict:
        eve = None
        if self.eve_record is not None:
            eve = {
                "attack": self.eve_record.attack,
                "secret": self.eve_record.secret,
                "transformation": self.eve_record.transformation,
                "inferred_keys": list(self.eve_record.inferred_keys),
            }
        return {
            "protocol": self.protocol,
            "procedure": self.procedure.value,
            "key": self.key,
            "public_result": self.public_result,
            "bob_secret": self.bob_secret,
            "bob_inferred_key": self.bob_inferred_key,
            "eve": eve,
            "compared": self.compared,
            "detected": self.detected,
        }


def mark_compared(transcript: RoundTranscript) -> RoundTranscript:
    """Alice and Bob publicly compare this round's key bits."""
    return replace(
        transcript,
        compared=True,
        detected=transcript.bob_inferred_key != transcript.key,
    )


TABLE1_COLUMNS = ("procedure", "key", "public", "secret", "inferred")


def transcripts_to_csv(transcripts: Iterable[RoundTranscript]) -> str:
    """CSV export in the outcome-table column order."""
    lines = [",".join(TABLE1_COLUMNS)]
    for t in transcripts:
        lines.append(
            ",".join(
                [t.procedure.printed, t.key, t.public_result or "", t.bob_secret, t.bob_inferred_key]
            )
        )
    return "\n".join(lines) + "\n"


def transcripts_to_jsonl(transcripts: Iterable[RoundTranscript]) -> str:
    """One JSON object per round, newline separated."""
    return "".join(json.dumps(t.to_json_dict(), sort_keys=True) + "\n" for t in transcripts)


# --- protocol drivers -----------------------------------------------------


class _ProtocolBase:
    """One protocol's round driver; ``name`` picks its spec."""

    def __init__(self, conv: BellConvention, name: str):
        if name not in PROTOCOLS:
            raise ValueError(f"unknown protocol {name!r}")
        self.conv = conv
        self.name = name
        self.spec = PROTOCOLS[name]
        self._models: dict[tuple, RoundModel] = {}
        self.inference = {
            p: derive_inference_table(self.spec.observed, p, self.enumerate_branches(p))
            for p in Procedure
        }

    def round_model(self, procedure: Procedure, attack=None) -> RoundModel:
        """The round under ``attack``.

        Both procedures' plans are enumerated as one batch, once per attack ``cache_key``.
        """
        attack_key = attack.cache_key if attack is not None else None
        key = (procedure, attack_key)
        if key not in self._models:
            if attack is not None and attack.protocol != self.name:
                raise WrongProtocolError(
                    f"attack {attack.kind!r} targets the {attack.protocol}-qubit "
                    f"protocol, not {self.name}"
                )
            transit = attack.transit_plan() if attack is not None else None
            plans = [build_plan(self.spec, p, transit) for p in Procedure]
            for p, plan, found in zip(Procedure, plans, enumerate_plans(self.conv, plans)):
                # Read-only views: every caller shares these branches.
                branches = tuple((prob, MappingProxyType(out)) for prob, out in found)
                self._models[p, attack_key] = RoundModel(plan, branches, _eve_posterior(branches))
        return self._models[key]

    def enumerate_branches(self, procedure: Procedure, attack=None) -> tuple[Branch, ...]:
        """Exact distribution over (eve?, key, public?, secret) outcomes."""
        return self.round_model(procedure, attack).branches

    def run_round(self, procedure: Procedure, attack, rng: RandomSource) -> RoundTranscript:
        model = self.round_model(procedure, attack)
        outcomes = _sample_outcomes(model.tree, rng)
        public = outcomes.get("public")
        inferred = self.inference[procedure].infer(outcomes)
        eve_record = None
        if attack is not None:
            eve = outcomes["eve"]
            eve_record = attack.eve_record(eve, model.posterior[(eve, public)])
        return RoundTranscript(
            protocol=self.name,
            procedure=procedure,
            key=outcomes["key"],
            public_result=public,
            bob_secret=outcomes["secret"],
            bob_inferred_key=inferred,
            eve_record=eve_record,
        )

    def key_distribution(self, procedure: Procedure, attack=None) -> np.ndarray:
        """Exact marginal probability of each key label."""
        probs = dict.fromkeys(LABELS, 0.0)
        for prob, outcome in self.enumerate_branches(procedure, attack):
            probs[outcome["key"]] += prob
        return np.array([probs[lab] for lab in LABELS])


@lru_cache(maxsize=16)
def protocol_driver(conv: BellConvention, protocol: str) -> _ProtocolBase:
    return _ProtocolBase(conv, protocol)


# --- published outcome table ----------------------------------------------

# The adversary-free six-qubit outcome table, restricted to key 00: columns
# procedure, key, public, secret, inferred key.  Rows are ordered by
# (procedure, secret), which is the published order.
EXPECTED_TABLE1: tuple[tuple[str, str, str, str, str], ...] = (
    ("(i)", "00", "00", "00", "00"),
    ("(i)", "00", "01", "01", "00"),
    ("(i)", "00", "10", "10", "00"),
    ("(i)", "00", "11", "11", "00"),
    ("(ii)", "00", "00", "00", "00"),
    ("(ii)", "00", "10", "01", "00"),
    ("(ii)", "00", "01", "10", "00"),
    ("(ii)", "00", "11", "11", "00"),
)


def six_qubit_outcome_rows(conv: BellConvention) -> list[tuple[str, str, str, str, str]]:
    """All distinct adversary-free six-qubit rows with key 00."""
    driver = protocol_driver(conv, "six")
    rows = set()
    for procedure in Procedure:
        table = driver.inference[procedure]
        for prob, out in driver.enumerate_branches(procedure):
            if out["key"] != "00":
                continue
            inferred = table.infer(out)
            rows.add((procedure.printed, out["key"], out["public"], out["secret"], inferred))
    return sorted(rows, key=lambda r: (r[0], r[3], r[2]))


def reproduce_table1(conv: BellConvention) -> list[tuple[str, str, str, str, str]]:
    """Reproduce the adversary-free outcome table; raise on any drift."""
    rows = six_qubit_outcome_rows(conv)
    if tuple(rows) != EXPECTED_TABLE1:
        diff = _row_diff(EXPECTED_TABLE1, rows)
        raise TableMismatchError("six-qubit outcome table mismatch", diff)
    return rows


def _row_diff(expected: Iterable[tuple], actual: Iterable[tuple]) -> list[str]:
    diff = []
    expected, actual = list(expected), list(actual)
    for idx in range(max(len(expected), len(actual))):
        want = expected[idx] if idx < len(expected) else None
        got = actual[idx] if idx < len(actual) else None
        if want != got:
            diff.append(f"row {idx + 1}: expected {want}, got {got}")
    return diff
