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
An :class:`Attack` is one record: Eve's in-flight steps, her ancilla pairs
and her ``forward`` map.  :func:`build_plan` and its channel check read
only the entry and that record, never the protocol's name, and reroute the
honest steps through the attack's ``forward`` map.  A gate step holds
:func:`qstate.gate` names and refuses an unknown one when it is made;
:func:`enumerate_plans`, the one caller of ``qstate``'s batch kernels, looks
up each name's matrix.  An attack's two procedure plans are enumerated once,
as one batch, over every measurement branch; each branch comes out as its
mass, its outcomes and its path, the outcomes' ``LABELS`` indices.
:func:`outcome_masses` reads a family as one dense mass array, as the attack
search and :func:`derive_swap_table`, the swap algebra, do.  Bob's key
inference and Eve's posterior are one :func:`key_support` map, each
observation to the keys it occurs with, read off those outcomes (the
adversary-free ones for Bob), never assumed in closed form.  A round model
holds one :class:`Leaf` per branch, that branch and its two facts: did Bob
infer a wrong key, and did Eve's posterior pin it.  Every exact table and
probability reads the leaves, and every exact probability and Monte Carlo
count is a mass-weighted read of the two facts.  A round model builds no
tree: ``harness`` builds each run's round tree from the leaves' paths and
masses.

Qubits are numbered 1..8 as in the protocol narrative; conversion to the
0-based register happens only at the physics boundary.
"""

from __future__ import annotations

import itertools
import operator
from dataclasses import dataclass, replace
from enum import Enum
from functools import lru_cache, reduce
from types import MappingProxyType
from typing import Callable, Hashable, Iterable, Mapping, Sequence

import numpy as np

from . import qstate
from .bell import CONSTRAINT_ATOL, LABELS, BellConvention

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

    @property
    def rotation(self) -> str:
        """The gate each party applies before measuring: ``I`` under (i), ``S`` under (ii)."""
        return "S" if self is Procedure.P_II else "I"


class ConventionError(RuntimeError):
    """A convention's swap algebra is malformed."""


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
    """The :func:`qstate.gate` named ``gate`` on one qubit; an unknown name is refused here."""

    qubit: int
    gate: str

    def __post_init__(self) -> None:
        qstate.gate(self.gate)


@dataclass(frozen=True)
class MeasureStep:
    name: str
    pair: tuple[int, int]


@dataclass(frozen=True)
class ConditionalGateStep:
    """Gate on one qubit chosen by the outcome of an earlier measurement: the
    :func:`qstate.gate` named ``gates[k]`` after outcome ``LABELS[k]``."""

    qubit: int
    on: str
    gates: tuple[str, ...]

    def __post_init__(self) -> None:
        if len(self.gates) != len(LABELS):
            raise ValueError(f"one gate per outcome label, got {len(self.gates)}")
        for name in self.gates:
            qstate.gate(name)


@dataclass(frozen=True)
class Rotate:
    qubit: int  # a spec's gate slot: build_plan applies the procedure's rotation here


Step = GateStep | MeasureStep | ConditionalGateStep


@dataclass(frozen=True)
class Attack:
    """What an eavesdropper does while qubits are in flight, against ``protocol``.

    ``steps`` run at the interception point, before any announcement
    exists; the channel structurally cannot leak Alice's procedure choice
    to them.  ``ancilla_pairs`` are extra qubit pairs prepared in the
    labeled-00 state and appended to the register.  ``forward`` pairs an
    in-flight qubit with the physical qubit delivered in its place; an
    in-flight qubit it does not name is delivered as itself.  Equal values
    share one round model per driver.
    """

    kind: str
    protocol: str
    steps: tuple[Step, ...]
    ancilla_pairs: tuple[tuple[int, int], ...] = ()
    forward: tuple[tuple[int, int], ...] = ()


@dataclass(frozen=True)
class ProtocolSpec:
    """One protocol's geometry.

    ``pairs`` start in the labeled-00 state; ``in_flight`` qubits travel
    between the parties.  ``steps`` are Alice's measurements, then Bob's, as
    if nothing were intercepted; each :class:`Rotate` is a slot that
    :func:`build_plan` fills with the procedure's ``rotation``, so that both
    procedures share one step skeleton, and a spec holds no gate.  Bob
    infers the key from the ``observed`` outcomes; the ``announced`` outcomes
    are made public, so Eve observes them with her own outcome ``eve``.
    ``bob_observation(outcomes)`` and ``eve_observation(outcomes)`` read the
    two observations: one outcome alone, or a tuple of them in order.  Every
    observed or announced name must be measured by ``steps``.
    """

    pairs: tuple[tuple[int, int], ...]
    in_flight: frozenset[int]
    steps: tuple[Rotate | MeasureStep, ...]
    observed: tuple[str, ...]
    announced: tuple[str, ...]

    def __post_init__(self) -> None:
        if not all(isinstance(step, (Rotate, MeasureStep)) for step in self.steps):
            raise ValueError("spec steps must be Rotate slots and MeasureSteps: no gates")
        measured = {step.name for step in self.steps if isinstance(step, MeasureStep)}
        unmeasured = sorted(set(self.observed + self.announced) - measured)
        if unmeasured:
            raise ValueError(f"observed or announced outcomes {unmeasured} are never measured")
        # Built once: they key Bob's inference on every branch of an exact read, and
        # Eve's posterior in every attacked round.
        object.__setattr__(self, "bob_observation", operator.itemgetter(*self.observed))
        object.__setattr__(self, "eve_observation", operator.itemgetter("eve", *self.announced))


# Protocol name -> spec, in the order the CLI lists protocols.  Steps: Alice's
# line, then Bob's; the six-qubit public result is announced with the procedure.
PROTOCOLS: dict[str, ProtocolSpec] = {
    "six": ProtocolSpec(
        pairs=((1, 2), (3, 5), (4, 6)),
        in_flight=frozenset({2, 6}),
        steps=(
            Rotate(3), MeasureStep("key", (1, 3)), MeasureStep("public", (5, 6)),
            Rotate(4), MeasureStep("secret", (2, 4)),
        ),
        observed=("public", "secret"),
        announced=("public",),
    ),
    "four": ProtocolSpec(
        pairs=((1, 2), (3, 4)),
        in_flight=frozenset({2, 4}),
        steps=(
            Rotate(1), MeasureStep("key", (1, 3)),
            Rotate(2), MeasureStep("secret", (2, 4)),
        ),
        observed=("secret",),
        announced=(),
    ),
}

# What Bob's and Eve's inference read, in every protocol: no attack may measure into them.
RESERVED_NAMES = frozenset({"key"}.union(*(s.observed + s.announced for s in PROTOCOLS.values())))


@dataclass(frozen=True)
class Plan:
    """A fully wired round on a register of ``2 * len(pairs)`` qubits: its pairs, its ordered
    steps, and ``start``, the Bell label each pair begins in, 00 on every pair by default.
    A start that is not one label per pair is refused here."""

    pairs: tuple[tuple[int, int], ...]
    steps: tuple[Step, ...]
    start: tuple[str, ...] | None = None

    def __post_init__(self) -> None:
        if self.start is None:
            object.__setattr__(self, "start", ("00",) * len(self.pairs))
        if len(self.start) != len(self.pairs) or not set(self.start) <= set(LABELS):
            raise ValueError(f"one start label of {LABELS} per pair, got {self.start}")


def _validate_transit(spec: ProtocolSpec, attack: Attack) -> None:
    base = 2 * len(spec.pairs)
    ancilla = [q for pair in attack.ancilla_pairs for q in pair]
    if sorted(ancilla) != list(range(base + 1, base + 1 + len(ancilla))):
        raise MalformedAdversaryError(
            f"ancilla pairs must extend the register contiguously, got {attack.ancilla_pairs}"
        )
    allowed = spec.in_flight | set(ancilla)
    measured = set()  # Eve may condition a gate only on an outcome she has measured
    for step in attack.steps:
        bad = set(step.pair if isinstance(step, MeasureStep) else (step.qubit,)) - allowed
        if bad:
            raise MalformedAdversaryError(f"attack touches protected qubits {sorted(bad)}")
        if isinstance(step, MeasureStep) and step.name in RESERVED_NAMES:
            raise MalformedAdversaryError(f"attack reuses reserved measurement name {step.name!r}")
        if isinstance(step, ConditionalGateStep) and step.on not in measured:
            raise MalformedAdversaryError(f"attack conditions on {step.on!r} before measuring it")
        if isinstance(step, MeasureStep):
            measured.add(step.name)
    route = dict(attack.forward)
    if len(route) < len(attack.forward) or not route.keys() <= spec.in_flight:
        raise MalformedAdversaryError(f"forwards protected or repeated sources {attack.forward}")
    delivered = [route.get(q, q) for q in sorted(spec.in_flight)]
    if len(set(delivered)) < len(delivered) or not set(delivered) <= allowed:
        raise MalformedAdversaryError(f"delivers protected or repeated qubits {delivered}")


def build_plan(spec: ProtocolSpec, procedure: Procedure, attack: Attack | None) -> Plan:
    """Eve's steps, then the honest steps on the qubits actually delivered.

    Every spec :class:`Rotate` slot takes ``procedure.rotation``, so the two
    procedures' plans differ only in gate names and enumerate as one batch.
    """
    attack = attack or Attack("none", "", ())
    _validate_transit(spec, attack)
    route = dict(attack.forward)
    steps: list[Step] = list(attack.steps)
    for step in spec.steps:
        if isinstance(step, MeasureStep):
            steps.append(replace(step, pair=tuple(route.get(q, q) for q in step.pair)))
        else:
            steps.append(GateStep(route.get(step.qubit, step.qubit), procedure.rotation))
    return Plan(spec.pairs + attack.ancilla_pairs, tuple(steps))


# --- plan execution -------------------------------------------------------


# A branch: its mass, its read-only outcomes (measurement name -> label, in first-measured
# order), and its path, the outcomes' ``LABELS`` indices in that order.
Branch = tuple[float, Mapping[str, str], tuple[int, ...]]


def _skeleton(step: Step) -> tuple | MeasureStep:
    """The step with its gate names left out."""
    if isinstance(step, GateStep):
        return (GateStep, step.qubit)
    if isinstance(step, ConditionalGateStep):
        return (ConditionalGateStep, step.qubit, step.on)
    return step


def _enumerate(conv: BellConvention, plans: Sequence[Plan]) -> tuple:
    """Every live branch of a plan family, as rows ``(owner, masses, paths, names)``: each
    row's plan and mass, and its path, the ``LABELS`` index of the latest outcome of each
    measurement name, the names in first-measured order.

    Every live branch is a row of one amplitude batch, so each step is one batched gate or
    projection.  Each distinct start, the kron of its pairs' labeled states, its qubits in the
    pairs' listed order, is built once; the pairs must partition a register of
    1..``qstate.MAX_QUBITS`` qubits.  Survivors of a measurement keep (row, outcome) order.  A
    conditional gate picks each row's matrix by the outcome column it reads.  A measurement's
    post-measurement states are built by the step after it, so the last one builds none.
    """
    if len({(p.pairs, tuple(map(_skeleton, p.steps))) for p in plans}) != 1:
        raise ValueError("enumerate_plans needs plans that differ only in gate names and starts")
    pairs = plans[0].pairs
    n = 2 * len(pairs)
    order = tuple(q - 1 for pair in pairs for q in pair)  # the qubits indexing amps, high first
    if sorted(order) != list(range(n)):
        raise ValueError(f"pairs {pairs} do not partition the {n}-qubit register")
    if not 0 < n <= qstate.MAX_QUBITS:
        raise ValueError(f"a register holds 1..{qstate.MAX_QUBITS} qubits, got {n}")
    basis = conv.basis_matrix
    # np.multiply.outer, raveled, forms np.kron's products without its per-call overhead.
    starts = {p.start for p in plans}
    states = {s: reduce(np.multiply.outer, [conv.states[k] for k in s]).ravel() for s in starts}
    amps = np.stack([states[p.start] for p in plans])
    measured: tuple = ()  # the last measurement's (proj, probs, picks), not yet collapsed
    owner = np.arange(len(plans))  # the plan each row belongs to
    masses = np.ones(len(plans))
    # Column j holds each row's outcome index of the j-th measurement.
    picked = np.empty((len(plans), 0), dtype=np.intp)
    column: dict[str, int] = {}  # measurement name, in first-measured order -> its latest column
    for steps in zip(*(p.steps for p in plans)):
        step = steps[0]
        if measured:
            amps, measured = qstate.collapse_rows(basis, *measured), ()
        if isinstance(step, MeasureStep):
            amps, order = qstate.to_front(amps, order, (step.pair[0] - 1, step.pair[1] - 1))
            proj, probs = qstate.project_rows(amps, basis)
            picks = np.flatnonzero(probs > PROB_CUTOFF)
            measured = (proj, probs, picks)
            rows, outcome = np.divmod(picks, 4)
            owner = owner[rows]
            masses = masses[rows] * probs.flat[picks]
            column[step.name] = picked.shape[1]
            picked = np.column_stack((picked[rows], outcome))
            continue
        amps, order = qstate.to_front(amps, order, (step.qubit - 1,))
        if isinstance(step, GateStep):
            names = [s.gate for s in steps]
            shared = len(set(names)) == 1
            amps = qstate.gate_rows(amps, tuple(map(qstate.gate, names)), None if shared else owner)
        else:
            matrices = tuple(qstate.gate(g) for s in steps for g in s.gates)  # plan-major
            on = picked[:, column[step.on]]
            amps = qstate.gate_rows(amps, matrices, owner * len(LABELS) + on)
    return owner, masses, picked[:, list(column.values())], tuple(column)


def enumerate_plans(conv: BellConvention, plans: Sequence[Plan]) -> list[list[Branch]]:
    """All measurement branches, with their exact probabilities, of a plan family, plans that
    differ only in gate names and start labels, enumerated as one batch: each plan's branches
    in depth-first order, each as a :data:`Branch`."""
    owner, masses, paths, names = _enumerate(conv, plans)
    branches: list[list[Branch]] = [[] for _ in plans]
    for i, mass, path in zip(owner.tolist(), masses.tolist(), map(tuple, paths.tolist())):
        outcomes = MappingProxyType({name: LABELS[k] for name, k in zip(names, path)})
        branches[i].append((mass, outcomes, path))
    return branches


def outcome_masses(conv: BellConvention, plans: Sequence[Plan]) -> np.ndarray:
    """A plan family's branch masses, enumerated as :func:`enumerate_plans` enumerates them, as
    one dense ``(plans, 4, ..., 4)`` array with an outcome axis per measurement name in
    first-measured order: ``[i, k, ...]`` is plan ``i``'s mass of outcomes ``LABELS[k], ...``."""
    owner, masses, paths, _names = _enumerate(conv, plans)
    table = np.zeros((len(plans),) + (len(LABELS),) * paths.shape[1])
    np.add.at(table, (owner, *paths.T), masses)
    return table


# The swap algebra's family: one plan per (a, b), in LABELS order, whose pairs (1,2) and
# (3,4) start in a and b, and which Bell-measures (1,3), then (2,4).
_SWAP_FAMILY: tuple[Plan, ...] = tuple(
    Plan(((1, 2), (3, 4)), (MeasureStep("m", (1, 3)), MeasureStep("r", (2, 4))), start)
    for start in itertools.product(LABELS, repeat=2)
)


def derive_swap_table(conv: BellConvention) -> Mapping[tuple[str, str, str], str]:
    """The entanglement-swap outcome algebra, read off the swap family's masses.

    A read-only mapping: ``table[a, b, m] = r`` means that with pairs (1,2) in
    state a and (3,4) in state b, Bell-measuring (1,3) with outcome m leaves
    (2,4) in state r.  For every (a, b) the four outcomes are uniform and
    m -> r is a bijection, or :class:`ConventionError`.
    """
    masses = outcome_masses(conv, _SWAP_FAMILY)  # [(a, b), m, r]
    probs = masses.sum(axis=2)
    uniform = (np.abs(probs - 0.25) <= CONSTRAINT_ATOL).all(axis=1)
    # hits[s, m, r]: outcome m leaves the remainder pair in Bell state r.
    hits = masses > (1.0 - CONSTRAINT_ATOL) * probs[:, :, None]
    single = hits.sum(axis=2) == 1
    # With one state per outcome, the map is a bijection when it reaches all four.
    bijective = hits.any(axis=1).all(axis=1)
    for s in np.flatnonzero(~(uniform & single.all(axis=1) & bijective))[:1]:
        a, b = _SWAP_FAMILY[s].start
        if not uniform[s]:
            raise ConventionError(
                f"swap outcomes for (a={a}, b={b}) are not uniform: {probs[s].tolist()}"
            )
        if not single[s].all():
            m = LABELS[int(np.argmin(single[s]))]
            raise ConventionError(f"swap remainder for (a={a}, b={b}, m={m}) is not a Bell state")
        raise ConventionError(f"swap map for (a={a}, b={b}) is not a bijection")
    return MappingProxyType({
        (a, b, m): LABELS[r]
        for (a, b), row in zip((p.start for p in _SWAP_FAMILY), hits.argmax(axis=2).tolist())
        for m, r in zip(LABELS, row)
    })


# An observation (``ProtocolSpec.bob_observation`` or ``eve_observation`` of a
# branch) -> the keys with positive probability given it.
KeySupport = Mapping[Hashable, tuple[str, ...]]


def key_support(
    outcomes: Iterable[Mapping[str, str]], observe: Callable[[Mapping[str, str]], Hashable]
) -> KeySupport:
    """Each observation ``observe(out)`` of the branches' outcomes -> their sorted keys, read-only.

    Every enumerated branch has positive mass.  Over the adversary-free branches
    with Bob's observation this is his inference; over an attacked round's
    branches with Eve's it is her posterior.
    """
    support: dict[Hashable, set[str]] = {}
    for out in outcomes:
        support.setdefault(observe(out), set()).add(out["key"])
    return MappingProxyType({obs: tuple(sorted(keys)) for obs, keys in support.items()})


@dataclass(frozen=True)
class Leaf:
    """One branch, as :func:`enumerate_plans` hands it out, and its two facts, which every
    exact and Monte Carlo read weighs by its ``mass``.

    ``outcomes`` is the branch's read-only mapping and ``path`` its ``LABELS`` indices.
    ``detected``: Bob infers a key other than Alice's.  ``informed``: Eve's posterior for
    her observation is exactly the key; never without an attack.
    """

    mass: float
    outcomes: Mapping[str, str]
    path: tuple[int, ...]
    detected: bool
    informed: bool


@dataclass(frozen=True)
class RoundModel:
    """A round's exact branches, one :class:`Leaf` each in branch order, and Eve's
    ``posterior``, her :func:`key_support`, empty without an attack."""

    leaves: tuple[Leaf, ...]
    posterior: KeySupport


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
        # Bob's inference: his observation of an adversary-free branch -> its one key.
        # Building the adversary-free models fills it, before any leaf reads it.
        self.inference: dict[Procedure, KeySupport] = {}
        self.round_model(Procedure.P_I)

    def infer(self, procedure: Procedure, outcomes: Mapping[str, str | None]) -> str:
        """Bob's key for a round's outcomes; ``KeyError`` if no branch made his observation."""
        return self.inference[procedure][self.spec.bob_observation(outcomes)][0]

    def round_model(self, procedure: Procedure, attack: Attack | None = None) -> RoundModel:
        """The round under ``attack``.

        Both procedures' plans are enumerated as one batch, once per attack value:
        equal attacks share one model.  The adversary-free batch also sets Bob's
        inference, and refuses an observation consistent with two keys.
        """
        model = self._models.get((procedure, attack))
        if model is None:
            if attack is not None and attack.protocol != self.name:
                raise WrongProtocolError(
                    f"attack {attack.kind!r} targets the {attack.protocol}-qubit "
                    f"protocol, not {self.name}"
                )
            plans = [build_plan(self.spec, p, attack) for p in Procedure]
            for p, branches in zip(Procedure, enumerate_plans(self.conv, plans)):
                outcomes = [out for _mass, out, _path in branches]
                if attack is None:
                    self.inference[p] = key_support(outcomes, self.spec.bob_observation)
                    for obs, keys in self.inference[p].items():
                        if len(keys) > 1:
                            raise AmbiguityError(
                                f"{p.printed}: observation {self.spec.observed} = {obs} "
                                f"is consistent with keys {', '.join(keys)}; the protocol "
                                "could not work"
                            )
                    posterior = MappingProxyType({})
                else:
                    posterior = key_support(outcomes, self.spec.eve_observation)
                eve_observation = self.spec.eve_observation
                leaves = tuple(
                    Leaf(mass, out, path, self.infer(p, out) != out["key"],
                         attack is not None and posterior[eve_observation(out)] == (out["key"],))
                    for mass, out, path in branches
                )
                self._models[p, attack] = RoundModel(leaves, posterior)
            model = self._models[procedure, attack]
        return model


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
TABLE1_COLUMNS = ("procedure", "key", "public", "secret", "inferred")


def outcome_rows(conv: BellConvention, attack: Attack | None = None) -> list[tuple[str, ...]]:
    """All distinct six-qubit rows with key 00 under ``attack``: procedure, key, public, secret
    and Bob's inferred key, then with an attack Eve's outcome, her correction for it and her
    inferred keys.  Rows sort by procedure, secret, Eve's outcome and public."""
    driver = protocol_driver(conv, "six")
    rows = set()
    for procedure in Procedure:
        model = driver.round_model(procedure, attack)
        for out in (leaf.outcomes for leaf in model.leaves):
            if out["key"] != "00":
                continue
            row = (procedure.printed, out["key"], out["public"], out["secret"],
                   driver.infer(procedure, out))
            if attack is not None:  # Eve's correction is her last step
                row += (out["eve"], attack.steps[-1].gates[LABELS.index(out["eve"])],
                        " or ".join(model.posterior[driver.spec.eve_observation(out)]))
            rows.add(row)
    return sorted(rows, key=lambda r: (r[0], r[3], *r[5:6], r[2]))


def reproduce_table1(conv: BellConvention) -> list[tuple[str, str, str, str, str]]:
    """Reproduce the adversary-free outcome table; raise on any drift."""
    return _checked_rows("six-qubit outcome table", EXPECTED_TABLE1, outcome_rows(conv))


def _checked_rows(table: str, expected: tuple[tuple, ...], rows: list[tuple]) -> list[tuple]:
    """``rows`` when they are ``expected``; else raise the table's mismatch with the row diff."""
    if tuple(rows) != expected:
        raise TableMismatchError(f"{table} mismatch", _row_diff(expected, rows))
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
