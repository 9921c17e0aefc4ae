import itertools
import json
from dataclasses import replace

import numpy as np
import pytest

from swapqkd import adversary, bell, protocol
from swapqkd.adversary import FourSwapAttack, TailoredAttack, ZlgAttack
from swapqkd.bell import LABELS, derive_swap_table
from swapqkd.protocol import (
    EXPECTED_TABLE1,
    PROB_CUTOFF,
    PROTOCOLS,
    AmbiguityError,
    ConditionalGateStep,
    GateStep,
    MalformedAdversaryError,
    MeasureStep,
    Plan,
    Procedure,
    RoundTranscript,
    TableMismatchError,
    TransitPlan,
    WrongProtocolError,
    build_plan,
    mark_compared,
    protocol_driver,
    reproduce_table1,
    transcripts_to_csv,
)
from swapqkd.qstate import GATES, RandomSource


@pytest.fixture(scope="module", params=["six", "four"])
def driver(request, conv):
    return protocol_driver(conv, request.param)


# --- adversary-free correctness ----------------------------------------------


def test_inferred_key_equals_key_on_every_branch(driver):
    for procedure in Procedure:
        branches = driver.enumerate_branches(procedure)
        assert abs(sum(p for p, _ in branches) - 1.0) < 1e-10
        for _prob, out in branches:
            inferred = driver.inference[procedure].infer(out)
            assert inferred == out["key"]


def test_key_is_uniform(driver):
    for procedure in Procedure:
        dist = driver.key_distribution(procedure)
        assert np.allclose(dist, 0.25, atol=1e-10)


def test_six_qubit_branch_counts(conv):
    drv = protocol_driver(conv, "six")
    for procedure in Procedure:
        branches = drv.enumerate_branches(procedure)
        # 4 keys x 4 publics, secret fully determined
        assert len(branches) == 16
        for prob, _ in branches:
            assert abs(prob - 1 / 16) < 1e-10


def test_four_qubit_branch_counts(conv):
    drv = protocol_driver(conv, "four")
    for procedure in Procedure:
        branches = drv.enumerate_branches(procedure)
        assert len(branches) == 4
        for prob, out in branches:
            assert abs(prob - 1 / 4) < 1e-10
            assert out["secret"] == out["key"]  # derived: secret pins the key


# --- breadth-first enumeration ---------------------------------------------------


def _walk_oracle(conv, plan):
    """The depth-first walk that enumerate_plan replaced, one state at a time.

    It keeps that walk's own arithmetic: a gate is ``matrix @ (2, rest)``, a
    measurement projects with ``basis.conj() @ (4, rest)`` and collapses as
    ``outer(basis[k], projection) / sqrt(p)``.
    """
    basis = conv.basis_matrix
    n = plan.num_qubits
    branches = []

    def front(amps, qubits):
        axes = [n - q for q in qubits]  # 1-based qubit q is bit q - 1
        return np.moveaxis(amps.reshape((2,) * n), axes, range(len(axes))), axes

    def back(mat, axes):
        return np.moveaxis(mat.reshape((2,) * n), range(len(axes)), axes).reshape(-1)

    def walk(amps, idx, prob, outcomes):
        if idx == len(plan.steps):
            branches.append((prob, outcomes))
            return
        step = plan.steps[idx]
        if isinstance(step, MeasureStep):
            arr, axes = front(amps, step.pair)
            proj = basis.conj() @ arr.reshape(4, -1)
            probs = np.einsum("kr,kr->k", proj, proj.conj()).real
            for k in range(4):
                if probs[k] > PROB_CUTOFF:
                    after = back(np.outer(basis[k], proj[k]) / np.sqrt(probs[k]), axes)
                    out = {**outcomes, step.name: LABELS[k]}
                    walk(after, idx + 1, prob * float(probs[k]), out)
            return
        matrix = step.matrix if isinstance(step, GateStep) else step.gate_for(outcomes[step.on])
        arr, axes = front(amps, (step.qubit,))
        walk(back(matrix @ arr.reshape(2, -1), axes), idx + 1, prob, outcomes)

    walk(protocol._initial_state(conv, plan).amplitudes, 0, 1.0, {})
    return branches


def _search_families():
    """The tailored-attack search's four plan families, as it batches them."""
    rotations = list(itertools.product(adversary.PRE_UNITARIES, repeat=2))
    for procedure in Procedure:
        yield [adversary._alice_block_plan(g, procedure) for g in adversary.CORRECTIONS_EXTENDED]
        yield [adversary._travel_block_plan(u6, u8, procedure) for u6, u8 in rotations]


def _exact_pass_plans():
    """Every plan an exact pass can enumerate: 834 in all.

    Both procedures of six/{none, zlg, tailored} and four/{none, four-swap
    guessing (i), guessing (ii)} for each of the 64 conventions, then the
    16 Alice-block and 50 travel-block plans of the tailored-attack search.
    """
    for conv in bell.all_conventions():
        six = [None, ZlgAttack(conv).transit_plan(), TailoredAttack(conv).transit_plan()]
        four = [None] + [FourSwapAttack(conv, guess).transit_plan() for guess in Procedure]
        for procedure in Procedure:
            for transit in six:
                yield conv, build_plan(PROTOCOLS["six"], procedure, transit)
            for transit in four:
                yield conv, build_plan(PROTOCOLS["four"], procedure, transit)
    conv = bell.convention()
    for family in _search_families():
        for plan in family:
            yield conv, plan


def _assert_same_branches(got, want):
    assert [list(out.items()) for _p, out in got] == [list(out.items()) for _p, out in want]
    assert [p.hex() for p, _out in got] == [p.hex() for p, _out in want]


def test_breadth_first_enumeration_matches_depth_first_walk():
    plans = list(_exact_pass_plans())
    assert len(plans) == 834
    for conv, plan in plans:
        _assert_same_branches(protocol.enumerate_plan(conv, plan), _walk_oracle(conv, plan))
    # Each search family as one batch: every plan gets what it gets alone.
    conv = bell.convention()
    for family in _search_families():
        batch = protocol.enumerate_plans(conv, family)
        assert len(batch) == len(family)
        for plan, got in zip(family, batch):
            _assert_same_branches(got, _walk_oracle(conv, plan))
    # Conditional gates that differ per plan: interceptions sharing the frozen
    # pre-rotations, each with its own correction map.
    frozen = adversary.FROZEN_TAILORED_PARAMS
    names = [name for _m, name in frozen.pauli_map]
    maps = [frozen.pauli_map, ZlgAttack(conv).params.pauli_map]
    maps += [tuple(zip(LABELS, names[k:] + names[:k])) for k in (1, 2)]
    for procedure in Procedure:
        attacks = [TailoredAttack(conv, replace(frozen, pauli_map=m)) for m in maps]
        family = [build_plan(PROTOCOLS["six"], procedure, a.transit_plan()) for a in attacks]
        for plan, got in zip(family, protocol.enumerate_plans(conv, family)):
            _assert_same_branches(got, _walk_oracle(conv, plan))


def test_round_models_match_depth_first_walk_without_identity_steps():
    # Procedure (i) plans carry an identity where (ii) rotates, so that both
    # procedures batch together.  Every driver round model must still be
    # bit-identical to the depth-first walk of the plan without those steps.
    checked = 0
    for conv in bell.all_conventions():
        for name, attacks in (
            ("six", (None, ZlgAttack(conv), TailoredAttack(conv))),
            ("four", (None,) + tuple(FourSwapAttack(conv, guess) for guess in Procedure)),
        ):
            driver = protocol._ProtocolBase(conv, name)
            measures_only = tuple(s for s in PROTOCOLS[name].steps if isinstance(s, MeasureStep))
            unrotated = replace(PROTOCOLS[name], steps=measures_only)
            for attack in attacks:
                transit = attack.transit_plan() if attack is not None else None
                for procedure in Procedure:
                    model = driver.round_model(procedure, attack)
                    spec = unrotated if procedure is Procedure.P_I else PROTOCOLS[name]
                    plan = build_plan(spec, procedure, transit)
                    if procedure is Procedure.P_I:
                        assert len(plan.steps) < len(model.plan.steps)
                    _assert_same_branches(model.branches, _walk_oracle(conv, plan))
                    checked += 1
    assert checked == 64 * 12


def test_enumeration_rejects_non_unitary_gates(conv):
    shear = np.array([[1, 1], [0, 1]], dtype=complex)
    with pytest.raises(ValueError, match="not unitary"):
        protocol.enumerate_plan(conv, Plan(2, ((1, 2),), (GateStep(1, shear),)))
    gates = tuple((lab, shear if lab == "11" else GATES["I"]) for lab in LABELS)
    plan = Plan(
        4, ((1, 2), (3, 4)), (MeasureStep("m", (1, 3)), ConditionalGateStep(2, "m", gates))
    )
    with pytest.raises(ValueError, match="not unitary"):
        protocol.enumerate_plan(conv, plan)
    # In a batch, one plan's non-unitary matrix fails the whole batch.
    flips = ConditionalGateStep(2, "m", tuple((lab, GATES["X"]) for lab in LABELS))
    unitary = replace(plan, steps=(plan.steps[0], flips))
    with pytest.raises(ValueError, match="not unitary"):
        protocol.enumerate_plans(conv, [unitary, plan])
    single = Plan(2, ((1, 2),), (GateStep(1, GATES["S"]),))
    with pytest.raises(ValueError, match="not unitary"):
        protocol.enumerate_plans(conv, [single, replace(single, steps=(GateStep(1, shear),))])


def test_enumerate_plans_rejects_mismatched_skeletons(conv):
    base = adversary._travel_block_plan("X", "S", Procedure.P_I)
    steps = base.steps
    assert isinstance(steps[0], GateStep) and isinstance(steps[2], MeasureStep)
    # Plans that differ only in gate matrices batch together, across procedures too.
    others = [
        adversary._travel_block_plan("Y", "I", Procedure.P_I),
        adversary._travel_block_plan("X", "S", Procedure.P_II),
    ]
    assert len(protocol.enumerate_plans(conv, [base] + others)) == 3
    cond = ConditionalGateStep(1, "eve", tuple((lab, GATES["X"]) for lab in LABELS))
    six = build_plan(PROTOCOLS["six"], Procedure.P_I, TailoredAttack(conv).transit_plan())
    at = next(i for i, s in enumerate(six.steps) if isinstance(s, ConditionalGateStep))
    tail = six.steps[at]
    mismatched = [
        replace(base, steps=steps + (GateStep(1, GATES["X"]),)),  # one more step
        replace(base, pairs=((1, 3), (2, 4))),
        replace(base, steps=(GateStep(3, steps[0].matrix),) + steps[1:]),  # another qubit
        replace(base, steps=steps[:2] + (MeasureStep("m", (2, 4)),) + steps[3:]),  # name
        replace(base, steps=steps[:2] + (MeasureStep("eve", (4, 2)),) + steps[3:]),  # pair
        replace(base, steps=(cond,) + steps[1:]),  # a conditional gate for a gate
    ]
    for plan in mismatched:
        with pytest.raises(ValueError, match="differ only in gate matrices"):
            protocol.enumerate_plans(conv, [base, plan])
    for changed in (
        replace(tail, on="key"),
        replace(tail, gates=tail.gates[::-1]),  # labels in another order
    ):
        steps6 = six.steps[:at] + (changed,) + six.steps[at + 1:]
        with pytest.raises(ValueError, match="differ only in gate matrices"):
            protocol.enumerate_plans(conv, [six, replace(six, steps=steps6)])
    with pytest.raises(ValueError, match="differ only in gate matrices"):
        protocol.enumerate_plans(conv, [])


# --- inference tables ---------------------------------------------------------


def test_six_inference_tables_are_total_and_balanced(conv):
    for procedure in Procedure:
        table = protocol_driver(conv, "six").inference[procedure].as_dict()
        assert len(table) == 16  # every (public, secret) combination reachable
        for key in LABELS:
            assert sum(1 for v in table.values() if v == key) == 4


def test_four_inference_tables_are_total(conv):
    for procedure in Procedure:
        table = protocol_driver(conv, "four").inference[procedure].as_dict()
        assert len(table) == 4
        assert sorted(table.values()) == sorted(LABELS)


def test_inference_rejects_unknown_protocol(conv):
    with pytest.raises(ValueError):
        protocol_driver(conv, "five")


def test_one_cached_driver_per_named_protocol(conv):
    assert tuple(PROTOCOLS) == ("six", "four")
    for name in PROTOCOLS:
        driver = protocol_driver(conv, name)
        assert driver.name == name
        assert protocol_driver(conv, name) is driver


def test_inference_lookup_unknown_observation(conv):
    table = protocol_driver(conv, "six").inference[Procedure.P_I]
    with pytest.raises(KeyError):
        table.infer({"public": None, "secret": "00"})


def test_six_p1_inference_is_swap_table_composition(conv):
    # The (i) inference must equal two chained swap lookups: the key
    # measurement swaps (2,5) out of the first two pairs, the public
    # measurement swaps (2,4) out of (2,5) and (4,6).
    swap = derive_swap_table(conv)
    table = protocol_driver(conv, "six").inference[Procedure.P_I]
    for key in LABELS:
        middle = swap.lookup("00", "00", key)
        for public in LABELS:
            secret = swap.lookup(middle, "00", public)
            assert table.infer({"public": public, "secret": secret}) == key


# --- published outcome table ---------------------------------------------------


def test_reproduce_table1_rows(conv):
    rows = reproduce_table1(conv)
    assert len(rows) == 8
    assert rows[0] == ("(i)", "00", "00", "00", "00")
    assert rows[6] == ("(ii)", "00", "01", "10", "00")
    assert tuple(rows) == EXPECTED_TABLE1


def test_table_mismatch_diff_is_row_level():
    err = TableMismatchError("probe", ["row 3: expected a, got b"])
    assert err.diff == ["row 3: expected a, got b"]
    assert "row 3" in str(err)


# --- specific published rows ----------------------------------------------------


def test_exact_reads_leave_the_outcome_tree_unbuilt(conv, monkeypatch):
    # Tables, probabilities, posteriors and the attack search read only the
    # branches; the tree Monte Carlo samples is built on its first read.
    fresh = protocol._ProtocolBase(conv, "six")
    monkeypatch.setattr(protocol, "protocol_driver", lambda _conv, _name: fresh)
    monkeypatch.setattr(adversary, "protocol_driver", lambda _conv, _name: fresh)
    assert tuple(reproduce_table1(conv)) == EXPECTED_TABLE1
    assert tuple(adversary.reproduce_table2(conv)) == adversary.EXPECTED_TABLE2
    assert adversary.derive_tailored_attack(conv) == adversary.FROZEN_TAILORED_PARAMS
    for procedure in Procedure:
        for attack in (ZlgAttack(conv), TailoredAttack(conv)):
            adversary.attack_detection_probability(conv, "six", procedure, attack)
            adversary.eve_information_probability(conv, "six", procedure, attack)
    models = list(fresh._models.values())
    assert len(models) == 6
    assert all("tree" not in vars(model) for model in models)
    fresh.run_round(Procedure.P_II, TailoredAttack(conv), RandomSource(0))
    model = fresh.round_model(Procedure.P_II, TailoredAttack(conv))
    assert vars(model)["tree"] is model.tree == protocol._outcome_tree(model.branches)
    assert sum("tree" in vars(m) for m in models) == 1


def test_driver_enumerates_each_adversary_free_plan_once(conv, monkeypatch):
    # Bob's inference tables and the outcome table read the driver's memo.
    calls = []
    real = protocol.enumerate_plans
    monkeypatch.setattr(
        protocol, "enumerate_plans", lambda conv, plans: calls.append(plans) or real(conv, plans)
    )
    fresh = protocol._ProtocolBase(conv, "six")
    # One batch holding the adversary-free plan of each procedure.
    assert calls == [[build_plan(PROTOCOLS["six"], p, None) for p in Procedure]]
    monkeypatch.setattr(protocol, "protocol_driver", lambda _conv, _name: fresh)
    assert tuple(reproduce_table1(conv)) == EXPECTED_TABLE1
    assert len(calls) == 1


def test_p1_key00_public01_row(conv):
    drv = protocol_driver(conv, "six")
    outs = [o for _p, o in drv.enumerate_branches(Procedure.P_I)
            if o["key"] == "00" and o["public"] == "01"]
    assert len(outs) == 1
    assert outs[0]["secret"] == "01"
    assert drv.inference[Procedure.P_I].infer({"public": "01", "secret": "01"}) == "00"


def test_p2_key00_public10_row(conv):
    drv = protocol_driver(conv, "six")
    outs = [o for _p, o in drv.enumerate_branches(Procedure.P_II)
            if o["key"] == "00" and o["public"] == "10"]
    assert len(outs) == 1
    assert outs[0]["secret"] == "01"
    assert drv.inference[Procedure.P_II].infer({"public": "10", "secret": "01"}) == "00"


# --- transcripts -----------------------------------------------------------------


def _step_names(plan):
    """Plan steps as ("S", qubit) for the basis change, (name, pair) for a measurement."""
    names = []
    for step in plan.steps:
        if isinstance(step, MeasureStep):
            names.append((step.name, step.pair))
        else:
            assert np.array_equal(step.matrix, GATES["S"])
            names.append(("S", step.qubit))
    return names


def test_round_transcript_events_order(conv):
    # Alice rotates and measures the key, then the public pair (announced
    # with the procedure); only then does Bob rotate and measure.
    plan = protocol_driver(conv, "six").round_model(Procedure.P_II).plan
    assert _step_names(plan) == [
        ("S", 3), ("key", (1, 3)), ("public", (5, 6)), ("S", 4), ("secret", (2, 4)),
    ]


def test_four_qubit_rotation_precedes_key_measurement(conv):
    plan = protocol_driver(conv, "four").round_model(Procedure.P_II).plan
    assert _step_names(plan) == [("S", 1), ("key", (1, 3)), ("S", 2), ("secret", (2, 4))]


def test_transcript_flags_and_comparison(conv):
    transcript = protocol_driver(conv, "six").run_round(Procedure.P_I, None, RandomSource(0))
    assert not transcript.compared and not transcript.detected
    compared = mark_compared(transcript)
    assert compared.compared
    assert not compared.detected  # no adversary: inference always correct
    with pytest.raises(ValueError):
        RoundTranscript(
            protocol="six", procedure=Procedure.P_I, key="00", public_result="00",
            bob_secret="00", bob_inferred_key="00", compared=False, detected=True,
        )


def test_transcript_json_and_csv(conv):
    driver, rng = protocol_driver(conv, "six"), RandomSource(12)
    transcripts = [driver.run_round(Procedure.P_I, None, rng) for _ in range(3)]
    for t in transcripts:
        doc = json.loads(json.dumps(t.to_json_dict()))
        assert doc["protocol"] == "six"
        assert doc["procedure"] == "i"
        assert doc["eve"] is None
        assert doc["key"] in LABELS
    csv_text = transcripts_to_csv(transcripts)
    lines = csv_text.strip().split("\n")
    assert lines[0] == "procedure,key,public,secret,inferred"
    assert len(lines) == 4
    jsonl = protocol.transcripts_to_jsonl(transcripts).strip().split("\n")
    assert len(jsonl) == 3
    assert all(json.loads(line)["protocol"] == "six" for line in jsonl)


def test_transcript_json_includes_eve(conv):
    attack = ZlgAttack(conv)
    transcript = protocol_driver(conv, "six").run_round(Procedure.P_I, attack, RandomSource(3))
    doc = transcript.to_json_dict()
    assert doc["eve"]["attack"] == "zlg"
    assert doc["eve"]["transformation"] in ("I", "X", "Y", "Z")
    assert doc["eve"]["inferred_keys"] == [transcript.key]


def test_round_functions_are_deterministic(conv):
    a = protocol_driver(conv, "six").run_round(Procedure.P_II, None, RandomSource(42))
    b = protocol_driver(conv, "six").run_round(Procedure.P_II, None, RandomSource(42))
    assert a == b


# --- channel contract ------------------------------------------------------------


class _BadAttack:
    kind = "bad"
    cache_key = ("bad",)

    def __init__(self, transit, protocol="six"):
        self._transit = transit
        self.protocol = protocol

    def transit_plan(self):
        return self._transit

    def eve_record(self, outcome, inferred_keys):  # pragma: no cover
        return None


def test_attack_may_not_touch_protected_qubits(conv):
    bad = _BadAttack(TransitPlan(steps=(GateStep(1, GATES["X"]),)))
    with pytest.raises(MalformedAdversaryError):
        protocol_driver(conv, "six").run_round(Procedure.P_I, bad, RandomSource(0))


def test_attack_ancillas_must_extend_register(conv):
    bad = _BadAttack(TransitPlan(ancilla_pairs=((9, 10),)))
    with pytest.raises(MalformedAdversaryError):
        protocol_driver(conv, "six").run_round(Procedure.P_I, bad, RandomSource(0))


@pytest.mark.parametrize("name", list(PROTOCOLS))
def test_attack_may_not_reuse_reserved_names(conv, name):
    # The same three names in every protocol: a four-qubit attack measuring
    # "public" would otherwise feed Eve's posterior key.
    assert protocol.RESERVED_NAMES == {"key", "public", "secret"}
    pair = tuple(sorted(PROTOCOLS[name].in_flight))
    for reserved in sorted(protocol.RESERVED_NAMES):
        bad = _BadAttack(TransitPlan(steps=(MeasureStep(reserved, pair),)), name)
        with pytest.raises(MalformedAdversaryError, match="reserved measurement name"):
            protocol_driver(conv, name).run_round(Procedure.P_I, bad, RandomSource(0))
    build_plan(PROTOCOLS[name], Procedure.P_I, TransitPlan(steps=(MeasureStep("eve", pair),)))


def test_attack_may_not_forward_same_qubit_twice(conv):
    bad = _BadAttack(TransitPlan(forward=((6, 2), (2, 2))))
    with pytest.raises(MalformedAdversaryError):
        protocol_driver(conv, "six").run_round(Procedure.P_I, bad, RandomSource(0))


@pytest.mark.parametrize(
    "forward",
    [
        ((2, 1), (4, 3)),  # delivers Alice's qubits 1 and 3 to Bob
        ((4, 1),),  # one protected qubit
        ((1, 2),),  # from a qubit that is not in flight
        ((2, 4), (2, 2)),  # one in-flight qubit forwarded twice
        ((2, 4),),  # 4 arrives in place of 2, and as itself
    ],
)
def test_four_qubit_forwarding_is_checked(forward):
    with pytest.raises(MalformedAdversaryError):
        build_plan(PROTOCOLS["four"], Procedure.P_I, TransitPlan(forward=forward))


def test_forwarding_reroutes_the_honest_steps():
    # Swapping Bob's two qubits in flight moves his S and his measurement.
    plan = build_plan(PROTOCOLS["four"], Procedure.P_II, TransitPlan(forward=((2, 4), (4, 2))))
    assert _step_names(plan) == [("S", 1), ("key", (1, 3)), ("S", 4), ("secret", (4, 2))]
    # The six-qubit interception: Alice measures (5, 2), Bob (7, 4).
    transit = TransitPlan(ancilla_pairs=((7, 8),), forward=((6, 2), (2, 7)))
    plan = build_plan(PROTOCOLS["six"], Procedure.P_II, transit)
    assert plan.num_qubits == 8 and plan.pairs[-1] == (7, 8)
    assert _step_names(plan) == [
        ("S", 3), ("key", (1, 3)), ("public", (5, 2)), ("S", 4), ("secret", (7, 4)),
    ]


def test_spec_is_checked_by_its_own_geometry():
    # A spec validates transits by its own in-flight set and register, never
    # by its protocol's name.
    only_4 = replace(PROTOCOLS["four"], in_flight=frozenset({4}))
    for transit in (
        TransitPlan(steps=(GateStep(2, GATES["X"]),)),
        TransitPlan(steps=(MeasureStep("eve", (2, 4)),)),
        TransitPlan(forward=((4, 2),)),
    ):
        with pytest.raises(MalformedAdversaryError):
            build_plan(only_4, Procedure.P_I, transit)
    build_plan(only_4, Procedure.P_I, TransitPlan(steps=(GateStep(4, GATES["X"]),)))
    with pytest.raises(MalformedAdversaryError, match="contiguously"):
        build_plan(only_4, Procedure.P_I, TransitPlan(ancilla_pairs=((7, 8),)))


def test_wrong_protocol_attack_is_rejected(conv):
    with pytest.raises(WrongProtocolError):
        protocol_driver(conv, "four").run_round(Procedure.P_I, ZlgAttack(conv), RandomSource(0))


def test_plan_builders_reject_malformed_transit(conv):
    with pytest.raises(MalformedAdversaryError):
        build_plan(PROTOCOLS["six"], Procedure.P_I, TransitPlan(steps=(GateStep(3, GATES["X"]),)))
    with pytest.raises(MalformedAdversaryError):
        build_plan(PROTOCOLS["four"], Procedure.P_I, TransitPlan(steps=(GateStep(6, GATES["X"]),)))


# --- ambiguity guard ----------------------------------------------------------


def test_ambiguity_error_type():
    with pytest.raises(AmbiguityError):
        raise AmbiguityError("probe")
