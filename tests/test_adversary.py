import itertools
import json
import time
from collections import Counter
from dataclasses import replace

import pytest

from swapqkd import adversary, protocol
from swapqkd.adversary import (
    ATTACK_PROTOCOLS,
    CORRECTIONS_EXTENDED,
    EXPECTED_TABLE2,
    AttackSearchError,
    AttackStrategy,
    EveRecord,
    FourSwapAttack,
    TailoredAttack,
    TailoredParams,
    ZlgAttack,
    attack_detection_probability,
    derive_tailored_attack,
    eve_information_probability,
    pauli_for_label,
    reproduce_table2,
    zlg_outcome_rows,
)
from swapqkd.protocol import (
    GateStep,
    MeasureStep,
    PROTOCOLS,
    Procedure,
    build_plan,
    enumerate_plan,
    protocol_driver,
)
from swapqkd.qstate import GATES, RandomSource

EXACT = 1e-10


# --- outcome-to-correction naming -------------------------------------------


def test_pauli_for_label_matches_published_naming(conv):
    assert pauli_for_label(conv) == {"00": "I", "01": "Z", "10": "X", "11": "Y"}


# --- zlg attack ---------------------------------------------------------------


def test_zlg_under_p1_is_invisible_and_fully_informative(conv):
    attack = ZlgAttack(conv)
    assert attack_detection_probability(conv, "six", Procedure.P_I, attack) == 0.0
    assert abs(eve_information_probability(conv, "six", Procedure.P_I, attack) - 1.0) < EXACT
    posterior = attack._posterior(Procedure.P_I)
    assert all(len(keys) == 1 for keys in posterior.values())


def test_zlg_under_p1_branch_structure(conv):
    # With the key fixed, Eve's outcome determines everything: public and
    # Bob's secret both equal her outcome shifted by the key.
    driver = protocol_driver(conv, "six")
    attack = ZlgAttack(conv)
    for prob, out in driver.enumerate_branches(Procedure.P_I, attack):
        if out["key"] != "00":
            continue
        assert out["public"] == out["eve"]
        assert out["secret"] == out["eve"]
        assert abs(prob - 1 / 16) < EXACT


def test_zlg_under_p2_detection_is_half(conv):
    attack = ZlgAttack(conv)
    detection = attack_detection_probability(conv, "six", Procedure.P_II, attack)
    assert abs(detection - 0.5) < EXACT


def test_zlg_under_p2_eve_has_two_candidates_everywhere(conv):
    attack = ZlgAttack(conv)
    posterior = attack._posterior(Procedure.P_II)
    for (eve, _public), keys in posterior.items():
        assert len(keys) == 2
    assert eve_information_probability(conv, "six", Procedure.P_II, attack) == 0.0


def test_posterior_is_shared_across_attack_instances(conv):
    for procedure in Procedure:
        posterior = ZlgAttack(conv)._posterior(procedure)
        assert ZlgAttack(conv)._posterior(procedure) is posterior
        with pytest.raises(TypeError):
            posterior[("00", "00")] = ("11",)


def test_zlg_p2_worked_example(conv):
    # Key 00, Eve's outcome 01 (correction Z): the public result is 00 or
    # 11 with equal probability; when Alice announces 11 and Bob's secret
    # comes out 00, Bob infers 11 and the comparison exposes Eve.
    driver = protocol_driver(conv, "six")
    attack = ZlgAttack(conv)
    slice_ = [
        (p, o) for p, o in driver.enumerate_branches(Procedure.P_II, attack)
        if o["key"] == "00" and o["eve"] == "01"
    ]
    publics = {}
    for p, o in slice_:
        publics[o["public"]] = publics.get(o["public"], 0.0) + p
    total = sum(publics.values())
    assert sorted(publics) == ["00", "11"]
    assert abs(publics["00"] / total - 0.5) < EXACT
    assert abs(publics["11"] / total - 0.5) < EXACT
    detected = [o for _p, o in slice_ if o["public"] == "11" and o["secret"] == "00"]
    assert detected
    assert driver.inference[Procedure.P_II].infer({"public": "11", "secret": "00"}) == "11"
    assert attack._posterior(Procedure.P_II)[("01", "11")] == ("00", "11")


def test_zlg_is_the_interception_without_rotation(conv):
    # zlg is the six-qubit interception with no pre-rotation and the Pauli
    # corrections; its branches are those of that parameter choice.
    params = TailoredParams(("I", "I"), tuple(pauli_for_label(conv).items()))
    zlg = ZlgAttack(conv)
    assert isinstance(zlg, TailoredAttack)
    assert zlg.params == params
    assert zlg.cache_key == ("zlg", params)
    driver = protocol_driver(conv, "six")
    for procedure in Procedure:
        assert driver.enumerate_branches(procedure, zlg) == driver.enumerate_branches(
            procedure, TailoredAttack(conv, params)
        )


def test_identity_pre_rotations_emit_no_gate(conv):
    # zlg's plan has no gate before Eve's measurement, and its branches are
    # bit-identical to the plan that applies the two identity gates.
    transit = ZlgAttack(conv).transit_plan()
    assert isinstance(transit.steps[0], MeasureStep)
    identities = (GateStep(6, GATES["I"]), GateStep(8, GATES["I"]))
    with_identities = replace(transit, steps=identities + transit.steps)
    for procedure in Procedure:
        want = enumerate_plan(conv, build_plan(PROTOCOLS["six"], procedure, with_identities))
        got = enumerate_plan(conv, build_plan(PROTOCOLS["six"], procedure, transit))
        assert [(p.hex(), out) for p, out in got] == [(p.hex(), out) for p, out in want]
    tailored = TailoredAttack(conv).transit_plan()  # rotates only qubit 8
    assert [s.qubit for s in tailored.steps if isinstance(s, GateStep)] == [8]


def test_zlg_eve_record_contents(conv):
    transcript = protocol_driver(conv, "six").run_round(
        Procedure.P_I, ZlgAttack(conv), RandomSource(8)
    )
    record = transcript.eve_record
    assert record.attack == "zlg"
    assert record.transformation == pauli_for_label(conv)[record.secret]
    assert record.inferred_keys == (transcript.key,)


def test_zlg_substitution_keeps_valid_eight_qubit_state(conv):
    driver = protocol_driver(conv, "six")
    plan = driver.round_model(Procedure.P_II, ZlgAttack(conv)).plan
    assert plan.num_qubits == 8
    # Every collapsed branch along the way is norm-checked within 1e-12.
    branches = enumerate_plan(conv, plan)
    assert abs(sum(prob for prob, _ in branches) - 1.0) < 1e-12


# --- published attack table -----------------------------------------------------


def test_reproduce_table2(conv):
    rows = reproduce_table2(conv)
    assert len(rows) == 20
    assert rows[4] == ("(ii)", "00", "00", "00", "00", "01", "Z", "00 or 11")
    assert rows[5] == ("(ii)", "00", "11", "00", "11", "01", "Z", "00 or 11")
    p1_rows = [r for r in rows if r[0] == "(i)"]
    assert len(p1_rows) == 4
    assert all(r[7] == "00" for r in p1_rows)
    assert all(r[7] == "00 or 11" for r in rows if r[0] == "(ii)")


def test_table2_rows_match_expected_constant(conv):
    assert tuple(zlg_outcome_rows(conv)) == EXPECTED_TABLE2


# --- tailored attack --------------------------------------------------------------


def test_search_regenerates_frozen_params(conv):
    start = time.monotonic()
    params = derive_tailored_attack(conv)
    elapsed = time.monotonic() - start
    assert params == adversary.FROZEN_TAILORED_PARAMS
    assert elapsed < 60.0
    assert derive_tailored_attack(conv) == params  # deterministic


def _plan_key(plan):
    """A block plan as hashable data: its steps with gate matrices as bytes."""
    steps = tuple(
        (step.qubit, step.matrix.tobytes()) if isinstance(step, GateStep) else step
        for step in plan.steps
    )
    return plan.num_qubits, plan.pairs, steps


def test_search_enumerates_each_block_plan_once(conv, monkeypatch):
    # Two batches, one per block over both procedures: 16 Alice-block plans
    # (8 corrections x 2 procedures) and 50 travel-block plans (25
    # pre-rotation pairs x 2 procedures), each exactly once.
    batches = []
    real = adversary.enumerate_plans
    monkeypatch.setattr(
        adversary, "enumerate_plans", lambda conv, plans: batches.append(plans) or real(conv, plans)
    )
    assert derive_tailored_attack(conv) == adversary.FROZEN_TAILORED_PARAMS
    assert [len(plans) for plans in batches] == [16, 50]
    want = [adversary._alice_block_plan(g, p) for p in Procedure for g in CORRECTIONS_EXTENDED]
    rotations = itertools.product(adversary.PRE_UNITARIES, repeat=2)
    want += [adversary._travel_block_plan(u6, u8, p) for u6, u8 in rotations for p in Procedure]
    assert len(set(map(_plan_key, want))) == 66
    got = Counter(_plan_key(plan) for plans in batches for plan in plans)
    assert got == Counter(map(_plan_key, want))


def test_tailored_defeats_p2(conv):
    attack = TailoredAttack(conv)
    assert attack_detection_probability(conv, "six", Procedure.P_II, attack) == 0.0
    assert abs(eve_information_probability(conv, "six", Procedure.P_II, attack) - 1.0) < EXACT


def test_tailored_is_caught_under_p1(conv):
    # The search predicate only demands nonzero detection; exhaustive
    # enumeration pins the actual value at one half, mirroring the zlg
    # attack under the other procedure.
    attack = TailoredAttack(conv)
    detection = attack_detection_probability(conv, "six", Procedure.P_I, attack)
    assert detection > 0.0
    assert abs(detection - 0.5) < EXACT
    posterior = attack._posterior(Procedure.P_I)
    assert all(len(keys) == 2 for keys in posterior.values())


def test_tailored_record_uses_extended_gate_names(conv):
    transcript = protocol_driver(conv, "six").run_round(
        Procedure.P_II, TailoredAttack(conv), RandomSource(4)
    )
    record = transcript.eve_record
    assert record.attack == "tailored"
    assert record.transformation in CORRECTIONS_EXTENDED
    assert record.inferred_keys == (transcript.key,)


def test_tailored_params_json_round_trip():
    params = adversary.FROZEN_TAILORED_PARAMS
    doc = json.loads(params.to_json())
    assert doc["pre_unitaries"]["qubit6"] == params.pre_unitaries[0]
    assert doc["pre_unitaries"]["qubit8"] == params.pre_unitaries[1]
    assert TailoredParams.from_json_dict(doc) == params


def test_tailored_params_validation():
    with pytest.raises(ValueError):
        TailoredParams(("I", "Q"), (("00", "I"), ("01", "I"), ("10", "I"), ("11", "I")))
    with pytest.raises(ValueError):
        TailoredParams(("I", "I"), (("00", "I"), ("01", "I"), ("10", "I"), ("11", "QQ")))
    with pytest.raises(ValueError):
        TailoredParams(("I", "I"), (("00", "I"), ("01", "I")))


# --- four-qubit attack --------------------------------------------------------------


@pytest.mark.parametrize("guess", list(Procedure))
def test_four_swap_matched_guess_is_invisible(conv, guess):
    attack = FourSwapAttack(conv, guess)
    assert attack_detection_probability(conv, "four", guess, attack) == 0.0
    assert abs(eve_information_probability(conv, "four", guess, attack) - 1.0) < EXACT
    posterior = attack._posterior(guess)
    assert all(len(keys) == 1 for keys in posterior.values())


@pytest.mark.parametrize("guess", list(Procedure))
def test_four_swap_mismatched_guess_detected_half(conv, guess):
    other = Procedure.P_II if guess is Procedure.P_I else Procedure.P_I
    attack = FourSwapAttack(conv, guess)
    detection = attack_detection_probability(conv, "four", other, attack)
    assert abs(detection - 0.5) < EXACT
    posterior = attack._posterior(other)
    assert all(len(keys) == 2 for keys in posterior.values())
    assert eve_information_probability(conv, "four", other, attack) == 0.0


def test_four_swap_matched_outcome_equals_key(conv):
    driver = protocol_driver(conv, "four")
    for guess in Procedure:
        attack = FourSwapAttack(conv, guess)
        for _prob, out in driver.enumerate_branches(guess, attack):
            assert out["eve"] == out["key"]
            assert out["secret"] == out["key"]


def test_four_swap_rejected_on_six_qubit_round(conv):
    with pytest.raises(protocol.WrongProtocolError):
        protocol_driver(conv, "six").run_round(
            Procedure.P_I, FourSwapAttack(conv, Procedure.P_I), RandomSource(0)
        )


# --- mixtures ------------------------------------------------------------------------


def test_fair_mixture_detection_averages_one_quarter(conv):
    six_cells = [
        attack_detection_probability(conv, "six", procedure, attack)
        for attack in (ZlgAttack(conv), TailoredAttack(conv))
        for procedure in Procedure
    ]
    assert abs(sum(six_cells) / 4 - 0.25) < EXACT
    four_cells = [
        attack_detection_probability(conv, "four", procedure, FourSwapAttack(conv, guess))
        for guess in Procedure
        for procedure in Procedure
    ]
    assert abs(sum(four_cells) / 4 - 0.25) < EXACT


# --- strategy descriptions ------------------------------------------------------------


def test_attack_strategy_validation():
    with pytest.raises(ValueError):
        AttackStrategy("quantum-woodpecker")
    assert AttackStrategy("mixed").weight_zlg == 0.5
    assert AttackStrategy("none").compatible_protocols() == ("six", "four")
    assert AttackStrategy("four-swap").compatible_protocols() == ("four",)
    assert AttackStrategy("mixed").compatible_protocols() == ("six",)


@pytest.mark.parametrize("kind", list(ATTACK_PROTOCOLS))
def test_attack_mixture_is_a_distribution_over_compatible_attacks(conv, kind):
    strategy = AttackStrategy(kind)
    mixture = strategy.mixture(conv)
    assert abs(sum(weight for weight, _ in mixture) - 1.0) < EXACT
    for weight, attack in mixture:
        assert weight > 0.0
        if attack is not None:
            assert attack.protocol in strategy.compatible_protocols()
    assert (mixture == ((1.0, None),)) == (kind == "none")


def test_eve_record_requires_inference():
    with pytest.raises(ValueError):
        EveRecord(attack="zlg", secret="00", transformation="I", inferred_keys=())


def test_attack_search_error_type():
    with pytest.raises(AttackSearchError):
        raise AttackSearchError("probe")
