import argparse
import itertools
import json
import time
from collections import Counter
from dataclasses import replace

import pytest

from swapqkd import adversary, bell, cli, harness, protocol
from swapqkd.adversary import (
    ATTACKS,
    CORRECTIONS_EXTENDED,
    EXPECTED_TABLE2,
    AttackSearchError,
    AttackStrategy,
    FourSwapAttack,
    TailoredAttack,
    TailoredParams,
    ZlgAttack,
    attack_detection_probability,
    derive_tailored_attack,
    eve_information_probability,
    pauli_for_label,
    reproduce_table2,
)
from swapqkd.bell import LABELS
from swapqkd.harness import CurveConfig
from swapqkd.protocol import (
    Attack,
    ConditionalGateStep,
    GateStep,
    MeasureStep,
    PROTOCOLS,
    Plan,
    Procedure,
    build_plan,
    enumerate_plans,
    outcome_rows,
    protocol_driver,
)

import oracle
from streams import RandomSource

EXACT = 1e-10


@pytest.fixture
def batches(monkeypatch):
    """Every plan family ``adversary`` hands to ``enumerate_plans`` or ``outcome_masses``, in
    call order."""
    seen = []
    for name in ("enumerate_plans", "outcome_masses"):
        real = getattr(adversary, name)
        spy = lambda conv, plans, real=real: seen.append(plans) or real(conv, plans)  # noqa: E731
        monkeypatch.setattr(adversary, name, spy)
    return seen


# --- outcome-to-correction naming -------------------------------------------


def test_pauli_for_label_matches_published_naming(conv):
    assert pauli_for_label(conv) == {"00": "I", "01": "Z", "10": "X", "11": "Y"}


# The four plans the correction column is read off: a Pauli on qubit 2 of a labeled-00
# pair, then the pair's Bell measurement.
PAULI_PLANS = [
    Plan(((1, 2),), (GateStep(2, p), MeasureStep("label", (1, 2))))
    for p in adversary.CORRECTIONS_PAULI
]


def test_pauli_for_label_matches_the_numpy_reference(batches):
    # On every convention the enumeration read gives the overlap check's column,
    # and each Pauli plan has one branch of mass 1.
    for candidate in bell.all_conventions():
        batches.clear()
        assert pauli_for_label(candidate) == oracle.pauli_for_label(candidate)
        assert batches == [PAULI_PLANS]
        for branches in enumerate_plans(candidate, PAULI_PLANS):
            [(mass, _out, _path)] = branches
            assert abs(mass - 1.0) <= 1e-12


def test_zlg_build_enumerates_one_family_of_four_plans(conv, batches):
    ZlgAttack(conv)
    assert batches == [PAULI_PLANS]


def test_a_plan_with_several_branches_reaches_no_label(conv, monkeypatch):
    # Doubling the I plan's one branch leaves label 00 unreached.
    real = adversary.enumerate_plans

    def doubled(conv, plans):
        first, *rest = real(conv, plans)
        return [first * 2, *rest]

    monkeypatch.setattr(adversary, "enumerate_plans", doubled)
    with pytest.raises(AttackSearchError, match="label 00 to 00"):
        pauli_for_label(conv)


# --- zlg attack ---------------------------------------------------------------


def test_zlg_under_p1_is_invisible_and_fully_informative(conv):
    attack = ZlgAttack(conv)
    assert attack_detection_probability(conv, "six", Procedure.P_I, attack) == 0.0
    assert abs(eve_information_probability(conv, "six", Procedure.P_I, attack) - 1.0) < EXACT
    posterior = protocol_driver(conv, "six").round_model(Procedure.P_I, attack).posterior
    assert all(len(keys) == 1 for keys in posterior.values())


def test_zlg_under_p1_branch_structure(conv):
    # With the key fixed, Eve's outcome determines everything: public and
    # Bob's secret both equal her outcome shifted by the key.
    driver = protocol_driver(conv, "six")
    attack = ZlgAttack(conv)
    for leaf in driver.round_model(Procedure.P_I, attack).leaves:
        out = leaf.outcomes
        if out["key"] != "00":
            continue
        assert out["public"] == out["eve"]
        assert out["secret"] == out["eve"]
        assert abs(leaf.mass - 1 / 16) < EXACT


def test_zlg_under_p2_detection_is_half(conv):
    attack = ZlgAttack(conv)
    detection = attack_detection_probability(conv, "six", Procedure.P_II, attack)
    assert abs(detection - 0.5) < EXACT


def test_zlg_under_p2_eve_has_two_candidates_everywhere(conv):
    attack = ZlgAttack(conv)
    posterior = protocol_driver(conv, "six").round_model(Procedure.P_II, attack).posterior
    for (eve, _public), keys in posterior.items():
        assert len(keys) == 2
    assert eve_information_probability(conv, "six", Procedure.P_II, attack) == 0.0


def test_posterior_is_shared_across_attack_instances(conv):
    driver = protocol_driver(conv, "six")
    for procedure in Procedure:
        posterior = driver.round_model(procedure, ZlgAttack(conv)).posterior
        assert driver.round_model(procedure, ZlgAttack(conv)).posterior is posterior
        with pytest.raises(TypeError):
            posterior[("00", "00")] = ("11",)


def test_zlg_p2_worked_example(conv):
    # Key 00, Eve's outcome 01 (correction Z): the public result is 00 or
    # 11 with equal probability; when Alice announces 11 and Bob's secret
    # comes out 00, Bob infers 11 and the comparison exposes Eve.
    driver = protocol_driver(conv, "six")
    attack = ZlgAttack(conv)
    slice_ = [
        (leaf.mass, leaf.outcomes) for leaf in driver.round_model(Procedure.P_II, attack).leaves
        if leaf.outcomes["key"] == "00" and leaf.outcomes["eve"] == "01"
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
    assert driver.infer(Procedure.P_II, {"public": "11", "secret": "00"}) == "11"
    assert driver.round_model(Procedure.P_II, attack).posterior[("01", "11")] == ("00", "11")


def test_zlg_is_the_interception_without_rotation(conv):
    # zlg is the six-qubit interception with no pre-rotation and the Pauli
    # corrections; its branches are those of that parameter choice.
    params = TailoredParams(("I", "I"), tuple(pauli_for_label(conv).items()))
    zlg = ZlgAttack(conv)
    assert (zlg.kind, zlg.protocol) == ("zlg", "six")
    assert (zlg.ancilla_pairs, zlg.forward) == (((7, 8),), ((6, 2), (2, 7)))
    # No gate before or after Eve's measurement of (6, 8): only her correction of 2.
    measure, correction = zlg.steps
    assert measure == MeasureStep("eve", (6, 8))
    assert isinstance(correction, ConditionalGateStep)
    assert (correction.qubit, correction.on) == (2, "eve")
    paulis = (("00", "I"), ("01", "Z"), ("10", "X"), ("11", "Y"))
    assert tuple(zip(LABELS, correction.gates)) == params.pauli_map == paulis
    driver = protocol_driver(conv, "six")
    for procedure in Procedure:
        want = driver.round_model(procedure, TailoredAttack(conv, params)).leaves
        assert driver.round_model(procedure, zlg).leaves == want


def test_equal_interceptions_share_one_round_model(conv):
    driver = protocol._ProtocolBase(conv, "six")
    first, second = ZlgAttack(conv), ZlgAttack(conv)
    assert first is not second and first == second and hash(first) == hash(second)
    paulis = tuple(pauli_for_label(conv)[m] for m in LABELS)
    steps = (MeasureStep("eve", (6, 8)), ConditionalGateStep(2, "eve", paulis))
    built = Attack("zlg", "six", steps, ancilla_pairs=((7, 8),), forward=((6, 2), (2, 7)))
    assert built == first
    four = protocol._ProtocolBase(conv, "four")
    for procedure in Procedure:
        model = driver.round_model(procedure, first)
        assert driver.round_model(procedure, second) is model
        assert driver.round_model(procedure, built) is model
        guess = four.round_model(procedure, FourSwapAttack(conv, procedure))
        assert four.round_model(procedure, FourSwapAttack(conv, procedure)) is guess
    # Beside the two adversary-free models: one attack's two, and two guesses' four.
    assert len(driver._models) == 2 + 2 and len(four._models) == 2 + 4


def test_zlg_gates_under_another_kind_get_their_own_round_model(conv):
    # The kind is part of the value, so the same gates under two kinds are two
    # models, each with its own leaves, holding the same facts.
    driver = protocol._ProtocolBase(conv, "six")
    zlg = ZlgAttack(conv)
    renamed = replace(zlg, kind="tailored")
    assert renamed != zlg
    paulis = tuple(zip(LABELS, zlg.steps[-1].gates))
    assert renamed == TailoredAttack(conv, TailoredParams(("I", "I"), paulis))
    for procedure in Procedure:
        ours, theirs = driver.round_model(procedure, zlg), driver.round_model(procedure, renamed)
        assert ours is not theirs and ours.leaves == theirs.leaves
        assert not any(a is b for a, b in zip(ours.leaves, theirs.leaves))


def test_four_swap_guess_plans_are_the_measurement_in_the_guessed_basis(conv):
    # Guess (I) is the measurement alone; guess (II) is S on 2, measure (2, 4), S on 2.
    plain = FourSwapAttack(conv, Procedure.P_I)
    assert plain == Attack("four-swap", "four", (MeasureStep("eve", (2, 4)),))
    rotated = FourSwapAttack(conv, Procedure.P_II)
    assert (rotated.kind, rotated.protocol) == ("four-swap", "four")
    assert (rotated.ancilla_pairs, rotated.forward) == ((), ())
    first, measure, last = rotated.steps
    assert measure == MeasureStep("eve", (2, 4))
    for step in (first, last):
        assert isinstance(step, GateStep) and step.qubit == 2
        assert step.gate == "S"


def test_identity_pre_rotations_emit_no_gate(conv):
    # zlg's plan has no gate before Eve's measurement, and its branches are
    # bit-identical to the plan that applies the two identity gates.
    zlg = ZlgAttack(conv)
    assert isinstance(zlg.steps[0], MeasureStep)
    identities = (GateStep(6, "I"), GateStep(8, "I"))
    with_identities = replace(zlg, steps=identities + zlg.steps)
    six = PROTOCOLS["six"]
    for procedure in Procedure:
        want = enumerate_plans(conv, (build_plan(six, procedure, with_identities),))[0]
        got = enumerate_plans(conv, (build_plan(six, procedure, zlg),))[0]
        assert [(p.hex(), out, path) for p, out, path in got] == [
            (p.hex(), out, path) for p, out, path in want]
    tailored = TailoredAttack(conv)  # rotates only qubit 8
    assert [s.qubit for s in tailored.steps if isinstance(s, GateStep)] == [8]


def test_zlg_leaf_contents(conv):
    attack = ZlgAttack(conv)
    model = protocol_driver(conv, "six").round_model(Procedure.P_I, attack)
    # A run that only takes (i) walks to this model's leaves.
    tree = harness._round_tree(CurveConfig("six", AttackStrategy("zlg"), 1.0))
    leaf = RandomSource(8).descend(tree)
    eve, key = leaf.outcomes["eve"], leaf.outcomes["key"]
    assert attack.steps[-1].gates[LABELS.index(eve)] == pauli_for_label(conv)[eve]
    assert model.posterior[eve, leaf.outcomes["public"]] == (key,)
    assert leaf.informed and not leaf.detected


def test_zlg_substitution_keeps_valid_eight_qubit_state(conv):
    plan = build_plan(PROTOCOLS["six"], Procedure.P_II, ZlgAttack(conv))
    assert 2 * len(plan.pairs) == 8
    # Every collapsed branch along the way is norm-checked within 1e-12.
    branches = enumerate_plans(conv, (plan,))[0]
    assert abs(sum(mass for mass, _out, _path in branches) - 1.0) < 1e-12


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
    assert tuple(outcome_rows(conv, ZlgAttack(conv))) == EXPECTED_TABLE2


# --- tailored attack --------------------------------------------------------------


def test_search_regenerates_frozen_params(conv):
    start = time.monotonic()
    params = derive_tailored_attack(conv)
    elapsed = time.monotonic() - start
    assert params == adversary.FROZEN_TAILORED_PARAMS
    assert elapsed < 60.0
    assert derive_tailored_attack(conv) == params  # deterministic


def test_search_enumerates_each_block_plan_once(conv, batches):
    # Two batches, one per block over both procedures: 16 Alice-block plans
    # (8 corrections x 2 procedures) and 50 travel-block plans (25
    # pre-rotation pairs x 2 procedures), each exactly once.
    assert derive_tailored_attack(conv) == adversary.FROZEN_TAILORED_PARAMS
    assert [len(plans) for plans in batches] == [16, 50]
    want = [adversary._alice_block_plan(g, p) for p in Procedure for g in CORRECTIONS_EXTENDED]
    rotations = itertools.product(adversary.PRE_UNITARIES, repeat=2)
    want += [adversary._travel_block_plan(u6, u8, p) for u6, u8 in rotations for p in Procedure]
    assert len(set(want)) == 66  # plans hash by value: their steps hold gate names
    got = Counter(plan for plans in batches for plan in plans)
    assert got == Counter(want)


def test_detection_terms_match_the_full_engine(conv):
    # A map's term sum is its detection probability under each procedure: for
    # zlg, the frozen tailored parameters, and every pre-rotation pair with the
    # all-I correction map.
    terms = dict(zip(Procedure, adversary._detection_terms(conv)))
    candidates = [
        (ZlgAttack(conv), TailoredParams(("I", "I"), tuple(pauli_for_label(conv).items()))),
        (TailoredAttack(conv), adversary.FROZEN_TAILORED_PARAMS),
    ]
    for rotation in adversary.ROTATIONS:
        params = TailoredParams(rotation, tuple((m, "I") for m in LABELS))
        candidates.append((TailoredAttack(conv, params), params))
    assert len(candidates) == 27
    for attack, params in candidates:
        r = adversary.ROTATIONS.index(params.pre_unitaries)
        for procedure in Procedure:
            total = sum(
                terms[procedure][r, LABELS.index(m), CORRECTIONS_EXTENDED.index(g)]
                for m, g in params.pauli_map
            )
            exact = attack_detection_probability(conv, "six", procedure, attack)
            assert abs(total - exact) < 1e-12


def test_only_extended_corrections_pass_the_ii_predicate(conv):
    # A pre-rotation pair can pass the (ii) predicate only if every outcome has
    # a correction with a zero (ii) term.  Under no convention does a pair have
    # one among the Paulis, which is why the search scans the extended set once;
    # with the S products, under the frozen convention exactly the pairs holding
    # one S pass.
    def passing(terms_ii, width):
        return [
            rotation
            for r, rotation in enumerate(adversary.ROTATIONS)
            if all((row[:width] == 0.0).any() for row in terms_ii[r])
        ]

    paulis = len(adversary.CORRECTIONS_PAULI)
    assert CORRECTIONS_EXTENDED[:paulis] == adversary.CORRECTIONS_PAULI
    conventions = bell.all_conventions()
    assert len(conventions) == 64
    for candidate in conventions:
        _terms_i, terms_ii = adversary._detection_terms(candidate)
        assert passing(terms_ii, paulis) == []
    _terms_i, terms_ii = adversary._detection_terms(conv)
    assert passing(terms_ii, len(CORRECTIONS_EXTENDED)) == [
        ("I", "S"), ("X", "S"), ("Y", "S"), ("Z", "S"),
        ("S", "I"), ("S", "X"), ("S", "Y"), ("S", "Z"),
    ]


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
    posterior = protocol_driver(conv, "six").round_model(Procedure.P_I, attack).posterior
    assert all(len(keys) == 2 for keys in posterior.values())


def test_tailored_leaf_uses_extended_gate_names(conv):
    attack = TailoredAttack(conv)
    model = protocol_driver(conv, "six").round_model(Procedure.P_II, attack)
    # A run that only takes (ii) walks to this model's leaves.
    tree = harness._round_tree(CurveConfig("six", AttackStrategy("tailored"), 0.0))
    leaf = RandomSource(4).descend(tree)
    eve, key = leaf.outcomes["eve"], leaf.outcomes["key"]
    assert attack.steps[-1].gates[LABELS.index(eve)] in CORRECTIONS_EXTENDED
    assert model.posterior[eve, leaf.outcomes["public"]] == (key,)
    assert leaf.informed and not leaf.detected


def test_interception_corrections_run_in_label_order(conv):
    # However a pauli_map is listed, the interception's corrections follow LABELS.
    frozen = adversary.FROZEN_TAILORED_PARAMS
    shuffled = replace(frozen, pauli_map=frozen.pauli_map[::-1])
    attack = TailoredAttack(conv, shuffled)
    assert attack == TailoredAttack(conv)
    correction = attack.steps[-1]
    assert isinstance(correction, ConditionalGateStep)
    assert (correction.qubit, correction.on, len(correction.gates)) == (2, "eve", len(LABELS))
    assert dict(zip(LABELS, correction.gates)) == dict(shuffled.pauli_map)
    assert correction.gates == tuple(name for _m, name in frozen.pauli_map)


def test_verification_refuses_a_map_detected_under_p2(conv):
    # zlg's parameters are detected under (ii): the full engine disagrees with a
    # search that would have passed them.
    zlg = TailoredParams(("I", "I"), tuple(pauli_for_label(conv).items()))
    with pytest.raises(AttackSearchError, match="disagree on"):
        adversary._verify_tailored(conv, zlg)
    adversary._verify_tailored(conv, adversary.FROZEN_TAILORED_PARAMS)


def test_tailored_params_json_round_trip():
    params = adversary.FROZEN_TAILORED_PARAMS
    doc = json.loads(params.to_json())
    assert doc["pre_unitaries"]["qubit6"] == params.pre_unitaries[0]
    assert doc["pre_unitaries"]["qubit8"] == params.pre_unitaries[1]
    assert doc == params.to_json_dict()


def test_tailored_params_validation():
    with pytest.raises(ValueError):
        TailoredParams(("I", "Q"), (("00", "I"), ("01", "I"), ("10", "I"), ("11", "I")))
    with pytest.raises(ValueError):
        TailoredParams(("I", "I"), (("00", "I"), ("01", "I"), ("10", "I"), ("11", "QQ")))
    with pytest.raises(ValueError):
        TailoredParams(("I", "I"), (("00", "I"), ("01", "I")))
    # One pre-unitary per rotated qubit: one alone would drop qubit 8's rotation.
    paulis = (("00", "I"), ("01", "Z"), ("10", "X"), ("11", "Y"))
    with pytest.raises(ValueError, match="one pre-unitary each"):
        TailoredParams(("I",), paulis)
    with pytest.raises(ValueError, match="one pre-unitary each"):
        TailoredParams(("I", "S", "S"), paulis)
    # Each label once: a repeated one would let its last entry win.
    with pytest.raises(ValueError, match="each of the four outcome labels once"):
        TailoredParams(("I", "I"), (("00", "X"),) + paulis)


# --- four-qubit attack --------------------------------------------------------------


@pytest.mark.parametrize("guess", list(Procedure))
def test_four_swap_matched_guess_is_invisible(conv, guess):
    attack = FourSwapAttack(conv, guess)
    assert attack_detection_probability(conv, "four", guess, attack) == 0.0
    assert abs(eve_information_probability(conv, "four", guess, attack) - 1.0) < EXACT
    posterior = protocol_driver(conv, "four").round_model(guess, attack).posterior
    assert all(len(keys) == 1 for keys in posterior.values())


@pytest.mark.parametrize("guess", list(Procedure))
def test_four_swap_mismatched_guess_detected_half(conv, guess):
    other = Procedure.P_II if guess is Procedure.P_I else Procedure.P_I
    attack = FourSwapAttack(conv, guess)
    detection = attack_detection_probability(conv, "four", other, attack)
    assert abs(detection - 0.5) < EXACT
    posterior = protocol_driver(conv, "four").round_model(other, attack).posterior
    assert all(len(keys) == 2 for keys in posterior.values())
    assert eve_information_probability(conv, "four", other, attack) == 0.0


def test_four_swap_matched_outcome_equals_key(conv):
    driver = protocol_driver(conv, "four")
    for guess in Procedure:
        attack = FourSwapAttack(conv, guess)
        for out in (leaf.outcomes for leaf in driver.round_model(guess, attack).leaves):
            assert out["eve"] == out["key"]
            assert out["secret"] == out["key"]


def test_four_swap_rejected_on_six_qubit_round(conv):
    with pytest.raises(protocol.WrongProtocolError):
        protocol_driver(conv, "six").round_model(Procedure.P_I, FourSwapAttack(conv, Procedure.P_I))


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


def test_attack_table_lists_the_cli_choices_and_the_mixed_weight():
    parser = cli.build_parser()
    commands = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    for command in ("simulate", "detection-curve"):
        attack = next(a for a in commands.choices[command]._actions if a.dest == "attack")
        assert tuple(attack.choices) == tuple(ATTACKS) == (
            "none", "zlg", "tailored", "four-swap", "mixed"
        )
    (zlg_weight, zlg), (_, tailored) = ATTACKS["mixed"][1]
    assert (zlg, tailored) == (ZlgAttack, TailoredAttack)
    assert AttackStrategy.weight_zlg == zlg_weight == 0.5


@pytest.mark.parametrize("kind", list(ATTACKS))
def test_attack_mixture_is_a_distribution_over_compatible_attacks(conv, kind):
    strategy = AttackStrategy(kind)
    mixture = strategy.mixture(conv)
    assert abs(sum(weight for weight, _ in mixture) - 1.0) < EXACT
    for weight, attack in mixture:
        assert weight > 0.0
        if attack is not None:
            assert attack.protocol in strategy.compatible_protocols()
    assert (mixture == ((1.0, None),)) == (kind == "none")


def test_attack_search_error_type():
    with pytest.raises(AttackSearchError):
        raise AttackSearchError("probe")
