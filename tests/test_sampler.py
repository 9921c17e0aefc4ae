"""The branch-tree sampler against the statevector it replaced.

Monte Carlo rounds sample the conditional-probability tree built from a
driver's exact branches.  These tests pin that tree to the branch masses
and check, round by round, that it draws the same outcomes from the same
uniforms as executing the plan on a statevector with ``measure_in_basis``.
"""

import pytest

from swapqkd import harness, qstate
from swapqkd.adversary import AttackStrategy, FourSwapAttack, TailoredAttack, ZlgAttack
from swapqkd.bell import LABELS
from swapqkd.harness import splitmix64
from swapqkd.protocol import ConditionalGateStep, MeasureStep, Procedure, protocol_driver
from swapqkd.qstate import RandomSource

HARNESS_CONFIGS = [
    ("six", "none"),
    ("six", "zlg"),
    ("six", "tailored"),
    ("six", "mixed"),
    ("four", "none"),
    ("four", "four-swap"),
]
ROUNDS_PER_CONFIG = 10_000


def _statevector_round(conv, plan, rng):
    """Execute a plan step by step on a statevector, sampling each measurement."""
    state = qstate.prepare_pairs(
        plan.num_qubits, [(i - 1, j - 1, conv.states["00"]) for i, j in plan.pairs]
    )
    outcomes = {}
    for step in plan.steps:
        if isinstance(step, MeasureStep):
            pair = (step.pair[0] - 1, step.pair[1] - 1)
            k, state = qstate.measure_in_basis(state, conv.basis_matrix, pair, rng)
            outcomes[step.name] = LABELS[k]
        else:
            conditional = isinstance(step, ConditionalGateStep)
            matrix = step.gate_for(outcomes[step.on]) if conditional else step.matrix
            state = qstate.apply_gate(state, matrix, step.qubit - 1)
    return outcomes


@pytest.mark.parametrize("protocol_name,kind", HARNESS_CONFIGS)
def test_tree_sampler_matches_statevector_draw_for_draw(conv, protocol_name, kind):
    driver = protocol_driver(conv, protocol_name)
    picker = harness._attack_picker(AttackStrategy(kind))
    policy = 0.5
    mismatches = []
    for i in range(ROUNDS_PER_CONFIG):
        seed = splitmix64(2024, i)
        rng, ref_rng = RandomSource(seed), RandomSource(seed)
        transcript = harness._run_one_round(driver, picker, policy, rng)
        # The reference consumes the attack and procedure coins in the same order.
        attack = picker(ref_rng)
        procedure = Procedure.P_I if ref_rng.uniform() < policy else Procedure.P_II
        plan = driver.round_model(procedure, attack).plan
        ref = _statevector_round(conv, plan, ref_rng)
        eve = transcript.eve_record.secret if transcript.eve_record else None
        got = (transcript.procedure, transcript.key, transcript.public_result,
               transcript.bob_secret, eve, rng.uniform())
        want = (procedure, ref["key"], ref.get("public"), ref["secret"], ref.get("eve"),
                ref_rng.uniform())
        if got != want:
            mismatches.append((i, got, want))
    assert mismatches == []


def _round_configs(conv):
    for protocol_name, attacks in (
        ("six", (None, ZlgAttack(conv), TailoredAttack(conv))),
        ("four", (None,) + tuple(FourSwapAttack(conv, guess) for guess in Procedure)),
    ):
        for attack in attacks:
            for procedure in Procedure:
                yield protocol_driver(conv, protocol_name), procedure, attack


def test_tree_path_products_equal_branch_masses(conv):
    checked = 0
    for driver, procedure, attack in _round_configs(conv):
        model = driver.round_model(procedure, attack)
        for _name, probs in model.tree.values():
            assert abs(sum(probs) - 1.0) <= 1e-12
        for mass, outcomes in driver.enumerate_branches(procedure, attack):
            prefix, product = (), 1.0
            for name, label in outcomes.items():
                node_name, probs = model.tree[prefix]
                assert node_name == name
                k = LABELS.index(label)
                product *= probs[k]
                prefix += (k,)
            assert prefix not in model.tree
            assert abs(product - mass) <= 1e-12
            checked += 1
    assert checked > 0


def test_enumeration_is_shared_across_attack_instances(conv):
    driver = protocol_driver(conv, "six")
    first = driver.enumerate_branches(Procedure.P_II, ZlgAttack(conv))
    assert driver.enumerate_branches(Procedure.P_II, ZlgAttack(conv)) is first
    with pytest.raises(TypeError):
        first[0][1]["key"] = "11"
