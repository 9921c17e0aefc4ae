"""The branch-tree sampler against an independent statevector.

A Monte Carlo round descends one tree: the attack and procedure coins, then
the conditional-probability nodes built from a driver's exact branches.
These tests pin those nodes to the branch masses and check, round by round,
that a descent draws the same outcomes from the same uniforms as the
lockstep statevector sampler of ``tests/oracle.py``, which shares no code
with the engine's kernels.
"""

import ast
from pathlib import Path

import numpy as np
import pytest

from swapqkd import harness
from swapqkd.adversary import AttackStrategy, FourSwapAttack, TailoredAttack, ZlgAttack
from swapqkd.bell import LABELS
from swapqkd.harness import splitmix64
from swapqkd.protocol import MeasureStep, Procedure, protocol_driver
from swapqkd.qstate import Distribution, RandomSource

import oracle

HARNESS_CONFIGS = [
    ("six", "none"),
    ("six", "zlg"),
    ("six", "tailored"),
    ("six", "mixed"),
    ("four", "none"),
    ("four", "four-swap"),
]
# Procedure policy -> rounds per config: the default coin, then both of its edges,
# where one procedure's measurement nodes take every round.
ROUNDS_PER_POLICY = {0.5: 10_000, 0.0: 4_000, 1.0: 4_000}


@pytest.mark.parametrize("protocol_name,kind,policy", [
    pytest.param(name, kind, policy, id=f"{name}-{kind}" + ("" if policy == 0.5 else f"-q{policy}"))
    for policy in ROUNDS_PER_POLICY for name, kind in HARNESS_CONFIGS
])
def test_tree_sampler_matches_statevector_draw_for_draw(conv, protocol_name, kind, policy):
    driver = protocol_driver(conv, protocol_name)
    config = harness.CurveConfig(protocol_name, AttackStrategy(kind), policy)
    root = harness._round_tree(config)
    mixture = AttackStrategy(kind).mixture(conv)
    rounds_per_config = ROUNDS_PER_POLICY[policy]
    got = []
    rounds = {}  # plan id -> (plan, procedure, round indices, uniforms)
    for i in range(rounds_per_config):
        seed = splitmix64(2024, i)
        rng, ref_rng = RandomSource(seed), RandomSource(seed)
        transcript = rng.descend(root)
        eve = transcript.eve_record.secret if transcript.eve_record else None
        got.append((transcript.procedure, transcript.key, transcript.public_result,
                    transcript.bob_secret, eve, rng.uniform()))
        # The reference draws the attack coin (only between two attacks) and
        # the procedure coin in the same order, then one uniform per
        # measurement of the round's plan, then the next uniform.
        attack = mixture[0][1]
        if len(mixture) == 2 and not ref_rng.uniform() < mixture[0][0]:
            attack = mixture[1][1]
        procedure = Procedure.P_I if ref_rng.uniform() < policy else Procedure.P_II
        plan = driver.round_model(procedure, attack).plan
        draws = [ref_rng.uniform() for step in plan.steps if isinstance(step, MeasureStep)]
        group = rounds.setdefault(id(plan), (plan, procedure, [], []))
        group[2].append(i)
        group[3].append(draws + [ref_rng.uniform()])
    want = [None] * rounds_per_config
    for plan, procedure, indices, uniforms in rounds.values():
        uniforms = np.array(uniforms)
        out = oracle.sample(conv, plan, uniforms[:, :-1])
        for r, i in enumerate(indices):
            row = {name: labels[r] for name, labels in out.items()}
            want[i] = (procedure, row["key"], row.get("public"), row["secret"], row.get("eve"),
                       float(uniforms[r, -1]))
    mismatches = [(i, g, w) for i, (g, w) in enumerate(zip(got, want)) if g != w]
    assert mismatches == []


def test_oracle_shares_no_code_with_the_kernels():
    # The oracle is only independent while it computes everything itself.
    tree = ast.parse(Path(oracle.__file__).read_text())
    imported, named = set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported |= {alias.name for alias in node.names}
        elif isinstance(node, ast.ImportFrom):
            imported |= {node.module} | {f"{node.module}.{alias.name}" for alias in node.names}
            named |= {alias.name for alias in node.names}
        elif isinstance(node, ast.Name):
            named.add(node.id)
        elif isinstance(node, ast.Attribute):
            named.add(node.attr)
    assert "swapqkd.bell" in imported  # the parse saw the imports
    assert not {name for name in imported if name.startswith("swapqkd.qstate")}
    assert not named & {"qstate", "gate_rows", "project_rows", "collapse_rows", "prepare_pairs"}


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
        measured = [step.name for step in model.plan.steps if isinstance(step, MeasureStep)]
        for mass, outcomes in driver.enumerate_branches(procedure, attack):
            node, prefix, product = model.root, (), 1.0
            for name, label in outcomes.items():
                # The node at depth j draws the plan's j-th measurement; every node
                # is on some branch's path.
                assert isinstance(node, Distribution) and measured[len(prefix)] == name
                assert abs(sum(node) - 1.0) <= 1e-12
                k = LABELS.index(label)
                product *= node[k]
                node = node.children[k]
                prefix += (k,)
            assert node is model.leaves[prefix]
            assert abs(product - mass) <= 1e-12
            checked += 1
    assert checked > 0


def test_enumeration_is_shared_across_attack_instances(conv):
    driver = protocol_driver(conv, "six")
    first = driver.enumerate_branches(Procedure.P_II, ZlgAttack(conv))
    assert driver.enumerate_branches(Procedure.P_II, ZlgAttack(conv)) is first
    with pytest.raises(TypeError):
        first[0][1]["key"] = "11"
