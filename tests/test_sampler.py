"""The branch-tree sampler against an independent statevector.

A Monte Carlo round descends one tree: the attack and procedure coins, then
the conditional-probability nodes built from a driver's exact branches.
These tests pin those nodes to the branch masses and check, round by round,
that a descent draws the same outcomes from the same uniforms as the
lockstep statevector sampler of ``tests/oracle.py``, which shares no code
with the engine's kernels.  The folded tree Monte Carlo descends must read the
same facts as the full tree, from the same stretch of the stream.
"""

import ast
from pathlib import Path

import numpy as np
import pytest

from swapqkd import harness
from swapqkd.adversary import AttackStrategy, FourSwapAttack, TailoredAttack, ZlgAttack
from swapqkd.bell import LABELS
from swapqkd.harness import splitmix64
from swapqkd.protocol import Leaf, MeasureStep, Procedure, protocol_driver
from swapqkd.qstate import Distribution, Jump, RandomSource

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
    # Each leaf -> the procedure of the round model that owns it.
    procedure_of = {
        id(leaf): procedure
        for _weight, attack in mixture for procedure in Procedure
        for leaf in driver.round_model(procedure, attack).leaves
    }
    rounds_per_config = ROUNDS_PER_POLICY[policy]
    got = []
    rounds = {}  # plan id -> (plan, procedure, round indices, uniforms)
    for i in range(rounds_per_config):
        seed = splitmix64(2024, i)
        rng, ref_rng = RandomSource(seed), RandomSource(seed)
        leaf = rng.descend(root)
        out = leaf.outcomes
        got.append((procedure_of[id(leaf)], out["key"], out.get("public"), out["secret"],
                    out.get("eve"), rng.uniform()))
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


@pytest.mark.parametrize("policy", [0.0, 0.3, 0.5, 1.0])
@pytest.mark.parametrize("protocol_name,kind", HARNESS_CONFIGS,
                         ids=[f"{name}-{kind}" for name, kind in HARNESS_CONFIGS])
def test_the_folded_tree_reads_the_full_trees_facts_from_the_same_draws(
        protocol_name, kind, policy):
    config = harness.CurveConfig(protocol_name, AttackStrategy(kind), policy)
    full, folded = harness._round_tree(config), harness._fold(harness._round_tree(config))
    for i in range(4_000):
        rng, twin = RandomSource(splitmix64(2024, i)), RandomSource(splitmix64(2024, i))
        leaf, twin_leaf = rng.descend(folded), twin.descend(full)
        assert (leaf.detected, leaf.informed) == (twin_leaf.detected, twin_leaf.informed)
        assert rng.uniform() == twin.uniform()


def test_a_round_without_an_attack_folds_to_one_jump():
    # Every six-qubit round without Eve reads (False, False) after the coin and the
    # three measurements, so no round walks a level.
    root = harness._descent_root(harness.CurveConfig("six", AttackStrategy("none")))
    assert root.__class__ is Jump and root.levels == 4
    assert (root.leaf.detected, root.leaf.informed) == (False, False)


def _leaf(detected: bool, informed: bool = False) -> Leaf:
    return Leaf({}, detected, informed)


def test_equal_facts_at_unequal_depths_do_not_fold():
    # Both paths end undetected, one a level deeper: a jump would misplace the stream.
    shallow, deep = _leaf(False), _leaf(False)
    root = Distribution((0.5, 0.5), [shallow, Distribution((1.0,), [deep])])
    folded = harness._fold(root)
    assert folded.__class__ is Distribution and folded.children[0] is shallow
    inner = folded.children[1]
    assert inner.__class__ is Jump and (inner.leaf, inner.levels) == (deep, 1)


def test_an_unreachable_child_does_not_block_a_fold():
    # Outcome 1 has probability 0, so its other facts cannot be reached.
    kept, dead = _leaf(True, True), _leaf(False)
    root = Distribution((0.5, 0.0, 0.5), [kept, dead, _leaf(True, True)])
    folded = harness._fold(Distribution((0.25, 0.75), [root, root]))
    assert folded.__class__ is Jump and (folded.leaf, folded.levels) == (kept, 2)
    # A live child with other facts does block it, whichever of the two facts differs.
    for other in (_leaf(False, True), _leaf(True, False)):
        mixed = Distribution((0.5, 0.1, 0.4), [kept, other, _leaf(True, True)])
        assert harness._fold(mixed).__class__ is Distribution


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
        for (mass, outcomes), leaf in zip(model.branches, model.leaves, strict=True):
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
            assert node is leaf
            assert abs(product - mass) <= 1e-12
            checked += 1
    assert checked > 0


def test_enumeration_is_shared_across_attack_instances(conv):
    driver = protocol_driver(conv, "six")
    first = driver.round_model(Procedure.P_II, ZlgAttack(conv)).branches
    assert driver.round_model(Procedure.P_II, ZlgAttack(conv)).branches is first
    with pytest.raises(TypeError):
        first[0][1]["key"] = "11"
