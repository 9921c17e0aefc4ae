"""The branch-tree sampler against an independent statevector.

A Monte Carlo round descends one compiled tree: the attack and procedure
coins, then the conditional-probability rows built from a driver's exact
branches.  These tests pin those rows to the branch masses and check, round by
round, that a descent draws the same outcomes from the same uniforms as the
lockstep statevector sampler of ``tests/oracle.py``, which shares no code with
the engine's kernels.  The folded tree Monte Carlo descends must read the same
facts as the full tree, from the same stretch of the stream.
"""

import ast
import math
import operator
from pathlib import Path

import numpy as np
import pytest

from swapqkd import harness, qstate
from swapqkd.adversary import ATTACKS, AttackStrategy, ZlgAttack, attack_detection_probability
from swapqkd.bell import LABELS
from swapqkd.harness import splitmix64
from swapqkd.protocol import Leaf, MeasureStep, Procedure, build_plan, protocol_driver

import oracle
from streams import RandomSource

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
    tree = harness._round_tree(config)
    mixture = AttackStrategy(kind).mixture(conv)
    # Each leaf -> the procedure of the round model that owns it.
    procedure_of = {
        id(leaf): procedure
        for _weight, attack in mixture for procedure in Procedure
        for leaf in driver.round_model(procedure, attack).leaves
    }
    plans = {(procedure, attack): build_plan(driver.spec, procedure, attack)
             for _weight, attack in mixture for procedure in Procedure}
    rounds_per_config = ROUNDS_PER_POLICY[policy]
    got = []
    rounds = {}  # plan id -> (plan, procedure, round indices, uniforms)
    for i in range(rounds_per_config):
        seed = splitmix64(2024, i)
        rng, ref_rng = RandomSource(seed), RandomSource(seed)
        leaf = rng.descend(tree)
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
        plan = plans[procedure, attack]
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
    full = harness._round_tree(harness.CurveConfig(protocol_name, AttackStrategy(kind), policy))
    folded, _, _ = harness._folded_tree(protocol_name, AttackStrategy(kind), policy)
    # The reference tree is compiled without a fold key, so no row of it jumps.
    assert not any(full.levels)
    for i in range(4_000):
        rng, twin = RandomSource(splitmix64(2024, i)), RandomSource(splitmix64(2024, i))
        leaf, twin_leaf = rng.descend(folded), twin.descend(full)
        assert (leaf.detected, leaf.informed) == (twin_leaf.detected, twin_leaf.informed)
        assert rng.uniform() == twin.uniform()


# Per-compared-round detection probability of each attack kind at procedure coin q: Eve's
# matched procedure goes undetected and her mismatched one is caught half the time.
CLOSED_FORM_DETECTION = {
    "none": lambda q: 0.0,
    "zlg": lambda q: (1.0 - q) / 2,
    "tailored": lambda q: q / 2,
    "mixed": lambda q: 0.25,
    "four-swap": lambda q: 0.25,
}


@pytest.mark.parametrize("policy", [0.0, 0.3, 0.5, 1.0])
@pytest.mark.parametrize("protocol_name,kind", HARNESS_CONFIGS,
                         ids=[f"{name}-{kind}" for name, kind in HARNESS_CONFIGS])
def test_the_folded_tree_samples_the_exact_detection_probability(
        conv, protocol_name, kind, policy):
    # Every attack kind on each of its protocols.
    assert sorted(HARNESS_CONFIGS) == sorted(
        (name, k) for k, (protocols, _builds) in ATTACKS.items() for name in protocols)
    # A reachable row that ends a walk gets the product of the threshold steps on the way.
    tree, detected, _ = harness._folded_tree(protocol_name, AttackStrategy(kind), policy)
    thresholds, children = tree.rows
    ends = {}

    def visit(row, mass):
        if tree.leaves[row] is not None:
            ends[row] = ends.get(row, 0.0) + mass
            return
        below = 0.0
        for k, threshold in enumerate(t for t in thresholds[row] if t != math.inf):
            if threshold > below:
                visit(children[row][k], mass * (threshold - below))
            below = threshold

    visit(0, 1.0)
    assert abs(sum(ends.values()) - 1.0) <= 1e-12
    sampled = sum(mass for row, mass in ends.items() if detected[row])
    exact = sum(
        weight * (policy * attack_detection_probability(conv, protocol_name, Procedure.P_I, a)
                  + (1.0 - policy)
                  * attack_detection_probability(conv, protocol_name, Procedure.P_II, a))
        for weight, a in AttackStrategy(kind).mixture(conv)
    )
    assert abs(sampled - exact) <= 1e-12
    assert abs(sampled - CLOSED_FORM_DETECTION[kind](policy)) <= 1e-12


def test_a_round_without_an_attack_folds_to_one_jump():
    # Every six-qubit round without Eve reads (False, False) after the coin and the
    # three measurements, so the root ends every walk and no round walks a level.
    tree, _, _ = harness._folded_tree("six", AttackStrategy("none"), 0.5)
    assert tree.leaves[0] is not None and tree.levels[0] == 4
    assert (tree.leaves[0].detected, tree.leaves[0].informed) == (False, False)


def _leaf(detected: bool, informed: bool = False) -> Leaf:
    return Leaf(1.0, {}, (), detected, informed)


FACTS = operator.attrgetter("detected", "informed")  # the fold key of a Monte Carlo tree


def test_an_unreachable_child_does_not_block_a_fold():
    # Outcome 1 of row 1 has probability 0, so its other facts cannot be reached.
    kept, dead = _leaf(True, True), _leaf(False)
    folded = qstate.compile_tree([(0.25, 0.75), (0.5, 0.0, 0.5), None, None, None],
                                 [[1, 1], [2, 3, 4], [], [], []],
                                 [None, None, kept, dead, _leaf(True, True)], FACTS)
    # The folded row ends at its lowest slot's leaf, the same object, not an equal one.
    assert folded.leaves[0] is kept and folded.levels[0] == 2
    # A live child with other facts does block it, whichever of the two facts differs.
    for other in (_leaf(False, True), _leaf(True, False)):
        mixed = qstate.compile_tree([(0.5, 0.1, 0.4), None, None, None], [[1, 2, 3], [], [], []],
                                    [None, kept, other, _leaf(True, True)], FACTS)
        assert mixed.leaves[0] is None


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
    assert not named & {"qstate", "gate_rows", "project_rows", "collapse_rows"}


def _model_roots(conv):
    """(driver, procedure, attack, the root row of that round model) over the unfolded trees
    of every config, which hold all 12 driver round models."""
    for protocol_name, kind in (("six", "none"), ("six", "mixed"), ("four", "none"),
                                ("four", "four-swap")):
        driver = protocol_driver(conv, protocol_name)
        tree = harness._round_tree(harness.CurveConfig(protocol_name, AttackStrategy(kind)))
        mixture = AttackStrategy(kind).mixture(conv)
        for a, (_weight, attack) in enumerate(mixture):
            coin = tree.rows[1][0][a] if len(mixture) == 2 else 0
            for p, procedure in enumerate(Procedure):
                yield driver, procedure, attack, tree, tree.rows[1][coin][p]


def test_tree_path_products_equal_branch_masses(conv):
    checked = 0
    for driver, procedure, attack, tree, root in _model_roots(conv):
        (thresholds, children), leaves = tree.rows, tree.leaves
        model = driver.round_model(procedure, attack)
        plan = build_plan(driver.spec, procedure, attack)
        measured = [step.name for step in plan.steps if isinstance(step, MeasureStep)]
        for leaf in model.leaves:
            node, prefix, product = root, (), 1.0
            for name, label in leaf.outcomes.items():
                # The row at depth j draws the plan's j-th measurement; every row
                # is on some branch's path.
                assert leaves[node] is None and measured[len(prefix)] == name
                assert abs(thresholds[node][-1] - 1.0) <= 1e-12
                k = LABELS.index(label)
                product *= thresholds[node][k] - (thresholds[node][k - 1] if k else 0.0)
                node = children[node][k]
                prefix += (k,)
            assert leaves[node] is leaf and prefix == leaf.path
            assert abs(product - leaf.mass) <= 1e-12
            checked += 1
    assert checked == 32 + 2 * 80 + 8 + 2 * 20


def test_enumeration_is_shared_across_attack_instances(conv):
    driver = protocol_driver(conv, "six")
    first = driver.round_model(Procedure.P_II, ZlgAttack(conv)).leaves
    assert driver.round_model(Procedure.P_II, ZlgAttack(conv)).leaves is first
    with pytest.raises(TypeError):
        first[0].outcomes["key"] = "11"
