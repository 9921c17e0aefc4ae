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
import hashlib
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


# SHA-256 of each folded round tree's _canonical_form, captured from the linked-node trees
# that the compiled arrays replaced.  A draw-for-draw test only sees a change that flips a
# pick; this sees one ulp of a threshold, a slot's row, a level or a fact.
FOLDED_TREE_SHA256 = {
    ("six", "none", 0.0): "29a536851d6b63478ab7fbde55b61cae1ef6caea781ecfc13956d5b8e827f764",
    ("six", "none", 0.3): "29a536851d6b63478ab7fbde55b61cae1ef6caea781ecfc13956d5b8e827f764",
    ("six", "none", 0.5): "29a536851d6b63478ab7fbde55b61cae1ef6caea781ecfc13956d5b8e827f764",
    ("six", "none", 1.0): "29a536851d6b63478ab7fbde55b61cae1ef6caea781ecfc13956d5b8e827f764",
    ("six", "zlg", 0.0): "46f0eb0f7e0941516137231afb07b7023ff5c6386ffa3407d84bae8bdf35ad4a",
    ("six", "zlg", 0.3): "b81d9c637f2641da81c5b745ef41ae130daaf8b112e783d4bd3e730afad806f6",
    ("six", "zlg", 0.5): "5a81249b63579dece16946bdd55804304713ffd7b0a76e08dc5bfc0ce64703db",
    ("six", "zlg", 1.0): "e91e762649f0ed6fe8a41fa1c50f9bf8a87cbed9746ce805fe5b24ca01c3e38e",
    ("six", "tailored", 0.0): "e91e762649f0ed6fe8a41fa1c50f9bf8a87cbed9746ce805fe5b24ca01c3e38e",
    ("six", "tailored", 0.3): "06a2f56253d73532282d38fca821b5d69de02c8af04da53b91d4727655f5a058",
    ("six", "tailored", 0.5): "55f35fb033a663502e859c3f3a1198549632c83d699f694d32669cb3ab72d755",
    ("six", "tailored", 1.0): "caf1aa2c778d6e80030e856b5e3d7700780cfbf7cac6c45b0a58d260917623d7",
    ("six", "mixed", 0.0): "f781d6c4914b941ed88e5dd2184c2b040550b385e7f2ccf04ef79670a0a4191e",
    ("six", "mixed", 0.3): "1b0f0303ce198a8790d665be50719d732e928e0965a1051758e6aed1a4ac774e",
    ("six", "mixed", 0.5): "31b598301d836061eb99ec3ea7489e78df5a85c8fa7b511b97ca1de79eb14136",
    ("six", "mixed", 1.0): "c812768d1fab40ef8eb1bfc5708e428aef9a7371acf43b1ae334a8a5fd1b543d",
    ("four", "none", 0.0): "78ca9093bdcaca663d2a445aa8a7267b2f55b75a08bf02f43596aafe3309126e",
    ("four", "none", 0.3): "78ca9093bdcaca663d2a445aa8a7267b2f55b75a08bf02f43596aafe3309126e",
    ("four", "none", 0.5): "78ca9093bdcaca663d2a445aa8a7267b2f55b75a08bf02f43596aafe3309126e",
    ("four", "none", 1.0): "78ca9093bdcaca663d2a445aa8a7267b2f55b75a08bf02f43596aafe3309126e",
    ("four", "four-swap", 0.0): "498fa94bc419b6777892a23ffefbad29265172a854ebc63dd93f169e4b84bd10",
    ("four", "four-swap", 0.3): "e5003cfd2720dab27e8408df8094074bd3927bba98a3841af27a3b4b4117f05d",
    ("four", "four-swap", 0.5): "04640d95b11f61a5a83d81bde8bda8c65fbba5bdfba7418df5a754c6b4e33f00",
    ("four", "four-swap", 1.0): "00b182a0c58d616860aca0d0c6be15e95924bb139c77d6fca1022854731b126b",
}


def _canonical_form(tree) -> str:
    """The rows a walk from the root can reach, in pre-order and numbered in that order: a
    drawing row as ``draw``, its thresholds as float.hex and each slot's row number, the gap
    slot included; a row that ends a walk as ``end``, its levels and its leaf's two facts."""
    (thresholds, children), leaves, levels = tree.rows, tree.leaves, tree.levels
    number, lines = {}, []

    def visit(row):
        if row not in number:
            number[row] = n = len(lines)
            lines.append(None)
            if leaves[row] is None:
                finite = [t for t in thresholds[row] if t != math.inf]
                slots = [visit(child) for child in children[row][:len(finite) + 1]]
                lines[n] = f"draw {','.join(map(float.hex, finite))} {','.join(map(str, slots))}"
            else:
                lines[n] = f"end {levels[row]} {leaves[row].detected} {leaves[row].informed}"
        return number[row]

    visit(0)
    return "\n".join(lines)


@pytest.mark.parametrize("protocol_name,kind,policy", list(FOLDED_TREE_SHA256), ids=[
    f"{name}-{kind}-q{policy}" for name, kind, policy in FOLDED_TREE_SHA256])
def test_folded_trees_are_pinned_bit_for_bit(protocol_name, kind, policy):
    tree, _, _ = harness._folded_tree(protocol_name, AttackStrategy(kind), policy)
    digest = hashlib.sha256(_canonical_form(tree).encode()).hexdigest()
    assert digest == FOLDED_TREE_SHA256[protocol_name, kind, policy]


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
