import dataclasses
import itertools
from bisect import bisect_right
from dataclasses import replace

import numpy as np
import pytest

from swapqkd import adversary, bell, harness, protocol, qstate
from swapqkd.adversary import AttackStrategy, FourSwapAttack, TailoredAttack, ZlgAttack
from swapqkd.bell import LABELS
from swapqkd.protocol import (
    EXPECTED_TABLE1,
    PROTOCOLS,
    AmbiguityError,
    Attack,
    ConditionalGateStep,
    GateStep,
    Leaf,
    MalformedAdversaryError,
    MeasureStep,
    Plan,
    Procedure,
    Rotate,
    TableMismatchError,
    WrongProtocolError,
    build_plan,
    derive_swap_table,
    protocol_driver,
    reproduce_table1,
)
from swapqkd.qstate import GATES

import oracle
from streams import RandomSource


@pytest.fixture(scope="module", params=["six", "four"])
def driver(request, conv):
    return protocol_driver(conv, request.param)


# --- adversary-free correctness ----------------------------------------------


def test_inferred_key_equals_key_on_every_branch(driver):
    for procedure in Procedure:
        leaves = driver.round_model(procedure).leaves
        assert abs(sum(leaf.mass for leaf in leaves) - 1.0) < 1e-10
        for out in (leaf.outcomes for leaf in leaves):
            inferred = driver.infer(procedure, out)
            assert inferred == out["key"]


def test_key_is_uniform(driver):
    for procedure in Procedure:
        dist = dict.fromkeys(LABELS, 0.0)
        for leaf in driver.round_model(procedure).leaves:
            dist[leaf.outcomes["key"]] += leaf.mass
        assert np.allclose(list(dist.values()), 0.25, atol=1e-10)


def test_six_qubit_branch_counts(conv):
    drv = protocol_driver(conv, "six")
    for procedure in Procedure:
        leaves = drv.round_model(procedure).leaves
        # 4 keys x 4 publics, secret fully determined
        assert len(leaves) == 16
        for leaf in leaves:
            assert abs(leaf.mass - 1 / 16) < 1e-10


def test_four_qubit_branch_counts(conv):
    drv = protocol_driver(conv, "four")
    for procedure in Procedure:
        leaves = drv.round_model(procedure).leaves
        assert len(leaves) == 4
        for leaf in leaves:
            assert abs(leaf.mass - 1 / 4) < 1e-10
            assert leaf.outcomes["secret"] == leaf.outcomes["key"]  # derived: secret pins the key


# --- breadth-first enumeration ---------------------------------------------------


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
        six = [None, ZlgAttack(conv), TailoredAttack(conv)]
        four = [None] + [FourSwapAttack(conv, guess) for guess in Procedure]
        for procedure in Procedure:
            for attack in six:
                yield conv, build_plan(PROTOCOLS["six"], procedure, attack)
            for attack in four:
                yield conv, build_plan(PROTOCOLS["four"], procedure, attack)
    conv = bell.convention()
    for family in _search_families():
        for plan in family:
            yield conv, plan


def _assert_same_branches(got, want):
    """``got``'s ``(mass, outcomes, path)`` branches are the walk's ``(mass, outcomes)``, bit for
    bit, each path the ``LABELS`` indices of its outcomes."""
    assert [list(out.items()) for _p, out, _path in got] == [list(out.items()) for _p, out in want]
    assert [p.hex() for p, _out, _path in got] == [p.hex() for p, _out in want]
    paths = [tuple(map(LABELS.index, out.values())) for _p, out in want]
    assert [path for _p, _out, path in got] == paths


def _branches(model):
    """A round model's branches, as :func:`protocol.enumerate_plans` hands them out."""
    return [(leaf.mass, leaf.outcomes, leaf.path) for leaf in model.leaves]


def test_breadth_first_enumeration_matches_depth_first_walk():
    plans = list(_exact_pass_plans())
    assert len(plans) == 834
    for conv, plan in plans:
        _assert_same_branches(protocol.enumerate_plans(conv, (plan,))[0], oracle.walk(conv, plan))
    # Each search family as one batch: every plan gets what it gets alone.
    conv = bell.convention()
    for family in _search_families():
        batch = protocol.enumerate_plans(conv, family)
        assert len(batch) == len(family)
        for plan, got in zip(family, batch):
            _assert_same_branches(got, oracle.walk(conv, plan))
    # Conditional gates that differ per plan: interceptions sharing the frozen
    # pre-rotations, each with its own correction map.
    frozen = adversary.FROZEN_TAILORED_PARAMS
    names = [name for _m, name in frozen.pauli_map]
    maps = [frozen.pauli_map, tuple(adversary.pauli_for_label(conv).items())]
    maps += [tuple(zip(LABELS, names[k:] + names[:k])) for k in (1, 2)]
    for procedure in Procedure:
        attacks = [TailoredAttack(conv, replace(frozen, pauli_map=m)) for m in maps]
        family = [build_plan(PROTOCOLS["six"], procedure, a) for a in attacks]
        for plan, got in zip(family, protocol.enumerate_plans(conv, family)):
            _assert_same_branches(got, oracle.walk(conv, plan))


def test_swap_family_matches_depth_first_walk():
    # The swap algebra's 16 plans differ only in their start labels; on every convention each
    # gets, bit for bit, what the walk gets from its start, and the dense mass table holds each
    # branch's mass at its path.
    family = protocol._SWAP_FAMILY
    assert [p.start for p in family] == list(itertools.product(LABELS, repeat=2))
    for conv in bell.all_conventions():
        table = protocol.outcome_masses(conv, family)
        assert table.shape == (16, 4, 4)
        for plan, got, masses in zip(family, protocol.enumerate_plans(conv, family), table):
            _assert_same_branches(got, oracle.walk(conv, plan))
            want = np.zeros((4, 4))
            for mass, _out, path in got:
                want[path] = mass
            assert np.array_equal(masses, want)


def test_plan_start_is_one_label_per_pair(conv):
    pairs, steps = ((1, 2), (3, 4)), (MeasureStep("m", (1, 3)), MeasureStep("r", (2, 4)))
    assert Plan(pairs, steps).start == ("00", "00") == Plan(pairs, steps, ("00", "00")).start
    assert Plan(pairs, steps) == Plan(pairs, steps, ("00", "00"))
    for start in (("00",), ("00", "01", "10"), ("00", "2"), ("00", 0)):
        with pytest.raises(ValueError, match="one start label"):
            Plan(pairs, steps, start)
    # Plans of one family may start apart; equal starts give equal branches.
    family = [Plan(pairs, steps, start) for start in (("01", "10"), ("00", "00"), ("01", "10"))]
    batch = protocol.enumerate_plans(conv, family)
    assert batch[0] == batch[2] != batch[1]
    for plan, got in zip(family, batch):
        _assert_same_branches(got, oracle.walk(conv, plan))


def test_enumeration_collapses_only_measurements_a_step_follows(conv, monkeypatch):
    # A measurement's states are built at the next step, so the last one builds none.
    real, calls = qstate.collapse_rows, []
    monkeypatch.setattr(qstate, "collapse_rows", lambda *args: calls.append(1) or real(*args))
    for name, attack in (("six", ZlgAttack(conv)), ("four", FourSwapAttack(conv, Procedure.P_I))):
        family = [build_plan(PROTOCOLS[name], p, attack) for p in Procedure]
        steps = family[0].steps
        assert isinstance(steps[-1], MeasureStep)
        calls.clear()
        batch = protocol.enumerate_plans(conv, family)
        assert len(calls) == sum(isinstance(step, MeasureStep) for step in steps[:-1]) > 0
        for plan, got in zip(family, batch):
            _assert_same_branches(got, oracle.walk(conv, plan))


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
                for procedure in Procedure:
                    model = driver.round_model(procedure, attack)
                    spec = unrotated if procedure is Procedure.P_I else PROTOCOLS[name]
                    plan = build_plan(spec, procedure, attack)
                    if procedure is Procedure.P_I:
                        batched = build_plan(PROTOCOLS[name], procedure, attack)
                        assert len(plan.steps) < len(batched.steps)
                    _assert_same_branches(_branches(model), oracle.walk(conv, plan))
                    checked += 1
    assert checked == 64 * 12


def test_gate_steps_refuse_unknown_names():
    # A step resolves its gate names where it is made, so no batch meets an unknown one.
    assert GateStep(1, "XS").gate == "XS"
    for name in ("Q", "", "SQ", "s"):
        with pytest.raises(ValueError, match="unknown gate name"):
            GateStep(1, name)
        with pytest.raises(ValueError, match="unknown gate name"):
            ConditionalGateStep(2, "m", ("I", "X", name, "Z"))
    with pytest.raises(TypeError):
        GateStep(1, GATES["S"])  # a matrix is not a name


def test_enumeration_refuses_pairs_that_do_not_partition_the_register(conv):
    # The batch starts from the pairs, so they must cover each qubit once.
    steps = (MeasureStep("m", (1, 3)),)
    assert len(protocol.enumerate_plans(conv, [Plan(((1, 2), (3, 4)), steps)])[0]) == 4
    # A plan's register is two qubits per pair, so its pairs must cover 1..2 * len(pairs).
    for pairs in (((1, 2), (2, 3)), ((2, 3),), ((1, 2), (3, 5)), ((0, 1), (2, 3)),
                  ((1, 1), (3, 4))):
        with pytest.raises(ValueError, match="do not partition"):
            protocol.enumerate_plans(conv, [Plan(pairs, steps)])


def test_enumeration_refuses_a_register_past_max_qubits(conv):
    steps = (MeasureStep("m", (1, 3)),)
    eight = tuple((q, q + 1) for q in range(1, 8, 2))
    assert len(protocol.enumerate_plans(conv, [Plan(eight, steps)])[0]) == 4
    ten = eight + ((9, 10),)
    assert qstate.MAX_QUBITS == 8
    with pytest.raises(ValueError, match=r"1\.\.8 qubits, got 10"):
        protocol.enumerate_plans(conv, [Plan(ten, steps)])
    with pytest.raises(ValueError, match=r"1\.\.8 qubits, got 0"):
        protocol.enumerate_plans(conv, [Plan((), ())])


def test_enumeration_starts_each_pair_where_it_is_listed(conv):
    # The batch starts as the pairs' kron, its qubits in listed order, whatever that order is.
    steps = (GateStep(1, "S"), MeasureStep("a", (1, 2)), GateStep(3, "YS"),
             MeasureStep("b", (4, 3)), MeasureStep("c", (5, 6)))
    for pairs in (((1, 2), (3, 4), (5, 6)), ((6, 5), (3, 1), (4, 2)), ((2, 6), (5, 3), (1, 4))):
        plan = Plan(pairs, steps)
        _assert_same_branches(protocol.enumerate_plans(conv, [plan])[0], oracle.walk(conv, plan))


def test_enumeration_looks_up_each_gate_by_name(conv, monkeypatch):
    # A batch applies qstate.gate's own arrays: one per plan, or one per plan and outcome for
    # a conditional gate.  When every plan names the same gate, no row chooses.
    real, seen = qstate.gate_rows, []
    monkeypatch.setattr(qstate, "gate_rows",
                        lambda front, gates, choice=None: seen.append((gates, choice))
                        or real(front, gates, choice))
    frozen = adversary.FROZEN_TAILORED_PARAMS
    names = [name for _m, name in frozen.pauli_map]
    variant = replace(frozen, pre_unitaries=("I", "Y"),
                      pauli_map=tuple(zip(LABELS, names[1:] + names[:1])))
    attacks = (TailoredAttack(conv), TailoredAttack(conv, variant))
    family = [build_plan(PROTOCOLS["six"], Procedure.P_II, a) for a in attacks]
    assert family[0] != family[1] and hash(family[0]) == hash(replace(family[0]))
    protocol.enumerate_plans(conv, family)
    steps = [[s.gates if isinstance(s, ConditionalGateStep) else (s.gate,) for s in plan.steps
              if not isinstance(s, MeasureStep)] for plan in family]
    assert len(seen) == len(steps[0]) == 4
    assert [choice is None for _gates, choice in seen] == [False, False, True, True]
    for (gates, choice), *per_plan in zip(seen, *steps):
        assert (choice is None) == (len(set(per_plan)) == 1 and len(per_plan[0]) == 1)
        want = [name for plan in per_plan for name in plan]
        assert len(gates) == len(want) and all(g is qstate.gate(n) for g, n in zip(gates, want))


def test_enumerate_plans_rejects_mismatched_skeletons(conv):
    base = adversary._travel_block_plan("X", "S", Procedure.P_I)
    steps = base.steps
    assert isinstance(steps[0], GateStep) and isinstance(steps[2], MeasureStep)
    # Plans that differ only in gate names batch together, across procedures too.
    others = [
        adversary._travel_block_plan("Y", "I", Procedure.P_I),
        adversary._travel_block_plan("X", "S", Procedure.P_II),
    ]
    assert len(protocol.enumerate_plans(conv, [base] + others)) == 3
    cond = ConditionalGateStep(1, "eve", ("X",) * len(LABELS))
    six = build_plan(PROTOCOLS["six"], Procedure.P_I, TailoredAttack(conv))
    at = next(i for i, s in enumerate(six.steps) if isinstance(s, ConditionalGateStep))
    tail = six.steps[at]
    mismatched = [
        replace(base, steps=steps + (GateStep(1, "X"),)),  # one more step
        replace(base, pairs=((1, 3), (2, 4))),
        replace(base, steps=(GateStep(3, steps[0].gate),) + steps[1:]),  # another qubit
        replace(base, steps=steps[:2] + (MeasureStep("m", (2, 4)),) + steps[3:]),  # name
        replace(base, steps=steps[:2] + (MeasureStep("eve", (4, 2)),) + steps[3:]),  # pair
        replace(base, steps=(cond,) + steps[1:]),  # a conditional gate for a gate
    ]
    for plan in mismatched:
        with pytest.raises(ValueError, match="differ only in gate names"):
            protocol.enumerate_plans(conv, [base, plan])
    steps6 = six.steps[:at] + (replace(tail, on="key"),) + six.steps[at + 1:]
    with pytest.raises(ValueError, match="differ only in gate names"):
        protocol.enumerate_plans(conv, [six, replace(six, steps=steps6)])
    # A conditional gate holds one gate name per outcome, indexed by the outcome's LABELS position.
    for gates in (tail.gates[:3], tail.gates + tail.gates[:1]):
        with pytest.raises(ValueError, match="one gate per outcome label"):
            replace(tail, gates=gates)
    with pytest.raises(ValueError, match="differ only in gate names"):
        protocol.enumerate_plans(conv, [])


# --- inference tables ---------------------------------------------------------


def test_key_support_backs_bob_and_eve(conv):
    outcomes = ({"key": "11", "m": "00"}, {"key": "00", "m": "00"}, {"key": "01", "m": "10"})
    support = protocol.key_support(outcomes, lambda out: out["m"])
    assert support == {"00": ("00", "11"), "10": ("01",)}
    with pytest.raises(TypeError):
        support["01"] = ("10",)  # read-only
    driver = protocol_driver(conv, "six")
    for procedure in Procedure:
        honest = driver.round_model(procedure)
        assert honest.posterior == {}
        assert driver.inference[procedure] == protocol.key_support(
            (leaf.outcomes for leaf in honest.leaves), driver.spec.bob_observation)
        attacked = driver.round_model(procedure, ZlgAttack(conv))
        assert attacked.posterior == protocol.key_support(
            (leaf.outcomes for leaf in attacked.leaves), driver.spec.eve_observation)


def test_six_inference_tables_are_total_and_balanced(conv):
    for procedure in Procedure:
        table = dict(protocol_driver(conv, "six").inference[procedure])
        assert len(table) == 16  # every (public, secret) combination reachable
        for key in LABELS:
            assert sum(1 for v in table.values() if v == (key,)) == 4


def test_four_inference_tables_are_total(conv):
    for procedure in Procedure:
        table = dict(protocol_driver(conv, "four").inference[procedure])
        assert len(table) == 4
        assert sorted(table.values()) == [(key,) for key in sorted(LABELS)]


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
    driver = protocol_driver(conv, "six")
    with pytest.raises(KeyError):
        driver.infer(Procedure.P_I, {"public": None, "secret": "00"})


def test_six_p1_inference_is_swap_table_composition(conv):
    # The (i) inference must equal two chained swap lookups: the key
    # measurement swaps (2,5) out of the first two pairs, the public
    # measurement swaps (2,4) out of (2,5) and (4,6).
    swap = derive_swap_table(conv)
    driver = protocol_driver(conv, "six")
    for key in LABELS:
        middle = swap["00", "00", key]
        for public in LABELS:
            secret = swap[middle, "00", public]
            assert driver.infer(Procedure.P_I, {"public": public, "secret": secret}) == key


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


def test_exact_reads_build_no_harness_tree(conv, monkeypatch):
    # Tables, probabilities, posteriors and the attack search read only the
    # branches and their leaves, which are built with each model; the tree
    # Monte Carlo samples is built by harness, for Monte Carlo runs only.
    fresh = protocol._ProtocolBase(conv, "six")
    for module in (protocol, adversary, harness):
        monkeypatch.setattr(module, "protocol_driver", lambda _conv, _name: fresh)
    round_tree, built = harness._round_tree, []
    for name in ("_round_tree", "_folded_tree"):
        monkeypatch.setattr(harness, name, lambda *args, name=name: built.append(name))
    assert tuple(reproduce_table1(conv)) == EXPECTED_TABLE1
    assert tuple(adversary.reproduce_table2(conv)) == adversary.EXPECTED_TABLE2
    assert adversary.derive_tailored_attack(conv) == adversary.FROZEN_TAILORED_PARAMS
    for procedure in Procedure:
        for attack in (ZlgAttack(conv), TailoredAttack(conv)):
            adversary.attack_detection_probability(conv, "six", procedure, attack)
            adversary.eve_information_probability(conv, "six", procedure, attack)
    models = list(fresh._models.values())
    assert len(models) == 6
    assert built == []
    # The tree of a run that only takes (ii) walks to the tailored model's own leaves,
    # and is the same whenever it is built; building it resolves no other model.
    config = harness.CurveConfig("six", AttackStrategy("tailored"), 0.0)
    tree = round_tree(config)
    leaf = RandomSource(0).descend(tree)
    again = round_tree(config)
    assert (again.rows, again.leaves, again.levels) == (tree.rows, tree.leaves, tree.levels)
    assert list(fresh._models.values()) == models
    model = fresh.round_model(Procedure.P_II, TailoredAttack(conv))
    assert any(leaf is own for own in model.leaves)


def _driver_configs(conv):
    """The six driver configurations, each under both procedures."""
    for name, attacks in (
        ("six", (None, ZlgAttack(conv), TailoredAttack(conv))),
        ("four", (None,) + tuple(FourSwapAttack(conv, guess) for guess in Procedure)),
    ):
        for attack in attacks:
            for procedure in Procedure:
                yield name, procedure, attack


def test_leaves_match_a_per_branch_rebuild(conv):
    # Each leaf is its enumerated branch, in branch order, and that branch's two facts.
    checked = 0
    for name, procedure, attack in _driver_configs(conv):
        driver = protocol._ProtocolBase(conv, name)
        model = driver.round_model(procedure, attack)
        plans = [build_plan(PROTOCOLS[name], p, attack) for p in Procedure]
        branches = protocol.enumerate_plans(conv, plans)[list(Procedure).index(procedure)]
        assert len(model.leaves) == len(branches)
        for (mass, out, path), leaf in zip(branches, model.leaves):
            informed = False
            if attack is not None:
                observation = (out["eve"], out["public"]) if name == "six" else out["eve"]
                informed = model.posterior[observation] == (out["key"],)
            want = Leaf(mass, out, path, driver.infer(procedure, out) != out["key"], informed)
            assert leaf == want and leaf.mass.hex() == mass.hex()
            checked += 1
    # Six: 16 + 16 free, 16 + 64 per attack; four: 4 + 4 free, 4 + 16 per guess.
    assert checked == 32 + 2 * 80 + 8 + 2 * 20


def test_leaf_paths_index_their_outcomes_and_name_the_block_mass_cells():
    # Every leaf of the 768 driver round models carries its outcomes' LABELS indices, in the
    # outcomes' order, as its path: the round tree's rows are built from those paths.
    models = 0
    for conv in bell.all_conventions():
        for name, procedure, attack in _driver_configs(conv):
            for leaf in protocol_driver(conv, name).round_model(procedure, attack).leaves:
                assert leaf.path == tuple(LABELS.index(label) for label in leaf.outcomes.values())
            models += 1
    assert models == 768
    # Each cell of the attack search's block tables holds exactly the mass of the one branch
    # whose two outcomes name it, and a cell that no branch names holds 0.
    conv = bell.convention()
    for build, names in (
        (adversary._alice_block_plan, adversary.CORRECTIONS_EXTENDED),
        (lambda rotation, p: adversary._travel_block_plan(*rotation, p), adversary.ROTATIONS),
    ):
        plans = [build(n, procedure) for procedure in Procedure for n in names]
        tables = protocol.outcome_masses(conv, plans)
        for table, branches in zip(tables, protocol.enumerate_plans(conv, plans), strict=True):
            want = np.zeros((4, 4))
            for mass, out, _path in branches:
                want[tuple(LABELS.index(label) for label in out.values())] = mass
            assert np.count_nonzero(want) == len(branches)  # no two branches share a cell
            assert np.array_equal(table, want)


def _left_to_right(masses) -> float:
    """``0.0 + m_0 + m_1 + ...``, rounded after each addition, as before Python 3.12's ``sum()``."""
    total = 0.0
    for mass in masses:
        total += mass
    return total


def test_exact_reads_equal_the_per_branch_sums():
    # The two exact functions sum each model's leaf facts.  On every driver
    # model of the 64 conventions they must equal, under ==, the sums of Bob's
    # inference and Eve's posterior read off each branch, in branch order.
    checked = 0
    for conv in bell.all_conventions():
        for name, procedure, attack in _driver_configs(conv):
            driver = protocol_driver(conv, name)
            model = driver.round_model(procedure, attack)
            observe = driver.spec.eve_observation
            branches = _branches(model)
            detection = _left_to_right(mass for mass, out, _path in branches
                                       if driver.infer(procedure, out) != out["key"])
            information = _left_to_right(mass for mass, out, _path in branches
                                         if attack is not None
                                         and model.posterior[observe(out)] == (out["key"],))
            got = (adversary.attack_detection_probability(conv, name, procedure, attack),
                   adversary.eve_information_probability(conv, name, procedure, attack))
            assert got == (detection, information)
            # No branch selected still reads as the float 0.0, not the int 0.
            assert tuple(map(type, got)) == (float, float)
            checked += 1
    assert checked == 64 * 12


def test_tree_thresholds_pick_as_the_inverse_cdf_loop(monkeypatch):
    # Every row of the unfolded trees that hold the 12 driver round models: the
    # slot the bisect over the row's thresholds picks leads to the row of the
    # outcome the old inverse-CDF loop picks, run lanewise over 10,000 uniforms
    # that include each threshold and its float neighbours.
    compile_tree, compiled = harness.compile_tree, []
    monkeypatch.setattr(harness, "compile_tree",
                        lambda *rows: compiled.append(rows) or compile_tree(*rows))
    uniforms = np.random.default_rng(2024)
    nodes = coins = 0
    for name, kind in (("six", "none"), ("six", "mixed"), ("four", "none"), ("four", "four-swap")):
        config = harness.CurveConfig(name, AttackStrategy(kind))
        thresholds, slots = harness._round_tree(config).rows
        ((probabilities, children, _leaves, fold),) = compiled
        assert fold is None
        compiled.clear()
        for i, probs in enumerate(probabilities):
            if probs is None:
                continue
            last_live = max(k for k, p in enumerate(probs) if p > 0.0)
            # A descent steps to the gap slot where the loop falls back to last_live.
            assert slots[i][len(probs)] == children[i][last_live]
            edges = [0.0, 1.0 - 2**-53]
            for t in thresholds[i][:len(probs)]:
                edges += [t, np.nextafter(t, 0.0), np.nextafter(t, 1.0)]
            us = np.concatenate([edges, uniforms.random(10_000 - len(edges))])
            want = np.full(len(us), -1)
            acc = 0.0
            for k, p in enumerate(probs):
                acc += max(float(p), 0.0)
                want[(want < 0) & (us < acc)] = k
            want[want < 0] = last_live
            got = [slots[i][bisect_right(thresholds[i], u)] for u in us.tolist()]
            assert got == [children[i][k] for k in want.tolist()]
            nodes += len(probs) == 4
            coins += len(probs) == 2
    assert (nodes, coins) == (276, 8)


def test_callers_never_change_a_shared_leaf(conv):
    driver, attack = protocol_driver(conv, "six"), ZlgAttack(conv)
    model = driver.round_model(Procedure.P_II, attack)
    config = harness.CurveConfig("six", AttackStrategy("zlg"), 0.0)  # every round takes (ii)
    tree = harness._round_tree(config)
    # Two seeds whose rounds reach the same leaf, one where Bob infers the wrong key.
    seeds_by_leaf = {}
    for seed in itertools.count():
        leaf = RandomSource(seed).descend(tree)
        seeds = seeds_by_leaf.setdefault(id(leaf), [])
        seeds.append(seed)
        if len(seeds) == 2 and leaf.detected:
            break
    first_seed, second_seed = seeds
    first = RandomSource(first_seed).descend(tree)
    assert first is leaf and any(first is built for built in model.leaves)
    with pytest.raises(dataclasses.FrozenInstanceError):
        first.detected = False
    with pytest.raises(TypeError):
        first.outcomes["key"] = first.outcomes["secret"]
    second = RandomSource(second_seed).descend(harness._round_tree(config))
    assert second is first and second.detected


def test_leaves_follow_the_announced_outcome(conv, monkeypatch):
    six = PROTOCOLS["six"]
    renamed_steps = tuple(
        replace(s, name="broadcast") if isinstance(s, MeasureStep) and s.name == "public" else s
        for s in six.steps
    )
    renamed = replace(six, steps=renamed_steps, observed=("broadcast", "secret"),
                      announced=("broadcast",))
    monkeypatch.setitem(PROTOCOLS, "renamed", renamed)
    monkeypatch.setitem(PROTOCOLS, "silent", replace(six, announced=()))
    drivers = {name: protocol._ProtocolBase(conv, name) for name in ("six", "renamed", "silent")}
    trees = {}  # (driver name, procedure) -> the tree of a run on that driver that only takes it
    for name, d in drivers.items():
        monkeypatch.setattr(harness, "protocol_driver", lambda _conv, _name, d=d: d)
        for procedure, policy in zip(Procedure, (1.0, 0.0)):
            config = harness.CurveConfig("six", AttackStrategy("none"), policy)
            trees[name, procedure] = harness._round_tree(config)
    for seed in range(50):
        procedure = Procedure.P_I if seed % 2 else Procedure.P_II
        rounds = {name: RandomSource(seed).descend(trees[name, procedure]) for name in drivers}
        six = rounds["six"]
        assert six.outcomes["public"] in LABELS
        renamed = {("broadcast" if name == "public" else name): label
                   for name, label in six.outcomes.items()}
        assert rounds["renamed"] == Leaf(six.mass, renamed, six.path, six.detected, six.informed)
        assert rounds["silent"] == six
    # Eve hears the announced outcome: under (i) it pins the key for zlg, and
    # without it her posterior never does; Bob's facts do not change.
    zlg = ZlgAttack(conv)
    told = drivers["six"].round_model(Procedure.P_I, zlg).leaves
    untold = drivers["silent"].round_model(Procedure.P_I, replace(zlg, protocol="silent")).leaves
    assert [leaf.outcomes for leaf in told] == [leaf.outcomes for leaf in untold]
    assert all(leaf.informed and not leaf.detected for leaf in told)
    assert not any(leaf.informed or leaf.detected for leaf in untold)


def test_reserved_names_are_read_off_the_spec_table():
    derived = {"key"}.union(*(spec.observed + spec.announced for spec in PROTOCOLS.values()))
    assert protocol.RESERVED_NAMES == derived == {"key", "public", "secret"}


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
    outs = [leaf.outcomes for leaf in drv.round_model(Procedure.P_I).leaves
            if leaf.outcomes["key"] == "00" and leaf.outcomes["public"] == "01"]
    assert len(outs) == 1
    assert outs[0]["secret"] == "01"
    assert drv.infer(Procedure.P_I, {"public": "01", "secret": "01"}) == "00"


def test_p2_key00_public10_row(conv):
    drv = protocol_driver(conv, "six")
    outs = [leaf.outcomes for leaf in drv.round_model(Procedure.P_II).leaves
            if leaf.outcomes["key"] == "00" and leaf.outcomes["public"] == "10"]
    assert len(outs) == 1
    assert outs[0]["secret"] == "01"
    assert drv.infer(Procedure.P_II, {"public": "10", "secret": "01"}) == "00"


# --- round plans and leaves ------------------------------------------------------


def _step_names(plan):
    """Plan steps as ("S", qubit) for the basis change, (name, pair) for a measurement."""
    names = []
    for step in plan.steps:
        if isinstance(step, MeasureStep):
            names.append((step.name, step.pair))
        else:
            assert step.gate == "S"
            names.append(("S", step.qubit))
    return names


def test_round_plan_events_order(conv):
    # Alice rotates and measures the key, then the public pair (announced
    # with the procedure); only then does Bob rotate and measure.
    plan = build_plan(protocol_driver(conv, "six").spec, Procedure.P_II, None)
    assert _step_names(plan) == [
        ("S", 3), ("key", (1, 3)), ("public", (5, 6)), ("S", 4), ("secret", (2, 4)),
    ]


def test_four_qubit_rotation_precedes_key_measurement(conv):
    plan = build_plan(protocol_driver(conv, "four").spec, Procedure.P_II, None)
    assert _step_names(plan) == [("S", 1), ("key", (1, 3)), ("S", 2), ("secret", (2, 4))]


def test_honest_leaves_are_undetected_and_uninformed(driver):
    # Without an adversary, every round Bob can reach reads Alice's key, and no Eve learns it.
    for procedure in Procedure:
        model = driver.round_model(procedure)
        assert model.leaves
        for leaf in model.leaves:
            assert not leaf.detected and not leaf.informed


def test_round_functions_are_deterministic(conv):
    config = harness.CurveConfig("six", AttackStrategy("none"), 0.0)
    a = RandomSource(42).descend(harness._round_tree(config))
    b = RandomSource(42).descend(harness._round_tree(config))
    assert a == b


# --- channel contract ------------------------------------------------------------


def test_attack_may_not_touch_protected_qubits(conv):
    bad = Attack("bad", "six", (GateStep(1, "X"),))
    with pytest.raises(MalformedAdversaryError):
        protocol_driver(conv, "six").round_model(Procedure.P_I, bad)


def test_attack_ancillas_must_extend_register(conv):
    bad = Attack("bad", "six", (), ancilla_pairs=((9, 10),))
    with pytest.raises(MalformedAdversaryError):
        protocol_driver(conv, "six").round_model(Procedure.P_I, bad)


@pytest.mark.parametrize("name", list(PROTOCOLS))
def test_attack_may_not_reuse_reserved_names(conv, name):
    # The same three names in every protocol: a four-qubit attack measuring
    # "public" would otherwise feed Eve's posterior key.
    assert protocol.RESERVED_NAMES == {"key", "public", "secret"}
    pair = tuple(sorted(PROTOCOLS[name].in_flight))
    for reserved in sorted(protocol.RESERVED_NAMES):
        bad = Attack("bad", name, (MeasureStep(reserved, pair),))
        with pytest.raises(MalformedAdversaryError, match="reserved measurement name"):
            protocol_driver(conv, name).round_model(Procedure.P_I, bad)
    build_plan(PROTOCOLS[name], Procedure.P_I, Attack("eve", name, (MeasureStep("eve", pair),)))


@pytest.mark.parametrize("name", list(PROTOCOLS))
def test_attack_conditions_only_on_her_earlier_measurements(conv, name):
    # Eve may condition a gate only on what she has measured: not on Alice's key,
    # nor on her own outcome before she measures it.
    pair = tuple(sorted(PROTOCOLS[name].in_flight))
    measure = MeasureStep("eve", pair)
    on_key, on_eve = (ConditionalGateStep(pair[0], on, ("X",) * 4) for on in ("key", "eve"))
    for on, steps in (("key", (measure, on_key)), ("eve", (on_eve,)), ("eve", (on_eve, measure))):
        with pytest.raises(MalformedAdversaryError, match=f"conditions on {on!r} before"):
            protocol_driver(conv, name).round_model(Procedure.P_I, Attack("bad", name, steps))
    build_plan(PROTOCOLS[name], Procedure.P_I, Attack("eve", name, (measure, on_eve)))


def test_attack_may_not_forward_same_qubit_twice(conv):
    bad = Attack("bad", "six", (), forward=((6, 2), (2, 2)))
    with pytest.raises(MalformedAdversaryError):
        protocol_driver(conv, "six").round_model(Procedure.P_I, bad)


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
        build_plan(PROTOCOLS["four"], Procedure.P_I, Attack("bad", "four", (), forward=forward))


def test_forwarding_reroutes_the_honest_steps():
    # Swapping Bob's two qubits in flight moves his S and his measurement.
    swap = Attack("swap", "four", (), forward=((2, 4), (4, 2)))
    plan = build_plan(PROTOCOLS["four"], Procedure.P_II, swap)
    assert _step_names(plan) == [("S", 1), ("key", (1, 3)), ("S", 4), ("secret", (4, 2))]
    # The six-qubit interception: Alice measures (5, 2), Bob (7, 4).
    wiring = Attack("wiring", "six", (), ancilla_pairs=((7, 8),), forward=((6, 2), (2, 7)))
    plan = build_plan(PROTOCOLS["six"], Procedure.P_II, wiring)
    assert len(plan.pairs) == 4 and plan.pairs[-1] == (7, 8)
    assert _step_names(plan) == [
        ("S", 3), ("key", (1, 3)), ("public", (5, 2)), ("S", 4), ("secret", (7, 4)),
    ]


def test_spec_is_checked_by_its_own_geometry():
    # A spec validates attacks by its own in-flight set and register, never
    # by its protocol's name.
    only_4 = replace(PROTOCOLS["four"], in_flight=frozenset({4}))
    for attack in (
        Attack("bad", "four", (GateStep(2, "X"),)),
        Attack("bad", "four", (MeasureStep("eve", (2, 4)),)),
        Attack("bad", "four", (), forward=((4, 2),)),
    ):
        with pytest.raises(MalformedAdversaryError):
            build_plan(only_4, Procedure.P_I, attack)
    build_plan(only_4, Procedure.P_I, Attack("flip", "four", (GateStep(4, "X"),)))
    with pytest.raises(MalformedAdversaryError, match="contiguously"):
        build_plan(only_4, Procedure.P_I, Attack("bad", "four", (), ancilla_pairs=((7, 8),)))


def test_eve_observes_her_outcome_and_the_announced_ones():
    six, four = PROTOCOLS["six"], PROTOCOLS["four"]
    assert (six.announced, four.announced) == (("public",), ())
    out = {"eve": "01", "key": "10", "public": "11", "secret": "00"}
    assert six.eve_observation(out) == ("01", "11")
    assert four.eve_observation(out) == "01"
    # An announced name that no step measures would key Eve's posterior on a
    # missing value; the spec refuses it, and so does Bob's observation.
    with pytest.raises(ValueError, match=r"\['public'\] are never measured"):
        replace(four, announced=("public",))
    with pytest.raises(ValueError, match=r"\['broadcast'\] are never measured"):
        replace(six, announced=("broadcast",))
    with pytest.raises(ValueError, match=r"\['public'\] are never measured"):
        replace(four, observed=("public",))
    with pytest.raises(KeyError):
        six.eve_observation({"eve": "01", "key": "10", "secret": "00"})


def test_spec_gate_slots_hold_no_matrix():
    # build_plan fills every Rotate slot with the procedure's rotation, so a
    # gate matrix written into a spec would be silently ignored: refuse it.
    four = PROTOCOLS["four"]
    assert [step for step in four.steps if not isinstance(step, MeasureStep)] == [
        Rotate(1), Rotate(2)
    ]
    for step in (GateStep(1, "S"), GateStep(1, "X")):
        with pytest.raises(ValueError, match="Rotate slots"):
            replace(four, steps=(step,) + four.steps[1:])


def test_wrong_protocol_attack_is_rejected(conv):
    with pytest.raises(WrongProtocolError):
        protocol_driver(conv, "four").round_model(Procedure.P_I, ZlgAttack(conv))


def test_plan_builders_reject_malformed_transit(conv):
    with pytest.raises(MalformedAdversaryError):
        build_plan(PROTOCOLS["six"], Procedure.P_I, Attack("bad", "six", (GateStep(3, "X"),)))
    with pytest.raises(MalformedAdversaryError):
        build_plan(PROTOCOLS["four"], Procedure.P_I, Attack("bad", "four", (GateStep(6, "X"),)))


# --- ambiguity guard ----------------------------------------------------------


def test_ambiguous_observation_is_refused(conv, monkeypatch):
    # Bob reading the public result alone cannot tell the keys apart.
    monkeypatch.setitem(PROTOCOLS, "six", replace(PROTOCOLS["six"], observed=("public",)))
    with pytest.raises(AmbiguityError) as excinfo:
        protocol._ProtocolBase(conv, "six")
    assert str(excinfo.value) == (
        "(i): observation ('public',) = 00 is consistent with keys 00, 01, 10, 11; "
        "the protocol could not work"
    )
