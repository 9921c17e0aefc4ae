import dataclasses
import math
import time

import numpy as np
import pytest

from swapqkd import bell, cli, harness, protocol, qstate
from swapqkd.adversary import AttackStrategy
from swapqkd.harness import (
    CurveConfig,
    CurvePoint,
    SimulationConfig,
    detection_curve,
    run_simulation,
    splitmix64,
)
from swapqkd.qstate import SEED_CHUNK

from streams import round_sources


def test_splitmix64_is_deterministic_and_spreads():
    seeds = [splitmix64(12345, i) for i in range(1000)]
    assert seeds == [splitmix64(12345, i) for i in range(1000)]
    assert len(set(seeds)) == 1000
    assert all(0 <= s < 2**64 for s in seeds)
    assert splitmix64(1, 0) != splitmix64(2, 0)


SPLITMIX_MASTERS = (0, 1, 2**63, 2**64 - 1)
SPLITMIX_INDICES = 2_100  # past two SEED_CHUNK boundaries


def test_splitmix64_on_uint64_arrays_equals_the_scalar_form():
    scalar = [[splitmix64(m, i) for i in range(SPLITMIX_INDICES)] for m in SPLITMIX_MASTERS]
    indices = np.arange(SPLITMIX_INDICES, dtype=np.uint64)
    for master, want in zip(SPLITMIX_MASTERS, scalar):
        got = splitmix64(np.full(SPLITMIX_INDICES, master, dtype=np.uint64), indices)
        assert got.dtype == np.uint64 and got.tolist() == want
    # A run's sources, mixed a chunk at a time, carry the same seeds in order.
    assert SPLITMIX_INDICES > 2 * SEED_CHUNK
    sources = round_sources(SPLITMIX_MASTERS, SPLITMIX_INDICES)
    assert [rng.seed for rng in sources] == [seed for seeds in scalar for seed in seeds]


def test_config_validation():
    with pytest.raises(ValueError):
        SimulationConfig(rounds=0)
    with pytest.raises(ValueError, match=r"rounds must be < 2\*\*63"):
        SimulationConfig(rounds=2**63)
    with pytest.raises(ValueError):
        SimulationConfig(test_fraction=1.5)
    with pytest.raises(ValueError):
        SimulationConfig(procedure_policy=-0.1)
    with pytest.raises(ValueError):
        SimulationConfig(protocol="five")
    with pytest.raises(ValueError):
        SimulationConfig(protocol="four", attack=AttackStrategy("zlg"))
    with pytest.raises(ValueError):
        SimulationConfig(protocol="six", attack=AttackStrategy("four-swap"))


def test_identical_config_gives_bit_identical_report():
    config = SimulationConfig(
        protocol="six", rounds=400, attack=AttackStrategy("mixed"),
        test_fraction=0.7, master_seed=2024,
    )
    assert run_simulation(config) == run_simulation(config)


def test_different_seeds_give_different_transcript_statistics():
    reports = {
        run_simulation(
            SimulationConfig(protocol="six", rounds=300, attack=AttackStrategy("zlg"),
                             test_fraction=1.0, master_seed=seed)
        ).empirical_detection_prob
        for seed in range(4)
    }
    assert len(reports) > 1


@pytest.mark.parametrize(
    "config",
    [
        SimulationConfig(protocol="six", rounds=300, attack=AttackStrategy("none"),
                         test_fraction=1.0, master_seed=5),
        SimulationConfig(protocol="four", rounds=300, attack=AttackStrategy("none"),
                         test_fraction=0.3, master_seed=6),
        SimulationConfig(protocol="six", rounds=200, attack=AttackStrategy("none"),
                         procedure_policy=0.0, master_seed=7),
    ],
)
def test_no_adversary_null(config):
    report = run_simulation(config)
    assert report.agreement_rate == 1.0
    assert not report.detected_any
    assert report.empirical_detection_prob == 0.0
    assert report.eve_key_information == 0.0


def test_matched_attack_null():
    # zlg against a procedure-(i)-only Alice: invisible and fully informed.
    config = SimulationConfig(
        protocol="six", rounds=500, attack=AttackStrategy("zlg"),
        procedure_policy=1.0, test_fraction=1.0, master_seed=11,
    )
    report = run_simulation(config)
    assert not report.detected_any
    assert report.empirical_detection_prob == 0.0
    assert report.eve_key_information == 1.0
    assert report.agreement_rate == 1.0


def test_zlg_fair_coin_mismatch_rate_quarter():
    rounds = 4000
    config = SimulationConfig(
        protocol="six", rounds=rounds, attack=AttackStrategy("zlg"),
        test_fraction=1.0, master_seed=13,
    )
    report = run_simulation(config)
    sigma = math.sqrt(0.25 * 0.75 / rounds)
    assert abs(report.empirical_detection_prob - 0.25) < 3 * sigma
    assert report.compared == rounds
    # eve learns the key exactly on matched (procedure i) rounds
    assert abs(report.eve_key_information - 0.5) < 3 * math.sqrt(0.25 / rounds)


def test_report_invariants_and_json():
    config = SimulationConfig(protocol="four", rounds=250,
                              attack=AttackStrategy("four-swap"),
                              test_fraction=0.5, master_seed=3)
    report = run_simulation(config)
    assert 0 <= report.compared <= report.rounds_run
    assert 0.0 <= report.agreement_rate <= 1.0
    assert 0.0 <= report.empirical_detection_prob <= 1.0
    assert 0.0 <= report.eve_key_information <= 1.0
    assert report.key_bits_per_transmitted_qubit == 1.0
    lo, hi = report.detection_ci_low, report.detection_ci_high
    assert 0.0 <= lo <= report.empirical_detection_prob <= hi <= 1.0
    doc = dataclasses.asdict(report)
    assert doc["rounds_run"] == 250
    assert doc["theoretical_detection_prob"] == 1.0 - 0.75**report.compared


def test_detection_curve_edge_points():
    config = SimulationConfig(protocol="six", rounds=1, attack=AttackStrategy("mixed"),
                              master_seed=21)
    points = detection_curve(config, [0, 1], 200)
    zero, one = points
    assert zero.n == 0 and zero.empirical == 0.0 and zero.theoretical == 0.0
    assert one.theoretical == 0.25
    sigma = math.sqrt(0.25 * 0.75 / 200)
    assert abs(one.empirical - 0.25) < 4 * sigma


def test_detection_curve_validation():
    config = SimulationConfig(protocol="six", rounds=1, attack=AttackStrategy("mixed"))
    with pytest.raises(ValueError):
        detection_curve(config, [1], 99)
    with pytest.raises(ValueError):
        detection_curve(config, [-1], 100)
    with pytest.raises(ValueError, match=r"repetitions must be < 2\*\*63"):
        detection_curve(config, [1], 2**63)


def test_curve_reads_only_its_own_config():
    # A curve has no run length or test coin: a CurveConfig gives the same
    # points as any SimulationConfig sharing its four fields.
    fields = dict(protocol="six", attack=AttackStrategy("mixed"), procedure_policy=0.3,
                  master_seed=5)
    points = detection_curve(CurveConfig(**fields), [1, 3], 100)
    config = SimulationConfig(rounds=7, test_fraction=0.0, **fields)
    assert detection_curve(config, [1, 3], 100) == points
    with pytest.raises(ValueError):
        CurveConfig(protocol="five")
    with pytest.raises(ValueError):
        CurveConfig(procedure_policy=1.5)
    with pytest.raises(ValueError):
        CurveConfig(protocol="four", attack=AttackStrategy("mixed"))


@pytest.mark.parametrize(
    "run",
    [lambda config: run_simulation(config), lambda config: detection_curve(config, [1, 4], 100)],
    ids=["simulation", "curve"],
)
@pytest.mark.parametrize(
    "protocol_name, kind, models",
    [("six", "none", 2), ("six", "mixed", 4), ("four", "four-swap", 4)],
)
def test_a_run_resolves_each_round_model_once(monkeypatch, run, protocol_name, kind, models):
    # A cold run looks each (attack, procedure) up once, before the first round; no
    # round asks again, and the same run again reuses the tree the first one folded.
    # The driver is built first: its constructor reads the adversary-free models.
    protocol.protocol_driver(bell.convention(), protocol_name)
    harness._folded_tree.cache_clear()
    lookups = []
    resolve = protocol._ProtocolBase.round_model

    def counted(self, procedure, attack=None):
        lookups.append((procedure, attack))
        return resolve(self, procedure, attack)

    monkeypatch.setattr(protocol._ProtocolBase, "round_model", counted)
    config = SimulationConfig(protocol=protocol_name, rounds=300, attack=AttackStrategy(kind),
                              master_seed=11)
    first = run(config)
    assert len(lookups) == len(set(lookups)) == models
    lookups.clear()
    assert run(config) == first
    assert lookups == []


def test_curve_is_reproducible_and_csv_stable(capsys):
    config = SimulationConfig(protocol="four", rounds=1,
                              attack=AttackStrategy("four-swap"), master_seed=9)
    points_a = detection_curve(config, [1, 2], 120)
    points_b = detection_curve(config, [1, 2], 120)
    assert points_a == points_b
    argv = ["detection-curve", "--protocol", "four", "--attack", "four-swap",
            "--n", "1,2", "--reps", "120", "--seed", "9", "--format", "csv"]
    assert cli.main(argv) == 0
    lines = capsys.readouterr().out.strip().split("\n")
    assert lines[0] == "n,empirical,theoretical,ci_low,ci_high"
    assert lines[1:] == [
        f"{pt.n},{pt.empirical:.6f},{pt.theoretical:.6f},{pt.ci_low:.6f},{pt.ci_high:.6f}"
        for pt in points_a
    ]


def test_curve_point_fields():
    pt = CurvePoint(n=4, empirical=0.7, theoretical=1 - 0.75**4, ci_low=0.65, ci_high=0.75)
    assert pt.n == 4
    assert abs(pt.theoretical - 175 / 256) < 1e-12


# --- lanes against the scalar walk --------------------------------------------
# A curve point's experiments run as lanes; the reference is one RandomSource.descend
# per round, each experiment stopping at its first detection.

LANE_CONFIGS = [("six", "none"), ("six", "zlg"), ("six", "tailored"), ("six", "mixed"),
                ("four", "none"), ("four", "four-swap")]
# Uniforms every walkable path of a config's folded tree draws per round, at every policy.
LANE_DRAWS = {("six", "mixed"): 6, ("six", "zlg"): 5, ("six", "tailored"): 5,
              ("four", "four-swap"): 5, ("six", "none"): 4, ("four", "none"): 3}
LANE_POLICIES = (0.0, 0.3, 0.5, 1.0)
LANE_SEEDS = (0, 2**63, 2**64 - 1, 0xE848F808F54D35BF)
# Both sides of the first and fourth block edges (2 rounds a block), and twenty blocks.
LANE_N = (0, 1, 2, 3, 7, 8, 9, 40)
LANE_REPS = (100, SEED_CHUNK + 76)  # one chunk of lanes, and two


def scalar_detections(config, n, repetitions):
    """Whether each experiment of point ``n`` detects, walked one descent per round."""
    tree, _, _ = harness._folded_tree(config.protocol, config.attack, config.procedure_policy)
    sources = round_sources([splitmix64(config.master_seed, n)], repetitions)
    return [any(rng.descend(tree).detected for _ in range(n)) for rng in sources]


@pytest.mark.parametrize("seed", LANE_SEEDS, ids=["0", "top-bit", "all-ones", "random"])
@pytest.mark.parametrize("policy", LANE_POLICIES)
@pytest.mark.parametrize("protocol_name,kind", LANE_CONFIGS,
                         ids=[f"{name}-{kind}" for name, kind in LANE_CONFIGS])
def test_curve_lanes_count_the_scalar_walks_detections(protocol_name, kind, policy, seed):
    assert LANE_REPS[1] > SEED_CHUNK and max(LANE_N) > 4 * harness.ROUNDS_PER_BLOCK
    config = CurveConfig(protocol_name, AttackStrategy(kind), policy, seed)
    # The first experiments of a point are the same at every repetition count.
    detections = {n: scalar_detections(config, n, max(LANE_REPS)) for n in LANE_N}
    for reps in LANE_REPS:
        points = detection_curve(config, LANE_N, reps)
        assert [pt.empirical for pt in points] == [
            sum(detections[n][:reps]) / reps for n in LANE_N]


# --- the simulate walk against the scalar walk -----------------------------------
# A simulated round is one qstate.descend_streams walk and the uniform after it; the
# reference is one RandomSource.descend and one RandomSource.uniform per round.

WALK_ROUNDS = SEED_CHUNK + 76  # a run's seeds cross a chunk edge


@pytest.mark.parametrize("seed", LANE_SEEDS, ids=["0", "top-bit", "all-ones", "random"])
@pytest.mark.parametrize("policy", LANE_POLICIES)
@pytest.mark.parametrize("protocol_name,kind", LANE_CONFIGS,
                         ids=[f"{name}-{kind}" for name, kind in LANE_CONFIGS])
def test_the_simulate_walk_draws_as_the_scalar_walk(protocol_name, kind, policy, seed):
    tree, _, _ = harness._folded_tree(protocol_name, AttackStrategy(kind), policy)
    reference = round_sources([seed], WALK_ROUNDS)
    walked = 0
    for seeds in harness._seed_chunks([seed], WALK_ROUNDS):
        rows, uniforms = qstate.descend_streams(tree, seeds)
        assert len(rows) == len(uniforms) == len(seeds)
        for row, uniform, rng in zip(rows, uniforms, reference):
            assert tree.leaves[row] is rng.descend(tree)
            assert uniform.hex() == rng.uniform().hex()
        walked += len(rows)
    assert walked == WALK_ROUNDS and next(reference, None) is None


@pytest.mark.parametrize("seed", LANE_SEEDS, ids=["0", "top-bit", "all-ones", "random"])
def test_the_shared_init_is_numpy_pcg64s(seed):
    # The seed itself, then a run's seeds in their chunks.
    for seeds in (np.array([seed], dtype=np.uint64), *harness._seed_chunks([seed], WALK_ROUNDS)):
        words = zip(*(w.tolist() for w in qstate._pcg64_init(seeds)), strict=True)
        for each, (s_high, s_low, i_high, i_low) in zip(seeds.tolist(), words, strict=True):
            want = np.random.PCG64(each).state["state"]
            assert {"state": s_high << 64 | s_low, "inc": i_high << 64 | i_low} == want


# A 0, a repeated n and descending order; at 700 repetitions a seed chunk ends inside a point.
CURVE_N_LISTS = ((17, 0, 1, 17), (40, 16, 5, 4, 3, 1, 0), (0, 4, 4))
CURVE_REPS = 700


@pytest.mark.parametrize("protocol_name,kind", LANE_CONFIGS,
                         ids=[f"{name}-{kind}" for name, kind in LANE_CONFIGS])
def test_each_row_of_a_curve_is_that_point_run_alone(protocol_name, kind):
    assert SEED_CHUNK % CURVE_REPS
    config = CurveConfig(protocol_name, AttackStrategy(kind), 0.3, 5)
    for n_values in CURVE_N_LISTS:
        assert detection_curve(config, n_values, CURVE_REPS) == [
            detection_curve(config, [n], CURVE_REPS)[0] for n in n_values]


@pytest.mark.parametrize("policy", LANE_POLICIES)
def test_every_path_of_a_folded_tree_draws_the_same_uniforms(policy):
    for (protocol_name, kind), draws in LANE_DRAWS.items():
        tree, detected, informed = harness._folded_tree(protocol_name, AttackStrategy(kind), policy)
        assert tree.draws == draws
        assert detected.tolist() == [leaf is not None and leaf.detected for leaf in tree.leaves]
        assert informed.tolist() == [leaf is not None and leaf.informed for leaf in tree.leaves]


@pytest.mark.parametrize("protocol_name", ["six", "four"])
def test_a_curve_whose_root_draws_nothing_finishes_at_once(capsys, protocol_name):
    start = time.monotonic()
    assert cli.main(["detection-curve", "--protocol", protocol_name, "--attack", "none",
                     "--n", "1000000000", "--reps", "100"]) == 0
    assert time.monotonic() - start < 1.0
    assert "1000000000  0.000000" in capsys.readouterr().out
    # A root that always detects: every experiment of a point with a round detects.
    # Three one-outcome rows above the leaf fold into a root that jumps over their draws.
    leaf = protocol.Leaf({}, True, False)
    tree = qstate.compile_tree([(1.0,)] * 3 + [None], [[1], [2], [3], []], [None] * 3 + [leaf],
                               lambda leaf: leaf.detected)
    assert (tree.leaves[0], tree.levels[0], tree.draws) == (leaf, 3, 3)
    for n, hits in ((0, 0), (1, 150), (10**12, 150)):
        assert harness._curve_hits(tree, np.array([True] * 4), 7, [n], 150) == [hits]


def test_a_long_curve_prints_the_scalar_walks_bytes(capsys, monkeypatch):
    # Every lane leaves at its first detection, long before n rounds.
    argv = ["detection-curve", "--attack", "mixed", "--n", "100000", "--reps", "100",
            "--seed", "3", "--format", "json"]
    assert cli.main(argv) == 0
    lanes = capsys.readouterr().out
    config = CurveConfig("six", AttackStrategy("mixed"), 0.5, 3)
    monkeypatch.setattr(harness, "_curve_hits", lambda _tree, _detected, _seed, n_values, reps:
                        [sum(scalar_detections(config, n, reps)) for n in n_values])
    assert cli.main(argv) == 0
    assert capsys.readouterr().out == lanes
