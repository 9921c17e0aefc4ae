import dataclasses
import math

import numpy as np
import pytest

from swapqkd import bell, cli, harness, protocol
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
    sources = harness._round_sources(SPLITMIX_MASTERS, SPLITMIX_INDICES)
    assert [rng.seed for rng in sources] == [seed for seeds in scalar for seed in seeds]


def test_config_validation():
    with pytest.raises(ValueError):
        SimulationConfig(rounds=0)
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
    harness._folded_round_tree.cache_clear()
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
