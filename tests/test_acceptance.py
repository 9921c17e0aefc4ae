"""Acceptance suite: one test per primary requirement.

Each test enforces its stated tolerance with asserts and prints a single
PASS line with the headline numbers (run pytest with ``-s`` to see them
unconditionally).  Monte Carlo checks use fixed seeds; statistical
acceptance bands are the three-sigma binomial bands at the prescribed
repetition counts.
"""

import json
import math
import time

import numpy as np
import pytest

from swapqkd import adversary, bell, cli, harness, protocol, qstate
from swapqkd.adversary import (
    AttackStrategy,
    FourSwapAttack,
    TailoredAttack,
    ZlgAttack,
    attack_detection_probability,
    eve_information_probability,
)
from swapqkd.protocol import Procedure
from swapqkd.qstate import GATES

import oracle
from streams import RandomSource

EXACT = 1e-10
MC_REPETITIONS = 10_000


def _pass(name: str, detail: str) -> None:
    print(f"PASS {name}: {detail}")


def test_acceptance_convention_derivation(conv):
    start = time.monotonic()
    found = bell.all_conventions()
    elapsed = time.monotonic() - start
    first = found[0]
    r_s, r_z = bell.convention_residuals(first)
    assert len(found) >= 1
    assert r_s < EXACT and r_z < EXACT
    assert elapsed < 1.0
    _pass(
        "convention-derivation",
        f"{len(found)} satisfying labelings, residuals ({r_s:.1e}, {r_z:.1e}), "
        f"enumeration {elapsed * 1000:.0f} ms",
    )


def test_acceptance_outcome_table_reproduction(conv, capsys):
    rows = protocol.reproduce_table1(conv)
    assert len(rows) == 8
    assert tuple(rows) == protocol.EXPECTED_TABLE1
    assert cli.main(["reproduce-table1", "--format", "csv"]) == 0
    out = capsys.readouterr().out
    assert len(out.strip().split("\n")) == 9
    _pass("outcome-table", "8 rows, zero diffs, exit 0")


def test_acceptance_attack_table_reproduction(conv, capsys):
    rows = adversary.reproduce_table2(conv)
    assert len(rows) == 20
    p2_rows = [r for r in rows if r[0] == "(ii)"]
    assert len(p2_rows) == 16
    assert all(r[7] == "00 or 11" for r in p2_rows)
    assert cli.main(["reproduce-table2", "--format", "csv"]) == 0
    out = capsys.readouterr().out
    assert len(out.strip().split("\n")) == 21
    _pass("attack-table", "20 rows incl. ambiguity column, zero diffs, exit 0")


def test_acceptance_no_eavesdropper_correctness(conv):
    checked = 0
    for name in ("six", "four"):
        driver = protocol.protocol_driver(conv, name)
        for procedure in Procedure:
            for out in (leaf.outcomes for leaf in driver.round_model(procedure).leaves):
                inferred = driver.infer(procedure, out)
                assert inferred == out["key"]
                checked += 1
    _pass("no-eavesdropper", f"inferred == key on all {checked} branches (100%)")


def test_acceptance_interception_asymmetry(conv):
    attack = ZlgAttack(conv)
    det_1 = attack_detection_probability(conv, "six", Procedure.P_I, attack)
    info_1 = eve_information_probability(conv, "six", Procedure.P_I, attack)
    assert det_1 == 0.0
    assert abs(info_1 - 1.0) < EXACT
    driver = protocol.protocol_driver(conv, "six")
    posterior_1 = driver.round_model(Procedure.P_I, attack).posterior
    assert all(len(keys) == 1 for keys in posterior_1.values())

    det_2 = attack_detection_probability(conv, "six", Procedure.P_II, attack)
    assert abs(det_2 - 0.5) < EXACT
    posterior_2 = driver.round_model(Procedure.P_II, attack).posterior
    assert all(len(keys) == 2 for keys in posterior_2.values())
    _pass(
        "interception-asymmetry",
        f"procedure (i): detection {det_1}, informed {info_1:.1f}; "
        f"procedure (ii): detection {det_2:.10f}, always 2 candidates",
    )


def test_acceptance_tailored_attack_exists(conv):
    start = time.monotonic()
    params = adversary.derive_tailored_attack(conv)
    elapsed = time.monotonic() - start
    assert elapsed < 60.0
    assert params == adversary.FROZEN_TAILORED_PARAMS

    attack = TailoredAttack(conv, params)
    det_2 = attack_detection_probability(conv, "six", Procedure.P_II, attack)
    info_2 = eve_information_probability(conv, "six", Procedure.P_II, attack)
    det_1 = attack_detection_probability(conv, "six", Procedure.P_I, attack)
    assert det_2 == 0.0
    assert abs(info_2 - 1.0) < EXACT
    assert det_1 > 0.0
    _pass(
        "tailored-attack",
        f"params {params.pre_unitaries}/{dict(params.pauli_map)} in {elapsed:.2f} s; "
        f"(ii) undetected & informed, (i) detection {det_1:.3f}",
    )


def _check_curve(points, repetitions):
    for pt in points:
        band = 3.0 * math.sqrt(pt.theoretical * (1.0 - pt.theoretical) / repetitions)
        assert abs(pt.empirical - pt.theoretical) <= band, (
            f"n={pt.n}: |{pt.empirical} - {pt.theoretical}| > {band}"
        )


def test_acceptance_detection_formula(conv):
    config = harness.SimulationConfig(
        protocol="six", rounds=1, attack=AttackStrategy("mixed"),
        procedure_policy=0.5, test_fraction=1.0, master_seed=0,
    )
    start = time.monotonic()
    points = harness.detection_curve(config, [1, 2, 4, 8, 16], MC_REPETITIONS)
    elapsed = time.monotonic() - start
    assert points[0].theoretical == 0.25
    assert abs(points[2].theoretical - 175 / 256) < 1e-12
    _check_curve(points, MC_REPETITIONS)
    assert elapsed < 300.0
    summary = ", ".join(f"n={p.n}: {p.empirical:.4f}/{p.theoretical:.4f}" for p in points)
    _pass("detection-formula", f"{summary} in {elapsed:.0f} s")


def test_acceptance_bits_tested_form(conv):
    config = harness.SimulationConfig(
        protocol="six", rounds=1, attack=AttackStrategy("mixed"),
        procedure_policy=0.5, test_fraction=1.0, master_seed=1,
    )
    # N tested bits are N/2 compared key pairs: N = 2, 4, 8, 16, 32.
    points = harness.detection_curve(config, [1, 2, 4, 8, 16], MC_REPETITIONS)
    assert [pt.n for pt in points] == [1, 2, 4, 8, 16]
    assert points[0].theoretical == 0.25
    _check_curve(points, MC_REPETITIONS)
    summary = ", ".join(
        f"N={2 * p.n}: {p.empirical:.4f}/{p.theoretical:.4f}" for p in points
    )
    _pass("bits-tested-form", summary)


def test_acceptance_four_qubit_attack(conv):
    for guess in Procedure:
        attack = FourSwapAttack(conv, guess)
        other = Procedure.P_II if guess is Procedure.P_I else Procedure.P_I
        assert attack_detection_probability(conv, "four", guess, attack) == 0.0
        assert abs(eve_information_probability(conv, "four", guess, attack) - 1.0) < EXACT
        mismatch = attack_detection_probability(conv, "four", other, attack)
        assert abs(mismatch - 0.5) < EXACT
    _pass(
        "four-qubit-attack",
        "matched guess: detection 0, informed 1.0; mismatched: detection 0.5000000000",
    )


def test_acceptance_physics_properties(conv):
    for name, matrix in GATES.items():
        assert qstate.is_unitary(matrix, atol=1e-12), name
    for name in adversary.CORRECTIONS_EXTENDED:
        assert qstate.is_unitary(qstate.gate(name), atol=1e-12), name

    basis = conv.basis_matrix

    def measure(amps, order, pair, sampler):
        """Sample an outcome of one state with the batch kernels; (outcome, collapsed, order)."""
        front, order = qstate.to_front(amps, order, pair)
        proj, probs = qstate.project_rows(front, basis)
        outcome = int(oracle.pick(probs[:1], np.array([sampler.uniform()]))[0])
        return outcome, qstate.collapse_rows(basis, proj, probs, np.array([outcome])), order

    rng = np.random.default_rng(2024)
    gate_names = list(GATES)
    states_checked = 0
    for trial in range(1000):
        n = int(rng.integers(2, 7))
        amps = rng.standard_normal(2**n) + 1j * rng.standard_normal(2**n)
        state = amps / np.linalg.norm(amps)
        assert abs(np.linalg.norm(state) - 1.0) < 1e-12

        front, order = qstate.to_front(state[None], tuple(range(n - 1, -1, -1)),
                                       (int(rng.integers(n)),))
        out = qstate.gate_rows(front, (GATES[gate_names[trial % len(gate_names)]],))
        assert abs(np.linalg.norm(out) - 1.0) < 1e-12

        qubits = rng.choice(n, size=2, replace=False)
        pair = (int(qubits[0]), int(qubits[1]))
        _proj, probs = qstate.project_rows(qstate.to_front(out, order, pair)[0], basis)
        assert abs(float(probs.sum()) - 1.0) < 1e-10

        sampler = RandomSource(trial)
        outcome, collapsed, order = measure(out, order, pair, sampler)
        outcome2, collapsed2, _ = measure(collapsed, order, pair, sampler)
        assert outcome2 == outcome
        overlap = abs(np.vdot(collapsed[0], collapsed2[0]))
        assert abs(overlap - 1.0) < 1e-10
        states_checked += 1
    assert states_checked == 1000
    _pass(
        "physics-properties",
        "1000 random states: norms 1e-12, completeness 1e-10, collapse idempotent 1e-10; "
        "gate library unitary 1e-12",
    )


def test_acceptance_cli_determinism(conv, capsys):
    commands = [
        ["validate-convention", "--format", "json"],
        ["reproduce-table1", "--format", "csv"],
        ["reproduce-table2"],
        ["simulate", "--protocol", "six", "--attack", "mixed", "--rounds", "150",
         "--seed", "7", "--format", "json"],
        ["simulate", "--protocol", "four", "--attack", "four-swap", "--rounds", "100",
         "--seed", "9", "--format", "csv"],
        ["detection-curve", "--n", "1,2", "--reps", "150", "--seed", "3", "--format", "csv"],
        ["derive-attack"],
    ]
    for argv in commands:
        assert cli.main(argv) == 0
        first = capsys.readouterr().out
        assert cli.main(argv) == 0
        second = capsys.readouterr().out
        assert first.encode() == second.encode(), argv
    _pass("cli-determinism", f"{len(commands)} invocations byte-identical on repeat")
