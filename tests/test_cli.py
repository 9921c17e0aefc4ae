import dataclasses
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import swapqkd
from swapqkd import adversary
from swapqkd.cli import FORMATS, main
from swapqkd.harness import CurvePoint, SimulationReport


def run_cli(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_reproduce_table1_csv(capsys):
    code, out, err = run_cli(capsys, ["reproduce-table1", "--format", "csv"])
    assert code == 0
    assert err == ""
    lines = out.strip().split("\n")
    assert lines[0] == "procedure,key,public,secret,inferred"
    assert len(lines) == 9
    assert lines[1] == "(i),00,00,00,00"
    assert lines[7] == "(ii),00,01,10,00"


def test_reproduce_table2_csv(capsys):
    code, out, _ = run_cli(capsys, ["reproduce-table2", "--format", "csv"])
    assert code == 0
    lines = out.strip().split("\n")
    assert len(lines) == 21
    assert lines[5] == "(ii),00,00,00,00,01,Z,00 or 11"
    assert sum("00 or 11" in line for line in lines) == 16


def test_reproduce_table_json_is_single_document(capsys):
    code, out, _ = run_cli(capsys, ["reproduce-table1", "--format", "json"])
    assert code == 0
    doc = json.loads(out)
    assert doc["columns"] == ["procedure", "key", "public", "secret", "inferred"]
    assert len(doc["rows"]) == 8


def test_validate_convention_json(capsys):
    code, out, _ = run_cli(capsys, ["validate-convention", "--format", "json"])
    assert code == 0
    doc = json.loads(out)
    assert doc["s_rotation_residual"] < 1e-10
    assert doc["z_rotation_residual"] < 1e-10
    assert doc["satisfying_conventions"] == 64
    assert doc["swap_xor_permutation"] == {lab: lab for lab in ("00", "01", "10", "11")}


def test_simulate_none_attack_agreement(capsys):
    code, out, _ = run_cli(
        capsys,
        ["simulate", "--protocol", "six", "--attack", "none", "--rounds", "300",
         "--seed", "1", "--format", "json"],
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["report"]["agreement_rate"] == 1.0
    assert doc["report"]["detected_any"] is False
    assert doc["config"]["master_seed"] == 1


def test_simulate_four_swap(capsys):
    code, out, _ = run_cli(
        capsys,
        ["simulate", "--protocol", "four", "--attack", "four-swap", "--rounds", "600",
         "--test-fraction", "1.0", "--seed", "3", "--format", "json"],
    )
    assert code == 0
    doc = json.loads(out)
    assert abs(doc["report"]["empirical_detection_prob"] - 0.25) < 0.08


def test_simulate_rejects_incompatible_attack(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["simulate", "--protocol", "four", "--attack", "zlg"])
    assert exc.value.code == 2


def test_unknown_flag_exits_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["simulate", "--attack", "quantum-woodpecker"])
    assert exc.value.code == 2


@pytest.mark.parametrize("seed", ["-1", str(2**64)])
def test_seed_outside_64_bits_exits_2(capsys, seed):
    with pytest.raises(SystemExit) as exc:
        main(["reproduce-table1", "--seed", seed])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("swapqkd: error: --seed")
    assert "Traceback" not in err


def test_unwritable_emit_params_exits_2(capsys, tmp_path):
    target = tmp_path / "missing" / "p.json"
    with pytest.raises(SystemExit) as exc:
        main(["derive-attack", "--emit-params", str(target)])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("swapqkd: error: cannot write --emit-params")
    assert "Traceback" not in captured.err
    assert not target.exists()


def test_empty_emit_params_path_exits_2(capsys):
    # An empty path is a path that cannot be written, not a missing flag.
    with pytest.raises(SystemExit) as exc:
        main(["derive-attack", "--emit-params", ""])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("swapqkd: error: cannot write --emit-params :")
    assert "Traceback" not in captured.err


@pytest.mark.parametrize(
    "extra",
    [
        ["--protocol", "four", "--attack", "mixed"],
        ["--procedure-prob", "1.5"],
        ["--reps", "99"],
        ["--n", "-1"],
        # A lane index is a uint64: 2**63 repetitions and more are refused.
        ["--n", "1", "--reps", str(2**63)],
        ["--n", "1", "--reps", str(2**64)],
    ],
    ids=["incompatible-attack", "procedure-prob", "reps", "negative-n", "reps-2**63",
         "reps-2**64"],
)
def test_detection_curve_invalid_input_exits_2(capsys, extra):
    with pytest.raises(SystemExit) as exc:
        main(["detection-curve", *extra])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("swapqkd: error: ")
    assert "Traceback" not in captured.err


@pytest.mark.parametrize(
    "extra, message",
    [
        (["--rounds", "0"], "rounds must be >= 1"),
        (["--rounds", str(2**63)], "rounds must be < 2**63"),
        (["--rounds", str(10**30)], "rounds must be < 2**63"),
        (["--test-fraction", "1.5"], "test_fraction must be a probability"),
    ],
    ids=["rounds-0", "rounds-2**63", "rounds-10**30", "test-fraction"],
)
def test_simulate_invalid_input_exits_2(capsys, extra, message):
    with pytest.raises(SystemExit) as exc:
        main(["simulate", *extra])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"swapqkd: error: {message}\n"


@pytest.mark.parametrize("n, entry", [("1,x", "x"), ("2,,1.5", "1.5"), ("0x10", "0x10")])
def test_a_bad_n_entry_is_named_with_its_flag(capsys, n, entry):
    with pytest.raises(SystemExit) as exc:
        main(["detection-curve", "--n", n, "--reps", "100"])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"swapqkd: error: --n takes comma-separated integers, not {entry!r}\n"


@pytest.mark.parametrize("n", [",", ""], ids=["comma", "empty"])
def test_an_n_with_no_entries_exits_2(capsys, n):
    with pytest.raises(SystemExit) as exc:
        main(["detection-curve", "--n", n, "--reps", "100"])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"swapqkd: error: --n needs at least one integer, got {n!r}\n"


def test_cached_parser_carries_nothing_between_calls(capsys):
    # The parser is built once per process; a failing call must not change
    # what a later call in the same process prints.
    with pytest.raises(SystemExit) as exc:
        main(["detection-curve", "--attack", "mixed", "--reps", "5", "--seed", "11"])
    assert exc.value.code == 2
    capsys.readouterr()
    argv = ["simulate", "--attack", "mixed", "--rounds", "40", "--seed", "11"]
    code, out, err = run_cli(capsys, argv)
    env = {**os.environ, "PYTHONPATH": str(Path(swapqkd.__file__).parents[1])}
    fresh = subprocess.run(
        [sys.executable, "-m", "swapqkd.cli", *argv], capture_output=True, text=True, env=env
    )
    assert (fresh.returncode, fresh.stderr) == (0, "")
    assert (code, out, err) == (fresh.returncode, fresh.stdout, fresh.stderr)


def test_each_subcommand_help_lists_its_shared_options_in_order(capsys):
    # Every subcommand takes --seed and --format right after -h, and the two Monte Carlo
    # commands the protocol and Alice's procedure coin next, before their own options.
    shared = ["--help", "--seed", "--format"]
    monte_carlo = shared + ["--protocol", "--procedure-prob"]
    want = {
        "validate-convention": shared,
        "reproduce-table1": shared,
        "reproduce-table2": shared,
        "simulate": monte_carlo + ["--attack", "--rounds", "--test-fraction"],
        "detection-curve": monte_carlo + ["--attack", "--n", "--reps"],
        "derive-attack": shared + ["--emit-params"],
    }
    for command, options in want.items():
        with pytest.raises(SystemExit) as exc:
            main([command, "--help"])
        assert exc.value.code == 0
        out = capsys.readouterr().out
        usage = re.findall(r"\[(-[\w-]+)", out.split("\n\n")[0])
        listed = re.findall(r"^  (?:-h, )?(--[\w-]+)", out, re.MULTILINE)
        assert (usage, listed) == (["-h"] + options[1:], options), command


def test_table_drift_exits_1_with_row_diff(capsys, monkeypatch):
    from swapqkd import cli as cli_module
    from swapqkd.protocol import TableMismatchError

    def drifted(_conv):
        raise TableMismatchError("drift", ["row 3: expected x, got y"])

    monkeypatch.setattr(cli_module.protocol, "reproduce_table1", drifted)
    code, out, err = run_cli(capsys, ["reproduce-table1"])
    assert code == 1
    assert out == ""
    assert "row 3" in err


def test_detection_curve_csv_theory_column(capsys):
    code, out, _ = run_cli(
        capsys,
        ["detection-curve", "--attack", "mixed", "--n", "1,2,4", "--reps", "150",
         "--seed", "7", "--format", "csv"],
    )
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "n,empirical,theoretical,ci_low,ci_high"
    theory = [float(line.split(",")[2]) for line in lines[1:]]
    assert theory == [0.25, 0.4375, pytest.approx(1 - 0.75**4, abs=5e-7)]


def test_detection_curve_json_is_single_document(capsys):
    code, out, _ = run_cli(
        capsys,
        ["detection-curve", "--protocol", "four", "--attack", "four-swap",
         "--n", "0,1", "--reps", "120", "--seed", "2", "--format", "json"],
    )
    assert code == 0
    doc = json.loads(out)
    assert [pt["n"] for pt in doc] == [0, 1]
    assert doc[0]["empirical"] == 0.0


def _outputs(capsys, argv):
    return {fmt: run_cli(capsys, argv + ["--format", fmt])[1] for fmt in FORMATS}


def _human_names(out):
    """The first cell of each row of an aligned table (cells are joined by two spaces)."""
    return [line.split("  ")[0] for line in out.splitlines()[2:]]


def test_simulate_formats_print_the_report_fields(capsys):
    out = _outputs(capsys, ["simulate", "--protocol", "four", "--attack", "four-swap",
                            "--rounds", "50"])
    fields = sorted(f.name for f in dataclasses.fields(SimulationReport))
    assert sorted(json.loads(out["json"])["report"]) == fields
    assert out["csv"].splitlines()[0].split(",") == fields
    assert _human_names(out["human"]) == fields


def test_detection_curve_formats_print_the_point_fields(capsys):
    out = _outputs(capsys, ["detection-curve", "--n", "0,2", "--reps", "100"])
    fields = [f.name for f in dataclasses.fields(CurvePoint)]
    assert [sorted(pt) for pt in json.loads(out["json"])] == [sorted(fields)] * 2
    assert out["csv"].splitlines()[0].split(",") == fields
    assert out["human"].splitlines()[0].split() == fields


def test_validate_convention_formats_print_the_same_quantities(capsys):
    out = _outputs(capsys, ["validate-convention"])
    doc = json.loads(out["json"])
    names = [f"label {lab}" for lab in doc.pop("labels")] + list(doc)
    assert sorted(_human_names(out["human"])) == sorted(names)
    assert sorted(line.split(",")[0] for line in out["csv"].splitlines()[1:]) == sorted(names)


def test_derive_attack_emits_params(capsys, tmp_path):
    target = tmp_path / "params.json"
    code, out, _ = run_cli(capsys, ["derive-attack", "--emit-params", str(target)])
    assert code == 0
    doc = json.loads(out)
    assert doc == json.loads(target.read_text())
    assert doc == adversary.FROZEN_TAILORED_PARAMS.to_json_dict()


@pytest.mark.parametrize(
    "argv",
    [
        ["reproduce-table1"],
        ["reproduce-table2", "--format", "csv"],
        ["validate-convention", "--format", "json"],
        ["simulate", "--protocol", "six", "--attack", "mixed", "--rounds", "120", "--seed", "5"],
        ["detection-curve", "--n", "1,2", "--reps", "120", "--seed", "9", "--format", "csv"],
        ["derive-attack"],
    ],
)
def test_output_is_byte_identical_across_runs(capsys, argv):
    code_a, out_a, _ = run_cli(capsys, argv)
    code_b, out_b, _ = run_cli(capsys, argv)
    assert code_a == code_b == 0
    assert out_a == out_b

