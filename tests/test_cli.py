import dataclasses
import hashlib
import json
import os
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


# SHA-256 of stdout, captured from the per-round statevector sampler that
# the branch-tree sampler replaced; the first seven are the acceptance
# determinism command set.
GOLDEN_STDOUT_SHA256 = {
    "validate-convention --format json":
        "93ab9265f61ae03fd53dc3900bbaeb0efa382bfca10e5ee186da5c49c90cd7aa",
    "reproduce-table1 --format csv":
        "f2ffe8d92d5377b2e23e7a04b922c34b30d98fc79f7520abeb8e5a739a2b30d0",
    "reproduce-table2":
        "915c5fef20ccdc0d76131e1e95cebcec7d32340c8ed663e6a32decdfa5838849",
    "simulate --protocol six --attack mixed --rounds 150 --seed 7 --format json":
        "b5bf8c9faa39ca19d0bbd3eb043eac9b0918eb4e73528a84035d917e436078ae",
    "simulate --protocol four --attack four-swap --rounds 100 --seed 9 --format csv":
        "986e3f11167890eaaf5382a5c0be9bfaf6a5ebe030f9797b28978e97874cf665",
    "detection-curve --n 1,2 --reps 150 --seed 3 --format csv":
        "ee8b7d6182141269fdd4a0fada2878b559e750a44d97fdd1d36ef08415820cc8",
    "derive-attack":
        "fa6a8f4e08f49cccdfa083a2d5efdeedd75b22872a49de483c7994cf5ab8a6c1",
    "simulate --protocol six --attack mixed --rounds 2000 --seed 5 --format json":
        "08d371d0f51023e7cba48672bd55e5651dc234d70e79d16210f8dad9481f5164",
    "simulate --protocol four --attack four-swap --rounds 2000 --seed 5 --format json":
        "fa9096cf7ca121e118f00084afa37f9fd768f7c4ca1bbf9530379e5484ea56ce",
    "detection-curve --protocol six --attack mixed --n 0,1,2,4,8 --reps 300 --seed 5 --format json":
        "50a0e4ab3e3b46d26ba971c5c3f99a8750e57e7203d61297e7d3fc3d42586055",
}


@pytest.mark.parametrize("command", list(GOLDEN_STDOUT_SHA256))
def test_stdout_matches_golden_digest(capsys, command):
    code, out, _ = run_cli(capsys, command.split())
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == GOLDEN_STDOUT_SHA256[command]


# SHA-256 of stdout at master seeds that fill all 64 bits, captured from
# numpy's own PCG64 generator before RandomSource computed the stream itself.
FULL_RANGE_SEED_SHA256 = {
    "simulate --protocol four --attack four-swap --rounds 300 --seed 9223372036854775808 --format json":
        "577861b321d20dc2a51c477dd2c431b5e0c11c55db3cec6e2c0b0f099abcdfaa",
    "simulate --protocol six --attack mixed --rounds 300 --seed 9223372036854775808 --format json":
        "06c12ed2cc4bbc1e393b559338d22f6039449daf72168d66f22aaaee94aa472f",
    "detection-curve --protocol six --attack mixed --n 1,2,4,8,16 --reps 100 --seed 9223372036854775808 --format json":
        "46640ce1fc77d97516d0d9704b2a61e4db6c3bd796c3ca7d901da8e728f6a21e",
    "simulate --protocol four --attack four-swap --rounds 300 --seed 18446744073709551615 --format json":
        "dd604b97259ad9432af803eb0d8ff1af76cad081409948873c432ef47217d161",
    "simulate --protocol six --attack mixed --rounds 300 --seed 18446744073709551615 --format json":
        "7fda905854595e44c07eb8413c2bb85f186563294a7b4505b4288bf2b29546e9",
    "detection-curve --protocol six --attack mixed --n 1,2,4,8,16 --reps 100 --seed 18446744073709551615 --format json":
        "0bba480c23ecf162996f6cca50b94cbb06c8762d092be4ab66f43d01517d538c",
    "simulate --protocol four --attack four-swap --rounds 300 --seed 12345678901234567890 --format json":
        "df1b33960ad3fa9fa43d98224533c7c49712c0094905f985fbe6f4903f3eebd4",
    "simulate --protocol six --attack mixed --rounds 300 --seed 12345678901234567890 --format json":
        "d970cc3db43431a3058a8d36b04071886ef56cffddb1dd8e6e02d15c029a21e5",
    "detection-curve --protocol six --attack mixed --n 1,2,4,8,16 --reps 100 --seed 12345678901234567890 --format json":
        "53b703f021b9d1c53e46543badc652bbfc7d330505caac09adee6d04bfce0adb",
}


@pytest.mark.parametrize("command", list(FULL_RANGE_SEED_SHA256))
def test_full_range_seed_stdout_matches_golden_digest(capsys, command):
    code, out, _ = run_cli(capsys, command.split())
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == FULL_RANGE_SEED_SHA256[command]


# SHA-256 of stdout at the coin edges: Alice's procedure coin at 0, 0.3 and 1,
# and for simulate the test coin at 0 and 1, on six/none, six/mixed and
# four/four-swap.  Captured while each coin was its own uniform compared
# against its probability, before the coins became tree nodes.
COIN_STDOUT_SHA256 = {
    "simulate --protocol six --attack none --rounds 300 --procedure-prob 0 --test-fraction 0 --seed 11 --format json":
        "adb95f6855c11772e981f8a37f86252a2adc715e7bdb834b7acb34d3e4e90283",
    "simulate --protocol six --attack none --rounds 300 --procedure-prob 0 --test-fraction 1 --seed 11 --format json":
        "70a5f42aeaa9e5bb7052a83b1c68837197331cf2c65601c3b461f671165af13d",
    "detection-curve --protocol six --attack none --n 0,1,2,4 --reps 100 --procedure-prob 0 --seed 11 --format json":
        "07905af3fad786939ac157803e83cdfe3cdf47a0ffcbf0bc02ebaafcea2a0d6c",
    "simulate --protocol six --attack none --rounds 300 --procedure-prob 0.3 --test-fraction 0 --seed 11 --format json":
        "045fa5f5b69d08b752c9db4a6933d20a613762dbdbdf6ba3a80da252b3d2cff4",
    "simulate --protocol six --attack none --rounds 300 --procedure-prob 0.3 --test-fraction 1 --seed 11 --format json":
        "9220ebb68dac3a171fc615f0e28dde9fe33f042d242d237bed81bb3002cf205f",
    "detection-curve --protocol six --attack none --n 0,1,2,4 --reps 100 --procedure-prob 0.3 --seed 11 --format json":
        "07905af3fad786939ac157803e83cdfe3cdf47a0ffcbf0bc02ebaafcea2a0d6c",
    "simulate --protocol six --attack none --rounds 300 --procedure-prob 1 --test-fraction 0 --seed 11 --format json":
        "2619393076624368c014d5e87325841960c5c48aab8da996073ec82a45689e67",
    "simulate --protocol six --attack none --rounds 300 --procedure-prob 1 --test-fraction 1 --seed 11 --format json":
        "6a2fce6f94de168c72d7df6e95df11cc60b7d4324f171081a1841c6f30bbca9c",
    "detection-curve --protocol six --attack none --n 0,1,2,4 --reps 100 --procedure-prob 1 --seed 11 --format json":
        "07905af3fad786939ac157803e83cdfe3cdf47a0ffcbf0bc02ebaafcea2a0d6c",
    "simulate --protocol six --attack mixed --rounds 300 --procedure-prob 0 --test-fraction 0 --seed 11 --format json":
        "605d66010a0a078d534668197fdb101663eab0872ba215792f41a26b05245fc0",
    "simulate --protocol six --attack mixed --rounds 300 --procedure-prob 0 --test-fraction 1 --seed 11 --format json":
        "95865bb9d6e0188445c3a0220778a7d7a5c141dfa012e097baff44c3da76cb0c",
    "detection-curve --protocol six --attack mixed --n 0,1,2,4 --reps 100 --procedure-prob 0 --seed 11 --format json":
        "b1ca9fda337a396e2d161921f8160df431d3cf432a4d94d7967b55776a2224c8",
    "simulate --protocol six --attack mixed --rounds 300 --procedure-prob 0.3 --test-fraction 0 --seed 11 --format json":
        "3d8c50409eb2462d7bb7834a6e7eb5667e61bfc46a120bc0a1b99eed8e06e849",
    "simulate --protocol six --attack mixed --rounds 300 --procedure-prob 0.3 --test-fraction 1 --seed 11 --format json":
        "9570f8c746ba7fadf6182c38e437b59212c88798d76bb7f0ea3172a0b8570a24",
    "detection-curve --protocol six --attack mixed --n 0,1,2,4 --reps 100 --procedure-prob 0.3 --seed 11 --format json":
        "e613276a9829993d7db0875ffb6409d77eef07c27489ddd0dd88d920427446aa",
    "simulate --protocol six --attack mixed --rounds 300 --procedure-prob 1 --test-fraction 0 --seed 11 --format json":
        "9914fcbd13052b3a94673da64dcb79ece60ae53e3365a6fee15953538c37036e",
    "simulate --protocol six --attack mixed --rounds 300 --procedure-prob 1 --test-fraction 1 --seed 11 --format json":
        "10050a3e299c4d4ee1a0a6790be65bd69c4ba56f08ee2c2d75bb03a3be850c66",
    "detection-curve --protocol six --attack mixed --n 0,1,2,4 --reps 100 --procedure-prob 1 --seed 11 --format json":
        "fdef1f5a3193c8b8019696c6450d317cec1db18febdeb15bdff04ef924a7ae6f",
    "simulate --protocol four --attack four-swap --rounds 300 --procedure-prob 0 --test-fraction 0 --seed 11 --format json":
        "e587bd43f06e8828bbdb39696588c7b4dd5b32c1f9175d1050a72c85d8a65013",
    "simulate --protocol four --attack four-swap --rounds 300 --procedure-prob 0 --test-fraction 1 --seed 11 --format json":
        "fa550810cadfc58585f1ff25dd361fd79ac8e2a4706427b85fabe073bafd3f5c",
    "detection-curve --protocol four --attack four-swap --n 0,1,2,4 --reps 100 --procedure-prob 0 --seed 11 --format json":
        "e69393aa1a6a9d3d9a4bce7db98c8271df1481fb347cc9dc13e87f3a608b49a6",
    "simulate --protocol four --attack four-swap --rounds 300 --procedure-prob 0.3 --test-fraction 0 --seed 11 --format json":
        "fc5497dba90c3a2b19bbb22423d680c81e38c00ab2274ab838faf5a9173e5f12",
    "simulate --protocol four --attack four-swap --rounds 300 --procedure-prob 0.3 --test-fraction 1 --seed 11 --format json":
        "677dba557577cea62611fb2f68510340a4e8d843dad5d1015274ea5e478a9136",
    "detection-curve --protocol four --attack four-swap --n 0,1,2,4 --reps 100 --procedure-prob 0.3 --seed 11 --format json":
        "a859f43af48e46f6c0a8332abdbee605cebd213e46b481cf95317d6ebf67b889",
    "simulate --protocol four --attack four-swap --rounds 300 --procedure-prob 1 --test-fraction 0 --seed 11 --format json":
        "3fabf1deb6b00a6f4dc026b9d3245d7df38eb792a1e4356eed2929a89122f25d",
    "simulate --protocol four --attack four-swap --rounds 300 --procedure-prob 1 --test-fraction 1 --seed 11 --format json":
        "d5cf56b9b3977c29d1b0c77d8e1aec0d4f36cf4ef13ea4149d2466246c5096a9",
    "detection-curve --protocol four --attack four-swap --n 0,1,2,4 --reps 100 --procedure-prob 1 --seed 11 --format json":
        "bd089e5e38d79c0fecc7072f977df5d23c897bc3af7991751e0f9b4ae5c78a18",
}


@pytest.mark.parametrize("command", list(COIN_STDOUT_SHA256))
def test_coin_edge_stdout_matches_golden_digest(capsys, command):
    code, out, _ = run_cli(capsys, command.split())
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == COIN_STDOUT_SHA256[command]


# A limit past int64: six/mixed's lanes all detect long before, and six/zlg at
# procedure-prob 1 folds to a root that ends every walk and draws nothing.
HUGE_N_HEADER = ("n                      empirical  theoretical  ci_low    ci_high\n"
                 "---------------------  ---------  -----------  --------  --------\n")
HUGE_N_STDOUT = {
    "detection-curve --n 100000000000000000000,2 --attack mixed": HUGE_N_HEADER + (
        "100000000000000000000  1.000000   1.000000     1.000000  1.000000\n"
        "2                      0.434100   0.437500     0.424385  0.443815\n"),
    "detection-curve --n 100000000000000000000,2 --attack zlg --procedure-prob 1": HUGE_N_HEADER + (
        "100000000000000000000  0.000000   1.000000     0.000000  0.000000\n"
        "2                      0.000000   0.437500     0.000000  0.000000\n"),
}


@pytest.mark.parametrize("command", list(HUGE_N_STDOUT))
def test_a_limit_past_int64_prints_its_rows(capsys, command):
    assert run_cli(capsys, command.split()) == (0, HUGE_N_STDOUT[command], "")


SWEEP_CONFIGS = (
    ("six", "none"), ("six", "zlg"), ("six", "tailored"), ("six", "mixed"),
    ("four", "none"), ("four", "four-swap"),
)

# SHA-256 over every sweep command's argv, exit code, stdout and stderr, in
# order; captured before protocols became one spec table.
SWEEP_SHA256 = "fda3453fbb2102c6411fc679285493f4e8ba4db1b33a70298844623fbd430dfd"


def _sweep_commands():
    """Each table command in three formats, then simulate and a short curve
    for every attack config x seed x format: 120 commands."""
    for command in ("validate-convention", "reproduce-table1", "reproduce-table2", "derive-attack"):
        for fmt in FORMATS:
            yield [command, "--format", fmt]
    for proto, attack in SWEEP_CONFIGS:
        for seed in ("0", "7", "123456789"):
            for fmt in FORMATS:
                common = ["--protocol", proto, "--attack", attack, "--seed", seed, "--format", fmt]
                yield ["simulate", *common, "--rounds", "300"]
                yield ["detection-curve", *common, "--n", "0,1,3", "--reps", "100"]


def test_command_sweep_is_byte_identical(capsys):
    digest = hashlib.sha256()
    commands = list(_sweep_commands())
    assert len(commands) == 120
    for argv in commands:
        code, out, err = run_cli(capsys, argv)
        digest.update((json.dumps([argv, code, out, err]) + "\n").encode())
    assert digest.hexdigest() == SWEEP_SHA256
