"""Self-test of the benchmark at tiny size.

    python3 benchmarks/selftest.py

For every workload, in both untraced and traced mode, it checks that every
metric named in BENCHMARK.json is printed with its unit and that the
summary line carries ``error_rate``.  It then runs each workload against a
deliberately wrong expected value and checks that the failures are counted
in ``error_rate``.  It exits 0 when every check holds.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys

import ops
import run

BENCH = json.loads((run.ROOT / "BENCHMARK.json").read_text())


class SelfTestError(Exception):
    pass


def expect(condition: bool, message: str) -> None:
    if not condition:
        raise SelfTestError(message)


def shrink() -> None:
    """Tiny ops and runs; the CLI does not accept fewer than 100 reps."""
    ops.CURVE_N = (1, 2)
    ops.SIM_ROUNDS = 40
    run.MIN_OPS = 3
    run.SETUP_SAMPLES = 1


def run_once(workload: str, trace: int) -> tuple[dict, dict]:
    """Run the benchmark's main on one workload; return (summary, result)."""
    buf = io.StringIO()
    argv = ["--workload", workload, "--seed", "11", "--seconds", "0.2", "--trace", str(trace)]
    with contextlib.redirect_stdout(buf):
        code = run.main(argv)
    expect(code == 0, f"{workload}: exit code {code}")
    lines = buf.getvalue().splitlines()
    summary = json.loads(lines[-2].removeprefix("summary "))
    result = json.loads(lines[-1])
    expect(set(result) == {"correct", "attempted", "failed", "metrics"},
           f"{workload}: result keys {sorted(result)}")
    return summary, result


def check_metrics(workload: str, trace: int, summary: dict, result: dict) -> None:
    listed = BENCH["per_layer"] if trace else BENCH["end_to_end"]
    printed = result["metrics"]
    expect(set(printed) == {m["name"] for m in listed},
           f"{workload}: printed {sorted(printed)}")
    for metric in listed:
        value = printed[metric["name"]]
        expect(value["unit"] == metric["unit"], f"{workload}: {metric['name']} unit {value}")
        expect(isinstance(value["value"], (int, float)), f"{workload}: {metric['name']} {value}")
    expect(summary["error_rate"]["unit"] == "ratio", f"{workload}: {summary['error_rate']}")
    expect(result["correct"] and result["failed"] == 0 and summary["error_rate"]["value"] == 0,
           f"{workload}: a correct engine failed: {result['failed']} of {result['attempted']}")


def wrong_expectation(workload: str) -> None:
    """Swap in a wrong expected value; failures must reach error_rate."""
    saved = ops.curve_p, ops.simulate_p, ops.exact_expected
    right = ops.exact_expected()
    ops.curve_p = ops.simulate_p = lambda: 0.9  # the exact value is 0.25
    ops.exact_expected = lambda: {**right, "zlg/i": (0.5, 1.0)}  # zlg is undetected under (i)
    try:
        summary, result = run_once(workload, trace=0)
    finally:
        ops.curve_p, ops.simulate_p, ops.exact_expected = saved
    expect(not result["correct"] and result["failed"] > 0, f"{workload}: wrong value not caught")
    expect(summary["error_rate"]["value"] == result["failed"] / result["attempted"] > 0,
           f"{workload}: error_rate {summary['error_rate']}")


def main() -> int:
    shrink()
    try:
        for workload in run.WORKLOADS:
            for trace in (0, 1):
                check_metrics(workload, trace, *run_once(workload, trace))
            wrong_expectation(workload)
            print(f"ok {workload}")
    except SelfTestError as exc:
        print(f"FAIL {exc}")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
