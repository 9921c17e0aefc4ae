"""Child processes of the benchmark: set-up samples and exact-analysis ops.

    python3 benchmarks/child.py setup WORKLOAD SEED
    python3 benchmarks/child.py serve TIMEOUT_S

``setup`` runs in a fresh interpreter and times everything from before
``import swapqkd`` to the end of the workload's smallest valid op.

``serve`` reads one JSON request per line from stdin and, one at a time,
forks a process that imports ``swapqkd`` and runs one full exact pass,
timed after import.  The server has imported numpy and nothing of
``swapqkd``, so every pass pays swapqkd's own first-use costs and shares
no cache with any other op; the fresh-interpreter cost is what ``setup``
measures.  Each reply is one JSON line; the output checks run in the
parent, which holds the expected values.
"""

from __future__ import annotations

import hashlib
import json
import os
import resource
import signal
import sys
import time
import traceback
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import ops  # noqa: E402  (the benchmark's own module, next to this file)


def setup(workload: str, seed: int) -> dict:
    start = time.perf_counter()
    import swapqkd  # noqa: F401
    from swapqkd import cli

    if workload == "exact-analysis":
        from swapqkd import bell, protocol

        for name in ("six", "four"):
            protocol.protocol_driver(bell.convention(), name)
        rc = 0
    elif workload == "curve-six-mixed":
        rc, _ = ops.run_cli(cli, ops.curve_argv(seed, n=(1,), reps=100))
    else:
        rc, _ = ops.run_cli(cli, ops.simulate_argv(seed, rounds=1))
    elapsed = time.perf_counter() - start
    return {"setup_s": elapsed, "errors": [] if rc == 0 else [f"exit code {rc}"]}


def exact(seed: int, op: int, spans_path: str | None, keep_spans: bool) -> dict:
    """One exact pass; traced when ``spans_path`` is given."""
    from swapqkd import adversary, bell, cli
    from swapqkd.protocol import Procedure

    tracer = None
    if spans_path is not None:
        from tracer import Tracer

        tracer = Tracer(keep_ops=op + 1 if keep_spans else 0)
        tracer.install()
        tracer.begin_op(op)

    start = time.perf_counter_ns()
    outputs, exit_codes = [], {}
    for command in ("validate-convention", "reproduce-table1", "reproduce-table2", "derive-attack"):
        exit_codes[command], out = ops.run_cli(cli, [command, "--seed", str(seed)])
        outputs.append(out)
    conv = bell.convention()
    attacks = {
        "zlg": ("six", adversary.ZlgAttack(conv)),
        "tailored": ("six", adversary.TailoredAttack(conv)),
        "four-swap(I)": ("four", adversary.FourSwapAttack(conv, Procedure.P_I)),
        "four-swap(II)": ("four", adversary.FourSwapAttack(conv, Procedure.P_II)),
    }
    probabilities = {}
    for name, (protocol, attack) in attacks.items():
        for procedure in Procedure:
            probabilities[f"{name}/{procedure.value}"] = [
                adversary.attack_detection_probability(conv, protocol, procedure, attack),
                adversary.eve_information_probability(conv, protocol, procedure, attack),
            ]
    latency_ns = time.perf_counter_ns() - start

    try:
        derived = json.loads(outputs[3])
    except ValueError:
        derived = None
    outputs.append(json.dumps(probabilities))
    result = {
        "latency_ns": latency_ns,
        "stdout_sha256": hashlib.sha256("".join(outputs).encode()).hexdigest(),
        "exit_codes": exit_codes,
        "derived_attack": derived,
        "frozen_attack": adversary.FROZEN_TAILORED_PARAMS.to_json_dict(),
        "probabilities": probabilities,
        "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    }
    if tracer is not None:
        tracer.uninstall()
        tracer.write_spans(spans_path)
        result["trace"] = tracer.counters()
    return result


def serve(timeout_s: int) -> None:
    """Fork one exact pass per request line, one at a time."""
    import numpy  # noqa: F401  (its import cost is measured by setup, not per op)

    for line in sys.stdin:
        request = json.loads(line)
        sys.stdout.flush()
        pid = os.fork()
        if pid == 0:
            code = 1
            try:
                signal.alarm(timeout_s)
                sys.stdout.write(json.dumps(exact(**request)) + "\n")
                sys.stdout.flush()
                code = 0
            except Exception:
                traceback.print_exc()
            finally:
                os._exit(code)
        _, status = os.waitpid(pid, 0)
        if status != 0:
            sys.stdout.write(json.dumps({"error": f"exact pass ended with wait status {status}"}) + "\n")
        sys.stdout.flush()


def main(argv: list[str]) -> int:
    if argv[:1] == ["setup"] and len(argv) == 3:
        print(json.dumps(setup(argv[1], int(argv[2]))))
    elif argv[:1] == ["serve"] and len(argv) == 2:
        serve(int(argv[1]))
    else:
        sys.stderr.write(f"usage: {__doc__.splitlines()[2].strip()}\n")
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
