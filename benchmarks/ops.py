"""What one operation of each workload runs, and how its output is checked.

The checks never read the program's ``theoretical_*`` fields and never
compare against golden stdout.  Monte Carlo outputs are checked against a
binomial band around an exact per-round detection probability that the
benchmark derives itself; exact outputs are checked against values known
from the physics of each attack.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import random
from functools import lru_cache

CURVE_N = (1, 2, 4, 8, 16)
CURVE_REPS = 100
SIM_ROUNDS = 500
# Both coins are passed explicitly so the checks do not depend on CLI defaults.
PROCEDURE_PROB = 0.5
TEST_FRACTION = 0.5

# Chance that a correct engine fails the band checks of one op.
ALPHA = 1e-6

EXACT_TOL = 1e-10
EXACT_ATTACKS = ("zlg", "tailored", "four-swap(I)", "four-swap(II)")
PROCEDURES = ("i", "ii")
# Each attack is matched to one procedure.  There it is undetected and Eve
# learns the key; under the other procedure half of the compared rounds
# expose her and she is left with two candidate keys.
MATCHED = {"zlg": "i", "tailored": "ii", "four-swap(I)": "i", "four-swap(II)": "ii"}


def op_seeds(workload: str, seed: int):
    """Endless stream of 64-bit per-op seeds derived from the workload seed."""
    rng = random.Random(f"{workload}/{seed}")
    while True:
        yield rng.getrandbits(64)


# Op sizes are read at call time, so a small self-test can shrink them.
def curve_argv(seed: int, n=None, reps: int | None = None) -> list[str]:
    n = CURVE_N if n is None else n
    reps = CURVE_REPS if reps is None else reps
    return [
        "detection-curve", "--protocol", "six", "--attack", "mixed",
        "--n", ",".join(map(str, n)), "--reps", str(reps),
        "--procedure-prob", str(PROCEDURE_PROB), "--seed", str(seed), "--format", "json",
    ]


def simulate_argv(seed: int, rounds: int | None = None) -> list[str]:
    rounds = SIM_ROUNDS if rounds is None else rounds
    return [
        "simulate", "--protocol", "four", "--attack", "four-swap",
        "--rounds", str(rounds), "--procedure-prob", str(PROCEDURE_PROB),
        "--test-fraction", str(TEST_FRACTION), "--seed", str(seed), "--format", "json",
    ]


def run_cli(cli, argv: list[str]) -> tuple[int, str]:
    """Run ``cli.main`` in-process; return its exit code and stdout.

    ``cli.main`` is looked up at call time so a traced run sees its wrapper.
    """
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        try:
            rc = cli.main(argv)
        except SystemExit as exc:  # argparse exits on invalid input
            rc = exc.code if isinstance(exc.code, int) else 1
    return rc, buf.getvalue()


# --- Monte Carlo checks ------------------------------------------------------


@lru_cache(maxsize=None)
def binomial_band(trials: int, p: float, alpha: float) -> tuple[int, int]:
    """Smallest [lo, hi] with P(X < lo) <= alpha/2 and P(X > hi) <= alpha/2."""
    pmf = [math.comb(trials, k) * p**k * (1.0 - p) ** (trials - k) for k in range(trials + 1)]
    lo, tail = 0, 0.0
    while lo < trials and tail + pmf[lo] <= alpha / 2:
        tail += pmf[lo]
        lo += 1
    hi, tail = trials, 0.0
    while hi > 0 and tail + pmf[hi] <= alpha / 2:
        tail += pmf[hi]
        hi -= 1
    return lo, hi


def _count(rate: float, trials: int) -> int | None:
    """The integer count behind a reported rate, or None if there is none."""
    count = round(rate * trials)
    return count if abs(count - rate * trials) < 1e-6 else None


def check_curve(rc: int, out: str, p: float) -> list[str]:
    """A detection curve whose every point lies in its binomial band."""
    n, reps = CURVE_N, CURVE_REPS
    if rc != 0:
        return [f"exit code {rc}"]
    try:
        points = json.loads(out)
        pairs = [(int(pt["n"]), float(pt["empirical"])) for pt in points]
    except (ValueError, KeyError, TypeError) as exc:
        return [f"unparseable curve output: {exc}"]
    if [k for k, _ in pairs] != list(n):
        return [f"curve points {[k for k, _ in pairs]}, expected {list(n)}"]
    errors = []
    for k, empirical in pairs:
        hits = _count(empirical, reps)
        q = 1.0 - (1.0 - p) ** k
        lo, hi = binomial_band(reps, q, ALPHA / len(n))
        if hits is None or not lo <= hits <= hi:
            errors.append(f"n={k}: empirical {empirical} outside [{lo}, {hi}]/{reps} around {q:.6f}")
    return errors


def check_simulate(rc: int, out: str, p: float) -> list[str]:
    """A run whose per-compared-round detection rate lies in its binomial band."""
    rounds = SIM_ROUNDS
    if rc != 0:
        return [f"exit code {rc}"]
    try:
        report = json.loads(out)["report"]
        rounds_run = int(report["rounds_run"])
        compared = int(report["compared"])
        rate = float(report["empirical_detection_prob"])
    except (ValueError, KeyError, TypeError) as exc:
        return [f"unparseable simulate output: {exc}"]
    if rounds_run != rounds or not 0 < compared <= rounds:
        return [f"rounds_run {rounds_run}, compared {compared} for {rounds} rounds"]
    detected = _count(rate, compared)
    lo, hi = binomial_band(compared, p, ALPHA)
    if detected is None or not lo <= detected <= hi:
        return [f"detection rate {rate} outside [{lo}, {hi}]/{compared} around {p:.6f}"]
    return []


def detection_p(conv, protocol: str, mix, policy: float) -> float:
    """Exact per-compared-round detection probability of an attack mix.

    ``mix`` is a list of (weight, attack); Alice picks procedure (i) with
    probability ``policy``.
    """
    from swapqkd.adversary import attack_detection_probability
    from swapqkd.protocol import Procedure

    return sum(
        weight * (
            policy * attack_detection_probability(conv, protocol, Procedure.P_I, attack)
            + (1.0 - policy) * attack_detection_probability(conv, protocol, Procedure.P_II, attack)
        )
        for weight, attack in mix
    )


def curve_p() -> float:
    """Detection p of the mixed six-qubit attack at the benchmark's policy."""
    from swapqkd import bell
    from swapqkd.adversary import AttackStrategy, TailoredAttack, ZlgAttack

    conv = bell.convention()
    weight = AttackStrategy("mixed").weight_zlg
    mix = [(weight, ZlgAttack(conv)), (1.0 - weight, TailoredAttack(conv))]
    return detection_p(conv, "six", mix, PROCEDURE_PROB)


def simulate_p() -> float:
    """Detection p of four-swap, whose procedure guess is a fair coin per round."""
    from swapqkd import bell
    from swapqkd.adversary import FourSwapAttack
    from swapqkd.protocol import Procedure

    conv = bell.convention()
    mix = [(0.5, FourSwapAttack(conv, guess)) for guess in Procedure]
    return detection_p(conv, "four", mix, PROCEDURE_PROB)


# --- exact-analysis checks ---------------------------------------------------


def exact_expected() -> dict[str, tuple[float, float]]:
    """``"attack/procedure"`` -> (detection probability, Eve's information)."""
    return {
        f"{attack}/{proc}": (0.0, 1.0) if MATCHED[attack] == proc else (0.5, 0.0)
        for attack in EXACT_ATTACKS
        for proc in PROCEDURES
    }


def check_exact(result: dict, expected: dict[str, tuple[float, float]]) -> list[str]:
    """Check one exact pass as reported by ``child.py serve``."""
    errors = [f"{cmd}: exit code {rc}" for cmd, rc in result["exit_codes"].items() if rc != 0]
    if result["derived_attack"] != result["frozen_attack"]:
        errors.append(
            f"derive-attack gave {result['derived_attack']}, frozen {result['frozen_attack']}"
        )
    got = result["probabilities"]
    for key, want in expected.items():
        have = got.get(key)
        if have is None or any(abs(h - w) > EXACT_TOL for h, w in zip(have, want)):
            errors.append(f"{key}: (detection, information) {have}, expected {want}")
    return errors
