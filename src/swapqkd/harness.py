"""Monte Carlo execution of many rounds and detection statistics.

Seeding is splittable and documented: the seed of round ``i`` of a run is
``splitmix64(master_seed, i)``, where splitmix64 is the standard SplitMix64
finalizer applied to ``master_seed + (i + 1) * 0x9E3779B97F4A7C15`` (mod
2^64).  Curve experiments nest the same scheme: experiment ``r`` of curve
point ``n`` draws its per-round seeds from
``splitmix64(splitmix64(master_seed, n), r)``.  Serial and concurrent
execution therefore see identical per-round streams.  Under seed contract v1
each stream is numpy's ``Generator(PCG64(seed)).random()``, computed in-package
(``qstate.random_sources``, seeded in chunks) and pinned to numpy by a test.

A round is one descent of one tree of ``qstate.Distribution`` nodes, one
uniform per level, so the stream is consumed in the tree's level order: the
attack-selection coin (only for strategies that need one), Alice's procedure
coin, the round's measurement nodes in protocol order.  A simulated round
then draws the key-comparison coin.

A compared round counts as a detection when Bob's inferred key differs
from Alice's key; no error-rate thresholding is layered on top.  The
reference curve for the eavesdropper mixtures is ``1 - (3/4)**n`` for
``n`` compared key pairs, equivalently ``1 - (3/4)**(N/2)`` for ``N``
compared bits.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import islice
from typing import Sequence

from . import bell
from .adversary import AttackStrategy
from .protocol import PROTOCOLS, Procedure, protocol_driver
# RandomSource is imported by name so that benchmarks/tracer.py finds it here.
from .qstate import Distribution, RandomSource, random_sources  # noqa: F401

_MASK64 = 0xFFFFFFFFFFFFFFFF
_GOLDEN = 0x9E3779B97F4A7C15


def splitmix64(master_seed: int, index: int) -> int:
    """Deterministic 64-bit mix of a master seed and a stream index."""
    z = (master_seed + (index + 1) * _GOLDEN) & _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


@dataclass(frozen=True)
class CurveConfig:
    """What a detection curve reads: protocol, attack, procedure coin, seeding."""

    protocol: str = "six"
    attack: AttackStrategy = field(default_factory=lambda: AttackStrategy("none"))
    procedure_policy: float = 0.5  # probability Alice picks procedure (i)
    master_seed: int = 0

    def __post_init__(self) -> None:
        if self.protocol not in PROTOCOLS:
            raise ValueError(f"unknown protocol {self.protocol!r}")
        if not 0.0 <= self.procedure_policy <= 1.0:
            raise ValueError("procedure_policy must be a probability")
        if self.protocol not in self.attack.compatible_protocols():
            raise ValueError(
                f"attack {self.attack.kind!r} does not apply to the "
                f"{self.protocol}-qubit protocol"
            )


@dataclass(frozen=True)
class SimulationConfig(CurveConfig):
    """One Monte Carlo run: a curve's settings plus a length and a test coin."""

    rounds: int = 1000
    test_fraction: float = 0.5  # fraction of rounds publicly compared

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.rounds < 1:
            raise ValueError("rounds must be >= 1")
        if not 0.0 <= self.test_fraction <= 1.0:
            raise ValueError("test_fraction must be a probability")


@dataclass(frozen=True)
class SimulationReport:
    """Aggregate statistics of one run.

    ``empirical_detection_prob`` is the mismatch fraction among compared
    rounds, with a 95% normal-approximation confidence interval;
    ``theoretical_detection_prob`` is the reference ``1 - (3/4)**compared``
    for at least one detection over that many compared pairs under the
    attack mixtures.
    """

    rounds_run: int
    compared: int
    agreement_rate: float
    detected_any: bool
    empirical_detection_prob: float
    detection_ci: tuple[float, float]
    theoretical_detection_prob: float
    eve_key_information: float
    key_bits_per_transmitted_qubit: float

    def __post_init__(self) -> None:
        if self.compared > self.rounds_run:
            raise ValueError("compared rounds cannot exceed rounds run")

    def to_json_dict(self) -> dict:
        return {
            "rounds_run": self.rounds_run,
            "compared": self.compared,
            "agreement_rate": self.agreement_rate,
            "detected_any": self.detected_any,
            "empirical_detection_prob": self.empirical_detection_prob,
            "detection_ci_low": self.detection_ci[0],
            "detection_ci_high": self.detection_ci[1],
            "theoretical_detection_prob": self.theoretical_detection_prob,
            "eve_key_information": self.eve_key_information,
            "key_bits_per_transmitted_qubit": self.key_bits_per_transmitted_qubit,
        }


def _binomial_ci(successes: int, trials: int) -> tuple[float, float]:
    if trials == 0:
        return (0.0, 1.0)
    p = successes / trials
    half = 1.96 * (p * (1.0 - p) / trials) ** 0.5
    return (max(0.0, p - half), min(1.0, p + half))


def _round_tree(config: CurveConfig) -> Distribution:
    """The root of one round of ``config``, for :meth:`RandomSource.descend`.

    Its levels are the attack coin (two-attack mixtures only), the procedure coin over
    ``(policy, 1 - policy)``, then the chosen round model's measurement nodes.  A coin
    over ``(q, 1 - q)`` picks its first outcome exactly when the uniform is below q.
    Every round model is resolved here, once.
    """
    driver = protocol_driver(bell.convention(), config.protocol)
    policy = config.procedure_policy
    coins = [
        (weight, Distribution((policy, 1.0 - policy),
                              [driver.round_model(p, attack).root for p in Procedure]))
        for weight, attack in config.attack.mixture(bell.convention())
    ]
    if len(coins) == 1:
        return coins[0][1]
    (weight, first), (_, second) = coins
    return Distribution((weight, 1.0 - weight), (first, second))


def run_simulation(config: SimulationConfig) -> SimulationReport:
    """Run ``config.rounds`` independently seeded rounds and aggregate."""
    root = _round_tree(config)
    test_coin = Distribution((config.test_fraction, 1.0 - config.test_fraction))

    compared = detected = agreed = eve_informed = 0
    for rng in random_sources(splitmix64(config.master_seed, i) for i in range(config.rounds)):
        transcript = rng.descend(root)
        if test_coin.pick(rng.uniform()) == 0:
            compared += 1
            detected += transcript.bob_inferred_key != transcript.key
        agreed += transcript.bob_inferred_key == transcript.key
        record = transcript.eve_record
        if record is not None and record.inferred_keys == (transcript.key,):
            eve_informed += 1

    return SimulationReport(
        rounds_run=config.rounds,
        compared=compared,
        agreement_rate=agreed / config.rounds,
        detected_any=detected > 0,
        empirical_detection_prob=(detected / compared) if compared else 0.0,
        detection_ci=_binomial_ci(detected, compared),
        theoretical_detection_prob=1.0 - 0.75**compared,
        eve_key_information=eve_informed / config.rounds,
        # Each round transmits two qubits and delivers a two-bit key.
        key_bits_per_transmitted_qubit=1.0,
    )


@dataclass(frozen=True)
class CurvePoint:
    """Detection probability after comparing exactly n key pairs."""

    n: int
    empirical: float
    theoretical: float
    ci_low: float
    ci_high: float


CURVE_COLUMNS = ("n", "empirical", "theoretical", "ci_low", "ci_high")


def detection_curve(
    config: CurveConfig, n_values: Sequence[int], repetitions: int
) -> list[CurvePoint]:
    """Empirical vs theoretical probability of catching the eavesdropper.

    For each ``n``, runs ``repetitions`` independent experiments of exactly
    ``n`` compared rounds under ``config``'s attack and procedure policy;
    an experiment scores as a detection when at least one compared round
    mismatches.  The reference curve is ``1 - (3/4)**n``.
    """
    if repetitions < 100:
        raise ValueError("repetitions must be >= 100")
    if any(n < 0 for n in n_values):
        raise ValueError("n values must be >= 0")
    root = _round_tree(config)

    point_seeds = [splitmix64(config.master_seed, n) for n in n_values]
    sources = random_sources(
        splitmix64(seed, rep) for seed in point_seeds for rep in range(repetitions)
    )
    points = []
    for n in n_values:
        hits = 0
        for rng in islice(sources, repetitions):
            for _ in range(n):
                transcript = rng.descend(root)
                if transcript.bob_inferred_key != transcript.key:
                    hits += 1
                    break
        empirical = hits / repetitions
        ci = _binomial_ci(hits, repetitions)
        points.append(CurvePoint(n, empirical, 1.0 - 0.75**n, ci[0], ci[1]))
    return points

