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
then draws the key-comparison coin.  Monte Carlo reads only a leaf's two
facts, ``detected`` and ``informed``, so the tree is folded once per process
per (protocol, attack, procedure policy): a subtree whose reachable leaves
share both facts and one depth is one ``qstate.Jump``, one LCG jump over
its levels, and the stream is consumed exactly as before.

A compared round counts as a detection when Bob's inferred key differs
from Alice's key; no error-rate thresholding is layered on top.  The
reference curve for the eavesdropper mixtures is ``1 - (3/4)**n`` for
``n`` compared key pairs, equivalently ``1 - (3/4)**(N/2)`` for ``N``
compared bits.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from itertools import islice
from typing import Iterator, Sequence

import numpy as np

from . import bell
from .adversary import AttackStrategy
from .protocol import PROTOCOLS, Procedure, protocol_driver
# RandomSource is imported by name so that benchmarks/tracer.py finds it here.
from .qstate import SEED_CHUNK, Distribution, Jump, RandomSource, random_sources  # noqa: F401

_MASK64 = 0xFFFFFFFFFFFFFFFF
_GOLDEN = 0x9E3779B97F4A7C15


def splitmix64(master_seed: int | np.ndarray, index: int | np.ndarray) -> int | np.ndarray:
    """Deterministic 64-bit mix of a master seed and a stream index.

    Python ints, or elementwise over uint64 arrays, whose arithmetic wraps mod 2**64
    where the masks reduce the ints.
    """
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
    """Aggregate statistics of one run; its fields are the printed report.

    ``empirical_detection_prob`` is the mismatch fraction among compared
    rounds, with a 95% normal-approximation confidence interval
    ``[detection_ci_low, detection_ci_high]``.  ``theoretical_detection_prob``
    is ``1 - (3/4)**compared``, the fair-coin attack-mixture reference for at
    least one detection over that many compared pairs, for every configuration
    until ROADMAP item 1 derives it for the protocol, attack and coins run.
    """

    rounds_run: int
    compared: int
    agreement_rate: float
    detected_any: bool
    empirical_detection_prob: float
    detection_ci_low: float
    detection_ci_high: float
    theoretical_detection_prob: float
    eve_key_information: float
    key_bits_per_transmitted_qubit: float

    def __post_init__(self) -> None:
        if self.compared > self.rounds_run:
            raise ValueError("compared rounds cannot exceed rounds run")


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


def _fold(root):
    """``root`` with every subtree whose reachable leaves share ``(detected, informed)`` and
    whose reachable paths share one depth made a :class:`qstate.Jump` to one of its leaves.

    An outcome is reachable when its probability is positive, or it is ``last_live`` and none
    is: every outcome a descent can step to, and maybe more, so the fold can only fold less.  One
    post-order pass, memoized by node id because the round models' roots are shared.
    """
    # id(node) -> (what takes its slot, (detected, informed, depth) if uniform, a leaf)
    memo: dict[int, tuple] = {}

    def visit(node):
        if id(node) in memo:
            return memo[id(node)]
        if node.__class__ is not Distribution:
            result = (node, (node.detected, node.informed, 0), node)
        else:
            live = [k for k, p in enumerate(node) if p > 0.0] or [node.last_live]
            below = {k: visit(node.children[k]) for k in live}
            shapes = {shape for _, shape, _ in below.values()}
            if len(shapes) == 1 and None not in shapes:
                ((detected, informed, depth),) = shapes
                leaf = below[live[0]][2]
                result = (Jump(leaf, depth + 1), (detected, informed, depth + 1), leaf)
            else:
                children = [below[k][0] if k in below else child
                            for k, child in enumerate(node.children[:len(node)])]
                result = (Distribution(node, children), None, None)
        memo[id(node)] = result
        return result

    return visit(root)[0]


@lru_cache(maxsize=16)
def _folded_round_tree(protocol: str, attack: AttackStrategy, procedure_policy: float):
    """:func:`_round_tree` of these curve settings, folded, built once per process."""
    return _fold(_round_tree(CurveConfig(protocol, attack, procedure_policy)))


def _descent_root(config: CurveConfig):
    """The folded tree each round of ``config`` descends."""
    return _folded_round_tree(config.protocol, config.attack, config.procedure_policy)


def _round_sources(master_seeds: Sequence[int], count: int) -> Iterator[RandomSource]:
    """``count`` sources per master seed, in order, the i-th seeded ``splitmix64(master, i)``;
    the seeds are mixed ``SEED_CHUNK`` at a time in uint64 array passes."""
    masters = np.array([seed & _MASK64 for seed in master_seeds], dtype=np.uint64)
    total = len(masters) * count
    for start in range(0, total, SEED_CHUNK):
        at = np.arange(start, min(start + SEED_CHUNK, total), dtype=np.uint64)
        yield from random_sources(splitmix64(masters[at // count], at % count))


def run_simulation(config: SimulationConfig) -> SimulationReport:
    """Run ``config.rounds`` independently seeded rounds and aggregate."""
    root = _descent_root(config)
    test_coin = Distribution((config.test_fraction, 1.0 - config.test_fraction))

    compared = detected = agreed = eve_informed = 0
    for rng in _round_sources([config.master_seed], config.rounds):
        leaf = rng.descend(root)
        if test_coin.pick(rng.uniform()) == 0:
            compared += 1
            detected += leaf.detected
        agreed += not leaf.detected
        eve_informed += leaf.informed

    ci_low, ci_high = _binomial_ci(detected, compared)
    return SimulationReport(
        rounds_run=config.rounds,
        compared=compared,
        agreement_rate=agreed / config.rounds,
        detected_any=detected > 0,
        empirical_detection_prob=(detected / compared) if compared else 0.0,
        detection_ci_low=ci_low,
        detection_ci_high=ci_high,
        theoretical_detection_prob=1.0 - 0.75**compared,
        eve_key_information=eve_informed / config.rounds,
        # Each round transmits two qubits and delivers a two-bit key.
        key_bits_per_transmitted_qubit=1.0,
    )


@dataclass(frozen=True)
class CurvePoint:
    """Detection probability after comparing exactly n key pairs; its fields, in
    order, are the printed curve's columns.

    ``theoretical`` is ``1 - (3/4)**n``, the fair-coin attack-mixture reference,
    for every configuration until ROADMAP item 1 derives it for the settings run.
    """

    n: int
    empirical: float
    theoretical: float
    ci_low: float
    ci_high: float


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
    root = _descent_root(config)
    sources = _round_sources([splitmix64(config.master_seed, n) for n in n_values], repetitions)
    points = []
    for n in n_values:
        hits = 0
        for rng in islice(sources, repetitions):
            for _ in range(n):
                if rng.descend(root).detected:
                    hits += 1
                    break
        empirical = hits / repetitions
        ci = _binomial_ci(hits, repetitions)
        points.append(CurvePoint(n, empirical, 1.0 - 0.75**n, ci[0], ci[1]))
    return points

