"""Monte Carlo execution of many rounds and detection statistics.

Seeding is splittable and documented: the seed of round ``i`` of a run is
``splitmix64(master_seed, i)``, where splitmix64 is the standard SplitMix64
finalizer applied to ``master_seed + (i + 1) * 0x9E3779B97F4A7C15`` (mod
2^64).  Curve experiments nest the same scheme: experiment ``r`` of curve
point ``n`` is one stream seeded ``splitmix64(splitmix64(master_seed, n), r)``,
and its round t reads draws ``t*D`` to ``t*D + D - 1`` of it (D below).  Serial and
concurrent execution therefore see identical per-round streams.  Under seed contract v1
each stream is numpy's ``Generator(PCG64(seed)).random()``, computed in-package
(seeded ``SEED_CHUNK`` at a time) and pinned to numpy by a test.

A round is one walk down one ``qstate.CompiledTree``, built once per process per
(protocol, attack, procedure policy) straight from the round models' leaves, one
uniform per level, so the stream is consumed in the tree's level order: the
attack-selection coin (only for strategies that need one), Alice's procedure coin,
the round's measurement rows in protocol order.  A simulated round then draws the
key-comparison coin, compared when that uniform is below the test fraction.  Monte
Carlo reads only a leaf's two facts, ``detected`` and ``informed``, so
``qstate.compile_tree`` folds the tree on them as it builds it: a row whose reachable
leaves share both facts ends every walk through it with one LCG jump over its levels,
and the stream is consumed exactly as before.

A simulated run walks that tree once on each round's stream, one ``qstate.descend_streams``
call per chunk of seeds, which also draws the coin, and counts the rows its walks end at
against each row's two facts.  A detection curve walks the same rows as numpy lanes, one
per experiment of every point, seeded ``SEED_CHUNK`` at a time in seed order
(``qstate.RandomLanes``), each lane carrying its point and its round limit n.  Every walk
of a folded tree draws the same number D of uniforms at every procedure policy, a jump's
levels included (6 for six/mixed; 5 for six/zlg, six/tailored and four/four-swap; 4 for
six/none; 3 for four/none).  One jump-ahead grid per block of ``ROUNDS_PER_BLOCK`` rounds
holds those draws for every running lane, ``CompiledTree.descend`` walks them, a detection
counts within a lane's first n rounds, and a lane leaves at the end of the block that holds
its first detection or its n-th round; a root that ends every walk draws nothing at all.
The streams, the seed contract and every printed byte are those of one scalar walk per
round.

A compared round counts as a detection when Bob's inferred key differs
from Alice's key; no error-rate thresholding is layered on top.  The
reference curve for the eavesdropper mixtures is ``1 - (3/4)**n`` for
``n`` compared key pairs, equivalently ``1 - (3/4)**(N/2)`` for ``N``
compared bits.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Iterator, Sequence

import numpy as np

from . import bell, qstate
from .adversary import AttackStrategy
from .protocol import PROTOCOLS, Procedure, protocol_driver
from .qstate import SEED_CHUNK, CompiledTree, RandomLanes, compile_tree

_MASK64 = 0xFFFFFFFFFFFFFFFF
_GOLDEN = 0x9E3779B97F4A7C15
ROUNDS_PER_BLOCK = 2  # rounds of a curve's lanes drawn and walked as one grid
# A curve point's round limit n is read as at most this, by its lanes and by its reference
# 1 - 0.75**n: every lane of a root that draws detects long before, and 0.75**n is 0.0.
LIMIT_CLAMP = 2**62


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
        if self.rounds >= 2**63:
            raise ValueError("rounds must be < 2**63")
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


def _round_tree(config: CurveConfig, fold=None) -> CompiledTree:
    """One round of ``config`` as a :class:`qstate.CompiledTree`, each row before its children.

    Its levels are the attack coin (two-attack mixtures only), the procedure coin over
    ``(policy, 1 - policy)``, then the chosen round model's measurements: each prefix of its
    leaves' paths is one row, listed when a leaf first takes it, which puts every row before its
    children because the leaves come depth first.  A prefix's row draws outcome k with
    probability ``mass(prefix + k) / mass(prefix)``, both masses summed left to right in leaf
    order, and a whole path's row ends at its leaf.  Every round model is
    resolved here, once.  ``fold`` is passed to :func:`qstate.compile_tree` as its fold key;
    without one the tree keeps every row.
    """
    driver = protocol_driver(bell.convention(), config.protocol)
    probabilities: list = []
    children: list[list[int]] = []
    leaves: list = []

    def row(probs=None, leaf=None) -> int:
        probabilities.append(probs)
        children.append([])
        leaves.append(leaf)
        return len(leaves) - 1

    def branch_rows(model) -> int:
        mass: dict[tuple[int, ...], float] = {}
        at: dict[tuple[int, ...], int] = {}  # each prefix of an outcome-index path -> its row
        for leaf in model.leaves:
            for depth in range(len(leaf.path) + 1):
                prefix = leaf.path[:depth]
                mass[prefix] = mass.get(prefix, 0.0) + leaf.mass
                if prefix not in at:
                    at[prefix] = row(leaf=leaf if depth == len(leaf.path) else None)
        for prefix, i in at.items():
            if leaves[i] is None:
                after = [prefix + (k,) for k in range(4)]
                probabilities[i] = [mass.get(p, 0.0) / mass[prefix] for p in after]
                children[i] = [at.get(p, -1) for p in after]  # no branch, probability 0
        return at[()]

    mixture = config.attack.mixture(bell.convention())
    if len(mixture) == 2:
        row((mixture[0][0], 1.0 - mixture[0][0]))
    policy, coins = config.procedure_policy, []
    for _weight, attack in mixture:
        coins.append(row((policy, 1.0 - policy)))
        children[coins[-1]] = [branch_rows(driver.round_model(p, attack)) for p in Procedure]
    if len(coins) == 2:
        children[0] = coins
    return compile_tree(probabilities, children, leaves, fold)


@lru_cache(maxsize=16)
def _folded_tree(protocol: str, attack: AttackStrategy, procedure_policy: float):
    """:func:`_round_tree` of these curve settings, folded on each leaf's ``(detected,
    informed)``, with each row's ``detected`` and ``informed`` facts as bool arrays (False where
    a walk cannot end), built once per process."""
    facts = operator.attrgetter("detected", "informed")
    tree = _round_tree(CurveConfig(protocol, attack, procedure_policy), facts)
    table = [(False, False) if leaf is None else facts(leaf) for leaf in tree.leaves]
    detected, informed = np.array(table, dtype=bool).T
    return tree, detected, informed


def _seed_chunks(master_seeds: Sequence[int], count: int) -> Iterator[np.ndarray]:
    """``count`` seeds per master seed, in order, the i-th ``splitmix64(master, i)``, as uint64
    arrays of ``SEED_CHUNK`` seeds, each mixed in one array pass."""
    masters = np.array([seed & _MASK64 for seed in master_seeds], dtype=np.uint64)
    total = len(masters) * count
    for start in range(0, total, SEED_CHUNK):
        at = np.arange(start, min(start + SEED_CHUNK, total), dtype=np.uint64)
        yield splitmix64(masters[at // count], at % count)


def run_simulation(config: SimulationConfig) -> SimulationReport:
    """Run ``config.rounds`` independently seeded rounds and aggregate."""
    tree, detected_at, informed_at = _folded_tree(
        config.protocol, config.attack, config.procedure_policy)
    reached = np.zeros(len(tree.leaves), dtype=np.int64)  # rounds that end at each row
    tested = np.zeros(len(tree.leaves), dtype=np.int64)  # compared rounds that end there
    for seeds in _seed_chunks([config.master_seed], config.rounds):
        rows, coins = qstate.descend_streams(tree, seeds)
        rows = np.array(rows, dtype=np.intp)
        reached += np.bincount(rows, minlength=len(reached))
        tested += np.bincount(rows[np.array(coins) < config.test_fraction], minlength=len(tested))
    compared, detected = int(tested.sum()), int(tested[detected_at].sum())
    agreed, eve_informed = int(reached[~detected_at].sum()), int(reached[informed_at].sum())

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

    Every point's experiments run as one lane population, ``SEED_CHUNK`` lanes at a time,
    each seeded and drawing as the module docstring says (:func:`_curve_hits`); no array grows
    with ``n``.
    """
    if repetitions < 100:
        raise ValueError("repetitions must be >= 100")
    if repetitions >= 2**63:
        raise ValueError("repetitions must be < 2**63")
    if any(n < 0 for n in n_values):
        raise ValueError("n values must be >= 0")
    tree, detected, _ = _folded_tree(config.protocol, config.attack, config.procedure_policy)
    points = []
    for n, hits in zip(n_values, _curve_hits(tree, detected, config.master_seed, n_values,
                                             repetitions)):
        ci = _binomial_ci(hits, repetitions)
        reference = 1.0 - 0.75**min(n, LIMIT_CLAMP)
        points.append(CurvePoint(n, hits / repetitions, reference, ci[0], ci[1]))
    return points


def _curve_hits(tree: CompiledTree, detected: np.ndarray, master_seed: int,
                n_values: Sequence[int], repetitions: int) -> list[int]:
    """How many of ``repetitions`` experiments detect at each point n of ``n_values``,
    experiment r of point n seeded ``splitmix64(splitmix64(master_seed, n), r)``.

    Each lane carries its point and its round limit n, clamped to ``LIMIT_CLAMP``.  Every
    block walks ``ROUNDS_PER_BLOCK`` rounds, fewer past the largest live limit, of every running
    lane as one grid.  A detection counts within a lane's first n rounds, and a lane leaves at
    the end of the block holding its first detection or its n-th round.  A point with n = 0
    gets no lane, and a root that draws nothing gives every experiment its one leaf.
    """
    if tree.leaves[0] is not None:
        return [repetitions if n and detected[0] else 0 for n in n_values]
    live = [i for i, n in enumerate(n_values) if n]
    points = np.array(live, dtype=np.intp)
    limits = np.array([min(n_values[i], LIMIT_CLAMP) for i in live], dtype=np.int64)
    hits, first = np.zeros(len(n_values), dtype=np.int64), 0
    for seeds in _seed_chunks([splitmix64(master_seed, n_values[i]) for i in live], repetitions):
        lane = np.arange(first, first + len(seeds)) // repetitions
        point, limit, first = points[lane], limits[lane], first + len(seeds)
        lanes, done = RandomLanes(seeds), 0
        while len(lanes):
            rounds = min(ROUNDS_PER_BLOCK, int(limit.max()) - done)
            grid = lanes.uniforms(rounds * tree.draws).reshape(len(lanes), rounds, tree.draws)
            within = np.arange(done, done + rounds) < limit[:, None]
            caught = (detected[tree.descend(grid)] & within).any(axis=1)
            hits += np.bincount(point[caught], minlength=len(n_values))
            done += rounds
            running = ~caught & (limit > done)
            lanes.keep(running)
            point, limit = point[running], limit[running]
    return hits.tolist()
