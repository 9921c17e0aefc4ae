"""The scalar reference stream: one Python object per seed, one method call per draw.

:class:`RandomSource` is numpy's ``Generator(PCG64(seed)).random()`` stream bit for
bit, computed with Python ints; :meth:`RandomSource.descend` walks one round of a
``qstate.CompiledTree``.  Tests hold the package's walkers to it:
``qstate.descend_streams`` draw for draw, and the curve's lanes by their detections.
"""

from __future__ import annotations

from bisect import bisect_right
from typing import Iterator, Sequence

import numpy as np

from swapqkd import harness, qstate
from swapqkd.qstate import _MASK53, _MASK64, _MASK128, _PCG64_MULT, _jump, _seed_words


class RandomSource:
    """Deterministic uniform stream: numpy's ``Generator(PCG64(seed)).random()`` bit
    for bit, the seed reduced to 64 bits, with no numpy generator built.  ``words``
    are the seed's ``qstate._seed_words`` when :func:`random_sources` has them."""

    __slots__ = ("seed", "_state", "_inc")

    def __init__(self, seed: int, words: Sequence[int] | None = None):
        self.seed = int(seed) & _MASK64
        s_high, s_low, i_high, i_low = _seed_words(self.seed) if words is None else words
        # PCG64's set-seq init: an odd increment, then two LCG steps around the seed.
        self._inc = ((i_high << 64 | i_low) << 1 | 1) & _MASK128
        self._state = ((self._inc + (s_high << 64 | s_low)) * _PCG64_MULT + self._inc) & _MASK128

    def uniform(self) -> float:
        """Next uniform float in [0, 1): the top 53 bits of the next XSL-RR output."""
        self._state = state = (self._state * _PCG64_MULT + self._inc) & _MASK128
        x = (state >> 64 ^ state) & _MASK64  # xor the halves; rotate right by the top 6 bits
        return ((x << 64 | x) >> (11 + (state >> 122)) & _MASK53) * 2.0**-53

    def descend(self, tree: qstate.CompiledTree):
        """The leaf a walk down ``tree`` from its root reaches: each drawing row on the way
        draws the next uniform ``u`` and steps to the row of the slot ``u`` picks, and the row
        that ends the walk steps the stream over its levels at once.

        :meth:`uniform` is inlined, so this consumes the stream exactly as one :meth:`uniform`
        per row and per level does, and steps where ``CompiledTree.descend`` steps.
        """
        thresholds, children, leaves, levels = tree.rows
        state, inc = self._state, self._inc
        node = 0
        while leaves[node] is None:
            state = (state * _PCG64_MULT + inc) & _MASK128
            x = (state >> 64 ^ state) & _MASK64
            u = ((x << 64 | x) >> (11 + (state >> 122)) & _MASK53) * 2.0**-53
            node = children[node][bisect_right(thresholds[node], u)]
        if levels[node]:
            mult, add = _jump(levels[node])
            state = (state * mult + inc * add) & _MASK128
        self._state = state
        return leaves[node]


def random_sources(seeds: np.ndarray) -> Iterator[RandomSource]:
    """``RandomSource(seed)`` for each seed of a uint64 array, in order, all seeded in
    one vectorized pass."""
    for seed, *seed_words in zip(seeds.tolist(), *(w.tolist() for w in _seed_words(seeds))):
        yield RandomSource(seed, seed_words)


def round_sources(master_seeds: Sequence[int], count: int) -> Iterator[RandomSource]:
    """A :class:`RandomSource` per seed of ``harness._seed_chunks``, seeded a chunk at a time."""
    for seeds in harness._seed_chunks(master_seeds, count):
        yield from random_sources(seeds)
