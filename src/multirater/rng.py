"""Deterministic randomness keyed by composite integer seeds.

Two routes share one key convention, a tuple of integers whose negative or
>= 2**64 parts fold to uint64 by ``& (2**64 - 1)``:

* ``seeded_rng`` builds a numpy ``Generator`` for draws of many values:
  features, split permutations, batch shuffles, weight initialization;
* ``keyed_uniform`` returns one uniform in [0, 1) as a pure function of the
  key, for draws made one at a time in a hot loop. It is a counter-based
  generator in the sense of Salmon et al. (SC'11): the key is absorbed part by
  part through the SplitMix64 output function (Steele, Lea & Flood,
  OOPSLA'14), and no generator state is carried between calls. It serves the
  per-epoch branch-label draws, keyed (seed, STREAM_BRANCH_LABEL, epoch,
  branch, sample_id), and grading, keyed (seed, STREAM_GRADE, rater slot,
  sample_id).
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

_MASK = (1 << 64) - 1
_GOLDEN_GAMMA = 0x9E3779B97F4A7C15
_MIX1, _MIX2 = 0xBF58476D1CE4E5B9, 0x94D049BB133111EB  # SplitMix64's two multipliers

# Stream tags keep operations that share one run seed on independent streams.
STREAM_GENERATE = 0
STREAM_SHUFFLE = 1
STREAM_SPLIT = 2
STREAM_GRADE = 3
STREAM_BRANCH_LABEL = 4
STREAM_INIT = 5


def seeded_rng(*parts: int) -> np.random.Generator:
    """Generator keyed by a tuple of integers; negatives fold to uint64.

    numpy's ``SeedSequence`` ignores trailing zero words, so keys that differ
    only by trailing zeros name one stream: ``(s,)`` is ``(s, STREAM_GENERATE)``.
    Key every use by the seed and its own stream tag.
    """
    return np.random.default_rng([int(p) & _MASK for p in parts])


def splitmix64(state: int) -> int:
    """The SplitMix64 output for ``state`` taken mod 2**64: advance by the golden gamma, then mix."""
    z = (state + _GOLDEN_GAMMA) & _MASK
    z = ((z ^ (z >> 30)) * _MIX1) & _MASK
    z = ((z ^ (z >> 27)) * _MIX2) & _MASK
    return z ^ (z >> 31)


@lru_cache(maxsize=64)
def _absorb(parts: tuple) -> int:
    """Hash state after absorbing ``parts``; cached because a key prefix repeats per batch."""
    h = 0
    for p in parts:
        h = splitmix64(h ^ int(p))
    return h


def keyed_uniform(*parts: int) -> float:
    """Uniform in [0, 1) that depends on the integer key ``parts`` alone.

    The last part is absorbed on every call; the state after the others is
    cached, so put the part that varies fastest last. That last absorb is
    ``splitmix64`` written out inline, which saves one Python call per draw
    in the per-sample loops of label drawing and grading. Each absorbed value
    is reduced mod 2**64, which folds parts exactly as ``seeded_rng`` does.
    The top 53 bits of the final hash give the double.
    """
    z = ((_absorb(parts[:-1]) ^ int(parts[-1])) + _GOLDEN_GAMMA) & _MASK
    z = ((z ^ (z >> 30)) * _MIX1) & _MASK
    z = ((z ^ (z >> 27)) * _MIX2) & _MASK
    return ((z ^ (z >> 31)) >> 11) * 2.0**-53
