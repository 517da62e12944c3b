"""Keyed randomness: the SplitMix64 mixer, key folding and the keyed uniform."""

import subprocess
import sys

import numpy as np
import pytest

from multirater import rng
from multirater.rng import keyed_uniform, seeded_rng, splitmix64

import oracles

WIDE = (2**64 + 3, 2**65 - 1, 2**63 + 5, -(2**63), -3, -1, 0, 1, 5)


class TestSplitMix64:
    def test_known_answer_from_state_zero(self):
        # first output of the reference SplitMix64 seeded with 0
        assert splitmix64(0) == 0xE220A8397B1DCDAF
        assert oracles.splitmix64(0) == 0xE220A8397B1DCDAF

    def test_output_is_a_uint64(self):
        for state in (0, 1, 2**63, 2**64 - 1):
            assert 0 <= splitmix64(state) < 2**64


class TestKeyedUniform:
    def test_values_lie_in_the_unit_interval_and_spread_evenly(self):
        draws = np.array([keyed_uniform(7, 4, 0, 1, i) for i in range(20_000)])
        assert draws.min() >= 0.0 and draws.max() < 1.0
        counts = np.bincount((draws * 10).astype(int), minlength=10)
        assert np.all(np.abs(counts - 2000) < 150)  # about 4.5 sd of a binomial(20000, 0.1)

    def test_every_key_part_changes_the_draw(self):
        base = keyed_uniform(1, 2, 3, 4, 5)
        for k in range(5):
            key = [1, 2, 3, 4, 5]
            key[k] += 1
            assert keyed_uniform(*key) != base

    def test_negative_and_wide_parts_fold_like_seeded_rng(self):
        pairs = [(-1, 2**64 - 1), (-(2**63), 2**63), (2**64 + 3, 3), (2**63 + 5, 2**63 + 5 - 2**64)]
        for a, b in pairs:
            assert seeded_rng(a, 9).random() == seeded_rng(b, 9).random()
            assert keyed_uniform(a, 9, 0) == keyed_uniform(b, 9, 0)  # folded in the prefix
            assert keyed_uniform(9, 0, a) == keyed_uniform(9, 0, b)  # folded in the last part

    def test_draw_does_not_depend_on_call_order_or_cache_state(self):
        keys = [(s, 4, e, b, i) for s in (0, -3) for e in range(3) for b in (0, 1) for i in range(20)]
        first = {key: keyed_uniform(*key) for key in keys}
        rng._absorb.cache_clear()
        shuffled = np.random.default_rng(0).permutation(len(keys))
        for j in shuffled:
            keyed_uniform(99, 4, int(j), 0, 0)  # unrelated calls in between
            assert keyed_uniform(*keys[j]) == first[keys[j]]


class TestKeyedUniformMatchesTheScalarOracle:
    @pytest.mark.parametrize("part", WIDE)
    def test_negative_and_wide_parts_bit_for_bit(self, part):
        for key in ((part, 4, 0, 1, 7), (1, part, 2, 0, 7), (1, 4, part, part, 7), (1, 4, 0, 1, part)):
            assert keyed_uniform(*key) == oracles.keyed_uniform(*key)


def test_config_resolution_leaves_numpy_random_unimported():
    """``numpy.random`` takes about 11 ms to import; start-up up to a resolved config must not pay it."""
    code = ("import sys, multirater; from multirater.cli import resolve_config; resolve_config(None, {}); "
            "print(sorted(m for m in sys.modules if m.startswith('numpy.random')))")
    result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert result.returncode == 0, result.stderr
    assert result.stdout == "[]\n"
