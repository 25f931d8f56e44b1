"""Counter-based uniforms: seed range, distinct keys, pinned draws."""
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import oracles
from trajsense import rng


def test_small_seed_draws_pinned():
    # seeds below 2**63 keep the draws they always had
    assert rng.uniforms(7, 1, 0, 2, slots=2)[1, 1] == 0.7172490982624806
    assert oracles.uniform_at(12345, 1, 0) == 0.3457138384499022


def test_large_seeds_get_distinct_streams():
    a = rng.uniforms(2**63 + 1, 1, 0, 4)
    b = rng.uniforms(2**63 + 2, 1, 0, 4)
    assert (a != b).any()
    assert rng.uniforms(2**64 - 1, 1, 0, 4).shape == (4, 1)


@pytest.mark.parametrize("seed", [-1, -3, -1000, 2**64])
def test_seed_outside_uint64_rejected(seed):
    with pytest.raises(ValueError, match=r"seed must lie in \[0, 2\*\*64\)"):
        rng.uniforms(seed, 1, 0, 1)


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 2**64 - 1), st.integers(0, 2**40), st.integers(0, 300),
       st.integers(1, 4), st.data())
def test_split_range_gives_the_same_draws(seed, start, count, slots, data):
    """Any split of [start, start+count) draws the same bits as one call."""
    cut = data.draw(st.integers(0, count))
    whole = rng.uniforms(seed, 1, start, count, slots=slots)
    parts = np.concatenate([rng.uniforms(seed, 1, start, cut, slots=slots),
                            rng.uniforms(seed, 1, start + cut, count - cut, slots=slots)])
    assert parts.tobytes() == whole.tobytes()
