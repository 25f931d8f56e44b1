"""Counter-based random numbers with per-sample addressing.

Every sample index maps to a fixed Philox counter block, so the value drawn
for sample ``i`` does not depend on how many samples were drawn before it or
on how a batch was split across workers.
"""
from __future__ import annotations

import numpy as np

# Each sample owns one 4x64-bit Philox block -> up to 4 doubles per sample.
_SLOTS_PER_SAMPLE = 4
_INV_2POW53 = 2.0 ** -53


def uniforms(seed: int, stream: int, start: int, count: int, slots: int = 1) -> np.ndarray:
    """Uniform [0,1) doubles for samples ``start .. start+count-1``.

    Returns an array of shape (count, slots), slots <= 4.  Calling this for
    any sub-range of indices yields the same numbers as one big call.
    """
    if slots < 1 or slots > _SLOTS_PER_SAMPLE:
        raise ValueError(f"slots must be in 1..{_SLOTS_PER_SAMPLE}, got {slots}")
    if count < 0 or start < 0:
        raise ValueError("start and count must be nonnegative")
    if not 0 <= seed < 2**64:
        raise ValueError(f"seed must lie in [0, 2**64), got {seed}")
    if count == 0:
        return np.empty((0, slots))
    # a uint64 array: a plain list would pass keys above 2**63 through float
    key = np.array([seed, stream & (2**64 - 1)], dtype=np.uint64)
    bg = np.random.Philox(key=key, counter=[start, 0, 0, 0])
    raw = bg.random_raw(_SLOTS_PER_SAMPLE * count).reshape(count, _SLOTS_PER_SAMPLE)
    return (raw[:, :slots] >> np.uint64(11)) * _INV_2POW53

