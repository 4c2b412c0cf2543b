"""Counter-based pseudo-random bits (splitmix64).

Sampling must be reproducible per (seed, trial) and independent across
trials, so trial streams are derived by mixing the trial index into the seed
rather than by drawing from one shared generator.
"""

from __future__ import annotations

_MASK = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15


def _finalize(z: int) -> int:
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
    return z ^ (z >> 31)


class SplitMix64:
    __slots__ = ("state",)

    def __init__(self, seed: int):
        self.state = seed & _MASK

    def next_uint64(self) -> int:
        self.state = (self.state + _GOLDEN) & _MASK
        return _finalize(self.state)


def mix(seed: int, i: int) -> int:
    """Derive the i-th trial seed from a master seed."""
    return _finalize((seed + (i + 1) * _GOLDEN) & _MASK)
