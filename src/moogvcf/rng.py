"""SplitMix64 generator with per-index substreams.

Chosen for reproducible sweeps: every (seed, index) pair deterministically
names an independent stream, so parallel experiments need no coordination.
"""

_MASK = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
_MUL1, _MUL2 = 0xBF58476D1CE4E5B9, 0x94D049BB133111EB


def _mix(z: int) -> int:
    z &= _MASK
    z = ((z ^ (z >> 30)) * _MUL1) & _MASK
    z = ((z ^ (z >> 27)) * _MUL2) & _MASK
    return z ^ (z >> 31)


def _mix_array(z):
    """_mix of each entry of z, a np.uint64 array, as a new array: array
    arithmetic wraps mod 2^64 as _mix's masks do, without a warning (a
    np.uint64 scalar would warn on overflow)."""
    z = z ^ (z >> 30)
    z *= _MUL1
    z ^= z >> 27
    z *= _MUL2
    z ^= z >> 31
    return z


class SplitMix64:
    def __init__(self, seed: int):
        self._state = seed & _MASK

    def next_u64(self) -> int:
        self._state = (self._state + _GOLDEN) & _MASK
        return _mix(self._state)

    def uniform(self, lo: float = 0.0, hi: float = 1.0) -> float:
        """Uniform double in [lo, hi) with 53 random bits."""
        u = self.next_u64() >> 11
        return lo + (hi - lo) * (u * 2.0 ** -53)


def substream(seed: int, index: int) -> SplitMix64:
    """Independent generator for work item `index` under `seed`."""
    return SplitMix64(_mix((seed ^ _mix(index + 1)) & _MASK))
