"""Counter-based pseudorandom streams for strategy sampling.

The generator is SplitMix64 (Steele, Lea & Vigna; the reference C is the
`splitmix64.c` accompanying the xoroshiro generators). Output i of a stream
with 64-bit key `seed` is

    z = seed + (i + 1) * 0x9E3779B97F4A7C15        (mod 2^64)
    z ^= z >> 30;  z *= 0xBF58476D1CE4E5B9         (mod 2^64)
    z ^= z >> 27;  z *= 0x94D049BB133111EB         (mod 2^64)
    z ^= z >> 31

which makes the stream a pure function of (seed, counter): no hidden
state beyond the counter, so any draw is reproducible in any language.

Stream keys are derived from (base_seed, round_index, purpose tag) through
the simulation hash:

    seed = LE64( first 8 bytes of SHA3-256(b"delottery/stream/v1" ||
                 le8(base_seed) || le8(round_index) || tag_utf8) )

See docs/prng.md for the same description plus test vectors.
"""

from .hashing import H, le8

_MASK = 0xFFFFFFFFFFFFFFFF
_GAMMA = 0x9E3779B97F4A7C15

_DOMAIN = b"delottery/stream/v1"


def splitmix64(seed: int, counter: int) -> int:
    """The i-th output of the SplitMix64 stream keyed by `seed`."""
    z = (seed + (counter + 1) * _GAMMA) & _MASK
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
    return z ^ (z >> 31)


def stream_seed(base_seed: int, round_index: int, tag) -> int:
    if isinstance(tag, str):
        tag = tag.encode()
    raw = H(_DOMAIN + le8(base_seed & _MASK) + le8(round_index & _MASK) + tag)
    return int.from_bytes(raw[:8], "little")


class Stream:
    """One named random stream: a SplitMix64 counter under a derived key."""

    __slots__ = ("seed", "counter")

    def __init__(self, base_seed: int, round_index: int, tag):
        self.seed = stream_seed(base_seed, round_index, tag)
        self.counter = 0

    def next_u64(self) -> int:
        out = splitmix64(self.seed, self.counter)
        self.counter += 1
        return out

    def next_i64(self) -> int:
        """Uniform signed 64-bit value (two's complement view of next_u64)."""
        u = self.next_u64()
        return u - (1 << 64) if u >= (1 << 63) else u

    def below(self, n: int) -> int:
        """Uniform integer in [0, n), n <= 2^64, by rejection sampling (no modulo bias)."""
        if not 1 <= n <= 1 << 64:
            raise ValueError("below() needs 1 <= n <= 2^64")
        limit = (1 << 64) - ((1 << 64) % n)
        while True:
            u = self.next_u64()
            if u < limit:
                return u % n

    def chance(self, threshold_num: int, threshold_den: int) -> bool:
        """True with probability exactly num/den (rejection-sampled uniform)."""
        if threshold_den <= 0 or not 0 <= threshold_num <= threshold_den:
            raise ValueError("probability outside [0, 1]")
        return self.below(threshold_den) < threshold_num
