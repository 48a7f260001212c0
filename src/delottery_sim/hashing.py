"""Single hash primitive and the byte encodings pinned by the simulator.

One 256-bit hash (SHA3-256) serves every purpose: account addresses,
event authentication tags, block linking, proof-of-work and commitments.
All integer encodings that feed the hash are fixed here so that golden
files stay bit-identical:

- u64 / i64 values are 8-byte little-endian (i64 as two's complement)
- hash outputs compared against difficulty targets are read big-endian
"""

import hashlib

DIGEST_SIZE = 32
MAX_TARGET = 1 << 256  # vacuous difficulty: every digest qualifies

_I64_MIN = -(1 << 63)
_I64_MAX = (1 << 63) - 1


def H(data: bytes) -> bytes:
    """The simulation hash: SHA3-256 of raw bytes."""
    return hashlib.sha3_256(data).digest()


def le8(value: int) -> bytes:
    """Unsigned 64-bit little-endian encoding."""
    return value.to_bytes(8, "little")


def encode_i64(value: int) -> bytes:
    """Signed 64-bit value as 8-byte little-endian two's complement."""
    if not _I64_MIN <= value <= _I64_MAX:
        raise ValueError(f"value {value} outside signed 64-bit range")
    return (value & 0xFFFFFFFFFFFFFFFF).to_bytes(8, "little")


def digest_int(digest: bytes) -> int:
    """Digest interpreted as a big-endian integer (for PoW target checks)."""
    return int.from_bytes(digest, "big")
