import hashlib

import pytest

from delottery_sim import H, MAX_TARGET, digest_int, encode_i64, le8


def test_h_is_sha3_256():
    for data in (b"", b"abc", b"\x00" * 64, bytes(range(200))):
        assert H(data) == hashlib.sha3_256(data).digest()
    assert len(H(b"x")) == 32


def test_le8_layout_and_range():
    assert le8(0) == b"\x00" * 8
    assert le8(1) == b"\x01" + b"\x00" * 7
    assert le8(2**64 - 1) == b"\xff" * 8
    assert int.from_bytes(le8(123456789), "little") == 123456789
    with pytest.raises(Exception):
        le8(-1)
    with pytest.raises(Exception):
        le8(2**64)


def test_i64_round_trip():
    for v in (0, 1, -1, 2**63 - 1, -(2**63), 42, -99999):
        assert int.from_bytes(encode_i64(v), "little", signed=True) == v
        assert len(encode_i64(v)) == 8
    assert encode_i64(-1) == b"\xff" * 8


def test_i64_range_checked():
    with pytest.raises(Exception):
        encode_i64(2**63)
    with pytest.raises(Exception):
        encode_i64(-(2**63) - 1)


def test_digest_int_big_endian():
    assert digest_int(b"\x00" * 31 + b"\x01") == 1
    assert digest_int(b"\x01" + b"\x00" * 31) == 1 << 248
    assert digest_int(b"\xff" * 32) == MAX_TARGET - 1
