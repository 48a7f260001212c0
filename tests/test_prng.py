import pytest

from delottery_sim import Stream, chi_square_uniform, splitmix64, stream_seed

# reference outputs for the all-zero key: the first three values of the
# standard SplitMix64 sequence
REFERENCE = (0xE220A8397B1DCDAF, 0x6E789E6AA1B965F4, 0x06C45D188009454F)


def test_splitmix64_reference_vectors():
    for i, want in enumerate(REFERENCE):
        assert splitmix64(0, i) == want


def test_splitmix64_is_random_access():
    # counter-based: the i-th output does not depend on evaluation order
    forward = [splitmix64(99, i) for i in range(10)]
    backward = [splitmix64(99, i) for i in reversed(range(10))]
    assert forward == list(reversed(backward))


def test_stream_determinism_and_separation():
    a1 = Stream(7, 3, b"guess/alice")
    a2 = Stream(7, 3, b"guess/alice")
    b = Stream(7, 3, b"guess/bob")
    c = Stream(7, 4, b"guess/alice")
    seq = [a1.next_u64() for _ in range(8)]
    assert seq == [a2.next_u64() for _ in range(8)]
    assert seq != [b.next_u64() for _ in range(8)]
    assert seq != [c.next_u64() for _ in range(8)]


def test_stream_seed_accepts_str_and_bytes():
    assert stream_seed(1, 2, "tag") == stream_seed(1, 2, b"tag")


def test_below_bounds_and_uniformity():
    stream = Stream(123, 0, b"below")
    counts = [0] * 7
    for _ in range(7000):
        v = stream.below(7)
        assert 0 <= v < 7
        counts[v] += 1
    statistic, passed, df = chi_square_uniform(counts)
    assert df == 6
    assert passed, f"below() badly non-uniform: chi2={statistic}"


def test_below_edges():
    stream = Stream(1, 0, b"edge")
    assert stream.below(1) == 0
    with pytest.raises(ValueError):
        stream.below(0)
    assert stream.below(1 << 64) == splitmix64(stream.seed, 1)  # one draw, never rejected
    with pytest.raises(ValueError):
        stream.below((1 << 64) + 1)  # no draw could ever be accepted


def test_next_i64_covers_sign_range():
    stream = Stream(5, 0, b"i64")
    values = [stream.next_i64() for _ in range(4000)]
    assert all(-(2**63) <= v < 2**63 for v in values)
    assert any(v < 0 for v in values) and any(v >= 0 for v in values)


def test_chance_is_exact_at_edges_and_frequency_in_middle():
    stream = Stream(11, 0, b"chance")
    assert not any(stream.chance(0, 10) for _ in range(100))
    assert all(stream.chance(10, 10) for _ in range(100))
    hits = sum(stream.chance(3, 10) for _ in range(20000))
    assert abs(hits / 20000 - 0.3) < 0.02  # ~6 sigma
    with pytest.raises(ValueError):
        stream.chance(11, 10)
    with pytest.raises(ValueError):
        stream.chance(1, 0)
