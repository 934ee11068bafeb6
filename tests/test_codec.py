import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quickray.codec import (
    block_max_metadata,
    decode_postings,
    encode_postings,
    varint_decode,
    varint_encode,
    varint_encode_sizes,
)


def test_varint_roundtrip_edges():
    for vals in ([], [0], [127], [128], [2**32], [2**62], [0, 1, 2**40, 7]):
        arr = np.array(vals, dtype=np.uint64)
        assert np.array_equal(varint_decode(varint_encode(arr), np.uint64), arr)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.integers(min_value=0, max_value=2**62), max_size=200))
def test_varint_roundtrip_property(vals):
    arr = np.array(vals, dtype=np.uint64)
    assert np.array_equal(varint_decode(varint_encode(arr), np.uint64), arr)


def _leb128(v: int) -> bytes:
    out = bytearray()
    while True:
        b, v = v & 0x7F, v >> 7
        out.append(b | (0x80 if v else 0))
        if not v:
            return bytes(out)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.integers(min_value=0, max_value=2**64 - 1), max_size=200))
def test_varint_encode_matches_reference(vals):
    """Byte for byte the textbook LEB128, with the per-value sizes."""
    buf, nbytes = varint_encode_sizes(np.array(vals, dtype=np.uint64))
    want = [_leb128(v) for v in vals]
    assert buf == b"".join(want)
    assert nbytes.tolist() == [len(w) for w in want]


@settings(max_examples=100, deadline=None)
@given(st.sets(st.integers(min_value=0, max_value=10**12), max_size=300))
def test_postings_roundtrip_property(ids):
    arr = np.array(sorted(ids), dtype=np.int64)
    assert np.array_equal(decode_postings(encode_postings(arr)), arr)


def test_postings_reject_unsorted():
    with pytest.raises(ValueError):
        encode_postings(np.array([3, 2, 5], dtype=np.int64))
    with pytest.raises(ValueError):
        encode_postings(np.array([1, 1], dtype=np.int64))


def test_block_max():
    ids = np.arange(0, 300, dtype=np.int64) * 2
    scores = np.linspace(1.0, 0.1, 300)
    last, bmax = block_max_metadata(ids, scores, 128)
    assert len(last) == 3
    assert last[0] == ids[127] and last[1] == ids[255] and last[2] == ids[299]
    assert bmax[0] == scores[:128].max()
    assert bmax[2] == scores[256:].max()
    # empty
    l0, b0 = block_max_metadata(np.empty(0, np.int64), np.empty(0), 128)
    assert len(l0) == 0 and len(b0) == 0


def test_compression_ratio_dense_ids():
    # dense-ish doc_ids must encode near 1 byte/posting (the reason for
    # delta+varint over raw int64)
    ids = np.cumsum(np.random.default_rng(0).integers(1, 4, 100_000)).astype(np.int64)
    enc = encode_postings(ids)
    assert len(enc) < len(ids) * 2
