import numpy as np
import pyarrow as pa
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quickray.codec import (
    binary_values,
    block_max_metadata,
    decode_postings,
    segmented_delta_encode,
    varint_decode,
    varint_encode_sizes,
)


def _encode_postings(lists: list[np.ndarray]) -> tuple[bytes, np.ndarray]:
    """The build's posting encoding of sorted doc-id lists: one
    delta + varint stream, each list restarting at its start (the
    returned value indices)."""
    lens = [len(d) for d in lists]
    starts = np.cumsum([0] + lens[:-1]).astype(np.int64)
    ids = np.concatenate(lists) if lists else np.empty(0, np.int64)
    return varint_encode_sizes(segmented_delta_encode(ids, starts))[0], starts


def test_varint_roundtrip_edges():
    for vals in ([], [0], [127], [128], [2**32], [2**62], [0, 1, 2**40, 7]):
        arr = np.array(vals, dtype=np.uint64)
        assert np.array_equal(varint_decode(varint_encode_sizes(arr)[0], np.uint64), arr)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.integers(min_value=0, max_value=2**62), max_size=200))
def test_varint_roundtrip_property(vals):
    arr = np.array(vals, dtype=np.uint64)
    assert np.array_equal(varint_decode(varint_encode_sizes(arr)[0], np.uint64), arr)


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
@given(st.lists(
    st.sets(st.integers(min_value=0, max_value=10**12), min_size=1, max_size=100),
    max_size=4,
))
def test_postings_roundtrip_property(id_sets):
    """One list and several concatenated lists decode back, each
    restarting its running sum at its start."""
    lists = [np.array(sorted(s), dtype=np.int64) for s in id_sets]
    want = np.concatenate(lists) if lists else np.empty(0, np.int64)
    buf, starts = _encode_postings(lists)
    assert np.array_equal(decode_postings(buf, starts), want)
    for d in lists:
        assert np.array_equal(decode_postings(_encode_postings([d])[0]), d)


def test_postings_reject_unsorted():
    first = np.zeros(1, dtype=np.int64)
    with pytest.raises(ValueError):
        segmented_delta_encode(np.array([3, 2, 5], dtype=np.int64), first)
    with pytest.raises(ValueError):
        segmented_delta_encode(np.array([1, 1], dtype=np.int64), first)
    # a list start may step down: only the interior must increase
    got = segmented_delta_encode(np.array([4, 9, 2, 3], dtype=np.int64),
                                 np.array([0, 2], dtype=np.int64))
    assert got.tolist() == [4, 5, 2, 1]


def test_block_max():
    ids = np.arange(0, 300, dtype=np.int64) * 2
    scores = np.linspace(1.0, 0.1, 300)
    last, bmax = block_max_metadata(ids, scores, 128)
    assert len(last) == 3
    assert last[0] == ids[127] and last[1] == ids[255] and last[2] == ids[299]
    assert bmax[0] == scores[:128].max()
    assert bmax[2] == scores[256:].max()
    # dead docs' contributions zeroed, as a live-masked Scorer passes
    # them: the maxima skip them, and an all-dead block's maximum is 0
    dead = np.zeros(300, dtype=bool)
    dead[np.argmax(scores[128:256]) + 128] = True
    dead[256:] = True
    last_z, bmax_z = block_max_metadata(ids, np.where(dead, 0.0, scores), 128)
    assert last_z.tolist() == last.tolist()
    assert bmax_z[0] == bmax[0]
    assert bmax_z[1] == scores[128:256][~dead[128:256]].max() < bmax[1]
    assert bmax_z[2] == 0.0
    # empty
    l0, b0 = block_max_metadata(np.empty(0, np.int64), np.empty(0), 128)
    assert len(l0) == 0 and len(b0) == 0


def test_binary_values_reads_offsets_at_type_width():
    """The value buffer of binary and large_binary arrays, whole and
    sliced (a slice's offsets start past 0)."""
    vals = [b"ab", b"", b"cde", b"\x80\x01", b"f"]
    for typ in (pa.binary(), pa.large_binary()):
        arr = pa.array(vals, typ)
        assert binary_values(arr).tobytes() == b"".join(vals)
        assert binary_values(arr.slice(2, 2)).tobytes() == b"cde\x80\x01"
        assert binary_values(arr.slice(1, 1)).tobytes() == b""


def test_compression_ratio_dense_ids():
    # dense-ish doc_ids must encode near 1 byte/posting (the reason for
    # delta+varint over raw int64)
    ids = np.cumsum(np.random.default_rng(0).integers(1, 4, 100_000)).astype(np.int64)
    enc, _ = _encode_postings([ids])
    assert len(enc) < len(ids) * 2
