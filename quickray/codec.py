"""Delta + varint posting-list codec and block-max metadata (pure numpy).

From-scratch columnar replacement for the reference's in-memory skip list
(internal/reverse_index/skiplist_reverse_index.go:15-55): postings are
kept sorted by doc_id and compressed as LEB128 varints of first-order
deltas. Encode and decode are vectorized, one pass per byte position
over only the values that have that byte, so a stream of mostly 1-2
byte values (doc deltas, tfs) costs about two passes. Streams meet
Arrow through buffers, never one Python object per value:
binary_runs cuts an encoded stream into a binary column (one value per
run or term) over its byte offsets, and binary_values hands a binary
column's value buffer back to the decoder.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

# a binary column's int32 offsets address at most this many bytes
_BINARY_MAX_BYTES = 2**31 - 1


def varint_encode_sizes(values: np.ndarray) -> tuple[bytes, np.ndarray]:
    """LEB128-encode a non-negative int array (vectorized); also return
    the encoded byte count per value so callers can cut the stream into
    per-segment values without re-encoding (binary_runs).

    One pass per byte position, each over only the values that still
    have bytes left: postings are mostly 1-2 byte deltas and tfs, so a
    stream costs about two passes."""
    v = np.ascontiguousarray(values, dtype=np.uint64)
    nbytes = np.ones(len(v), dtype=np.int64)
    idx = np.flatnonzero(v > 0x7F)
    if len(idx) == 0:  # every value fits 7 bits: the stream is the values
        return v.astype(np.uint8).tobytes(), nbytes
    # levels[j]: the values with more than j+1 bytes, shifted by 7*(j+1)
    levels = []
    rest = v[idx] >> np.uint64(7)
    while len(idx):
        levels.append((idx, rest))
        nbytes[idx] += 1
        more = rest > 0x7F
        idx, rest = idx[more], rest[more] >> np.uint64(7)
    ends = np.cumsum(nbytes)
    first = ends - nbytes
    out = np.empty(int(ends[-1]), dtype=np.uint8)
    # every byte is written with its continuation bit set; the last
    # byte of each value clears it
    out[first] = v.astype(np.uint8) | np.uint8(0x80)
    for j, (idx, rest) in enumerate(levels, 1):
        out[first[idx] + j] = rest.astype(np.uint8) | np.uint8(0x80)
    out[ends - 1] &= np.uint8(0x7F)
    return out.tobytes(), nbytes


def binary_runs(
    name: str, buf: bytes, nbytes: np.ndarray, starts: np.ndarray
) -> pa.BinaryArray:
    """One encoded stream as a binary column, one value per segment,
    zero-copy over ``buf``: segment i holds the encoded values
    [starts[i], starts[i+1]) (``starts`` index the *values*, first 0;
    ``nbytes`` is the byte count per value). Raises ValueError naming
    the column ``name`` when the stream overflows int32 binary offsets,
    before ``buf`` is read."""
    byte_off = np.zeros(len(nbytes) + 1, dtype=np.int64)
    np.cumsum(nbytes, out=byte_off[1:])
    offsets = byte_off[np.append(starts, len(nbytes))]
    if offsets[-1] > _BINARY_MAX_BYTES:
        raise ValueError(
            f"'{name}': {int(offsets[-1])} encoded bytes overflow the int32"
            " offsets of a binary column"
        )
    return pa.Array.from_buffers(
        pa.binary(), len(starts),
        [None, pa.py_buffer(offsets.astype(np.int32)), pa.py_buffer(buf)],
    )


def binary_values(arr: pa.Array) -> np.ndarray:
    """The concatenated values of a binary or string array: a zero-copy
    uint8 view of its value buffer, bounded by its offsets (read at the
    width of its type, int32 or the large types' int64, from its slice
    offset)."""
    large = pa.types.is_large_binary(arr.type) or pa.types.is_large_string(arr.type)
    off = np.frombuffer(
        arr.buffers()[1], dtype=np.int64 if large else np.int32,
        count=arr.offset + len(arr) + 1,
    )[arr.offset :]
    lo, hi = int(off[0]), int(off[-1])
    if hi == lo:
        return np.empty(0, dtype=np.uint8)
    return np.frombuffer(arr.buffers()[2], dtype=np.uint8, count=hi - lo, offset=lo)


def segmented_delta_encode(values: np.ndarray, starts: np.ndarray) -> np.ndarray:
    """First-order deltas with a reset (absolute value) at each segment
    start; validates strict increase within every segment."""
    d = np.ascontiguousarray(values, dtype=np.int64)
    if len(d) == 0:
        return d
    deltas = np.empty_like(d)
    deltas[0] = d[0]
    np.subtract(d[1:], d[:-1], out=deltas[1:])
    deltas[starts] = d[starts]
    interior = np.ones(len(d), dtype=bool)
    interior[starts] = False
    if np.any(deltas[interior] <= 0):
        raise ValueError("doc_ids must be strictly increasing within segments")
    return deltas


def segmented_cumsum(deltas: np.ndarray, starts: np.ndarray) -> np.ndarray:
    """Inverse of segmented_delta_encode (vectorized)."""
    d = np.ascontiguousarray(deltas, dtype=np.int64)
    if len(d) == 0:
        return d
    out = np.cumsum(d)
    seg_id = np.zeros(len(d), dtype=np.int64)
    seg_id[starts[1:]] = 1
    np.cumsum(seg_id, out=seg_id)
    corr = np.zeros(len(starts), dtype=np.int64)
    corr[1:] = out[starts[1:] - 1]
    return out - corr[seg_id]


def varint_decode(buf: bytes | memoryview, out_dtype=np.int64) -> np.ndarray:
    """Decode an LEB128 byte stream into an int array (vectorized).

    Per-value combination uses np.add.reduceat — each byte's 7-bit group
    occupies disjoint bit ranges, so summing equals OR-ing, and reduceat
    is ~100x faster than the unbuffered ufunc.at scatter."""
    b = np.frombuffer(buf, dtype=np.uint8)
    if len(b) == 0:
        return np.empty(0, dtype=out_dtype)
    is_last = (b & 0x80) == 0
    if is_last.all():
        # every value fits 7 bits (dense postings: doc deltas are ~1,
        # tfs are small) — the stream IS the payload, one cast out
        return b.astype(out_dtype)
    ends = np.flatnonzero(is_last)
    starts = np.empty_like(ends)
    starts[0] = 0
    starts[1:] = ends[:-1] + 1
    lens = ends - starts + 1
    payload = (b & np.uint8(0x7F)).astype(np.uint64)
    # combine per value by byte position: values are mostly 1-2 bytes,
    # so this runs 1-3 vectorized passes over a shrinking selection
    # (beats both reduceat over millions of tiny segments and ufunc.at)
    out = payload[starts]  # advanced indexing already copies
    maxlen = int(lens.max())
    for j in range(1, maxlen):
        sel = np.flatnonzero(lens > j)
        out[sel] |= payload[starts[sel] + j] << np.uint64(7 * j)
    if np.dtype(out_dtype) == np.int64:
        # encoded values originate from non-negative int64 (< 2^63),
        # so the uint64 -> int64 reinterpret is exact and zero-copy
        return out.view(np.int64)
    return out.astype(out_dtype)


def decode_postings(
    buf: bytes | memoryview | np.ndarray, starts: np.ndarray | None = None
) -> np.ndarray:
    """Doc ids of a delta+varint stream. ``starts`` (value indices, first
    0) marks where concatenated posting lists begin: each restarts its
    running sum there (one segmented cumsum for many postings)."""
    deltas = varint_decode(buf, np.int64)
    if starts is None or len(starts) <= 1:
        return np.cumsum(deltas)
    if starts[-1] >= len(deltas):
        raise ValueError(f"{len(deltas)} values end before list start {starts[-1]}")
    return segmented_cumsum(deltas, starts)


def expand_ranges(starts: np.ndarray, ends: np.ndarray) -> np.ndarray:
    """Concatenate the integer ranges [starts[i], ends[i]) (vectorized)."""
    lens = ends - starts
    total = int(lens.sum())
    if total == 0:
        return np.empty(0, np.int64)
    offs = np.concatenate(([0], np.cumsum(lens[:-1])))
    return np.repeat(starts - offs, lens) + np.arange(total, dtype=np.int64)


def gather_ranges(
    data: np.ndarray, starts: np.ndarray, ends: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Concatenate ``data[starts[i]:ends[i]]`` over i; also return the
    n+1 bounds of each range inside the result. One range is a view."""
    if len(starts) == 1:
        s, e = int(starts[0]), int(ends[0])
        return data[s:e], np.array((0, e - s))
    bounds = np.zeros(len(starts) + 1, dtype=np.int64)
    np.cumsum(ends - starts, out=bounds[1:])
    return data[expand_ranges(starts, ends)], bounds


def varint_counts(buf: np.ndarray, bounds: np.ndarray, n_values: int) -> np.ndarray:
    """Values per byte range ``[bounds[i], bounds[i+1])`` of a varint
    stream of ``n_values`` values (one per terminating byte)."""
    if n_values == len(buf):  # every value is one byte
        return np.diff(bounds)
    ends = np.zeros(len(buf) + 1, dtype=np.int64)
    np.cumsum(buf < 0x80, out=ends[1:])
    return ends[bounds[1:]] - ends[bounds[:-1]]


def block_max_metadata(
    doc_ids: np.ndarray, scores: np.ndarray, block_size: int
) -> tuple[np.ndarray, np.ndarray]:
    """Per-block (last_doc_id, max_score) over a sorted posting list.

    `scores` are the exact BM25 contributions of this term for each
    posting under the serving scorer, 0.0 for a dead doc
    (engine.Scorer.blocks).
    """
    n = len(doc_ids)
    if n == 0:
        return np.empty(0, np.int64), np.empty(0, np.float64)
    n_blocks = (n + block_size - 1) // block_size
    last = doc_ids[np.minimum(np.arange(1, n_blocks + 1) * block_size, n) - 1]
    bmax = np.maximum.reduceat(scores, np.arange(n_blocks) * block_size)
    return last.astype(np.int64), bmax.astype(np.float64)
