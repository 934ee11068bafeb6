"""Delta + varint posting-list codec and block-max metadata (pure numpy).

From-scratch columnar replacement for the reference's in-memory skip list
(internal/reverse_index/skiplist_reverse_index.go:15-55): postings are
kept sorted by doc_id and compressed as LEB128 varints of first-order
deltas. Both encode and decode are fully vectorized — no Python loop per
posting — so a mega-term (df ~ 10^8 per partition) encodes at memory
bandwidth, which is what makes the run merge cheap.
"""

from __future__ import annotations

import numpy as np

_SHIFTS = (np.arange(10, dtype=np.uint64) * np.uint64(7))  # 10*7 >= 64 bits
# thresholds[i] = 2**(7*(i+1)); a value v needs (1 + sum(v >= thresholds)) bytes
_THRESHOLDS = (np.uint64(1) << (_SHIFTS[1:])).astype(np.uint64)


# chunk bound for the encode matrices: the (chunk, 10) shift/mask
# temporaries cost ~100 bytes per value, so an unchunked mega-term run
# (df ~1e8 per partition) would allocate ~10 GB of transients for a
# ~100 MB output. 4M values caps the transient at ~400 MB with no
# measurable throughput loss (the kernels stay memory-bandwidth bound).
_ENCODE_CHUNK = 4_000_000


def varint_encode_sizes(values: np.ndarray) -> tuple[bytes, np.ndarray]:
    """LEB128-encode a non-negative int array (vectorized); also return
    the encoded byte count per value so callers can split the stream
    into per-segment buffers without re-encoding (multi-term batches)."""
    v = np.ascontiguousarray(values, dtype=np.uint64)
    n = len(v)
    if n == 0:
        return b"", np.empty(0, dtype=np.int64)
    # bytes needed per value: 1 + count of thresholds <= v
    nbytes = np.ones(n, dtype=np.int64)
    for t in _THRESHOLDS:
        nbytes += (v >= t).astype(np.int64)  # 9 vectorized compares, exact
    pos = np.arange(10)[None, :]
    parts = []
    for lo in range(0, n, _ENCODE_CHUNK):
        hi = min(lo + _ENCODE_CHUNK, n)
        groups = (
            (v[lo:hi, None] >> _SHIFTS[None, :]).astype(np.uint8)
            & np.uint8(0x7F)
        )
        nb = nbytes[lo:hi, None]
        keep = pos < nb
        groups = np.where(pos < nb - 1, groups | np.uint8(0x80), groups)
        parts.append(groups[keep])
    out = parts[0] if len(parts) == 1 else np.concatenate(parts)
    return out.tobytes(), nbytes


def varint_encode(values: np.ndarray) -> bytes:
    """LEB128-encode a non-negative int array (vectorized)."""
    return varint_encode_sizes(values)[0]


def split_stream(
    buf: bytes, nbytes: np.ndarray, starts: np.ndarray
) -> list[bytes]:
    """Slice one encoded stream into per-segment buffers.

    ``starts`` are segment start indices into the *value* array (first
    must be 0); segment i covers values [starts[i], starts[i+1]).
    """
    byte_off = np.zeros(len(nbytes) + 1, dtype=np.int64)
    np.cumsum(nbytes, out=byte_off[1:])
    bounds = np.append(starts, len(nbytes))
    return [
        buf[byte_off[bounds[i]] : byte_off[bounds[i + 1]]]
        for i in range(len(starts))
    ]


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


def encode_postings(doc_ids: np.ndarray) -> bytes:
    """Delta+varint encode a strictly-increasing int64 doc_id array."""
    d = np.ascontiguousarray(doc_ids, dtype=np.int64)
    if len(d) == 0:
        return b""
    deltas = np.empty_like(d)
    deltas[0] = d[0]
    np.subtract(d[1:], d[:-1], out=deltas[1:])
    if len(d) > 1 and deltas[1:].min() <= 0:
        raise ValueError("doc_ids must be strictly increasing")
    return varint_encode(deltas)


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
    posting (computable at build time: tf, doc_len and global stats are
    all known after the stats phase — SURVEY.md §7.4 phase C).
    """
    n = len(doc_ids)
    if n == 0:
        return np.empty(0, np.int64), np.empty(0, np.float64)
    n_blocks = (n + block_size - 1) // block_size
    last = doc_ids[np.minimum(np.arange(1, n_blocks + 1) * block_size, n) - 1]
    bmax = np.maximum.reduceat(scores, np.arange(n_blocks) * block_size)
    return last.astype(np.int64), bmax.astype(np.float64)
