"""Small shared helpers."""

from __future__ import annotations

import logging
import os
import zlib

import numpy as np

logger = logging.getLogger(__name__)

# Ray versions on which the sorted-block groupby contract (see
# run_starts) has been verified against Ray Data internals: sort never
# splits equal keys across output blocks (range partitioning on the
# full key) and sort output blocks are never re-split downstream
# (plan_all_to_all_op passes target_max_block_size=None). A Ray upgrade
# changing either would silently turn the blockwise reductions built on
# run_starts (sum_by_key, exact dedup, LSH bucket enumeration,
# sessionize) into per-block partials — warn LOUDLY once so drift is
# visible instead of corrupting results. tests/test_edges.py pins the
# relevant Ray internals so an upgrade fails the suite, not production.
_SORT_CONTRACT_VERIFIED_PREFIXES = ("2.49.",)
_sort_contract_checked = False


def _check_sort_contract() -> None:
    global _sort_contract_checked
    if _sort_contract_checked:
        return
    _sort_contract_checked = True
    if os.environ.get("QUICKRAY_SKIP_SORT_CONTRACT_CHECK"):
        return
    try:
        import ray

        ver = ray.__version__
    except Exception:  # pragma: no cover - ray always present here
        return
    if not ver.startswith(_SORT_CONTRACT_VERIFIED_PREFIXES):
        logger.warning(
            "quickray's sorted-block groupby kernels (run_starts /"
            " sum_by_key / blockwise dedup) rely on a Ray-internal sort"
            " invariant verified only on Ray %s — this is Ray %s."
            " Re-verify that sort never splits equal keys across blocks"
            " and never re-splits sort output (run tests/test_edges.py"
            " multi-block-group regressions), then add the version to"
            " util._SORT_CONTRACT_VERIFIED_PREFIXES. Set"
            " QUICKRAY_SKIP_SORT_CONTRACT_CHECK=1 to silence.",
            _SORT_CONTRACT_VERIFIED_PREFIXES,
            ver,
        )


def digest_slices(arr, algo: str = "sha256", nbytes: int = 32) -> bytes:
    """First ``nbytes`` of ``algo`` digest per element of an Arrow
    string/binary array, concatenated into one bytes buffer — hashing
    memoryview slices of the value buffer directly (zero per-row Python
    string objects; the per-row cost is the hash itself). Nulls hash as
    b'' (callers with different null semantics fill first)."""
    import hashlib

    import pyarrow as pa
    import pyarrow.compute as pc

    if isinstance(arr, pa.ChunkedArray):
        arr = arr.combine_chunks()
    if pa.types.is_string(arr.type) or pa.types.is_binary(arr.type):
        pass
    elif pa.types.is_large_string(arr.type) or pa.types.is_large_binary(
        arr.type
    ):
        arr = arr.cast(
            pa.binary()
            if pa.types.is_large_binary(arr.type)
            else pa.string()
        )
    else:
        arr = arr.cast(pa.string())
    if arr.null_count:
        arr = pc.fill_null(arr, "" if pa.types.is_string(arr.type) else b"")
    if arr.offset:
        arr = pa.concat_arrays([arr])
    n = len(arr)
    bufs = arr.buffers()
    offs = np.frombuffer(bufs[1], np.int32, count=n + 1).astype(np.int64)
    data = (
        memoryview(bufs[2])[: offs[-1]]
        if bufs[2] is not None
        else memoryview(b"")
    )
    h = getattr(hashlib, algo)
    out = bytearray(nbytes * n)
    for i in range(n):
        out[nbytes * i : nbytes * (i + 1)] = h(
            data[offs[i] : offs[i + 1]]
        ).digest()[:nbytes]
    return bytes(out)


def stable_hash_str(s: str) -> int:
    """Process-stable non-negative hash of a string (crc32) — the
    partitioning hash (farmhash analog, build_index.go:51). Any stable
    hash works; Python's builtin hash() is salted per process and must
    never be used as a shuffle key."""
    return zlib.crc32(s.encode())


def _crc32_table() -> np.ndarray:
    """zlib's CRC-32 (reflected polynomial 0xEDB88320) per byte value."""
    t = np.arange(256, dtype=np.uint32)
    for _ in range(8):
        t = np.where(t & 1, (t >> 1) ^ np.uint32(0xEDB88320), t >> 1)
    return t


_CRC32_TABLE = _crc32_table()
# strings still running when the vectorized pass stops; each finishes
# with one zlib call (a long-token tail would cost a numpy step per byte)
_CRC32_TAIL = 32


def crc32_strings(arr) -> np.ndarray:
    """``stable_hash_str`` of every value of an Arrow string array (no
    nulls), as uint32, from its value buffer and offsets: CRC-32 steps
    one byte position at a time across all strings. Sorted by
    descending length, the strings still running at position j are a
    prefix; once at most ``_CRC32_TAIL`` are, zlib finishes each."""
    import pyarrow as pa

    if isinstance(arr, pa.ChunkedArray):
        arr = arr.combine_chunks()
    n = len(arr)
    _, offs, data = arr.buffers()
    wide = pa.types.is_large_string(arr.type) or pa.types.is_large_binary(arr.type)
    offs = np.frombuffer(offs, np.int64 if wide else np.int32)
    offs = offs[arr.offset : arr.offset + n + 1].astype(np.int64)
    data = np.frombuffer(data, np.uint8) if data else np.empty(0, np.uint8)
    lens = np.diff(offs)
    order = np.argsort(-lens, kind="stable")
    starts, lens = offs[:-1][order], lens[order]
    # running[j]: how many strings are longer than j
    running = np.searchsorted(-lens, -np.arange(lens.max(initial=0)))
    stop = int(np.count_nonzero(running > _CRC32_TAIL))
    crc = np.full(n, 0xFFFFFFFF, dtype=np.uint32)
    for j, m in enumerate(running[:stop].tolist()):
        c = crc[:m]
        crc[:m] = _CRC32_TABLE[(c ^ data[starts[:m] + j]) & 0xFF] ^ (c >> 8)
    crc ^= np.uint32(0xFFFFFFFF)
    for i in range(np.count_nonzero(lens > stop)):
        tail = data[starts[i] + stop : starts[i] + lens[i]]
        crc[i] = zlib.crc32(tail, int(crc[i]))
    out = np.empty(n, np.uint32)
    out[order] = crc
    return out


def fetch(ref):
    """The value of a build broadcast: ``ray.get`` of the ObjectRef the
    Ray executor ``ray.put``; the local executor hands the value itself
    (build.py), and so do direct callers of a kernel."""
    import ray

    return ray.get(ref) if isinstance(ref, ray.ObjectRef) else ref


def run_starts(*key_cols: np.ndarray) -> np.ndarray:
    """Start indices of equal-key runs in KEY-SORTED columns (composite
    keys: pass each column; a run breaks where ANY column changes).
    Returns [0, ...breaks...] for n > 0 rows — append n for run ends.

    This is the kernel of the sorted-block groupby pattern: a Ray
    `ds.sort(key)` co-locates equal SORT keys in one block (the
    invariant Ray's own map_groups relies on,
    ray/data/grouped_data.py:225-243; sort outputs are never re-split,
    plan_all_to_all_op.py passes target_max_block_size=None), so a
    `map_batches(fn, batch_size=None)` sees whole groups and reduces
    them vectorized with no per-group Python UDF call. CONTRACT: the
    sort key must be EXACTLY the group key — sorting by a composite
    (group_key, order_col) places range boundaries inside a group and
    splits it across blocks; order within runs with an in-block
    lexsort instead.

    Accepts numpy arrays or Arrow (Chunked)Arrays; Arrow columns (e.g.
    strings) compare via pc.equal on slices so they never materialize
    per-row Python objects. n == 0 returns [0] for every column kind
    (callers typically guard empty blocks, but the sentinel is
    consistent either way)."""
    import pyarrow as pa
    import pyarrow.compute as pc

    _check_sort_contract()
    n = len(key_cols[0])
    if n == 0:
        return np.array([0], dtype=np.int64)
    brk = np.zeros(max(0, n - 1), dtype=bool)
    for c in key_cols:
        if isinstance(c, (pa.Array, pa.ChunkedArray)):
            cc = c.combine_chunks() if isinstance(c, pa.ChunkedArray) else c
            brk |= np.asarray(
                pc.invert(pc.equal(cc.slice(0, n - 1), cc.slice(1, n)))
            )
        else:
            a = np.asarray(c)
            brk |= a[1:] != a[:-1]
    return np.concatenate(([0], np.flatnonzero(brk) + 1))


def sum_by_key(ds, key: str, sums=(), count_as: str | None = None):
    """INTEGER sum-by-key / count-by-key as a key sort + blockwise
    cumsum-difference reduction (see run_starts for the co-location
    contract). Replaces `groupby(key).aggregate(Sum/Count)` where the
    group count is corpus-scale (vocabulary terms, users): Ray's
    sort-shuffle aggregate loops groups in Python, measured 9 s vs 1 s
    on 640k tiny groups. Integer-only on purpose — a float
    cumsum-difference changes summation semantics (prefix
    cancellation); float aggregates stay on the native path.

    ``sums``: iterable of (value_col, out_name); ``count_as``: emit a
    row count per key under this name. Output columns: key, *outs."""
    import pyarrow as pa

    sums = tuple(sums)

    def block(t: pa.Table) -> pa.Table:
        n = t.num_rows
        if n == 0:
            cols = {key: t[key]}
            for _, out in sums:
                cols[out] = pa.array([], pa.int64())
            if count_as:
                cols[count_as] = pa.array([], pa.int64())
            return pa.table(cols)
        kc = t[key]
        if isinstance(kc, pa.ChunkedArray):
            kc = kc.combine_chunks()
        if kc.null_count:
            raise ValueError(f"sum_by_key: null values in key {key!r}")
        starts = run_starts(kc)
        ends = np.append(starts[1:], n)
        cols = {key: kc.take(pa.array(starts))}
        for val, out in sums:
            vc = t[val]
            vt = vc.type
            # enforce the documented integer/no-null contract LOUDLY:
            # np.asarray(int64) would map a null to INT64_MIN and
            # truncate floats toward zero, silently corrupting sums
            if not (pa.types.is_integer(vt) or pa.types.is_boolean(vt)):
                raise ValueError(
                    f"sum_by_key: {val!r} is {vt}; integer columns only"
                    " (float sums change summation semantics — use the"
                    " native aggregate)"
                )
            if vc.null_count:
                raise ValueError(f"sum_by_key: null values in {val!r}")
            v = np.asarray(vc, dtype=np.int64)
            c = np.concatenate(([0], np.cumsum(v)))
            cols[out] = pa.array(c[ends] - c[starts])
        if count_as:
            cols[count_as] = pa.array((ends - starts).astype(np.int64))
        return pa.table(cols)

    return ds.sort(key).map_batches(
        block, batch_format="pyarrow", batch_size=None
    )


def round_sql(x, d: int):
    """Round half away from zero — DuckDB's round(), NOT numpy's
    banker's rounding. Float columns compared against oracle SQL must go
    through this so the value-hash can't diverge on .5 boundaries."""
    x = np.asarray(x, dtype=np.float64)
    p = 10.0**d
    return np.sign(x) * np.floor(np.abs(x) * p + 0.5) / p


def topk_rounded(
    ids: np.ndarray, scores: np.ndarray, k: int, d: int = 4
) -> tuple[np.ndarray, np.ndarray]:
    """Deterministic float top-k for oracle-compared outputs: order by
    (rounded score desc, id asc). Rounding first makes near-ties exactly
    equal, so the id tie-break decides identically here and in SQL."""
    r = round_sql(scores, d)
    order = np.lexsort((ids, -r))[:k]
    return ids[order], r[order]
