"""Deduplication operators over a documents table (doc_id, text).

- exact: content-hash partition -> per-group min doc_id (the reference's
  only dedup is exact by business id, searcher.go:38-79; content-hash
  dedup is its corpus-scale analog).
- MinHash + LSH: shingle -> minhash signature -> banded bucket groupby
  -> candidate pairs -> exact-Jaccard verify. The groupby on
  (band, band_key) is the scale path: only colliding docs ever meet,
  and verification is a distributed hash join of the candidate pairs
  back to per-doc shingle sets — nothing corpus-sized ever lands on
  the driver.
- SimHash: 64-bit signed projection of token counts (vectorized).
- n-gram Jaccard: exact all-pairs on a bounded subset (oracle-checkable).

All per-batch kernels are vectorized: md5 runs once per UNIQUE token
(dictionary encode), shingles/signatures/band keys are numpy array ops.
"""

from __future__ import annotations


import logging

import numpy as np
import pyarrow as pa

import ray.data as rd

from quickray.tokenize import flatten_tokens

_MERSENNE = (1 << 61) - 1

# worker-side diagnostics (oversize-bucket splits happen inside Ray
# tasks at exactly the corpus scale where per-bucket print() would
# flood the driver log with thousands of identical lines); recall-loss
# fallbacks warn, routine splits are debug-only
logger = logging.getLogger(__name__)
# LSH band-bucket size cap: a degenerate bucket (boilerplate / empty /
# identical docs sharing a band key) would otherwise enumerate O(m^2)
# pairs. Above the cap the bucket is SUB-GROUPED by full-signature
# digest (identical-signature docs = near-certain dups get star pairs
# to their sub-group min; distinct signatures pair rep-to-rep) — see
# _pairs_from_ids. Sized so the oracle-checked fixtures (<= a few
# thousand docs) never hit it.
_BUCKET_CAP = 512
# polynomial-combine multipliers (odd => bijective mod 2^64)
_SH_MULT = np.uint64(0x100000001B3)  # FNV-1a prime
_BAND_MULT = np.uint64(0x9E3779B97F4A7C15)


def _token_hash_u64(flat: pa.Array) -> np.ndarray:
    """64-bit md5 hash per token occurrence: md5 computed once per
    UNIQUE token in the batch (dictionary encode — source text repeats
    tokens heavily), then gathered by code. Matches DuckDB's
    md5_number_upper(): little-endian int of md5 bytes [0:8]."""
    if len(flat) == 0:
        return np.empty(0, np.uint64)
    from quickray.util import digest_slices

    dic = flat.dictionary_encode()
    # md5 once per UNIQUE token, over memoryview slices of the Arrow
    # dictionary value buffer — no per-token Python str (digest [0:8]
    # little-endian == DuckDB md5_number_upper)
    th = np.frombuffer(digest_slices(dic.dictionary, "md5", 8), "<u8")
    return th[np.asarray(dic.indices, dtype=np.int64)]


def _batch_shingles(
    batch: pa.Table, k: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Vectorized k-token shingle hashes for every doc in a batch.

    Shingle identity is the k-token tuple (equivalently the
    '\\x01'-joined string — tokens are [a-z0-9_]+ so the join is
    injective); its 64-bit id is a polynomial combine of per-token md5
    hashes (wrap-around mod 2^64, then >>3 into 61 bits). A doc with
    0 < n < k tokens contributes ONE shingle over all its tokens
    (matching the joined-string semantics); an empty doc none.

    Returns (doc_row_per_shingle, shingle_hash int64, n_tokens per doc)
    with shingles grouped by doc in batch row order.
    """
    flat, parents = flatten_tokens(batch["text"])
    par = np.asarray(parents, dtype=np.int64)
    th = _token_hash_u64(flat)
    n = batch.num_rows
    ntok = np.bincount(par, minlength=n) if len(par) else np.zeros(n, np.int64)
    m = len(th)
    doc_parts: list[np.ndarray] = []
    sh_parts: list[np.ndarray] = []
    if m >= k:
        acc = th[: m - k + 1].copy()
        for j in range(1, k):
            acc = acc * _SH_MULT + th[j : m - k + 1 + j]
        valid = par[: m - k + 1] == par[k - 1 :]
        doc_parts.append(par[: m - k + 1][valid])
        sh_parts.append(acc[valid])
    # short docs (0 < ntok < k): one whole-doc shingle each. Rare by
    # construction (k is small); the loop is bounded by their count.
    short = np.flatnonzero((ntok > 0) & (ntok < k))
    if len(short):
        starts = np.concatenate(([0], np.cumsum(ntok)))[:-1]
        for d in short:
            h = th[starts[d] : starts[d] + ntok[d]]
            acc1 = h[0]
            for v in h[1:]:
                acc1 = acc1 * _SH_MULT + v
            doc_parts.append(np.array([d], np.int64))
            sh_parts.append(np.array([acc1], np.uint64))
    if not doc_parts:
        return np.empty(0, np.int64), np.empty(0, np.int64), ntok
    doc = np.concatenate(doc_parts)
    sh = np.concatenate(sh_parts)
    order = np.argsort(doc, kind="stable")  # regroup short docs in place
    return doc[order], (sh[order] >> np.uint64(3)).astype(np.int64), ntok


def exact_duplicates(ds: "rd.Dataset") -> "rd.Dataset":
    """Hash-partitioned exact dedup: (keep_doc_id = min, group_size).
    Equivalent SQL: SELECT min(doc_id), count(*) FROM t GROUP BY text.

    Groups are co-located by sorting on h ALONE and reduced
    blockwise-vectorized (boundary scan per block; group min via
    minimum.reduceat over the runs) — the group count is CORPUS-sized
    (every distinct doc is its own group), so a per-group Python UDF
    (`map_groups`) would pay ~10^12 interpreter calls at target scale.
    Equal SORT keys never split across blocks — the invariant Ray's
    map_groups itself relies on (ray/data/grouped_data.py:225-243);
    the sort key must be EXACTLY the group key (a composite
    (h, doc_id) sort would place range boundaries inside an h-run)."""

    def hash_batch(batch: pa.Table) -> pa.Table:
        # zero-object hashing: sha256 over memoryview slices of the
        # Arrow value buffer (util.digest_slices) — no per-row Python
        # str is ever built; the shuffle key is the raw 32-byte digest
        # assembled into ONE binary array from the concatenated buffer
        from quickray.util import digest_slices

        if batch["text"].null_count:
            # digest_slices would fill_null to '' and silently merge
            # every null-text doc with the ''-text group — an ingest
            # bug must fail loudly, not dedup data away (r05 review)
            raise ValueError(
                "exact_duplicates: null values in 'text' — fill or drop"
                " them explicitly before deduplication"
            )
        n = batch.num_rows
        dig = digest_slices(batch["text"], "sha256", 32)
        offs = np.arange(0, 32 * (n + 1), 32, dtype=np.int32)
        h = pa.Array.from_buffers(
            pa.binary(), n, [None, pa.py_buffer(offs.tobytes()), pa.py_buffer(dig)]
        )
        return pa.table({"doc_id": batch["doc_id"], "h": h})

    def agg_block(t: pa.Table) -> pa.Table:
        n = t.num_rows
        if n == 0:
            return pa.table(
                {"keep_doc_id": pa.array([], pa.int64()),
                 "group_size": pa.array([], pa.int64())}
            )
        from quickray.util import run_starts

        starts = run_starts(t["h"])
        ids = np.asarray(t["doc_id"], dtype=np.int64)
        return pa.table(
            {
                "keep_doc_id": pa.array(np.minimum.reduceat(ids, starts)),
                "group_size": pa.array(np.diff(np.append(starts, n))),
            }
        )

    return (
        ds.map_batches(hash_batch, batch_format="pyarrow")
        .sort("h")
        .map_batches(agg_block, batch_format="pyarrow", batch_size=None)
    )


class MinHasher:
    """map_batches stage: doc batch -> (doc_id, band, band_key) rows.

    Permutation coefficients are generated once per worker from a fixed
    seed (identical across workers — required for bucketing to work).
    The whole batch is signed in one shot: shingle hashes for every doc
    (one polynomial pass), then per-permutation minima via ONE
    minimum.reduceat over the doc-grouped shingle array per permutation
    chunk — no per-doc or per-band Python loop."""

    # permutations processed in chunks of this many rows to bound the
    # (chunk x n_shingles) intermediate at ~8 MB per 64k shingles
    _PERM_CHUNK = 16

    def __init__(self, num_perm: int = 64, bands: int = 16, shingle_k: int = 3, seed: int = 13):
        assert num_perm % bands == 0
        rng = np.random.default_rng(seed)
        self.a = rng.integers(1, _MERSENNE, size=num_perm, dtype=np.int64)
        self.b = rng.integers(0, _MERSENNE, size=num_perm, dtype=np.int64)
        self.num_perm = num_perm
        self.bands = bands
        self.rows_per_band = num_perm // bands
        self.k = shingle_k

    def _signatures(
        self, doc: np.ndarray, sh: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """(docs_with_shingles, signature matrix (n_present, num_perm))."""
        starts = np.concatenate(([0], np.flatnonzero(np.diff(doc)) + 1))
        present = doc[starts]
        sig = np.empty((len(present), self.num_perm), dtype=np.int64)
        buf = np.empty((self._PERM_CHUNK, len(sh)), dtype=np.int64)
        for lo in range(0, self.num_perm, self._PERM_CHUNK):
            hi = min(lo + self._PERM_CHUNK, self.num_perm)
            # same arithmetic per permutation as the scalar form:
            # (a*h + b) mod Mersenne61 with int64 wrap-around multiply.
            # One reused buffer + in-place ops: the expression form
            # allocated three (chunk x shingles) temporaries per chunk
            # (~60 MB churn per 155k-shingle batch), measurably slower
            # than the arithmetic itself.
            v = buf[: hi - lo]
            np.multiply(self.a[lo:hi, None], sh[None, :], out=v)
            v += self.b[lo:hi, None]
            v %= _MERSENNE
            sig[:, lo:hi] = np.minimum.reduceat(v, starts, axis=1).T
        return present, sig

    def _band_keys(self, sig: np.ndarray) -> np.ndarray:
        """(n_present, bands) int64 bucket keys: polynomial combine of
        each band's signature rows (vectorized; replaces per-band md5)."""
        u = sig.view(np.uint64).reshape(len(sig), self.bands, self.rows_per_band)
        acc = u[:, :, 0].copy()
        for j in range(1, self.rows_per_band):
            acc = acc * _BAND_MULT + u[:, :, j]
        return (acc >> np.uint64(1)).astype(np.int64)

    def _sig_digest(self, sig: np.ndarray) -> np.ndarray:
        """One int64 digest of the FULL signature per doc — two docs
        with equal digests are (whp) signature-identical, i.e.
        near-certain duplicates. Used to sub-group oversize LSH buckets
        (see _pairs_from_ids)."""
        u = sig.view(np.uint64)
        acc = u[:, 0].copy()
        for j in range(1, self.num_perm):
            acc = acc * _BAND_MULT + u[:, j]
        return (acc >> np.uint64(1)).astype(np.int64)

    def __call__(self, batch: pa.Table) -> pa.Table:
        doc, sh, _ = _batch_shingles(batch, self.k)
        if len(doc) == 0:
            return pa.table(
                {
                    "doc_id": pa.array([], pa.int64()),
                    "band": pa.array([], pa.int64()),
                    "band_key": pa.array([], pa.int64()),
                    "sig_digest": pa.array([], pa.int64()),
                }
            )
        present, sig = self._signatures(doc, sh)
        keys = self._band_keys(sig)
        digest = self._sig_digest(sig)
        ids = np.asarray(batch["doc_id"], dtype=np.int64)[present]
        bands = np.tile(np.arange(self.bands, dtype=np.int64), len(present))
        return pa.table(
            {
                "doc_id": pa.array(np.repeat(ids, self.bands)),
                "band": pa.array(bands),
                "band_key": pa.array(keys.reshape(-1)),
                "sig_digest": pa.array(np.repeat(digest, self.bands)),
            }
        )


def _default_partitions(count: int | None = None) -> int:
    """Shuffle/join partition count: cluster-derived ceiling (a
    hardcoded small constant starves a 32-core node, let alone a
    multi-node cluster), scaled DOWN with the actual row count when the
    caller knows it. Every join input in this module is bounded
    (candidate pairs, edges, labels — never the corpus), so a tiny edge
    set must not pay a 32-way shuffle per label-propagation round
    (measured 2.5x on the clustering bench stage); at real scale
    count/512 quickly reaches the cluster ceiling."""
    import ray

    cap = max(8, int(ray.cluster_resources().get("CPU", 8)))
    if count is None:
        return cap
    return max(2, min(cap, count // 512))


def _bounded_ids(ds: "rd.Dataset", cols: tuple[str, ...]) -> np.ndarray:
    """Distinct sorted int64 ids from the given columns of a BOUNDED
    materialized dataset (candidate pairs / loser lists — never corpus-
    sized). Driver holds one int64 array, suitable for ray.put."""
    import ray

    parts = [
        np.concatenate([np.asarray(t[c], dtype=np.int64) for c in cols])
        for t in ray.get(ds.to_arrow_refs())
        if t.num_rows
    ]
    if not parts:
        return np.empty(0, np.int64)
    return np.unique(np.concatenate(parts))


def _make_id_filter(id_ref, invert: bool = False):
    """map_batches fn keeping (or, inverted, dropping) rows whose doc_id
    is in the broadcast sorted id array — the scale-safe replacement for
    hash-joining a corpus against a bounded id list: ray.put once,
    zero-copy plasma read per task, pure C searchsorted per batch."""
    import ray

    def fn(batch: pa.Table) -> pa.Table:
        ids = np.asarray(batch["doc_id"], dtype=np.int64)
        ref_ids = ray.get(id_ref)  # plasma-local, zero-copy
        if len(ref_ids) == 0:
            hit = np.zeros(len(ids), dtype=bool)
        else:
            pos = np.searchsorted(ref_ids, ids)
            pos_c = np.minimum(pos, len(ref_ids) - 1)
            hit = (pos < len(ref_ids)) & (ref_ids[pos_c] == ids)
        return batch.filter(pa.array(~hit if invert else hit))

    return fn


def _pairs_from_ids(
    ids: np.ndarray,
    digests: np.ndarray | None = None,
    cap: int = _BUCKET_CAP,
) -> tuple[np.ndarray, np.ndarray]:
    """Candidate pairs within one LSH bucket.

    Up to ``cap`` ids: full triangular enumeration (the oracle-checked
    configs never exceed it). Above: sub-group by the full-signature
    digest — docs with equal digests are signature-identical
    near-certain dups, the common degenerate-bucket content
    (boilerplate) — and emit (a) star pairs to each sub-group's min id
    (verify passes within an identical-signature group, so every member
    joins its cluster) plus (b) full triangular pairs AMONG the
    sub-group representatives (cross-template near-dups in a mixed
    bucket verify rep-to-rep; a star to the global min would send them
    through a dissimilar hub and silently drop whole clusters). Only
    when the representative count itself exceeds the cap does a
    rep-star remain — that residual recall loss is logged."""
    ids, first = np.unique(ids, return_index=True)
    m = len(ids)
    if m < 2:
        return np.empty(0, np.int64), np.empty(0, np.int64)
    if m <= cap or digests is None:
        if m > cap:
            logger.warning(
                "LSH bucket of %d ids exceeds cap %d with no signature"
                " digests; emitting star pairs", m, cap,
            )
            return np.full(m - 1, ids[0], np.int64), ids[1:]
        ai, bi = np.triu_indices(m, k=1)
        return ids[ai], ids[bi]
    dig = digests[first]
    order = np.argsort(dig, kind="stable")  # ids ascend within a digest
    ids_s, dig_s = ids[order], dig[order]
    starts = np.concatenate(([0], np.flatnonzero(np.diff(dig_s)) + 1))
    reps = ids_s[starts]  # each sub-group's min id (stable sort)
    grp_lens = np.diff(np.append(starts, m))
    a_star = np.repeat(reps, grp_lens - 1)
    member_mask = np.ones(m, dtype=bool)
    member_mask[starts] = False
    b_star = ids_s[member_mask]
    r = len(reps)
    if r <= cap:
        ai, bi = np.triu_indices(r, k=1)
        ra, rb = reps[ai], reps[bi]
    else:
        logger.warning(
            "oversize LSH bucket has %d distinct signatures (> cap %d);"
            " representatives fall back to %d star pairs — residual"
            " recall loss", r, cap, r - 1,
        )
        srt = np.sort(reps)
        ra, rb = np.full(r - 1, srt[0], np.int64), srt[1:]
    logger.debug(
        "LSH bucket of %d ids (cap %d) split into %d signature"
        " sub-groups: %d star + %d representative pairs instead of %d",
        m, cap, r, len(a_star), len(ra), m * (m - 1) // 2,
    )
    a = np.concatenate([a_star, ra])
    b = np.concatenate([b_star, rb])
    return np.minimum(a, b), np.maximum(a, b)


# task-mode per-worker MinHasher cache (same pattern as the build's
# rank-table probe, build._rank_probe): tasks schedule on the warm worker pool
# and never reserve CPUs while idle; state is rebuilt at most once per
# (params) per worker process
_WORKER_MINHASHERS: dict[tuple, MinHasher] = {}


def _make_sig_fn(num_perm: int, bands: int, shingle_k: int):
    key = (num_perm, bands, shingle_k)

    def sig_fn(batch: pa.Table) -> pa.Table:
        mh = _WORKER_MINHASHERS.get(key)
        if mh is None:
            while len(_WORKER_MINHASHERS) > 4:
                # oldest-only eviction (clear() thrashes concurrent
                # pipelines' state — see build._rank_probe)
                _WORKER_MINHASHERS.pop(next(iter(_WORKER_MINHASHERS)))
            mh = MinHasher(num_perm=num_perm, bands=bands, shingle_k=shingle_k)
            _WORKER_MINHASHERS[key] = mh
        return mh(batch)

    return sig_fn


def minhash_candidate_pairs(
    ds: "rd.Dataset",
    num_perm: int = 64,
    bands: int = 16,
    shingle_k: int = 3,
    bucket_cap: int = _BUCKET_CAP,
) -> "rd.Dataset":
    """LSH bucket co-location -> distinct unordered candidate pairs
    (a < b). Buckets are co-located by a key SORT and enumerated
    blockwise-vectorized: Ray's own ``map_groups`` is sort +
    whole-block map relying on the range partition never splitting
    equal keys across blocks (ray/data/grouped_data.py:225-243) — we
    use the same invariant but detect group boundaries with one
    np.diff per block and call the pair kernel only on multi-member
    buckets, instead of paying a per-group Python UDF call for every
    singleton bucket (corpus x bands groups, ~all singletons: measured
    5x faster at 640k buckets). Enumeration inside a bucket is
    vectorized (triu_indices) and capped at ``bucket_cap`` ids
    (signature-digest sub-grouping above — see _pairs_from_ids); the
    same pair colliding in several bands is deduped by the same sorted-
    block run-start take (no per-group Python) — all distributed,
    nothing driver-side."""

    def enum_buckets(t: pa.Table) -> pa.Table:
        empty = pa.table(
            {"a": pa.array([], pa.int64()), "b": pa.array([], pa.int64())}
        )
        n = t.num_rows
        if n == 0:
            return empty
        from quickray.util import run_starts

        band = np.asarray(t["band"], dtype=np.int64)
        bkey = np.asarray(t["band_key"], dtype=np.int64)
        doc = np.asarray(t["doc_id"], dtype=np.int64)
        dig = np.asarray(t["sig_digest"], dtype=np.int64)
        starts = np.append(run_starts(band, bkey), n)
        lens = np.diff(starts)
        outs_a, outs_b = [], []
        for gi in np.flatnonzero(lens >= 2):
            lo, hi = starts[gi], starts[gi + 1]
            a, b = _pairs_from_ids(doc[lo:hi], dig[lo:hi], bucket_cap)
            outs_a.append(a)
            outs_b.append(b)
        if not outs_a:
            return empty
        return pa.table(
            {
                "a": pa.array(np.concatenate(outs_a)),
                "b": pa.array(np.concatenate(outs_b)),
            }
        )

    sigs = ds.map_batches(
        _make_sig_fn(num_perm, bands, shingle_k),
        batch_format="pyarrow",
        # bounds the (perm_chunk x shingles) intermediate (~40 MB at 16
        # perms x ~300k shingles); 2048 measured ~45% faster than 1024
        # serially (fewer per-batch fixed costs), identical output
        batch_size=2048,
    )
    cand = sigs.sort(["band", "band_key"]).map_batches(
        enum_buckets, batch_format="pyarrow", batch_size=None
    )

    def first_rows(t: pa.Table) -> pa.Table:
        # same pair colliding in several bands -> keep one: rows arrive
        # (a, b)-sorted, duplicates are adjacent runs (sort + blockwise
        # run-start take; Ray's sort-shuffle aggregate loops groups in
        # Python — measured 9 s vs 1 s on 640k tiny groups)
        from quickray.util import run_starts

        if t.num_rows == 0:
            return t
        a = np.asarray(t["a"], dtype=np.int64)
        b = np.asarray(t["b"], dtype=np.int64)
        return t.take(pa.array(run_starts(a, b)))

    return cand.sort(["a", "b"]).map_batches(
        first_rows, batch_format="pyarrow", batch_size=None
    )


def shingle_set_rows(ds: "rd.Dataset", shingle_k: int) -> "rd.Dataset":
    """(doc_id, sh) rows: each doc's DISTINCT sorted shingle hashes,
    encoded as a little-endian int64 binary blob (Arrow hash joins do
    not take list payloads; binary round-trips losslessly). Docs with
    no shingles emit no row (they can never be LSH candidates)."""

    def per_batch(batch: pa.Table) -> pa.Table:
        doc, sh, _ = _batch_shingles(batch, shingle_k)
        ids = np.asarray(batch["doc_id"], dtype=np.int64)
        if len(doc) == 0:
            return pa.table(
                {"doc_id": pa.array([], pa.int64()), "sh": pa.array([], pa.binary())}
            )
        order = np.lexsort((sh, doc))
        doc_s, sh_s = doc[order], sh[order]
        keep = np.concatenate(
            ([True], (np.diff(doc_s) != 0) | (np.diff(sh_s) != 0))
        )
        doc_u, sh_u = doc_s[keep], sh_s[keep]
        starts = np.concatenate(([0], np.flatnonzero(np.diff(doc_u)) + 1, [len(doc_u)]))
        blobs = [sh_u[lo:hi].tobytes() for lo, hi in zip(starts[:-1], starts[1:])]
        return pa.table(
            {
                "doc_id": pa.array(ids[doc_u[starts[:-1]]]),
                "sh": pa.array(blobs, pa.binary()),
            }
        )

    return ds.map_batches(per_batch, batch_format="pyarrow", batch_size=1024)


def _join_ready(
    ds: "rd.Dataset", num_partitions: int, count: int
) -> "rd.Dataset":
    """Work around a Ray 2.49 hash-shuffle join hazard: a join side's
    schema reaches the aggregators only via empty schema-carrier shards
    sent by the FIRST shuffle task of that side, and _shuffle_block
    returns early on a zero-row input block (hash_shuffle.py:223)
    WITHOUT broadcasting — so a dataset whose first-shipped block is
    empty makes every partition that receives none of its rows join a
    schema-less table: acero raises 'No match or multiple matches for
    key field'. Fix: repartition(n) with n <= count splits rows evenly
    so no output block is empty — pure public API. (A zero-copy
    block-ref filter via ds._plan internals was tried in round 3; it
    broke silently into this fallback on any Ray-internals drift and
    measured no faster, so the public shape is now the only path.)
    Callers pass bounded datasets (candidate pairs, edges, labels)."""
    return ds.repartition(max(1, min(num_partitions, count)))


def _empty_pairs_table() -> pa.Table:
    return pa.table(
        {"a": pa.array([], pa.int64()), "b": pa.array([], pa.int64()),
         "jaccard": pa.array([], pa.float64())}
    )


def _jaccard_filter_sort(
    a: np.ndarray, b: np.ndarray, js: np.ndarray, threshold: float
) -> pa.Table:
    """Shared tail of both verify paths: threshold, (a, b) sort, SQL
    rounding — byte-identical output shape."""
    from quickray.util import round_sql

    keep = js >= threshold
    order = np.lexsort((b[keep], a[keep]))
    return pa.table(
        {
            "a": pa.array(a[keep][order]),
            "b": pa.array(b[keep][order]),
            "jaccard": pa.array(round_sql(js[keep][order], 4)),
        }
    )


def _binary_col_view(col) -> tuple[np.ndarray, np.ndarray]:
    """(element_offsets, flat int64 view) over a binary column whose
    values are packed int64 arrays — zero per-row Python objects (the
    same buffer-view shape as _verify_broadcast's packing)."""
    if isinstance(col, pa.ChunkedArray):
        col = col.combine_chunks()
    off_dt = np.int64 if pa.types.is_large_binary(col.type) else np.int32
    boffs = np.frombuffer(col.buffers()[1], dtype=off_dt)[
        col.offset : col.offset + len(col) + 1
    ].astype(np.int64)
    data = (
        np.frombuffer(col.buffers()[2], dtype=np.uint8)
        if col.buffers()[2] is not None
        else np.empty(0, np.uint8)
    )
    e = (boffs - boffs[0]) // 8
    raw = data[boffs[0] : boffs[-1]]
    flat = (
        np.ascontiguousarray(raw).view(np.int64)
        if raw.size else np.empty(0, np.int64)
    )
    return e, flat


def _verify_broadcast(
    cand: "rd.Dataset", sh_mat: "rd.Dataset", threshold: float
) -> "rd.Dataset":
    """Join-free verification: the candidate docs' shingle sets (bounded
    — the semi-filter already ran) ship ONCE via ray.put as (sorted ids,
    offsets, one flat int64 buffer); each candidate-pair batch resolves
    both sides with a local searchsorted and intersects in place.
    Removes two hash-shuffle joins whenever the candidate shingle table
    fits the broadcast budget."""
    import ray

    parts = [t for t in ray.get(sh_mat.to_arrow_refs()) if t.num_rows]
    if not parts:
        return rd.from_arrow(_empty_pairs_table())
    tbl = pa.concat_tables(parts).combine_chunks()
    ids = np.asarray(tbl["doc_id"], dtype=np.int64)
    order = np.argsort(ids)
    # read the binary column's offsets/data buffers directly — the
    # flat int64 payload never round-trips through per-row Python
    # bytes objects (the r04 review finding: to_pylist + frombuffer +
    # concatenate held ~3x the table in transient driver objects).
    # Per-row int64 ELEMENT offsets into flat, rows in natural order;
    # the sorted-id probe maps position -> row via `order` instead of
    # physically reordering the buffer
    e, flat = _binary_col_view(tbl["sh"])
    ref = ray.put((ids[order], order, e, flat))

    def jac(batch: pa.Table) -> pa.Table:
        ids_s, rows, e, flat = ray.get(ref)  # plasma-local, zero-copy
        a = np.asarray(batch["a"], dtype=np.int64)
        b = np.asarray(batch["b"], dtype=np.int64)
        pa_pos = np.searchsorted(ids_s, a)
        pb_pos = np.searchsorted(ids_s, b)
        pa_c = np.minimum(pa_pos, max(0, len(ids_s) - 1))
        pb_c = np.minimum(pb_pos, max(0, len(ids_s) - 1))
        # inner-join semantics: a pair drops unless BOTH docs have a
        # shingle row
        ok = (
            (pa_pos < len(ids_s)) & (ids_s[pa_c] == a)
            & (pb_pos < len(ids_s)) & (ids_s[pb_c] == b)
        )
        a, b = a[ok], b[ok]
        ia, ib = rows[pa_c[ok]], rows[pb_c[ok]]
        js = np.empty(len(a), np.float64)
        for i in range(len(a)):
            sa = flat[e[ia[i]] : e[ia[i] + 1]]
            sb = flat[e[ib[i]] : e[ib[i] + 1]]
            inter = len(np.intersect1d(sa, sb, assume_unique=True))
            js[i] = inter / (len(sa) + len(sb) - inter)
        return _jaccard_filter_sort(a, b, js, threshold)

    return cand.map_batches(jac, batch_format="pyarrow")


def verify_pairs(
    cand: "rd.Dataset",
    docs_ds: "rd.Dataset",
    shingle_k: int = 3,
    threshold: float = 0.5,
    num_partitions: int | None = None,
    broadcast_bytes: int = 256 << 20,
) -> "rd.Dataset":
    """Distributed exact-Jaccard verification of candidate pairs.

    The candidate doc_id set (bounded by construction — post-LSH) is
    broadcast via ray.put and SEMI-FILTERS the corpus *before* shingle
    sets are built, so only candidate docs' shingles remain in play —
    the corpus itself never shuffles (the round-3 shape hash-partitioned
    one shingle row per corpus doc per join). If the surviving shingle
    table fits ``broadcast_bytes`` it too is broadcast and verification
    is a join-free map over the pair list (_verify_broadcast); larger
    candidate sets take two hash joins over the filtered table. Then a
    per-pair sorted-array intersection computes exact Jaccard. Nothing
    corpus-sized on the driver on either path — this is the 100-TB
    shape of LSH verification."""
    import ray

    cand = cand.materialize()  # bounded: candidate pairs only
    n_cand = cand.count()
    if num_partitions is None:
        num_partitions = _default_partitions(n_cand)
    if n_cand == 0:
        # an all-empty dataset loses its column schema through the
        # groupby, which would break the hash join's key reference
        return rd.from_arrow(_empty_pairs_table())
    # ids from the MATERIALIZED cand (before the lazy _join_ready
    # repartition — reading them afterwards would execute that shuffle
    # a second time when the join runs)
    cand_ids = _bounded_ids(cand, ("a", "b"))
    id_ref = ray.put(cand_ids)
    docs_cand = docs_ds.map_batches(
        _make_id_filter(id_ref), batch_format="pyarrow"
    )
    # bounded after the semi-filter (<= 2 * n_cand rows)
    sh_ds = shingle_set_rows(docs_cand, shingle_k).materialize()
    if (sh_ds.size_bytes() or 0) <= broadcast_bytes:
        return _verify_broadcast(cand, sh_ds, threshold)
    cand = _join_ready(cand, num_partitions, n_cand)
    # re-pack so the join never sees an empty first block (_join_ready)
    sh_ds = _join_ready(sh_ds, num_partitions, max(1, sh_ds.count()))
    j1 = cand.join(
        sh_ds, join_type="inner", num_partitions=num_partitions,
        on=("a",), right_on=("doc_id",),
    ).rename_columns({"sh": "sh_a"})
    # inner join keeps each pair exactly once (one shingle row per doc),
    # so j1 is bounded by n_cand; its per-partition output blocks
    # (possibly empty) must be re-packed before feeding the second join.
    # Count the ACTUAL survivors (pairs whose `a` doc had < k tokens and
    # thus no shingle row are dropped here) — repartitioning by the
    # pre-join n_cand could still emit empty blocks.
    j1 = j1.materialize()
    n_j1 = j1.count()
    if n_j1 == 0:
        return rd.from_arrow(_empty_pairs_table())
    j1 = _join_ready(j1, num_partitions, n_j1)
    j2 = j1.join(
        sh_ds, join_type="inner", num_partitions=num_partitions,
        on=("b",), right_on=("doc_id",),
    ).rename_columns({"sh": "sh_b"})

    def jaccard(batch: pa.Table) -> pa.Table:
        a = np.asarray(batch["a"], dtype=np.int64)
        b = np.asarray(batch["b"], dtype=np.int64)
        sha_e, sha_flat = _binary_col_view(batch["sh_a"])
        shb_e, shb_flat = _binary_col_view(batch["sh_b"])
        js = np.empty(len(a), np.float64)
        # loop over candidate PAIRS only (post-LSH, a tiny fraction of
        # the corpus); each step is a C-speed sorted intersection over
        # views into the Arrow value buffers (no per-pair bytes objects)
        for i in range(len(a)):
            sa = sha_flat[sha_e[i] : sha_e[i + 1]]
            sb = shb_flat[shb_e[i] : shb_e[i + 1]]
            inter = len(np.intersect1d(sa, sb, assume_unique=True))
            js[i] = inter / (len(sa) + len(sb) - inter)
        return _jaccard_filter_sort(a, b, js, threshold)

    return j2.map_batches(jaccard, batch_format="pyarrow")


def minhash_near_duplicates(
    ds: "rd.Dataset", threshold: float = 0.5, num_perm: int = 64,
    bands: int = 16, shingle_k: int = 3, bucket_cap: int = _BUCKET_CAP,
) -> "rd.Dataset":
    """Full MinHash-LSH near-dup pipeline: bucket -> candidates ->
    distributed verify. Returns (a, b, jaccard) with exact Jaccard >=
    threshold; recall < 1 by construction at the default banding
    (P[candidate] = 1-(1-j^rows_per_band)^bands). For an exact result
    on bounded inputs use bands=num_perm (rows_per_band=1: any shared
    minhash collides — recall ~1 at j >= 0.5, miss prob <= (1-j)^perm).
    Buckets above ``bucket_cap`` sub-group by signature digest (see
    _pairs_from_ids) — identical-signature dup families stay fully
    connected and distinct families still pair rep-to-rep."""
    cand = minhash_candidate_pairs(ds, num_perm, bands, shingle_k, bucket_cap)
    return verify_pairs(cand, ds, shingle_k, threshold)


def simhash_signatures(ds: "rd.Dataset") -> "rd.Dataset":
    """64-bit SimHash over token multisets, vectorized: per-unique-token
    md5 (dictionary encode) -> (tokens x 64) bit matrix -> per-doc
    +/-1 sums via ONE add.reduceat -> sign-bit pack. Empty docs -> 0.
    Matches SQL: sum over tokens of +/-1 per bit of
    (md5_number_upper(term) >> 3)."""

    def per_batch(batch: pa.Table) -> pa.Table:
        flat, parents = flatten_tokens(batch["text"])
        n = batch.num_rows
        out = np.zeros(n, np.int64)
        if len(flat):
            par = np.asarray(parents, dtype=np.int64)
            h = _token_hash_u64(flat) >> np.uint64(3)
            starts = np.concatenate(([0], np.flatnonzero(np.diff(par)) + 1))
            ends = np.append(starts[1:], len(par)) - 1
            # little-endian unpackbits == bit k of h in column k; the
            # per-doc bit-count is a cumsum difference along the token
            # axis (contiguous after transpose — reduceat over many
            # tiny segments measured 2.6x slower); sign test
            # v_k > 0  <=>  2*ones_k > n_tokens
            bt = np.ascontiguousarray(
                np.unpackbits(
                    h.view(np.uint8).reshape(-1, 8), axis=1, bitorder="little"
                ).T
            )
            cs = np.cumsum(bt, axis=1, dtype=np.int32)
            ones = cs[:, ends] - np.hstack(
                [np.zeros((64, 1), np.int32), cs]
            )[:, starts]
            ntok_seg = ends - starts + 1
            pos = (2 * ones) > ntok_seg[None, :]
            sig = np.packbits(
                pos.T.copy(), axis=1, bitorder="little"
            ).view(np.uint64).ravel()
            out[par[starts]] = sig.astype(np.int64)
        return pa.table({"doc_id": batch["doc_id"], "simhash": pa.array(out)})

    # bounded batches: the (tokens x 64) bit matrix is the peak
    return ds.map_batches(per_batch, batch_format="pyarrow", batch_size=1024)


def _driver_components(a: np.ndarray, b: np.ndarray) -> pa.Table:
    """Exact union-find (path halving) over bounded edge arrays —
    cluster_id = min doc_id of the component, identical semantics to
    the distributed min-label propagation."""
    nodes = np.unique(np.concatenate([a, b]))
    parent = np.arange(len(nodes), dtype=np.int64)

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    ai = np.searchsorted(nodes, a)
    bi = np.searchsorted(nodes, b)
    for x, y in zip(ai.tolist(), bi.tolist()):
        rx, ry = find(x), find(y)
        if rx != ry:
            parent[rx] = ry
    roots = np.fromiter(
        (find(i) for i in range(len(nodes))), np.int64, len(nodes)
    )
    lab = np.full(len(nodes), np.iinfo(np.int64).max)
    np.minimum.at(lab, roots, nodes)
    return pa.table(
        {"doc_id": pa.array(nodes), "cluster_id": pa.array(lab[roots])}
    )


def connected_components(
    pairs: "rd.Dataset",
    max_iters: int = 64,
    num_partitions: int | None = None,
    driver_threshold: int = 1_000_000,
) -> "rd.Dataset":
    """Connected components over undirected (a, b) near-dup edges.
    Returns (doc_id, cluster_id = smallest doc_id reachable) for every
    node that appears in an edge — the "keep one per cluster" step of a
    dedup pipeline (keep doc_id == cluster_id).

    The edge set is BOUNDED by construction (post-LSH, post-verify), so
    up to ``driver_threshold`` edges (16 B/edge -> ~16 MB driver heap at
    the default) an exact driver-side union-find answers in one O(E)
    pass. Above it, distributed min-label propagation runs: each
    iteration is one hash join (edge dst -> current label) plus one
    groupby-min — both shuffles over the edge set only, never the
    corpus. Labels are non-negative and strictly decrease somewhere
    until the fixpoint, so sum(label) is a monotone convergence witness
    computed as a Dataset aggregate (no driver-side label table).
    Rounds needed = the largest component's diameter; near-dup clusters
    are shallow (dup "stars" around a template), and max_iters bounds
    adversarial chains. Pass driver_threshold=0 to force the
    distributed path (tests cover both)."""

    def to_edges(batch: pa.Table) -> pa.Table:
        a = np.asarray(batch["a"], dtype=np.int64)
        b = np.asarray(batch["b"], dtype=np.int64)
        return pa.table(
            {
                "src": pa.array(np.concatenate([a, b])),
                "dst": pa.array(np.concatenate([b, a])),
            }
        )

    import ray

    edges = pairs.map_batches(to_edges, batch_format="pyarrow").materialize()
    n_edges = edges.count()  # directed rows = 2x the input pairs
    if num_partitions is None:
        num_partitions = _default_partitions(n_edges)
    if n_edges == 0:
        return rd.from_arrow(
            pa.table(
                {"doc_id": pa.array([], pa.int64()),
                 "cluster_id": pa.array([], pa.int64())}
            )
        )
    if n_edges <= 2 * driver_threshold:
        parts = [t for t in ray.get(edges.to_arrow_refs()) if t.num_rows]
        src = np.concatenate([np.asarray(t["src"], np.int64) for t in parts])
        dst = np.concatenate([np.asarray(t["dst"], np.int64) for t in parts])
        return rd.from_arrow(_driver_components(src, dst))

    def self_label(batch: pa.Table) -> pa.Table:
        src = batch["src"]
        return pa.table({"node": src, "label": src})

    edges = _join_ready(edges, num_partitions, n_edges).materialize()

    # distinct nodes, each initially labeled with itself — the groupby
    # min is a native vectorized aggregate, no per-group Python
    labels = (
        edges.map_batches(self_label, batch_format="pyarrow")
        .groupby("node").min("label")
        .rename_columns({"min(label)": "label"})
    ).materialize()
    n_nodes = labels.count()  # invariant across iterations
    prev_sum = labels.sum("label")

    converged = False
    for _ in range(max_iters):
        # dst's current label flows to src across every directed edge;
        # the symmetric edge table covers both directions
        msgs = (
            edges.join(
                _join_ready(labels, num_partitions, n_nodes),
                join_type="inner", num_partitions=num_partitions,
                on=("dst",), right_on=("node",),
            )
            .select_columns(["src", "label"])
            .rename_columns({"src": "node"})
        )
        labels = (
            msgs.union(labels)
            .groupby("node").min("label")
            .rename_columns({"min(label)": "label"})
        ).materialize()
        cur_sum = labels.sum("label")
        if cur_sum == prev_sum:  # labels only decrease -> fixpoint
            converged = True
            break
        prev_sum = cur_sum
    if not converged:
        # silent non-convergence would return WRONG cluster ids for any
        # component whose diameter exceeds max_iters
        raise RuntimeError(
            f"connected_components did not converge in {max_iters} "
            "rounds (a component's diameter exceeds max_iters); raise "
            "max_iters for long chain-shaped duplicate components"
        )

    return labels.rename_columns({"node": "doc_id", "label": "cluster_id"})


def near_dup_clusters(
    ds: "rd.Dataset", threshold: float = 0.5, num_perm: int = 64,
    bands: int = 16, shingle_k: int = 3, bucket_cap: int = _BUCKET_CAP,
) -> "rd.Dataset":
    """Full dedup-clustering pipeline: MinHash-LSH candidates ->
    distributed exact-Jaccard verify -> connected components. Returns
    (doc_id, cluster_id) for every doc in a near-dup component; the
    canonical keep-set is {cluster_id} (the min doc of each cluster)."""
    return connected_components(
        minhash_near_duplicates(
            ds, threshold, num_perm, bands, shingle_k, bucket_cap
        )
    )


def dedup_corpus(
    ds: "rd.Dataset",
    clusters: "rd.Dataset",
    broadcast_bytes: int = 256 << 20,
    num_partitions: int | None = None,
) -> "rd.Dataset":
    """Materialize the DEDUPLICATED corpus: drop every near-dup cluster
    member except its canonical (min-doc_id) representative.

    Fast path — the loser list (members with doc_id != cluster_id) fits
    ``broadcast_bytes``: BROADCAST anti-filter. ray.put the sorted
    loser-id array once, and every corpus batch drops its losers with a
    local searchsorted — embarrassingly parallel, the corpus never
    enters a shuffle or hash join (the round-3 left-outer join
    hash-partitioned the full corpus to apply a bounded drop list).

    Scale path — the loser list exceeds the budget (e.g. 10^10 docs at
    30% dupes is ~24 GB of ids, which must never land on the driver or
    in every worker's heap): a repartitioned LEFT ANTI hash join of the
    corpus against the loser-id table. The corpus pays one shuffle, but
    nothing unbounded is ever collected or broadcast."""
    import pyarrow.compute as pc

    import ray

    def losers_fn(batch: pa.Table) -> pa.Table:
        t = batch.filter(pc.not_equal(batch["doc_id"], batch["cluster_id"]))
        return pa.table({"doc_id": t["doc_id"]})

    losers = (
        clusters.map_batches(losers_fn, batch_format="pyarrow").materialize()
    )
    n_losers = losers.count()
    if n_losers == 0:
        return ds
    if (losers.size_bytes() or 0) <= broadcast_bytes:
        loser_ids = _bounded_ids(losers, ("doc_id",))
        return ds.map_batches(
            _make_id_filter(ray.put(loser_ids), invert=True),
            batch_format="pyarrow",
        )
    if num_partitions is None:
        num_partitions = _default_partitions()  # corpus-sized shuffle
    logger.warning(
        "dedup_corpus: loser list is %d rows / %d bytes (> %d budget);"
        " falling back to a %d-partition anti-join over the corpus",
        n_losers, losers.size_bytes() or 0, broadcast_bytes, num_partitions,
    )
    losers = _join_ready(losers, num_partitions, n_losers)
    # the corpus side is NOT _join_ready-repacked (that would force an
    # extra full shuffle + count of an unbounded input purely to dodge
    # the Ray 2.49 empty-first-block schema hazard). The hazard needs a
    # join partition that receives ZERO corpus rows; this path only
    # triggers above broadcast_bytes of loser ids (>~33M losers), i.e.
    # a corpus orders of magnitude larger than num_partitions — every
    # partition receives corpus rows. Tiny/filtered corpora always take
    # the broadcast path.
    return ds.join(
        losers,
        join_type="left_anti",
        num_partitions=num_partitions,
        on=("doc_id",),
    )


def ngram_jaccard_pairs(
    ds: "rd.Dataset", max_doc_id: int, shingle_k: int = 3, threshold: float = 0.2
) -> "rd.Dataset":
    """Exact all-pairs token-shingle Jaccard on docs with doc_id <
    max_doc_id (bounded, so it stays oracle-checkable in SQL). The
    bounded pair list feeds the same distributed verify as MinHash."""
    import pyarrow.compute as pc

    sub = ds.map_batches(
        lambda t: t.filter(pc.less(t["doc_id"], max_doc_id)),
        batch_format="pyarrow",
    )
    a, b = np.triu_indices(max_doc_id, k=1)
    cand = rd.from_arrow(
        pa.table({"a": pa.array(a.astype(np.int64)), "b": pa.array(b.astype(np.int64))})
    )
    return verify_pairs(cand, sub, shingle_k=shingle_k, threshold=threshold)
