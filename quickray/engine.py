"""Query engines over built posting segments (SURVEY.md §7.5).

- ``Index``: loads a build's segments + stats once (the ST1 "state
  loaded once per worker" mapping — in Ray terms this lives in an
  actor's __init__).
- ``Scorer``: BM25 under one engine's fixed statistics, memoizing each
  term's contribution vector and, on first use by pruning, its block
  maxima (both LRU-bounded), and the flag bits (long-doc bit from its
  avgdl). An Index owns one for its own statistics; the parts of a
  multi-part engine score with corpus-global ones and their live masks,
  get their own and memoize just the same.
- ``LocalEngine``: boolean set algebra bit-identical to quicker's
  skiplist semantics (IntersectionOfSkipList/UnionOfSkipList + flag
  filter, skiplist_reverse_index.go:77-206) + exact BM25 top-k, scored
  by the ``Scorer`` it is handed (the index's own by default). The
  scorer's optional doc-indexed ``live`` mask (tombstones) filters docs
  wherever the flag bits do: both are doc-level facts, so the postings
  served are the Index's own. It is the one place a query is routed. A
  flat OR or single term goes to ``wand.block_max_topk``, which only
  decides whether to prune (under any scorer) and scores the pruned
  blocks; its exhaustive side is the engine's ``_flat_eval``. Every
  other tree is routed once by its result-size estimate from segment
  dfs (Term -> df, And -> min, Or -> sum). Above
  ``n_docs // DENSE_DIVISOR`` it is evaluated term at a time over
  doc-indexed arrays (Turtle & Flood, IP&M 1995): each term, in
  ascending order, adds its contributions into one score vector and
  sets one boolean doc mask; the tree is
  ``logical_and``/``logical_or`` over the masks (an absent term is
  all-false), the flag filter is one mask over the scorer's bits (bits
  are doc-level, so this equals filtering at the leaves), and the top-k
  is selected among the docs of the final mask. Below it, sorted-array
  set algebra finds the candidates (every And, at any depth, seeds from
  its rarest child and keeps the seed docs every other child matches)
  and binary search scores them: the answer is exactly
  ``score(q, candidates(q))``. Both sides add the same terms in the
  same order and each doc at most once per term, so their scores are
  bit-identical.
- ``MultiPartEngine``: quicker's one distributed design (every worker
  holds its own index; the Sentinel broadcasts a query and merges the
  per-worker results, sentinel.go:137-187) over built parts, each with
  its live mask, under corpus-global statistics. ``PartitionedEngine``
  (doc shards, labelled by global doc id) and ``delta.DeltaEngine``
  (main and delta batches, labelled by key) are its two constructors.
- ``QueryEngineActor``: callable class for ``map_batches`` over a
  Dataset of query JSONs — the distributed batch-query path; the index
  is loaded once per actor.

Top-k is total-ordered by (-score, doc_id): deterministic ranks.
"""

from __future__ import annotations

import functools
import json
import os
import weakref
from collections import OrderedDict
from dataclasses import dataclass, field

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq

from quickray.codec import (
    block_max_metadata,
    decode_postings,
    gather_ranges,
    varint_counts,
    varint_decode,
)
from quickray.query import (
    And,
    Or,
    Query,
    Term,
    collect_terms,
    flat_or_terms,
    query_from_json,
)
from quickray.schema import BIT_LONG_DOC, SEGMENT_SCHEMA, group_files
from quickray.scoring import bm25_contrib, flags_mask


@dataclass
class Posting:
    """One term's postings. Doc-level data (doc_len, flag bits) is not
    here: it is gathered by doc_id from the index's docmeta arrays."""

    doc_ids: np.ndarray
    tfs: np.ndarray


# docmeta's doc-level columns: scoring gathers doc_len and flag filters
# gather bits, so any docmeta read loads both (one parquet read)
_DOC_COLS = ("doc_len", "bits")


def _lru_fetch(cache: OrderedDict, key, cap: int, make):
    """The one bounded memo shape: return ``cache[key]`` (refreshing its
    recency), or store ``make()`` there, evicting the least recently
    used entry once the cache holds more than ``cap``."""
    if key in cache:
        cache.move_to_end(key)
        return cache[key]
    val = make()
    cache[key] = val
    if len(cache) > cap:
        cache.popitem(last=False)
    return val


@dataclass
class _ScorerMemo:
    """A Scorer's memoized values: per-term contribution vectors, dense
    vectors and block maxima (recency-evicting), and the flag bits."""

    contrib: OrderedDict = field(default_factory=OrderedDict)
    dense: OrderedDict = field(default_factory=OrderedDict)
    blocks: OrderedDict = field(default_factory=OrderedDict)
    bits: np.ndarray | None = None


class Scorer:
    """BM25 under one fixed set of statistics: ``n_docs``, ``avgdl`` and
    a df resolver (``df.get(term, posting_df)``; None scores with each
    posting's own length), and the doc-indexed ``live`` mask of the
    docs it serves (False = tombstoned; None = every doc is live). An
    engine's statistics never change, so each term's full per-posting
    contribution vector — and, for stopword-grade terms, its dense
    doc_id-indexed vector, and for pruned terms its block maxima — is
    computed once and memoized HERE, per scorer: two engines over one
    Index with different statistics never see each other's values. The
    memos are recency-evicting and capped at the index's posting-LRU
    capacity.

    ``Index.scorer`` is the index's own (its stored df, n_docs, avgdl,
    every doc live), whose memos the index holds (``memo``)."""

    def __init__(
        self, index, n_docs: int, avgdl: float, df=None, live=None, memo=None
    ):
        self._index = index
        self.n_docs = n_docs
        self.avgdl = avgdl
        self._df = df
        self.live = live
        self._memo = memo if memo is not None else _ScorerMemo()
        self._contrib = self._memo.contrib
        self._dense = self._memo.dense
        self._blocks = self._memo.blocks

    @property
    def bits(self) -> np.ndarray:
        """Doc-indexed flag bits, which every flag filter reads: docmeta's
        bits with bit 9 REPLACED by ``doc_len > avgdl`` (so docmeta that
        still stores a build's own bit 9 serves too). Computed once."""
        if self._memo.bits is None:
            dm = self._index.docmeta_arrays(_DOC_COLS)
            long_doc = (dm["doc_len"] > self.avgdl).astype(np.int64) << BIT_LONG_DOC
            self._memo.bits = (dm["bits"] & ~(1 << BIT_LONG_DOC)) | long_doc
        return self._memo.bits

    def contrib(self, term: str, p: Posting) -> np.ndarray:
        """Exact BM25 contribution of every posting of ``term`` (``p`` is
        the index's posting for it), aligned with ``p.doc_ids``."""

        def make():
            df = len(p.doc_ids)
            if self._df is not None:
                df = self._df.get(term, df)
            dl = self._index.doc_lens(p.doc_ids)
            return bm25_contrib(p.tfs, dl, df, self.n_docs, self.avgdl)

        return _lru_fetch(self._contrib, term, self._index._cache_cap, make)

    def dense(self, term: str, p: Posting) -> np.ndarray:
        """Doc_id-indexed dense contrib vector (0.0 where the doc lacks
        the term). Adding 0.0 is IEEE-exact, so dense vector sums are
        bit-identical to sparse per-doc accumulation in the same term
        order. Only worth the 8B*n_docs when df is a sizable fraction of
        the corpus — callers gate on that."""

        def make():
            d = np.zeros(self._index.n_docs, dtype=np.float64)
            d[p.doc_ids] = self.contrib(term, p)
            return d

        return _lru_fetch(self._dense, term, self._index._cache_cap, make)

    def blocks(self, term: str, p: Posting) -> tuple[np.ndarray, np.ndarray]:
        """(block_last, block_max) of ``term`` over its posting ``p`` cut
        into ``wand.BLOCK_SIZE``-posting blocks: each block's last doc
        id and its largest contribution of a live doc (dead docs count
        0.0, so a block with no live doc has maximum 0). Each positive
        maximum is one live doc's exact contribution."""

        def make():
            # wand imports this module: read its constant at call time
            from quickray.wand import BLOCK_SIZE

            c = self.contrib(term, p)
            if self.live is not None:
                c = np.where(self.live[p.doc_ids], c, 0.0)
            return block_max_metadata(p.doc_ids, c, BLOCK_SIZE)

        return _lru_fetch(self._blocks, term, self._index._cache_cap, make)


# evaluation moves to dense doc-indexed arrays once its work (postings
# accumulated, or a tree's estimated result size) exceeds 1/DENSE_DIVISOR
# of the doc-id space: below that, O(n_docs) allocations and scans cost
# more than sorted-array set algebra
DENSE_DIVISOR = 16


def _dense_worth(work: int, n_docs: int) -> bool:
    """``work > n_docs // DENSE_DIVISOR``, for integer ``work``."""
    return work * DENSE_DIVISOR > n_docs


def _dense_topk(
    scores_d: np.ndarray, k: int
) -> tuple[np.ndarray, np.ndarray]:
    """Top-k by (-score, doc_id) over a dense doc-indexed score vector
    where score > 0 == doc present (bm25_contrib is strictly positive:
    the idf log argument is > 1 and tf >= 1)."""
    n = len(scores_d)
    if k > 0 and n > k:
        kth = np.partition(scores_d, n - k)[n - k]
        if kth > 0.0:
            uniq = np.flatnonzero(scores_d >= kth)
            scores = scores_d[uniq]
            order = np.lexsort((uniq, -scores))[:k]
            return uniq[order], scores[order]
    uniq = np.flatnonzero(scores_d)
    scores = scores_d[uniq]
    order = np.lexsort((uniq, -scores))[:k]
    return uniq[order], scores[order]


def _find(doc_ids: np.ndarray, docs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Binary search of ``docs`` in the sorted, nonempty ``doc_ids``:
    (mask over ``docs`` of those found, each one's position there,
    meaningful where found)."""
    li = np.searchsorted(doc_ids, docs)
    li_c = np.minimum(li, len(doc_ids) - 1)
    return (li < len(doc_ids)) & (doc_ids[li_c] == docs), li_c


# postings per preload decode chunk. A chunk's transients (gathered
# bytes and their int64 gather indexes, the decoded streams, per-posting
# df and the BM25 temporaries) cost ~100 B per posting: ~50 MB at this
# bound, however many postings preload_bytes admits
_DECODE_CHUNK = 1 << 19

# a segment row's varint streams, in Posting field order
_STREAMS = ("postings", "tfs")
# 64-bit offsets: a combined column may exceed 2 GiB
_LARGE = {c: pa.large_binary() for c in _STREAMS}


def _one_chunk(col: pa.ChunkedArray) -> pa.Array:
    return col.chunk(0) if col.num_chunks == 1 else col.combine_chunks()


def _column_view(seg: pa.Table, name: str) -> tuple[np.ndarray, np.ndarray]:
    """Zero-copy numpy (int64 offsets, bytes) of a large-binary segment
    column held in one chunk."""
    arr = _one_chunk(seg[name])
    if arr.null_count:
        raise ValueError(f"segment column {name!r} holds nulls")
    _, offs, data = arr.buffers()
    offs = np.frombuffer(offs, np.int64)[arr.offset : arr.offset + len(arr) + 1]
    return offs, np.frombuffer(data, np.uint8) if data else np.empty(0, np.uint8)


class Index:
    """In-memory view of one build's segments: every merge group's file,
    or with ``shards`` only the files of those groups (a term-hash
    shard per group, the reference's per-worker index,
    sentinel.go:137-187). A group with no terms has no file and adds
    nothing.

    Segments hold only doc ids and tfs per posting. Doc-level data lives
    once, in docmeta: the first docmeta read loads ``doc_len`` and
    ``bits`` as dense doc_id-indexed arrays, and scoring and flag
    filters gather from them by doc id.

    Load combines each segment column into one chunk (a copy only when
    the segment table spans several files) and keeps zero-copy numpy
    views of its offsets and values. ``_decode_rows`` decodes any set
    of rows from them with one vectorized pass per column, so its cost
    is per byte, not per term: the miss path decodes one row, and
    preload decodes its rows ``_DECODE_CHUNK`` postings at a time and
    scores each chunk with one BM25 call. What is left per term is
    slicing and memo stores (a 14k-term, 6k-doc index loads fully
    preloaded in ~0.2 s on one Xeon core; term by term it took ~2.5 s). A
    preloaded posting's arrays (and its memoized contributions) are
    views into its chunk's arrays: a chunk stays resident until every
    term decoded in it has left both memos."""

    def __init__(
        self,
        out_dir: str,
        shards: set[int] | None = None,
        preload_top_df: int = 0,
        preload_bytes: int | None = None,
    ):
        self.out_dir = out_dir
        with open(os.path.join(out_dir, "stats", "stats.json")) as f:
            self.stats = json.load(f)
        self.n_docs = self.stats["n_docs"]
        self.avgdl = self.stats["avgdl"]
        seg_dir = os.path.join(out_dir, "segments")
        files = [f for g, f in group_files(seg_dir).items()
                 if shards is None or g in shards]
        if not files:
            seg = SEGMENT_SCHEMA.empty_table()
        else:
            seg = pq.read_table(seg_dir if shards is None else files)
        seg = seg.cast(
            pa.schema([f.with_type(_LARGE.get(f.name, f.type)) for f in seg.schema])
        ).combine_chunks()
        self._seg = seg
        self._df = _one_chunk(seg["df"]).to_numpy()
        self._cols = {c: _column_view(seg, c) for c in _STREAMS}
        # term lookup = binary search over a sorted VIEW of the segment
        # term column (one int64 permutation array + O(log V) bounded
        # .as_py() per probe) — never a vocabulary-sized Python dict
        # per engine (a 10^8-term vocab would be GBs of PyObjects)
        self._term_col = _one_chunk(seg["term"])
        self._tsort = np.asarray(
            pc.sort_indices(self._term_col), dtype=np.int64
        )
        # decoded-posting LRU (recency eviction — a fill-once cap would
        # stop caching new hot terms on large-vocab serving)
        self._cache: OrderedDict[str, Posting | None] = OrderedDict()
        self._cache_cap = 4096
        # docmeta columns as dense doc_id-indexed arrays (_read_docmeta)
        self._docmeta_cache: dict[str, np.ndarray] = {}
        # the own scorer holds this index, so the index holds only its
        # memos and a weak reference to it: no cycle keeps a dropped
        # Index (segments, posting LRU) alive until a full GC pass
        self._own_memo = _ScorerMemo()
        self._own_scorer = lambda: None
        if preload_top_df or preload_bytes:
            self._preload(preload_top_df, preload_bytes)

    @property
    def scorer(self) -> Scorer:
        """The index's own Scorer: one object while anything holds it,
        and always over the index's own memos."""
        s = self._own_scorer()
        if s is None:
            s = Scorer(self, self.n_docs, self.avgdl, memo=self._own_memo)
            self._own_scorer = weakref.ref(s)
        return s

    def _preload(self, preload_top_df: int, preload_bytes: int | None) -> None:
        """Decode the heaviest postings once at load time (serving
        actors pay this in __init__, never on the query path) and
        pre-warm the own scorer's contributions, so a cold first query
        pays neither decode nor scoring. preload_bytes widens the fixed
        top-N ADAPTIVELY: preload in descending-df order until the
        estimated decoded size reaches the budget — a cold
        ~1M-posting hot term otherwise costs ~170 ms on the first query
        that touches it (the r02 p95 tail)."""
        # scoring reads doc_len and flag filters read bits: one docmeta
        # read here, not on the first query
        self.docmeta_arrays(_DOC_COLS)
        df = self._df
        order = np.argsort(-df)
        n_pre = int(preload_top_df)
        if preload_bytes is not None:
            # decoded posting = 2 int64 arrays (doc ids, tfs) + memoized
            # contrib float64 = 24 B/posting
            cum = np.cumsum(df[order]) * 24
            n_pre = max(
                n_pre, int(np.searchsorted(cum, preload_bytes, side="right"))
            )
        n_pre = min(n_pre, len(order))
        self._cache_cap = max(self._cache_cap, 2 * n_pre)
        rows = order[:n_pre]
        # chunk boundaries: each chunk holds up to _DECODE_CHUNK
        # postings (a single heavier row is a chunk of its own)
        cum = np.cumsum(df[rows])
        lo = 0
        while lo < n_pre:
            base = cum[lo - 1] if lo else 0
            hi = max(
                lo + 1,
                int(np.searchsorted(cum, base + _DECODE_CHUNK, side="right")),
            )
            self._preload_rows(rows[lo:hi])
            lo = hi

    def _preload_rows(self, rows: np.ndarray) -> None:
        """Decode ``rows`` as one chunk and seed the posting LRU and the
        own scorer's memos with per-term slices (n_pre <= cap / 2: no
        eviction)."""
        bounds, flat, ps = self._decode_rows(rows)
        df = self._df[rows]
        # one BM25 pass over the chunk; with a per-posting df every value
        # is bit-identical to the per-term call (bm25_contrib)
        contrib = bm25_contrib(
            flat["tfs"], self.doc_lens(flat["postings"]), np.repeat(df, df),
            self.n_docs, self.avgdl,
        )
        terms = self._term_col.take(pa.array(rows)).to_pylist()
        # stored directly: with no eviction possible, _lru_fetch would
        # only store, at a call per term (a quarter of the load time)
        self._cache.update(zip(terms, ps))
        b = bounds.tolist()
        scorer = self.scorer
        scorer._contrib.update(
            (t, contrib[lo:hi]) for t, lo, hi in zip(terms, b, b[1:])
        )
        for term, p in zip(terms, ps):
            if len(p.doc_ids) > self.n_docs // 2:
                scorer.dense(term, p)

    def _decode_rows(
        self, rows
    ) -> tuple[np.ndarray, dict[str, np.ndarray], list[Posting]]:
        """Decode segment ``rows``: one gather and one varint pass per
        column, and one segmented cumsum for every row's doc ids.
        Returns the n+1 posting bounds of the rows, the decoded streams
        by column, and one Posting per row whose arrays are
        slices of them. Raises, naming the column, when a row's stream
        holds a value count other than its df."""
        rows = np.asarray(rows, dtype=np.int64)
        df = self._df[rows]
        bounds = np.zeros(len(rows) + 1, dtype=np.int64)
        np.cumsum(df, out=bounds[1:])
        nxt = rows + 1
        flat = {}
        for col in _STREAMS:
            offs, data = self._cols[col]
            buf, byte_bounds = gather_ranges(data, offs[rows], offs[nxt])
            try:
                if col == "postings":
                    # a running sum restarts at each nonempty row
                    vals = decode_postings(
                        buf, bounds[:-1][df > 0] if len(rows) > 1 else None
                    )
                else:
                    vals = varint_decode(buf)
                ok = len(vals) == bounds[-1] and (
                    len(rows) == 1
                    or np.array_equal(varint_counts(buf, byte_bounds, len(vals)), df)
                )
            except ValueError:
                ok = False
            if not ok:
                terms = self._term_col.take(pa.array(rows[:4])).to_pylist()
                raise ValueError(
                    f"segment column {col!r} in {self.out_dir} disagrees with"
                    f" df in one of {len(rows)} rows (terms {terms}...)"
                )
            flat[col] = vals
        d, t = flat["postings"], flat["tfs"]
        b = bounds.tolist()
        ps = [Posting(d[lo:hi], t[lo:hi]) for lo, hi in zip(b, b[1:])]
        return bounds, flat, ps

    def df_of(self, term: str) -> int:
        """Segment df without decoding the posting: the length of the
        posting LRU's entry on a hit (a decoded posting holds exactly df
        doc ids), else an O(log V) probe. Neither decodes nor refreshes
        recency. Used to route trees and order AND children by estimated
        result size."""
        if term in self._cache:
            p = self._cache[term]
            return 0 if p is None else len(p.doc_ids)
        i = self._term_index(term)
        return 0 if i is None else int(self._df[i])

    def _term_index(self, term: str) -> int | None:
        """Segment row index of `term` via binary search on the sorted
        view (lexicographic Arrow string order)."""
        col, order = self._term_col, self._tsort
        lo, hi = 0, len(order)
        while lo < hi:
            mid = (lo + hi) // 2
            if col[order[mid]].as_py() < term:
                lo = mid + 1
            else:
                hi = mid
        if lo < len(order) and col[order[lo]].as_py() == term:
            return int(order[lo])
        return None

    def posting(self, term: str) -> Posting | None:
        def decode():
            i = self._term_index(term)
            return None if i is None else self._decode_rows([i])[2][0]

        return _lru_fetch(self._cache, term, self._cache_cap, decode)

    @property
    def vocab_size(self) -> int:
        return self._seg.num_rows

    def doc_lens(self, doc_ids: np.ndarray) -> np.ndarray:
        """doc_len lookup via the forward index (docmeta) — served from
        the shared docmeta_arrays dense cache (one parquet read + one
        resident array per index, however many consumers)."""
        return self.docmeta_arrays(("doc_len",))["doc_len"][
            np.asarray(doc_ids, dtype=np.int64)
        ]

    def docmeta_arrays(self, cols: tuple[str, ...]) -> dict[str, np.ndarray]:
        """Warm forward-index state: the requested docmeta columns as
        dense doc_id-indexed numpy arrays, loaded ONCE per Index (i.e.
        once per serving actor) — the BatchGet analog
        (internal/kvdb/badger_db.go:113-142): top-k -> metadata
        hydration after the first call reads no parquet. The first read
        also loads the doc-level ``_DOC_COLS``, whichever are asked for."""
        self._read_docmeta(cols)
        return {c: self._docmeta_cache[c] for c in cols}

    def _read_docmeta(self, cols: tuple[str, ...], raw: tuple[str, ...] = ()):
        """One docmeta read of ``doc_id``, the ``cols`` and
        ``_DOC_COLS`` not yet cached (stored as dense arrays) and the
        ``raw`` columns; returns the table, or None when nothing was
        left to read."""
        cache = self._docmeta_cache
        missing = [c for c in dict.fromkeys((*cols, *_DOC_COLS)) if c not in cache]
        if not missing and not raw:
            return None
        path = os.path.join(self.out_dir, "docmeta")
        try:
            dm = pq.read_table(path, columns=["doc_id", *missing, *raw])
        except (OSError, pa.ArrowException) as exc:
            # every build writes these columns: absence is damage
            raise ValueError(
                f"docmeta column(s) {missing + list(raw)} unreadable in {path}: {exc}"
            ) from exc
        order = np.asarray(dm["doc_id"])
        for c in missing:
            vals = dm[c]
            if pa.types.is_integer(vals.type):
                arr = np.zeros(self.n_docs, dtype=np.int64)
                arr[order] = np.asarray(vals)
            else:
                # string columns live as fixed-width bytes ('S{w}',
                # \x00-padded, order-preserving) — one flat numpy
                # buffer, never n_docs Python string objects per
                # worker (the r02 scale finding); hydrate() decodes
                # only the bounded top-k gather. Nulls hydrate as ''
                # (numpy 'S' cannot hold None); a legitimate
                # trailing \x00 byte would be stripped on decode,
                # but docmeta strings never contain \x00 (it is the
                # key separator) — that contract is what makes the
                # fixed-width encoding lossless here
                from quickray.tokenize import _fixed_bytes

                v = (
                    vals.combine_chunks()
                    if isinstance(vals, pa.ChunkedArray)
                    else vals
                )
                if v.null_count:
                    v = pc.fill_null(v, "")
                width = max(
                    1, int(pc.max(pc.binary_length(v)).as_py() or 1)
                )
                arr = np.zeros(self.n_docs, dtype=f"S{width}")
                arr[order] = _fixed_bytes(v, width)
            cache[c] = arr
        return dm

    def keys_by_id(self) -> np.ndarray:
        """Dense doc_id -> 'repo\\x01path' key array as fixed-width
        bytes ('S{w}', \\x00-padded so padded order == string order) —
        probe/tombstone-match with numpy byte compares; decode only
        bounded final results. Its docmeta read also loads the
        doc-level ``_DOC_COLS`` if not yet cached: a delta part reads
        docmeta once."""
        cache = getattr(self, "_keys_by_id", None)
        if cache is None:
            from quickray.tokenize import _fixed_bytes

            dm = self._read_docmeta((), ("repo", "path"))
            keys = pc.binary_join_element_wise(
                dm["repo"].combine_chunks(), dm["path"].combine_chunks(),
                "\x01",
            )
            width = max(1, int(pc.max(pc.binary_length(keys)).as_py() or 1))
            cache = np.zeros(self.n_docs, dtype=f"S{width}")
            cache[np.asarray(dm["doc_id"])] = _fixed_bytes(keys, width)
            self._keys_by_id = cache
        return cache

    def hydrate(self, doc_ids: np.ndarray, cols: tuple[str, ...]) -> dict[str, np.ndarray]:
        """Point-lookup metadata for doc_ids from the warm dense arrays;
        fixed-width byte columns decode to str here (bounded gather)."""
        arrs = self.docmeta_arrays(cols)
        ids = np.asarray(doc_ids, dtype=np.int64)
        out = {}
        for c in cols:
            got = arrs[c][ids]
            if got.dtype.kind == "S":
                got = np.array([x.decode() for x in got], dtype=object)
            out[c] = got
        return out

    def df_table(self) -> pa.Table:
        """(term, df) straight from the segment columns — stays Arrow
        (no per-term Python objects; replaces the old df_map() dict)."""
        return self._seg.select(["term", "df"])


def _accumulate_topk(
    doc_arrays: list[np.ndarray],
    contrib_arrays: list[np.ndarray],
    k: int,
    n_docs: int,
) -> tuple[np.ndarray, np.ndarray]:
    """Sum per-term contributions per doc (term-sorted input order ->
    deterministic float summation) and return top-k by (-score, doc_id).

    Once the postings are a sizable share of the ``n_docs`` doc-id
    space, accumulation is a scatter-add into a doc-indexed array and
    top-k is partition-select + a lexsort of only the k-and-ties
    candidates — exact same result as the full sort (both paths sum in
    order of appearance = ascending term)."""
    if not doc_arrays:
        return np.empty(0, np.int64), np.empty(0, np.float64)
    total = sum(len(d) for d in doc_arrays)
    if len(doc_arrays) == 1:
        # single posting list: docs are already unique and sorted — no
        # accumulation needed at all
        uniq, scores = doc_arrays[0], contrib_arrays[0]
    elif _dense_worth(total, n_docs):
        # dense only when postings are a sizable fraction of the corpus;
        # small queries would pay O(n_docs) allocation for nothing.
        # Per-term scatter-add (docs are unique WITHIN a term, so plain
        # fancy-index += is exact) beats a weighted bincount over the
        # concatenation ~4x and skips the concat copies; the per-doc
        # float summation order (ascending term) is unchanged.
        scores_d = np.zeros(n_docs, dtype=np.float64)
        for d, c in zip(doc_arrays, contrib_arrays):
            scores_d[d] += c
        return _dense_topk(scores_d, k)
    else:
        docs = np.concatenate(doc_arrays)
        contribs = np.concatenate(contrib_arrays)
        uniq, inv = np.unique(docs, return_inverse=True)
        scores = np.zeros(len(uniq), dtype=np.float64)
        np.add.at(scores, inv, contribs)
    return _topk_select(uniq, scores, k)


def _topk_select(
    uniq: np.ndarray, scores: np.ndarray, k: int
) -> tuple[np.ndarray, np.ndarray]:
    """Top-k of (doc, score) pairs by (-score, doc_id): partition down
    to the k-th value + ties, then lexsort only that candidate set —
    identical result to a full sort."""
    if len(uniq) > max(k, 0) > 0 and len(uniq) > 4 * k:
        kth = np.partition(scores, len(scores) - k)[len(scores) - k]
        cand = scores >= kth  # k-th largest value + all ties
        uniq, scores = uniq[cand], scores[cand]
    order = np.lexsort((uniq, -scores))[:k]
    return uniq[order], scores[order]


class LocalEngine:
    def __init__(self, index: Index, scorer: Scorer | None = None):
        """Scores with ``scorer``, by default ``index.scorer``: the
        index's own statistics, shared by every engine over that index.
        A MultiPartEngine part is handed a Scorer over ``index`` with
        corpus-global statistics and the part's live mask instead, so
        part-local postings score with corpus-global idf/avgdl, which is
        what makes scatter results equal a single global build. Every
        scorer takes the same routes, block-max pruning included
        (wand.py)."""
        self.index = index
        # the last query's path: for a flat OR as wand.block_max_topk
        # left it, for any other tree (route, estimated result size)
        # with route "dense" or "sparse"
        self.last_path = None
        # boolean evaluation needs only posting()/df_of(): an index
        # without a scorer of its own can still serve candidates()
        self.scorer = scorer if scorer is not None else getattr(index, "scorer", None)

    @property
    def live(self) -> np.ndarray | None:
        """The scorer's doc-indexed mask, False for tombstoned docs (None:
        every doc is live). It is never written to."""
        return getattr(self.scorer, "live", None)

    # ------------------------------------------------------- set algebra
    def _filters(self, q: Query) -> bool:
        """Whether ``q``'s flag filter or the live mask may drop docs."""
        return q.has_flags or self.live is not None

    def _passes(self, doc_ids: np.ndarray, q: Query) -> np.ndarray:
        """Mask over ``doc_ids`` of the live docs that pass ``q``'s flag
        filter (call only when ``_filters(q)``)."""
        if not q.has_flags:
            return self.live[doc_ids]
        ok = flags_mask(
            self.scorer.bits[doc_ids], q.on_flag, q.off_flag, q.or_flags
        )
        return ok if self.live is None else ok & self.live[doc_ids]

    def _leaf(self, term: str, q: Query) -> np.ndarray:
        p = self.index.posting(term)
        if p is None:
            return np.empty(0, np.int64)
        if not self._filters(q):
            return p.doc_ids
        return p.doc_ids[self._passes(p.doc_ids, q)]

    def candidates(self, q: Query) -> np.ndarray:
        """Boolean evaluation — sorted doc_id array. AND = sorted-list
        intersection (J2), OR = sorted union (J3); flags filter at the
        leaf scan exactly like the reference (M3), and so does the live
        mask. An And/Or above the
        dense gate takes the same set from the doc mask of
        ``_dense_keep`` instead; a lone term's set is its posting."""
        node, ests = q.tree, {}
        if not isinstance(node, Term) and _dense_worth(
            self._est_size(node, ests), self.index.n_docs
        ):
            ps = {t: self.index.posting(t) for t in collect_terms(node)}
            return np.flatnonzero(self._dense_keep(q, node, ps))
        return self._eval(node, q, ests)

    def _eval(self, node, q: Query, ests: dict) -> np.ndarray:
        # a method, not a recursive closure: a closure that calls itself
        # is a reference cycle holding the engine (and its memos) until
        # the next full garbage collection. ``ests`` is the query's
        # estimate memo (_est_size)
        if node is None:
            return np.empty(0, np.int64)
        if isinstance(node, Term):
            return self._leaf(node.key, q)
        if not node.children:
            return np.empty(0, np.int64)
        if isinstance(node, And):
            # seed from the rarest child by estimate (segment dfs, no
            # decode), filtered at its leaves; each other child, rarest
            # first, keeps the seed docs it matches by binary search.
            # Flags and the live mask are doc-level, so a seed doc that
            # passed them needs no second test, and no other child's
            # set is ever materialized
            sizes = [self._est_size(c, ests) for c in node.children]
            first, *rest = sorted(range(len(sizes)), key=sizes.__getitem__)
            out = self._eval(node.children[first], q, ests)
            for i in rest:
                if len(out) == 0:
                    break
                out = out[self._member_mask(node.children[i], out)]
            return out
        return functools.reduce(
            np.union1d, [self._eval(c, q, ests) for c in node.children]
        )

    # ------------------------------------------ dense tree evaluation
    def _tree_mask(self, node, masks: dict[str, np.ndarray]) -> np.ndarray:
        """``node``'s matching docs as a doc-indexed boolean mask, from
        the per-term ``masks`` (a term without one matches nothing)."""
        if isinstance(node, Term):
            if node.key in masks:
                return masks[node.key]
        elif node.children:
            red = np.logical_and if isinstance(node, And) else np.logical_or
            return functools.reduce(
                red, (self._tree_mask(c, masks) for c in node.children)
            )
        return np.zeros(self.index.n_docs, dtype=bool)

    def _dense_keep(self, q: Query, tree, postings: dict) -> np.ndarray | None:
        """Doc-indexed mask of the live docs that pass ``q``'s flag
        filter and, given a ``tree``, match it over the term -> Posting
        map ``postings`` (a term absent there, None or empty matches
        nothing); None when nothing is excluded. It may be the stored
        ``live`` array itself: callers must not write to it."""
        n = self.index.n_docs
        keep = None
        if tree is not None:
            masks = {}
            for t, p in postings.items():
                if p is not None:
                    masks[t] = m = np.zeros(n, dtype=bool)
                    m[p.doc_ids] = True
            keep = self._tree_mask(tree, masks)
        if q.has_flags:
            ok = flags_mask(self.scorer.bits, q.on_flag, q.off_flag, q.or_flags)
            keep = ok if keep is None else keep & ok
        if self.live is not None:
            keep = self.live if keep is None else keep & self.live
        return keep

    def _scored_postings(self, terms: list[str]):
        """(terms, postings, contributions) of the nonempty postings of
        ``terms``, in the order given: the summation order."""
        ts, ps, cs = [], [], []
        for t in terms:
            p = self.index.posting(t)
            if p is not None and len(p.doc_ids):
                ts.append(t)
                ps.append(p)
                cs.append(self.scorer.contrib(t, p))
        return ts, ps, cs

    def _dense_eval(self, q: Query, ts, ps, cs, tree=None):
        """Exact top-k over one doc-indexed score vector. Each nonempty
        posting ``ps`` of the terms ``ts`` (ascending) adds, in order,
        its scorer's dense vector (stopword-grade terms, df > N/2) or
        its contributions ``cs`` scattered by doc id. Docs are unique
        within a posting and adding 0.0 where a doc lacks a term is
        IEEE-exact, so each doc's sum is bit-identical to sparse
        accumulation in the same order. The top-k is selected among
        the docs of ``_dense_keep``; every doc of a tree's mask holds a
        query term, and contributions are > 0, so without a tree the
        candidates are the docs with a score."""
        n = self.index.n_docs
        scores_d = np.zeros(n, dtype=np.float64)
        for t, p, c in zip(ts, ps, cs):
            if len(p.doc_ids) > n // 2:
                scores_d += self.scorer.dense(t, p)
            else:
                scores_d[p.doc_ids] += c
        keep = self._dense_keep(q, tree, dict(zip(ts, ps)))
        if keep is None:
            return _dense_topk(scores_d, q.k)
        if tree is None:  # a doc filter alone: keep scored docs only
            keep = keep & (scores_d > 0.0)
        cand = np.flatnonzero(keep)
        return _topk_select(cand, scores_d[cand], q.k)

    def _flat_eval(self, q: Query, ts, ps, cs):
        """Exhaustive exact top-k of a flat OR over the nonempty
        postings ``ps`` of the terms ``ts`` (ascending), with
        contributions ``cs``. Several postings holding a sizable share
        of the corpus go through ``_dense_eval``, which filters flags
        and the live mask with one doc mask; a lone posting is already
        unique and sorted, so it needs no accumulation at any size."""
        n = self.index.n_docs
        if len(ps) > 1 and _dense_worth(sum(len(p.doc_ids) for p in ps), n):
            return self._dense_eval(q, ts, ps, cs)
        if not self._filters(q):
            return _accumulate_topk([p.doc_ids for p in ps], cs, q.k, n)
        docs_l, con_l = [], []
        for p, c in zip(ps, cs):
            sel = np.flatnonzero(self._passes(p.doc_ids, q))
            if len(sel):  # a lone surviving term skips accumulation
                docs_l.append(p.doc_ids[sel])
                con_l.append(c[sel])
        return _accumulate_topk(docs_l, con_l, q.k, n)

    # ------------------------------------------ sparse tree evaluation
    def _est_size(self, node, ests: dict) -> int:
        """Upper-bound result-size estimate from segment dfs alone (no
        posting decode): Term -> df, Or -> sum, And -> min. ``ests`` is
        one query's memo (terms by key, other nodes by id), so routing
        and every And below it estimate each node once."""
        key = node.key if isinstance(node, Term) else id(node)
        est = ests.get(key)
        if est is None:
            if isinstance(node, Term):
                est = self.index.df_of(node.key)
            elif node is None or not node.children:
                est = 0
            else:
                sizes = [self._est_size(c, ests) for c in node.children]
                est = min(sizes) if isinstance(node, And) else sum(sizes)
            ests[key] = est
        return est

    def _member_mask(self, node, docs: np.ndarray) -> np.ndarray:
        """Mask over the sorted ``docs`` of those that match ``node``
        unfiltered (callers pass docs that passed the doc filters)."""
        if isinstance(node, Term):
            p = self.index.posting(node.key)
            if p is None or len(p.doc_ids) == 0:
                return np.zeros(len(docs), dtype=bool)
            return _find(p.doc_ids, docs)[0]
        if not node.children:
            return np.zeros(len(docs), dtype=bool)
        masks = (self._member_mask(c, docs) for c in node.children)
        red = np.logical_and if isinstance(node, And) else np.logical_or
        return functools.reduce(red, masks)

    # ----------------------------------------------------------- scoring
    def _term_contrib(
        self, term: str, cand: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray] | None:
        p = self.index.posting(term)
        # len == 0: _find needs a nonempty posting (builds write none;
        # tombstones mask docs, never postings)
        if p is None or len(p.doc_ids) == 0 or len(cand) == 0:
            return None
        hit, pos = _find(p.doc_ids, cand)
        if not hit.any():
            return None
        return cand[hit], self.scorer.contrib(term, p)[pos[hit]]

    def score(self, q: Query, cand: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        docs, contribs = [], []
        for term in collect_terms(q.tree):
            got = self._term_contrib(term, cand)
            if got is not None:
                docs.append(got[0])
                contribs.append(got[1])
        if len(docs) > 1 and all(len(d) == len(cand) for d in docs):
            # every term covers every candidate (the AND shape):
            # _term_contrib returned arrays aligned on cand, so the
            # per-doc sum is one elementwise add per term — same
            # ascending-term float order as the scatter path, no
            # dense re-accumulation
            scores = contribs[0].copy()
            for c in contribs[1:]:
                scores += c
            return _topk_select(cand, scores, q.k)
        return _accumulate_topk(docs, contribs, q.k, self.index.n_docs)

    def search(self, q: Query) -> tuple[np.ndarray, np.ndarray]:
        """Top-k (doc_ids, scores), rank-identical to the oracle. Flat
        ORs go to wand.block_max_topk; any other tree is routed once by
        its estimated result size (module docstring)."""
        if q.k < 0:
            # numpy [:k] with negative k keeps n-|k| rows (drops from
            # the END); a nonsensical k must yield zero hits, not n-1
            return np.empty(0, np.int64), np.empty(0, np.float64)
        terms = flat_or_terms(q.tree)
        if terms is not None:
            from quickray.wand import block_max_topk

            return block_max_topk(self, terms, q)
        node, ests = q.tree, {}
        est = self._est_size(node, ests)
        if _dense_worth(est, self.index.n_docs):
            self.last_path = ("dense", est)
            ts, ps, cs = self._scored_postings(collect_terms(node))
            return self._dense_eval(q, ts, ps, cs, node)
        self.last_path = ("sparse", est)
        return self.score(q, self._eval(node, q, ests))


class _GlobalDf:
    """Lazy corpus-global document frequency over the parts of a
    MultiPartEngine: per queried term, the live docs holding it, summed
    over the parts and cached (the cache grows with the DISTINCT queried
    terms, never the vocabulary; no merged whole-vocabulary dict is
    built). A part without tombstones answers with its stored segment
    df (``df_of``, no decode); a part with them counts the live docs of
    its posting. It is the df resolver of every part's Scorer
    (``get(term, default)``). A zero df means every doc holding the
    term is dead: it then scores with the posting's own length, and
    those contributions never reach a result."""

    def __init__(self, indexes: list[Index], lives: list[np.ndarray | None]):
        self._parts = list(zip(indexes, lives))
        self._cache: dict[str, int] = {}

    def get(self, term: str, default: int = 0) -> int:
        df = self._cache.get(term)
        if df is None:
            df = 0
            for ix, live in self._parts:
                if live is None:
                    df += ix.df_of(term)
                else:
                    p = ix.posting(term)
                    if p is not None:
                        df += int(np.count_nonzero(live[p.doc_ids]))
            self._cache[term] = df
        return df if df else default


def _decoded(labels: np.ndarray) -> np.ndarray:
    """Result labels as callers get them: fixed-width byte keys decode
    to str (only bounded result sets reach here), doc ids stay."""
    if labels.dtype.kind != "S":
        return labels
    return np.array([x.decode() for x in labels], dtype=object)


class MultiPartEngine:
    """Scatter-gather serving over the built parts of one logical
    corpus: quicker's one distributed design, where every worker holds
    its own index and the Sentinel broadcasts each query and merges the
    per-worker results (sentinel.go:137-187).

    Each part is an Index, a doc-indexed boolean ``live`` mask (False =
    tombstoned; None = all live) and a label function from part doc ids
    to result labels. Scoring uses corpus-GLOBAL statistics over the
    live docs: n_docs, avgdl from the parts' token totals less the dead
    docs' docmeta doc_len, and a lazy per-term df (``_GlobalDf``). Each
    part then scores, and filters the long-doc bit, as one build of the
    live corpus would. Labels
    (global doc ids, or 'repo\\x01path' keys) are monotone in key
    order, as a rebuild's dense doc ids are, so the global
    (-score, label) order restricted to a part preserves relative
    order: every global top-k doc survives its part's top-k, and the
    merge of per-part top-k is exact."""

    def __init__(
        self,
        indexes: list[Index],
        labels: list,
        lives: list[np.ndarray | None],
    ):
        n_live = tokens = 0
        for ix, live in zip(indexes, lives):
            dead = np.empty(0, np.int64) if live is None else np.flatnonzero(~live)
            n_live += ix.n_docs - len(dead)
            # also loads the docmeta doc_len and bits every query
            # gathers: no query pays a docmeta read
            tokens += ix.stats["total_tokens"] - int(ix.doc_lens(dead).sum())
        self.n_docs = n_live
        self.avgdl = tokens / max(1, n_live)
        df = _GlobalDf(indexes, lives)
        self.engines = [
            LocalEngine(ix, Scorer(ix, n_live, self.avgdl, df, live))
            for ix, live in zip(indexes, lives)
        ]
        self._labels = labels

    @property
    def field_cols(self) -> list[str]:
        """Indexed field-scoped columns (from the first part: parts of
        one logical index share a build config)."""
        return list(self.engines[0].index.stats.get("field_cols") or [])

    def search(self, q: Query) -> tuple[np.ndarray, np.ndarray]:
        """Top-k (labels, scores) over the live corpus: the merge of
        per-part top-k under (-score, label). Keys stay fixed-width
        bytes until the final top-k (\\x00 padding sorts first, so
        their byte order is the string order; concatenation widens to
        the widest part)."""
        labels, scores = [], []
        for e, label in zip(self.engines, self._labels):
            ids, sc = e.search(q)
            labels.append(label(ids))
            scores.append(sc)
        lab = np.concatenate(labels)
        s = np.concatenate(scores)
        order = np.lexsort((lab, -s))[: q.k]
        return _decoded(lab[order]), s[order]

    def candidates(self, q: Query) -> np.ndarray:
        """Boolean evaluation over the live corpus -> sorted labels
        (disjoint live doc sets: the bag union of per-part results)."""
        return _decoded(np.sort(np.concatenate(
            [label(e.candidates(q)) for e, label in zip(self.engines, self._labels)]
        )))

    def count(self, q: Query) -> int:
        """Live per-query result count, broadcast-and-sum across parts.
        The merge SHAPE matches the reference's Count RPC (sentinel.go:
        190-218 sums per-worker counts) — note the reference's Count()
        counts ALL forward-index docs (indexer.go:60-67), whereas this
        counts the query's live matches; no doc ids leave the parts."""
        return sum(len(e.candidates(q)) for e in self.engines)


class PartitionedEngine(MultiPartEngine):
    """Doc-sharded serving over independent partition builds.

    ``index_dirs`` are builds over contiguous (repo, path) key ranges of
    one corpus, in global key order; a part's doc ids are labelled
    partition base + local id, which equals the single-build dense
    rank, so results are rank- and score-identical to one global build
    (tested)."""

    def __init__(self, index_dirs: list[str]):
        idxs = [Index(d) for d in index_dirs]
        bases = np.cumsum([0] + [ix.n_docs for ix in idxs[:-1]])
        super().__init__(
            idxs, [functools.partial(np.add, int(b)) for b in bases],
            [None] * len(idxs),
        )


class QueryEngineActor:
    """map_batches stage: batch of query-JSON strings -> result rows.

    Index loaded once per actor (__init__), served per batch — the
    actor-pool analog of quicker's per-worker in-memory index + the
    Sentinel's scatter/gather (sentinel.go:137-187) with Ray doing the
    scheduling.

    mode="topk": each call answers queries completely (full index or a
    doc-disjoint shard). mode="contrib": term-sharded scatter — the
    actor loads only its `shards` and emits per-(query, doc) partial
    BM25 contributions for the terms it owns; a downstream
    groupby(query_id, doc_id).sum + per-query top-k is the gather
    (pipelines.sharded_reference_queries)."""

    def __init__(
        self,
        index_dir: str,
        shards: set[int] | None = None,
        preload_top_df: int = 64,
        mode: str = "topk",
        hydrate_cols: tuple[str, ...] = (),
        rounded_rank: bool = False,
        preload_bytes: int | None = 256 << 20,
    ):
        self.engine = LocalEngine(
            Index(index_dir, shards, preload_top_df, preload_bytes)
        )
        self.mode = mode
        self.rounded_rank = rounded_rank
        self.hydrate_cols = tuple(hydrate_cols)
        if self.hydrate_cols:
            # warm the dense forward-index arrays in __init__ so the
            # query path never reads parquet (BatchGet analog,
            # internal/kvdb/badger_db.go:113-142)
            self.engine.index.docmeta_arrays(self.hydrate_cols)

    def _contrib_rows(self, batch: pa.Table) -> pa.Table:
        from quickray.query import flat_or_terms

        # posting-sized outputs stay numpy until the final Arrow wrap
        # (a .tolist() here made one PyObject per posting entry)
        seg_qids: list[str] = []
        seg_lens: list[int] = []
        doc_parts: list[np.ndarray] = []
        score_parts: list[np.ndarray] = []
        for qjson in batch["query"].to_pylist():
            q = query_from_json(json.loads(qjson))
            terms = flat_or_terms(q.tree)
            if terms is None:
                raise ValueError("contrib mode serves flat OR queries only")
            for t in sorted(set(terms)):
                p = self.engine.index.posting(t)
                if p is None:
                    continue
                bits = self.engine.scorer.bits[p.doc_ids]
                m = flags_mask(bits, q.on_flag, q.off_flag, q.or_flags)
                d = p.doc_ids[m]
                # contribs are memoized by the scorer — repeated terms
                # across the query batch cost one gather each
                c = self.engine.scorer.contrib(t, p)[m]
                seg_qids.append(q.id)
                seg_lens.append(len(d))
                doc_parts.append(d)
                score_parts.append(c)
        qid_arr = np.repeat(
            np.array(seg_qids, dtype=object), np.array(seg_lens, dtype=np.int64)
        ) if seg_qids else np.empty(0, dtype=object)
        return pa.table(
            {
                "query_id": pa.array(qid_arr, pa.string()),
                "doc_id": pa.array(
                    np.concatenate(doc_parts)
                    if doc_parts else np.empty(0, np.int64),
                    pa.int64(),
                ),
                "partial": pa.array(
                    np.concatenate(score_parts)
                    if score_parts else np.empty(0, np.float64),
                    pa.float64(),
                ),
            }
        )

    def __call__(self, batch: pa.Table) -> pa.Table:
        if self.mode == "contrib":
            return self._contrib_rows(batch)
        qids, ranks, docs, scores = [], [], [], []
        for qjson in batch["query"].to_pylist():
            q = query_from_json(json.loads(qjson))
            if self.rounded_rank:
                # SQL-comparable ranking: score the FULL candidate set
                # (k widened -> no pruning shortcuts), then order by
                # (round(score, 4) DESC, doc_id) exactly like the DuckDB
                # oracle — near-ties become exact ties decided by doc_id
                # identically on both sides (util.topk_rounded).
                from dataclasses import replace

                from quickray.util import topk_rounded

                ids, sc = self.engine.search(replace(q, k=10**9))
                ids, sc = topk_rounded(ids, sc, q.k)
            else:
                ids, sc = self.engine.search(q)
            qids.extend([q.id] * len(ids))
            ranks.extend(range(1, len(ids) + 1))
            docs.extend(ids.tolist())
            scores.extend(sc.tolist())
        out = {
            "query_id": pa.array(qids, pa.string()),
            "rank": pa.array(ranks, pa.int64()),
            "doc_id": pa.array(docs, pa.int64()),
            "score": pa.array(scores, pa.float64()),
        }
        if self.hydrate_cols:
            meta = self.engine.index.hydrate(
                np.asarray(docs, dtype=np.int64), self.hydrate_cols
            )
            for c in self.hydrate_cols:
                vals = meta[c]
                # explicit Arrow type: an all-empty batch (every query
                # matched nothing) would otherwise emit a null-typed
                # column and break downstream block concatenation
                # (ArrowInvalid: 'repo: null vs repo: string')
                typ = (
                    pa.int64()
                    if np.issubdtype(vals.dtype, np.integer)
                    else pa.float64()
                    if np.issubdtype(vals.dtype, np.floating)
                    else pa.string()
                )
                out[c] = pa.array(vals.tolist(), typ)
        return pa.table(out)
