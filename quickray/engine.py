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
  served are the Index's own. It is the one place a query is routed,
  and one evaluator (Turtle & Flood, IP&M 1995) scores every query: it
  meets each query term once, in ascending order, over a doc universe.
  A flat OR or single term goes first to ``wand.block_max_topk``,
  which only decides whether to prune (under any scorer) and hands the
  kept blocks' postings to the evaluator, or else hands it back to be
  evaluated whole. A tree is routed once by its result-size estimate
  from segment dfs (Term -> df, And -> min, Or -> sum), a flat OR by
  its postings' summed lengths (scored, a lone posting stays sparse).
  Above ``n_docs // DENSE_DIVISOR`` the universe is every doc id: each
  term sets one boolean doc mask and adds its contributions into one
  doc-indexed score vector, and the flag filter is one mask over the
  scorer's bits (bits are doc-level, so this equals filtering at the
  leaves). Below it the universe is a sorted superset of the matches,
  filtered at its leaves (a Term's posting, an And's rarest child's
  universe, an Or's union). A term whose filtered posting lies in the
  universe (a leaf's own, carried through every union above it) marks
  and scores its known positions; any other term is binary-searched
  once, which gives both its mask and the positions of its
  contributions. Either way the tree is ``logical_and``/``logical_or``
  over the masks (an absent term is all-false) and the top-k is
  selected among the matching docs. A scored flat OR builds no masks:
  its matches are the docs with a score. Every universe adds the same
  terms in the same order and 0.0 where a doc lacks a term, so a doc's
  full score is bit-identical whichever route or prune decision ran.
  ``candidates`` and ``count`` evaluate the same tree unscored.
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
    meaningful where found and at most ``len(doc_ids)``: gather with
    ``take(pos, mode="clip")``)."""
    pos = np.searchsorted(doc_ids, docs)
    # a doc above every doc id clips onto the last one, a smaller doc id
    return doc_ids.take(pos, mode="clip") == docs, pos


def _tree_mask(node, masks: dict[str, np.ndarray], n: int) -> np.ndarray:
    """``node``'s matching docs as a boolean mask of length ``n`` over a
    doc universe, from the per-term ``masks`` over it (a term without
    one, and an empty And/Or, matches nothing)."""
    if isinstance(node, Term):
        if node.key in masks:
            return masks[node.key]
    elif node is not None and node.children:
        red = np.logical_and if isinstance(node, And) else np.logical_or
        return functools.reduce(red, (_tree_mask(c, masks, n) for c in node.children))
    return np.zeros(n, dtype=bool)


def _union(parts: list) -> tuple[np.ndarray, dict]:
    """An Or's doc universe from its children's (docs, hits) ``parts``
    (``LocalEngine._universe``): the sorted union of their docs, with
    every child's hits carried over by one ``searchsorted`` of its docs
    into the union, so a hit term is never searched."""
    if len(parts) == 1:
        return parts[0]
    docs = np.unique(np.concatenate([d for d, _ in parts]))
    hits = {}
    for d, h in parts:
        if h:
            at = np.searchsorted(docs, d)
            for t, (ix, pos) in h.items():
                hits[t] = (at if ix is None else at[ix], pos)
    return docs, hits


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


def _topk_matches(docs, keep, scores, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Top-k by (-score, doc_id) of the docs that ``keep`` marks in a
    doc universe (``docs``; None: every doc id), by ``scores`` over it.
    ``keep`` None marks every doc of a sparse universe and, over every
    doc id, the docs with a score (``_dense_topk``). Integer gathers: a
    boolean one over every doc id costs more. A partition down to the
    k-th value and its ties, then a lexsort of only those, is identical
    to a full sort."""
    if keep is not None:
        idx = np.flatnonzero(keep)
        docs, scores = idx if docs is None else docs[idx], scores[idx]
    elif docs is None:
        return _dense_topk(scores, k)
    if len(docs) > max(k, 0) > 0 and len(docs) > 4 * k:
        kth = np.partition(scores, len(scores) - k)[len(scores) - k]
        cand = scores >= kth  # k-th largest value + all ties
        docs, scores = docs[cand], scores[cand]
    order = np.lexsort((docs, -scores))[:k]
    return docs[order], scores[order]


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

    # ------------------------------------------------------ evaluation
    def _doc_filter(self, q: Query, docs: np.ndarray | None = None):
        """Mask of the live docs that pass ``q``'s flag filter, over the
        doc ids ``docs`` or (None) over every doc id; None when nothing
        is excluded. Over every doc it may be the stored ``live`` array
        itself: callers must not write to it."""
        live = self.live
        if q.has_flags:
            bits = self.scorer.bits
            keep = flags_mask(
                bits if docs is None else bits[docs],
                q.on_flag, q.off_flag, q.or_flags,
            )
            if live is not None:
                keep &= live if docs is None else live[docs]
            return keep
        if live is None or docs is None:
            return live
        return live[docs]

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

    def _universe(self, node, q: Query, ests: dict, ps: dict):
        """A sorted superset of ``node``'s matches whose docs all pass
        ``q``'s doc filter: a Term's filtered posting, an And's rarest
        child's universe (by ``_est_size``, memo ``ests``), an Or's
        ``_union`` of its children's; ``ps`` holds the query's postings
        by term. Returns (docs, hits): ``hits`` maps each term whose
        filtered docs all lie in ``docs`` to (their indexes in ``docs``,
        None for all of it; their positions in its posting, None for
        all of it), and such a term is never searched. A method, not a
        recursive closure: a closure that calls itself is a reference
        cycle holding the engine until a full collection."""
        if isinstance(node, Term):
            p = ps[node.key]
            if p is None:
                return np.empty(0, np.int64), {}
            keep = self._doc_filter(q, p.doc_ids)
            if keep is None:
                return p.doc_ids, {node.key: (None, None)}
            pos = np.flatnonzero(keep)
            return p.doc_ids[pos], {node.key: (None, pos)}
        if node is None or not node.children:
            return np.empty(0, np.int64), {}
        if isinstance(node, And):
            rarest = min(node.children, key=lambda c: self._est_size(c, ests))
            return self._universe(rarest, q, ests, ps)
        # a repeated child (Or(a, a)) adds nothing to the union
        kids = dict.fromkeys(node.children)
        return _union([self._universe(c, q, ests, ps) for c in kids])

    def _tree_eval(self, q: Query, ps: dict, tree, docs, scored: bool, hits: dict):
        """One pass over the postings ``ps`` (by term, ascending: the
        summation order) for the doc universe ``docs``: None is every
        doc id, a sorted array those docs (``_universe``). Each nonempty
        posting is met once. A term of ``hits`` (term -> its indexes in
        the universe, doc ids over every doc id, and its positions in
        its posting) marks and scores those and is never searched. Any
        other term, dense, marks its doc ids and adds its contributions
        there (its ``Scorer.dense`` vector when df > N/2); sparse, one
        ``_find`` gives its mask and the positions of its
        contributions, computed only for a term holding a doc of the
        universe (a cold scorer pays a BM25 pass and a global df).
        Returns (keep, scores): the float64 scores over the universe
        (None unless ``scored``; read-only, as they may be a memoized
        vector) and the mask over it of the docs that match ``tree``
        and pass ``q``'s doc filter, which a sparse universe and docs
        reached only through hits have passed. With no ``tree`` the
        matches are the docs holding a term: None over a sparse
        universe, and scored over every doc id, the docs with a score
        (None when the filter excludes nothing). Adding 0.0 where a doc
        lacks a term is IEEE-exact, so every universe gives each doc
        the same sum."""
        scorer = self.scorer
        n = self.index.n_docs if docs is None else len(docs)
        # the sums start as the first term's contributions over the
        # whole universe (0.0 + c is c), copied before anything adds to
        # a memoized vector
        scores, owned = None, False
        masks = {}
        for t, p in ps.items():
            if p is None or len(p.doc_ids) == 0:
                continue  # matches nothing, adds nothing
            hit = hits.get(t)
            if hit is not None or docs is None:
                # contributions c at universe indexes ix (None: all of
                # it); a dense term that is no hit scatters its posting
                ix, pos = hit or (p.doc_ids, None)
                if tree is not None:
                    masks[t] = m = np.zeros(n, dtype=bool)
                    m[slice(None) if ix is None else ix] = True
                if not scored or (pos is not None and not len(pos)):
                    continue
                if docs is None and pos is None and len(p.doc_ids) > n // 2:
                    ix, c, fresh = None, scorer.dense(t, p), False
                else:
                    c, fresh = scorer.contrib(t, p), pos is not None
                    if fresh:
                        c = c[pos]
            else:
                masks[t], pos = _find(p.doc_ids, docs)
                if not (scored and masks[t].any()):
                    continue
                c = scorer.contrib(t, p).take(pos, mode="clip")
                ix, c, fresh = None, np.where(masks[t], c, 0.0), True
            if scores is None and ix is None:
                scores, owned = c, fresh
                continue
            if not owned:
                scores = np.zeros(n) if scores is None else scores.copy()
                owned = True
            if ix is None:
                scores += c
            else:
                scores[ix] += c
        if scored and scores is None:
            scores = np.zeros(n)
        keep = None if tree is None else _tree_mask(tree, masks, n)
        if docs is None and len(hits) < len(ps):  # some term is no hit
            ok = self._doc_filter(q)
            if ok is not None:
                keep = ok & (scores > 0.0) if keep is None else keep & ok
        return keep, scores

    def _match(self, q: Query, scored: bool = False, ps: dict | None = None):
        """``q``'s tree evaluated once, routed once (module docstring):
        (docs, keep, scores, path). ``ps`` holds the query's postings by
        term, ascending (fetched here unless given). ``docs`` is the doc
        universe (None: every doc id), ``keep`` and ``scores`` as
        ``_tree_eval``'s, and ``path`` a tree's route and estimate (None
        for a flat OR, routed by its distinct postings' summed lengths).
        A flat OR builds no masks when scored (its matches are the docs
        with a score) or sparse (its universe holds only matches).
        Unscored, a lone term's universe is its whole posting and
        ``keep`` the doc filter over it: ``count`` builds no doc
        array."""
        node, ests = q.tree, {}
        if isinstance(node, Term) and not scored:
            # a lone term's matches: its posting under the doc filter
            p = self.index.posting(node.key)
            docs = np.empty(0, np.int64) if p is None else p.doc_ids
            return docs, self._doc_filter(q, docs), None, None
        if ps is None:
            ps = {t: self.index.posting(t) for t in collect_terms(node)}
        flat = flat_or_terms(node) is not None
        n = self.index.n_docs
        if flat:
            sizes = [len(p.doc_ids) for p in ps.values() if p is not None]
            path = None
            dense = (len(sizes) > 1 or not scored) and _dense_worth(sum(sizes), n)
        else:
            est = self._est_size(node, ests)
            dense = _dense_worth(est, n)
            path = ("dense" if dense else "sparse", est)
        docs, hits = None, {}
        if not dense:
            docs, hits = self._universe(node, q, ests, ps)
        tree = None if flat and (scored or not dense) else node
        keep, scores = self._tree_eval(q, ps, tree, docs, scored, hits)
        return docs, keep, scores, path

    def candidates(self, q: Query) -> np.ndarray:
        """Boolean evaluation -> sorted doc_id array: the docs that
        match ``q``'s tree (AND = intersection, J2; OR = union, J3) and
        pass its flag filter (M3) and the live mask. A lone term's set
        is its filtered posting."""
        docs, keep, _, _ = self._match(q)
        if docs is None:
            return np.flatnonzero(keep)
        return docs if keep is None else docs[keep]

    def count(self, q: Query) -> int:
        """``len(candidates(q))`` without building the doc array: the
        matching docs' mask counted, or a sparse universe's size when
        it holds only matches."""
        docs, keep, _, _ = self._match(q)
        return len(docs) if keep is None else int(np.count_nonzero(keep))

    def score(self, q: Query, cand: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Top-k of the docs of the sorted ``cand`` that match ``q``'s
        tree, by their BM25 scores; ``cand`` is taken as already
        passing the doc filter (recall.Searcher's survivors)."""
        ps = {t: self.index.posting(t) for t in collect_terms(q.tree)}
        keep, scores = self._tree_eval(q, ps, q.tree, cand, True, {})
        return _topk_matches(cand, keep, scores, q.k)

    def search(self, q: Query) -> tuple[np.ndarray, np.ndarray]:
        """Top-k (doc_ids, scores), rank-identical to the oracle. Flat
        ORs go to wand.block_max_topk, which prunes or hands them back
        to ``_match``; any other tree is routed once by its estimated
        result size (module docstring)."""
        if q.k < 0:
            # numpy [:k] with negative k keeps n-|k| rows (drops from
            # the END); a nonsensical k must yield zero hits, not n-1
            return np.empty(0, np.int64), np.empty(0, np.float64)
        terms = flat_or_terms(q.tree)
        if terms is not None:
            from quickray.wand import block_max_topk

            return block_max_topk(self, terms, q)
        docs, keep, scores, self.last_path = self._match(q, scored=True)
        return _topk_matches(docs, keep, scores, q.k)


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
        return sum(e.count(q) for e in self.engines)


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
        eng = self.engine
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
                p = eng.index.posting(t)
                if p is None:
                    continue
                # contribs are memoized by the scorer — repeated terms
                # across the query batch cost one gather each
                d, c = p.doc_ids, eng.scorer.contrib(t, p)
                keep = eng._doc_filter(q, d)
                if keep is not None:
                    sel = np.flatnonzero(keep)
                    d, c = d[sel], c[sel]
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
