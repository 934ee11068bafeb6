"""Query engines over built posting segments (SURVEY.md §7.5).

- ``Index``: loads a build's segments + stats once (the ST1 "state
  loaded once per worker" mapping — in Ray terms this lives in an
  actor's __init__).
- ``Scorer``: BM25 under one engine's fixed statistics, memoizing each
  term's contribution vector (LRU-bounded). An Index owns one for its
  own statistics; engines with corpus-global statistics (Partitioned-,
  DeltaEngine parts) get their own and memoize just the same.
- ``LocalEngine``: boolean set algebra bit-identical to quicker's
  skiplist semantics (IntersectionOfSkipList/UnionOfSkipList + flag
  filter, skiplist_reverse_index.go:77-206) + exact BM25 top-k. Flat
  OR and single-term shapes take one entry (wand.py) on every engine;
  block-max pruning runs there only under the index's own scorer.
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
from dataclasses import dataclass

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq

from quickray.codec import decode_postings, varint_decode
from quickray.query import (
    And,
    Or,
    Query,
    Term,
    collect_terms,
    flat_or_terms,
    query_from_json,
)
from quickray.scoring import bm25_contrib, flags_mask


@dataclass
class Posting:
    doc_ids: np.ndarray
    tfs: np.ndarray
    dls: np.ndarray
    bits: np.ndarray
    df: int
    block_last: np.ndarray
    block_max: np.ndarray


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


class Scorer:
    """BM25 under one fixed set of statistics: ``n_docs``, ``avgdl`` and
    a df resolver (``df.get(term, posting_df)``; None scores with each
    posting's own stored df). An engine's statistics never change, so
    each term's full per-posting contribution vector — and, for
    stopword-grade terms, its dense doc_id-indexed vector — is computed
    once and memoized HERE, per scorer: two engines over one Index with
    different statistics never see each other's contributions. Both
    memos are recency-evicting and capped at the index's posting-LRU
    capacity.

    ``Index.scorer`` is the index's own (its stored df, n_docs, avgdl):
    the only statistics its merge-time block bounds were computed
    under, so the only scorer block-max pruning may serve (wand.py)."""

    def __init__(self, index, n_docs: int, avgdl: float, df=None):
        # weak: the own scorer is an attribute of its index, and a strong
        # back-reference would make a cycle that keeps every dropped
        # Index (segments, posting LRU) alive until a full GC pass
        self._index = weakref.proxy(index)
        self.n_docs = n_docs
        self.avgdl = avgdl
        self._df = df
        self._contrib: OrderedDict[str, np.ndarray] = OrderedDict()
        self._dense: OrderedDict[str, np.ndarray] = OrderedDict()

    def contrib(self, term: str, p: Posting) -> np.ndarray:
        """Exact BM25 contribution of every posting of ``term`` (``p`` is
        the index's posting for it), aligned with ``p.doc_ids``."""

        def make():
            df = p.df if self._df is None else self._df.get(term, p.df)
            return bm25_contrib(p.tfs, p.dls, df, self.n_docs, self.avgdl)

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


class Index:
    """In-memory view of one build's segments. At multi-node scale each
    query actor would load only its term-hash shards (the `shard`
    column written at merge time); single-node tests load everything."""

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
        filters = [("shard", "in", sorted(shards))] if shards is not None else None
        self._seg = pq.read_table(
            os.path.join(out_dir, "segments"), filters=filters
        )
        # term lookup = binary search over a sorted VIEW of the segment
        # term column (one int64 permutation array + O(log V) bounded
        # .as_py() per probe) — never a vocabulary-sized Python dict
        # per engine (a 10^8-term vocab would be GBs of PyObjects)
        tcol = self._seg["term"]
        self._term_col = (
            tcol.combine_chunks() if isinstance(tcol, pa.ChunkedArray) else tcol
        )
        self._tsort = np.asarray(
            pc.sort_indices(self._term_col), dtype=np.int64
        )
        # decoded-posting LRU (recency eviction — a fill-once cap would
        # stop caching new hot terms on large-vocab serving)
        self._cache: OrderedDict[str, Posting | None] = OrderedDict()
        self._cache_cap = 4096
        self.scorer = Scorer(self, self.n_docs, self.avgdl)
        if preload_top_df or preload_bytes:
            # decode the heaviest postings once at load time (serving
            # actors pay this in __init__, never on the query path).
            # preload_bytes widens the fixed top-N ADAPTIVELY: preload
            # in descending-df order until the estimated DECODED size
            # (4 int64 arrays ≈ 32 B/posting) reaches the budget — a
            # cold ~1M-posting hot term otherwise costs ~170 ms on the
            # first query that touches it (the r02 p95 tail).
            df = np.asarray(self._seg["df"], dtype=np.int64)
            order = np.argsort(-df)
            n_pre = int(preload_top_df)
            if preload_bytes is not None:
                # decoded posting ≈ 4 int64 arrays + memoized contrib
                # float64 = 40 B/posting
                cum = np.cumsum(df[order]) * 40
                n_pre = max(
                    n_pre,
                    int(np.searchsorted(cum, preload_bytes, side="right")),
                )
            n_pre = min(n_pre, len(order))
            self._cache_cap = max(self._cache_cap, 2 * n_pre)
            for i in order[:n_pre]:
                # the row index is already in hand — decode directly
                # instead of re-resolving each term through the
                # O(log V) binary search (at preload_bytes scale that
                # search cost alone dominated actor __init__)
                term = self._term_col[int(i)].as_py()
                p = self._posting_at(int(i))
                self._cache[term] = p  # n_pre <= cap / 2: no eviction
                # pre-warm the own scorer's contributions too — a cold
                # first query then pays neither decode nor scoring
                self.scorer.contrib(term, p)
                if len(p.doc_ids) > self.n_docs // 2:
                    self.scorer.dense(term, p)
            try:
                # the dense-eval flag path reads doc-level bits once —
                # pay that here, not on the first flagged query
                self.docmeta_arrays(("bits",))
            except (OSError, KeyError, pa.ArrowInvalid):
                # builds without a docmeta bits column: pyarrow raises
                # ArrowInvalid (a ValueError subclass) for a missing
                # parquet column, not KeyError
                pass

    def df_of(self, term: str) -> int:
        """Segment df without decoding the posting — O(log V) probe.
        Used to order AND-child evaluation by estimated size."""
        i = self._term_index(term)
        return 0 if i is None else int(self._seg["df"][i].as_py())

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

    def _posting_at(self, i: int) -> Posting:
        """Decode the posting stored at segment row ``i`` (callers that
        already hold the row index — preload — skip the binary search
        entirely)."""
        return Posting(
            doc_ids=decode_postings(self._seg["postings"][i].as_py()),
            tfs=varint_decode(self._seg["tfs"][i].as_py()),
            dls=varint_decode(self._seg["dls"][i].as_py()),
            bits=varint_decode(self._seg["bitsv"][i].as_py()),
            df=self._seg["df"][i].as_py(),
            block_last=np.asarray(self._seg["block_last"][i].as_py(), np.int64),
            block_max=np.asarray(self._seg["block_max"][i].as_py(), np.float64),
        )

    def posting(self, term: str) -> Posting | None:
        def decode():
            i = self._term_index(term)
            return None if i is None else self._posting_at(i)

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
        hydration after the first call reads no parquet."""
        cache = getattr(self, "_docmeta_cache", None)
        if cache is None:
            cache = {}
            self._docmeta_cache = cache
        missing = [c for c in cols if c not in cache]
        if missing:
            dm = pq.read_table(
                os.path.join(self.out_dir, "docmeta"),
                columns=["doc_id"] + missing,
            )
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
        return {c: cache[c] for c in cols}

    def keys_by_id(self) -> np.ndarray:
        """Dense doc_id -> 'repo\\x01path' key array as fixed-width
        bytes ('S{w}', \\x00-padded so padded order == string order) —
        probe/tombstone-match with numpy byte compares; decode only
        bounded final results."""
        cache = getattr(self, "_keys_by_id", None)
        if cache is None:
            from quickray.tokenize import _fixed_bytes

            dm = pq.read_table(
                os.path.join(self.out_dir, "docmeta"),
                columns=["doc_id", "repo", "path"],
            )
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
    n_docs: int | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Sum per-term contributions per doc (term-sorted input order ->
    deterministic float summation) and return top-k by (-score, doc_id).

    With dense ids (n_docs known) accumulation is one C-speed bincount
    over a doc-indexed array and top-k is partition-select + a lexsort
    of only the k-and-ties candidates — exact same result as the full
    sort (both paths sum in order of appearance = ascending term)."""
    if not doc_arrays:
        return np.empty(0, np.int64), np.empty(0, np.float64)
    total = sum(len(d) for d in doc_arrays)
    if len(doc_arrays) == 1:
        # single posting list: docs are already unique and sorted — no
        # accumulation needed at all
        uniq, scores = doc_arrays[0], contrib_arrays[0]
    elif n_docs is not None and total > n_docs // 16:
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
    def __init__(self, index: Index, global_stats: dict | None = None):
        """Scores with ``index.scorer`` — the index's own statistics,
        shared by every engine over that index. ``global_stats``
        overrides the statistics when this index is one part of a
        larger corpus (PartitionedEngine doc-shards, DeltaEngine live
        parts): keys n_docs, avgdl, df (term -> corpus-wide df). BM25
        then scores part-local postings with corpus-global idf/avgdl,
        which is what makes scatter results equal a single global build.
        The engine gets its own Scorer for those statistics, with the
        same memoized contributions and the same flat-OR entry
        (wand.block_max_topk); only block-max pruning is reserved to the
        index's own scorer."""
        self.index = index
        if global_stats is None:
            # boolean evaluation needs only posting()/df_of(): an index
            # without a scorer of its own can still serve candidates()
            self.scorer = getattr(index, "scorer", None)
        else:
            self.scorer = Scorer(
                index,
                int(global_stats.get("n_docs", index.n_docs)),
                float(global_stats.get("avgdl", index.avgdl)),
                global_stats.get("df") or None,
            )

    # ------------------------------------------------------- set algebra
    def _leaf(self, term: str, q: Query) -> np.ndarray:
        p = self.index.posting(term)
        if p is None:
            return np.empty(0, np.int64)
        if q.on_flag == 0 and q.off_flag == 0 and not any(q.or_flags):
            return p.doc_ids
        return p.doc_ids[flags_mask(p.bits, q.on_flag, q.off_flag, q.or_flags)]

    def candidates(self, q: Query) -> np.ndarray:
        """Boolean evaluation — sorted doc_id array. AND = sorted-list
        intersection (J2), OR = sorted union (J3); flags filter at the
        leaf scan exactly like the reference (M3)."""
        return self._eval(q.tree, q)

    def _eval(self, node, q: Query) -> np.ndarray:
        # a method, not a recursive closure: a closure that calls itself
        # is a reference cycle holding the engine (and its memos) until
        # the next full garbage collection
        if node is None:
            return np.empty(0, np.int64)
        if isinstance(node, Term):
            return self._leaf(node.key, q)
        if not node.children:
            return np.empty(0, np.int64)
        parts = [self._eval(c, q) for c in node.children]
        if isinstance(node, And):
            # smallest-first searchsorted intersection: O(m log n)
            # per step instead of intersect1d's sort-of-concat
            parts.sort(key=len)
            out = parts[0]
            for p in parts[1:]:
                if len(out) == 0:
                    return out
                li = np.searchsorted(p, out)
                li_c = np.minimum(li, len(p) - 1)
                out = out[(li < len(p)) & (p[li_c] == out)]
            return out
        return functools.reduce(np.union1d, parts)

    # ------------------------------------------- AND-shaped fast path
    def _est_size(self, node) -> int:
        """Upper-bound result-size estimate from segment dfs alone (no
        posting decode): Term -> df, Or -> sum, And -> min."""
        if isinstance(node, Term):
            return self.index.df_of(node.key)
        if not node.children:
            return 0
        ests = [self._est_size(c) for c in node.children]
        return min(ests) if isinstance(node, And) else sum(ests)

    def _member_pos(
        self, term: str, docs: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """(membership mask over ``docs``, posting positions of the
        hits). Flags are NOT re-applied — bits are doc-level, so any
        seed result that passed the flag filter stays valid."""
        p = self.index.posting(term)
        if p is None or len(p.doc_ids) == 0:
            z = np.zeros(len(docs), dtype=bool)
            return z, np.empty(0, np.int64)
        li = np.searchsorted(p.doc_ids, docs)
        li_c = np.minimum(li, len(p.doc_ids) - 1)
        hit = (li < len(p.doc_ids)) & (p.doc_ids[li_c] == docs)
        return hit, li_c[hit]

    def _member_mask(self, node, docs: np.ndarray) -> np.ndarray:
        if isinstance(node, Term):
            return self._member_pos(node.key, docs)[0]
        if not node.children:
            return np.zeros(len(docs), dtype=bool)
        masks = (self._member_mask(c, docs) for c in node.children)
        red = np.logical_and if isinstance(node, And) else np.logical_or
        return functools.reduce(red, masks)

    def _root_and_eval(
        self, q: Query
    ) -> tuple[np.ndarray, dict[str, np.ndarray]] | None:
        """Evaluate a root-AND query smallest-child-first: the smallest
        child (by segment-df estimate, no decode) is evaluated exactly
        (with flags), every other child becomes a binary-search
        membership filter over that seed — no large intersections or
        unions are ever materialized. Term children additionally record
        their posting positions so scoring is a pure contrib gather.
        Returns (candidates, {term: positions aligned with candidates})
        or None when the tree is not an AND."""
        node = q.tree
        if not isinstance(node, And) or not node.children:
            return None
        order = sorted(
            range(len(node.children)),
            key=lambda i: self._est_size(node.children[i]),
        )
        seed = node.children[order[0]]
        out = LocalEngine.candidates(
            self, Query(tree=seed, on_flag=q.on_flag, off_flag=q.off_flag,
                        or_flags=q.or_flags, k=q.k)
        )
        pos_memo: dict[str, np.ndarray] = {}
        if isinstance(seed, Term) and len(out):
            pos_memo[seed.key] = self._member_pos(seed.key, out)[1]
        for i in order[1:]:
            if len(out) == 0:
                return out, {}
            c = node.children[i]
            if isinstance(c, Term):
                mask, pos = self._member_pos(c.key, out)
                pos_memo[c.key] = pos
            else:
                mask = self._member_mask(c, out)
            out = out[mask]
            for t in list(pos_memo):
                if t != (c.key if isinstance(c, Term) else None):
                    pos_memo[t] = pos_memo[t][mask]
        return out, pos_memo

    # ----------------------------------------------------------- scoring
    def _term_contrib(
        self, term: str, cand: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray] | None:
        p = self.index.posting(term)
        # len == 0: a posting can exist yet be empty (fully-tombstoned
        # term under delta serving, delta._MaskedIndex) — without the
        # guard, doc_ids[minimum(li, -1)] below raises IndexError
        if p is None or len(p.doc_ids) == 0 or len(cand) == 0:
            return None
        li = np.searchsorted(p.doc_ids, cand)
        li_c = np.minimum(li, len(p.doc_ids) - 1)
        hit = (li < len(p.doc_ids)) & (p.doc_ids[li_c] == cand)
        if not hit.any():
            return None
        return cand[hit], self.scorer.contrib(term, p)[li_c[hit]]

    def score(
        self,
        q: Query,
        cand: np.ndarray,
        pos_memo: dict[str, np.ndarray] | None = None,
    ) -> tuple[np.ndarray, np.ndarray]:
        docs, contribs = [], []
        for term in collect_terms(q.tree):
            if pos_memo is not None and term in pos_memo:
                # positions already found during AND evaluation —
                # contrib is a pure gather, docs align with cand
                p = self.index.posting(term)
                c = self.scorer.contrib(term, p)[pos_memo[term]]
                got = (cand, c)
            else:
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
        """Top-k (doc_ids, scores), rank-identical to the oracle."""
        if q.k < 0:
            # numpy [:k] with negative k keeps n-|k| rows (drops from
            # the END); a nonsensical k must yield zero hits, not n-1
            return np.empty(0, np.int64), np.empty(0, np.float64)
        terms = flat_or_terms(q.tree)
        if terms is not None:
            from quickray.wand import block_max_topk

            return block_max_topk(self, terms, q)
        got = self._root_and_eval(q)
        if got is not None:
            cand, pos_memo = got
            return self.score(q, cand, pos_memo)
        return self.score(q, self.candidates(q))

    def search_df(self, q: Query):
        ids, scores = self.search(q)
        return pa.table(
            {
                "rank": np.arange(1, len(ids) + 1, dtype=np.int64),
                "doc_id": ids,
                "score": scores,
            }
        )


class _SummedDf:
    """Lazy corpus-global document frequency over partition indexes:
    per queried term, sum each partition's stored segment df (one
    O(log V) probe per partition). Quacks like the dict LocalEngine's
    global-stats override expects; the cache is bounded by the number
    of DISTINCT queried terms, not the vocabulary."""

    def __init__(self, indexes: list["Index"]):
        self._ixs = indexes
        self._cache: dict[str, int] = {}

    def get(self, term: str, default: int = 0) -> int:
        df = self._cache.get(term)
        if df is None:
            df = 0
            for ix in self._ixs:
                i = ix._term_index(term)
                if i is not None:
                    df += int(ix._seg["df"][i].as_py())
            self._cache[term] = df
        return df if df else default


class PartitionedEngine:
    """Doc-sharded distributed serving — the reference's actual model
    (farmhash doc-sharding + Sentinel broadcast/merge, sentinel.go:
    137-187) realized over independent partition builds.

    ``index_dirs`` are builds over contiguous (repo, path) key ranges of
    one corpus, in global key order; global doc_id = partition base +
    local id then equals the single-build dense rank. Scoring uses
    corpus-GLOBAL statistics (N, avgdl, per-term df summed across
    partitions) injected into each partition engine, so results are
    rank- and score-identical to one global build (tested). Each
    partition's search is the per-worker evaluation; the merge of
    per-partition top-k under the shared (-score, doc_id) order is the
    Sentinel gather — correct because the global order restricted to a
    partition preserves relative order, so every global top-k doc
    survives its partition's top-k."""

    def __init__(self, index_dirs: list[str]):
        idxs = [Index(d) for d in index_dirs]
        counts = [ix.n_docs for ix in idxs]
        self.bases = np.concatenate(([0], np.cumsum(counts[:-1]))).astype(np.int64)
        n_docs = int(sum(counts))
        total_tokens = int(sum(ix.stats["total_tokens"] for ix in idxs))
        g = {
            "n_docs": n_docs,
            "avgdl": total_tokens / max(1, n_docs),
            # corpus-wide df resolved LAZILY per queried term (probe +
            # sum over partitions, cached) — never a merged whole-
            # vocabulary Python dict on the construction path (r02
            # scale finding: 10^8-10^9 terms would be driver GBs)
            "df": _SummedDf(idxs),
        }
        self.engines = [LocalEngine(ix, global_stats=g) for ix in idxs]
        self.n_docs = n_docs
        self.avgdl = g["avgdl"]

    def candidates(self, q: Query) -> np.ndarray:
        """Boolean evaluation across partitions (disjoint doc sets ->
        bag union of per-partition results, sentinel.go:137-187)."""
        return np.concatenate(
            [e.candidates(q) + b for e, b in zip(self.engines, self.bases)]
        )

    def search(self, q: Query) -> tuple[np.ndarray, np.ndarray]:
        docs, scores = [], []
        for e, b in zip(self.engines, self.bases):
            ids, sc = e.search(q)
            docs.append(ids + b)
            scores.append(sc)
        d = np.concatenate(docs)
        s = np.concatenate(scores)
        order = np.lexsort((d, -s))[: q.k]
        return d[order], s[order]

    def count(self, q: Query) -> int:
        """Per-query result count, broadcast-and-sum across partitions.
        The merge SHAPE matches the reference's Count RPC (sentinel.go:
        190-218 sums per-worker counts) — note the reference's Count()
        counts ALL forward-index docs (indexer.go:60-67), whereas this
        counts the query's matches; no doc_ids leave the partitions."""
        return sum(len(e.candidates(q)) for e in self.engines)


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
                m = flags_mask(p.bits, q.on_flag, q.off_flag, q.or_flags)
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
