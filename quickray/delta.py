"""Delta + tombstone serving over built indexes (SURVEY.md §2.7).

The batch answer to the reference's mutable AddDoc/DeleteDoc serving
(index_service/indexer.go:70-124, gRPC surface index_service.go:89-106):
serve (main ∪ delta) − tombstones through already-built index
partitions WITHOUT rebuilding untouched partitions. A small delta
corpus is indexed on its own (a normal, fast `build_index` run); a
deleted-key set tombstones main-index docs at query time.

Score identity with a from-scratch rebuild over the live corpus:

- n_docs / avgdl: corrected exactly from the tombstoned docs' docmeta
  doc_len (the forward index knows |d| for every removed doc).
- per-term df: corrected lazily at query time — each partition's
  posting is masked against its tombstoned doc_ids, and live df is the
  sum of masked posting lengths (exactly the count of live docs
  containing the term). No stored statistic goes stale.
- tie-break: a rebuild orders by (-score, doc_id) where doc_id is the
  dense (repo, path) rank; ranks are monotone in key order, so sorting
  by (-score, key) here reproduces the rebuild's order exactly.

Results are therefore keyed by `repo\\x01path` (doc_id spaces of
independent builds don't align); `tests/test_delta.py` asserts
(key, score) identity with a from-scratch rebuild through the full
add -> search -> delete -> search -> re-add(update) lifecycle
(indexer_test.go:56-185 analog).
"""

from __future__ import annotations

from collections import OrderedDict

import numpy as np

from quickray.engine import Index, LocalEngine, Posting, _lru_fetch
from quickray.query import Query


class _MaskedIndex:
    """Read-through view of an Index with tombstoned doc_ids removed
    from every posting. The tombstone set is fixed at construction, so
    each term's masked posting is computed once (one vectorized isin)
    and memoized, bounded by the underlying posting-LRU capacity.

    Masked postings carry no block-max metadata: the merge-time bounds
    describe the unmasked posting under the index's own statistics, and
    a view has no own scorer, so block-max pruning never serves it."""

    def __init__(self, index: Index, tomb_ids: np.ndarray):
        self._ix = index
        self._tomb = np.sort(np.asarray(tomb_ids, dtype=np.int64))
        self._memo: OrderedDict[str, Posting | None] = OrderedDict()
        self.n_docs = index.n_docs  # id-space size (dense-array bound)
        self.avgdl = index.avgdl
        self.stats = index.stats
        self.out_dir = index.out_dir

    @property
    def _cache_cap(self) -> int:
        return self._ix._cache_cap

    def posting(self, term: str) -> Posting | None:
        if len(self._tomb) == 0:
            return self._ix.posting(term)
        return _lru_fetch(
            self._memo, term, self._cache_cap, lambda: self._mask(term)
        )

    def _mask(self, term: str) -> Posting | None:
        p = self._ix.posting(term)
        if p is None:
            return p
        live = ~np.isin(p.doc_ids, self._tomb, assume_unique=True)
        if live.all():
            return p
        return Posting(
            doc_ids=p.doc_ids[live],
            tfs=p.tfs[live],
            dls=p.dls[live],
            bits=p.bits[live],
            df=int(live.sum()),
            block_last=np.empty(0, np.int64),
            block_max=np.empty(0, np.float64),
        )

    def doc_lens(self, doc_ids: np.ndarray) -> np.ndarray:
        return self._ix.doc_lens(doc_ids)

    def docmeta_arrays(self, cols: tuple[str, ...]) -> dict[str, np.ndarray]:
        # doc-level columns are per doc_id, tombstoned or not
        return self._ix.docmeta_arrays(cols)

    def df_of(self, term: str) -> int:
        # AND-ordering estimate only: the unmasked df upper-bounds the
        # live df, which is all the size ordering needs
        return self._ix.df_of(term)


class _LiveDf:
    """Lazy per-term live document frequency: sum of tombstone-masked
    posting lengths across all live parts. Quacks like the dict
    LocalEngine expects for its global-df override; computed once per
    term per engine instance, then cached."""

    def __init__(self, indexes: list[_MaskedIndex | Index]):
        self._ixs = indexes
        self._cache: dict[str, int] = {}

    def get(self, term: str, default: int = 0) -> int:
        df = self._cache.get(term)
        if df is None:
            df = 0
            for ix in self._ixs:
                p = ix.posting(term)
                if p is not None:
                    df += len(p.doc_ids)
            self._cache[term] = df
        return df


def _tomb_ids_for(ix: Index, tomb_keys: set[bytes]) -> np.ndarray:
    """doc_ids of ``ix`` whose 'repo\\x01path' key is tombstoned —
    fixed-width byte compare, no per-doc Python objects."""
    if not tomb_keys:
        return np.empty(0, np.int64)
    keys = ix.keys_by_id()  # dense 'S{w}' array
    w = keys.dtype.itemsize
    # a tomb key longer than this partition's key width cannot match
    cand = sorted(k for k in tomb_keys if len(k) <= w)
    if not cand:
        return np.empty(0, np.int64)
    tomb_arr = np.array(cand, dtype=f"S{w}")
    return np.flatnonzero(np.isin(keys, tomb_arr)).astype(np.int64)


class DeltaEngine:
    """Serve (main ∪ deltas) − tombstones with rebuild-identical scores.

    Parameters
    ----------
    main_dirs : built index dirs (one, or build_partitioned's parts)
    delta_dir : one index dir, or an ORDERED list of index dirs, built
        over added/updated doc batches
    deleted_keys : iterable of 'repo\\x01path' keys removed from the
        corpus; deletions apply last (after every delta batch).

    Ordering contract for conflicting batches (the reference's AddDoc
    upsert is delete-then-insert under an atomic counter, so the last
    write wins, index_service/indexer.go:70-97): delta batches apply in
    LIST ORDER after main, and a key occurring in a later batch
    supersedes — tombstones — every earlier occurrence of that key, in
    main and in earlier deltas alike. deleted_keys only needs the true
    deletions; add/update supersession is automatic.
    """

    def __init__(
        self,
        main_dirs: list[str],
        delta_dir: str | list[str] | None = None,
        deleted_keys=(),
    ):
        delta_dirs = (
            []
            if not delta_dir
            else [delta_dir] if isinstance(delta_dir, str) else list(delta_dir)
        )
        self._main = [Index(d) for d in main_dirs]
        self._deltas = [Index(d) for d in delta_dirs]
        # tombstone keys as BYTES (matching the fixed-width key probes);
        # bounded: deletions + the delta corpora, small by design
        del_keys = {
            k.encode() if isinstance(k, str) else bytes(k)
            for k in deleted_keys
        }
        delta_keys = [set(ix.keys_by_id().tolist()) for ix in self._deltas]

        # per-index shadow sets: main is shadowed by every delta batch +
        # deletions; delta batch i only by LATER batches + deletions
        main_shadow = set(del_keys)
        for ks in delta_keys:
            main_shadow |= ks
        shadows = [main_shadow] * len(self._main)
        for i in range(len(self._deltas)):
            s = set(del_keys)
            for ks in delta_keys[i + 1 :]:
                s |= ks
            shadows.append(s)

        masked: list[_MaskedIndex] = []
        n_tomb = 0
        tomb_tokens = 0
        for ix, shadow in zip(self._main + self._deltas, shadows):
            tomb_ids = _tomb_ids_for(ix, shadow)
            n_tomb += len(tomb_ids)
            if len(tomb_ids):
                dl = ix.docmeta_arrays(("doc_len",))["doc_len"]
                tomb_tokens += int(dl[tomb_ids].sum())
            masked.append(_MaskedIndex(ix, tomb_ids))
        parts: list[_MaskedIndex] = masked
        n_live = sum(ix.n_docs for ix in self._main + self._deltas) - n_tomb
        tokens_live = (
            sum(ix.stats["total_tokens"] for ix in self._main + self._deltas)
            - tomb_tokens
        )
        self.n_docs = n_live
        self.avgdl = tokens_live / max(1, n_live)
        g = {"n_docs": n_live, "avgdl": self.avgdl, "df": _LiveDf(parts)}
        self.engines = [LocalEngine(ix, global_stats=g) for ix in parts]
        self._part_keys = [ix._ix.keys_by_id() for ix in parts]

    @property
    def field_cols(self) -> list[str]:
        """Indexed field-scoped columns (from the first main index —
        parts of one logical index share a build config)."""
        return list(self._main[0].stats.get("field_cols") or [])

    def search(self, q: Query) -> tuple[np.ndarray, np.ndarray]:
        """Top-k (keys, scores) over the live corpus. Every global
        top-k doc survives its partition's top-k (the global
        (-score, key) order restricted to a partition preserves
        relative order), so the merge of per-partition top-k is exact.
        Keys stay fixed-width bytes internally (\\x00-padded order ==
        string order) and decode to str only for the returned top-k."""
        keys, scores = [], []
        for eng, part_keys in zip(self.engines, self._part_keys):
            ids, sc = eng.search(q)
            keys.append(part_keys[ids])
            scores.append(sc)
        # widths differ across partitions: promote to the widest so
        # concatenate doesn't truncate
        w = max(a.dtype.itemsize for a in keys)
        k = np.concatenate([a.astype(f"S{w}") for a in keys])
        s = np.concatenate(scores)
        # bounded merge set (<= k per partition); \x00 padding sorts
        # first, so the fixed-width byte order is the string order
        order = np.lexsort((k, -s))[: q.k]
        out = np.array([k[i].decode() for i in order], dtype=object)
        return out, s[order]

    def candidates(self, q: Query) -> np.ndarray:
        """Boolean evaluation over the live corpus -> sorted key array
        (decoded at this API boundary — the result set the caller
        asked for)."""
        out = [
            part_keys[eng.candidates(q)]
            for eng, part_keys in zip(self.engines, self._part_keys)
        ]
        w = max(a.dtype.itemsize for a in out)
        allk = np.sort(np.concatenate([a.astype(f"S{w}") for a in out]))
        return np.array([x.decode() for x in allk], dtype=object)

    def count(self, q: Query) -> int:
        """Live per-query result count, summed across partitions. Merge
        shape as sentinel.go:190-218 (sum of per-worker counts); unlike
        the reference's Count() — which counts all forward-index docs
        (indexer.go:60-67) — this counts the query's live matches."""
        return sum(len(eng.candidates(q)) for eng in self.engines)
