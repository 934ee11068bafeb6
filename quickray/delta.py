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
- per-term df: corrected lazily at query time — each part carries a
  doc-indexed live mask (tombstones are doc-level, like flag bits), and
  live df is the count of live docs in each part's posting (a part
  without tombstones answers with its stored df). No stored statistic
  goes stale, and no posting is copied.
- flag bits: the stored bits are doc-intrinsic, and each part's Scorer
  derives the long-doc bit (doc_len > avgdl) from the live avgdl.
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

import numpy as np

from quickray.engine import Index, MultiPartEngine


class DeltaEngine(MultiPartEngine):
    """Serve (main ∪ deltas) − tombstones with rebuild-identical scores:
    a MultiPartEngine over the main parts then the delta batches, each
    part's docs labelled by their 'repo\\x01path' keys.

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
        parts = [Index(d) for d in [*main_dirs, *delta_dirs]]
        keys = [ix.keys_by_id() for ix in parts]
        # deleted keys as fixed-width BYTES, the keys_by_id format
        dead = np.array(
            [k.encode() if isinstance(k, str) else bytes(k) for k in deleted_keys],
            dtype=bytes,
        )
        # one stable sort of every part's keys and the deletions, in
        # application order (main parts, delta batches, deletions): in
        # each run of equal keys the last source is the newest, and a
        # doc is live iff its part is that source (never when a
        # deletion is). numpy widens every key to the widest, and \x00
        # padding compares equal, so keys of any width meet exactly; no
        # per-doc Python objects
        sizes = [len(k) for k in keys]
        every = np.concatenate([*keys, dead])
        src = np.repeat(np.arange(len(parts) + 1), [*sizes, len(dead)])
        order = np.argsort(every, kind="stable")
        srt, src_s = every[order], src[order]
        last = np.flatnonzero(np.append(srt[1:] != srt[:-1], len(srt) > 0))
        newest = np.repeat(src_s[last], np.diff(last, prepend=-1))
        live_all = np.empty(len(every), dtype=bool)
        live_all[order] = src_s == newest
        bounds = np.cumsum([0, *sizes])
        lives = [live_all[lo:hi] for lo, hi in zip(bounds, bounds[1:])]
        lives = [None if live.all() else live for live in lives]
        super().__init__(parts, [k.take for k in keys], lives)

    # bound in this class too, so wrapping DeltaEngine.search (as
    # perfbench's tracer does) times delta serving alone
    search = MultiPartEngine.search
