"""Block-max pruned top-k for flat OR / single-term queries.

A vectorized variant of Block-Max WAND (Ding & Suel, SIGIR 2011):
instead of a doc-at-a-time pointer walk (pointless in Python — the
interpreter loop would cost more than it prunes), we use the per-block
(last_doc_id, max_score) metadata written at merge time to build a
piecewise-constant upper-bound function over the doc_id axis, drop
every doc-range whose summed block maxima cannot reach a lower bound
theta of the k-th best score, and then score the surviving postings
exactly. Provably rank-identical to exhaustive evaluation:

- theta = the k-th largest *single-term* exact contribution within some
  subset of one term's postings — k docs exist whose final score >=
  theta, so the true k-th best final score >= theta;
- a doc in a range with UB < theta has score <= UB < theta and can
  neither enter the top-k nor tie into it (ties need score == theta);
- pruning uses a 1e-9-relative safety margin so float-cumsum noise in
  the UB can only under-prune, never over-prune.

Evaluation order: exact contributions come from the engine's Scorer,
which computes each term's full vector once and memoizes it. theta
comes from each term's top-few blocks by block_max (a >=k-posting
subset, so its k-th largest exact contribution is a valid — merely
looser — lower bound), pruning decides survival at BLOCK granularity
(searchsorted over the ~n/128 block bounds, not the n postings), and
only postings of surviving blocks are gathered and accumulated. Scoring
whole surviving blocks is a superset of the surviving postings and
stays rank-identical: every posting inside a kept doc-range is in a
surviving block (so kept docs get their FULL score), while extra docs
dragged in from pruned ranges score partial <= full < theta and cannot
enter or tie into the top-k.

Block bounds are computed at merge time under the index's own
statistics, so only the index's own scorer (``Index.scorer``) may
prune; engines scoring with corpus-global statistics take the
exhaustive path.
"""

from __future__ import annotations

import numpy as np

from quickray.codec import expand_ranges as _expand_blocks
from quickray.query import Query
from quickray.scoring import flags_mask

EXHAUSTIVE_CUTOFF = 4096  # below this many total postings, just score


def block_max_topk(engine, terms: list[str], q: Query):
    """Top-k for a flat OR / single-term query on any LocalEngine;
    prunes only under the index's own scorer (module docstring)."""
    from quickray.engine import _accumulate_topk, flags_ok

    index, scorer = engine.index, engine.scorer
    has_flags = q.on_flag != 0 or q.off_flag != 0 or any(q.or_flags)
    k = q.k
    # nonempty query terms, their postings and exact contributions
    ts, ps, cs = [], [], []
    for t in sorted(set(terms)):  # fixed summation order (oracle-identical)
        p = index.posting(t)
        if p is not None and len(p.doc_ids):
            ts.append(t)
            ps.append(p)
            cs.append(scorer.contrib(t, p))
    if not ps:
        return np.empty(0, np.int64), np.empty(0, np.float64)

    def _contrib(p, c_full, pos=None):
        if has_flags:
            docs = p.doc_ids if pos is None else p.doc_ids[pos]
            sel = np.flatnonzero(flags_ok(index, docs, q))
            pos = sel if pos is None else pos[sel]
        if pos is None:
            return p.doc_ids, c_full
        if len(pos) == 0:
            return None
        return p.doc_ids[pos], c_full[pos]

    total = sum(len(p.doc_ids) for p in ps)

    def full_eval():
        if total > index.n_docs // 16:
            # dense exact evaluation: one doc-indexed score vector,
            # per-term dense vector add (stopword-grade terms,
            # df > N/2) or sparse scatter-add, in ascending term order
            # — bit-identical to sparse per-doc accumulation (adding
            # 0.0 where a doc lacks a term is IEEE-exact). Flags are
            # doc-level bits, so they reduce to ONE mask over the
            # final vector instead of a per-term posting filter.
            from quickray.engine import _dense_topk

            scores_d = np.zeros(index.n_docs, dtype=np.float64)
            for t, p, c in zip(ts, ps, cs):
                if len(p.doc_ids) > index.n_docs // 2:
                    scores_d += scorer.dense(t, p)
                else:
                    scores_d[p.doc_ids] += c
            if has_flags:
                bits = index.docmeta_arrays(("bits",))["bits"]
                ok = flags_mask(bits, q.on_flag, q.off_flag, q.or_flags)
                scores_d[~ok] = 0.0
            return _dense_topk(scores_d, k)
        docs_l, con_l = [], []
        for p, c in zip(ps, cs):
            got = _contrib(p, c)
            if got is not None:
                docs_l.append(got[0])
                con_l.append(got[1])
        return _accumulate_topk(docs_l, con_l, k, index.n_docs)

    if scorer is not getattr(index, "scorer", None):
        # block_max bounds hold only under the index's own statistics
        return full_eval()
    if k <= 0 or total <= EXHAUSTIVE_CUTOFF:
        return full_eval()
    if k >= total:
        # the candidate pool (bounded by total posting entries) can
        # never reach k docs — pruning would only build and discard it
        return full_eval()
    if any(len(p.block_last) == 0 for p in ps):
        # a nonempty posting without block metadata can't contribute to
        # the UB function — pruning would over-prune; score exhaustively
        return full_eval()

    if min(len(p.doc_ids) for p in ps) > index.n_docs // 2:
        # every query term is stopword-grade: the score distribution is
        # flat and neither block-max nor threshold pruning can drop
        # anything — skip straight to the dense exact path
        return full_eval()

    # per-term block extents as posting positions (layout-agnostic:
    # recovered from block_last by binary search, so any build-time
    # block_size works)
    exts = []
    for p in ps:
        bends = np.searchsorted(p.doc_ids, p.block_last, side="right")
        bstarts = np.concatenate(([0], bends[:-1]))
        exts.append((p, bstarts, bends))

    # ---- theta: exact FULL scores of a small candidate pool — the
    # union of every term's top blocks by block_max. Any k docs' exact
    # scores lower-bound the true k-th best, and full (all-term) scores
    # of block-max-leading docs sit near it, so this theta is far
    # tighter than the single-term bound when query terms overlap
    # (the uniform-corpus hot-OR case that defeats per-term theta).
    pool_parts = []
    for p, bstarts, bends in exts:
        order = np.argsort(-p.block_max, kind="stable")
        sizes = (bends - bstarts)[order]
        need = int(np.searchsorted(np.cumsum(sizes), k, side="left")) + 1
        sel = np.sort(order[:need])
        docs = p.doc_ids[_expand_blocks(bstarts[sel], bends[sel])]
        if has_flags:
            docs = docs[flags_ok(index, docs, q)]
        pool_parts.append(docs)
    # every pool doc passes the flag filter: bits are doc-level
    pool = np.unique(np.concatenate(pool_parts))
    if len(pool) < k:
        return full_eval()
    pool_scores = np.zeros(len(pool), np.float64)
    for p, c in zip(ps, cs):
        li = np.searchsorted(p.doc_ids, pool)
        li_c = np.minimum(li, len(p.doc_ids) - 1)
        hit = (li < len(p.doc_ids)) & (p.doc_ids[li_c] == pool)
        pool_scores[hit] += c[li_c[hit]]
    theta = float(
        np.partition(pool_scores, len(pool_scores) - k)[len(pool_scores) - k]
    )
    if not np.isfinite(theta):
        return full_eval()

    # ---- upper-bound step function over doc_id from block metadata
    pos_parts, delta_parts = [], []
    for p, _, _ in exts:
        starts_doc = np.empty(len(p.block_last), np.int64)
        starts_doc[0] = p.doc_ids[0]
        starts_doc[1:] = p.block_last[:-1] + 1
        pos_parts += [starts_doc, p.block_last + 1]
        delta_parts += [p.block_max, -p.block_max]
    pos = np.concatenate(pos_parts)
    delta = np.concatenate(delta_parts)
    order = np.argsort(pos, kind="stable")
    pos = pos[order]
    ub = np.cumsum(delta[order])
    last_of = np.flatnonzero(np.r_[pos[1:] != pos[:-1], True])
    pos = pos[last_of]
    ub = ub[last_of]
    # safety margin for the keep test: pruning may only ever
    # UNDER-prune. np.cumsum is a sequential sum, so its worst-case
    # rounding error grows with the event count (n * eps * max|partial
    # sum|) — at mega-term scale (df ~1e9, ~1e7 blocks per term) that
    # exceeds a fixed 1e-9, which could over-prune a doc-range whose
    # true upper bound ties theta. Scale the margin with the
    # accumulation length so the bound dominates the achievable error.
    err = (
        len(delta)
        * np.finfo(np.float64).eps
        * max(1.0, float(np.max(np.abs(ub))) if len(ub) else 1.0)
    )
    margin = max(1e-9 * max(1.0, abs(theta)), err)
    keep = ub >= theta - margin
    if keep.all():
        return full_eval()
    starts_k = pos[keep]
    nxt = np.r_[pos[1:], np.iinfo(np.int64).max]
    ends_k = nxt[keep]  # exclusive
    # pruning that keeps most of the doc span saves nothing — the
    # gather/filter overhead would exceed the skipped scoring work
    span = pos[-1] - pos[0]
    kept_span = np.sum(np.minimum(ends_k, pos[-1]) - starts_k)
    if span <= 0 or kept_span > 0.5 * span:
        return full_eval()

    # ---- score only blocks that intersect a kept doc-range
    docs_f, contribs_f = [], []
    for (p, bstarts, bends), c in zip(exts, cs):
        blo = p.doc_ids[bstarts]
        bhi = p.block_last
        idx = np.searchsorted(ends_k, blo, side="right")
        idx_c = np.minimum(idx, len(starts_k) - 1)
        surv = (idx < len(starts_k)) & (starts_k[idx_c] <= bhi)
        if not surv.any():
            continue
        ppos = _expand_blocks(bstarts[surv], bends[surv])
        got = _contrib(p, c, ppos)
        if got is not None:
            docs_f.append(got[0])
            contribs_f.append(got[1])
    return _accumulate_topk(docs_f, contribs_f, k, index.n_docs)
