"""Block-max pruned top-k for flat OR / single-term queries.

A vectorized variant of Block-Max WAND (Ding & Suel, SIGIR 2011):
instead of a doc-at-a-time pointer walk (pointless in Python — the
interpreter loop would cost more than it prunes), we use the per-block
(last_doc_id, max_score) metadata written at merge time to build a
piecewise-constant upper-bound function over the doc_id axis, drop
every doc-range whose summed block maxima cannot reach a lower bound
theta of the k-th best score, and then score the surviving postings
exactly.

Prune or score is decided once, up front, by ``plan``: a pure function
of the query and its postings' block metadata, which scores nothing.
In order:

1. exhaustive unless the engine scores with the index's own scorer
   (``Index.scorer``: block bounds are computed at merge time under
   the index's own statistics, so delta and doc-sharded parts, which
   score with corpus-global ones, never prune), k >= 1, and the
   exhaustive work — the postings scored, capped at n_docs by the
   dense path — exceeds WORK_CUTOFF. Pruning's fixed cost, about
   0.1 ms of numpy calls, is more than a whole exhaustive pass below
   the cutoff;
2. theta0 = max over terms of that term's k-th largest block_max.
   block_max is the exact maximum contribution of its block under the
   own scorer (merge.py computes it with the scorer's own bm25_contrib
   call), each block's maximum is a distinct doc and every
   contribution is positive, so k distinct docs score >= theta0 and
   the true k-th best score is >= theta0. theta0 exists when some term
   has at least k blocks and no doc filter applies, neither the
   query's flags nor the engine's live mask (a filter may exclude
   exactly the docs that set the block maxima); otherwise exhaustive;
3. prune only when the doc-ranges whose summed block bounds reach
   theta0 cover at most half the doc span: keeping more saves less
   scoring than the block gather costs.

Pruning is rank-identical to exhaustive evaluation:

- a doc in a range with upper bound UB < theta0 has score <= UB <
  theta0 <= the k-th best score, so it can neither enter the top-k nor
  tie into it;
- the keep test uses a safety margin (1e-9 relative, or more when the
  cumsum's own rounding could be larger) so float noise in the UB can
  only under-prune, never over-prune;
- every block that intersects a kept doc-range is scored whole. That
  is a superset of the kept postings: kept docs get their FULL score,
  while docs dragged in from pruned ranges score partial <= full <
  theta0 and cannot enter or tie into the top-k.

With theta0 known before any gather, pruning has no late exits: fewer
than k candidates, a non-finite theta, nothing pruned and more than
half the span kept are all ruled out by ``plan``. theta is not
sharpened with the exact scores of a candidate pool (each term's top
blocks): on a 100k-doc corpus that scored 3% fewer blocks and made flat
ORs slower.

Every call leaves its path on the engine as ``engine.last_path``:
``("pruned", blocks_scored, blocks_total)`` or
``("exhaustive", reason)``, the reason being the failed step of
``plan``.
"""

from __future__ import annotations

import numpy as np

from quickray.codec import expand_ranges as _expand_blocks
from quickray.engine import _accumulate_topk
from quickray.query import Query

# exhaustive work (postings, capped at n_docs) up to which scoring
# everything beats pruning. Measured crossover, forced paths, one core,
# with a lone term scored without the dense vector: pruning loses at 6k
# and 20k docs at any work (a 16-20k-posting single term 0.31 vs 0.21
# ms, a 3-term OR 0.61 vs 0.22 ms), and at 100k docs single terms break
# even at 16-24k postings (0.32 vs 0.30 ms) and prune faster at 24-32k
# (0.31 vs 0.40 ms)
WORK_CUTOFF = 24576
# prune only when the kept doc-ranges cover at most this share of the
# doc span
PRUNE_SPAN = 0.5


def theta_floor(ps: list, k: int) -> float | None:
    """theta0: the largest k-th largest block_max of any posting in
    ``ps``, a lower bound of the k-th best unfiltered score under the
    own scorer; None when no posting has k blocks."""
    deep = [p.block_max for p in ps if len(p.block_max) >= k]
    if k < 1 or not deep:
        return None
    return max(float(np.partition(bm, len(bm) - k)[len(bm) - k]) for bm in deep)


def plan(own: bool, ps: list, k: int, filtered: bool, n_docs: int):
    """Prune or score a flat OR of the nonempty postings ``ps``, from
    block metadata alone (module docstring); ``filtered``: a flag filter
    or a live mask may drop docs (reason "flag filter"). Returns
    ``("exhaustive", reason, None)`` or ``("prune", "bounds", kept)``,
    ``kept`` being the (starts, exclusive ends) doc-ranges whose summed
    block bounds reach theta0."""
    if not own:
        return "exhaustive", "foreign scorer", None
    if k < 1:
        return "exhaustive", "k < 1", None
    if min(sum(len(p.doc_ids) for p in ps), n_docs) <= WORK_CUTOFF:
        return "exhaustive", "below cutoff", None
    if filtered:
        return "exhaustive", "flag filter", None
    theta0 = theta_floor(ps, k)
    if theta0 is None:
        return "exhaustive", "k above blocks", None

    # upper-bound step function over doc_id: +block_max where a block's
    # doc range starts, -block_max one past its last doc
    pos_parts, delta_parts = [], []
    for p in ps:
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
    # np.cumsum is a sequential sum: its worst-case rounding error grows
    # with the event count (n * eps * max|partial sum|), which at
    # mega-term scale (~1e7 blocks per term) exceeds a fixed 1e-9 and
    # could over-prune a range whose true bound ties theta0
    err = len(delta) * np.finfo(np.float64).eps * max(1.0, float(np.max(np.abs(ub))))
    keep = ub >= theta0 - max(1e-9 * max(1.0, theta0), err)
    starts = pos[keep]
    ends = np.r_[pos[1:], pos[-1]][keep]  # the last event has ub == 0
    if np.sum(ends - starts) > PRUNE_SPAN * (pos[-1] - pos[0]):
        return "exhaustive", "span", None
    return "prune", "bounds", (starts, ends)


def block_max_topk(engine, terms: list[str], q: Query):
    """Top-k for a flat OR / single-term query on any LocalEngine:
    prunes only under the index's own scorer (module docstring) and
    scores the kept blocks; the exhaustive side is the engine's own
    ``_flat_eval``."""
    index = engine.index
    # nonempty query terms, their postings and exact contributions, in
    # a fixed summation order (oracle-identical)
    ts, ps, cs = engine._scored_postings(sorted(set(terms)))
    own = engine.scorer is getattr(index, "scorer", None)
    path, why, kept = plan(own, ps, q.k, engine._filters(q), index.n_docs)
    if path == "exhaustive":
        engine.last_path = ("exhaustive", why)
        return engine._flat_eval(q, ts, ps, cs)

    # ---- score only blocks that intersect a kept doc-range (plan
    # prunes only when no doc filter applies)
    starts_k, ends_k = kept
    docs_f, contribs_f = [], []
    scored = total = 0
    for p, c in zip(ps, cs):
        bends = np.searchsorted(p.doc_ids, p.block_last, side="right")
        bstarts = np.r_[0, bends[:-1]]
        idx = np.searchsorted(ends_k, p.doc_ids[bstarts], side="right")
        idx_c = np.minimum(idx, len(starts_k) - 1)
        surv = (idx < len(starts_k)) & (starts_k[idx_c] <= p.block_last)
        total += len(surv)
        n = int(np.count_nonzero(surv))
        if n:
            scored += n
            pos = _expand_blocks(bstarts[surv], bends[surv])
            docs_f.append(p.doc_ids[pos])
            contribs_f.append(c[pos])
    engine.last_path = ("pruned", scored, total)
    return _accumulate_topk(docs_f, contribs_f, q.k, index.n_docs)

