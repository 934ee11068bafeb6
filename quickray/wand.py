"""Block-max pruned top-k for flat OR / single-term queries.

A vectorized variant of Block-Max WAND (Ding & Suel, SIGIR 2011):
instead of a doc-at-a-time pointer walk (pointless in Python — the
interpreter loop would cost more than it prunes), we use per-block
(last_doc_id, max_score) maxima to build a piecewise-constant upper-bound
function over the doc_id axis, drop every doc-range whose summed block
maxima cannot reach a lower bound theta of the k-th best score, and then
score the surviving postings exactly.

Blocks are BLOCK_SIZE consecutive postings of a term. Their maxima are
not stored: the engine's ``Scorer`` derives them from the contributions
it scores with (``Scorer.blocks``), over the live docs only, and
memoizes them, so every engine prunes under its own statistics and
tombstones, delta and doc-sharded parts included.

Prune or score is decided once, up front, by ``plan``: a pure function
of the query, its postings and their block maxima, which scores
nothing. In order:

1. exhaustive unless k >= 1, the exhaustive work — the postings
   scored, capped at n_docs by the dense path — exceeds WORK_CUTOFF
   (pruning's fixed cost, about 0.1 ms of numpy calls, is more than a
   whole exhaustive pass below the cutoff), and the query has no flag
   filter (a filter may exclude exactly the docs that set the block
   maxima). Only past these exits are the block maxima fetched, so a
   query below the cutoff never derives one;
2. theta0 = max over terms of that term's k-th largest block max. A
   block max is the exact contribution of one live doc of its block,
   or 0 for a block with no live doc; distinct blocks are distinct docs
   and every contribution is positive, so k distinct live docs score
   >= theta0 and the true k-th best score is >= theta0. theta0 exists
   when some term has at least k blocks; otherwise exhaustive;
3. prune only when the doc-ranges whose summed block bounds reach
   theta0 cover at most half the doc span: keeping more saves less
   scoring than the block gather costs.

Pruning is rank-identical to exhaustive evaluation:

- a live doc in a range with upper bound UB < theta0 has score <= UB <
  theta0 <= the k-th best score, so it can neither enter the top-k nor
  tie into it (the maxima bound every live doc's contributions);
- the keep test uses a safety margin (1e-9 relative, or more when the
  cumsum's own rounding could be larger) so float noise in the UB can
  only under-prune, never over-prune;
- every block that intersects a kept doc-range is scored whole, its
  dead docs dropped. That is a superset of the kept live postings: kept
  docs get their FULL score, while docs dragged in from pruned ranges
  score partial <= full < theta0 and cannot enter or tie into the
  top-k.

The kept blocks' live positions go to the engine's one evaluator
(``LocalEngine._tree_eval``) as hits: each term scatters its
contributions at them, into doc ids when the kept postings of several
terms hold a sizable share of the corpus (``engine._dense_worth``),
else into their union (``engine._union``). Terms are summed in the
exhaustive side's order, so a kept doc's score is bit-identical to its
exhaustive one. Docs outside the kept ranges score partially, which
the last point above allows.

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
from quickray.engine import _dense_worth, _topk_matches, _union
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
# postings per block: the unit of a block max, and of the pruned gather
BLOCK_SIZE = 128


def theta_floor(maxima: list, k: int) -> float | None:
    """theta0: the largest k-th largest block max in ``maxima`` (one
    array per term), a lower bound of the k-th best score; None when no
    term has k blocks."""
    deep = [bm for bm in maxima if len(bm) >= k]
    if k < 1 or not deep:
        return None
    return max(float(np.partition(bm, len(bm) - k)[len(bm) - k]) for bm in deep)


def plan(ps: list, k: int, filtered: bool, n_docs: int, blocks):
    """Prune or score a flat OR of the nonempty postings ``ps``, from
    their block maxima alone (module docstring); ``filtered``: the
    query's flag filter may drop docs; ``blocks()`` returns each
    posting's (block_last, block_max), and is called only past the
    cheap exits. Returns ``("exhaustive", reason, None)`` or
    ``("prune", "bounds", kept)``, ``kept`` being the (starts,
    exclusive ends) doc-ranges whose summed block bounds reach
    theta0."""
    if k < 1:
        return "exhaustive", "k < 1", None
    if min(sum(len(p.doc_ids) for p in ps), n_docs) <= WORK_CUTOFF:
        return "exhaustive", "below cutoff", None
    if filtered:
        return "exhaustive", "flag filter", None
    bs = blocks()
    theta0 = theta_floor([bm for _, bm in bs], k)
    if theta0 is None:
        return "exhaustive", "k above blocks", None

    # upper-bound step function over doc_id: +block_max where a block's
    # doc range starts, -block_max one past its last doc
    pos_parts, delta_parts = [], []
    for p, (last, bmax) in zip(ps, bs):
        starts_doc = np.empty(len(last), np.int64)
        starts_doc[0] = p.doc_ids[0]
        starts_doc[1:] = last[:-1] + 1
        pos_parts += [starts_doc, last + 1]
        delta_parts += [bmax, -bmax]
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
    prunes with the block maxima of the engine's scorer (module
    docstring) and hands the kept blocks' live postings to the engine's
    evaluator as hits; the exhaustive side is the engine's ``_match``."""
    index, scorer = engine.index, engine.scorer
    # the query's postings in the summation order (oracle-identical),
    # fetched once for plan and the evaluator
    ps, nonempty = {}, {}
    for t in sorted(set(terms)):
        ps[t] = p = index.posting(t)
        if p is not None and len(p.doc_ids):
            nonempty[t] = p
    path, why, kept = plan(
        list(nonempty.values()), q.k, q.has_flags, index.n_docs,
        lambda: [scorer.blocks(t, p) for t, p in nonempty.items()],
    )
    if path == "exhaustive":
        engine.last_path = ("exhaustive", why)
        docs, keep, scores, _ = engine._match(q, True, ps)
        return _topk_matches(docs, keep, scores, q.k)

    # ---- score only blocks that intersect a kept doc-range (plan
    # prunes only without a flag filter; dead docs are dropped here)
    starts_k, ends_k = kept
    live = scorer.live
    hits = {}
    scored = total = 0
    for t, p in nonempty.items():
        last = scorer.blocks(t, p)[0]
        # block b holds postings [b * BLOCK_SIZE, (b + 1) * BLOCK_SIZE)
        bstarts = np.arange(len(last), dtype=np.int64) * BLOCK_SIZE
        bends = np.minimum(bstarts + BLOCK_SIZE, len(p.doc_ids))
        idx = np.searchsorted(ends_k, p.doc_ids[bstarts], side="right")
        idx_c = np.minimum(idx, len(starts_k) - 1)
        surv = (idx < len(starts_k)) & (starts_k[idx_c] <= last)
        total += len(surv)
        n = int(np.count_nonzero(surv))
        if n:
            scored += n
            pos = _expand_blocks(bstarts[surv], bends[surv])
            if live is not None:
                pos = pos[live[p.doc_ids[pos]]]
            hits[t] = (p.doc_ids[pos], pos)
    engine.last_path = ("pruned", scored, total)
    # kept postings of several terms holding a sizable share of the
    # corpus scatter into doc ids, any others into their union
    kept_ps = {t: ps[t] for t in hits}
    docs = None
    work = sum(len(d) for d, _ in hits.values())
    if len(hits) < 2 or not _dense_worth(work, index.n_docs):
        docs, hits = _union([(d, {t: (None, pos)}) for t, (d, pos) in hits.items()])
    keep, scores = engine._tree_eval(q, kept_ps, None, docs, True, hits)
    return _topk_matches(docs, keep, scores, q.k)
