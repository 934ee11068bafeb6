#!/usr/bin/env python3
"""Query serving at a larger corpus size: an ungated companion to
perfbench's ``query_hot``.

Pruning and dense evaluation pay only where exhaustive scoring is
expensive, which the 6k-doc benchmark corpus never reaches. This script
builds (or reuses) an N-doc corpus and index, loads it as ``query_hot``
does (perfbench's ``HOT_LOAD``), replays perfbench's own query stream
for that corpus and prints, per query shape, the p50 and p95 search
latency, plus how many queries took each ``engine.last_path``: for
flat ORs the ``block_max_topk`` path (pruned, or exhaustive and why),
for the ``and`` and ``compound`` trees the route (dense, and seed or
sparse). It is never a gate.

Run from the root of a quickray checkout:

    python3 tools/prune_companion.py --docs 100000 --seed 1

The corpus and index live under ``--dir`` (default
``.prune_companion/``) and are reused by later runs with the same
``--docs`` and ``--seed``; only the first run builds (about a minute
per 100k docs on one Ray CPU). Latencies are the fastest of
``--passes`` timed passes per query, after one warm pass that fills
the posting and contribution caches.
"""

from __future__ import annotations

import argparse
import collections
import json
import logging
import os
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [ROOT, os.path.join(ROOT, "perfbench")]

import numpy as np  # noqa: E402

# perfbench is imported read-only: its stream, its load settings
from inputs import SHAPES, query_stream  # noqa: E402
from run import HOT_LOAD  # noqa: E402

FLAT_OR = ("term", "or", "flagged")
TREES = ("and", "compound")


def _built(out: str) -> bool:
    try:
        with open(os.path.join(out, "manifest.json")) as f:
            phases = json.load(f)["phases"]
    except (OSError, ValueError, KeyError):
        return False
    return phases.get("segments", {}).get("status") == "done"


def ensure_index(work: str, n_docs: int, seed: int) -> str:
    """The corpus and its index under ``work``, built on first use."""
    from quickray.corpus import ensure_corpus_parquet

    corpus = ensure_corpus_parquet(os.path.join(work, "corpus"), n_docs, seed=seed)
    out = os.path.join(work, f"idx_n{n_docs}_s{seed}")
    if _built(out):
        return out
    import ray

    from quickray.build import build_index

    ray.init(num_cpus=1, include_dashboard=False, logging_level="ERROR",
             log_to_driver=False, object_store_memory=512 << 20)
    try:
        from ray.data import DataContext

        logging.getLogger("ray.data").setLevel(logging.WARNING)
        ctx = DataContext.get_current()
        ctx.enable_progress_bars = False
        ctx.print_on_execution_start = False
        t0 = time.perf_counter()
        res = build_index(corpus, out)
        phases = {k: round(v, 2) for k, v in res.phase_times.items()}
        print(f"built {n_docs} docs in {time.perf_counter() - t0:.1f} s;"
              f" phases {json.dumps(phases)}")
    finally:
        ray.shutdown()
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--docs", type=int, default=100_000)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--queries", type=int, default=2000)
    ap.add_argument("--passes", type=int, default=3)
    ap.add_argument("--dir", default=".prune_companion")
    args = ap.parse_args(argv)

    from quickray.engine import Index, LocalEngine

    out = ensure_index(os.path.abspath(args.dir), args.docs, args.seed)
    t0 = time.perf_counter()
    ix = Index(out, **HOT_LOAD)
    load_s = time.perf_counter() - t0
    eng = LocalEngine(ix)
    df = {
        t: d
        for t, d in zip(*(ix.df_table()[c].to_pylist() for c in ("term", "df")))
        if "\x01" not in t
    }
    queries = query_stream(df, args.seed, args.queries)

    best = np.full(len(queries), np.inf)
    paths = collections.Counter()
    tree_paths = {s: collections.Counter() for s in TREES}
    blocks = np.zeros(2, np.int64)  # scored, total over pruned queries
    for rep in range(args.passes + 1):
        for i, q in enumerate(queries):
            eng.last_path = None
            t = time.perf_counter()
            eng.search(q)
            t = time.perf_counter() - t
            if rep:
                best[i] = min(best[i], t)
                continue
            shape, rec = q.id.split(":", 1)[0], eng.last_path
            if rec is None:  # a checkout that records no path here
                label = "unrecorded"
            elif rec[0] == "pruned":
                label = "pruned"
                blocks += rec[1:]
            elif rec[0] == "exhaustive":
                label = f"exhaustive: {rec[1]}"
            else:
                label = rec[0]
            if shape in FLAT_OR:
                paths[label] += 1
            elif shape in TREES:
                tree_paths[shape][label] += 1

    shape = np.array([q.id.split(":", 1)[0] for q in queries])
    report = {"docs": ix.n_docs, "queries": len(queries), "load_s": round(load_s, 3)}
    for s in SHAPES:
        ms = 1e3 * best[shape == s]
        report[s] = {
            "n": int(len(ms)),
            "p50_ms": round(float(np.percentile(ms, 50)), 3),
            "p95_ms": round(float(np.percentile(ms, 95)), 3),
        }
    flat = np.isin(shape, FLAT_OR)
    report["flat_or_total_s"] = round(float(best[flat].sum()), 3)
    report["paths"] = dict(sorted(paths.items()))
    report["tree_paths"] = {s: dict(sorted(c.items())) for s, c in tree_paths.items()}
    if blocks[1]:
        report["pruned_blocks_scored"] = round(float(blocks[0] / blocks[1]), 3)
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
