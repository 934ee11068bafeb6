#!/usr/bin/env python3
"""Query serving at a larger corpus size: an ungated companion to
perfbench's ``query_hot``.

Pruning and dense evaluation pay only where exhaustive scoring is
expensive, which the 6k-doc benchmark corpus never reaches. This script
builds (or reuses) an N-doc corpus and index, loads it as ``query_hot``
does (perfbench's ``HOT_LOAD``), replays perfbench's own query stream
for that corpus and prints, per query shape, the p50 and p95 search
latency, and ``cold_p99_ms``, the p99 of the first (cold) pass over the
whole stream. ``routes`` splits each shape by the ``engine.last_path``
its queries took, with their count, p50 and p95: for flat ORs the
``block_max_topk`` path (pruned, or exhaustive and why), for the
``and`` and ``compound`` trees the route (dense or sparse); ``paths``
sums the flat-OR counts over their shapes. ``candidates_p50_ms`` is
the p50 of ``candidates()`` per shape. The ``delta`` row serves the
same index as ``DeltaEngine([index], deleted_keys=...)`` with a fixed
1% of its keys, drawn from ``--seed``, deleted: the same figures, with
routes split by its one part's ``last_path`` and ``count_p50_ms`` (the
p50 of ``count()``) in place of ``candidates_p50_ms``. It also prints the build's
phase table from its ``manifest.json`` (``build_phases``: seconds, rows
and bytes written per phase) and ``largest_shard``: the segment
``shard`` with the most postings, its term and posting counts, the
docbase run rows its merge read and its merge seconds, beside the mean
postings per shard. ``kernels_ms`` times the build's content kernels
in this process, fastest of ``--passes``:
``flatten_tokens``, ``batch_postings`` and ``encode_runs`` on the
corpus's first tokenizer batch (4096 docs, the build's default), and
``final_merge`` on the largest shard's merge group. It is never a
gate.

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
import pyarrow.compute as pc  # noqa: E402
import pyarrow.dataset as pads  # noqa: E402

# perfbench is imported read-only: its stream, its load settings
from inputs import SHAPES, query_stream  # noqa: E402
from run import HOT_LOAD  # noqa: E402

FLAT_OR = ("term", "or", "flagged")


def _phases(out: str) -> dict:
    with open(os.path.join(out, "manifest.json")) as f:
        return json.load(f)["phases"]


def _built(out: str) -> bool:
    try:
        return _phases(out).get("segments", {}).get("status") == "done"
    except (OSError, ValueError, KeyError):
        return False


def ensure_index(work: str, n_docs: int, seed: int) -> tuple[str, str]:
    """The corpus and its index under ``work``, built on first use."""
    from quickray.corpus import ensure_corpus_parquet

    corpus = ensure_corpus_parquet(os.path.join(work, "corpus"), n_docs, seed=seed)
    out = os.path.join(work, f"idx_n{n_docs}_s{seed}")
    if _built(out):
        return corpus, out
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
        build_index(corpus, out)
        print(f"built {n_docs} docs in {time.perf_counter() - t0:.1f} s")
    finally:
        ray.shutdown()
    return corpus, out


def build_phases(out: str) -> dict:
    """Per phase, from ``manifest.json``: seconds, rows and bytes
    written."""
    return {
        name: {
            "s": rec.get("elapsed_sec", 0.0),
            "rows": rec.get("rows", 0),
            "bytes": sum(f["bytes"] for f in rec.get("files", [])),
        }
        for name, rec in _phases(out).items()
    }


def largest_shard(out: str) -> dict:
    """The segment shard holding the most postings (the merge's
    largest group), the docbase run rows that merge read and its merge
    seconds from the manifest's group summaries (None for a group the
    run that finished the phase did not merge)."""
    seg = pads.dataset(os.path.join(out, "segments"), format="parquet").to_table(
        columns=["term", "df", "shard"]
    )
    per = seg.group_by("shard").aggregate([("df", "sum"), ("term", "count")])
    top = int(np.argmax(np.asarray(per["df_sum"])))
    shard = per["shard"][top].as_py()
    terms = seg.filter(pc.equal(seg["shard"], shard))["term"].combine_chunks()
    runs = pads.dataset(os.path.join(out, "docbase"), format="parquet").count_rows(
        filter=(pads.field("kind") == 1) & pads.field("term").isin(terms)
    )
    return {
        "shard": shard,
        "terms": per["term_count"][top].as_py(),
        "postings": per["df_sum"][top].as_py(),
        "run_rows": runs,
        "merge_s": next(
            (g["merge_s"] for g in _phases(out)["segments"]["counters"]["groups"]
             if g["mpart"] == shard),
            None,
        ),
        "mean_postings": round(float(np.mean(np.asarray(per["df_sum"]))), 1),
    }


def _fastest_ms(fn, passes: int):
    """(fastest of ``passes`` calls of ``fn`` in ms, its last result)."""
    best = np.inf
    for _ in range(passes):
        t = time.perf_counter()
        res = fn()
        best = min(best, time.perf_counter() - t)
    return round(1e3 * best, 1), res


def kernel_table(corpus: str, out: str, shard: int, passes: int) -> dict:
    """Milliseconds of each content kernel: the docbase pass's three on
    the corpus's first tokenizer batch, and the final merge on the
    docbase runs of merge group ``shard``."""
    import pyarrow.parquet as pq

    from quickray.docids import rank_keys
    from quickray.merge import final_merge
    from quickray.schema import BATCH_RUN_SCHEMA
    from quickray.tokenize import (
        batch_postings,
        encode_runs,
        flatten_tokens,
        rank_lookup,
    )

    shards = pads.dataset(os.path.join(out, "segments"), format="parquet").to_table(
        columns=["shard"]
    )["shard"]
    num_shards = pc.max(shards).as_py() + 1
    batch = pads.dataset(corpus, format="parquet").head(4096)
    ids = rank_lookup(batch, rank_keys(pq.read_table(corpus, columns=["repo", "path"])))
    ms = {}
    ms["flatten_tokens"], (flat, parents) = _fastest_ms(
        lambda: flatten_tokens(batch["content"]), passes)
    ms["batch_postings"], grouped = _fastest_ms(
        lambda: batch_postings(batch, ids, flat, parents, []), passes)
    ms["encode_runs"], _ = _fastest_ms(lambda: encode_runs(grouped, num_shards), passes)

    runs = pads.dataset(os.path.join(out, "docbase"), format="parquet").to_table(
        columns=BATCH_RUN_SCHEMA.names,
        filter=(pads.field("kind") == 1) & (pads.field("mpart") == shard),
    )
    ms["final_merge"], _ = _fastest_ms(lambda: final_merge(runs), passes)
    return ms


def _latency(sec: np.ndarray) -> dict:
    ms = 1e3 * sec
    return {
        "n": int(len(ms)),
        "p50_ms": round(float(np.percentile(ms, 50)), 3),
        "p95_ms": round(float(np.percentile(ms, 95)), 3),
    }


def _label(rec) -> str:
    """A query's path as a routes label."""
    if rec is None:  # a checkout that records no path here
        return "unrecorded"
    if rec[0] == "exhaustive":
        return f"exhaustive: {rec[1]}"
    return rec[0]


def serve(eng, parts: list, queries: list, passes: int, listing) -> dict:
    """Per-shape latency of ``eng.search`` over ``queries`` (fastest of
    ``passes`` after a cold pass), routes by the ``last_path`` of the
    ``parts`` (LocalEngines; several join their labels), the cold pass's
    p99, and the p50 of ``listing`` (``candidates`` or ``count``) per
    shape, fastest of ``passes``."""
    best = np.full(len(queries), np.inf)
    cold = np.empty(len(queries))
    labels = [""] * len(queries)  # each query's path, from the cold pass
    paths = collections.Counter()
    blocks = np.zeros(2, np.int64)  # scored, total over pruned parts
    for rep in range(passes + 1):
        for i, q in enumerate(queries):
            for part in parts:
                part.last_path = None
            t = time.perf_counter()
            eng.search(q)
            t = time.perf_counter() - t
            if rep:
                best[i] = min(best[i], t)
                continue
            cold[i] = t
            recs = [part.last_path for part in parts]
            for rec in recs:
                if rec is not None and rec[0] == "pruned":
                    blocks += rec[1:]
            labels[i] = " | ".join(map(_label, recs))
            if q.id.split(":", 1)[0] in FLAT_OR:
                paths[labels[i]] += 1
    listed = np.full(len(queries), np.inf)
    for _ in range(passes):
        for i, q in enumerate(queries):
            t = time.perf_counter()
            listing(q)
            listed[i] = min(listed[i], time.perf_counter() - t)

    shape = np.array([q.id.split(":", 1)[0] for q in queries])
    labels = np.array(labels)
    report = {s: _latency(best[shape == s]) for s in SHAPES}
    flat = np.isin(shape, FLAT_OR)
    report["flat_or_total_s"] = round(float(best[flat].sum()), 3)
    report["cold_p99_ms"] = round(1e3 * float(np.percentile(cold, 99)), 3)
    report["paths"] = dict(sorted(paths.items()))
    report["routes"] = {
        s: {
            label: _latency(best[(shape == s) & (labels == label)])
            for label in sorted(set(labels[shape == s]))
        }
        for s in SHAPES
    }
    if blocks[1]:
        report["pruned_blocks_scored"] = round(float(blocks[0] / blocks[1]), 3)
    name = f"{listing.__name__}_p50_ms"
    report[name] = {
        s: round(1e3 * float(np.percentile(listed[shape == s], 50)), 3)
        for s in SHAPES
    }
    return report


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--docs", type=int, default=100_000)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--queries", type=int, default=2000)
    ap.add_argument("--passes", type=int, default=3)
    ap.add_argument("--dir", default=".prune_companion")
    args = ap.parse_args(argv)

    from quickray.delta import DeltaEngine
    from quickray.engine import Index, LocalEngine

    corpus, out = ensure_index(os.path.abspath(args.dir), args.docs, args.seed)
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

    big = largest_shard(out)
    report = {"docs": ix.n_docs, "queries": len(queries), "load_s": round(load_s, 3),
              "build_phases": build_phases(out), "largest_shard": big,
              "kernels_ms": kernel_table(corpus, out, big["shard"], args.passes)}
    report.update(serve(eng, [eng], queries, args.passes, eng.candidates))

    keys = ix.keys_by_id()
    gone = np.random.default_rng(args.seed).choice(
        len(keys), len(keys) // 100, replace=False
    )
    delta = DeltaEngine([out], deleted_keys=[bytes(k) for k in keys[gone]])
    report["delta"] = {"deleted": len(gone), "n_docs": delta.n_docs}
    report["delta"].update(
        serve(delta, delta.engines, queries, args.passes, delta.count)
    )
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
