#!/usr/bin/env python3
"""Delta serving as batches pile up: an ungated companion to
perfbench's ``upsert_mix``.

``upsert_mix`` replays only 4 delta batches, which hides how the delta
view scales with the number of parts. This script builds (or reuses) an
N-doc main index, replays perfbench's own seeded upsert batches over it
(``UpsertStream``, 240 docs each: 1/2 new keys, 1/3 updates, 1/6
deletions), and for each batch count in ``--at`` prints:

- ``init_s``: the fastest of ``--passes`` ``DeltaEngine`` constructions
  over the main index, the first n delta builds and their deletions;
- ``cold_p50_ms`` / ``cold_p99_ms``: search latency of the first pass
  over perfbench's query stream on a fresh engine, as ``upsert_mix``
  serves it;
- ``p50_ms`` / ``p99_ms``: the fastest of ``--passes`` later passes per
  query, with the posting and contribution caches warm;
- ``n_docs`` and ``live_docs``: the engine's live document count and the
  stream's, which must agree.

It is never a gate. Run from the root of a quickray checkout:

    python3 tools/delta_companion.py --docs 6000 --seed 1

The corpus, the main index and the delta builds live under ``--dir``
(default ``.delta_companion/``) and are reused by later runs with the
same ``--docs`` and ``--seed``. For the before side of a change, copy
this script (and ``tools/prune_companion.py``, whose ``ensure_index``
it uses) into the parent checkout's ``tools/`` and run it there with the
same ``--dir``.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [ROOT, os.path.join(ROOT, "perfbench"), os.path.dirname(__file__)]

import numpy as np  # noqa: E402
import pyarrow.parquet as pq  # noqa: E402

# perfbench is imported read-only: its upsert stream, its query stream
from checks import doc_freqs  # noqa: E402
from inputs import UpsertStream, query_stream  # noqa: E402
from prune_companion import _built, ensure_index  # noqa: E402

BATCH_DOCS = 240  # perfbench's full scale


def _ms(lat: np.ndarray, pct: float) -> float:
    return round(1e3 * float(np.percentile(lat, pct)), 3)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--docs", type=int, default=6000)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--at", default="1,16,64", help="batch counts to serve")
    ap.add_argument("--queries", type=int, default=250)
    ap.add_argument("--passes", type=int, default=3)
    ap.add_argument("--dir", default=".delta_companion")
    args = ap.parse_args(argv)
    at = sorted({int(x) for x in args.at.split(",")})

    from quickray.build import build_index
    from quickray.delta import DeltaEngine

    work = os.path.abspath(args.dir)
    _, main_dir = ensure_index(work, args.docs, args.seed)
    table = pq.read_table(os.path.join(work, "corpus"))
    queries = query_stream(doc_freqs(table), args.seed, args.queries)
    stream = UpsertStream(table, args.seed, BATCH_DOCS)
    deltas, deleted, live_docs = [], [], []
    for b in range(at[-1]):
        batch = stream.next_batch()
        out = os.path.join(work, f"delta_n{args.docs}_s{args.seed}_b{b}")
        if not _built(out):  # one batch builds in-process, no Ray job
            build_index(batch.docs, out)
        deltas.append(out)
        deleted.append(set(batch.deleted))
        live_docs.append(len(stream.live))

    report = {"docs": args.docs, "seed": args.seed, "queries": len(queries)}
    for n in at:
        gone = set().union(*deleted[:n])
        inits = []
        for _ in range(args.passes):
            t0 = time.perf_counter()
            eng = DeltaEngine([main_dir], deltas[:n], gone)
            inits.append(time.perf_counter() - t0)
        lat = np.empty((args.passes + 1, len(queries)))
        for rep in range(args.passes + 1):
            for i, q in enumerate(queries):
                t = time.perf_counter()
                eng.search(q)
                lat[rep, i] = time.perf_counter() - t
        warm = lat[1:].min(axis=0)
        report[f"batches_{n}"] = {
            "init_s": round(min(inits), 4),
            "cold_p50_ms": _ms(lat[0], 50),
            "cold_p99_ms": _ms(lat[0], 99),
            "p50_ms": _ms(warm, 50),
            "p99_ms": _ms(warm, 99),
            "n_docs": eng.n_docs,
            "live_docs": live_docs[n - 1],
        }
        del eng
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
