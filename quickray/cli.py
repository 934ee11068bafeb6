"""CLI entry point — the ``ray job submit`` surface (north rule: the
same entrypoint runs unchanged on N-node and 4N-node clusters; Ray's
cluster membership replaces the reference's etcd + worker flags,
demo/cmd/main.go:12-19).

  ray job submit -- python -m quickray.cli build --corpus DIR --out DIR
  ray job submit -- python -m quickray.cli query --index DIR --terms a,b
  ray job submit -- python -m quickray.cli gen --out DIR --docs 100000

Owns a Ray session when run standalone (guarded init); under
``ray job submit`` it attaches to the cluster it was submitted to.
"""

from __future__ import annotations

import argparse
import json
import sys
import time


def _ensure_ray() -> None:
    import ray

    if not ray.is_initialized():
        ray.init(include_dashboard=False)


def cmd_build(args: argparse.Namespace) -> int:
    from quickray.build import build_index

    _ensure_ray()
    t0 = time.time()
    res = build_index(
        args.corpus,
        args.out,
        num_shards=args.num_shards,
        field_cols=(
            args.field_cols.split(",") if args.field_cols else None
        ),
    )
    out = {
        "out_dir": res.out_dir,
        "sec": round(time.time() - t0, 3),
        "docs_per_sec": round(res.stats["n_docs"] / max(1e-9, time.time() - t0), 1),
        "phase_times": {k: round(v, 3) for k, v in res.phase_times.items()},
        "stats": res.stats,
    }
    print(json.dumps(out))
    return 0


def _parse_terms(spec: str, field_cols=None) -> tuple:
    """Comma-separated terms; 'field:word' makes a field-scoped Term
    (':' cannot appear in a content token, so the split is unambiguous;
    the posting key is field + '\x01' + word, gen/document.go:5).
    Words AND field names are stripped + lowercased to match what the
    index stores (the tokenizer lowercases content tokens and field
    values alike; field names are lowercase column names) — the same M4
    cleaning make_term_recaller applies (recall.py:67). When the index's
    indexed field list is known (``field_cols``), an unknown field is an
    ERROR — 'LANGUAGE:en' would otherwise silently probe a nonexistent
    posting key and return zero hits with no diagnostic."""
    from quickray.query import Term

    out = []
    for t in spec.split(","):
        if ":" in t:
            f, w = t.split(":", 1)
            f = f.strip().lower()
            if field_cols is not None and f not in field_cols:
                raise SystemExit(
                    f"unknown field {f!r}: this index has field-scoped"
                    f" postings for {sorted(field_cols)} only"
                )
            term = Term(w.strip().lower(), field=f)
        else:
            term = Term(t.strip().lower())
        if not term.term:
            # empty words are never indexed (and tree_from_json elides
            # them) — a bare 'lang:' would silently probe a posting
            # that cannot exist
            raise SystemExit(f"empty term in {t!r}")
        out.append(term)
    return tuple(out)


def cmd_query(args: argparse.Namespace) -> int:
    from quickray.engine import Index, LocalEngine
    from quickray.query import And, Or, Query, query_from_json

    eng = LocalEngine(Index(args.index))
    if args.query_json:
        q = query_from_json(json.loads(args.query_json))
        q.k = args.k
    else:
        terms = _parse_terms(
            args.terms, field_cols=eng.index.stats.get("field_cols")
        )
        tree = And(terms) if args.mode == "and" else Or(terms)
        q = Query(tree=tree, k=args.k, on_flag=args.on_flag,
                  off_flag=args.off_flag)
    t0 = time.time()
    ids, scores = eng.search(q)
    out = {
        "latency_ms": round((time.time() - t0) * 1e3, 3),
        "hits": [
            {"rank": i + 1, "doc_id": int(d), "score": float(s)}
            for i, (d, s) in enumerate(zip(ids, scores))
        ],
    }
    print(json.dumps(out))
    return 0


def cmd_delta_query(args: argparse.Namespace) -> int:
    """Live-upsert serving: (main ∪ delta) − tombstones, scores
    rebuild-identical (quickray/delta.py; the reference's
    AddDoc/DeleteDoc analog)."""
    from quickray.delta import DeltaEngine
    from quickray.query import And, Or, Query

    deleted: list[str] = []
    if args.deleted_keys:
        with open(args.deleted_keys) as f:
            deleted = [ln.rstrip("\n") for ln in f if ln.strip()]
    eng = DeltaEngine(
        args.main.split(","),
        # ordered batches: later dirs supersede earlier ones on key
        # conflicts (last-batch-wins, quickray/delta.py)
        delta_dir=(args.delta.split(",") if args.delta else None),
        deleted_keys=deleted,
    )
    terms = _parse_terms(args.terms, field_cols=eng.field_cols)
    tree = And(terms) if args.mode == "and" else Or(terms)
    q = Query(tree=tree, k=args.k)
    t0 = time.time()
    keys, scores = eng.search(q)
    out = {
        "latency_ms": round((time.time() - t0) * 1e3, 3),
        "live_docs": eng.n_docs,
        "hits": [
            {"rank": i + 1, "key": k.replace("\x01", "/"), "score": float(s)}
            for i, (k, s) in enumerate(zip(keys, scores))
        ],
    }
    print(json.dumps(out))
    return 0


def cmd_gen(args: argparse.Namespace) -> int:
    from quickray.corpus import ensure_corpus_parquet

    path = ensure_corpus_parquet(args.out, args.docs, seed=args.seed)
    print(json.dumps({"corpus": path, "docs": args.docs}))
    return 0


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(prog="quickray")
    sub = ap.add_subparsers(dest="cmd", required=True)

    b = sub.add_parser("build", help="build the inverted index")
    b.add_argument("--corpus", required=True)
    b.add_argument("--out", required=True)
    b.add_argument("--num-shards", type=int, default=None,
                   help="merge groups, one segment file each (default: "
                        "scaled with the corpus row count, as build_index "
                        "does)")
    b.add_argument("--field-cols", default=None,
                   help="comma-separated metadata columns to index as "
                        "field-scoped keywords (subset of repo,path,"
                        "commit,lang); query with 'field:word' terms")
    b.set_defaults(fn=cmd_build)

    q = sub.add_parser("query", help="BM25 top-k over a built index")
    q.add_argument("--index", required=True)
    q.add_argument("--terms", default="",
                   help="comma-separated terms; 'field:word' scopes a "
                        "term to an indexed field")
    q.add_argument("--mode", choices=["and", "or"], default="or")
    q.add_argument("--k", type=int, default=10)
    q.add_argument("--on-flag", type=int, default=0)
    q.add_argument("--off-flag", type=int, default=0)
    q.add_argument("--query-json", default=None,
                   help="full TermQuery tree as JSON (overrides --terms)")
    q.set_defaults(fn=cmd_query)

    d = sub.add_parser(
        "delta-query",
        help="query (main ∪ delta) − tombstones without rebuilding main",
    )
    d.add_argument("--main", required=True,
                   help="comma-separated built index dirs (the main corpus)")
    d.add_argument("--delta", default=None,
                   help="comma-separated ORDERED index dirs built over "
                        "added/updated doc batches (later wins on key "
                        "conflicts)")
    d.add_argument("--deleted-keys", default=None,
                   help="file of deleted 'repo\\x01path' keys, one per line")
    d.add_argument("--terms", required=True)
    d.add_argument("--mode", choices=["and", "or"], default="or")
    d.add_argument("--k", type=int, default=10)
    d.set_defaults(fn=cmd_delta_query)

    g = sub.add_parser("gen", help="generate the synthetic code corpus")
    g.add_argument("--out", required=True)
    g.add_argument("--docs", type=int, default=100000)
    g.add_argument("--seed", type=int, default=42)
    g.set_defaults(fn=cmd_gen)

    args = ap.parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())
