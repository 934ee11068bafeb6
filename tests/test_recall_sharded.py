"""§2.10 Recaller/Filter template + Sentinel scatter/gather parity:
the sharded contrib-merge path must reproduce the unsharded engine."""

import numpy as np
import pytest

from quickray.engine import Index, LocalEngine
from quickray.query import Or, Query, Term, flat_or_terms
from quickray.queryset import make_query_set
from quickray.recall import (
    SearchContext,
    Searcher,
    doc_len_filter,
    keyword_recaller,
    make_term_recaller,
)


@pytest.fixture(scope="module")
def engine(built_index):
    return LocalEngine(Index(built_index))


def test_searcher_template(engine, oracle):
    ctx = SearchContext(["  Func ", "return", ""], on_flag=0)
    assert ctx.keywords == ["func", "return"]  # M4 cleaning
    s = Searcher([keyword_recaller], [doc_len_filter(50, 200)])
    ids, scores = s.search(engine, ctx, k=15)
    # filters are a subset of the plain search over the same keywords
    plain_ids, _ = engine.search(
        Query(tree=Or((Term("func"), Term("return"))), k=10**9)
    )
    assert set(ids.tolist()) <= set(plain_ids.tolist())
    dls = engine.index.doc_lens(ids)
    assert np.all((dls >= 50) & (dls <= 200))
    assert len(ids) <= 15


def test_multi_recall_union(engine):
    """Two recall strategies merged with exact dedup (searcher.go:38-79)."""
    ctx = SearchContext(["func"], extras={})
    s = Searcher([keyword_recaller, make_term_recaller("return")])
    ids, scores = s.search(engine, ctx, k=10**6)
    only_kw = engine.candidates(Query(tree=Term("func"), k=10**6))
    only_ret = engine.candidates(Query(tree=Term("return"), k=10**6))
    # EVERY surviving candidate returns (reference Search returns
    # ctx.Result as-is, searcher.go:88-98): the full union, keyword
    # matches ranked first, keyword-less survivors after with score 0
    union = set(only_kw.tolist()) | set(only_ret.tolist())
    assert set(ids.tolist()) == union
    kw_set = set(only_kw.tolist())
    for d, s_ in zip(ids.tolist(), scores.tolist()):
        assert (s_ > 0) == (d in kw_set)
    # zero-score tail is ordered by ascending doc_id after the ranked head
    tail = [d for d, s_ in zip(ids.tolist(), scores.tolist()) if s_ == 0]
    assert tail == sorted(tail)


def test_sharded_scatter_gather_matches_local(built_index, ray_session):
    """Term-sharded contrib scatter + additive gather == local engine
    (doc sets identical; scores equal up to cross-shard float
    reassociation)."""
    import json as _json

    import ray.data as rd
    from ray.data.aggregate import Sum

    from quickray.engine import QueryEngineActor

    eng = LocalEngine(Index(built_index))
    queries = [
        q for q in make_query_set(eng.index.df_table())
        if flat_or_terms(q.tree) is not None
    ]
    assert any(q.has_flags for q in queries)
    qds = rd.from_items([{"query": _json.dumps(q.to_json())} for q in queries])
    shard_vals = set(
        __import__("pyarrow.parquet", fromlist=["pq"]).read_table(
            f"{built_index}/segments", columns=["shard"]
        )["shard"].to_pylist()
    )
    all_shards = sorted(shard_vals)
    half = len(all_shards) // 2
    groups = [set(all_shards[:half]), set(all_shards[half:])]
    parts = [
        qds.map_batches(
            QueryEngineActor,
            fn_constructor_kwargs={
                "index_dir": built_index, "shards": g,
                "mode": "contrib", "preload_top_df": 0,
            },
            batch_format="pyarrow", batch_size=64, concurrency=1,
        )
        for g in groups
    ]
    merged = (
        parts[0].union(parts[1])
        .groupby(["query_id", "doc_id"])
        .aggregate(Sum("partial", alias_name="score"))
        .to_pandas()
    )
    for q in queries:
        sub = merged[merged["query_id"] == q.id]
        got = dict(zip(sub["doc_id"], sub["score"]))
        ids, sc = eng.search(
            Query(tree=q.tree, on_flag=q.on_flag, off_flag=q.off_flag,
                  or_flags=q.or_flags, k=10**9)
        )
        assert set(got) == set(ids.tolist()), q.id
        want = dict(zip(ids.tolist(), sc.tolist()))
        for d, s in got.items():
            assert s == pytest.approx(want[d], rel=1e-12), (q.id, d)
