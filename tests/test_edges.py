"""Edge corpora + shard-filtered index loading."""

import numpy as np
import pyarrow as pa
import pytest

from quickray.build import build_index
from quickray.engine import Index, LocalEngine, Scorer
from quickray.query import Or, Query, Term
from quickray.util import stable_hash_str


def _tiny(tmp_path, contents):
    tbl = pa.table(
        {
            "repo": pa.array(["r"] * len(contents)),
            "path": pa.array([f"f{i}.go" for i in range(len(contents))]),
            "commit": pa.array(["c"] * len(contents)),
            "lang": pa.array(["go"] * len(contents)),
            "content": pa.array(contents, pa.string()),
        }
    )
    out = str(tmp_path / "idx")
    build_index(tbl, out, num_shards=5)
    return out


def test_empty_content_doc(tmp_path):
    out = _tiny(tmp_path, ["alpha beta", "", "beta gamma"])
    eng = LocalEngine(Index(out))
    assert eng.index.n_docs == 3
    # empty doc: doc_len 0, appears in no posting
    import os

    import pyarrow.parquet as pq

    dm = pq.read_table(os.path.join(out, "docmeta"))
    lens = dict(zip(dm["doc_id"].to_pylist(), dm["doc_len"].to_pylist()))
    assert lens[1] == 0
    import hashlib

    shas = dict(zip(dm["doc_id"].to_pylist(), dm["sha256"].to_pylist()))
    assert shas[1] == hashlib.sha256(b"").hexdigest()
    ids, scores = eng.search(Query(tree=Term("beta"), k=10))
    assert set(ids.tolist()) == {0, 2}


def test_single_doc_corpus(tmp_path):
    out = _tiny(tmp_path, ["only one document here"])
    eng = LocalEngine(Index(out))
    ids, scores = eng.search(Query(tree=Or((Term("only"), Term("absent"))), k=5))
    assert ids.tolist() == [0]
    assert scores[0] > 0


def test_shard_filtered_index(tmp_path):
    out = _tiny(tmp_path, ["alpha beta", "beta gamma", "gamma delta"])
    full = Index(out)
    for term in ("alpha", "beta", "gamma", "delta"):
        shard = stable_hash_str(term) % 5
        part = Index(out, shards={shard})
        p = part.posting(term)
        assert p is not None
        assert p.doc_ids.tolist() == full.posting(term).doc_ids.tolist()
        # terms of other shards are absent from this partial view
        others = [t for t in ("alpha", "beta", "gamma", "delta")
                  if stable_hash_str(t) % 5 != shard]
        for o in others:
            assert part.posting(o) is None
    # a group with no terms has no file: its view is empty
    empty = set(range(5)) - {stable_hash_str(t) % 5 for t in
                             ("alpha", "beta", "gamma", "delta")}
    assert empty
    part = Index(out, shards=empty)
    assert part.vocab_size == 0 and part.posting("alpha") is None
    ids, _ = LocalEngine(part).search(Query(tree=Term("alpha"), k=5))
    assert len(ids) == 0


def test_old_segment_layout_raises(tmp_path):
    """A segments dir whose files are not named by merge group (the
    layout of older builds) raises, naming the dir, with or without
    ``shards``: a shard selection must never quietly serve nothing."""
    import os
    import re

    out = _tiny(tmp_path, ["alpha beta", "beta gamma", "gamma delta"])
    seg = os.path.join(out, "segments")
    first = sorted(os.listdir(seg))[0]
    os.rename(os.path.join(seg, first), os.path.join(seg, "part-0.parquet"))
    for shards in (None, {0, 1}):
        with pytest.raises(ValueError, match=re.escape(seg)):
            Index(out, shards=shards)


def test_scorer_outlives_temporary_index(tmp_path):
    """A Scorer holds its Index, so ``Index(out).scorer`` still serves
    once the temporary Index has no other reference. The Index holds
    its own scorer only weakly: with the cycle collector off, a dropped
    Index and its engine are freed at once."""
    import gc
    import weakref

    from quickray.corpus import generate_corpus
    from quickray.oracle import Oracle

    tbl = generate_corpus(60, seed=4)
    out = str(tmp_path / "idx")
    build_index(tbl, out)
    # outside the assert: its rewriting would keep the Index alive
    bits = Index(out).scorer.bits
    assert dict(enumerate(bits.tolist())) == Oracle(tbl).bits
    gc.disable()
    try:
        ix = Index(out, preload_bytes=1 << 20)
        eng = LocalEngine(ix)
        assert eng.scorer is ix.scorer
        term = ix.df_table()["term"][0].as_py()
        assert len(eng.search(Query(tree=Term(term), k=5))[0]) > 0
        dead = weakref.ref(ix)
        del ix, eng
        assert dead() is None
    finally:
        gc.enable()


def test_missing_term_and_k_zero(tmp_path):
    out = _tiny(tmp_path, ["alpha beta"])
    eng = LocalEngine(Index(out))
    ids, _ = eng.search(Query(tree=Term("nope"), k=10))
    assert len(ids) == 0
    ids, _ = eng.search(Query(tree=Term("alpha"), k=0))
    assert len(ids) == 0


def test_empty_corpus_raises(tmp_path):
    tbl = pa.table(
        {
            "repo": pa.array([], pa.string()),
            "path": pa.array([], pa.string()),
            "commit": pa.array([], pa.string()),
            "lang": pa.array([], pa.string()),
            "content": pa.array([], pa.string()),
        }
    )
    with pytest.raises(ValueError, match="empty corpus"):
        build_index(tbl, str(tmp_path / "idx"))


def test_separator_in_key_rejected():
    from quickray.docids import rank_keys

    keys = pa.table(
        {"repo": pa.array(["r\x01evil"]), "path": pa.array(["f.go"])}
    )
    with pytest.raises(ValueError, match="separator"):
        rank_keys(keys)


def test_posting_cache_lru_evicts(tmp_path):
    out = _tiny(tmp_path, ["alpha beta", "beta gamma", "gamma delta"])
    ix = Index(out)
    ix._cache_cap = 2
    ix.posting("alpha")
    ix.posting("beta")
    ix.posting("alpha")  # refresh alpha -> beta is now LRU
    ix.posting("gamma")  # evicts beta, never stops caching
    assert "alpha" in ix._cache and "gamma" in ix._cache
    assert "beta" not in ix._cache
    p = ix.posting("beta")  # re-decodes fine after eviction
    assert p is not None and len(p.doc_ids) == 2


def test_data_signature_content_sensitive(ray_session):
    from quickray.build import _Source

    def tab(contents):
        return pa.table(
            {
                "repo": pa.array(["r"] * len(contents)),
                "path": pa.array([f"f{i}" for i in range(len(contents))]),
                "commit": pa.array(["c"] * len(contents)),
                "lang": pa.array(["go"] * len(contents)),
                "content": pa.array(contents, pa.string()),
            }
        )

    s1 = _Source(tab(["aa", "bb"])).data_signature()
    s2 = _Source(tab(["aa", "bc"])).data_signature()
    s3 = _Source(tab(["aa", "bb"])).data_signature()
    assert s1 == s3
    assert s1 != s2
    assert s1.endswith(":2")  # row count recorded


def test_minhash_no_candidates(ray_session):
    """A corpus with zero LSH collisions must flow through the
    candidate-join verify without erroring and yield no pairs."""
    import ray.data as rd

    from quickray.extras.dedup import minhash_near_duplicates

    docs = pa.table(
        {
            "doc_id": pa.array(list(range(6)), pa.int64()),
            "text": pa.array(
                [
                    "alpha beta gamma delta epsilon zeta",
                    "one two three four five six seven",
                    "red orange yellow green blue indigo",
                    "north south east west up down",
                    "cat dog bird fish horse cow",
                    "",  # empty doc: no shingles at all
                ],
                pa.string(),
            ),
        }
    )
    got = minhash_near_duplicates(rd.from_arrow(docs), threshold=0.5)
    rows = got.take_all() if hasattr(got, "take_all") else got.to_pylist()
    assert rows == []


def test_topk_k_exceeds_corpus_dense_path(tmp_path, monkeypatch):
    """k >= n_docs must not crash a dense top-k partition (regression:
    np.partition(kth=n_docs-k) went negative on tiny corpora) and must
    return every matching doc, ranked: through ``LocalEngine.search``
    for a dense flat OR, a sparse flat OR and a lone term, and through
    ``_dense_topk`` itself."""
    from quickray import engine as engine_mod
    from quickray.engine import _dense_topk

    out = _tiny(tmp_path, ["alpha beta", "beta"] * 3 + ["alpha beta"])
    eng = LocalEngine(Index(out))
    assert eng.index.n_docs == 7
    dense_calls = []

    def counting(scores, k):
        dense_calls.append(k)
        return _dense_topk(scores, k)

    monkeypatch.setattr(engine_mod, "_dense_topk", counting)
    flat = Or((Term("alpha"), Term("beta")))
    got = {}
    for side, div in (("dense", 16), ("sparse", 0)):
        monkeypatch.setattr(engine_mod, "DENSE_DIVISOR", div)
        for k in (7, 10):
            del dense_calls[:]
            got[side, k] = eng.search(Query(tree=flat, k=k))
            assert dense_calls == ([k] if side == "dense" else []), side
            ids, sc = got[side, k]
            # alpha's idf outweighs beta's shorter docs
            assert ids.tolist() == [0, 2, 4, 6, 1, 3, 5], side
            assert sc[0] == sc[3] > sc[4] == sc[6] > 0.0, side
        del dense_calls[:]
        ids, sc = eng.search(Query(tree=Term("beta"), k=10))
        assert ids.tolist() == [1, 3, 5, 0, 2, 4, 6]
        assert sc[0] == sc[2] > sc[3] == sc[6] > 0.0
        assert dense_calls == []  # a lone term scores its posting
    for k in (7, 10):
        assert np.array_equal(got["dense", k][1], got["sparse", k][1])

    dense = np.zeros(5)
    dense[[1, 3]] = [0.5, 2.5]
    ids, sc = _dense_topk(dense, k=9)
    assert ids.tolist() == [3, 1]
    assert sc.tolist() == [2.5, 0.5]


def test_scorer_memo_per_stats_and_lru_bounded(tmp_path):
    """Each engine's Scorer memoizes contributions under its own
    statistics: a hit returns the identical array, two engines over one
    Index with different stats never see each other's entries,
    stopword-grade dense vectors are memoized per scorer, and neither
    memo outgrows the index's posting-LRU capacity."""
    from quickray.scoring import bm25_contrib

    out = _tiny(
        tmp_path,
        ["alpha beta", "beta gamma beta", "gamma delta beta", "beta"],
    )
    ix = Index(out)
    own = LocalEngine(ix)
    other = LocalEngine(ix, scorer=Scorer(ix, 40, 7.0, {"beta": 9}))
    assert own.scorer is ix.scorer and other.scorer is not ix.scorer

    p = ix.posting("beta")
    c_own = own.scorer.contrib("beta", p)
    assert own.scorer.contrib("beta", p) is c_own  # memo hit
    c_other = other.scorer.contrib("beta", p)
    assert other.scorer.contrib("beta", p) is c_other
    assert own.scorer.contrib("beta", p) is c_own  # untouched by other
    dl = ix.doc_lens(p.doc_ids)
    assert sorted(dl.tolist()) == [1, 2, 3, 3]  # every doc holds beta
    np.testing.assert_array_equal(
        c_own, bm25_contrib(p.tfs, dl, len(p.doc_ids), ix.n_docs, ix.avgdl)
    )
    np.testing.assert_array_equal(c_other, bm25_contrib(p.tfs, dl, 9, 40, 7.0))
    assert not np.allclose(c_own, c_other)

    # beta is in every doc: stopword-grade, dense vector per scorer
    assert len(p.doc_ids) > ix.n_docs // 2
    d_own = own.scorer.dense("beta", p)
    assert own.scorer.dense("beta", p) is d_own
    d_other = other.scorer.dense("beta", p)
    assert other.scorer.dense("beta", p) is d_other
    np.testing.assert_array_equal(d_own[p.doc_ids], c_own)
    np.testing.assert_array_equal(d_other[p.doc_ids], c_other)

    ix._cache_cap = 2
    for t in ("alpha", "beta", "gamma", "delta", "alpha"):
        pt = ix.posting(t)
        for s in (own.scorer, other.scorer):
            s.contrib(t, pt)
            s.dense(t, pt)
            assert len(s._contrib) <= 2 and len(s._dense) <= 2
    assert list(own.scorer._contrib) == ["delta", "alpha"]  # recency


@pytest.mark.parametrize("thresh", [1_000_000, 0])
def test_connected_components(ray_session, thresh):
    """Both CC paths (driver union-find / distributed min-label
    propagation) find components for chains, triangles, pairs, and a
    diameter-3 chain; empty edge sets yield an empty, correctly-typed
    table."""
    import ray.data as rd
    from quickray.extras.dedup import connected_components

    pairs = pa.table(
        {
            "a": pa.array([0, 1, 10, 10, 11, 20, 30, 31, 32], pa.int64()),
            "b": pa.array([1, 2, 11, 12, 12, 21, 31, 32, 33], pa.int64()),
        }
    )
    got = connected_components(
        rd.from_arrow(pairs), driver_threshold=thresh
    ).to_pandas()
    got = got.sort_values("doc_id").reset_index(drop=True)
    assert got["doc_id"].tolist() == [0, 1, 2, 10, 11, 12, 20, 21, 30, 31, 32, 33]
    assert got["cluster_id"].tolist() == [0, 0, 0, 10, 10, 10, 20, 20, 30, 30, 30, 30]

    empty = pa.table({"a": pa.array([], pa.int64()), "b": pa.array([], pa.int64())})
    out = connected_components(rd.from_arrow(empty))
    assert out.count() == 0
    assert out.schema().names == ["doc_id", "cluster_id"]


def test_join_ready_drops_empty_blocks(ray_session):
    """_join_ready must yield a dataset with no zero-row blocks (the
    Ray 2.49 hash-join schema-broadcast hazard) while preserving rows
    and schema."""
    import ray.data as rd
    from quickray.extras.dedup import _join_ready

    blocks = [
        pa.table({"k": pa.array([1, 2], pa.int64())}),
        pa.table({"k": pa.array([], pa.int64())}),
        pa.table({"k": pa.array([3], pa.int64())}),
        pa.table({"k": pa.array([], pa.int64())}),
    ]
    ds = rd.from_arrow(blocks)
    out = _join_ready(ds, num_partitions=4, count=3)
    mat = out.materialize()
    sizes = [m.num_rows for _, m in mat._plan.execute().blocks]
    assert all(s > 0 for s in sizes)
    assert sum(sizes) == 3
    assert mat.schema().names == ["k"]


def test_connected_components_random_vs_union_find(ray_session):
    """The DISTRIBUTED min-label propagation path (driver_threshold=0)
    equals a reference union-find on random graphs (mixed component
    shapes, permuted ids) — the driver fast path is itself union-find,
    so this pins the propagation semantics."""
    import ray.data as rd
    from quickray.extras.dedup import connected_components

    for seed in (0, 2):
        rng = np.random.default_rng(seed)
        n, m = 60, 45
        a = rng.integers(0, n, m).astype(np.int64)
        b = rng.integers(0, n, m).astype(np.int64)
        keep = a != b
        a, b = a[keep], b[keep]

        parent = list(range(n))

        def find(x):
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        for x, y in zip(a.tolist(), b.tolist()):
            parent[find(x)] = find(y)
        in_graph = sorted(set(a.tolist()) | set(b.tolist()))
        exp = {}
        for node in in_graph:
            root = find(node)
            exp.setdefault(root, []).append(node)
        want = {}
        for members in exp.values():
            lab = min(members)
            for node in members:
                want[node] = lab

        got = (
            connected_components(
                rd.from_arrow(pa.table({"a": pa.array(a), "b": pa.array(b)})),
                driver_threshold=0,
            )
            .to_pandas()
            .set_index("doc_id")["cluster_id"]
            .to_dict()
        )
        assert got == want, seed


def test_docmeta_hydrate_null_string_column(ray_session, tmp_path):
    """A nullable docmeta string column (e.g. commit) hydrates as ''
    instead of raising at serving time (numpy 'S' arrays cannot hold
    None; keys remain non-null by contract)."""
    tbl = pa.table(
        {
            "repo": pa.array(["r", "r"]),
            "path": pa.array(["a.go", "b.go"]),
            "commit": pa.array([None, "c2"], pa.string()),
            "lang": pa.array(["go", "go"]),
            "content": pa.array(["alpha beta", "alpha gamma"]),
        }
    )
    out = str(tmp_path / "idx")
    build_index(tbl, out)
    ix = Index(out)
    got = ix.hydrate(np.array([0, 1]), ("commit",))
    assert got["commit"].tolist() == ["", "c2"]


def test_lsh_bucket_cap_subgroups():
    """Oversize LSH buckets sub-group by signature digest: star pairs
    within each identical-signature family + full pairs among family
    representatives — O(m + r^2), not O(m^2), and a mixed bucket of two
    dup families keeps BOTH families connected (a global-min star would
    route family B through a dissimilar hub and lose it at verify).
    Under the cap the full triangular enumeration is unchanged."""
    from quickray.extras.dedup import _pairs_from_ids

    small = np.array([5, 3, 9], np.int64)
    a, b = _pairs_from_ids(small, cap=512)
    assert list(zip(a.tolist(), b.tolist())) == [(3, 5), (3, 9), (5, 9)]

    # two identical-signature families sharing one degenerate bucket
    ids = np.arange(600, dtype=np.int64)
    digests = np.where(ids < 300, 7, 9).astype(np.int64)
    a, b = _pairs_from_ids(ids, digests, cap=100)
    pairs = set(zip(a.tolist(), b.tolist()))
    assert len(pairs) == 299 + 299 + 1  # two stars + one rep pair
    assert all((0, i) in pairs for i in range(1, 300))  # family A star
    assert all((300, i) in pairs for i in range(301, 600))  # family B star
    assert (0, 300) in pairs  # representatives still meet

    # no digests available: bounded star fallback
    big = np.arange(1000, dtype=np.int64)[::-1].copy()
    a, b = _pairs_from_ids(big, None, cap=100)
    assert len(a) == 999  # not 1000*999/2
    assert (a == 0).all()
    assert sorted(b.tolist()) == list(range(1, 1000))

    # more distinct signatures than the cap: rep star, still O(m)
    ids = np.arange(300, dtype=np.int64)
    a, b = _pairs_from_ids(ids, ids.copy(), cap=100)
    assert len(a) == 299
    assert (a == 0).all()


def test_pathological_identical_docs_bounded(ray_session):
    """A corpus of thousands of IDENTICAL docs (one giant LSH bucket in
    every band) must complete in bounded time/size: star-pair
    candidates, verified jaccard == 1, one connected component keeping
    exactly one doc."""
    import ray.data as rd

    from quickray.extras.dedup import (
        dedup_corpus,
        minhash_near_duplicates,
        near_dup_clusters,
    )

    n = 3000
    docs = pa.table(
        {
            "doc_id": pa.array(np.arange(n, dtype=np.int64)),
            "text": pa.array(
                ["the same boilerplate header license text body"] * n
            ),
        }
    )
    ds = rd.from_arrow(docs).repartition(8)
    pairs = minhash_near_duplicates(ds, threshold=0.5).to_pandas()
    # star pairs only: bounded O(n), all exact duplicates
    assert len(pairs) == n - 1
    assert (pairs["a"] == 0).all()
    assert (pairs["jaccard"] == 1.0).all()

    clusters = near_dup_clusters(ds, threshold=0.5).to_pandas()
    assert len(clusters) == n
    assert (clusters["cluster_id"] == 0).all()

    kept = dedup_corpus(ds, rd.from_arrow(pa.Table.from_pandas(
        clusters, preserve_index=False))).to_pandas()
    assert kept["doc_id"].tolist() == [0]


def test_verify_paths_parity(ray_session):
    """The broadcast (join-free) and hash-join verify paths must emit
    identical (a, b, jaccard) sets; broadcast_bytes=0 forces the join
    fallback."""
    import ray.data as rd

    from quickray.extras.dedup import minhash_candidate_pairs, verify_pairs

    texts = [
        f"alpha beta gamma delta epsilon zeta eta theta doc{i % 8}"
        for i in range(40)
    ]
    docs = pa.table(
        {
            "doc_id": pa.array(np.arange(40, dtype=np.int64)),
            "text": pa.array(texts),
        }
    )
    ds = rd.from_arrow(docs).repartition(4)
    cand = minhash_candidate_pairs(ds, num_perm=64, bands=64, shingle_k=3)
    via_bcast = verify_pairs(cand, ds, shingle_k=3, threshold=0.5).to_pandas()
    via_join = verify_pairs(
        cand, ds, shingle_k=3, threshold=0.5, broadcast_bytes=0
    ).to_pandas()

    def norm(df):
        return sorted(map(tuple, df[["a", "b", "jaccard"]].values.tolist()))

    assert norm(via_bcast) == norm(via_join)
    assert len(via_bcast) > 0  # the i%8 families are true duplicates


def test_verify_join_path_with_shingleless_pair_docs(ray_session):
    """Join-mode verify where candidate pairs reference docs with fewer
    than shingle_k tokens (no shingle row): those pairs drop at the
    FIRST inner join, so repartitioning j1 by the pre-join pair count
    would emit empty blocks — the exact Ray 2.49 empty-first-block
    schema hazard _join_ready exists to prevent (r04 review finding).
    Both paths must agree and neither may raise."""
    import ray.data as rd

    from quickray.extras.dedup import verify_pairs

    texts = ["alpha beta gamma delta epsilon"] * 4 + ["ab", ""] * 2
    docs = pa.table(
        {
            "doc_id": pa.array(np.arange(8, dtype=np.int64)),
            "text": pa.array(texts),
        }
    )
    ds = rd.from_arrow(docs).repartition(2)
    # hand-built candidates: real dup pairs + pairs whose `a` (and `b`)
    # docs emit no shingle row; high partition count forces the
    # empty-block scenario without the fix
    cand = rd.from_arrow(pa.table({
        "a": pa.array([0, 1, 4, 5, 6], pa.int64()),
        "b": pa.array([1, 2, 7, 6, 7], pa.int64()),
    }))
    kw = dict(shingle_k=3, threshold=0.5, num_partitions=8)
    via_join = verify_pairs(cand, ds, broadcast_bytes=0, **kw).to_pandas()
    via_bcast = verify_pairs(cand, ds, **kw).to_pandas()

    def norm(df):
        return sorted(map(tuple, df[["a", "b", "jaccard"]].values.tolist()))

    assert norm(via_join) == norm(via_bcast) == [(0, 1, 1.0), (1, 2, 1.0)]

    # every pair's `a` doc is shingleless (the b docs keep the shingle
    # table non-empty so the JOIN path runs): j1 is empty -> empty
    # result, no raise
    cand2 = rd.from_arrow(pa.table({
        "a": pa.array([4, 6], pa.int64()),
        "b": pa.array([0, 2], pa.int64()),
    }))
    empty = verify_pairs(cand2, ds, broadcast_bytes=0, **kw)
    assert empty.count() == 0
    assert empty.schema().names == ["a", "b", "jaccard"]


def test_dedup_corpus_broadcast_anti_filter(ray_session):
    """dedup_corpus drops exactly the non-canonical cluster members via
    the broadcast id filter (no join), preserving all corpus columns;
    an all-canonical cluster table is a no-op."""
    import ray.data as rd

    from quickray.extras.dedup import dedup_corpus

    docs = pa.table(
        {
            "doc_id": pa.array([0, 1, 2, 3, 4], pa.int64()),
            "lang": pa.array(list("abcde"), pa.string()),
        }
    )
    clusters = pa.table(
        {
            "doc_id": pa.array([1, 3, 4], pa.int64()),
            "cluster_id": pa.array([1, 1, 1], pa.int64()),
        }
    )
    got = dedup_corpus(rd.from_arrow(docs), rd.from_arrow(clusters)).to_pandas()
    got = got.sort_values("doc_id").reset_index(drop=True)
    assert got["doc_id"].tolist() == [0, 1, 2]
    assert got["lang"].tolist() == ["a", "b", "c"]

    noop = pa.table(
        {
            "doc_id": pa.array([2], pa.int64()),
            "cluster_id": pa.array([2], pa.int64()),
        }
    )
    same = dedup_corpus(rd.from_arrow(docs), rd.from_arrow(noop)).to_pandas()
    assert sorted(same["doc_id"].tolist()) == [0, 1, 2, 3, 4]


def test_dedup_corpus_anti_join_fallback(ray_session):
    """Above the broadcast byte budget the loser list must NOT be pulled
    to the driver: broadcast_bytes=0 forces the left-anti hash-join
    path, which must keep exactly the canonical rows with all corpus
    columns (identical output to the broadcast path)."""
    import ray.data as rd

    from quickray.extras.dedup import dedup_corpus

    n = 200
    docs = pa.table(
        {
            "doc_id": pa.array(np.arange(n, dtype=np.int64)),
            "lang": pa.array([f"l{i % 7}" for i in range(n)], pa.string()),
        }
    )
    # every odd doc is a loser in cluster of its preceding even doc
    ids = np.arange(n, dtype=np.int64)
    clusters = pa.table(
        {"doc_id": pa.array(ids), "cluster_id": pa.array(ids - (ids % 2))}
    )
    got = dedup_corpus(
        rd.from_arrow(docs).repartition(4),
        rd.from_arrow(clusters),
        broadcast_bytes=0,
    ).to_pandas().sort_values("doc_id").reset_index(drop=True)
    assert got["doc_id"].tolist() == list(range(0, n, 2))
    assert got["lang"].tolist() == [f"l{i % 7}" for i in range(0, n, 2)]
    assert list(got.columns) == ["doc_id", "lang"]


def test_exact_dedup_groups_span_many_blocks(ray_session):
    """Sorted-block reduction must not split an h-group across blocks:
    with only 3 distinct texts spread over 16 input blocks, range
    boundaries would cut inside a run if the sort key were composite
    (the (h, doc_id) sort bug: duplicate keep rows per group). One
    output row per distinct text, min id + full count."""
    import ray.data as rd

    from quickray.extras.dedup import exact_duplicates

    n = 3000
    texts = [f"text number {i % 3}" for i in range(n)]
    ds = rd.from_arrow(pa.table({
        "doc_id": pa.array(np.arange(n, dtype=np.int64)),
        "text": pa.array(texts),
    })).repartition(16)
    out = exact_duplicates(ds).to_pandas().sort_values("keep_doc_id")
    assert out["keep_doc_id"].tolist() == [0, 1, 2]
    assert out["group_size"].tolist() == [1000, 1000, 1000]


def test_sessionize_users_span_many_blocks(ray_session):
    """Same straddle hazard for sessionize: 4 users x 500 unordered
    events over 16 blocks must yield exactly one row per user with
    order-independent session counts."""
    import ray.data as rd

    from quickray.extras.events import sessionize

    rng = np.random.default_rng(3)
    n_users, per_user = 4, 500
    uid = np.repeat(np.arange(n_users, dtype=np.int64), per_user)
    # events 10 min apart with a >30-min gap after every 100th event
    base = np.arange(per_user, dtype=np.int64) * 600
    base += (np.arange(per_user) // 100) * 3600  # 4 breaks -> 5 sessions
    ts = np.tile(base, n_users)
    eid = np.arange(len(uid), dtype=np.int64)
    perm = rng.permutation(len(uid))  # arrival order is shuffled
    ds = rd.from_arrow(pa.table({
        "user_id": pa.array(uid[perm]),
        "ts": pa.array(ts[perm] * 10**6).cast(pa.timestamp("us")),
        "event_id": pa.array(eid[perm]),
    })).repartition(16)
    out = sessionize(ds, gap_sec=1800).to_pandas().sort_values("user_id")
    assert out["user_id"].tolist() == [0, 1, 2, 3]
    assert (out["n_events"] == per_user).all()
    assert (out["n_sessions"] == 5).all()


def test_quality_scores_consistent_with_counts(ray_session):
    """quality_scores (ratio form) must agree with the oracle-backed
    integer counts of quality_pipeline on the same docs — and its
    vectorized stopword membership (pc.is_in + bincount) must match a
    plain Python recount."""
    import ray.data as rd

    from quickray.extras.textstats import STOPWORDS, quality_scores
    from quickray.tokenize import flatten_tokens

    docs = pa.table({
        "doc_id": pa.array(np.arange(4, dtype=np.int64)),
        "text": pa.array([
            "the quick brown fox and the lazy dog",
            "func main() { return the }",
            "",
            "a a a of of IN In in",
        ]),
    })
    out = (
        quality_scores(rd.from_arrow(docs))
        .to_pandas().sort_values("doc_id").reset_index(drop=True)
    )
    flat, parents = flatten_tokens(docs["text"])
    toks, par = flat.to_pylist(), list(parents.to_pylist())
    stop = set(STOPWORDS)
    for i in range(4):
        mine = [t for t, p in zip(toks, par) if p == i]
        n, s = len(mine), sum(t in stop for t in mine)
        assert out.loc[i, "n_tokens"] == n
        denom = max(1, n)
        assert out.loc[i, "stop_ratio"] == round(s / denom, 4)
        assert out.loc[i, "mean_tok_len"] == round(
            sum(map(len, mine)) / denom, 4
        )


def test_run_starts_contract():
    """quickray.util.run_starts: numpy + Arrow key columns, composite
    keys, empty input — the shared kernel under every sorted-block
    reduction."""
    from quickray.util import run_starts

    a = np.array([1, 1, 2, 2, 2, 3])
    assert run_starts(a).tolist() == [0, 2, 5]
    # composite: break where ANY column changes
    b = np.array([7, 8, 8, 8, 9, 9])
    assert run_starts(a, b).tolist() == [0, 1, 2, 4, 5]
    # Arrow string column (never materializes Python objects)
    s = pa.array(["x", "x", "y", "y", "y", "z"])
    assert run_starts(s).tolist() == [0, 2, 5]
    # chunked arrow + numpy mix
    ch = pa.chunked_array([["x", "x"], ["y", "y", "y", "z"]])
    assert run_starts(ch, a).tolist() == [0, 2, 5]
    # single row and empty (numpy AND Arrow agree on the [0] sentinel)
    assert run_starts(np.array([42])).tolist() == [0]
    assert run_starts(np.array([], dtype=np.int64)).tolist() == [0]
    assert run_starts(pa.array([], pa.string())).tolist() == [0]


def test_sum_by_key_multiblock_and_guards(ray_session):
    """sum_by_key over keys spread across 16 blocks: one output row per
    key with exact sums/counts (the sort co-location invariant under
    the build's hot-term detection and term_df), and LOUD rejection of
    float or null value columns (np.asarray(int64) would silently map
    nulls to INT64_MIN and truncate floats)."""
    import pytest as _pytest
    import ray.data as rd

    from quickray.util import sum_by_key

    n, k = 4096, 5
    keys = [f"key{i % k}" for i in range(n)]
    vals = np.arange(n, dtype=np.int64)
    ds = rd.from_arrow(pa.table({
        "term": pa.array(keys), "v": pa.array(vals),
    })).repartition(16)
    out = (
        sum_by_key(ds, "term", sums=[("v", "s")], count_as="m")
        .to_pandas().sort_values("term").reset_index(drop=True)
    )
    assert len(out) == k  # no key split across blocks
    for i in range(k):
        mask = np.arange(n) % k == i
        assert out.loc[i, "term"] == f"key{i}"
        assert out.loc[i, "s"] == vals[mask].sum()
        assert out.loc[i, "m"] == mask.sum()

    fds = rd.from_arrow(pa.table({
        "term": pa.array(["a", "b"]), "v": pa.array([1.5, 2.5]),
    }))
    with _pytest.raises(Exception, match="integer columns only"):
        sum_by_key(fds, "term", sums=[("v", "s")]).materialize()
    nds = rd.from_arrow(pa.table({
        "term": pa.array(["a", "b"]), "v": pa.array([1, None], pa.int64()),
    }))
    with _pytest.raises(Exception, match="null values"):
        sum_by_key(nds, "term", sums=[("v", "s")]).materialize()


def test_ray_sort_contract_pinned():
    """The sorted-block groupby kernels (run_starts / sum_by_key /
    blockwise dedup & sessionize) rely on two Ray Data internals:
    (1) sort range-partitions on the FULL key so equal keys land in one
    output block, and (2) sort output is never re-split downstream
    (plan_all_to_all_op passes target_max_block_size=None). Pin both so
    a Ray upgrade FAILS here — visibly — instead of silently turning
    global aggregates into per-block partials; util._check_sort_contract
    additionally warns at runtime on unverified Ray versions."""
    import inspect

    import ray
    from ray.data._internal.planner import plan_all_to_all_op

    from quickray.util import _SORT_CONTRACT_VERIFIED_PREFIXES

    assert ray.__version__.startswith(_SORT_CONTRACT_VERIFIED_PREFIXES), (
        "Ray upgraded: re-verify the sorted-block co-location invariant"
        " (run the multi-block-group regressions in this file), then add"
        " the new version to util._SORT_CONTRACT_VERIFIED_PREFIXES"
    )
    src = inspect.getsource(plan_all_to_all_op)
    assert "target_max_block_size=None" in src, (
        "Ray's all-to-all planner no longer pins sort output block size;"
        " sorted runs may be re-split across blocks — re-verify before"
        " trusting blockwise reductions"
    )


def test_sum_by_key_and_exact_dedup_randomized_differential(ray_session):
    """Randomized differential vs pandas: sum_by_key (skewed random
    string keys over many blocks, random negative/positive int values)
    and exact_duplicates (random duplicated texts) must match the naive
    groupby exactly across seeds — the end-to-end check on the sorted-
    block reduction, on top of the kernel-level property tests."""
    import pandas as pd
    import ray.data as rd

    from quickray.extras.dedup import exact_duplicates
    from quickray.util import sum_by_key

    for seed in (0, 1, 2):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(500, 3000))
        # zipf-ish skew: a few hot keys + a long tail
        pool = [f"k{i}" for i in range(int(rng.integers(3, 80)))]
        probs = rng.dirichlet(np.ones(len(pool)) * 0.3)
        keys = rng.choice(pool, size=n, p=probs)
        vals = rng.integers(-10**6, 10**6, size=n)
        ds = rd.from_arrow(pa.table({
            "term": pa.array(keys.tolist()),
            "v": pa.array(vals, pa.int64()),
        })).repartition(int(rng.integers(2, 16)))
        got = (
            sum_by_key(ds, "term", sums=[("v", "s")], count_as="m")
            .to_pandas().sort_values("term").reset_index(drop=True)
        )
        want = (
            pd.DataFrame({"term": keys, "v": vals})
            .groupby("term", as_index=False)
            .agg(s=("v", "sum"), m=("v", "size"))
            .sort_values("term").reset_index(drop=True)
        )
        assert got["term"].tolist() == want["term"].tolist(), seed
        assert got["s"].tolist() == want["s"].tolist(), seed
        assert got["m"].tolist() == want["m"].tolist(), seed

        texts = rng.choice(
            [f"text body {i}" for i in range(int(rng.integers(2, 50)))],
            size=n,
        )
        dds = rd.from_arrow(pa.table({
            "doc_id": pa.array(np.arange(n, dtype=np.int64)),
            "text": pa.array(texts.tolist()),
        })).repartition(int(rng.integers(2, 16)))
        dgot = (
            exact_duplicates(dds).to_pandas()
            .sort_values("keep_doc_id").reset_index(drop=True)
        )
        dwant = (
            pd.DataFrame({"doc_id": np.arange(n), "text": texts})
            .groupby("text", as_index=False)
            .agg(keep_doc_id=("doc_id", "min"), group_size=("doc_id", "size"))
            .sort_values("keep_doc_id").reset_index(drop=True)
        )
        assert dgot["keep_doc_id"].tolist() == dwant["keep_doc_id"].tolist(), seed
        assert dgot["group_size"].tolist() == dwant["group_size"].tolist(), seed


def test_query_actor_hydrate_empty_batch_schema(tmp_path, ray_session):
    """A batch whose queries all match NOTHING must still emit typed
    hydrate columns: untyped pa.array([]) infers type null, and
    concatenating with a non-empty batch's string column raises
    ArrowInvalid in any downstream union/write (r05 engine review)."""
    import json as _json

    from quickray.build import build_index
    from quickray.corpus import generate_corpus
    from quickray.engine import QueryEngineActor
    from quickray.query import Query, Term

    tbl = generate_corpus(120, seed=21)
    out = str(tmp_path / "idx")
    build_index(tbl, out, num_shards=4)
    actor = QueryEngineActor(
        out, hydrate_cols=("sha256", "doc_len"), preload_top_df=0,
        preload_bytes=None,
    )
    empty_q = Query(tree=Term("qqabsentterm"), k=5, id="none")
    hit_q = Query(tree=Term("func"), k=5, id="hit")
    b_empty = actor(pa.table(
        {"query": pa.array([_json.dumps(empty_q.to_json())])}
    ))
    b_hit = actor(pa.table(
        {"query": pa.array([_json.dumps(hit_q.to_json())])}
    ))
    assert b_empty.num_rows == 0
    assert b_hit.num_rows > 0  # the concat below must be a REAL merge
    assert b_empty.schema.field("sha256").type == pa.string()
    assert b_empty.schema.field("doc_len").type == pa.int64()
    merged = pa.concat_tables([b_empty, b_hit])  # must not raise
    assert merged.num_rows == b_hit.num_rows
