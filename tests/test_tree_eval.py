"""Queries on both sides of the dense gate: term-at-a-time evaluation
over doc-indexed arrays, and sorted-array set algebra with
binary-search scoring. A lone term scores its filtered posting on
either side.

Random And/Or trees of depth <= 3 over hot (stopword-grade), mid, rare
and missing terms (flat ORs among them), and lone terms, without and
with each flag kind, at k in {0, 1, 10, 100}. Each side is forced by patching
``engine.DENSE_DIVISOR``; the two must give array-equal ids, scores and
candidates, and both must be rank-identical to the Oracle with scores
within 1e-9. The same holds on a DeltaEngine after add, update and
delete (one term fully tombstoned) and on a PartitionedEngine. Builds
are small enough for the local executor (no Ray job).
"""

import dataclasses

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pytest

from quickray import engine as engine_mod
from quickray.build import build_index
from quickray.corpus import generate_corpus
from quickray.delta import DeltaEngine
from quickray.engine import Index, LocalEngine, PartitionedEngine
from quickray.oracle import Oracle
from quickray.query import And, Or, Query, Term, flat_or_terms

KS = (0, 1, 10, 100)
# bit 0 is a language, bit 8 a test path, bit 9 a longer-than-average doc
FLAGS = ({}, {"on_flag": 1}, {"off_flag": 1 << 8}, {"or_flags": (3,)},
         {"on_flag": 1 << 9})
# bit 9 depends on the avgdl of the build that set it, so a part of a
# DeltaEngine or PartitionedEngine may disagree with one global build
PART_FLAGS = FLAGS[:4]
# patched divisors: every tree with a nonzero estimate is dense, or none
SIDES = (("dense", 1 << 40), ("sparse", 0))
MISSING = "zz_missing_zz"


def _pools(df: dict[str, int], n_docs: int) -> dict[str, list[str]]:
    """Terms by df class: hot (df > n/2), mid (n/16 < df <= n/8), rare
    (df <= 3) and one missing term."""
    by_df = sorted((t for t in df if "\x01" not in t), key=lambda t: (-df[t], t))
    rare = [t for t in by_df if df[t] <= 3]
    return {
        "hot": [t for t in by_df if df[t] > n_docs // 2][:8],
        "mid": [t for t in by_df if n_docs // 16 < df[t] <= n_docs // 8][:8],
        "rare": rare[:: max(1, len(rare) // 8)][:8],
        "missing": [MISSING],
    }


def _tree(rng, pools, depth=0):
    """A random And/Or tree; leaves at depth <= 3, some nodes empty."""
    if depth == 3 or (depth and rng.random() < 0.35):
        kind = rng.choice(["hot", "hot", "mid", "rare", "missing"])
        return Term(str(rng.choice(pools[kind])))
    op = And if rng.random() < 0.5 else Or
    n = int(rng.choice([0, 1, 2, 2, 3, 3]) if depth else rng.integers(2, 4))
    return op(tuple(_tree(rng, pools, depth + 1) for _ in range(n)))


def _trees(pools, n, seed):
    rng = np.random.default_rng(seed)
    h, m, r = pools["hot"], pools["mid"], pools["rare"]
    fixed = [
        And((Term(h[0]), Term(MISSING))),
        Or((And((Term(h[0]), Term(MISSING))), And((Term(h[1]), Term(m[0]))))),
        And((Term(r[0]), Term(h[0]))),
        And((Term(h[0]), Term(h[1]), Term(h[2]))),
        Or((And((Term(h[0]), Term(h[1]))), And((Term(h[2]), Term(h[3]))))),
        And((Or((Term(m[0]), Term(m[1]))), Term(h[1]), Or(()))),
    ]
    flat = [
        Term(h[0]), Term(m[0]), Term(r[0]), Term(MISSING),
        Or((Term(h[0]), Term(h[1]))),
        Or((Term(r[0]), Term(m[0]), Term(MISSING))),
        Or((Term(h[2]), Term(MISSING))),
    ]
    return fixed + flat + [_tree(rng, pools) for _ in range(n)]


def _queries(trees, flags):
    return [
        Query(tree=t, k=max(KS), id=f"{i}/{j}", **f)
        for i, t in enumerate(trees)
        for j, f in enumerate(flags)
    ]


def _run_sides(monkeypatch, eng, queries):
    """Per side: each query's (ids, scores) at every k, candidates and
    last path (None for engines that record none)."""
    got = {}
    for side, div in SIDES:
        monkeypatch.setattr(engine_mod, "DENSE_DIVISOR", div)
        rows = []
        for q in queries:
            res = [eng.search(dataclasses.replace(q, k=k)) for k in KS]
            cand = eng.candidates(q)
            assert eng.count(q) == len(cand), (side, q)
            rows.append((res, cand, getattr(eng, "last_path", None)))
        got[side] = rows
    return got


def _assert_sides_equal(got, queries):
    for q, (dres, dcand, _), (sres, scand, _) in zip(
        queries, got["dense"], got["sparse"]
    ):
        for k, (di, ds), (si, ss) in zip(KS, dres, sres):
            assert np.array_equal(di, si), (q, k)
            assert np.array_equal(ds, ss), (q, k)
        assert np.array_equal(dcand, scand), q


def _assert_oracle(got, queries, oracle, key_of=None):
    """Rank identity with the Oracle (ids mapped through ``key_of`` for
    keyed engines) and scores within 1e-9."""
    for q, (res, cand, _) in zip(queries, got):
        full = oracle.search(dataclasses.replace(q, k=10**9))
        exp_ids = [d for d, _ in full]
        exp_sc = np.array([s for _, s in full])
        if key_of is not None:
            exp_ids = [key_of[d] for d in exp_ids]
        for k, (ids, sc) in zip(KS, res):
            assert list(ids) == exp_ids[:k], (q, k)
            assert np.allclose(sc, exp_sc[:k], rtol=1e-9, atol=1e-12), (q, k)
        exp_cand = oracle.candidates(q)
        if key_of is not None:
            exp_cand = sorted(key_of[d] for d in exp_cand)
        assert list(cand) == exp_cand, q


# ----------------------------------------------------------------- local
@pytest.fixture(scope="module")
def corpus():
    return generate_corpus(1600, seed=21)


@pytest.fixture(scope="module")
def oracle(corpus):
    return Oracle(corpus)


@pytest.fixture(scope="module")
def eng(corpus, tmp_path_factory):
    out = str(tmp_path_factory.mktemp("tree") / "idx")
    build_index(corpus, out)
    return LocalEngine(Index(out))


def test_dense_and_sparse_trees_agree_with_oracle(eng, oracle, monkeypatch):
    pools = _pools(oracle.df(), oracle.n_docs)
    assert all(pools.values()), pools
    queries = _queries(_trees(pools, 70, seed=3), FLAGS)
    got = _run_sides(monkeypatch, eng, queries)
    _assert_sides_equal(got, queries)
    _assert_oracle(got["dense"], queries, oracle)
    # each side took its own route; a flat OR's path is wand's
    flat = [flat_or_terms(q.tree) is not None for q in queries]
    dense = [p for (*_, p), f in zip(got["dense"], flat) if not f]
    sparse = [p for (*_, p), f in zip(got["sparse"], flat) if not f]
    assert all(p[0] == "dense" for p in dense if p[1]), dense
    assert {p[0] for p in sparse} == {"sparse"}, sparse
    assert sum(p[1] > 0 for p in dense) > len(dense) // 2
    wand = [p for side in got.values() for (*_, p), f in zip(side, flat) if f]
    assert len(wand) >= 2 * 7 * len(FLAGS)
    assert {p[0] for p in wand} == {"exhaustive"}, wand


def test_gate_routes_by_estimate(eng, oracle):
    """Unpatched gate (n_docs // 16): a rare term ANDed with a stopword
    stays sparse (it seeds from the rare posting); two hot terms go
    dense."""
    df = oracle.df()
    pools = _pools(df, oracle.n_docs)
    rare, (h0, h1) = pools["rare"][0], pools["hot"][:2]
    eng.search(Query(tree=And((Term(rare), Term(h0)))))
    assert eng.last_path == ("sparse", df[rare])
    eng.search(Query(tree=And((Term(h0), Term(h1)))))
    assert eng.last_path == ("dense", min(df[h0], df[h1]))
    eng.search(Query(tree=Or((And((Term(rare), Term(h0))), And((Term(MISSING), Term(h1)))))))
    assert eng.last_path == ("sparse", df[rare])


def test_each_estimate_once_per_query(eng, oracle, monkeypatch):
    """A sparse tree with Ands below the root is estimated once per
    node per query: search and candidates each ask Index.df_of once per
    distinct leaf (the routing estimate serves every And below it), and
    the answers stay the Oracle's."""
    df = oracle.df()
    pools = _pools(df, oracle.n_docs)
    (r0, r1), (h0, h1), m0 = pools["rare"][:2], pools["hot"][:2], pools["mid"][0]
    tree = And((
        Or((And((Term(r0), Term(h0))),
            And((Term(r1), Or((Term(m0), Term(h1))))))),
        Term(h0),
    ))
    calls = []
    real = eng.index.df_of

    def counting(term):
        calls.append(term)
        return real(term)

    monkeypatch.setattr(eng.index, "df_of", counting)
    q = Query(tree=tree, k=10)
    ids, sc = eng.search(q)
    assert eng.last_path[0] == "sparse"
    assert sorted(calls) == sorted({r0, r1, h0, h1, m0})
    ref = oracle.search(q)
    assert list(ids) == [d for d, _ in ref]
    assert np.allclose(sc, [s for _, s in ref], rtol=1e-9, atol=1e-12)
    del calls[:]
    assert eng.candidates(q).tolist() == oracle.candidates(q)
    assert sorted(calls) == sorted({r0, r1, h0, h1, m0})


def test_sparse_tree_searches_each_term_once(eng, oracle, monkeypatch):
    """Sparse, a query term's posting is searched over the doc universe
    at most once per query, scores included, and a term whose filtered
    posting lies in the universe not at all: an And(rare, hot) and a
    compound of two such Ands search only their hot postings (each
    universe carries its rare terms' positions, the Or's union
    included); a flat OR and a lone term search nothing."""
    df = oracle.df()
    pools = _pools(df, oracle.n_docs)
    (r0, r1), (h0, h1) = pools["rare"][:2], pools["hot"][:2]
    searched = []
    real = engine_mod._find

    def counting(doc_ids, docs):
        searched.append(len(doc_ids))
        return real(doc_ids, docs)

    monkeypatch.setattr(engine_mod, "_find", counting)
    cases = [
        (And((Term(r0), Term(h0))), "sparse", [df[h0]]),
        (Or((And((Term(r0), Term(h0))), And((Term(r1), Term(h1))))),
         "sparse", sorted([df[h0], df[h1]])),
        (Or((Term(r0), Term(r1))), "exhaustive", []),
        (Term(r0), "exhaustive", []),
    ]
    for tree, route, want in cases:
        for flags in FLAGS[:2]:
            q = Query(tree=tree, k=10, **flags)
            del searched[:]
            ids, sc = eng.search(q)
            assert eng.last_path[0] == route, q
            assert sorted(searched) == want, q
            ref = oracle.search(q)
            assert list(ids) == [d for d, _ in ref], q
            assert np.allclose(sc, [s for _, s in ref], rtol=1e-9, atol=1e-12)


def test_df_of_answers_segment_df(corpus, tmp_path):
    """Index.df_of equals the segment df whether the posting is cached,
    uncached, evicted or missing, and never touches the posting LRU."""
    out = str(tmp_path / "idx")
    build_index(corpus, out)
    ix = Index(out)
    ix._cache_cap = 2
    seg = dict(zip(*(ix.df_table()[c].to_pylist() for c in ("term", "df"))))
    a, b, c = sorted(seg, key=lambda t: (-seg[t], t))[:3]

    def check(term, want):
        before = list(ix._cache)
        assert ix.df_of(term) == want, term
        assert list(ix._cache) == before  # no decode, no recency change

    check(a, seg[a])  # uncached
    ix.posting(a)
    check(a, seg[a])  # cached
    check(MISSING, 0)  # missing, uncached
    ix.posting(MISSING)
    assert MISSING in ix._cache
    check(MISSING, 0)  # missing, cached as None
    ix.posting(b)
    ix.posting(c)
    assert a not in ix._cache
    check(a, seg[a])  # evicted
    check(c, seg[c])


# ----------------------------------------------------------- multi-part
def _keys(tbl: pa.Table) -> pa.Array:
    return pc.binary_join_element_wise(
        tbl["repo"].combine_chunks(), tbl["path"].combine_chunks(), "\x01"
    )


def _key_of(tbl: pa.Table) -> list[str]:
    """Oracle doc id -> key: ids are the dense (repo, path) rank."""
    return sorted(_keys(tbl).to_pylist())


def test_delta_engine_trees(tmp_path, monkeypatch):
    base = generate_corpus(600, seed=31)
    added = generate_corpus(60, seed=32)
    added = added.set_column(
        added.schema.get_field_index("path"), "path",
        pc.binary_join_element_wise(pa.scalar("delta"), added["path"].combine_chunks(), "/"),
    )
    base_oracle = Oracle(base)
    bdf = base_oracle.df()
    # a term held by a handful of base docs, all deleted below
    gone = next(t for t in sorted(bdf) if bdf[t] == 3 and "\x01" not in t)
    keys = _keys(base).to_pylist()
    rank = {k: i for i, k in enumerate(_key_of(base))}
    gone_rows = [
        i for i, k in enumerate(keys) if rank[k] in base_oracle.postings[gone]
    ]
    deleted_rows = gone_rows + [5, 50, 500]
    updated_rows = [7, 70, 300, 301]
    content = base["content"].to_pylist()
    updates = base.take(np.asarray(updated_rows)).set_column(
        base.schema.get_field_index("content"), "content",
        pa.array([content[i] + " refreshed golang tokens" for i in updated_rows]),
    )

    build_index(base, str(tmp_path / "main"))
    build_index(pa.concat_tables([added, updates]), str(tmp_path / "delta"))
    deleted = [keys[i] for i in deleted_rows]
    eng = DeltaEngine([str(tmp_path / "main")], str(tmp_path / "delta"), deleted)

    gone_set = set(deleted_rows) | set(updated_rows)
    live = pa.concat_tables([
        base.filter(pa.array([i not in gone_set for i in range(base.num_rows)])),
        updates, added,
    ])
    oracle = Oracle(live)
    assert gone not in oracle.postings  # fully tombstoned
    main_part = eng.engines[0]
    assert not main_part.live[main_part.index.posting(gone).doc_ids].any()
    assert main_part.index.df_of(gone) == 3  # stored: an upper bound

    pools = _pools(oracle.df(), oracle.n_docs)
    pools["rare"] = [gone] + pools["rare"][:4]
    h = pools["hot"]
    trees = _trees(pools, 30, seed=4) + [
        And((Term(gone), Term(h[0]))),
        Or((And((Term(gone), Term(h[0]))), And((Term(h[1]), Term(h[2]))))),
    ]
    queries = _queries(trees, PART_FLAGS)
    got = _run_sides(monkeypatch, eng, queries)
    _assert_sides_equal(got, queries)
    _assert_oracle(got["dense"], queries, oracle, _key_of(live))


def test_partitioned_engine_trees(corpus, oracle, tmp_path, monkeypatch):
    srt = corpus.take(pc.sort_indices(_keys(corpus)))
    n = srt.num_rows
    cuts = [0, n // 3, 2 * n // 3, n]
    dirs = []
    for i in range(3):
        dirs.append(str(tmp_path / f"p{i}"))
        build_index(srt.slice(cuts[i], cuts[i + 1] - cuts[i]), dirs[-1])
    eng = PartitionedEngine(dirs)
    pools = _pools(oracle.df(), oracle.n_docs)
    queries = _queries(_trees(pools, 30, seed=5), PART_FLAGS)
    got = _run_sides(monkeypatch, eng, queries)
    _assert_sides_equal(got, queries)
    _assert_oracle(got["dense"], queries, oracle)
