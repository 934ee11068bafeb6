"""End-to-end build conformance + rank identity (SURVEY §7.7 items 2,5,6,7)."""

import hashlib
import os

import numpy as np
import pyarrow.compute as pc
import pyarrow.parquet as pq
import pytest

from quickray.engine import Index, LocalEngine
from quickray.queryset import make_query_set


@pytest.fixture(scope="module")
def engine(built_index):
    return LocalEngine(Index(built_index))


def test_posting_lists_match_oracle(engine, oracle):
    golden = oracle.posting_lists()
    assert engine.index.vocab_size == len(golden)
    for term, (ids, tfs) in golden.items():
        p = engine.index.posting(term)
        assert p is not None, term
        assert p.doc_ids.tolist() == ids, term
        assert p.tfs.tolist() == tfs, term
        # postings must be strictly increasing (the one reference invariant)
        assert np.all(np.diff(p.doc_ids) > 0)


def test_docmeta_matches_oracle(built_index, oracle):
    dm = pq.read_table(os.path.join(built_index, "docmeta"))
    got_bits = dict(zip(dm["doc_id"].to_pylist(), dm["bits"].to_pylist()))
    got_len = dict(zip(dm["doc_id"].to_pylist(), dm["doc_len"].to_pylist()))
    assert got_bits == oracle.bits
    assert got_len == oracle.doc_len


def test_sha256_invariant(built_index, small_corpus):
    """Per-row content sha256 equality vs the input table (north rule)."""
    ids_tbl = pq.read_table(
        os.path.join(built_index, "docmeta"),
        columns=["repo", "path", "sha256"],
    )
    stored = {
        (r, p): s
        for r, p, s in zip(
            ids_tbl["repo"].to_pylist(),
            ids_tbl["path"].to_pylist(),
            ids_tbl["sha256"].to_pylist(),
        )
    }
    contents = {
        (r, p): c
        for r, p, c in zip(
            small_corpus["repo"].to_pylist(),
            small_corpus["path"].to_pylist(),
            small_corpus["content"].to_pylist(),
        )
    }
    assert len(stored) == small_corpus.num_rows
    for key, content in contents.items():
        assert stored[key] == hashlib.sha256(content.encode()).hexdigest()


def test_global_stats_match_oracle(engine, oracle):
    assert engine.index.n_docs == oracle.n_docs
    assert engine.index.avgdl == pytest.approx(oracle.avgdl, rel=1e-12)
    assert engine.index.stats["total_tokens"] == oracle.total_tokens


def test_rank_identity_reference_query_set(engine, oracle):
    queries = make_query_set(oracle.df())
    assert len(queries) >= 30
    for q in queries:
        ids, scores = engine.search(q)
        expected = oracle.search(q)
        assert ids.tolist() == [d for d, _ in expected], q.to_json()
        assert np.allclose(
            scores, [s for _, s in expected], rtol=1e-9, atol=1e-12
        ), q.to_json()


def test_candidate_sets_match_oracle(engine, oracle):
    for q in make_query_set(oracle.df()):
        assert engine.candidates(q).tolist() == oracle.candidates(q), q.to_json()


def test_salting_invariance(small_corpus, built_index, tmp_path):
    """Same corpus built with no salting and different shuffle layout
    must produce byte-identical segment contents (determinism across
    physical plans — the N vs 4N cluster argument in miniature). The
    segments hold exactly SEGMENT_SCHEMA: no per-posting doc-level
    streams."""
    from quickray.build import build_index
    from quickray.schema import SEGMENT_SCHEMA

    out2 = str(tmp_path / "nosalt")
    build_index(small_corpus, out2, hot_df=300, num_salts=1, num_shards=7)
    a = pq.read_table(os.path.join(built_index, "segments")).sort_by("term")
    b = pq.read_table(os.path.join(out2, "segments")).sort_by("term")
    for t in (a, b):
        assert t.schema.remove_metadata() == SEGMENT_SCHEMA
    for col in ["term", "df", "postings", "tfs", "block_last", "block_max"]:
        assert a[col].to_pylist() == b[col].to_pylist(), col


def test_assign_doc_ids_fallback_matches_rank(ray_session):
    """The fully-distributed doc_id fallback (for key sets exceeding
    node memory) must assign exactly the ranks the broadcast path
    assigns, at any block count — and raise on duplicate keys instead
    of silently handing out duplicate ids (r05 review: the block-offset
    dict overwrote on shared first keys)."""
    import pyarrow as pa
    import pytest as _pytest
    import ray.data as rd

    from quickray.docids import assign_doc_ids, doc_ids_py

    n = 500
    repos = [f"r{i % 7}" for i in range(n)]
    paths = [f"p{(i * 31) % n:04d}" for i in range(n)]
    ds = rd.from_arrow(pa.table({
        "repo": pa.array(repos), "path": pa.array(paths),
        "payload": pa.array(list(range(n))),
    })).repartition(11)
    out = assign_doc_ids(ds).to_pandas().sort_values("payload")
    want = doc_ids_py(repos, paths)
    assert out["doc_id"].to_numpy().tolist() == want.tolist()

    dup = rd.from_arrow(pa.table({
        "repo": pa.array(["r"] * 400), "path": pa.array(["same"] * 400),
    })).repartition(4)
    # Ray wraps worker exceptions (RayTaskError); match the message
    with _pytest.raises(Exception, match="duplicate"):
        assign_doc_ids(dup).materialize()


HOT_CASES = {
    "local": {},
    "ray": {"tokenizer_batch_size": 128},
    "durable": {"tokenizer_batch_size": 128, "durable_shuffle": True,
                "shuffle_chunks": 3},
}


@pytest.mark.parametrize("kw", list(HOT_CASES.values()), ids=list(HOT_CASES))
def test_hot_set_is_exact(tmp_path, kw):
    """The hot set is every term, content word or field key, whose
    corpus df exceeds the threshold: the sum of its batch runs' dfs,
    on either executor and on the durable shuffle."""
    from quickray.build import build_index
    from quickray.corpus import generate_corpus

    res = build_index(generate_corpus(300, seed=11), str(tmp_path / "b"),
                      hot_df=40, num_salts=4, field_cols=["lang"], **kw)
    st = res.stats
    assert st["executor"] == ("ray" if kw else "local")
    seg = pq.read_table(os.path.join(res.out_dir, "segments"),
                        columns=["term", "df"])
    want = sorted(
        t for t, df in zip(seg["term"].to_pylist(), seg["df"].to_pylist())
        if df > st["hot_df_threshold"]
    )
    assert st["hot_terms"] == want
    assert any(t.startswith("lang\x01") for t in want)
    assert any("\x01" not in t for t in want)


def test_build_tokenizes_each_batch_once(tmp_path, flatten_calls):
    """The docbase pass is the build's only tokenization: one
    flatten_tokens call per tokenizer batch (a local build is one
    batch), and the postings phase shuffles its checkpointed runs."""
    from quickray.build import build_index
    from quickray.corpus import generate_corpus

    res = build_index(generate_corpus(300, seed=11), str(tmp_path / "b"),
                      hot_df=40, num_salts=4, field_cols=["lang"])
    assert res.stats["executor"] == "local"
    assert flatten_calls == [300]


def test_hot_candidates_keep_every_hot_term(tmp_path):
    """The stats phase sums only the runs of candidate terms (a run
    above the threshold's share of its batch); over uneven batches and
    every threshold at a df boundary, that is still the exact set of
    terms whose summed run df exceeds it."""
    from quickray.build import _hot_terms, build_index
    from quickray.corpus import generate_corpus

    res = build_index(generate_corpus(300, seed=11), str(tmp_path / "b"),
                      tokenizer_batch_size=64, field_cols=["lang"])
    assert res.stats["executor"] == "ray"
    docbase = os.path.join(res.out_dir, "docbase")
    runs = pq.read_table(docbase, columns=["term", "df", "batch_docs",
                                           "kind"])
    runs = runs.filter(pc.equal(runs["kind"], 1))
    assert len(set(runs["batch_docs"].to_pylist())) > 1  # uneven batches
    sums = runs.group_by("term").aggregate([("df", "sum")])
    df = dict(zip(sums["term"].to_pylist(), sums["df_sum"].to_pylist()))
    thresholds = {0, 300} | {d - 1 for d in df.values()} | set(df.values())
    for th in sorted(thresholds):
        want = sorted(t for t, d in df.items() if d > th)
        assert _hot_terms(docbase, 300, th) == want, th
