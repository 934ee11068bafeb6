"""End-to-end build conformance + rank identity (SURVEY §7.7 items 2,5,6,7)."""

import hashlib
import os

import numpy as np
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
    """docmeta stores the doc-intrinsic bits (the Oracle's without the
    long-doc bit 9); the Scorer serves the Oracle's bits, bit 9 derived
    from avgdl."""
    dm = pq.read_table(os.path.join(built_index, "docmeta"))
    got_bits = dict(zip(dm["doc_id"].to_pylist(), dm["bits"].to_pylist()))
    got_len = dict(zip(dm["doc_id"].to_pylist(), dm["doc_len"].to_pylist()))
    assert got_bits == {d: b & ~(1 << 9) for d, b in oracle.bits.items()}
    assert got_len == oracle.doc_len
    ix = Index(built_index)
    assert dict(enumerate(ix.scorer.bits.tolist())) == oracle.bits
    assert any(b & (1 << 9) for b in oracle.bits.values())


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


def test_shard_layout_invariance(small_corpus, built_index, tmp_path):
    """Same corpus built on the other executor with a different merge
    layout must produce byte-identical segment contents (determinism
    across physical plans — the N vs 4N cluster argument in
    miniature). The segments hold exactly SEGMENT_SCHEMA: no
    per-posting doc-level streams."""
    from quickray.build import build_index
    from quickray.schema import SEGMENT_SCHEMA

    out2 = str(tmp_path / "shards7")
    build_index(small_corpus, out2, num_shards=7)
    a = pq.read_table(os.path.join(built_index, "segments")).sort_by("term")
    b = pq.read_table(os.path.join(out2, "segments")).sort_by("term")
    for t in (a, b):
        assert t.schema.remove_metadata() == SEGMENT_SCHEMA
    assert sorted(set(b["shard"].to_pylist())) == list(range(7))
    for col in ["term", "df", "postings", "tfs"]:
        assert a[col].to_pylist() == b[col].to_pylist(), col


def test_build_tokenizes_each_batch_once(tmp_path, flatten_calls):
    """The docbase pass is the build's only tokenization: one
    flatten_tokens call per tokenizer batch (a local build is one
    batch), and the segments phase merges its checkpointed runs."""
    from quickray.build import build_index
    from quickray.corpus import generate_corpus

    res = build_index(generate_corpus(300, seed=11), str(tmp_path / "b"),
                      field_cols=["lang"])
    assert res.stats["executor"] == "local"
    assert flatten_calls == [300]
