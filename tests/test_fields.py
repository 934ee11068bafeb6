"""Field-scoped term parity (the reference's multi-field indexing):
Keyword{Field, Word} postings keyed field + "\x01" + lower(word)
(demo/job/build_index.go:114-127, gen/document.go:5), queried via
Term(word, field=f) and recalled by the author-recaller port
(demo/job/search/recaller/keyword_author.go:16-54)."""

import numpy as np
import pytest

from quickray.engine import Index, LocalEngine
from quickray.oracle import Oracle
from quickray.query import And, Or, Query, Term

FIELDS = ["lang", "repo"]


@pytest.fixture(scope="module")
def field_corpus():
    from quickray.corpus import generate_corpus

    return generate_corpus(400, seed=11)


@pytest.fixture(scope="module")
def field_index(field_corpus, tmp_path_factory, ray_session):
    """Build with lang+repo indexed as fields; the lang field keywords
    (df ~ n/len(langs)) are among the corpus's hottest keys, merged
    like any term."""
    from quickray.build import build_index

    out = str(tmp_path_factory.mktemp("fieldidx") / "build")
    build_index(
        field_corpus, out, field_cols=FIELDS
    )
    return out


@pytest.fixture(scope="module")
def field_oracle(field_corpus):
    return Oracle(field_corpus, field_cols=FIELDS)


@pytest.fixture(scope="module")
def field_engine(field_index):
    return LocalEngine(Index(field_index))


def _vals(corpus, col):
    return sorted({(v or "").lower() for v in corpus[col].to_pylist()})


def test_field_keys_indexed_and_hot(field_index, field_corpus):
    import json
    import os

    import pyarrow.parquet as pq

    with open(os.path.join(field_index, "stats", "stats.json")) as f:
        stats = json.load(f)
    assert stats["field_cols"] == FIELDS
    terms = set(
        pq.read_table(
            os.path.join(field_index, "segments"), columns=["term"]
        )["term"].to_pylist()
    )
    for lang in _vals(field_corpus, "lang"):
        assert f"lang\x01{lang}" in terms
    # the lang field keywords are hot: each holds a sizable share of
    # the corpus, one posting per doc of that lang
    seg = pq.read_table(os.path.join(field_index, "segments"),
                        columns=["term", "df"])
    df = dict(zip(seg["term"].to_pylist(), seg["df"].to_pylist()))
    langs = field_corpus["lang"].to_pylist()
    for lang in _vals(field_corpus, "lang"):
        want = sum((v or "").lower() == lang for v in langs)
        assert df[f"lang\x01{lang}"] == want, lang
    assert max(df[f"lang\x01{v}"] for v in _vals(field_corpus, "lang")) > 50


def test_field_recall_matches_metadata(field_engine, field_corpus, field_oracle):
    """Term(word, field='lang') resolves through the posting table and
    equals a metadata scan for every lang value."""
    for lang in _vals(field_corpus, "lang"):
        q = Query(tree=Term(lang, field="lang"), k=10**9)
        got = field_engine.candidates(q).tolist()
        assert got == field_oracle.candidates(q), lang


@pytest.mark.parametrize("shape", ["and", "or", "flags", "field_only_or"])
def test_field_query_rank_identity(
    shape, field_engine, field_oracle, field_corpus
):
    """Mixed field/content queries: engine top-k (doc_id, score) equals
    the brute-force oracle exactly — field postings score as ordinary
    BM25 terms (tf=1, df = docs holding the value, dl = content |d|)."""
    langs = _vals(field_corpus, "lang")
    repos = _vals(field_corpus, "repo")
    if shape == "and":
        tree = And((Term(langs[0], field="lang"), Term("func")))
    elif shape == "or":
        tree = Or((Term(repos[0], field="repo"), Term("return")))
    elif shape == "flags":
        tree = And((Term(langs[-1], field="lang"), Term("import")))
    else:
        tree = Or(tuple(Term(v, field="lang") for v in langs[:3]))
    q = Query(tree=tree, k=25, off_flag=(1 << 8) if shape == "flags" else 0)
    ids, sc = field_engine.search(q)
    want = field_oracle.search(q)
    assert ids.tolist() == [d for d, _ in want], shape
    assert np.allclose(sc, [s for _, s in want], rtol=1e-9, atol=1e-12)


def test_author_recaller_port(field_engine, field_corpus):
    """Searcher with a field recaller (keyword_author.go:16-54): the
    merged candidate union covers both strategies' sets."""
    from quickray.recall import SearchContext, Searcher, make_term_recaller

    lang = _vals(field_corpus, "lang")[0]
    ctx = SearchContext(["func"])
    by_field = make_term_recaller(f"  {lang.upper()} ", field="lang")
    got_field = by_field(field_engine, ctx)  # M4 cleaning applied
    assert got_field.tolist() == field_engine.candidates(
        Query(tree=Term(lang, field="lang"), k=10**9)
    ).tolist()
    s = Searcher([by_field])
    ids, scores = s.search(field_engine, ctx, k=10**6)
    # EVERY recalled survivor returns (reference Search returns
    # ctx.Result as-is): the full field-recall set; docs also matching
    # the keyword rank first with BM25 score, the rest score 0
    kw = set(
        field_engine.candidates(Query(tree=Term("func"), k=10**9)).tolist()
    )
    assert set(ids.tolist()) == set(got_field.tolist())
    for d, s_ in zip(ids.tolist(), scores.tolist()):
        assert (s_ > 0) == (d in kw)


def test_field_hot_detection_case_folds(tmp_path, ray_session):
    """Field dfs must be counted on the lowercased posting key ('EN'
    and 'en' both post to lang\\x01en), or a case-mixed hot value would
    split into two half-size postings."""
    import os

    import pyarrow as pa
    import pyarrow.parquet as pq

    from quickray.build import build_index

    n = 120
    tbl = pa.table(
        {
            "repo": pa.array(["r"] * n),
            "path": pa.array([f"f{i:03d}.go" for i in range(n)]),
            "commit": pa.array(["c"] * n),
            "lang": pa.array(["EN" if i % 2 else "en" for i in range(n)]),
            "content": pa.array([f"word{i}" for i in range(n)]),
        }
    )
    out = str(tmp_path / "idx")
    build_index(tbl, out, field_cols=["lang"], langs=["en"])
    seg = pq.read_table(os.path.join(out, "segments"), columns=["term", "df"])
    df = dict(zip(seg["term"].to_pylist(), seg["df"].to_pylist()))
    # each raw-cased group is 60; the folded key's df is 120
    assert df["lang\x01en"] == n
    assert not any(t.startswith("lang\x01") and t != "lang\x01en" for t in df)
    eng = LocalEngine(Index(out))
    assert len(eng.candidates(
        Query(tree=Term("en", field="lang"), k=10**9)
    )) == n


def test_empty_field_values_never_indexed(tmp_path, ray_session):
    """Null / empty field values must emit NO posting (reference:
    Keyword.ToString is '' for an empty Word and indexing is guarded by
    len(Author) > 0 — keyword_author.go:16-54); a 'lang\\x01' posting
    would inflate field dfs while being unreachable via JSON queries
    (tree_from_json drops empty-word terms). Non-empty values index
    normally and the Oracle agrees on scores."""
    import pyarrow as pa

    from quickray.build import build_index

    n = 90
    langs = [None if i % 3 == 0 else ("" if i % 3 == 1 else "go")
             for i in range(n)]
    tbl = pa.table(
        {
            "repo": pa.array(["r"] * n),
            "path": pa.array([f"f{i:03d}.go" for i in range(n)]),
            "commit": pa.array(["c"] * n),
            "lang": pa.array(langs),
            "content": pa.array([f"word{i} shared" for i in range(n)]),
        }
    )
    out = str(tmp_path / "idx")
    build_index(tbl, out, field_cols=["lang"], langs=["go"])
    ix = Index(out)
    terms = set(ix.df_table()["term"].to_pylist())
    assert "lang\x01" not in terms
    assert "lang\x01go" in terms
    eng = LocalEngine(ix)
    cand = eng.candidates(Query(tree=Term("go", field="lang"), k=10**9))
    assert len(cand) == sum(1 for v in langs if v == "go")
    # rank identity incl. the df the empty rows must NOT count toward
    oracle = Oracle(tbl, field_cols=["lang"])
    assert "lang\x01" not in oracle.postings
    q = Query(tree=Or((Term("go", field="lang"), Term("shared"))), k=15)
    ids, sc = eng.search(q)
    oc = oracle.search(q)
    assert list(ids) == [d for d, _ in oc]
    assert np.allclose(sc, [s for _, s in oc], rtol=1e-9, atol=1e-12)


def test_duplicate_field_cols_rejected(tmp_path, ray_session):
    import pyarrow as pa
    import pytest as _pytest

    from quickray.build import build_index

    tbl = pa.table(
        {
            "repo": pa.array(["r"]),
            "path": pa.array(["f.go"]),
            "commit": pa.array(["c"]),
            "lang": pa.array(["go"]),
            "content": pa.array(["x"]),
        }
    )
    with _pytest.raises(ValueError, match="duplicates"):
        build_index(tbl, str(tmp_path / "i"), field_cols=["lang", "lang"])


def test_partitioned_field_terms_match_global(
    field_corpus, field_index, field_oracle, tmp_path_factory, ray_session
):
    """Doc-sharded serving with field-scoped terms: 3 key-range
    partition builds (each with field_cols) served by PartitionedEngine
    are rank- and score-identical to the single global field build —
    the lazy global df resolves the corpus-wide field-term df across
    shards."""
    import pyarrow.compute as pc

    from quickray.build import build_index
    from quickray.engine import PartitionedEngine

    keys = pc.binary_join_element_wise(
        field_corpus["repo"].combine_chunks(),
        field_corpus["path"].combine_chunks(),
        "\x01",
    )
    srt = field_corpus.take(pc.sort_indices(keys))
    n = srt.num_rows
    cuts = [0, n // 3, 2 * n // 3, n]
    root = tmp_path_factory.mktemp("fieldparts")
    dirs = []
    for i in range(3):
        out = str(root / f"p{i}")
        build_index(
            srt.slice(cuts[i], cuts[i + 1] - cuts[i]), out,
            field_cols=FIELDS,
        )
        dirs.append(out)
    peng = PartitionedEngine(dirs)
    langs = _vals(field_corpus, "lang")
    qs = [
        Query(tree=Term(langs[0], field="lang"), k=10**9),
        Query(tree=And((Term(langs[1], field="lang"), Term("func"))), k=30),
        Query(tree=Or((Term(langs[0], field="lang"),
                       Term(langs[2], field="lang"))), k=40),
    ]
    geng = LocalEngine(Index(field_index))
    for q in qs:
        pids, psc = peng.search(q)
        gids, gsc = geng.search(q)
        assert pids.tolist() == gids.tolist()
        assert np.allclose(psc, gsc, rtol=1e-9, atol=1e-12)
        assert sorted(peng.candidates(q).tolist()) == sorted(
            geng.candidates(q).tolist()
        )


def test_field_query_json_roundtrip():
    from quickray.query import query_from_json

    q = Query(
        tree=And((Term("en", field="lang"), Term("data"))), k=7, on_flag=2
    )
    q2 = query_from_json(q.to_json())
    assert q2.tree == q.tree
    assert q2.tree.children[0].key == "lang\x01en"
    assert q2.k == 7 and q2.on_flag == 2
