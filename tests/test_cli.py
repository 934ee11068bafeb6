"""CLI surface (`python -m quickray.cli`, the ``ray job submit``
entrypoint — demo/cmd/main.go:12-19 analog): term parsing folds case
exactly like the index stores keys, and `query` returns the same hits
as the library API."""

import json

import numpy as np

from quickray.cli import _parse_terms, main
from quickray.engine import Index, LocalEngine
from quickray.query import Or, Query, Term


def test_parse_terms_case_folds_and_strips():
    """The tokenizer lowercases content tokens and field values before
    keying postings, so un-folded CLI terms would silently miss every
    posting (r04 review finding). The CLI applies the same M4 cleaning
    as make_term_recaller (recall.py:67)."""
    got = _parse_terms(" FUNC ,repo:MyRepo, lang :GO")
    assert got == (
        Term("func"),
        Term("myrepo", field="repo"),
        Term("go", field="lang"),
    )


def test_parse_terms_field_split_once():
    # only the FIRST ':' scopes; the rest stays in the word
    (t,) = _parse_terms("path:a:b")
    assert t == Term("a:b", field="path")


def test_parse_terms_folds_field_name_and_validates():
    """'LANG:en' must hit the same posting as 'lang:en' (field names are
    lowercase column names), and a typo'd / unindexed field is a loud
    error instead of a silent zero-hit probe (r04 ADVICE)."""
    import pytest

    (t,) = _parse_terms("LANG:EN", field_cols=["lang"])
    assert t == Term("en", field="lang")
    with pytest.raises(SystemExit, match="unknown field 'language'"):
        _parse_terms("language:en", field_cols=["lang"])
    # index with NO field postings: every field probe is diagnosable
    with pytest.raises(SystemExit, match="unknown field"):
        _parse_terms("lang:en", field_cols=[])
    # unknown index metadata (field_cols=None): no validation possible
    (t,) = _parse_terms("lang:en")
    assert t == Term("en", field="lang")


def test_cli_query_matches_library_and_folds_case(built_index, capsys):
    idx = Index(built_index)
    # pick the highest-df content term from the built vocabulary
    # (test-scale index: the segment table is tiny)
    terms = idx._seg["term"].to_pylist()
    dfs = idx._seg["df"].to_pylist()
    word = max(
        (t for t in terms if "\x01" not in t),
        key=lambda t: dfs[terms.index(t)],
    )
    eng = LocalEngine(idx)
    ids, scores = eng.search(Query(tree=Or((Term(word),)), k=5))
    assert len(ids) > 0

    rc = main([
        "query", "--index", built_index,
        "--terms", word.upper(), "--mode", "or", "--k", "5",
    ])
    assert rc == 0
    out = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    got_ids = [h["doc_id"] for h in out["hits"]]
    got_scores = [h["score"] for h in out["hits"]]
    assert got_ids == list(np.asarray(ids, dtype=np.int64))
    assert np.allclose(got_scores, np.asarray(scores, dtype=np.float64))


def test_cli_build_uses_the_library_layout(tmp_path, capsys):
    """`build` with no layout flags writes the merge layout that a
    default build_index call does (both scale it with the corpus row
    count), not a fixed 256-shard one."""
    import os

    import pyarrow.parquet as pq

    from quickray.build import build_index
    from quickray.corpus import generate_corpus

    src = str(tmp_path / "corpus")
    os.makedirs(src)
    pq.write_table(generate_corpus(120, seed=5), os.path.join(src, "c.parquet"))
    cli_out, lib_out = str(tmp_path / "cli"), str(tmp_path / "lib")
    assert main(["build", "--corpus", src, "--out", cli_out]) == 0
    out = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    want = build_index(src, lib_out).stats["num_shards"]
    assert out["stats"]["num_shards"] == want
    with open(os.path.join(cli_out, "stats", "stats.json")) as f:
        assert json.load(f)["num_shards"] == want
