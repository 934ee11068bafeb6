"""Doc-sharded partition builds + PartitionedEngine == one global build
(the reference's worker-shard + Sentinel model; rank- AND
score-identical because partitions score with corpus-global stats)."""

import numpy as np
import pyarrow.compute as pc
import pytest

from quickray.build import build_index
from quickray.engine import Index, LocalEngine, PartitionedEngine
from quickray.queryset import make_query_set


@pytest.fixture(scope="module")
def split_engines(small_corpus, built_index, tmp_path_factory):
    """Split the fixture corpus into 3 contiguous key ranges (sorted by
    (repo, path) — the global doc_id order) and build each part."""
    keys = pc.binary_join_element_wise(
        small_corpus["repo"].combine_chunks(),
        small_corpus["path"].combine_chunks(),
        "\x01",
    )
    order = pc.sort_indices(keys)
    srt = small_corpus.take(order)
    n = srt.num_rows
    cuts = [0, n // 3, 2 * n // 3, n]
    dirs = []
    root = tmp_path_factory.mktemp("parts")
    for i in range(3):
        part = srt.slice(cuts[i], cuts[i + 1] - cuts[i])
        out = str(root / f"p{i}")
        build_index(part, out)
        dirs.append(out)
    return PartitionedEngine(dirs), LocalEngine(Index(built_index))


def test_partitioned_equals_global(split_engines, oracle):
    peng, geng = split_engines
    assert peng.n_docs == geng.index.n_docs
    assert peng.avgdl == pytest.approx(geng.index.avgdl, rel=1e-15)
    queries = make_query_set(oracle.df())
    for q in queries:
        g_ids, g_sc = geng.search(q)
        p_ids, p_sc = peng.search(q)
        assert p_ids.tolist() == g_ids.tolist(), q.id
        assert np.allclose(p_sc, g_sc, rtol=1e-12, atol=1e-15), q.id


def test_long_doc_bit_uses_global_avgdl(tmp_path):
    """Key-range parts whose own avgdl differs from the corpus's: a
    part's stored bits carry no long-doc bit, and its scorer derives
    bit 9 from the global avgdl, so queries filtered on it (on and off)
    are (doc, score)-identical to one global build."""
    from quickray.corpus import generate_corpus
    from quickray.query import Query, Term

    tbl = generate_corpus(1200, seed=3)
    srt = tbl.take(pc.sort_indices(pc.binary_join_element_wise(
        tbl["repo"].combine_chunks(), tbl["path"].combine_chunks(), "\x01"
    )))
    dirs = []
    for i, (lo, hi) in enumerate(((0, 400), (400, 800), (800, 1200))):
        dirs.append(str(tmp_path / f"p{i}"))
        build_index(srt.slice(lo, hi - lo), dirs[-1], num_shards=8)
    gout = str(tmp_path / "global")
    build_index(tbl, gout, num_shards=8)
    geng = LocalEngine(Index(gout))
    peng = PartitionedEngine(dirs)
    assert all(e.index.avgdl != peng.avgdl for e in peng.engines)
    df = geng.index.df_table()
    hot = [
        t for t in df.sort_by([("df", "descending"), ("term", "ascending")])[
            "term"
        ].to_pylist()
        if "\x01" not in t
    ][:12]
    for t in hot:
        for fl in ({"on_flag": 1 << 9}, {"off_flag": 1 << 9}):
            q = Query(tree=Term(t), k=1000, **fl)
            g_ids, g_sc = geng.search(q)
            p_ids, p_sc = peng.search(q)
            assert p_ids.tolist() == g_ids.tolist(), q
            assert np.allclose(p_sc, g_sc, rtol=1e-12, atol=1e-15), q


def test_build_partitioned_orchestrator(tmp_path):
    """End-to-end orchestration API: repartition-by-key-range + N
    independent builds -> PartitionedEngine equals a global build."""
    import pyarrow.parquet as pq

    from quickray.build import build_partitioned
    from quickray.corpus import generate_corpus
    from quickray.query import Or, Query, Term

    tbl = generate_corpus(200, seed=9)
    src = str(tmp_path / "corpus.parquet")
    pq.write_table(tbl, src)
    dirs = build_partitioned(src, str(tmp_path / "parts"), 3)
    assert len(dirs) == 3
    peng = PartitionedEngine(dirs)
    gout = str(tmp_path / "global")
    build_index(tbl, gout)
    geng = LocalEngine(Index(gout))
    assert peng.n_docs == 200
    q = Query(tree=Or((Term("func"), Term("return"))), k=25)
    g_ids, g_sc = geng.search(q)
    p_ids, p_sc = peng.search(q)
    assert p_ids.tolist() == g_ids.tolist()
    assert np.allclose(p_sc, g_sc, rtol=1e-12)


def test_delta_rebuild_touches_only_changed_partition(tmp_path):
    """Upsert analog (indexer.go:70-97 add/delete): rerunning
    build_partitioned on an updated corpus re-indexes ONLY the key-range
    partitions whose rows changed; results reflect the new content."""
    import json
    import os

    import pyarrow as pa
    import pyarrow.parquet as pq

    from quickray.build import build_partitioned
    from quickray.corpus import generate_corpus
    from quickray.query import Query, Term

    tbl = generate_corpus(200, seed=9)
    src = str(tmp_path / "corpus.parquet")
    pq.write_table(tbl, src)
    root = str(tmp_path / "parts")
    dirs = build_partitioned(src, root, 3)
    before = {
        d: json.load(open(os.path.join(d, "manifest.json")))["phases"][
            "segments"]["finished_at"]
        for d in dirs
    }
    # modify ONE row's content (a term unique to the change) and rerun
    contents = tbl["content"].to_pylist()
    contents[5] = contents[5] + " zz_delta_marker_zz"
    tbl2 = tbl.set_column(
        tbl.schema.get_field_index("content"), "content",
        pa.array(contents, pa.string()),
    )
    pq.write_table(tbl2, src)
    dirs2 = build_partitioned(src, root, 3)
    assert dirs2 == dirs
    after = {
        d: json.load(open(os.path.join(d, "manifest.json")))["phases"][
            "segments"]["finished_at"]
        for d in dirs
    }
    rebuilt = [d for d in dirs if after[d] != before[d]]
    assert len(rebuilt) == 1  # only the partition holding row 5
    peng = PartitionedEngine(dirs)
    ids, _ = peng.search(Query(tree=Term("zz_delta_marker_zz"), k=5))
    assert len(ids) == 1

    # delete an entire key range (DeleteDoc analog): the emptied
    # partition is dropped, the rest keep serving
    spec = json.load(open(os.path.join(root, "partition_spec.json")))
    first_cut = spec["cuts"][0]
    keys = [
        f"{r}\x01{p}"
        for r, p in zip(tbl2["repo"].to_pylist(), tbl2["path"].to_pylist())
    ]
    keep = [i for i, k in enumerate(keys) if k >= first_cut]
    tbl3 = tbl2.take(keep)
    pq.write_table(tbl3, src)
    dirs3 = build_partitioned(src, root, 3)
    assert len(dirs3) == 2
    peng3 = PartitionedEngine(dirs3)
    assert peng3.n_docs == len(keep)
    ids3, _ = peng3.search(Query(tree=Term("zz_delta_marker_zz"), k=5))
    assert len(ids3) <= 1  # row 5 may or may not be in the kept range


def test_partitioned_candidates_match(split_engines):
    peng, geng = split_engines
    from quickray.query import And, Or, Query, Term

    q = Query(
        tree=Or((And((Term("func"), Term("return"))), Term("import"))),
        on_flag=1 << 0,
    )
    assert sorted(peng.candidates(q).tolist()) == geng.candidates(q).tolist()
