"""Delta + tombstone serving (quickray.delta.DeltaEngine) vs a
from-scratch rebuild — the batch analog of the reference's mutable
AddDoc/DeleteDoc lifecycle (indexer_test.go:56-185): add -> search ->
delete -> search -> re-add(update) -> search, each step asserting
(key, score) identity with a full rebuild of the live corpus.

The identity is asserted over the whole reference query set, flag
filters included: term/compound/OR shapes all go through DeltaEngine's
live-masked scoring with live global statistics, and the long-doc bit
is derived from the live avgdl.
"""

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from quickray.build import build_index
from quickray.corpus import generate_corpus
from quickray.delta import DeltaEngine
from quickray.engine import Index, LocalEngine
from quickray.oracle import Oracle
from quickray.queryset import make_query_set


def _retag(tbl: pa.Table, prefix: str) -> pa.Table:
    """Give rows unique keys (delta additions must not collide)."""
    path = pc.binary_join_element_wise(
        pa.scalar(prefix), tbl["path"].combine_chunks(), "/"
    )
    return tbl.set_column(tbl.schema.get_field_index("path"), "path", path)


def _update_content(tbl: pa.Table, rows: list[int]) -> pa.Table:
    """Same keys, changed content for the given row positions."""
    content = tbl["content"].to_pylist()
    for i in rows:
        content[i] = content[i] + " refreshed delta tokens golang"
    return tbl.set_column(
        tbl.schema.get_field_index("content"),
        "content",
        pa.array(content, pa.string()),
    )


def _rebuild_search(tbl: pa.Table, out: str, queries) -> dict:
    build_index(tbl, out, num_shards=8)
    ix = Index(out)
    eng = LocalEngine(ix)
    keys = ix.keys_by_id()  # fixed-width bytes; decode the bounded top-k
    res = {}
    for q in queries:
        ids, sc = eng.search(q)
        res[q.id] = ([k.decode() for k in keys[ids]], sc)
    return res


def _assert_same(name, got_keys, got_scores, exp_keys, exp_scores):
    assert got_keys.tolist() == exp_keys, name
    assert np.allclose(got_scores, exp_scores, rtol=1e-9, atol=1e-12), name


def test_add_delete_update_lifecycle(tmp_path, ray_session):
    base = generate_corpus(240, seed=3)
    additions = _retag(generate_corpus(40, seed=5), "delta")
    updated_rows = [3, 17, 40, 99]
    updates = _update_content(
        base.take(np.asarray(updated_rows, np.int64)), range(len(updated_rows))
    )
    deleted_rows = [7, 8, 120, 200, 201]
    del_keys = [
        f"{base['repo'][i].as_py()}\x01{base['path'][i].as_py()}"
        for i in deleted_rows
    ]
    upd_keys = {
        f"{base['repo'][i].as_py()}\x01{base['path'][i].as_py()}"
        for i in updated_rows
    }

    queries = make_query_set(Oracle(base).df())
    assert len(queries) >= 10

    main_dir = str(tmp_path / "main")
    build_index(base, main_dir, num_shards=8)

    # ---- add: serve main ∪ additions --------------------------------
    add_dir = str(tmp_path / "delta_add")
    build_index(additions, add_dir, num_shards=8)
    eng = DeltaEngine([main_dir], delta_dir=add_dir)
    exp = _rebuild_search(
        pa.concat_tables([base, additions]), str(tmp_path / "rb_add"), queries
    )
    for q in queries:
        k, s = eng.search(q)
        _assert_same(f"add:{q.id}", k, s, *exp[q.id])

    # ---- delete: tombstone keys, no rebuild of main -----------------
    eng = DeltaEngine([main_dir], delta_dir=add_dir, deleted_keys=del_keys)
    live = base.filter(
        pc.invert(pc.is_in(
            pc.binary_join_element_wise(
                base["repo"].combine_chunks(),
                base["path"].combine_chunks(),
                "\x01",
            ),
            value_set=pa.array(del_keys, pa.string()),
        ))
    )
    exp = _rebuild_search(
        pa.concat_tables([live, additions]), str(tmp_path / "rb_del"), queries
    )
    for q in queries:
        k, s = eng.search(q)
        _assert_same(f"del:{q.id}", k, s, *exp[q.id])

    # ---- re-add (update): delta carries new versions; main copies of
    # the same keys are tombstoned automatically -----------------------
    upd_delta = pa.concat_tables([additions, updates])
    upd_dir = str(tmp_path / "delta_upd")
    build_index(upd_delta, upd_dir, num_shards=8)
    eng = DeltaEngine([main_dir], delta_dir=upd_dir, deleted_keys=del_keys)
    live_main = base.filter(
        pc.invert(pc.is_in(
            pc.binary_join_element_wise(
                base["repo"].combine_chunks(),
                base["path"].combine_chunks(),
                "\x01",
            ),
            value_set=pa.array(sorted(set(del_keys) | upd_keys), pa.string()),
        ))
    )
    exp = _rebuild_search(
        pa.concat_tables([live_main, upd_delta]), str(tmp_path / "rb_upd"), queries
    )
    for q in queries:
        k, s = eng.search(q)
        _assert_same(f"upd:{q.id}", k, s, *exp[q.id])

    # live result-count RPC analog
    q0 = queries[0]
    assert eng.count(q0) == len(eng.candidates(q0))


def test_pure_delete_no_delta(tmp_path, ray_session):
    base = generate_corpus(150, seed=9)
    main_dir = str(tmp_path / "main")
    build_index(base, main_dir, num_shards=8)
    del_rows = [0, 5, 50, 149]
    del_keys = [
        f"{base['repo'][i].as_py()}\x01{base['path'][i].as_py()}"
        for i in del_rows
    ]
    queries = make_query_set(Oracle(base).df())[:8]
    eng = DeltaEngine([main_dir], deleted_keys=del_keys)
    live = base.filter(
        pc.invert(pc.is_in(
            pc.binary_join_element_wise(
                base["repo"].combine_chunks(),
                base["path"].combine_chunks(),
                "\x01",
            ),
            value_set=pa.array(del_keys, pa.string()),
        ))
    )
    exp = _rebuild_search(live, str(tmp_path / "rb"), queries)
    for q in queries:
        k, s = eng.search(q)
        _assert_same(f"puredel:{q.id}", k, s, *exp[q.id])
    # deleted docs never appear
    for q in queries:
        assert not set(eng.candidates(q)) & set(del_keys)


def test_conflicting_same_key_batches_last_wins(tmp_path, ray_session):
    """Ordering contract for two delta batches touching the SAME key
    (indexer.go:70-97 upsert = delete-then-insert, last write wins):
    batch 2's version of a key supersedes batch 1's AND main's; a key
    added in batch 1 and rewritten in batch 2 serves batch 2's content.
    Verified by (key, score) identity with a from-scratch rebuild of
    the final corpus, plus a no-stale-version candidates check."""
    base = generate_corpus(160, seed=21)
    queries = make_query_set(Oracle(base).df())[:10]

    # batch 1: update rows 3, 10 (v1) and add two brand-new docs
    upd_rows = [3, 10]
    v1_updates = _update_content(
        base.take(np.asarray(upd_rows, np.int64)), range(len(upd_rows))
    )
    added = _retag(generate_corpus(6, seed=22), "delta")
    batch1 = pa.concat_tables([v1_updates, added])

    # batch 2: update row 3 AGAIN (v2 — supersedes batch 1's v1) and
    # rewrite one of batch 1's additions
    v2_updates = _update_content(
        _update_content(base.take(np.asarray([3], np.int64)), [0]), [0]
    )
    readd = _update_content(added.take(np.asarray([0], np.int64)), [0])
    batch2 = pa.concat_tables([v2_updates, readd])

    main_dir = str(tmp_path / "main")
    build_index(base, main_dir, num_shards=8)
    d1 = str(tmp_path / "d1")
    d2 = str(tmp_path / "d2")
    build_index(batch1, d1, num_shards=8)
    build_index(batch2, d2, num_shards=8)

    eng = DeltaEngine([main_dir], delta_dir=[d1, d2])

    def keys_of(tbl):
        return pc.binary_join_element_wise(
            tbl["repo"].combine_chunks(), tbl["path"].combine_chunks(), "\x01"
        )

    b2_keys = set(keys_of(batch2).to_pylist())
    b1_keys = set(keys_of(batch1).to_pylist())
    live_main = base.filter(
        pc.invert(pc.is_in(
            keys_of(base),
            value_set=pa.array(sorted(b1_keys | b2_keys), pa.string()),
        ))
    )
    live_b1 = batch1.filter(
        pc.invert(pc.is_in(
            keys_of(batch1), value_set=pa.array(sorted(b2_keys), pa.string())
        ))
    )
    final = pa.concat_tables([live_main, live_b1, batch2])
    exp = _rebuild_search(final, str(tmp_path / "rb"), queries)
    for q in queries:
        k, s = eng.search(q)
        _assert_same(f"lastwins:{q.id}", k, s, *exp[q.id])

    # the v2-only marker tokens: batch-2 content contains the refreshed
    # suffix twice; only the v2 version of key row-3 may be served
    from quickray.query import Query, Term

    tq = Query(tree=Term("refreshed"), k=10**9)
    got = set(eng.candidates(tq))
    want_rb = set(
        LocalEngine(Index(str(tmp_path / "rb"))).candidates(tq).tolist()
    )
    rb_keys = Index(str(tmp_path / "rb")).keys_by_id()
    assert got == {rb_keys[i].decode() for i in want_rb}

    # swapping batch order changes which version wins
    eng_rev = DeltaEngine([main_dir], delta_dir=[d2, d1])
    live_b2 = batch2.filter(
        pc.invert(pc.is_in(
            keys_of(batch2), value_set=pa.array(sorted(b1_keys), pa.string())
        ))
    )
    final_rev = pa.concat_tables([live_main, live_b2, batch1])
    exp_rev = _rebuild_search(final_rev, str(tmp_path / "rb_rev"), queries)
    for q in queries:
        k, s = eng_rev.search(q)
        _assert_same(f"revorder:{q.id}", k, s, *exp_rev[q.id])


def test_delta_over_partitioned_main(tmp_path, ray_session):
    """DeltaEngine over build_partitioned's key-range parts: tombstones
    landing in different partitions + a delta build, compared against a
    from-scratch single global build of the live corpus."""
    from quickray.build import build_partitioned

    base = generate_corpus(200, seed=11)
    parts = build_partitioned(base, str(tmp_path / "parts"), n_partitions=3,
                              num_shards=8)
    assert len(parts) == 3
    additions = _retag(generate_corpus(20, seed=12), "delta")
    del_rows = [1, 70, 150, 199]  # spread across key ranges
    del_keys = [
        f"{base['repo'][i].as_py()}\x01{base['path'][i].as_py()}"
        for i in del_rows
    ]
    add_dir = str(tmp_path / "delta_add")
    build_index(additions, add_dir, num_shards=8)
    eng = DeltaEngine(parts, delta_dir=add_dir, deleted_keys=del_keys)

    live = base.filter(
        pc.invert(pc.is_in(
            pc.binary_join_element_wise(
                base["repo"].combine_chunks(),
                base["path"].combine_chunks(),
                "\x01",
            ),
            value_set=pa.array(del_keys, pa.string()),
        ))
    )
    queries = make_query_set(Oracle(base).df())[:10]
    exp = _rebuild_search(
        pa.concat_tables([live, additions]), str(tmp_path / "rb"), queries
    )
    for q in queries:
        k, s = eng.search(q)
        _assert_same(f"part:{q.id}", k, s, *exp[q.id])


def test_fully_tombstoned_term_in_or_query(tmp_path, ray_session):
    """Delete EVERY doc containing one term, then run an OR query mixing
    that term with a live one through the global-stats score path: the
    term's posting is served whole, every doc of it dead in the live
    mask, and its live df is 0. It must score as 'term absent': no dead
    doc in the results, and rebuild-identical scores."""
    import pyarrow as pa

    from quickray.query import Or, Query, Term

    n = 40
    # unique marker term in 3 docs; common term everywhere
    texts = [
        ("zzmarker shared body text" if i < 3 else "shared body text")
        for i in range(n)
    ]
    base = pa.table(
        {
            "repo": pa.array(["r"] * n),
            "path": pa.array([f"f{i:03d}.go" for i in range(n)]),
            "commit": pa.array(["c"] * n),
            "lang": pa.array(["go"] * n),
            "content": pa.array(texts),
        }
    )
    main_dir = str(tmp_path / "main")
    build_index(base, main_dir, num_shards=4)
    del_keys = [f"r\x01f{i:03d}.go" for i in range(3)]  # all zzmarker docs
    eng = DeltaEngine([main_dir], deleted_keys=del_keys)
    q = Query(tree=Or((Term("zzmarker"), Term("shared"))), k=50)
    keys, scores = eng.search(q)  # must not raise
    assert len(keys) == n - 3
    assert not set(keys) & set(del_keys)
    # rebuild-identical scores for the live corpus
    live = base.slice(3)
    exp = _rebuild_search(live, str(tmp_path / "rb2"), [q])
    _assert_same("tombstoned-or", keys, scores, *exp[q.id])


def test_one_docmeta_read_per_part(tmp_path, monkeypatch):
    """Each DeltaEngine part reads parquet twice: its segments, and one
    docmeta read that serves the keys (tombstones, labels), doc_len
    (live avgdl, scoring) and bits (flag filters). Serving, flagged
    queries included, reads nothing more."""
    import os

    import pyarrow.parquet as pq

    base = generate_corpus(80, seed=41)
    added = _retag(generate_corpus(8, seed=42), "delta")
    main_dir, add_dir = str(tmp_path / "main"), str(tmp_path / "add")
    build_index(base, main_dir)
    build_index(added, add_dir)
    reads = []
    read_table = pq.read_table

    def counted(path, *args, **kwargs):
        reads.append(os.path.basename(path))
        return read_table(path, *args, **kwargs)

    monkeypatch.setattr(pq, "read_table", counted)
    gone = f"{base['repo'][0].as_py()}\x01{base['path'][0].as_py()}"
    eng = DeltaEngine([main_dir], add_dir, [gone])
    assert sorted(reads) == ["docmeta", "docmeta", "segments", "segments"]
    queries = make_query_set(Oracle(base).df())
    assert any(q.has_flags for q in queries)
    for q in queries:
        eng.search(q)
        eng.candidates(q)
    assert len(reads) == 4


def test_long_doc_bit_after_deleting_longest_docs(tmp_path):
    """Deleting the longest docs lowers the live avgdl well below the
    main build's, so docs between the two are long only in the live
    corpus. Queries filtered on the long-doc bit 9 (on and off) must be
    (key, score)-identical to a rebuild, as must a lang-bit filter."""
    from quickray.query import Query, Term

    base = generate_corpus(1200, seed=3)
    main_dir = str(tmp_path / "main")
    build_index(base, main_dir, num_shards=8)
    lens = Oracle(base).doc_len  # keyed by the (repo, path) rank
    keys = sorted(
        f"{r}\x01{p}" for r, p in
        zip(base["repo"].to_pylist(), base["path"].to_pylist())
    )
    longest = sorted(lens, key=lambda d: (-lens[d], d))[:150]
    del_keys = [keys[d] for d in longest]
    eng = DeltaEngine([main_dir], deleted_keys=del_keys)
    assert eng.avgdl < Index(main_dir).avgdl - 10

    df = Oracle(base).df()
    hot = sorted(df, key=lambda t: (-df[t], t))[:12]
    queries = [
        Query(tree=Term(t), k=1000, id=f"{t}:{i}", **fl)
        for t in hot
        for i, fl in enumerate(
            ({"on_flag": 1 << 9}, {"off_flag": 1 << 9}, {"on_flag": 1})
        )
    ]
    live = base.filter(pc.invert(pc.is_in(
        pc.binary_join_element_wise(
            base["repo"].combine_chunks(), base["path"].combine_chunks(), "\x01"
        ),
        value_set=pa.array(del_keys, pa.string()),
    )))
    exp = _rebuild_search(live, str(tmp_path / "rb"), queries)
    for q in queries:
        k, s = eng.search(q)
        _assert_same(f"longdoc:{q.id}", k, s, *exp[q.id])
