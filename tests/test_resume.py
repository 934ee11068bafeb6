"""Checkpoint/resume (SURVEY §7.6): killed-after-phase AND killed
mid-shuffle builds resume to an identical index; unchanged inputs are a
fast no-op; changed inputs invalidate."""

import json
import os
import shutil
import time

import pyarrow.parquet as pq

from quickray.build import build_index
from quickray.corpus import generate_corpus


def _segments_fingerprint(out):
    t = pq.read_table(os.path.join(out, "segments")).sort_by("term")
    return [t[c].to_pylist() for c in ["term", "postings", "tfs", "block_max"]]


def _drop(man, out, prefixes):
    for k in [k for k in man["phases"] if k.split(":")[0] in prefixes]:
        del man["phases"][k]
    for p in prefixes:
        shutil.rmtree(os.path.join(out, p), ignore_errors=True)


def test_resume_noop_and_kill_resume(tmp_path, flatten_calls):
    tbl = generate_corpus(250, seed=3)
    out = str(tmp_path / "b")
    r1 = build_index(tbl, out, hot_df=100, num_salts=2)
    fresh = _segments_fingerprint(out)

    # no-op resume: all phases skipped, fast
    t0 = time.time()
    build_index(tbl, out, hot_df=100, num_salts=2)
    assert time.time() - t0 < 5.0

    # simulate a crash between postings and merge
    man_path = os.path.join(out, "manifest.json")
    man = json.load(open(man_path))
    _drop(man, out, {"segments", "docmeta"})
    json.dump(man, open(man_path, "w"))
    r2 = build_index(tbl, out, hot_df=100, num_salts=2)
    assert _segments_fingerprint(out) == fresh
    assert r2.stats == r1.stats

    # a crash right after docbase: stats, docmeta and the postings
    # resume from its checkpointed runs, with no content tokenized
    man = json.load(open(man_path))
    _drop(man, out, {"stats", "docmeta", "postings", "segments"})
    json.dump(man, open(man_path, "w"))
    del flatten_calls[:]
    r3 = build_index(tbl, out, hot_df=100, num_salts=2)
    assert _segments_fingerprint(out) == fresh
    assert r3.stats == r1.stats
    assert flatten_calls == []

    # manifest records lineage: files + rows per phase (chunked phases
    # record their chunk dir)
    man = json.load(open(man_path))
    base_names = {k.split(":")[0] for k in man["phases"]}
    assert {"docbase", "docmeta", "postings", "segments"} <= base_names
    for phase, rec in man["phases"].items():
        if phase in ("docids", "stats"):
            continue
        assert rec["status"] == "done"
        assert rec["rows"] > 0, phase
        assert len(rec["files"]) >= 1
        for f in rec["files"]:
            assert f["rows"] >= 0 and f["bytes"] > 0


def test_mid_shuffle_resume(tmp_path):
    """Kill inside the exchange: one completed postings chunk is wiped,
    the others must be skipped on resume and the index comes back
    byte-identical."""
    tbl = generate_corpus(250, seed=3)
    out = str(tmp_path / "b")
    build_index(tbl, out, hot_df=100, num_salts=2,
                durable_shuffle=True, shuffle_chunks=4)
    fresh = _segments_fingerprint(out)

    man_path = os.path.join(out, "manifest.json")
    man = json.load(open(man_path))
    chunk_keys = sorted(k for k in man["phases"] if k.startswith("postings:"))
    assert len(chunk_keys) == 4
    victim = chunk_keys[2]
    vdir = os.path.join(out, man["phases"][victim]["dir"])
    survivor = chunk_keys[0]
    sdir = os.path.join(out, man["phases"][survivor]["dir"])
    survivor_mtime = max(
        os.path.getmtime(os.path.join(sdir, f)) for f in os.listdir(sdir)
    )
    del man["phases"][victim]
    shutil.rmtree(vdir)
    _drop(man, out, {"segments"})
    json.dump(man, open(man_path, "w"))

    build_index(tbl, out, hot_df=100, num_salts=2,
                durable_shuffle=True, shuffle_chunks=4)
    assert _segments_fingerprint(out) == fresh
    # surviving chunks were not rewritten
    assert max(
        os.path.getmtime(os.path.join(sdir, f)) for f in os.listdir(sdir)
    ) == survivor_mtime


def test_fingerprint_change_invalidates(tmp_path):
    out = str(tmp_path / "b")
    build_index(generate_corpus(120, seed=1), out, hot_df=60)
    r = build_index(generate_corpus(150, seed=1), out, hot_df=60)
    assert r.stats["n_docs"] == 150


def test_fingerprint_same_shape_different_content(tmp_path):
    """Same row count + schema but different content must invalidate
    (content-sensitive table fingerprint)."""
    out = str(tmp_path / "b")
    build_index(generate_corpus(120, seed=1), out, hot_df=60)
    build_index(generate_corpus(120, seed=2), out, hot_df=60)
    from quickray.engine import Index
    from quickray.oracle import Oracle

    idx = Index(out)
    oracle = Oracle(generate_corpus(120, seed=2))
    assert idx.stats["total_tokens"] == oracle.total_tokens


def test_old_docbase_layout_rebuilds(tmp_path, flatten_calls):
    """A directory built with the docbase layout v2 (kind=1 rows held
    partial dfs, not posting runs) rebuilds instead of resuming."""
    out = str(tmp_path / "b")
    tbl = generate_corpus(120, seed=1)
    build_index(tbl, out, hot_df=60)
    fresh = _segments_fingerprint(out)
    man_path = os.path.join(out, "manifest.json")
    man = json.load(open(man_path))
    assert ",dbv=3," in man["fingerprint"]
    man["fingerprint"] = man["fingerprint"].replace(",dbv=3,", ",dbv=2,")
    json.dump(man, open(man_path, "w"))
    del flatten_calls[:]
    build_index(tbl, out, hot_df=60)
    assert flatten_calls == [120]  # docbase ran again
    assert ",dbv=3," in json.load(open(man_path))["fingerprint"]
    assert _segments_fingerprint(out) == fresh


def test_layout_param_change_invalidates(tmp_path):
    """Resuming with different shuffle layout params must rebuild, not
    silently mix chunk bounds."""
    import os

    out = str(tmp_path / "b")
    tbl = generate_corpus(120, seed=1)
    build_index(tbl, out, hot_df=60, durable_shuffle=True, shuffle_chunks=4)
    build_index(tbl, out, hot_df=60, durable_shuffle=True, shuffle_chunks=2)
    import json

    man = json.load(open(os.path.join(out, "manifest.json")))
    chunk_keys = [k for k in man["phases"] if k.startswith("postings:")]
    assert len(chunk_keys) == 2  # stale 4-chunk layout fully replaced


def test_custom_id_col_name(tmp_path):
    """id_col other than 'doc_id' runs the whole build (regression:
    the postings phase used to read a literal 'doc_id' column)."""
    import pyarrow as pa

    tbl = generate_corpus(60, seed=4)
    n = tbl.num_rows
    tbl = tbl.append_column("my_id", pa.array(range(n), pa.int64()))
    out = str(tmp_path / "b")
    r = build_index(tbl, out, id_col="my_id", hot_df=50)
    assert r.stats["n_docs"] == n
    from quickray.engine import Index

    assert Index(out).vocab_size > 0


def test_langs_change_invalidates(tmp_path):
    """langs encode the docmeta/posting BITS (scoring.compute_bits bit
    i = lang == langs[i]); resuming the same dir with different langs
    must rebuild, not serve flags computed against the old list (r05
    review: langs/id_col were missing from the layout fingerprint)."""
    out = str(tmp_path / "b")
    tbl = generate_corpus(120, seed=3)
    build_index(tbl, out, hot_df=60, langs=["go", "py"])
    r = build_index(tbl, out, hot_df=60, langs=["rs"])
    assert r.stats["langs"] == ["rs"]
    man = json.load(open(os.path.join(out, "manifest.json")))
    assert "langs=rs" in man["fingerprint"]


def test_duplicate_ids_with_gap_rejected(tmp_path):
    """min/max/count density checks alone accept [0,2,2,3]; the id-sum
    permutation check must reject duplicates paired with gaps instead
    of silently corrupting postings and the dense doc_len scatter."""
    import pyarrow as pa
    import pytest

    n = 4
    tbl = pa.table(
        {
            "repo": pa.array(["r"] * n),
            "path": pa.array([f"f{i}.go" for i in range(n)]),
            "commit": pa.array(["c"] * n),
            "lang": pa.array(["go"] * n),
            "content": pa.array([f"word{i}" for i in range(n)]),
            "myid": pa.array([0, 2, 2, 3], pa.int64()),
        }
    )
    with pytest.raises(Exception, match="permutation"):
        build_index(tbl, str(tmp_path / "b"), id_col="myid")


def test_duplicate_ids_with_matching_sum_rejected(tmp_path):
    """[0,0,3,3] passes min/max/count AND the id sum (6 == 0+1+2+3);
    the permutation check must still reject it, naming the id column."""
    import pyarrow as pa
    import pytest

    n = 4
    tbl = pa.table(
        {
            "repo": pa.array(["r"] * n),
            "path": pa.array([f"f{i}.go" for i in range(n)]),
            "commit": pa.array(["c"] * n),
            "lang": pa.array(["go"] * n),
            "content": pa.array([f"word{i}" for i in range(n)]),
            "myid": pa.array([0, 0, 3, 3], pa.int64()),
        }
    )
    with pytest.raises(ValueError, match="permutation.*'myid'"):
        build_index(tbl, str(tmp_path / "b"), id_col="myid")


def test_stale_manifest_window_closed(tmp_path):
    """Fingerprint change wipes phase dirs AND persists the new (empty)
    manifest immediately: a crash before the first mark_done must not
    leave the OLD all-done manifest pointing at deleted outputs (r05
    review: rerun under the old fingerprint skipped every phase, then
    crashed on the missing files)."""
    from quickray.checkpoint import Manifest

    out = str(tmp_path / "b")
    tbl = generate_corpus(80, seed=5)
    build_index(tbl, out, hot_df=60)
    man_a = json.load(open(os.path.join(out, "manifest.json")))
    fp_a = man_a["fingerprint"]
    assert any(
        p.get("status") == "done" for p in man_a["phases"].values()
    )
    # simulate: a new-fingerprint run starts (wipes dirs) then dies
    # before any phase completes
    Manifest(out, fp_a + "|changed")
    on_disk = json.load(open(os.path.join(out, "manifest.json")))
    assert on_disk["fingerprint"] == fp_a + "|changed"
    assert on_disk["phases"] == {}
    # a rerun under the ORIGINAL fingerprint now rebuilds cleanly
    r = build_index(tbl, out, hot_df=60)
    assert r.stats["n_docs"] == 80


def test_generic_dataset_resume_needs_fingerprint(tmp_path):
    """A Ray Dataset source builds into a fresh directory, but its
    fingerprint covers only the schema: building it again into a
    directory that holds a manifest raises unless fingerprint= is
    given, instead of serving a possibly stale index."""
    import pytest
    import ray.data as rd

    from quickray.engine import Index

    tbl = generate_corpus(120, seed=5)
    out = str(tmp_path / "ds")
    build_index(rd.from_arrow(tbl), out, num_salts=2)
    assert Index(out).n_docs == 120
    with pytest.raises(ValueError, match="fingerprint="):
        build_index(rd.from_arrow(tbl), out, num_salts=2)


def _changed_column_resume(tmp_path, tbl, edit, **kw):
    """Build ``tbl``, then build ``edit(tbl)`` into the same dir and
    into a fresh one; return (resumed, fresh) docmeta and segments."""
    from quickray.engine import Index

    def dump(out):
        ix = Index(out)
        meta = ix.docmeta_arrays(("bits", "doc_len"))
        return (ix.keys_by_id().tolist(),
                {c: v.tolist() for c, v in meta.items()},
                _segments_fingerprint(out))

    out, fresh = str(tmp_path / "b"), str(tmp_path / "fresh")
    build_index(tbl, out, hot_df=60, **kw)
    before = dump(out)
    build_index(edit(tbl), out, hot_df=60, **kw)
    build_index(edit(tbl), fresh, hot_df=60, **kw)
    return before, dump(out), dump(fresh)


def _replace(tbl, col, values):
    import pyarrow as pa

    i = tbl.column_names.index(col)
    return tbl.set_column(i, col, pa.array(values, tbl.schema.field(col).type))


def test_table_fingerprint_covers_lang(tmp_path):
    """Every lang changed, nothing else: the flag bits must change, as
    in a fresh build (the Table fingerprint used to hash only repo,
    path and content, and the rebuild resumed into the old bits)."""
    from quickray.schema import LANGS

    tbl = generate_corpus(200, seed=5)
    rot = {l: LANGS[(i + 1) % len(LANGS)] for i, l in enumerate(LANGS)}
    before, resumed, fresh = _changed_column_resume(
        tmp_path, tbl,
        lambda t: _replace(t, "lang", [rot[l] for l in t["lang"].to_pylist()]),
    )
    assert resumed == fresh
    assert resumed[1]["bits"] != before[1]["bits"]


def test_table_fingerprint_covers_id_col(tmp_path):
    """Every id_col value permuted: the doc ids must follow the new
    values, as in a fresh build."""
    import numpy as np
    import pyarrow as pa

    tbl = generate_corpus(200, seed=6)
    n = tbl.num_rows
    tbl = tbl.append_column("my_id", pa.array(np.arange(n), pa.int64()))
    perm = np.random.default_rng(0).permutation(n)
    before, resumed, fresh = _changed_column_resume(
        tmp_path, tbl, lambda t: _replace(t, "my_id", perm), id_col="my_id",
    )
    assert resumed == fresh
    assert resumed[0] != before[0]


def test_table_fingerprint_covers_field_cols(tmp_path):
    """Every commit changed, indexed as a field: the field postings
    must hold the new values, as in a fresh build."""
    tbl = generate_corpus(200, seed=7)
    before, resumed, fresh = _changed_column_resume(
        tmp_path, tbl,
        lambda t: _replace(t, "commit", [c + "x" for c in t["commit"].to_pylist()]),
        field_cols=["commit"],
    )
    assert resumed == fresh
    assert resumed[2] != before[2]
