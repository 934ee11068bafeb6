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


def test_resume_noop_and_kill_resume(tmp_path):
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
