"""Checkpoint/resume (SURVEY §7.6): killed-after-phase AND killed
mid-shuffle builds resume to an identical index; unchanged inputs are a
fast no-op; changed inputs invalidate."""

import json
import os
import shutil
import subprocess
import sys
import textwrap
import time

import pyarrow.parquet as pq

from quickray.build import build_index
from quickray.corpus import generate_corpus
from quickray.schema import group_file


def _segments_fingerprint(out):
    t = pq.read_table(os.path.join(out, "segments")).sort_by("term")
    return [t[c].to_pylist() for c in ["term", "df", "postings", "tfs"]]


def _drop(man, out, phases):
    for p in phases:
        man["phases"].pop(p, None)
        shutil.rmtree(os.path.join(out, p), ignore_errors=True)


def _seg_files(out):
    """{name: bytes} of the segment files in ``out``."""
    seg = os.path.join(out, "segments")
    return {f: open(os.path.join(seg, f), "rb").read() for f in os.listdir(seg)}


def _killed_build(out, seed, landed):
    """Build ``generate_corpus(250, seed)`` into ``out`` on the local
    executor (8 merge groups, merged in mpart order) in a child process
    that dies writing the segment file of group ``landed``: groups
    0..landed-1 have their files, and group ``landed`` left a partial
    temp file."""
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    code = textwrap.dedent(f"""
        import os
        import pyarrow.parquet as pq
        from quickray.build import build_index
        from quickray.corpus import generate_corpus

        real, done = pq.write_table, []

        def dying(table, where, **kw):
            if str(where).endswith(".tmp"):
                if len(done) == {landed}:
                    with open(where, "wb") as f:
                        f.write(b"PAR1 partial")
                    os._exit(3)
                done.append(where)
            return real(table, where, **kw)

        pq.write_table = dying
        build_index(generate_corpus(250, seed={seed}), {out!r}, num_shards=8)
    """)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (root, env.get("PYTHONPATH")) if p
    )
    r = subprocess.run([sys.executable, "-c", code], cwd=root, env=env,
                       capture_output=True, text=True, timeout=600)
    assert r.returncode == 3, r.stderr[-3000:]


def test_resume_noop_and_kill_resume(tmp_path, flatten_calls):
    tbl = generate_corpus(250, seed=3)
    out = str(tmp_path / "b")
    r1 = build_index(tbl, out)
    fresh = _segments_fingerprint(out)

    # no-op resume: all phases skipped, fast
    t0 = time.time()
    build_index(tbl, out)
    assert time.time() - t0 < 5.0

    # simulate a crash between docbase's dependents and the merge
    man_path = os.path.join(out, "manifest.json")
    man = json.load(open(man_path))
    _drop(man, out, {"segments", "docmeta"})
    json.dump(man, open(man_path, "w"))
    r2 = build_index(tbl, out)
    assert _segments_fingerprint(out) == fresh
    assert r2.stats == r1.stats

    # a crash right after docbase: stats, docmeta and the merge resume
    # from its checkpointed runs, with no content tokenized
    man = json.load(open(man_path))
    _drop(man, out, {"stats", "docmeta", "segments"})
    json.dump(man, open(man_path, "w"))
    del flatten_calls[:]
    r3 = build_index(tbl, out)
    assert _segments_fingerprint(out) == fresh
    assert r3.stats == r1.stats
    assert flatten_calls == []

    # manifest records lineage: files + rows per phase
    man = json.load(open(man_path))
    assert {"docbase", "docmeta", "segments"} <= set(man["phases"])
    for phase, rec in man["phases"].items():
        if phase in ("docids", "stats"):
            continue
        assert rec["status"] == "done"
        assert rec["rows"] > 0, phase
        assert len(rec["files"]) >= 1
        for f in rec["files"]:
            assert f["rows"] >= 0 and f["bytes"] > 0


def test_mid_shuffle_resume(tmp_path, flatten_calls, rerun_one_group):
    """Kill inside the merge: the child process dies writing a group
    file. Readers never see its temp file; the resume merges only the
    groups with no file (no content tokenized, finished files not
    rewritten) and the segment files come back byte-identical. After
    the same kill, a build of a different corpus into the dir keeps no
    stale group file. Losing one group file later reruns that group
    alone."""
    out, fresh = str(tmp_path / "b"), str(tmp_path / "fresh")
    tbl = generate_corpus(250, seed=3)
    build_index(tbl, fresh, num_shards=8)

    _killed_build(out, seed=3, landed=3)
    seg = os.path.join(out, "segments")
    man = json.load(open(os.path.join(out, "manifest.json")))
    assert man["phases"]["segments"].get("status") != "done"
    assert sorted(os.listdir(seg)) == [
        f".{group_file(3)}.tmp", *(group_file(g) for g in range(3))
    ]
    assert pq.read_table(seg).num_rows == sum(
        pq.read_metadata(os.path.join(seg, group_file(g))).num_rows
        for g in range(3)
    )
    kept = {g: os.stat(os.path.join(seg, group_file(g))).st_mtime_ns
            for g in range(3)}
    del flatten_calls[:]
    build_index(tbl, out, num_shards=8)
    assert flatten_calls == []
    groups = json.load(open(os.path.join(out, "manifest.json")))[
        "phases"]["segments"]["counters"]["groups"]
    assert [g["mpart"] for g in groups] == list(range(3, 8))
    assert {g: os.stat(os.path.join(seg, group_file(g))).st_mtime_ns
            for g in range(3)} == kept
    assert _seg_files(out) == _seg_files(fresh)

    rerun_one_group(out, 6, lambda: build_index(tbl, out, num_shards=8))
    assert _seg_files(out) == _seg_files(fresh)

    other, other_fresh = str(tmp_path / "other"), str(tmp_path / "other_fresh")
    _killed_build(other, seed=3, landed=5)
    build_index(generate_corpus(250, seed=4), other, num_shards=8)
    build_index(generate_corpus(250, seed=4), other_fresh, num_shards=8)
    assert _seg_files(other) == _seg_files(other_fresh)


def test_fingerprint_change_invalidates(tmp_path):
    out = str(tmp_path / "b")
    build_index(generate_corpus(120, seed=1), out)
    r = build_index(generate_corpus(150, seed=1), out)
    assert r.stats["n_docs"] == 150


def test_fingerprint_same_shape_different_content(tmp_path):
    """Same row count + schema but different content must invalidate
    (content-sensitive table fingerprint)."""
    out = str(tmp_path / "b")
    build_index(generate_corpus(120, seed=1), out)
    build_index(generate_corpus(120, seed=2), out)
    from quickray.engine import Index
    from quickray.oracle import Oracle

    idx = Index(out)
    oracle = Oracle(generate_corpus(120, seed=2))
    assert idx.stats["total_tokens"] == oracle.total_tokens


def test_old_docbase_layout_rebuilds(tmp_path, flatten_calls):
    """A directory built with the docbase layout v4 (doc rows without
    their bits) rebuilds instead of resuming, and the fingerprint change
    wipes both outputs of the docmeta phase: docmeta/ and stats/."""
    out = str(tmp_path / "b")
    tbl = generate_corpus(120, seed=1)
    build_index(tbl, out)
    fresh = _segments_fingerprint(out)
    man_path = os.path.join(out, "manifest.json")
    man = json.load(open(man_path))
    assert ",dbv=5," in man["fingerprint"]
    man["fingerprint"] = man["fingerprint"].replace(",dbv=5,", ",dbv=4,")
    json.dump(man, open(man_path, "w"))
    stale = [os.path.join(out, d, "stale.marker") for d in ("docmeta", "stats")]
    for path in stale:
        open(path, "w").close()
    del flatten_calls[:]
    build_index(tbl, out)
    assert flatten_calls == [120]  # docbase ran again
    assert ",dbv=5," in json.load(open(man_path))["fingerprint"]
    assert _segments_fingerprint(out) == fresh
    assert not any(os.path.exists(path) for path in stale)


def test_layout_param_change_invalidates(tmp_path, rerun_one_group):
    """Resuming with a different num_shards must rebuild, not mix the
    group files of two layouts; the new layout then resumes per group."""
    out = str(tmp_path / "b")
    tbl = generate_corpus(120, seed=1)
    build_index(tbl, out, num_shards=4)
    assert sorted(os.listdir(os.path.join(out, "segments"))) == [
        group_file(g) for g in range(4)
    ]
    build_index(tbl, out, num_shards=2)
    # stale 4-group layout fully replaced
    assert sorted(os.listdir(os.path.join(out, "segments"))) == [
        group_file(0), group_file(1)
    ]
    rerun_one_group(out, 1, lambda: build_index(tbl, out, num_shards=2))


def test_custom_id_col_name(tmp_path):
    """id_col other than 'doc_id' runs the whole build (regression:
    the postings phase used to read a literal 'doc_id' column)."""
    import pyarrow as pa

    tbl = generate_corpus(60, seed=4)
    n = tbl.num_rows
    tbl = tbl.append_column("my_id", pa.array(range(n), pa.int64()))
    out = str(tmp_path / "b")
    r = build_index(tbl, out, id_col="my_id")
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
    build_index(tbl, out, langs=["go", "py"])
    r = build_index(tbl, out, langs=["rs"])
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
    build_index(tbl, out)
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
    r = build_index(tbl, out)
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
    build_index(rd.from_arrow(tbl), out)
    assert Index(out).n_docs == 120
    with pytest.raises(ValueError, match="fingerprint="):
        build_index(rd.from_arrow(tbl), out)


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
    build_index(tbl, out, **kw)
    before = dump(out)
    build_index(edit(tbl), out, **kw)
    build_index(edit(tbl), fresh, **kw)
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
