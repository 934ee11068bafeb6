"""The two build executors (build.py): a source of at most one
tokenizer batch builds in the calling process with no Ray job (local);
larger or uncounted sources build on Ray. Both must write the same
index, byte for byte and file by file, fresh or resumed after a kill
mid-merge, and it must equal the pinned digests; the local one must
also resume, fail on bad input and run without ray.init."""

import hashlib
import itertools
import json
import os
import subprocess
import sys
import textwrap

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from quickray.build import build_index
from quickray.corpus import generate_corpus
from quickray.oracle import Oracle
from quickray.schema import DOCMETA_SCHEMA, SEGMENT_SCHEMA, group_file

N = 300
RAY_BATCH = 128  # below N: the same input builds on the Ray executor
GROUPS = 16  # merge groups: the default layout gives N rows one
VARIANTS = {
    "streaming": {"num_shards": GROUPS},
    "field_cols": {"num_shards": GROUPS, "field_cols": ["lang"]},
    "id_col": {"num_shards": GROUPS, "id_col": "my_id"},
}
# sha256 (_digest) of the segments sorted by term (term, df, postings,
# tfs, shard) and of docmeta sorted by doc_id (every column) for the
# fixture corpus. The segment digests were taken over those five
# columns of the build that also stored block maxima, so they pin
# postings across the format changes. The docmeta digests were taken
# on the build that still stored the long-doc bit 9, over its docmeta
# with that bit cleared: every other byte is pinned across the change.
# All were taken at 16 merge groups (the shard column)
PINNED = {
    "plain": (
        "0317554cfe56385679601f2fb4011c3c7149b1ebc97a763bf1524fd9ae9f3ede",
        "2ebb338c4a7fe7603dc7105d118707d8acdb06bc969416acf7fe94783f52a49d",
    ),
    "field_cols": (
        "13f18b50ca7c06977f2b5bf0ace56542109a3be0bd93415628e45d36d976849d",
        "2ebb338c4a7fe7603dc7105d118707d8acdb06bc969416acf7fe94783f52a49d",
    ),
    "id_col": (
        "306cf39903fae1cdf4838b100fa0e0de9dc3a1468fa17676cc1cee5698456052",
        "519ec09c871a7097228228cb94d887804a832bb307ad03e1d5676ddf7537215c",
    ),
}


def _pinned(kw):
    return PINNED["field_cols" if "field_cols" in kw
                  else "id_col" if "id_col" in kw else "plain"]


def _segments(out):
    t = pq.read_table(os.path.join(out, "segments"))
    return t.select(SEGMENT_SCHEMA.names).sort_by("term")


def _docmeta(out):
    t = pq.read_table(os.path.join(out, "docmeta"))
    return t.select(DOCMETA_SCHEMA.names).sort_by("doc_id")


def _digest(t):
    h = hashlib.sha256()
    for name in t.column_names:
        h.update(name.encode())
        h.update(repr(t[name].to_pylist()).encode())
    return h.hexdigest()


def _digests(out):
    return _digest(_segments(out)), _digest(_docmeta(out))


def _files(out):
    """{path: bytes} of every segment and docmeta file in ``out``."""
    return {
        f"{sub}/{name}": open(os.path.join(out, sub, name), "rb").read()
        for sub in ("segments", "docmeta")
        for name in sorted(os.listdir(os.path.join(out, sub)))
    }


def _stats(out):
    with open(os.path.join(out, "stats", "stats.json")) as f:
        st = json.load(f)
    st.pop("executor")
    return st


def _manifest(out):
    with open(os.path.join(out, "manifest.json")) as f:
        return json.load(f)


@pytest.fixture(scope="module")
def corpus():
    tbl = generate_corpus(N, seed=11)
    # a dense id column in an order unrelated to the (repo, path) rank
    ids = np.random.default_rng(0).permutation(N)
    return tbl.append_column("my_id", pa.array(ids, pa.int64()))


@pytest.mark.parametrize("kw", list(VARIANTS.values()), ids=list(VARIANTS))
def test_local_equals_ray(corpus, tmp_path, kw):
    loc_out, ray_out = str(tmp_path / "local"), str(tmp_path / "ray")
    loc = build_index(corpus, loc_out, **kw)
    on_ray = build_index(corpus, ray_out, tokenizer_batch_size=RAY_BATCH, **kw)
    for res, out, ex in ((loc, loc_out, "local"), (on_ray, ray_out, "ray")):
        assert res.stats["executor"] == ex
        assert {p["executor"] for p in _manifest(out)["phases"].values()} == {ex}
    assert loc.phase_times.keys() == on_ray.phase_times.keys()
    st = _stats(loc_out)
    assert st["n_docs"] == N
    assert st == _stats(ray_out)
    seg = _segments(loc_out)
    assert seg.num_rows == st["vocab_size"]
    assert seg.equals(_segments(ray_out))
    assert _docmeta(loc_out).equals(_docmeta(ray_out))
    assert _digests(loc_out) == _digests(ray_out) == _pinned(kw)
    files = _files(loc_out)
    assert sorted(files) == ["docmeta/0.parquet"] + [
        f"segments/{group_file(g)}" for g in range(GROUPS)
    ]
    assert _files(ray_out) == files


def test_segment_files_byte_identical(corpus, tmp_path):
    """Every segment and docmeta file, by name and bytes, is the same
    from the local executor, from two Ray builds, and from a Ray build
    resumed after a kill mid-merge: half its group files had not
    landed, one left its partial temp file, and the segments phase was
    recorded but unfinished. The resume merges the missing groups only
    and leaves no temp file."""
    kw = VARIANTS["streaming"]
    outs = [str(tmp_path / name) for name in ("local", "ray1", "ray2")]
    build_index(corpus, outs[0], **kw)
    for out in outs[1:]:
        build_index(corpus, out, tokenizer_batch_size=RAY_BATCH, **kw)
    want = _files(outs[0])
    assert _files(outs[1]) == want and _files(outs[2]) == want

    out = outs[2]
    man = _manifest(out)
    man["phases"]["segments"] = {"dir": "segments", "extra_dirs": []}
    with open(os.path.join(out, "manifest.json"), "w") as f:
        json.dump(man, f)
    seg = os.path.join(out, "segments")
    lost = list(range(1, GROUPS, 2))
    for g in lost:
        os.remove(os.path.join(seg, group_file(g)))
    with open(os.path.join(seg, f".{group_file(lost[0])}.tmp"), "wb") as f:
        f.write(b"PAR1 partial")
    assert pq.read_table(seg).num_rows < _segments(outs[0]).num_rows
    build_index(corpus, out, tokenizer_batch_size=RAY_BATCH, **kw)
    groups = _manifest(out)["phases"]["segments"]["counters"]["groups"]
    assert [g["mpart"] for g in groups] == lost
    assert sorted(os.listdir(seg)) == sorted(
        name.split("/")[1] for name in want if name.startswith("segments/")
    )
    assert _files(out) == want


def test_durable_resume_after_lost_segments_chunk(corpus, tmp_path, rerun_one_group):
    """Kill mid-merge on a Ray build: one finished merge group's file is
    lost, with the segments manifest entry. The resume merges only that
    group (no content is tokenized, no other group file is rewritten)
    and the index equals the pinned digests."""
    out = str(tmp_path / "b")
    kw = dict(VARIANTS["streaming"], tokenizer_batch_size=RAY_BATCH)
    build_index(corpus, out, **kw)
    assert _digests(out) == PINNED["plain"]
    before = _files(out)
    docbase = _manifest(out)["phases"]["docbase"]
    res = rerun_one_group(out, 5, lambda: build_index(corpus, out, **kw))
    assert _manifest(out)["phases"]["docbase"] == docbase
    assert res.stats["vocab_size"] == _segments(out).num_rows
    assert _files(out) == before
    assert _digests(out) == PINNED["plain"]


def test_generic_dataset_builds_on_ray(tmp_path):
    """A Ray Dataset's row count is unknown without executing it: the
    build stays on Ray however small the input."""
    import ray.data as rd

    res = build_index(rd.from_arrow(generate_corpus(40, seed=2)), str(tmp_path / "b"))
    assert res.stats["executor"] == "ray"


def test_local_build_runs_without_ray(tmp_path):
    """No ray.init in the process: the build and every query succeed,
    match the Oracle, and Ray is still not initialised afterwards (so
    no Ray job ran)."""
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    code = textwrap.dedent(
        f"""
        import numpy as np
        import ray

        from quickray.build import build_index
        from quickray.corpus import generate_corpus
        from quickray.engine import Index, LocalEngine
        from quickray.oracle import Oracle
        from quickray.queryset import make_query_set

        tbl = generate_corpus(200, seed=9)
        res = build_index(tbl, {str(tmp_path / "b")!r})
        assert res.stats["executor"] == "local", res.stats
        eng = LocalEngine(Index(res.out_dir))
        oracle = Oracle(tbl)
        queries = make_query_set(oracle.df())
        assert queries
        for q in queries:
            ids, sc = eng.search(q)
            ref = oracle.search(q)
            assert list(ids) == [d for d, _ in ref], q.id
            assert np.allclose(sc, [s for _, s in ref], rtol=1e-9, atol=1e-12), q.id
        assert not ray.is_initialized()
        print("checked", len(queries))
        """
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (root, env.get("PYTHONPATH")) if p
    )
    r = subprocess.run(
        [sys.executable, "-c", code], cwd=root, env=env,
        capture_output=True, text=True, timeout=600,
    )
    assert r.returncode == 0, r.stderr[-3000:]
    assert r.stdout.startswith("checked")


def test_local_resume(tmp_path):
    """A parquet source of one batch (row count from its footer) builds
    locally; after a crash that lost the segments, only that phase
    reruns and the segments come back identical."""
    src = str(tmp_path / "corpus")
    os.makedirs(src)
    pq.write_table(generate_corpus(200, seed=4), os.path.join(src, "c.parquet"))
    out = str(tmp_path / "b")
    r1 = build_index(src, out)
    assert r1.stats["executor"] == "local"
    fresh = _segments(out)

    man_path = os.path.join(out, "manifest.json")
    man = _manifest(out)
    kept = {
        ph: max(
            os.path.getmtime(os.path.join(d, f))
            for d, _, fs in os.walk(os.path.join(out, ph)) for f in fs
        )
        for ph in ("docids", "docbase", "docmeta")
    }
    del man["phases"]["segments"]
    with open(man_path, "w") as f:
        json.dump(man, f)

    r2 = build_index(src, out)
    assert _segments(out).equals(fresh)
    assert r2.stats == r1.stats
    for ph, mtime in kept.items():  # finished phases were not rewritten
        assert max(
            os.path.getmtime(os.path.join(d, f))
            for d, _, fs in os.walk(os.path.join(out, ph)) for f in fs
        ) == mtime, ph


def _tiny(content, ids, paths=None, langs=None):
    n = len(content)
    return pa.table(
        {
            "repo": pa.array(["r"] * n),
            "path": pa.array(paths or [f"f{i}.go" for i in range(n)], pa.string()),
            "commit": pa.array(["c"] * n),
            "lang": pa.array(langs or ["go"] * n, pa.string()),
            "content": pa.array(content, pa.string()),
            "myid": pa.array(ids, pa.int64()),
        }
    )


@pytest.mark.parametrize("batch", [4096, 2], ids=["local", "ray"])
def test_bad_input_names_the_column(tmp_path, batch):
    null_content = _tiny(["a b", None, "c", "d"], [0, 1, 2, 3])
    with pytest.raises(Exception, match="null values in 'content'"):
        build_index(null_content, str(tmp_path / "n"), tokenizer_batch_size=batch)
    null_path = _tiny(["a b", "b", "c", "d"], [0, 1, 2, 3],
                      paths=["f0.go", None, "test_f2.go", "f3.go"])
    with pytest.raises(Exception, match="null values in 'path'"):
        build_index(null_path, str(tmp_path / "np"), id_col="myid",
                    tokenizer_batch_size=batch)
    # a null lang sets no lang bit, as in the Oracle
    null_lang = _tiny(["a b", "b", "c", "d"], [0, 1, 2, 3],
                      paths=["f0.go", "f1.go", "test_f2.go", "f3.go"],
                      langs=["go", None, None, "py"])
    out = str(tmp_path / "nl")
    build_index(null_lang, out, id_col="myid", tokenizer_batch_size=batch)
    want = Oracle(null_lang, id_col="myid").bits
    assert _docmeta(out)["bits"].to_pylist() == [1, 0, 1 << 8, 2] == [
        want[i] & ~(1 << 9) for i in range(4)
    ]
    # field_cols: a repeated id would repeat a field posting in its run
    for i, ((ids, msg), fields) in enumerate(itertools.product((
        ([0, 1, 1, 3], "permutation.*'myid'"),
        ([0, None, 2, 3], "null doc_ids in id column 'myid'"),
        ([0, 1, 2, 7], r"dense 0..N-1 \(got min=0 max=7 n=4\)"),
    ), ([], ["lang"]))):
        with pytest.raises(ValueError, match=msg):
            build_index(
                _tiny(["a b", "b", "c", "d"], ids), str(tmp_path / f"id{i}"),
                id_col="myid", tokenizer_batch_size=batch, field_cols=fields,
            )
