"""The two build executors (build.py): a source of at most one
tokenizer batch builds in the calling process with no Ray job (local);
larger or uncounted sources build on Ray. Both must write the same
index; the local one must also resume, fail on bad input and run
without ray.init."""

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
from quickray.schema import SEGMENT_SCHEMA

N = 300
RAY_BATCH = 128  # below N: the same input builds on the Ray executor
COMMON = {"hot_df": 40, "num_salts": 4}  # salting active
VARIANTS = {
    "streaming": {},
    "durable": {"durable_shuffle": True, "shuffle_chunks": 3},
    "field_cols": {"field_cols": ["lang"]},
    "id_col": {"id_col": "my_id"},
}


def _segments(out):
    t = pq.read_table(os.path.join(out, "segments"))
    return t.select(SEGMENT_SCHEMA.names).sort_by("term")


def _docmeta(out):
    return pq.read_table(os.path.join(out, "docmeta")).sort_by("doc_id")


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
    loc = build_index(corpus, loc_out, **COMMON, **kw)
    on_ray = build_index(
        corpus, ray_out, tokenizer_batch_size=RAY_BATCH, **COMMON, **kw
    )
    for res, out, ex in ((loc, loc_out, "local"), (on_ray, ray_out, "ray")):
        assert res.stats["executor"] == ex
        assert {p["executor"] for p in _manifest(out)["phases"].values()} == {ex}
    assert loc.phase_times.keys() == on_ray.phase_times.keys()
    st = _stats(loc_out)
    assert st["hot_terms"] and st["n_docs"] == N
    assert st == _stats(ray_out)
    seg = _segments(loc_out)
    assert seg.num_rows == st["vocab_size"]
    assert seg.equals(_segments(ray_out))
    assert _docmeta(loc_out).equals(_docmeta(ray_out))


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
        res = build_index(tbl, {str(tmp_path / "b")!r}, hot_df=30, num_salts=2)
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
    locally; after a crash that lost postings and segments, only those
    phases rerun and the segments come back identical."""
    src = str(tmp_path / "corpus")
    os.makedirs(src)
    pq.write_table(generate_corpus(200, seed=4), os.path.join(src, "c.parquet"))
    out = str(tmp_path / "b")
    r1 = build_index(src, out, **COMMON)
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
    for ph in ("postings", "segments"):
        del man["phases"][ph]
    with open(man_path, "w") as f:
        json.dump(man, f)

    r2 = build_index(src, out, **COMMON)
    assert _segments(out).equals(fresh)
    assert r2.stats == r1.stats
    for ph, mtime in kept.items():  # finished phases were not rewritten
        assert max(
            os.path.getmtime(os.path.join(d, f))
            for d, _, fs in os.walk(os.path.join(out, ph)) for f in fs
        ) == mtime, ph


def _tiny(content, ids):
    n = len(content)
    return pa.table(
        {
            "repo": pa.array(["r"] * n),
            "path": pa.array([f"f{i}.go" for i in range(n)]),
            "commit": pa.array(["c"] * n),
            "lang": pa.array(["go"] * n),
            "content": pa.array(content, pa.string()),
            "myid": pa.array(ids, pa.int64()),
        }
    )


@pytest.mark.parametrize("batch", [4096, 2], ids=["local", "ray"])
def test_bad_input_names_the_column(tmp_path, batch):
    null_content = _tiny(["a b", None, "c", "d"], [0, 1, 2, 3])
    with pytest.raises(Exception, match="null values in 'content'"):
        build_index(null_content, str(tmp_path / "n"), tokenizer_batch_size=batch)
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
