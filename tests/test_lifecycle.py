"""Book-lifecycle analog (indexer_test.go:56-282): the reference's
add -> search -> delete -> search -> re-add -> search cycle, expressed
as corpus-subset rebuilds (our engine is a batch build; upsert =
rebuild of the changed membership — SURVEY §2.7, §7.7 item 4)."""

import os

import pyarrow as pa
import pyarrow.parquet as pq

from quickray.build import build_index
from quickray.engine import Index, LocalEngine
from quickray.query import And, Or, Query, Term


def _books(ids) -> pa.Table:
    """Three 'book' docs mirroring the reference fixture shape: shared
    and distinguishing terms, distinct category bits via lang."""
    docs = {
        1: ("go", "golang distributed search engine skiplist"),
        2: ("py", "python data pipeline search ranking"),
        3: ("go", "golang concurrency channels ranking"),
    }
    rows = [(f"org/books", f"b{i}.txt", "c0", docs[i][0], docs[i][1], i)
            for i in sorted(ids)]
    return pa.table(
        {
            "repo": pa.array([r[0] for r in rows]),
            "path": pa.array([r[1] for r in rows]),
            "commit": pa.array([r[2] for r in rows]),
            "lang": pa.array([r[3] for r in rows]),
            "content": pa.array([r[4] for r in rows]),
            "doc_id": pa.array([r[5] for r in rows], pa.int64()),
        }
    )


# (search ∧ golang) ∨ (ranking ∧ python) — the compound tree shape of
# indexer_test.go:119-132
_COMPOUND = Query(
    tree=Or((And((Term("search"), Term("golang"))),
             And((Term("ranking"), Term("python"))))),
    k=10,
)


def _build(ids, out) -> LocalEngine:
    # ids are made dense 0..n-1 per build (the doc universe changes on
    # delete, exactly like a rebuild after upsert would)
    tbl = _books(ids)
    dense = {v: i for i, v in enumerate(sorted(ids))}
    tbl = tbl.set_column(
        tbl.schema.get_field_index("doc_id"), "doc_id",
        pa.array([dense[v] for v in sorted(ids)], pa.int64()),
    )
    build_index(tbl, out, id_col="doc_id")
    return LocalEngine(Index(out)), dense


def test_add_search_delete_readd(tmp_path):
    # add: all three books present
    eng, dense = _build({1, 2, 3}, str(tmp_path / "v1"))
    ids, _ = eng.search(_COMPOUND)
    assert set(ids.tolist()) == {dense[1], dense[2]}

    # delete book 2 -> only the golang∧search branch matches
    eng2, dense2 = _build({1, 3}, str(tmp_path / "v2"))
    ids2, _ = eng2.search(_COMPOUND)
    assert set(ids2.tolist()) == {dense2[1]}

    # re-add -> identical index bytes as the first build
    eng3, _ = _build({1, 2, 3}, str(tmp_path / "v3"))
    a = pq.read_table(os.path.join(str(tmp_path / "v1"), "segments")).sort_by("term")
    b = pq.read_table(os.path.join(str(tmp_path / "v3"), "segments")).sort_by("term")
    assert a.equals(b)


def test_flag_filtered_compound(tmp_path):
    # the reference applies on/off flags during the leaf scan; lang bits
    # stand in for the hand-set BitsFeature of the Book fixture
    eng, dense = _build({1, 2, 3}, str(tmp_path / "vf"))
    go_bit = 1 << 0  # langs order: build default LANGS = [go, py, ...]
    q = Query(tree=Or((Term("search"), Term("ranking"))),
              on_flag=go_bit, k=10)
    ids, _ = eng.search(q)
    assert set(ids.tolist()) == {dense[1], dense[3]}
    q_off = Query(tree=Or((Term("search"), Term("ranking"))),
                  off_flag=go_bit, k=10)
    ids_off, _ = eng.search(q_off)
    assert set(ids_off.tolist()) == {dense[2]}
