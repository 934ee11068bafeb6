"""Local replica of the driver correctness gate: run every queries()
entry at sf0.01 and compare against oracle_sql() through DuckDB
(row count + schema + order-insensitive values). Entries without SQL
get a rows-only sanity check."""

import math
import os

import duckdb
import pandas as pd
import pyarrow as pa
import pytest

import __ray_entry__ as entrymod

SF_DIR = "/root/testdata/sf0.01"


def _to_pandas(res) -> pd.DataFrame:
    if isinstance(res, pd.DataFrame):
        return res
    if isinstance(res, pa.Table):
        return res.to_pandas()
    return res.to_pandas()  # ray Dataset


def _canon(df: pd.DataFrame) -> pd.DataFrame:
    df = df[sorted(df.columns)]
    return df.sort_values(list(df.columns)).reset_index(drop=True)


def _connect():
    con = duckdb.connect()
    for t in ["documents", "embeddings", "lineitem", "orders", "customer",
              "nation", "region", "supplier", "part", "events"]:
        path = os.path.join(SF_DIR, f"{t}.parquet")
        if os.path.exists(path):
            con.sql(f"CREATE VIEW {t} AS SELECT * FROM '{path}'")
    return con


@pytest.fixture(scope="module")
def con():
    return _connect()


SQL = entrymod.oracle_sql()
QS = entrymod.queries()


@pytest.mark.parametrize("name", sorted(SQL))
def test_query_matches_oracle(name, con):
    got = _canon(_to_pandas(QS[name](SF_DIR)))
    exp = _canon(con.sql(SQL[name]).df())
    assert list(got.columns) == list(exp.columns), (
        f"{name} schema: {list(got.columns)} vs {list(exp.columns)}"
    )
    assert len(got) == len(exp), f"{name} rows: {len(got)} vs {len(exp)}"
    for col in got.columns:
        g, e = got[col], exp[col]
        if g.dtype.kind == "f" or e.dtype.kind == "f":
            assert all(
                (math.isnan(a) and math.isnan(b)) or a == pytest.approx(b, abs=1e-12)
                for a, b in zip(g.astype(float), e.astype(float))
            ), f"{name}.{col}"
        else:
            assert g.astype(str).tolist() == e.astype(str).tolist(), f"{name}.{col}"


@pytest.mark.parametrize(
    "name", sorted(set(QS) - set(SQL))
)
def test_rows_only_queries_run(name):
    got = _to_pandas(QS[name](SF_DIR))
    assert len(got) >= 0


def test_entry_smoke():
    res = entrymod.entry()
    df = _to_pandas(res)
    assert len(df) > 0
    assert set(df.columns) == {"query_id", "rank", "doc_id", "score"}


def test_lsh_pairs_subset_of_exact():
    """Every LSH-emitted pair must appear in the exact near-dup set
    (same threshold); recall is positive."""
    import __ray_entry__ as m

    qs = m.queries()
    lsh = _to_pandas(qs["lsh_near_dup"](SF_DIR))
    exact = _to_pandas(qs["embedding_near_dup"](SF_DIR))
    lset = set(zip(lsh["a"], lsh["b"]))
    eset = set(zip(exact["a"], exact["b"]))
    assert lset <= eset
    assert len(lset) > 0
    assert len(lset) / len(eset) >= 0.3  # LSH recall sanity floor


def test_field_only_query_set_sql_runs():
    """A query set of field keywords only renders no content-term arm
    (an empty `term IN ()` list does not parse) and runs in DuckDB."""
    from quickray.query import Query, Term

    q = Query(tree=Term("fr", field="lang"), k=5, id="qf")
    sql = entrymod._queries_sql([q])
    assert "IN ()" not in sql
    con = duckdb.connect()
    con.sql(
        "CREATE VIEW documents AS SELECT * FROM (VALUES"
        " (0, 'alpha beta', 'fr'), (1, 'gamma', 'en'), (2, 'beta', 'FR'))"
        " t(doc_id, text, lang)"
    )
    got = con.sql(sql).fetchall()
    # both French docs match; the shorter one ranks first
    assert [(r[0], r[1], r[2]) for r in got] == [("qf", 1, 2), ("qf", 2, 0)]
