"""The columnar decode kernel (``Index._decode_rows``) against the
per-term path it replaced: a preloaded Index (rows decoded in chunks,
contributions scored once per chunk) must hold exactly what a cold
Index decodes term by term on its miss path, a partial preload must
answer like the Oracle, and a segment row whose stream disagrees with
its df must fail loudly, naming the column."""

import glob
import os
import shutil

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq
import pytest

from quickray import engine
from quickray.engine import Index, LocalEngine
from quickray.query import And, Or, Query, Term

FIELDS = ("doc_ids", "tfs")
KS = (0, 1, 10, 100)


def _terms(ix: Index) -> list[str]:
    return sorted(ix.df_table()["term"].to_pylist())


def _same(a: np.ndarray, b: np.ndarray, msg: str) -> None:
    assert a.dtype == b.dtype, msg
    assert a.tobytes() == b.tobytes(), msg


def test_preloaded_equals_cold_per_term(built_index, monkeypatch):
    """Every term of a full preload, decoded in several chunks over a
    multi-file segment table, equals the cold miss-path decode field for
    field, and its seeded contributions (and dense vectors) equal the
    ones the cold index's scorer computes per term."""
    assert len(glob.glob(os.path.join(built_index, "segments", "*.parquet"))) > 1
    calls = []
    decode = Index._decode_rows

    def spy(self, rows):
        calls.append(len(rows))
        return decode(self, rows)

    monkeypatch.setattr(engine, "_DECODE_CHUNK", 50)
    monkeypatch.setattr(Index, "_decode_rows", spy)
    hot = Index(built_index, preload_bytes=1 << 30)
    assert len(calls) > 3 and sum(calls) == hot.vocab_size
    monkeypatch.undo()

    cold = Index(built_index)
    dense_terms = 0
    for t in _terms(cold):
        p, c = hot._cache[t], cold.posting(t)  # preloaded vs decoded now
        for f in FIELDS:
            _same(getattr(p, f), getattr(c, f), f"{t!r}.{f}")
        _same(hot.scorer._contrib[t], cold.scorer.contrib(t, c), f"{t!r} contrib")
        if len(c.doc_ids) > cold.n_docs // 2:
            dense_terms += 1
            _same(hot.scorer._dense[t], cold.scorer.dense(t, c), f"{t!r} dense")
    assert dense_terms > 0


def _shapes(a, b, c, d):
    ta, tb, tc, td = Term(a), Term(b), Term(c), Term(d)
    return [
        (ta, {}),
        (Or((ta, tb, tc)), {}),
        (And((ta, tb)), {}),
        (Or((And((ta, tb)), And((tc, td)))), {}),
        (Or((ta, tb, tc)), {"on_flag": 1}),
        (Or((ta, tb, tc)), {"off_flag": 1 << 8}),
    ]


def test_partial_preload_matches_oracle(built_index, oracle, monkeypatch):
    """preload_top_df=3 mixes preloaded terms (the three heaviest) with
    miss-path terms in one query; every shape and k answers like the
    Oracle, twice (the second call served from the memos)."""
    monkeypatch.setattr(engine, "_DECODE_CHUNK", 2)  # a chunk per row
    ix = Index(built_index, preload_top_df=3)
    eng = LocalEngine(ix)
    preloaded = list(ix._cache)
    assert len(preloaded) == 3
    df = oracle.df()
    by_df = sorted(set(df) - set(preloaded), key=lambda t: (-df[t], t))
    rng = np.random.default_rng(5)
    mids = [str(t) for t in rng.choice(by_df[:80], 9, replace=False)]
    for r, a in enumerate(preloaded):
        b, c, d = mids[3 * r : 3 * r + 3]
        for tree, fl in _shapes(a, b, c, d):
            for k in KS:
                q = Query(tree=tree, k=k, **fl)
                want = oracle.search(q)
                for _ in range(2):
                    ids, sc = eng.search(q)
                    assert ids.tolist() == [d for d, _ in want], q
                    np.testing.assert_allclose(
                        sc, [s for _, s in want], rtol=1e-9, atol=0,
                        err_msg=str(q),
                    )


def _damage(out: str, col: str, edits) -> str:
    """Apply ``edits`` to the ``col`` streams of the heaviest rows of the
    segment file holding the heaviest row; return that row's term."""
    files = sorted(glob.glob(os.path.join(out, "segments", "*.parquet")))
    tables = [pq.read_table(f) for f in files]
    fi = max(range(len(files)), key=lambda i: pc.max(tables[i]["df"]).as_py())
    t = tables[fi]
    rows = np.argsort(-np.asarray(t["df"]), kind="stable")
    vals = t[col].to_pylist()
    for r, edit in zip(rows, edits):
        vals[r] = edit(vals[r])
    t = t.set_column(t.schema.get_field_index(col), col, pa.array(vals, t[col].type))
    pq.write_table(t, files[fi])
    return t["term"][int(rows[0])].as_py()


@pytest.mark.parametrize(
    "col,edits",
    [
        ("tfs", [lambda b: b + b"\x01"]),  # one value too many
        ("postings", [lambda b: b[:-1]]),  # one value too few
        # one value moved between rows: the total still matches
        ("tfs", [lambda b: b + b"\x01", lambda b: b[:-1]]),
    ],
)
def test_stream_length_disagreeing_with_df_raises(built_index, tmp_path, col, edits):
    out = str(tmp_path / "damaged")
    shutil.copytree(built_index, out)
    term = _damage(out, col, edits)
    with pytest.raises(ValueError, match=f"segment column '{col}'"):
        Index(out, preload_bytes=1 << 30)  # chunk path: every row
    with pytest.raises(ValueError, match=f"segment column '{col}'"):
        Index(out).posting(term)  # miss path: one row
