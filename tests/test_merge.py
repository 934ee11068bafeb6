"""Property tests for the segmented codec helpers and the
partition-level run merge (quickray/merge.py) — the merge correctness
requirement of SURVEY §7.8(c): no lost, duplicated or misordered
postings for any batch split / merge layout / arrival order.
"""

import numpy as np
import pyarrow as pa
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quickray.codec import (
    binary_runs,
    segmented_cumsum,
    segmented_delta_encode,
    varint_decode,
    varint_encode_sizes,
)
from quickray.merge import final_merge
from quickray.schema import BATCH_RUN_SCHEMA
from quickray.tokenize import Tokenizer
from quickray.util import stable_hash_str


# --------------------------------------------------------- codec helpers
@settings(max_examples=150, deadline=None)
@given(
    st.lists(
        st.lists(st.integers(0, 10**9), min_size=1, max_size=30, unique=True),
        min_size=1,
        max_size=12,
    )
)
def test_segmented_delta_roundtrip(segments):
    segments = [sorted(s) for s in segments]
    values = np.array([v for s in segments for v in s], dtype=np.int64)
    starts = np.cumsum([0] + [len(s) for s in segments[:-1]]).astype(np.int64)
    deltas = segmented_delta_encode(values, starts)
    assert np.array_equal(segmented_cumsum(deltas, starts), values)


def test_segmented_delta_rejects_dup_within_segment():
    with pytest.raises(ValueError):
        segmented_delta_encode(
            np.array([1, 5, 5], dtype=np.int64), np.array([0], dtype=np.int64)
        )
    # but a repeat at a segment boundary is fine (separate segments)
    segmented_delta_encode(
        np.array([1, 5, 5], dtype=np.int64), np.array([0, 2], dtype=np.int64)
    )


@settings(max_examples=100, deadline=None)
@given(
    st.lists(
        st.lists(st.integers(0, 2**40), min_size=0, max_size=20),
        min_size=1,
        max_size=10,
    )
)
def test_binary_runs_property(segments):
    values = np.array([v for s in segments for v in s], dtype=np.uint64)
    starts = np.cumsum([0] + [len(s) for s in segments[:-1]]).astype(np.int64)
    buf, nb = varint_encode_sizes(values)
    parts = binary_runs("postings", buf, nb, starts)
    assert parts.type == pa.binary() and len(parts) == len(segments)
    for part, seg in zip(parts.to_pylist(), segments):
        assert varint_decode(part, np.uint64).tolist() == seg


@pytest.mark.parametrize("name", ["postings", "tfs"])
def test_binary_runs_overflow_names_the_column(name):
    """A stream past int32 binary offsets fails loudly, with the column
    named, from the sizes alone: the one-byte buffer is never read."""
    nbytes = np.array([2**30, 2**30 - 1, 1], dtype=np.int64)
    with pytest.raises(ValueError, match=f"'{name}'.*int32"):
        binary_runs(name, b"x", nbytes, np.array([0, 2], dtype=np.int64))
    # a stream within the bound is cut as usual
    ok = binary_runs(name, b"x" * 4, np.array([1, 3]), np.array([0, 1]))
    assert ok.to_pylist() == [b"x", b"xxx"]


# ----------------------------------------------------- end-to-end merges
def _naive_invert(doc_rows):
    """dict term -> sorted [(doc, tf)] — independent reference."""
    inv = {}
    for doc, terms in doc_rows:
        for t in set(terms):
            inv.setdefault(t, []).append((doc, terms.count(t)))
    return {t: sorted(v) for t, v in inv.items()}


@settings(max_examples=30, deadline=None)
@given(
    st.lists(  # docs: token list per doc
        st.lists(st.sampled_from("a b c d e hot".split()), min_size=1, max_size=8),
        min_size=1,
        max_size=40,
    ),
    st.integers(1, 4),  # batch size: how docs split into tokenizer batches
    st.integers(1, 3),  # merge groups (num_shards)
    st.integers(0, 1),  # shuffle run arrival order?
)
def test_run_merge_matches_naive_inversion(docs, bs, shards, shuffle):
    n = len(docs)
    doc_rows = [(i, toks) for i, toks in enumerate(docs)]
    tok = Tokenizer(num_parts=shards)
    run_tables = []
    for s in range(0, n, bs):
        chunk = doc_rows[s : s + bs]
        batch = pa.table(
            {
                "doc_id": pa.array([d for d, _ in chunk], pa.int64()),
                "content": pa.array([" ".join(t) for _, t in chunk], pa.string()),
            }
        )
        run_tables.append(tok(batch))
    runs = pa.concat_tables(run_tables)
    if shuffle:  # arrival order must not matter
        idx = np.random.default_rng(0).permutation(runs.num_rows)
        runs = runs.take(idx)

    # one merge per mpart — exactly like the build's segments phase
    segs = []
    for mp in np.unique(np.asarray(runs["mpart"])):
        grp = runs.filter(pa.compute.equal(runs["mpart"], int(mp)))
        segs.append(final_merge(grp))
    seg = pa.concat_tables(segs)

    from quickray.codec import decode_postings

    got = {}
    for i in range(seg.num_rows):
        term = seg["term"][i].as_py()
        ids = decode_postings(seg["postings"][i].as_py())
        tfs = varint_decode(seg["tfs"][i].as_py())
        got[term] = list(zip(ids.tolist(), tfs.tolist()))
        assert seg["shard"][i].as_py() == stable_hash_str(term) % shards
    assert got == _naive_invert(doc_rows)


def test_run_schema_stable():
    """A batch's runs as the docbase pass writes them: one row per
    term, ``mpart`` the term's merge group."""
    tok = Tokenizer(num_parts=3)
    out = tok(
        pa.table(
            {
                "doc_id": pa.array([0, 1], pa.int64()),
                "content": pa.array(["x y x", "y z"], pa.string()),
            }
        )
    )
    assert out.schema == BATCH_RUN_SCHEMA
    rows = {r["term"]: r for r in out.to_pylist()}
    assert rows["x"]["df"] == 1 and rows["y"]["df"] == 2
    assert rows["y"]["min_doc"] == 0 and rows["z"]["min_doc"] == 1
    for t, r in rows.items():
        assert r["mpart"] == stable_hash_str(t) % 3
