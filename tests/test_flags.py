"""Bit-feature filter conformance (skiplist_reverse_index.go:158-171,
SURVEY M3) — incl. the or_flags zero-entry skip rule."""

import numpy as np

from quickray.scoring import compute_bits, flags_mask


def test_on_off_flags():
    bits = np.array([0b0000, 0b0101, 0b0011, 0b1111], dtype=np.int64)
    assert flags_mask(bits, on_flag=0b0001).tolist() == [False, True, True, True]
    assert flags_mask(bits, on_flag=0b0101).tolist() == [False, True, False, True]
    assert flags_mask(bits, off_flag=0b0010).tolist() == [True, True, False, False]
    assert flags_mask(bits, on_flag=0b0001, off_flag=0b1000).tolist() == [
        False, True, True, False,
    ]


def test_or_flags_zero_skipped():
    bits = np.array([0b0001, 0b0010, 0b0100], dtype=np.int64)
    # a zero entry must be skipped entirely (reference rule), not treated
    # as "no bit can match"
    assert flags_mask(bits, or_flags=(0,)).tolist() == [True, True, True]
    assert flags_mask(bits, or_flags=(0, 0b0011)).tolist() == [True, True, False]
    assert flags_mask(bits, or_flags=(0b0001, 0b0110)).tolist() == [False, False, False]
    assert flags_mask(bits, or_flags=(0b0011, 0b0110)).tolist() == [False, True, False]


def test_no_flags_all_pass():
    bits = np.array([0, 1, 2], dtype=np.int64)
    assert flags_mask(bits).all()


def test_compute_bits_rules():
    bits = compute_bits(
        ["go", "py", "zz"],
        ["src/a.go", "test/b.py", "pkg/test_c.go"],
        np.array([5, 20, 10]),
        avgdl=10.0,
        langs=["go", "py"],
    )
    assert bits[0] == 1 << 0
    assert bits[1] == (1 << 1) | (1 << 8) | (1 << 9)  # test path + long doc
    assert bits[2] == 1 << 8  # unknown lang -> no lang bit; test_ basename


def test_bits_missing_or_unreadable_raises(tmp_path):
    """Every build writes docmeta bits, so a docmeta whose bits column
    is missing or unreadable is damage, not an old format: the dense
    flag path and preload raise, naming the column and the docmeta dir,
    instead of rebuilding bits from postings."""
    import glob
    import os
    import re
    import shutil

    import pyarrow.parquet as pq
    import pytest

    from quickray.build import build_index
    from quickray.corpus import generate_corpus
    from quickray.engine import Index, LocalEngine
    from quickray.query import Or, Query, Term

    tbl = generate_corpus(300, seed=13)
    out = str(tmp_path / "idx")
    build_index(tbl, out, num_salts=2)

    ix0 = Index(out)
    # a dense-path flagged query: hot terms (df > N/16) + on_flag
    terms = ix0._seg["term"].to_pylist()
    dfs = ix0._seg["df"].to_pylist()
    hot = [t for t, d in sorted(zip(terms, dfs), key=lambda x: -x[1])
           if "\x01" not in t][:3]
    q = Query(tree=Or(tuple(Term(t) for t in hot)), on_flag=1, k=10)
    assert len(LocalEngine(ix0).search(q)[0]) > 0

    def drop_bits(f):
        pq.write_table(pq.read_table(f).drop_columns(["bits"]), f)

    def corrupt(f):
        with open(f, "wb") as fh:
            fh.write(b"not a parquet file")

    for name, damage in (("nobits", drop_bits), ("corrupt", corrupt)):
        outc = str(tmp_path / name)
        shutil.copytree(out, outc)
        for f in glob.glob(os.path.join(outc, "docmeta", "*.parquet")):
            damage(f)
        want = rf"\['bits'\].*{re.escape(os.path.join(outc, 'docmeta'))}"
        with pytest.raises(ValueError, match=want):
            LocalEngine(Index(outc)).search(q)
        with pytest.raises(ValueError, match=want):
            Index(outc, preload_top_df=1)
