"""Bit-feature filter conformance (skiplist_reverse_index.go:158-171,
SURVEY M3) — incl. the or_flags zero-entry skip rule."""

import numpy as np
import pyarrow as pa
import pytest

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
    """The stored bits are doc-intrinsic: lang bits and the test-path
    bit (bit 8: the path or its basename starts with "test"), never the
    long-doc bit 9. A null lang sets no lang bit; a null path raises."""
    paths = [
        "src/a.go", "test/b.py", "pkg/test_c.go",
        "test", "a/testx", "test/a", "a/test/b", "a/tes",
        "ünï/testé.go", "testü/a", "ünï/tëst", "/test", "a/", "",
    ]
    langs = ["go", "py", "zz", *[None] * (len(paths) - 3)]
    bits = compute_bits(langs, paths, ["go", "py"])
    assert bits[:3].tolist() == [1 << 0, (1 << 1) | (1 << 8), 1 << 8]
    want_test = [
        p.startswith("test") or p.rsplit("/", 1)[-1].startswith("test")
        for p in paths
    ]
    assert (bits >> 8 & 1).astype(bool).tolist() == want_test
    assert want_test[3:] == [
        True, True, True, False, False, True, True, False, True, False, False,
    ]
    assert not (bits & (1 << 9)).any()
    # Arrow input, chunked or not, gives the same bits
    chunked = compute_bits(
        pa.chunked_array([langs[:5], langs[5:]], pa.string()),
        pa.chunked_array([paths[:5], paths[5:]]), ["go", "py"],
    )
    assert chunked.tolist() == bits.tolist()
    with pytest.raises(ValueError, match="null values in 'path'"):
        compute_bits(["go", "go"], ["a/test", None], ["go"])


def test_bits_missing_or_unreadable_raises(tmp_path, monkeypatch):
    """Every build writes docmeta doc_len and bits, and segments hold
    neither, so a docmeta whose doc-level column is missing or
    unreadable is damage: preload, the first scored query and every flag
    path (dense, AND leaf, sparse flat OR) raise, naming the column and
    the docmeta dir. Undamaged, those flag paths answer like the Oracle,
    and block-max pruning is never used for a flag-filtered query."""
    import glob
    import os
    import re
    import shutil

    import pyarrow.parquet as pq

    from quickray import wand
    from quickray.build import build_index
    from quickray.corpus import generate_corpus
    from quickray.engine import Index, LocalEngine
    from quickray.oracle import Oracle
    from quickray.query import And, Or, Query, Term
    from quickray.schema import LANGS

    tbl = generate_corpus(1500, seed=13)
    out = str(tmp_path / "idx")
    build_index(tbl, out)
    oracle = Oracle(tbl)

    ix0 = Index(out)
    by_df = sorted(
        (d, t)
        for t, d in zip(ix0._seg["term"].to_pylist(), ix0._seg["df"].to_pylist())
        if "\x01" not in t
    )
    hot = [t for _, t in by_df[-3:]]  # dense path: df > N/16, + on_flag
    rare = [t for d, t in by_df if 2 <= d <= 5][:3]  # sparse path
    assert sum(ix0.df_of(t) for t in rare) <= ix0.n_docs // 16
    q_dense = Query(tree=Or(tuple(Term(t) for t in hot)), on_flag=1, k=10)
    q_and = Query(tree=And((Term(hot[0]), Term(hot[1]))), on_flag=1)
    q_small = Query(tree=Or(tuple(Term(t) for t in rare)), off_flag=1 << 8,
                    k=10)
    eng0 = LocalEngine(ix0)
    for q in (q_dense, q_small):
        ids, _ = eng0.search(q)
        assert len(ids) and ids.tolist() == [d for d, _ in oracle.search(q)]
    got = eng0.candidates(q_and).tolist()
    assert got and got == oracle.candidates(q_and)
    # prune side of wand.plan forced (cutoff off, any kept span), k=1,
    # and a flag that excludes each term's unfiltered top doc: the
    # unflagged query prunes, while an unfiltered theta0 (that doc's
    # block max) would be too high for the flagged one, which must take
    # the exhaustive path
    monkeypatch.setattr(wand, "WORK_CUTOFF", 0)
    monkeypatch.setattr(wand, "PRUNE_SPAN", 1.0)
    bits = ix0.docmeta_arrays(("bits",))["bits"]
    n = ix0.n_docs
    for d, t in by_df:
        if n // 40 < d < n // 4:
            top = eng0.search(Query(tree=Term(t), k=1))[0][0]
            assert eng0.last_path[0] == "pruned", t
            lang = int(bits[top]) & ((1 << len(LANGS)) - 1)
            q = Query(tree=Term(t), k=1, off_flag=lang)
            want = [doc for doc, _ in oracle.search(q)]
            assert eng0.search(q)[0].tolist() == want, q
            assert eng0.last_path == ("exhaustive", "flag filter"), q
    monkeypatch.undo()

    def drop(col):
        def damage(f):
            pq.write_table(pq.read_table(f).drop_columns([col]), f)

        return damage

    def corrupt(f):
        with open(f, "wb") as fh:
            fh.write(b"not a parquet file")

    for name, damage, col in (
        ("nobits", drop("bits"), "bits"),
        ("nolen", drop("doc_len"), "doc_len"),
        ("corrupt", corrupt, "bits"),
    ):
        outc = str(tmp_path / name)
        shutil.copytree(out, outc)
        for f in glob.glob(os.path.join(outc, "docmeta", "*.parquet")):
            damage(f)
        dm = re.escape(os.path.join(outc, "docmeta"))
        want = rf"'{col}'.*{dm}"
        if name != "corrupt":  # Arrow's cause, after the dir, names it too
            want += rf": .*\b{col}\b"
        with pytest.raises(ValueError, match=want):
            LocalEngine(Index(outc)).search(Query(tree=Term(hot[0]), k=10))
        with pytest.raises(ValueError, match=want):
            Index(outc, preload_top_df=1)
        for q in (q_dense, q_small):
            with pytest.raises(ValueError, match=want):
                LocalEngine(Index(outc)).search(q)
        with pytest.raises(ValueError, match=want):
            LocalEngine(Index(outc)).candidates(q_and)
