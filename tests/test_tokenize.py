import pyarrow as pa
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quickray.tokenize import Tokenizer, flatten_tokens, tokenize_py


def _arrow_tokens_per_doc(arr):
    """flatten_tokens of an Arrow string column, grouped by parent row."""
    flat, par = flatten_tokens(arr)
    out = [[] for _ in range(len(arr))]
    for t, p in zip(flat.to_pylist(), par.to_pylist()):
        out[p].append(t)
    return out


def _python_tokens_per_doc(arr):
    """tokenize_py per row; a null row holds no tokens."""
    return [tokenize_py(s or "") for s in arr.to_pylist()]


def test_arrow_matches_python_fixed():
    texts = [
        "Func foo_1 bar()\nbar baz;baz",
        "",
        "  leading and trailing  ",
        "UPPER_case mixedCase123 __dunder__",
        "a.b.c-d:e,f",
        "中文 tokens split ascii only",
        "tab\tsep\nnewline",
    ]
    arr = pa.array(texts, pa.string())
    assert _arrow_tokens_per_doc(arr) == _python_tokens_per_doc(arr)


def test_arrow_matches_python_edge_shapes():
    """The Arrow kernel tokenizes every edge shape exactly like the
    Python reference: nulls, empties, separators only, non-ASCII text
    (multi-byte separators; the Kelvin sign lowers to ascii 'k';
    combining marks), NUL and tab, an empty column, chunked columns,
    slices (offset buffers) and large_string columns (int64 offsets)."""
    big = pa.array([f"line{i} alpha_beta {i%7}x" for i in range(500)])
    cases = [
        pa.array(
            ["hello world", "", None, "a_b-c__d", "  x  ",
             "ÜBER \u212a gross", "中文 test 漢字", "1337_leet", "òàé", "ΣΙΓΜΑ"]
        ),
        pa.array([], pa.string()),
        pa.array(["", "", ""]),
        pa.array([None, ";;", None]),
        pa.chunked_array([pa.array(["aa bb"]), pa.array(["cc", "dd ee"])]),
        big.slice(37, 200),
        pa.array(["a\x00b", "\u212aelvin", "\u0130d \u0130\u0130", "e\u0301t\u0301e",
                  "tab\tsep", "", None], pa.large_string()),
        big.cast(pa.large_string()).slice(101, 50),
    ]
    for arr in cases:
        assert _arrow_tokens_per_doc(arr) == _python_tokens_per_doc(arr), arr


@settings(max_examples=150, deadline=None)
@given(st.text(max_size=120))
def test_arrow_matches_python_property(s):
    arr = pa.array([s], pa.string())
    assert _arrow_tokens_per_doc(arr) == _python_tokens_per_doc(arr)


# arbitrary Unicode, with the characters where a byte-level tokenizer
# could part from the regex one drawn often: the Kelvin sign and the
# dotted capital I (they lower to ASCII), a combining mark, tab, NUL
_TEXT = st.text(
    alphabet=st.one_of(
        st.characters(blacklist_categories=("Cs",)),  # UTF-8 has no surrogates
        st.sampled_from("\u212a\u0130\u0301\t\x00 _Az9"),
    ),
    max_size=60,
)


@settings(max_examples=150, deadline=None)
@given(st.lists(st.one_of(st.none(), _TEXT), max_size=8), st.integers(0, 3))
def test_arrow_matches_python_rows_property(texts, pad):
    """Several rows, nulls and empty strings among them, as string and
    large_string columns, whole and sliced out of a longer column: every
    token lands on its own row (parent indices)."""
    want = [tokenize_py(s or "") for s in texts]
    padded = ["PAD x"] * pad + texts + ["y pad"] * pad
    for typ in (pa.string(), pa.large_string()):
        for arr in (pa.array(texts, typ),
                    pa.array(padded, typ).slice(pad, len(texts))):
            assert _arrow_tokens_per_doc(arr) == want, (typ, arr.offset)


def test_token_byte_table_matches_regex():
    """All 256 byte values: the tokenizer's byte table keeps exactly the
    bytes that the oracle's split (TOKEN_SPLIT_RE, under ``re``) and the
    DuckDB oracle SQL's '[^a-z0-9_]+' keep, and maps every other byte
    to a space, itself a separator."""
    import re

    from quickray.schema import TOKEN_SPLIT_RE
    from quickray.tokenize import _BYTE_CLASS

    assert re.fullmatch(TOKEN_SPLIT_RE, " ")
    for b in range(256):
        sep = re.fullmatch(TOKEN_SPLIT_RE, chr(b)) is not None
        assert sep == (re.fullmatch(r"[^a-z0-9_]+", chr(b)) is not None), b
        assert _BYTE_CLASS[b] == (ord(" ") if sep else b), b


def test_tokenizer_stage_tf_salt():
    """The Tokenizer emits one run per term with its tfs: doc-level data
    (doc_len, bits) lives in docmeta, never per posting. The salting
    arguments it still accepts (hot_ref, n_docs, num_salts) change
    nothing, since the build no longer salts."""
    from quickray.codec import decode_postings, varint_decode

    batch = pa.table(
        {
            "doc_id": pa.array([10, 90], pa.int64()),
            "content": ["func func x", "def def def y"],
        }
    )
    out = Tokenizer(hot_ref={"func", "def"}, n_docs=100, num_salts=4)(batch)
    assert out.equals(Tokenizer()(batch))
    rows = {
        r["term"]: (decode_postings(r["postings"]).tolist(),
                    varint_decode(r["tfs"]).tolist())
        for r in out.to_pylist()
    }
    assert rows == {"func": ([10], [2]), "x": ([10], [1]),
                    "def": ([90], [3]), "y": ([90], [1])}


def test_rank_lookup_fixed_width_probe():
    """searchsorted probe == pc.index_in on sorted keys; overlong and
    missing keys raise; non-ascii keys take the scatter fallback."""
    import numpy as np
    import pyarrow.compute as pc

    from quickray.tokenize import _fixed_bytes, rank_lookup, rank_probe_np, row_keys

    repos = [f"org{i%5:03d}" for i in range(50)]
    paths = [f"p{i:04d}.go" for i in range(50)]
    keys = pa.table({"repo": pa.array(repos), "path": pa.array(paths)})
    from quickray.docids import rank_keys

    ranked = rank_keys(keys)
    rn = rank_probe_np(ranked)
    got = rank_lookup(keys, None, rn)
    ref = pc.index_in(row_keys(keys), value_set=ranked).cast(pa.int64())
    assert got.equals(ref)
    with pytest.raises(ValueError, match="missing"):
        rank_lookup(
            pa.table({"repo": pa.array(["zz"]), "path": pa.array(["q"])}),
            None, rn,
        )
    with pytest.raises(ValueError, match="missing"):
        rank_lookup(
            pa.table({"repo": pa.array(["r" * 99]), "path": pa.array(["p" * 99])}),
            None, rn,
        )
    # non-ascii fallback keeps exact bytes
    arr = pa.array(["zü-key", "a-key", "m"])
    fb = _fixed_bytes(arr, 12)
    assert [f.rstrip(b"\x00").decode() for f in fb] == ["zü-key", "a-key", "m"]


@settings(max_examples=100, deadline=None)
@given(
    st.lists(
        st.text(
            alphabet=st.characters(blacklist_characters="\x00\x01",
                                   max_codepoint=0x2FF),
            min_size=1, max_size=20,
        ),
        min_size=1, max_size=40, unique=True,
    )
)
def test_fixed_bytes_order_preserving(keys):
    """Padded fixed-width bytes must sort exactly like the source
    strings (UTF-8 byte order), for ascii and non-ascii alike."""
    from quickray.tokenize import _fixed_bytes

    arr = pa.array(sorted(keys), pa.string())
    width = max(len(k.encode()) for k in keys)
    fb = _fixed_bytes(arr, width)
    assert list(fb) == sorted(fb)
    roundtrip = [f.rstrip(b"\x00").decode() for f in fb]
    assert roundtrip == sorted(keys)
