"""Property tests for the round-5 shared kernels: zero-object digest
slicing, sorted-run boundary detection, and the single-source field
posting-key derivation. These are the primitives every blockwise
reduction and both dedup hash paths sit on — drift here corrupts
results silently, so they get exhaustive randomized coverage against
naive references."""

import hashlib
import zlib

import numpy as np
import pyarrow as pa
from hypothesis import given, settings
from hypothesis import strategies as st

from quickray.tokenize import term_shards
from quickray.util import crc32_strings, digest_slices, run_starts, stable_hash_str


@settings(max_examples=150, deadline=None)
@given(
    st.lists(
        st.one_of(st.none(), st.text(max_size=40)), max_size=50
    ),
    st.sampled_from(["md5", "sha256"]),
    st.sampled_from([8, 16, 32]),
)
def test_digest_slices_matches_hashlib(vals, algo, nbytes):
    nbytes = min(nbytes, 16 if algo == "md5" else 32)
    arr = pa.array(vals, pa.string())
    got = digest_slices(arr, algo, nbytes)
    assert len(got) == nbytes * len(vals)
    h = getattr(hashlib, algo)
    for i, v in enumerate(vals):
        want = h(("" if v is None else v).encode()).digest()[:nbytes]
        assert got[nbytes * i : nbytes * (i + 1)] == want


@settings(max_examples=100, deadline=None)
@given(
    st.lists(st.text(max_size=30), min_size=1, max_size=40),
    st.integers(min_value=0, max_value=20),
    st.integers(min_value=1, max_value=10),
)
def test_digest_slices_slice_offset_invariant(vals, off, ln):
    """A zero-copy slice (non-zero Arrow offset) must hash the same
    values as a fresh array — the offset-handling branch."""
    arr = pa.array(vals, pa.string())
    off = min(off, len(vals) - 1)
    ln = min(ln, len(vals) - off)
    sl = arr.slice(off, ln)
    fresh = pa.array(vals[off : off + ln], pa.string())
    assert digest_slices(sl, "md5", 8) == digest_slices(fresh, "md5", 8)


def _naive_run_starts(*cols):
    n = len(cols[0])
    out = [0]
    for i in range(1, n):
        if any(list(c)[i] != list(c)[i - 1] for c in cols):
            out.append(i)
    return out


@settings(max_examples=150, deadline=None)
@given(
    st.lists(st.integers(min_value=-3, max_value=3), min_size=1, max_size=60)
)
def test_run_starts_matches_naive_int(keys):
    keys = sorted(keys)  # contract: key-sorted input
    a = np.array(keys, dtype=np.int64)
    assert run_starts(a).tolist() == _naive_run_starts(keys)


@settings(max_examples=100, deadline=None)
@given(
    st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=3),
            st.sampled_from(["a", "b", "c"]),
        ),
        min_size=1,
        max_size=50,
    )
)
def test_run_starts_matches_naive_composite(pairs):
    """Composite keys: numpy ints + Arrow strings together, run breaks
    where ANY column changes."""
    pairs = sorted(pairs)
    ints = np.array([p[0] for p in pairs], dtype=np.int64)
    strs = pa.array([p[1] for p in pairs], pa.string())
    want = _naive_run_starts([p[0] for p in pairs], [p[1] for p in pairs])
    assert run_starts(ints, strs).tolist() == want


@settings(max_examples=100, deadline=None)
@given(
    st.lists(
        st.one_of(st.none(), st.text(alphabet="aBc ", max_size=6)),
        min_size=1,
        max_size=40,
    )
)
def test_field_posting_keys_contract(vals):
    """Key = field\\x01lower(value); keep drops exactly the null/empty
    rows; keep is None iff every row survives."""
    from quickray.tokenize import field_posting_keys

    col = pa.array(vals, pa.string())
    keys, keep = field_posting_keys(col, "lang")
    assert len(keys) == len(vals)
    expect_keep = [bool(v) for v in vals]
    if keep is None:
        assert all(expect_keep)
        kept_keys = keys.to_pylist()
        kept_vals = [v for v in vals]
    else:
        assert keep.to_pylist() == expect_keep
        kept_keys = keys.filter(keep).to_pylist()
        kept_vals = [v for v in vals if v]
    assert kept_keys == [f"lang\x01{v.lower()}" for v in kept_vals]



@settings(max_examples=150, deadline=None)
@given(
    # past util._CRC32_TAIL strings, so both the vectorized steps and
    # the zlib tail run
    st.lists(st.one_of(st.just(""), st.text(max_size=80)), max_size=120),
    st.integers(min_value=0, max_value=5),
    st.sampled_from([pa.string(), pa.large_string()]),
    st.integers(min_value=1, max_value=300),
)
def test_crc32_strings_matches_zlib(vals, off, typ, shards):
    """The vectorized crc32 over the value buffer and offsets equals
    zlib.crc32 of each UTF-8 string (empty strings, non-ASCII, sliced
    arrays, both offset widths), and term_shards is
    stable_hash_str % num_shards."""
    arr = pa.array(vals, typ).slice(min(off, len(vals)))
    want = [zlib.crc32(v.encode()) for v in vals[off:]]
    got = crc32_strings(arr)
    assert got.dtype == np.uint32
    assert got.tolist() == want
    assert term_shards(arr, shards).tolist() == [
        stable_hash_str(v) % shards for v in vals[off:]
    ]
