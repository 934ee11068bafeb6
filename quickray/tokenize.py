"""Tokenization and each batch's posting runs: whole-column Arrow and
numpy passes, no Python loop per token.

The reference does NO tokenization (callers supply pre-split Keywords,
demo/job/build_index.go:85-91 merely lowercases + splits a CSV column).
Our corpus is raw source text, so tokenization is a real stage, run
once per build, inside its one content pass (the docmeta phase of
build.py), as three kernels per batch:
- flatten_tokens: ``utf8_lower``, one 256-entry byte table over the
  lowered value buffer (token bytes kept, every other byte a space),
  then ``ascii_split_whitespace``;
- batch_postings: one ``dictionary_encode`` of the tokens and one
  ``np.unique`` over (term code, doc rank) keys, which sorts the
  (term, doc) pairs into run order and counts their tf;
- encode_runs: delta+varint streams cut into one compressed run per
  term (codec.binary_runs), each carrying the merge group
  (term_shards) that the build's one merge level groups by.

The token definition (lowercase; maximal runs of schema.TOKEN_BYTES) is
shared by this kernel, the Python oracle (tokenize_py, oracle.py) and
the DuckDB oracle SQL: all three must agree for the correctness gate.
"""

from __future__ import annotations

import re

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from quickray.schema import BATCH_RUN_SCHEMA, TOKEN_BYTES, TOKEN_SPLIT_RE


# byte -> itself for a token byte, else a space, the separator of
# ascii_split_whitespace
_BYTE_CLASS = np.full(256, ord(" "), dtype=np.uint8)
_BYTE_CLASS[np.frombuffer(TOKEN_BYTES, np.uint8)] = np.frombuffer(TOKEN_BYTES, np.uint8)


def flatten_tokens(
    content: pa.ChunkedArray | pa.Array,
) -> tuple[pa.Array, pa.Array]:
    """content column -> (flat token array, parent row index per token).

    ``utf8_lower``, then every byte of the lowered value buffer goes
    through one 256-entry table (``_BYTE_CLASS``: token bytes map to
    themselves, every other byte to a space), the array is rebuilt over
    the same offsets and validity, and ``ascii_split_whitespace`` splits
    it; empty pieces (leading, trailing or repeated spaces) are dropped.
    Tokens and parents equal the RE2 split on TOKEN_SPLIT_RE, which
    treats every non-ASCII character as a separator as the table does
    with every byte of one. On the first 4096 docs of the seed-1
    100k-doc corpus (tools/prune_companion.py ``kernels_ms``, one core,
    fastest of 3) this took 59-68 ms against 106-145 ms for the RE2
    ``split_pattern_regex`` it replaced. The whole value buffer is
    mapped and the offsets are reused as they are, so string and
    large_string columns, sliced or not, need no offset arithmetic; a
    null cell holds no tokens."""
    if isinstance(content, pa.ChunkedArray):
        content = content.combine_chunks()
    low = pc.utf8_lower(content)
    validity, offsets, data = low.buffers()
    mapped = _BYTE_CLASS[np.frombuffer(data, dtype=np.uint8)]
    low = pa.Array.from_buffers(
        low.type, len(low), [validity, offsets, pa.py_buffer(mapped)],
        low.null_count, low.offset,
    )
    lists = pc.ascii_split_whitespace(low)
    flat = pc.list_flatten(lists)
    parents = pc.list_parent_indices(lists)
    keep = pc.not_equal(flat, "")
    return flat.filter(keep), parents.filter(keep)


def row_keys(batch: pa.Table) -> pa.Array:
    """Canonical row key `repo\\x01path` (gen/document.go:5 analog)."""
    r, p = batch["repo"], batch["path"]
    if isinstance(r, pa.ChunkedArray):
        r = r.combine_chunks()
    if isinstance(p, pa.ChunkedArray):
        p = p.combine_chunks()
    return pc.binary_join_element_wise(r, p, "\x01")


def _fixed_bytes(arr: pa.Array, width: int) -> np.ndarray:
    """Arrow string array -> numpy fixed-width 'S{width}' bytes array,
    \\x00-padded (no Python string objects — a million-object
    conversion was measured to poison every later phase with GC
    pressure). \\x00 sorts before every byte and never occurs in keys,
    so padded order == string order. Fast path: the Arrow rpad kernel
    makes the padded data buffer ITSELF the (n, width) matrix (~40 ms
    per 1M keys); non-ascii keys take a numpy scatter fallback (rpad
    counts codepoints, not bytes)."""
    n = len(arr)
    if n == 0:
        return np.empty(0, dtype=f"S{width}")
    if arr.null_count:
        # a null would shorten the data buffer below n*width (frombuffer
        # error) and is silently ignored by the all(string_is_ascii) gate
        raise ValueError(
            "null key in fixed-width probe (repo/path columns must be non-null)"
        )
    if int(pc.max(pc.binary_length(arr)).as_py() or 0) > width:
        raise ValueError(f"key longer than probe width {width}")
    if pc.all(pc.string_is_ascii(arr)).as_py():
        padded = pc.utf8_rpad(arr, width, padding="\x00")
        if padded.offset != 0:  # defensive: kernels emit offset-0 arrays
            padded = pa.concat_arrays([padded])
        data = np.frombuffer(padded.buffers()[2], dtype=np.uint8, count=n * width)
        return data.view(f"S{width}")
    bufs = arr.buffers()
    offsets = np.frombuffer(bufs[1], dtype=np.int32, count=arr.offset + n + 1)[
        arr.offset :
    ].astype(np.int64)
    lens = np.diff(offsets)
    out = np.zeros(n * width, np.uint8)
    if offsets[-1] > offsets[0]:
        data = np.frombuffer(bufs[2], dtype=np.uint8, count=int(offsets[-1]))
        total = int(lens.sum())
        col_idx = np.arange(total) - np.repeat(
            np.cumsum(np.concatenate(([0], lens[:-1]))), lens
        )
        dest = np.repeat(np.arange(n, dtype=np.int64) * width, lens) + col_idx
        out[dest] = data[np.repeat(offsets[:-1], lens) + col_idx]
    return out.view(f"S{width}")


def rank_probe_np(ranked_keys: pa.Array) -> np.ndarray:
    """One-time per-worker probe view of the rank table: sorted
    fixed-width bytes (searchsorted over it is pure C memcmp)."""
    width = int(pc.max(pc.binary_length(ranked_keys)).as_py() or 1)
    return _fixed_bytes(ranked_keys, width)


def rank_lookup(
    batch: pa.Table,
    ranked_keys: pa.Array | None,
    ranked_np: np.ndarray | None = None,
) -> pa.Array:
    """doc_id = dense rank of (repo, path): binary search into the
    broadcast rank-ordered key array — content rows never shuffle for
    id assignment (docids.py). Callers on a hot path pass the
    per-worker cached ``ranked_np`` view: pc.index_in rebuilt its
    million-entry hash set on EVERY batch (measured 330 ms/batch at 1M
    keys vs ~2 ms for the cached fixed-width searchsorted)."""
    if ranked_np is None:
        ranked_np = rank_probe_np(ranked_keys)
    width = ranked_np.dtype.itemsize
    keys = row_keys(batch)
    if len(keys) == 0:
        return pa.array([], pa.int64())
    try:
        k = _fixed_bytes(keys, width)
    except ValueError:
        raise ValueError("row key missing from the doc_id rank table")
    idx = np.searchsorted(ranked_np, k)
    idx_c = np.minimum(idx, len(ranked_np) - 1)
    if (idx >= len(ranked_np)).any() or not (ranked_np[idx_c] == k).all():
        raise ValueError("row key missing from the doc_id rank table")
    return pa.array(idx.astype(np.int64))


def field_posting_keys(
    col: pa.Array | pa.ChunkedArray, field: str
) -> tuple[pa.Array, pa.Array | None]:
    """THE single definition of the field-scoped posting-key derivation
    — the reference's Keyword{Field, Word} (build_index.go:114-127; key
    format field + '\\x01' + lower(value), gen/document.go:5). '\\x01'
    cannot appear in a content token ([a-z0-9_]+), so field keys never
    collide with content terms. Null / EMPTY values emit no posting:
    the reference never indexes an empty keyword (Keyword.ToString is
    '' for an empty Word; indexing is guarded by len(Author) > 0,
    keyword_author.go:16-54) — a 'field\\x01' key would only inflate
    field dfs and is unreachable via queries (tree_from_json drops
    empty-word terms). The build's posting emission (batch_postings)
    and the test Oracle must agree byte-for-byte on this derivation —
    the build routes through here (oracle.py re-states it in dict form
    with a cross-reference).

    Returns (keys aligned with col, keep mask) — keep is None when
    every row survives (callers skip the filter)."""
    if isinstance(col, pa.ChunkedArray):
        col = col.combine_chunks()
    low = pc.utf8_lower(pc.fill_null(col.cast(pa.string()), ""))
    keys = pc.binary_join_element_wise(pa.scalar(field), low, pa.scalar("\x01"))
    keep = pc.not_equal(low, "")
    return keys, (None if pc.all(keep).as_py() else keep)


def batch_postings(
    batch: pa.Table,
    row_ids: pa.Array,
    flat: pa.Array,
    parents: pa.Array,
    field_cols: list[str] = (),
) -> pa.Table:
    """(term, doc_id, tf) rows of one batch, one per (term, doc), from
    its flattened tokens (``flatten_tokens(batch["content"])``) and one
    tf=1 row per doc per indexed field (field_posting_keys) — exact, as
    a doc never spans batches. ``term`` is dictionary-encoded and the
    rows come sorted by (term code, doc_id): the run order encode_runs
    cuts. The tokens and each field's keys are dictionary-encoded once
    (field keys hold '\\x01', so they never meet a token), and one
    ``np.unique`` over ``code * n_rows + doc rank`` keys both sorts the
    pairs and counts their tf."""
    ids = np.asarray(row_ids, dtype=np.int64)
    n = len(ids)
    by_doc = np.argsort(ids, kind="stable")
    rank = np.empty(n, dtype=np.int64)
    rank[by_doc] = np.arange(n)
    # the tokens, then each field's keys: (values, row of each value)
    parts = [(flat, np.asarray(parents, dtype=np.int64))]
    for f in field_cols:
        keys, keep = field_posting_keys(batch[f], f)
        if keep is None:
            parts.append((keys, np.arange(n)))
        else:
            parts.append((keys.filter(keep), np.flatnonzero(np.asarray(keep))))
    dicts, pair_keys = [], []
    for values, rows in parts:
        enc = values.dictionary_encode()
        codes = np.asarray(enc.indices, dtype=np.int64) + sum(map(len, dicts))
        pair_keys.append(codes * n + rank[rows])
        dicts.append(enc.dictionary.cast(pa.string()))
    key, tf = np.unique(np.concatenate(pair_keys), return_counts=True)
    code, doc_rank = np.divmod(key, max(n, 1))
    return pa.table(
        {
            "term": pa.DictionaryArray.from_arrays(
                pa.array(code), pa.concat_arrays(dicts)
            ),
            "doc_id": pa.array(ids[by_doc][doc_rank]),
            "tf": pa.array(tf),
        }
    )


def term_shards(terms: pa.Array, num_shards: int) -> np.ndarray:
    """Each term's merge group, ``stable_hash_str(term) % num_shards``:
    the runs' ``mpart`` and the final segments' ``shard``."""
    from quickray.util import crc32_strings

    return crc32_strings(terms).astype(np.int64) % num_shards


def encode_runs(grouped: pa.Table, num_shards: int) -> pa.Table:
    """One compressed posting run per term present in the batch
    (BATCH_RUN_SCHEMA; doc ids delta+varint, tfs varint, ``mpart`` from
    term_shards) — the merge-volume combiner (SURVEY §7.4). ``grouped``
    is batch_postings' output, sorted by (term code, doc_id); each run
    is a slice of one encoded stream (codec.binary_runs)."""
    from quickray.codec import (
        binary_runs,
        segmented_delta_encode,
        varint_encode_sizes,
    )

    if grouped.num_rows == 0:
        return BATCH_RUN_SCHEMA.empty_table()
    term = grouped["term"].combine_chunks()
    codes = np.asarray(term.indices, dtype=np.int64)
    docs = np.asarray(grouped["doc_id"], dtype=np.int64)
    starts = np.concatenate(([0], np.flatnonzero(np.diff(codes)) + 1))
    pbuf, pnb = varint_encode_sizes(segmented_delta_encode(docs, starts))
    tbuf, tnb = varint_encode_sizes(np.asarray(grouped["tf"]))
    run_codes = codes[starts]
    return pa.table(
        {
            "term": term.dictionary.take(pa.array(run_codes)),
            "mpart": term_shards(term.dictionary, num_shards)[run_codes],
            "min_doc": pa.array(docs[starts]),
            "df": pa.array(np.diff(np.append(starts, len(docs)))),
            "postings": binary_runs("postings", pbuf, pnb, starts),
            "tfs": binary_runs("tfs", tbuf, tnb, starts),
        },
        schema=BATCH_RUN_SCHEMA,
    )


class Tokenizer:
    """One tokenizer batch -> its compressed posting runs
    (BATCH_RUN_SCHEMA) with ``mpart`` taken modulo ``num_parts``: the
    runs the build's content pass (the docmeta phase) writes to its
    runs files, from the same functions (flatten_tokens,
    batch_postings, encode_runs).

    The build does not call this class; direct callers do (tests, the
    tokenize throughput probe). ``hot_ref``, ``n_docs``, ``num_salts``
    and ``emit_runs`` are accepted and ignored: they configured hot-term
    salting and a per-(term, doc) rows mode, both gone. ``rank_ref``
    takes a value or a ray.put ObjectRef (util.fetch).
    """

    def __init__(
        self,
        hot_ref=None,
        n_docs: int = 1,
        num_salts: int = 1,
        emit_runs: bool = False,
        num_parts: int = 64,
        rank_ref=None,
        field_cols: list[str] | None = None,
    ) -> None:
        from quickray.util import fetch

        self.ranked_keys = fetch(rank_ref)  # plasma-local, zero-copy
        # probe view, built once (rank_lookup docstring)
        self.ranked_np = (
            rank_probe_np(self.ranked_keys)
            if self.ranked_keys is not None
            else None
        )
        self.num_parts = max(1, num_parts)
        self.field_cols = list(field_cols or [])

    def _doc_id_col(self, batch: pa.Table) -> pa.Array:
        if "doc_id" in batch.column_names:
            col = batch["doc_id"]
            return col.combine_chunks() if isinstance(col, pa.ChunkedArray) else col
        return rank_lookup(batch, self.ranked_keys, self.ranked_np)

    def __call__(self, batch: pa.Table) -> pa.Table:
        flat, parents = flatten_tokens(batch["content"])
        grouped = batch_postings(
            batch, self._doc_id_col(batch), flat, parents, self.field_cols
        )
        return encode_runs(grouped, self.num_parts)


def tokenize_py(text: str) -> list[str]:
    """Reference tokenizer for the brute-force oracle (must equal the
    Arrow kernel's output exactly). ``str.lower`` applies Unicode's full
    case mapping, which lowers U+0130 (capital I with dot above) to
    'i' + U+0307, a separator; Arrow's ``utf8_lower`` and DuckDB's
    ``lower`` apply the simple mapping, 'i'. Of all code points it is
    the only one whose two lowerings tokenize differently, so it is
    mapped first."""
    low = text.replace("\u0130", "i").lower()
    return [t for t in re.split(TOKEN_SPLIT_RE, low) if t]

