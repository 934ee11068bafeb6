"""Tokenization — Arrow-native, zero Python loops in the hot path.

The reference does NO tokenization (callers supply pre-split Keywords,
demo/job/build_index.go:85-91 merely lowercases + splits a CSV column).
Our corpus is raw source text, so tokenization is a real stage: an
actor-pool `map_batches` class whose per-batch body is pure
pyarrow.compute (RE2 split + list flatten + hash groupby), i.e. C++
kernels over zero-copy Arrow batches.

The token definition (lowercase; maximal runs of [a-z0-9_]) is shared
verbatim by: this Arrow kernel, the Python oracle (oracle.py) and the
DuckDB oracle SQL — all three must agree for the correctness gate.
"""

from __future__ import annotations

import re

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from quickray.schema import TOKEN_SPLIT_RE


# byte class table: 1 for [a-z0-9_] — the token alphabet. All token
# chars are single-byte ASCII, and every byte of a multi-byte UTF-8
# codepoint is >= 0x80, so byte-level run-finding over the LOWERED
# buffer splits exactly where the codepoint regex [^a-z0-9_]+ does.
_TOKEN_BYTE = np.zeros(256, dtype=bool)
for _c in b"abcdefghijklmnopqrstuvwxyz0123456789_":
    _TOKEN_BYTE[_c] = True


def flatten_tokens(
    content: pa.ChunkedArray | pa.Array,
) -> tuple[pa.Array, pa.Array]:
    """content column -> (flat token array, parent row index per token).
    Arrow RE2 split + list flatten + parent indices — all C++ kernels.
    A numpy byte-level variant exists below (flatten_tokens_byte,
    byte-for-byte equivalent, pytest-enforced); in-situ A/B at 40k docs
    x 32 cpus measured the RE2 path 3x faster inside the build (the
    byte path's many small numpy temporaries lose to the fused C++
    kernels at map_batches granularity), so RE2 stays the default."""
    if isinstance(content, pa.ChunkedArray):
        content = content.combine_chunks()
    low = pc.utf8_lower(content)
    lists = pc.split_pattern_regex(low, TOKEN_SPLIT_RE)
    flat = pc.list_flatten(lists)
    parents = pc.list_parent_indices(lists)
    mask = pc.and_(pc.not_equal(flat, ""), pc.is_valid(flat))
    return flat.filter(mask), parents.filter(mask)


def flatten_tokens_byte(content: pa.ChunkedArray | pa.Array) -> tuple[pa.Array, pa.Array]:
    """content column -> (flat token array, parent row index per token).

    Byte-level alternative: lower once (Arrow), then find maximal
    [a-z0-9_] byte runs with numpy over the string buffer. Equivalent
    to flatten_tokens by construction (class-table note above;
    pytest-enforced) but measured slower in situ — kept as the
    reference for environments without the RE2 kernel."""
    if isinstance(content, pa.ChunkedArray):
        content = content.combine_chunks()
    if len(content) == 0:
        return pa.array([], pa.string()), pa.array([], pa.int32())
    low = pc.utf8_lower(content)
    if low.null_count:
        low = pc.fill_null(low, "")
    bufs = low.buffers()  # [validity, offsets, data]
    # offsets are absolute into the data buffer (slices share buffers)
    offsets = np.frombuffer(
        bufs[1], dtype=np.int32, count=low.offset + len(low) + 1
    )[low.offset :].astype(np.int64)
    base = int(offsets[0])
    offsets = offsets - base
    data = (
        np.frombuffer(bufs[2], dtype=np.uint8, count=base + int(offsets[-1]))[base:]
        if bufs[2] is not None and offsets[-1] > 0
        else np.empty(0, np.uint8)
    )
    if len(data) == 0:
        return pa.array([], pa.string()), pa.array([], pa.int32())
    is_tok = _TOKEN_BYTE[data]
    prev = np.empty_like(is_tok)
    prev[0] = False
    prev[1:] = is_tok[:-1]
    # a token never crosses a row boundary: break runs at row starts
    row_starts = offsets[:-1][(offsets[:-1] > 0) & (offsets[:-1] < len(data))]
    prev[row_starts] = False
    nxt = np.empty_like(is_tok)
    nxt[-1] = False
    nxt[:-1] = is_tok[1:]
    row_last = offsets[1:] - 1
    nxt[row_last[(row_last >= 0) & (row_last < len(data) - 1)]] = False
    starts = np.flatnonzero(is_tok & ~prev)
    ends = np.flatnonzero(is_tok & ~nxt) + 1
    if len(starts) == 0:
        return pa.array([], pa.string()), pa.array([], pa.int32())
    lens = ends - starts
    # gather token bytes into a dense buffer (one fancy index)
    out_off = np.zeros(len(starts) + 1, dtype=np.int64)
    np.cumsum(lens, out=out_off[1:])
    pos = np.repeat(starts - out_off[:-1], lens) + np.arange(out_off[-1])
    flat = pa.StringArray.from_buffers(
        len(starts),
        pa.py_buffer(out_off.astype(np.int32).tobytes()),
        pa.py_buffer(data[pos].tobytes()),
    )
    parents = np.searchsorted(offsets, starts, side="right") - 1
    return flat, pa.array(parents.astype(np.int32), pa.int32())


def doc_lengths(content: pa.ChunkedArray | pa.Array, num_rows: int) -> np.ndarray:
    """Token count per row (BM25 |d|), vectorized."""
    _, parents = flatten_tokens(content)
    counts = np.zeros(num_rows, dtype=np.int64)
    np.add.at(counts, np.asarray(parents), 1)
    return counts


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
    empty-word terms). The tokenizer's posting emission, build's
    hot-field-df detection and the test Oracle must all agree
    byte-for-byte on this derivation — they all route through here
    (oracle.py re-states it in dict form with a cross-reference).

    Returns (keys aligned with col, keep mask) — keep is None when
    every row survives (callers skip the filter)."""
    if isinstance(col, pa.ChunkedArray):
        col = col.combine_chunks()
    low = pc.utf8_lower(pc.fill_null(col.cast(pa.string()), ""))
    keys = pc.binary_join_element_wise(pa.scalar(field), low, pa.scalar("\x01"))
    keep = pc.not_equal(low, "")
    return keys, (None if pc.all(keep).as_py() else keep)


class Tokenizer:
    """Stateful actor-pool stage: corpus batch -> compressed posting runs
    (``emit_runs``), or (term, doc_id, tf, salt) rows.

    Used as ``ds.map_batches(Tokenizer, fn_constructor_kwargs={...},
    batch_format="pyarrow", concurrency=N)`` — the class form makes Ray
    run it as an actor pool (SURVEY §2.3 ST1 mapping). Per-actor state
    paid once in __init__: the broadcast hot-term set is fetched with a
    single ray.get of an ObjectRef (plasma-local on every node — the
    broadcast-small-side pattern, never re-shipped per batch).

    tf is computed *within the batch* by an Arrow hash groupby — this is
    the partial/combiner step that shrinks the (term, doc) stream before
    the global shuffle (a doc never spans batches, so per-batch tf is
    exact). Hot terms get a contiguous-range salt
    ``doc_id * S // n_docs`` so the merge phase can concatenate salted
    runs in salt order without re-sorting (SURVEY §7.4).
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

        self._re = re.compile(TOKEN_SPLIT_RE)
        self.hot: frozenset[str] = frozenset(fetch(hot_ref) or ())
        self.ranked_keys = fetch(rank_ref)  # plasma-local, zero-copy
        # per-actor/worker probe view, built once (rank_lookup docstring)
        self.ranked_np = (
            rank_probe_np(self.ranked_keys)
            if self.ranked_keys is not None
            else None
        )
        self.n_docs = max(1, n_docs)
        self.num_salts = max(1, num_salts)
        self.emit_runs = emit_runs
        self.num_parts = max(1, num_parts)
        self.field_cols = list(field_cols or [])

    def _doc_id_col(self, batch: pa.Table) -> pa.Array:
        if "doc_id" in batch.column_names:
            col = batch["doc_id"]
            return col.combine_chunks() if isinstance(col, pa.ChunkedArray) else col
        return rank_lookup(batch, self.ranked_keys, self.ranked_np)

    def _field_rows(self, batch: pa.Table, row_ids: pa.Array) -> list[pa.Table]:
        """Field-scoped keyword rows: one (field\\x01lower(value),
        doc_id, tf=1) posting per doc per indexed field (see
        field_posting_keys for the key derivation + empty-skip
        contract)."""
        n = batch.num_rows
        out = []
        for f in self.field_cols:
            terms, keep = field_posting_keys(batch[f], f)
            t = pa.table(
                {
                    "term": terms,
                    "doc_id": row_ids,
                    "count_all": pa.array(np.ones(n, np.int64)),
                }
            )
            if keep is not None:
                t = t.filter(keep)
            out.append(t)
        return out

    def _grouped(self, batch: pa.Table):
        """(term, doc_id) -> tf within the batch."""
        row_ids = self._doc_id_col(batch)
        flat, parents = flatten_tokens(batch["content"])
        doc_ids = pc.take(row_ids, parents)
        if isinstance(doc_ids, pa.ChunkedArray):
            doc_ids = doc_ids.combine_chunks()
        grouped = (
            pa.table({"term": flat, "doc_id": doc_ids})
            .group_by(["term", "doc_id"])
            .aggregate([([], "count_all")])
        )
        if self.field_cols:
            grouped = pa.concat_tables(
                [grouped.select(["term", "doc_id", "count_all"])]
                + self._field_rows(batch, row_ids)
            )
        return grouped, np.asarray(grouped["doc_id"], dtype=np.int64)

    def __call__(self, batch: pa.Table) -> pa.Table:
        grouped, gdoc = self._grouped(batch)
        if self.emit_runs:
            return self._encode_runs(grouped, gdoc)
        # rows mode (tests/diagnostics): one row per (term, doc)
        terms = grouped["term"].to_pylist()
        is_hot = np.fromiter(
            (t in self.hot for t in terms), dtype=bool, count=len(terms)
        )
        salt = np.where(
            is_hot, gdoc * self.num_salts // self.n_docs, 0
        ).astype(np.int64)
        return pa.table(
            {
                "term": grouped["term"],
                "doc_id": grouped["doc_id"],
                "tf": grouped["count_all"],
                "salt": pa.array(salt),
            }
        )

    def _encode_runs(self, grouped, gdoc) -> pa.Table:
        """One compressed posting run per term present in the batch
        (RUN_SCHEMA) — the shuffle-volume combiner (SURVEY §7.4)."""
        from quickray.codec import (
            segmented_delta_encode,
            split_stream,
            varint_encode_sizes,
        )
        from quickray.schema import RUN_SCHEMA
        from quickray.util import stable_hash_str

        if grouped.num_rows == 0:
            return RUN_SCHEMA.empty_table()
        tcol = grouped["term"]
        if isinstance(tcol, pa.ChunkedArray):
            tcol = tcol.combine_chunks()
        dic = tcol.dictionary_encode()
        codes = np.asarray(dic.indices, dtype=np.int64)
        vocab = dic.dictionary.to_pylist()
        tf = np.asarray(grouped["count_all"], dtype=np.int64)

        order = np.lexsort((gdoc, codes))
        codes_s, doc_s, tf_s = codes[order], gdoc[order], tf[order]
        starts = np.concatenate(
            ([0], np.flatnonzero(np.diff(codes_s)) + 1)
        ).astype(np.int64)
        run_terms = [vocab[c] for c in codes_s[starts]]
        df_run = np.diff(np.append(starts, len(doc_s)))
        min_doc = doc_s[starts]
        n_runs = len(starts)

        is_hot = np.fromiter(
            (t in self.hot for t in run_terms), dtype=bool, count=n_runs
        )
        salt = np.where(
            is_hot, min_doc * self.num_salts // self.n_docs, 0
        ).astype(np.int64)
        th = np.fromiter(
            (stable_hash_str(t) for t in run_terms), dtype=np.int64, count=n_runs
        )
        part = (th + salt * np.int64(0x9E3779B1)) % self.num_parts

        pbuf, pnb = varint_encode_sizes(segmented_delta_encode(doc_s, starts))
        tbuf, tnb = varint_encode_sizes(tf_s)
        return pa.table(
            {
                "term": pa.array(run_terms, pa.string()),
                "salt": pa.array(salt),
                "part": pa.array(part),
                "min_doc": pa.array(min_doc),
                "df": pa.array(df_run),
                "postings": pa.array(split_stream(pbuf, pnb, starts), pa.binary()),
                "tfs": pa.array(split_stream(tbuf, tnb, starts), pa.binary()),
            },
            schema=RUN_SCHEMA,
        )


_WORKER_TOKENIZERS: dict[str, "Tokenizer"] = {}


def make_run_tokenizer(tag: str, **tokenizer_kwargs):
    """Task-mode tokenizer: a plain map_batches function whose Tokenizer
    state (hot set, rank table — both plasma ObjectRefs resolved
    zero-copy on first use) is built once per worker process and cached
    under ``tag``, which must be unique per build (a worker process, or
    the driver under the local executor, outlives builds). Equivalent
    state-per-worker semantics to the actor-pool form, but tasks schedule on the already-warm worker pool
    and never reserve CPUs while idle — measured ~2x faster end-to-end
    on mixed tokenize+shuffle phases. Pass ``tokenizer_concurrency`` to
    build_index to use the actor-pool form instead."""

    def tokenize_runs(batch: pa.Table) -> pa.Table:
        tok = _WORKER_TOKENIZERS.get(tag)
        if tok is None:
            while len(_WORKER_TOKENIZERS) > 4:
                # evict the OLDEST tag only — clear() would drop state
                # another in-flight pipeline is actively reusing, and
                # competing tags would thrash each other's rank tables
                _WORKER_TOKENIZERS.pop(next(iter(_WORKER_TOKENIZERS)))
            tok = Tokenizer(**tokenizer_kwargs)
            _WORKER_TOKENIZERS[tag] = tok
        return tok(batch)

    return tokenize_runs


def tokenize_py(text: str) -> list[str]:
    """Reference tokenizer for the brute-force oracle (must equal the
    Arrow kernel's output exactly)."""
    return [t for t in re.split(TOKEN_SPLIT_RE, text.lower()) if t]

