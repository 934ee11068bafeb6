"""The build's one merge: posting runs -> final segments (vectorized).

The build merges *compressed posting runs* (BATCH_RUN_SCHEMA — one row
per term per tokenizer batch, doc_ids delta+varint, tfs varint), not
exploded (term, doc) rows, straight from the docbase checkpoint, and
groups them by a hash partition id rather than by term:
groupby("mpart") — mpart = hash(term) % num_shards, written by the
docbase pass — concats each term's runs into the final segment row
(doc ids + tfs only) and computes BM25 block-max metadata, looking
doc_len up in a broadcast doc_id-indexed array (doc_ids are dense
0..N-1, so lookup is a numpy take from a plasma-shared array; doc_len
is never shuffled or stored).

One ``map_groups`` call processes a whole partition (hundreds to
thousands of terms) with fully-vectorized decode → lexsort → re-encode
over the partition's concatenated streams; per-term Python overhead is
gone. The largest partition is the ``mpart`` holding the hottest terms
(SURVEY §7.4).

Correctness does not assume runs arrive in doc order: values are always
re-sorted by (term, doc_id) after decode, and segmented_delta_encode
raises if any (term, doc) pair appears twice.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import pyarrow as pa

from quickray.codec import (
    segmented_cumsum,
    segmented_delta_encode,
    split_stream,
    varint_decode,
    varint_encode_sizes,
)
from quickray.schema import SEGMENT_SCHEMA
from quickray.util import fetch


@dataclass
class _Merged:
    docs: np.ndarray
    tfs: np.ndarray
    g_val_starts: np.ndarray  # per-term start index into the value arrays
    g_val_lens: np.ndarray
    terms: list[str]  # one per term


def _concat_decode_sort(t: pa.Table) -> _Merged:
    """Decode a whole partition of runs and regroup: order rows by
    (term, min_doc), concat + decode both streams once, then
    stable-sort values by (term, doc_id)."""
    tcol = t["term"]
    if isinstance(tcol, pa.ChunkedArray):
        tcol = tcol.combine_chunks()
    dic = tcol.dictionary_encode()
    tcodes = np.asarray(dic.indices, dtype=np.int64)
    vocab = dic.dictionary.to_pylist()
    min_doc = np.asarray(t["min_doc"], dtype=np.int64)
    df = np.asarray(t["df"], dtype=np.int64)

    row_order = np.lexsort((min_doc, tcodes))
    plist = t["postings"].to_pylist()
    tlist = t["tfs"].to_pylist()
    pbuf = b"".join(plist[i] for i in row_order)
    tbuf = b"".join(tlist[i] for i in row_order)

    df_o = df[row_order]
    n_rows = len(df_o)
    val_starts = np.zeros(n_rows, dtype=np.int64)
    np.cumsum(df_o[:-1], out=val_starts[1:])
    docs = segmented_cumsum(varint_decode(pbuf), val_starts)
    tfs = varint_decode(tbuf)

    tc_o = tcodes[row_order]
    g_row_starts = np.concatenate(([0], np.flatnonzero(np.diff(tc_o)) + 1))
    g_val_starts = val_starts[g_row_starts]
    g_val_lens = np.diff(np.append(g_val_starts, len(docs)))

    gid = np.repeat(np.arange(len(g_row_starts)), g_val_lens)
    perm = np.lexsort((docs, gid))
    if not np.array_equal(perm, np.arange(len(docs))):  # runs usually pre-ordered
        docs, tfs = docs[perm], tfs[perm]
    return _Merged(
        docs=docs,
        tfs=tfs,
        g_val_starts=g_val_starts,
        g_val_lens=g_val_lens,
        terms=[vocab[c] for c in tc_o[g_row_starts]],
    )


def make_final_merge(n_docs: int, avgdl: float, block_size: int, dl_ref):
    """groupby("mpart") finalizer: runs -> final segment rows.

    ``dl_ref`` is the doc_len int64 array indexed by doc_id, or a
    ray.put ObjectRef of it — the broadcast-small-side pattern: fetched
    once per task from the local plasma store (zero-copy), never
    re-shipped through the shuffle.
    """

    def merge_partition(t: pa.Table) -> pa.Table:
        from quickray.scoring import bm25_contrib

        if t.num_rows == 0:
            return SEGMENT_SCHEMA.empty_table()
        dl_arr = fetch(dl_ref)
        m = _concat_decode_sort(t)
        starts = m.g_val_starts
        pbuf, pnb = varint_encode_sizes(segmented_delta_encode(m.docs, starts))
        tbuf, tnb = varint_encode_sizes(m.tfs)

        df_per_val = np.repeat(m.g_val_lens, m.g_val_lens)
        scores = bm25_contrib(m.tfs, dl_arr[m.docs], df_per_val, n_docs, avgdl)
        ends = starts + m.g_val_lens
        # block-max metadata for ALL groups in one pass (a per-term
        # Python loop here was ~60% of the final-merge wall at 2M vocab)
        lens = m.g_val_lens
        nblocks = (lens + block_size - 1) // block_size
        block_off = np.concatenate(([0], np.cumsum(nblocks)))
        block_group = np.repeat(np.arange(len(lens)), nblocks)
        within = np.arange(len(block_group)) - block_off[block_group]
        bstart = starts[block_group] + within * block_size
        bend = np.minimum(bstart + block_size, ends[block_group])
        block_last_vals = m.docs[bend - 1]
        block_max_vals = (
            np.maximum.reduceat(scores, bstart)
            if len(bstart)
            else np.empty(0, np.float64)
        )
        block_last = pa.ListArray.from_arrays(
            pa.array(block_off, pa.int32()), pa.array(block_last_vals, pa.int64())
        )
        block_max = pa.ListArray.from_arrays(
            pa.array(block_off, pa.int32()),
            pa.array(block_max_vals, pa.float64()),
        )
        # the group key IS the shard id: mpart = hash(term) % num_shards
        shard = int(t["mpart"][0].as_py())
        return pa.table(
            {
                "term": pa.array(m.terms, pa.string()),
                "df": pa.array(m.g_val_lens),
                "postings": pa.array(split_stream(pbuf, pnb, starts), pa.binary()),
                "tfs": pa.array(split_stream(tbuf, tnb, starts), pa.binary()),
                "block_last": block_last,
                "block_max": block_max,
                "shard": pa.array([shard] * len(m.terms), pa.int64()),
            },
            schema=SEGMENT_SCHEMA,
        )

    return merge_partition
