"""The build's one merge: posting runs -> final segments (vectorized).

The build merges *compressed posting runs* (BATCH_RUN_SCHEMA — one row
per term per tokenizer batch, doc_ids delta+varint, tfs varint), not
exploded (term, doc) rows, straight from the docbase checkpoint, and
groups them by a hash partition id rather than by term:
groupby("mpart") — mpart = hash(term) % num_shards, written by the
docbase pass — concats each term's runs into the final segment row
(doc ids + tfs only). The merge scores nothing: it needs no corpus
statistics and no doc-level data, and a segment holds no value that
depends on them.

One ``map_groups`` call processes a whole partition (hundreds to
thousands of terms) in whole-column passes: both binary columns are
taken in (term, min_doc) order and decoded from their value buffers
(codec.binary_values), the values re-encoded, and the output columns
written from buffers (codec.binary_runs; the term column is a take of
the partition's term dictionary). There is no Python object per run or
per term. The largest partition is the ``mpart`` holding the hottest
terms (SURVEY §7.4).

Neither correctness nor the output bytes depend on run arrival order:
terms are ordered by value and each term's runs by ``min_doc``. An
O(n) check finds values out of (term, doc_id) order, which happens
where one term's runs from different batches overlap in doc range,
and one stable sort then orders them; segmented_delta_encode raises if
any (term, doc) pair appears twice.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from quickray.codec import (
    binary_runs,
    binary_values,
    segmented_cumsum,
    segmented_delta_encode,
    varint_decode,
    varint_encode_sizes,
)
from quickray.schema import SEGMENT_SCHEMA


@dataclass
class _Merged:
    docs: np.ndarray
    tfs: np.ndarray
    g_val_starts: np.ndarray  # per-term start index into the value arrays
    g_val_lens: np.ndarray
    terms: pa.Array  # one per term


def _concat_decode_sort(t: pa.Table) -> _Merged:
    """Decode a whole partition of runs and regroup: order rows by
    (term, min_doc), take both binary columns in that order and decode
    each from its value buffer once, then put values in (term, doc_id)
    order where runs overlap. Terms are ordered by value, not by first
    occurrence, so the output depends on the set of runs alone, never
    on the order they arrive in."""
    dic = t["term"].combine_chunks().dictionary_encode()
    by_value = np.asarray(pc.sort_indices(dic.dictionary), dtype=np.int64)
    rank = np.empty_like(by_value)
    rank[by_value] = np.arange(len(by_value))
    tcodes = rank[np.asarray(dic.indices, dtype=np.int64)]
    min_doc = np.asarray(t["min_doc"], dtype=np.int64)
    df = np.asarray(t["df"], dtype=np.int64)

    row_order = np.lexsort((min_doc, tcodes))
    take = pa.array(row_order)
    pbuf = binary_values(t["postings"].take(take).combine_chunks())
    tbuf = binary_values(t["tfs"].take(take).combine_chunks())

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

    # a term's runs are in min_doc order, so its values are in doc order
    # unless two of its runs overlap: one O(n) check, and the sort only then
    step = np.diff(docs)
    step[g_val_starts[1:] - 1] = 1  # each term may start below the last
    if (step < 0).any():
        # one int64 key per value, (term, doc) order; a stable sort
        # (timsort) merges the sorted runs it finds in O(n log runs)
        width = int(docs.max()) + 1
        if len(g_row_starts) > (2**63 - 1) // width:
            raise ValueError(
                f"merge group of {len(g_row_starts)} terms over doc ids below"
                f" {width} overflows its int64 sort key"
            )
        gid = np.repeat(np.arange(len(g_row_starts), dtype=np.int64), g_val_lens)
        perm = np.argsort(gid * width + docs, kind="stable")
        docs, tfs = docs[perm], tfs[perm]
    return _Merged(
        docs=docs,
        tfs=tfs,
        g_val_starts=g_val_starts,
        g_val_lens=g_val_lens,
        # every dictionary entry occurs, so the groups are its ranks
        terms=dic.dictionary.take(pa.array(by_value)),
    )


def final_merge(t: pa.Table) -> pa.Table:
    """groupby("mpart") finalizer: one merge group's runs -> its final
    segment rows (doc ids and tfs only)."""
    if t.num_rows == 0:
        return SEGMENT_SCHEMA.empty_table()
    m = _concat_decode_sort(t)
    starts = m.g_val_starts
    pbuf, pnb = varint_encode_sizes(segmented_delta_encode(m.docs, starts))
    tbuf, tnb = varint_encode_sizes(m.tfs)
    # the group key IS the shard id: mpart = hash(term) % num_shards
    shard = int(t["mpart"][0].as_py())
    return pa.table(
        {
            "term": m.terms,
            "df": pa.array(m.g_val_lens),
            "postings": binary_runs("postings", pbuf, pnb, starts),
            "tfs": binary_runs("tfs", tbuf, tnb, starts),
            "shard": pa.array(np.full(len(m.terms), shard, np.int64)),
        },
        schema=SEGMENT_SCHEMA,
    )
