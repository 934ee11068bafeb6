"""The build's one merge: posting runs -> final segments (vectorized).

The build merges *compressed posting runs* (BATCH_RUN_SCHEMA — one row
per term per tokenizer batch, doc_ids delta+varint, tfs varint), not
exploded (term, doc) rows. The map side is the build's content pass: each
tokenizer batch writes its runs as one Arrow IPC file under ``runs/``
(write_runs), split into one record batch per merge group ``mpart`` =
hash(term) % num_shards, as a MapReduce map task writes one region per
reducer (Dean & Ghemawat, OSDI 2004). A merge task memory-maps every
runs file and takes record batch ``g`` of each (group_runs), so the
exchange needs no sort and a group reads only its own runs. Each
group's runs become its final segment rows (doc ids + tfs only). The
merge scores nothing: it needs no corpus statistics and no doc-level
data, and a segment holds no value that depends on them.

final_merge processes a whole group (hundreds to thousands of terms)
in whole-column passes: both binary columns are taken in (term,
min_doc) order and decoded from their value buffers
(codec.binary_values), the values re-encoded, and the output columns
written from buffers (codec.binary_runs; the term column is a take of
the group's term dictionary). There is no Python object per run or
per term. The largest group is the ``mpart`` holding the hottest
terms (SURVEY §7.4).

Neither correctness nor the output bytes depend on run arrival order:
terms are ordered by value and each term's runs by ``min_doc``. An
O(n) check finds values out of (term, doc_id) order, which happens
where one term's runs from different batches overlap in doc range,
and one stable sort then orders them; segmented_delta_encode raises if
any (term, doc) pair appears twice.
"""

from __future__ import annotations

import os
from collections.abc import Iterable, Iterator
from contextlib import ExitStack
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
from quickray.schema import BATCH_RUN_SCHEMA, SEGMENT_SCHEMA


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
    """One merge group's runs -> its final segment rows (doc ids and
    tfs only)."""
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


def write_runs(runs_dir: str, runs: pa.Table, num_shards: int) -> None:
    """One tokenizer batch's runs -> ``runs_dir/{min doc id}.arrow``, an
    Arrow IPC file of ``num_shards`` record batches, batch ``g`` holding
    the runs of merge group ``g`` (empty where the batch has none): zero-
    copy slices of the runs sorted by ``mpart``. The name is the batch's
    smallest doc id, so a retried task rewrites the same file with the
    same bytes; it lands whole (temp file, then rename)."""
    runs = runs.take(pc.sort_indices(runs["mpart"])).combine_chunks()
    (batch,) = runs.to_batches()
    ends = np.cumsum(np.bincount(np.asarray(runs["mpart"]), minlength=num_shards))
    name = f"{pc.min(runs['min_doc']).as_py():012d}.arrow"
    tmp = os.path.join(runs_dir, f".{name}.tmp")
    with pa.OSFile(tmp, "wb") as sink, pa.ipc.new_file(sink, BATCH_RUN_SCHEMA) as w:
        start = 0
        for end in ends:
            w.write_batch(batch.slice(start, end - start))
            start = end
    os.replace(tmp, os.path.join(runs_dir, name))


def group_runs(
    runs_dir: str, groups: Iterable[int]
) -> Iterator[tuple[int, pa.Table]]:
    """(g, the runs of merge group g) for each g of ``groups``: record
    batch g of every runs file in ``runs_dir`` (write_runs; temp files
    skipped), memory-mapped once per call and concatenated without a
    copy. The maps close when the iterator ends; tables already yielded
    keep their mapped pages alive."""
    names = sorted(f for f in os.listdir(runs_dir) if not f.startswith("."))
    with ExitStack() as stack:
        readers = [
            pa.ipc.open_file(stack.enter_context(
                pa.memory_map(os.path.join(runs_dir, f))
            ))
            for f in names
        ]
        for g in groups:
            yield g, pa.Table.from_batches(
                [r.get_batch(g) for r in readers], BATCH_RUN_SCHEMA
            )
