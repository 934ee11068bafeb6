"""Deterministic dense doc_id assignment (SURVEY.md §7.3).

Replaces the reference's per-worker atomic counter (indexer.go:82),
which makes DocIds depend on worker count and arrival order. Here
``doc_id`` is the dense rank of ``(repo, path)`` in lexicographic order.

Primary path (``rank_keys`` + ``tokenize.rank_lookup``): sort only the
KEY columns — pruned at the read, a few % of corpus bytes — into one
rank-ordered key array, broadcast it once via ``ray.put``, and stamp
``doc_id`` inside every content batch with a fixed-width binary search.
Content rows never shuffle for id assignment. The key array must fit one node's memory (~60 bytes/key ⇒ fine to ~10^8
docs *per build partition*; a 10^12-file corpus is built as many
independent key-range partitions, each with a doc_id offset from a
driver-side prefix sum over partition counts).

Deterministic at any parallelism ⇒ identical indexes (and therefore
rank-identical query results) at N and 4N workers.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc


def rank_keys(keys: pa.Table) -> pa.Array:
    """Rank-ordered key array: element i is the `repo\\x01path` key of
    doc_id i. Raises on duplicate (repo, path)."""
    r, p = keys["repo"], keys["path"]
    if isinstance(r, pa.ChunkedArray):
        r = r.combine_chunks()
    if isinstance(p, pa.ChunkedArray):
        p = p.combine_chunks()
    # the \x01 separator must not occur inside either component, or the
    # joined key is ambiguous (false duplicate errors / misassigned
    # ids) and joined-string order can diverge from (repo, path) order
    for name, col in (("repo", r), ("path", p)):
        if pc.any(pc.match_substring(col, "\x01")).as_py():
            raise ValueError(
                f"{name} contains the reserved key separator \\x01; "
                "keys must be separator-free for rank-based doc_ids"
            )
    joined = pc.binary_join_element_wise(r, p, "\x01")
    srt = joined.take(pc.array_sort_indices(joined))
    if len(srt) > 1:
        neighbors_equal = pc.any(
            pc.equal(srt.slice(1), srt.slice(0, len(srt) - 1))
        ).as_py()
        if neighbors_equal:
            raise ValueError("duplicate (repo, path) keys; doc_ids must be unique")
    return srt


def doc_ids_py(repos: list[str], paths: list[str]) -> np.ndarray:
    """Oracle-side equivalent: dense rank of (repo, path) rows."""
    order = sorted(range(len(repos)), key=lambda i: (repos[i], paths[i]))
    out = np.empty(len(repos), dtype=np.int64)
    for rank, i in enumerate(order):
        out[i] = rank
    return out
