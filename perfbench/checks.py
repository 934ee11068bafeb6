"""Correctness gates, run outside the timed regions.

Every check returns the number of mismatches it found; the caller
counts each one, and each exception, as a failed operation.
"""

from __future__ import annotations

import hashlib
import json
import os
import re

import numpy as np
import pyarrow.parquet as pq

from quickray.oracle import Oracle
from quickray.schema import TOKEN_SPLIT_RE

REL_TOL = 1e-9


def _scores_equal(got, want) -> bool:
    got = np.asarray(got, dtype=np.float64)
    want = np.asarray(want, dtype=np.float64)
    return len(got) == len(want) and bool(
        np.all(np.abs(got - want) <= REL_TOL * np.abs(want))
    )


def oracle_keys(table) -> list[str]:
    """'repo\\x01path' of each oracle doc_id (ids are the (repo, path)
    rank)."""
    return sorted(
        f"{r}\x01{p}"
        for r, p in zip(table["repo"].to_pylist(), table["path"].to_pylist())
    )


def check_answers(oracle: Oracle, keys: list[str], answers) -> int:
    """``answers``: (query, doc_ids, scores, hydrated) as served by a
    LocalEngine, hydrated = {"repo", "path", "lang"} arrays or None.
    doc_ids must be rank-identical to the oracle, scores equal within
    REL_TOL relative, and hydrated (repo, path) must be the doc's key."""
    bad = 0
    for q, ids, scores, meta in answers:
        want = oracle.search(q)
        ok = list(ids) == [d for d, _ in want] and _scores_equal(
            scores, [s for _, s in want]
        )
        if ok and meta is not None:
            got_keys = [f"{r}\x01{p}" for r, p in zip(meta["repo"], meta["path"])]
            ok = got_keys == [keys[d] for d in ids]
        bad += not ok
    return bad


def check_keyed_answers(oracle: Oracle, keys: list[str], answers) -> int:
    """Like check_answers for engines that answer with 'repo\\x01path'
    keys (DeltaEngine): keys rank-identical, scores within REL_TOL."""
    bad = 0
    for q, got_keys, scores in answers:
        want = oracle.search(q)
        ok = list(got_keys) == [keys[d] for d, _ in want] and _scores_equal(
            scores, [s for _, s in want]
        )
        bad += not ok
    return bad


def check_build(index_dir: str, table, n_vocab: int, rng: np.random.Generator,
                n_sample: int) -> int:
    """The build invariants: n_docs, vocabulary size, and for a sample
    of rows sha256(content) stored in the forward index."""
    bad = 0
    with open(os.path.join(index_dir, "stats", "stats.json")) as f:
        stats = json.load(f)
    bad += stats["n_docs"] != table.num_rows
    bad += stats["vocab_size"] != n_vocab
    dm = pq.read_table(
        os.path.join(index_dir, "docmeta"), columns=["repo", "path", "sha256"]
    )
    stored = {
        (r, p): s
        for r, p, s in zip(
            dm["repo"].to_pylist(), dm["path"].to_pylist(), dm["sha256"].to_pylist()
        )
    }
    rows = rng.choice(table.num_rows, size=min(n_sample, table.num_rows), replace=False)
    repo, path, content = (table[c] for c in ("repo", "path", "content"))
    for i in rows.tolist():
        want = hashlib.sha256(content[i].as_py().encode()).hexdigest()
        bad += stored.get((repo[i].as_py(), path[i].as_py())) != want
    return bad


def doc_freqs(table) -> dict[str, int]:
    """term -> document frequency, tokenized independently of the
    program (the oracle's regex split)."""
    split = re.compile(TOKEN_SPLIT_RE).split
    df: dict[str, int] = {}
    for text in table["content"].to_pylist():
        for t in set(split(text.lower())):
            if t:
                df[t] = df.get(t, 0) + 1
    return df
