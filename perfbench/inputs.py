"""Seeded workload inputs for the quickray benchmark.

Every input is a pure function of ``--seed`` and the run's ``Scale``:
the code corpora (``quickray.corpus.generate_corpus``), the query
streams and the contents of the upsert batches. The program under test
receives only these generated inputs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import pyarrow as pa

from quickray.corpus import generate_corpus
from quickray.query import And, Or, Query, Term
from quickray.schema import BIT_TEST_PATH, LANGS

# The traffic mix. HOT_POOL (~300 highest-df terms) and the five shapes
# follow the workload definition; the values marked ASSUMPTION are this
# benchmark's own choices, taken from no measured query log and from no
# reference indexer. Each decides what query_hot and upsert_mix measure,
# so replace it when a source for real traffic turns up.
#
# the query shapes every query workload cycles through, in this order;
# ASSUMPTION: each shape is an equal share (1/5) of the traffic
SHAPES = ("term", "or", "and", "compound", "flagged")
K_CHOICES = (1, 10, 20, 50, 100)  # ASSUMPTION: k uniform over these
HOT_POOL = 300  # "hot" terms: the highest-df terms of the corpus
ZIPF_S = 1.1  # ASSUMPTION: Zipf exponent of term popularity in the pool


@dataclass(frozen=True)
class Scale:
    """Input sizes of one benchmark run."""

    warm_docs: int  # the set-up's warm-up build
    serve_docs: int  # query_* and upsert_mix: main-index documents
    setup_reps: int  # set-ups per run; setup_s takes their median
    batch_docs: int  # upsert_mix: documents touched per batch (ASSUMPTION)
    round_batches: int  # upsert_mix: batches in one replayed sequence
    batch_queries: int  # upsert_mix: fixed query batch per delta
    window_queries: int  # queries per timing window and at least per run
    check_queries: int  # answers checked against the oracle per run


SCALES = {
    "full": Scale(
        warm_docs=500, serve_docs=6000, setup_reps=5,
        batch_docs=240, round_batches=4, batch_queries=250, window_queries=1000, check_queries=40,
    ),
    # the self-tests: every code path, seconds instead of minutes
    "tiny": Scale(
        warm_docs=100, serve_docs=400, setup_reps=2,
        batch_docs=24, round_batches=2, batch_queries=30, window_queries=60, check_queries=8,
    ),
}


# ------------------------------------------------------------ queries
def _stratified(rng: np.random.Generator, n: int, cdf: np.ndarray) -> np.ndarray:
    """``n`` draws of an index with cumulative distribution ``cdf``, one
    from each of n equal-probability strata, in random order: every seed
    gets nearly the same mix, so run-to-run spread measures the program
    rather than the luck of the draw."""
    u = (rng.permutation(n) + rng.random(n)) / n
    return np.minimum(np.searchsorted(cdf, u, side="right"), len(cdf) - 1)


def _flag_kwargs(rng: np.random.Generator, kind: int) -> dict:
    """A doc-static flag filter: language bits and the test-path bit
    (never the long-doc bit, whose avgdl threshold is build-specific)."""
    a, b = rng.choice(len(LANGS), size=2, replace=False)
    if kind == 0:
        return {"on_flag": 1 << int(a)}
    if kind == 1:
        return {"off_flag": 1 << BIT_TEST_PATH}
    return {"or_flags": ((1 << int(a)) | (1 << int(b)),)}


def query_stream(df: dict[str, int], seed: int, n: int) -> list[Query]:
    """``n`` queries cycling through SHAPES with mixed k, terms drawn
    Zipf(s=ZIPF_S) over the HOT_POOL highest-df terms (the working set
    fits the posting LRU)."""
    pool = sorted(df, key=lambda t: (-df[t], t))[:HOT_POOL]
    rng = np.random.default_rng([seed, 0])
    w = np.arange(1, len(pool) + 1, dtype=np.float64) ** -ZIPF_S
    draws = _stratified(rng, 4 * n, np.cumsum(w) / w.sum())
    ks = rng.permutation(np.resize(K_CHOICES, n))
    flag_kinds = rng.permutation(np.resize((0, 1, 2), n))
    out = []
    for i in range(n):
        a, b, c, d = (Term(pool[int(x)]) for x in draws[4 * i : 4 * i + 4])
        shape = SHAPES[i % len(SHAPES)]
        kw: dict = {}
        if shape == "term":
            tree = a
        elif shape == "or":
            tree = Or((a, b, c))
        elif shape == "and":
            tree = And((a, b))
        elif shape == "compound":
            tree = Or((And((a, b)), And((c, d))))
        else:
            tree = Or((a, b))
            kw = _flag_kwargs(rng, int(flag_kinds[i]))
        out.append(Query(tree=tree, k=int(ks[i]), id=f"{shape}:{i}", **kw))
    return out


# ------------------------------------------------------------- upserts
@dataclass
class Batch:
    docs: pa.Table  # new keys and updated keys, indexed by a delta build
    deleted: list[str]  # 'repo\x01path' keys removed by this batch


def key_of(repo: str, path: str) -> str:
    return f"{repo}\x01{path}"


class UpsertStream:
    """Deterministic sequence of upsert batches over a main corpus.

    Each batch adds fresh keys, rewrites the content of live keys and
    deletes live keys. A deleted key never comes back, so deletions can
    be passed to ``DeltaEngine`` as one growing set. ``live_table()``
    is the corpus a from-scratch rebuild would index after the batches
    handed out so far."""

    def __init__(self, main: pa.Table, seed: int, batch_docs: int):
        self.seed = seed
        self.batch_docs = batch_docs
        self.n_main = main.num_rows
        cols = ("repo", "path", "commit", "lang", "content")
        rows = zip(*(main[c].to_pylist() for c in cols))
        # insertion-ordered key -> row; sorted() gives sampling order
        self.live: dict[str, tuple] = {key_of(r[0], r[1]): r for r in rows}
        self.n_batches = 0

    def _fresh_docs(self, n: int, start: int) -> pa.Table:
        # doc positions past the main corpus under the main corpus'
        # repo count: unique (repo, path) keys and unique tokens
        return generate_corpus(
            n, seed=self.seed, start=start, total_docs=self.n_main
        )

    def next_batch(self) -> Batch:
        b = self.n_batches
        rng = np.random.default_rng([self.seed, 2, b])
        # ASSUMPTION: 1/2 new keys, 1/3 updates, the rest (1/6) deletions
        n_new = self.batch_docs // 2
        n_upd = self.batch_docs // 3
        n_del = self.batch_docs - n_new - n_upd
        start = self.n_main + b * self.batch_docs
        new = self._fresh_docs(n_new, start)
        keys = sorted(self.live)
        pick = rng.choice(len(keys), size=n_upd + n_del, replace=False)
        upd_keys = [keys[i] for i in pick[:n_upd]]
        del_keys = [keys[i] for i in pick[n_upd:]]
        upd = self._fresh_docs(n_upd, start + n_new)
        repo_path = [k.split("\x01", 1) for k in upd_keys]
        upd = upd.set_column(
            0, "repo", pa.array([r for r, _ in repo_path], pa.string())
        ).set_column(1, "path", pa.array([p for _, p in repo_path], pa.string()))
        docs = pa.concat_tables([new, upd])
        cols = ("repo", "path", "commit", "lang", "content")
        for r in zip(*(docs[c].to_pylist() for c in cols)):
            self.live[key_of(r[0], r[1])] = r
        for k in del_keys:
            del self.live[k]
        self.n_batches += 1
        return Batch(docs, del_keys)

    def live_table(self) -> pa.Table:
        rows = list(self.live.values())
        names = ("repo", "path", "commit", "lang", "content")
        return pa.table(
            {c: pa.array([r[i] for r in rows], pa.string())
             for i, c in enumerate(names)}
        )
