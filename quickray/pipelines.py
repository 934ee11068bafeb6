"""Named pipelines over the driver testdata tables — the concrete
entries surfaced by __ray_entry__.queries().

Each function takes sf_dir and returns a Dataset / pyarrow Table whose
column names match the corresponding oracle SQL in __ray_entry__
(driver compares row-count + schema + order-insensitive value hash).

The documents table is adapted to the corpus schema (corpus.
documents_as_corpus) and indexed once per sf_dir into a /tmp cache;
BM25/boolean pipelines then run against that index — so the driver's
correctness gate exercises the real build pipeline end-to-end.
"""

from __future__ import annotations

import hashlib
import os
from functools import lru_cache

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq

import ray.data as rd
from ray.data.aggregate import Count, Sum

from quickray.corpus import documents_as_corpus
from quickray.engine import Index, LocalEngine
from quickray.query import And, Or, Query, Term
from quickray.tokenize import flatten_tokens
from quickray.util import round_sql, sum_by_key, topk_rounded

DOC_LANGS = ["de", "en", "es", "fr", "zh"]  # sorted; bit i = DOC_LANGS[i]
CACHE_ROOT = "/tmp/quickray_cache"


def _docs_ds(sf_dir: str, columns: list[str] | None = None) -> "rd.Dataset":
    """documents table, split into enough blocks to use the cluster —
    a single small parquet file otherwise becomes ONE block and every
    downstream map_batches runs on one core. All consumers are per-doc
    or shuffle-aggregated, so block layout never changes results.

    ``columns`` prunes the read to what the consumer touches — at corpus
    scale (multimodal payload columns alongside text) an unpruned read
    is the difference between scanning metadata and scanning everything;
    every pipeline below passes its exact column set."""
    import ray

    n_blocks = max(16, int(ray.cluster_resources().get("CPU", 8)))
    return rd.read_parquet(
        os.path.join(sf_dir, "documents.parquet"),
        columns=columns,
        override_num_blocks=n_blocks,
    )


def _emb_ds(sf_dir: str, columns: list[str] | None = None) -> "rd.Dataset":
    if columns is None:
        columns = ["vec_id", "embedding"]  # no consumer reads `label`
    return rd.read_parquet(
        os.path.join(sf_dir, "embeddings.parquet"), columns=columns
    )


def _events_ds(sf_dir: str, columns: list[str] | None = None) -> "rd.Dataset":
    return rd.read_parquet(
        os.path.join(sf_dir, "events.parquet"), columns=columns
    )


def _file_tag(src: str) -> str:
    """Cache tag for an index derived from a source file: abspath +
    mtime. THE single tag scheme — docs_engine / delta_engine /
    _ivf_fixture all key their on-disk index caches with it, and the
    in-process lru caches include it in their key so a regenerated
    parquet yields a FRESH engine in the same process (an sf_dir-only
    key served the old memoized engine over stale data)."""
    return hashlib.md5(
        f"{os.path.abspath(src)}:{os.path.getmtime(src)}".encode()
    ).hexdigest()[:12]


def docs_engine(sf_dir: str) -> LocalEngine:
    """Build (once, cached+resumable) the full index over the adapted
    documents corpus; returns a query engine on it."""
    return _docs_engine_cached(
        sf_dir, _file_tag(os.path.join(sf_dir, "documents.parquet"))
    )


@lru_cache(maxsize=8)
def _docs_engine_cached(sf_dir: str, tag: str) -> LocalEngine:
    from quickray.build import build_index

    out = os.path.join(CACHE_ROOT, f"docsidx_{tag}")
    corpus = documents_as_corpus(sf_dir)
    # lang is additionally indexed as a field-scoped keyword
    # (Term(word, field="lang") — the reference's author-field parity,
    # keyword_author.go:16-54); content-term postings are unaffected
    # 16 merge groups, so sharded_reference_queries scatters over
    # several groups per engine stage however small the corpus
    build_index(
        corpus, out, id_col="doc_id", langs=DOC_LANGS,
        field_cols=["lang"], num_shards=16,
    )
    return LocalEngine(Index(out))


# ------------------------------------------------------------ inverted index
def term_df(sf_dir: str) -> "rd.Dataset":
    """(term, df, cf) — the distributed inversion's aggregate view
    (a streaming Dataset: sum_by_key output, NOT a materialized
    table — top_terms chains map_batches on it)."""

    def partial(batch: pa.Table) -> pa.Table:
        flat, parents = flatten_tokens(batch["text"])
        doc = pc.take(batch["doc_id"], parents)
        if isinstance(doc, pa.ChunkedArray):
            doc = doc.combine_chunks()
        tok = pa.table({"term": flat, "doc_id": doc})
        per_doc = tok.group_by(["term", "doc_id"]).aggregate([([], "count_all")])
        out = per_doc.group_by("term").aggregate(
            [([], "count_all"), ("count_all", "sum")]
        )
        return pa.table(
            {
                "term": out["term"],
                "pdf": out["count_all"],
                "pcf": out["count_all_sum"],
            }
        )

    # sum-by-term over VOCABULARY-scale groups: sort + blockwise
    # reduction, not the native aggregate's per-group Python loop
    return sum_by_key(
        _docs_ds(sf_dir, ["doc_id", "text"]).map_batches(
            partial, batch_format="pyarrow"
        ),
        "term", sums=[("pdf", "df"), ("pcf", "cf")],
    )


def doc_stats(sf_dir: str) -> pa.Table:
    eng = docs_engine(sf_dir)
    return pa.table(
        {
            "n_docs": pa.array([eng.index.n_docs], pa.int64()),
            "total_tokens": pa.array([eng.index.stats["total_tokens"]], pa.int64()),
            "avgdl": pa.array([eng.index.avgdl], pa.float64()),
        }
    )


def doc_lengths(sf_dir: str) -> pa.Table:
    dm = pq.read_table(
        os.path.join(docs_engine(sf_dir).index.out_dir, "docmeta"),
        columns=["doc_id", "doc_len"],
    )
    return dm


def docmeta_bits(sf_dir: str) -> pa.Table:
    """Each doc's lang, doc_len and flag bits as served (Scorer.bits:
    docmeta's doc-intrinsic bits plus the long-doc bit from avgdl)."""
    eng = docs_engine(sf_dir)
    dm = pq.read_table(
        os.path.join(eng.index.out_dir, "docmeta"),
        columns=["doc_id", "lang", "doc_len"],
    )
    bits = eng.scorer.bits[np.asarray(dm["doc_id"])]
    return dm.append_column("bits", pa.array(bits, pa.int64()))


def sha256_docs(sf_dir: str) -> pa.Table:
    """Per-row content sha256 — the north-rule invariant, exposed."""
    dm = pq.read_table(
        os.path.join(docs_engine(sf_dir).index.out_dir, "docmeta"),
        columns=["doc_id", "sha256"],
    )
    return dm


# --------------------------------------------------------------- boolean ops
def _ids_table(ids: np.ndarray) -> pa.Table:
    return pa.table({"doc_id": pa.array(np.asarray(ids, np.int64))})


def boolean_and(sf_dir: str) -> pa.Table:
    eng = docs_engine(sf_dir)
    q = Query(tree=And((Term("spark"), Term("hash"), Term("window"))))
    return _ids_table(eng.candidates(q))


def boolean_or(sf_dir: str) -> pa.Table:
    eng = docs_engine(sf_dir)
    q = Query(tree=Or((Term("vector"), Term("dup"))))
    return _ids_table(eng.candidates(q))


def boolean_compound(sf_dir: str) -> pa.Table:
    """(spark ∧ hash) ∨ (merge ∧ sort ∧ window) — the reference compound
    query shape (indexer_test.go:119-132)."""
    eng = docs_engine(sf_dir)
    q = Query(
        tree=Or(
            (
                And((Term("spark"), Term("hash"))),
                And((Term("merge"), Term("sort"), Term("window"))),
            )
        )
    )
    return _ids_table(eng.candidates(q))


def boolean_field(sf_dir: str) -> pa.Table:
    """Field-scoped recall (the author-recaller parity,
    /root/reference/demo/job/search/recaller/keyword_author.go:16-54,
    key format /root/reference/gen/document.go:5): docs whose indexed
    `lang` FIELD keyword is 'en' AND whose content contains 'data' —
    the field predicate resolves through the posting table (key
    'lang\\x01en'), not a metadata scan."""
    eng = docs_engine(sf_dir)
    q = Query(tree=And((Term("en", field="lang"), Term("data"))))
    return _ids_table(eng.candidates(q))


def bit_filter(sf_dir: str) -> pa.Table:
    """Posting scan with bits pre-filter: term 'data', lang==en (on),
    long-doc bit off (M3 semantics)."""
    eng = docs_engine(sf_dir)
    en_bit = 1 << DOC_LANGS.index("en")
    q = Query(tree=Term("data"), on_flag=en_bit, off_flag=1 << 9)
    return _ids_table(eng.candidates(q))


def range_filter(sf_dir: str) -> pa.Table:
    """Post-retrieval numeric range filter (M5 analog): docs matching
    'join' with doc_len in [40, 70]."""
    eng = docs_engine(sf_dir)
    # the flag-free candidate set of a single term IS its posting
    # (engine._leaf), so the filter is one vectorized range mask
    p = eng.index.posting("join")
    dls = eng.index.doc_lens(p.doc_ids)
    mask = (dls >= 40) & (dls <= 70)
    return pa.table(
        {
            "doc_id": pa.array(p.doc_ids[mask]),
            "doc_len": pa.array(dls[mask]),
        }
    )


# ------------------------------------------------------------------- scoring
BM25_OR_TERMS = ("spark", "window", "hash")


def bm25_scores_single(sf_dir: str) -> pa.Table:
    """All docs matching 'window', exact BM25, rounded like SQL."""
    eng = docs_engine(sf_dir)
    q = Query(tree=Term("window"), k=10**9)
    ids, scores = eng.search(q)
    return pa.table(
        {"doc_id": pa.array(ids), "score": pa.array(round_sql(scores, 4))}
    )


def bm25_topk(sf_dir: str) -> pa.Table:
    eng = docs_engine(sf_dir)
    q = Query(tree=Or(tuple(Term(t) for t in BM25_OR_TERMS)), k=10**9)
    ids, scores = eng.search(q)
    ids, scores = topk_rounded(ids, scores, 20)
    return pa.table({"doc_id": pa.array(ids), "score": pa.array(scores)})


def forward_lookup(sf_dir: str) -> pa.Table:
    """J1: top-10 candidates hydrated from the WARM forward index —
    Index.hydrate serves lang/sha256 from dense in-memory arrays
    (loaded once per engine), no per-query parquet read or join
    (BatchGet analog; bench.py reports the hydrated p50)."""
    eng = docs_engine(sf_dir)
    q = Query(tree=Or((Term("spark"), Term("hash"))), k=10**9)
    ids, scores = eng.search(q)
    ids, scores = topk_rounded(ids, scores, 10)
    order = np.argsort(ids)
    ids, scores = ids[order], scores[order]
    meta = eng.index.hydrate(ids, ("lang", "sha256"))
    return pa.table(
        {
            "doc_id": pa.array(ids),
            "score": pa.array(scores),  # topk_rounded already rounded
            "lang": pa.array(meta["lang"].tolist(), pa.string()),
            "sha256": pa.array(meta["sha256"].tolist(), pa.string()),
        }
    )


def delta_engine(sf_dir: str):
    """Delta/tombstone serving fixture over the documents corpus:
    main = first 90% of doc_ids (one build), delta = last 10% (its own
    small build), tombstones = main docs with doc_id % 7 == 3. Served
    through quickray.delta.DeltaEngine — no rebuild of main."""
    return _delta_engine_cached(
        sf_dir, _file_tag(os.path.join(sf_dir, "documents.parquet"))
    )


@lru_cache(maxsize=8)
def _delta_engine_cached(sf_dir: str, tag: str):
    from quickray.build import build_index
    from quickray.delta import DeltaEngine

    corpus = documents_as_corpus(sf_dir)
    n = corpus.num_rows
    cut = n - n // 10
    main_tbl = corpus.filter(pc.less(corpus["doc_id"], cut))
    delta_tbl = corpus.filter(
        pc.greater_equal(corpus["doc_id"], cut)
    ).drop_columns(["doc_id"])
    main_out = os.path.join(CACHE_ROOT, f"deltamain_{tag}")
    delta_out = os.path.join(CACHE_ROOT, f"deltaadd_{tag}")
    build_index(main_tbl, main_out, id_col="doc_id", langs=DOC_LANGS)
    build_index(delta_tbl, delta_out, langs=DOC_LANGS)
    deleted = [f"docs\x01{i:010d}.txt" for i in range(cut) if i % 7 == 3]
    return DeltaEngine([main_out], delta_dir=delta_out, deleted_keys=deleted)


def delta_bm25(sf_dir: str) -> pa.Table:
    """BM25 top-20 over the LIVE corpus (main ∪ delta − tombstones)
    served by DeltaEngine with query-time-corrected statistics; the
    oracle recomputes BM25 from scratch over the same live subset."""
    eng = delta_engine(sf_dir)
    q = Query(tree=Or(tuple(Term(t) for t in BM25_OR_TERMS)), k=10**9)
    keys, scores = eng.search(q)
    # adapter keys are 'docs\x01{doc_id:010d}.txt' — recover doc_id
    ids = np.array(
        [int(k.split("\x01")[1].split(".")[0]) for k in keys], dtype=np.int64
    )
    ids, scores = topk_rounded(ids, scores, 20)
    return pa.table({"doc_id": pa.array(ids), "score": pa.array(scores)})


def count_by_lang(sf_dir: str):
    """A1 analog: grouped count, distributed (reads only `lang`)."""
    return _docs_ds(sf_dir, ["lang"]).groupby("lang").aggregate(Count(alias_name="n"))


def top_users_by_value(sf_dir: str) -> pa.Table:
    """Grouped-sum + top-10 users by value: the per-user aggregate
    stays distributed; each output block contributes only its rounded
    top-10 (k-th-value ties kept), so the driver never holds the full
    user dimension."""

    def partial(t: pa.Table) -> pa.Table:
        t = t.set_column(
            t.schema.get_field_index("vsum"), "vsum",
            pa.array(round_sql(np.asarray(t["vsum"], np.float64), 4)),
        )
        v = np.asarray(t["vsum"], np.float64)
        if len(v) > 10:
            kth = np.partition(v, len(v) - 10)[len(v) - 10]
            t = t.filter(pc.greater_equal(t["vsum"], kth))
        return t

    # stays on the native aggregate despite user-scale groups: vsum is
    # a FLOAT sum, and util.sum_by_key's cumsum-difference would change
    # float summation semantics (prefix cancellation) vs per-group adds
    parts = (
        _events_ds(sf_dir, ["user_id", "value"])
        .groupby("user_id")
        .aggregate(Count(alias_name="n"), Sum("value", alias_name="vsum"))
        .map_batches(partial, batch_format="pyarrow")
        .take_all()
    )  # bounded: <= 10 + ties per block
    if not parts:  # from_pylist([]) would be schema-less -> KeyError below
        return pa.table(
            {"user_id": pa.array([], pa.int64()), "n": pa.array([], pa.int64()),
             "vsum": pa.array([], pa.float64())}
        )
    t = pa.Table.from_pylist(parts).to_pandas()
    t = t.sort_values(["vsum", "user_id"], ascending=[False, True]).head(10)
    return pa.Table.from_pandas(
        t[["user_id", "n", "vsum"]], preserve_index=False
    )


def lsh_near_dup_pipeline(sf_dir: str):
    """LSH near-dup in its high-recall configuration (32 planes x 16
    bands of 2 rows: per-pair miss prob <= (1 - p^2)^16 ~ 3e-4 at the
    0.4 threshold), where the bounded fixture result equals the exact
    all-pairs join — which is exactly what the DuckDB oracle checks.
    The library defaults (16 planes x 4 bands) are the recall<1 scale
    configuration; both run the identical code path."""
    from quickray.extras.similarity import lsh_near_dup_pairs

    return lsh_near_dup_pairs(_emb_ds(sf_dir), threshold=0.4, n_planes=32, bands=16)


def embedding_clusters_pipeline(sf_dir: str):
    """Near-dup clustering over the EMBEDDING family: the
    lsh_near_dup_pipeline pair set (high-recall config = exact cosine
    pairs on the fixture) run through the same distributed connected
    components as the text-shingle side — (vec_id, cluster_id = min
    vec of the component). One clustering operator composes over both
    near-dup families."""
    from quickray.extras.dedup import connected_components

    return connected_components(lsh_near_dup_pipeline(sf_dir)).rename_columns(
        {"doc_id": "vec_id"}
    )


# ---------------------------------------------------------- training extras
def dedup_exact_pipeline(sf_dir: str):
    from quickray.extras.dedup import exact_duplicates

    return exact_duplicates(_docs_ds(sf_dir, ["doc_id", "text"]))


def token_stats_pipeline(sf_dir: str):
    from quickray.extras.textstats import token_stats

    return token_stats(_docs_ds(sf_dir, ["doc_id", "text"]))


def quality_pipeline(sf_dir: str) -> pa.Table:
    """Integer-exact quality features (counts, not ratios, so the
    value-hash can't be bitten by rounding-mode differences)."""
    from quickray.extras.textstats import STOPWORDS, quality_counts_batch

    stop_arr = pa.array(sorted(set(STOPWORDS)), pa.string())

    def per_batch(batch: pa.Table) -> pa.Table:
        # shared kernel (textstats.quality_counts_batch) — the integer
        # form of quality_scores, so the tokenizer/membership
        # definition cannot silently fork between them
        n_tok, n_stop, len_sum = quality_counts_batch(batch, stop_arr)
        return pa.table(
            {
                "doc_id": batch["doc_id"],
                "n_tokens": pa.array(n_tok),
                "n_stopwords": pa.array(n_stop),
                "token_len_sum": pa.array(len_sum),
            }
        )

    return _docs_ds(sf_dir, ["doc_id", "text"]).map_batches(per_batch, batch_format="pyarrow")


def top_terms(sf_dir: str) -> pa.Table:
    """Distributed top-10 terms by collection frequency: per-batch
    partial top-k (k-th-value ties kept) over the term_df aggregate,
    so only <= ~10+ties rows per block reach the driver — never the
    full vocabulary."""

    def partial(t: pa.Table) -> pa.Table:
        cf = np.asarray(t["cf"], np.int64)
        if len(cf) > 10:
            kth = int(np.partition(cf, len(cf) - 10)[len(cf) - 10])
            t = t.filter(pc.greater_equal(t["cf"], kth))
        return t.select(["term", "cf"])

    parts = (
        term_df(sf_dir).map_batches(partial, batch_format="pyarrow").take_all()
    )  # bounded: <= 10 + ties per block
    if not parts:  # empty corpus -> typed empty result, not KeyError
        return pa.table(
            {"term": pa.array([], pa.string()), "cf": pa.array([], pa.int64())}
        )
    t = pa.Table.from_pylist(parts).to_pandas()
    t = t.sort_values(["cf", "term"], ascending=[False, True]).head(10)
    return pa.Table.from_pandas(t[["term", "cf"]], preserve_index=False)


def ann_topk_pipeline(sf_dir: str) -> pa.Table:
    """Brute-force cosine top-10 vs the embedding of vec_id=0."""
    from quickray.extras.similarity import brute_force_topk

    emb = pq.read_table(os.path.join(sf_dir, "embeddings.parquet"))
    qvec = emb.filter(pc.equal(emb["vec_id"], 0))["embedding"][0].as_py()
    return brute_force_topk(_emb_ds(sf_dir), qvec, k=10, ndigits=4)


def ann_multi_topk_pipeline(sf_dir: str) -> pa.Table:
    """Batched ANN: top-10 for THREE query vectors (vec_ids 0, 5, 9)
    in one dataset pass via the broadcast query matrix."""
    from quickray.extras.similarity import brute_force_topk_batch

    emb = pq.read_table(os.path.join(sf_dir, "embeddings.parquet"))
    qvecs = [
        emb.filter(pc.equal(emb["vec_id"], i))["embedding"][0].as_py()
        for i in (0, 5, 9)
    ]
    return brute_force_topk_batch(_emb_ds(sf_dir), qvecs, k=10, ndigits=4)


def _ivf_fixture(sf_dir: str) -> tuple[list, str, str]:
    """(query vec, persisted-index dir, fingerprint tag) for the
    embeddings fixture. The cache key is the file identity (abspath +
    mtime) and is SHARED by the cold (ivf_topk) and warm (IVFEngine)
    pipelines — one place to change so they can never silently
    build/serve different indexes."""
    src = os.path.join(sf_dir, "embeddings.parquet")
    emb = pq.read_table(src)
    qvec = emb.filter(pc.equal(emb["vec_id"], 0))["embedding"][0].as_py()
    tag = _file_tag(src)
    return qvec, os.path.join(CACHE_ROOT, f"ivf_{tag}"), tag


def ivf_topk_pipeline(sf_dir: str) -> pa.Table:
    """IVF top-k served from the PERSISTED index (built once per
    embeddings file into a /tmp cache, queries read only the probed
    cell partitions) at nprobe=4 of nlist=8 — measured rank-exact vs
    the brute-force result on the fixture (so the DuckDB cosine-top-k
    oracle applies); bench.py reports the recall/nprobe curve and the
    probed-bytes fraction for the approximate regimes (nprobe<4)."""
    from quickray.extras.similarity import ivf_topk

    qvec, index_dir, tag = _ivf_fixture(sf_dir)
    return ivf_topk(
        _emb_ds(sf_dir), qvec, k=10, nlist=8, nprobe=4, sample_rows=1024,
        index_dir=index_dir, fingerprint=tag,
    )


def ivf_engine_topk_pipeline(sf_dir: str) -> pa.Table:
    """WARM IVF serving: same persisted index as ivf_topk_pipeline, but
    answered by IVFEngine (centroids + LRU-cached cell matrices, no Ray
    read on the query path) at the rank-exact nprobe=4 config — result
    identical to ivf_query and to the brute-force cosine top-k, so the
    same DuckDB oracle applies."""
    from quickray.extras.similarity import IVFEngine, ivf_build

    qvec, index_dir, tag = _ivf_fixture(sf_dir)
    ivf_build(
        _emb_ds(sf_dir), index_dir, nlist=8, sample_rows=1024, fingerprint=tag
    )
    return IVFEngine(index_dir, k=10, nprobe=4).query(qvec)


def minhash_pairs_pipeline(sf_dir: str):
    """MinHash-LSH near-dup in its high-recall configuration (bands =
    num_perm = 64, i.e. one signature row per band: a pair with true
    Jaccard j >= 0.5 is missed with prob <= (1-j)^64 < 1e-19), where
    the result provably equals the exact shingle-Jaccard join — which
    is what the DuckDB oracle computes. Library defaults (16 bands x 4
    rows) are the scale configuration; identical code path."""
    from quickray.extras.dedup import minhash_near_duplicates

    return minhash_near_duplicates(
        _docs_ds(sf_dir, ["doc_id", "text"]), threshold=0.5, num_perm=64, bands=64
    )


def dup_clusters_pipeline(sf_dir: str):
    """Near-dup CLUSTERING: the minhash_pairs_pipeline edge set run
    through distributed connected components (min-label propagation) —
    (doc_id, cluster_id = min doc of the component) for every doc in a
    near-dup pair. The dedup keep-set is {doc_id == cluster_id}. Uses
    the same high-recall banding as minhash_pairs_pipeline so the
    DuckDB oracle (recursive closure over the exact-Jaccard pairs) is
    exact."""
    from quickray.extras.dedup import near_dup_clusters

    return near_dup_clusters(
        _docs_ds(sf_dir, ["doc_id", "text"]), threshold=0.5, num_perm=64, bands=64
    )


def dedup_keep_pipeline(sf_dir: str):
    """Deduplicated corpus: near-dup clustering (same high-recall
    banding as dup_clusters_pipeline, so the SQL oracle is exact)
    followed by a distributed anti-join that drops every cluster member
    except the min-doc_id representative. Returns the surviving
    (doc_id, lang, n_chars) rows — the "write the cleaned corpus"
    endpoint of a training-data dedup pipeline."""
    from quickray.extras.dedup import dedup_corpus, near_dup_clusters

    clusters = near_dup_clusters(
        _docs_ds(sf_dir, ["doc_id", "text"]), threshold=0.5, num_perm=64, bands=64
    )
    docs = _docs_ds(sf_dir, ["doc_id", "lang", "n_chars"])
    return dedup_corpus(docs, clusters)


def dedup_keep_joinpath_pipeline(sf_dir: str):
    """Same result as dedup_keep_pipeline, but broadcast_bytes=0 FORCES
    the scale fallback: the loser list is never pulled to the driver and
    the corpus takes a LEFT ANTI hash join instead of the broadcast
    anti-filter. Oracle-identical output proves the two paths agree
    under the driver's hash compare (the 100-TB path, exercised at
    oracle scale)."""
    from quickray.extras.dedup import dedup_corpus, near_dup_clusters

    clusters = near_dup_clusters(
        _docs_ds(sf_dir, ["doc_id", "text"]), threshold=0.5, num_perm=64, bands=64
    )
    docs = _docs_ds(sf_dir, ["doc_id", "lang", "n_chars"])
    return dedup_corpus(docs, clusters, broadcast_bytes=0)


def ngram_jaccard_pipeline(sf_dir: str, max_doc_id: int = 60) -> pa.Table:
    """Exact token-set Jaccard (shingle k=1) on doc_id < 60 pairs."""
    from quickray.extras.dedup import ngram_jaccard_pairs

    return ngram_jaccard_pairs(
        _docs_ds(sf_dir, ["doc_id", "text"]), max_doc_id=max_doc_id, shingle_k=1, threshold=0.2
    )


def simhash_pipeline(sf_dir: str):
    from quickray.extras.dedup import simhash_signatures

    return simhash_signatures(_docs_ds(sf_dir, ["doc_id", "text"]))


def langid_pipeline(sf_dir: str):
    from quickray.extras.textstats import LangId

    return _docs_ds(sf_dir, ["doc_id", "text"]).map_batches(
        LangId, batch_format="pyarrow", concurrency=2
    )


def _media_n(sf_dir: str) -> int:
    return max(32, min(256, _count_docs(sf_dir) // 4))


def ensure_media_truth(sf_dir: str) -> str:
    """Write (idempotently) the decode ground truth for the synthetic
    media fixture: (media_id, kind, n_values, value_sum) computed from
    the raw sample arrays BEFORE container encoding. The oracle SQL
    reads this parquet; the pipeline must PARSE the BMP/PPM/WAV/Y4M
    payload bytes to reproduce it."""
    from quickray.extras.multimodal import TRUTH_VERSION, synthetic_media

    n = _media_n(sf_dir)
    path = os.path.join(CACHE_ROOT, f"media_truth_v{TRUTH_VERSION}_{n}.parquet")
    if not os.path.exists(path):
        os.makedirs(CACHE_ROOT, exist_ok=True)
        _, truth = synthetic_media(n)
        pq.write_table(truth, path + ".tmp")
        os.replace(path + ".tmp", path)
    return path


def ensure_media_transform_truth(sf_dir: str) -> str:
    """Write (idempotently) the resize/frame-sample ground truth:
    (media_id, kind, out_n, out_sum) computed from the pre-encode raw
    arrays with the same per-kind transform semantics the Ray stage
    applies after decoding the payload bytes."""
    from quickray.extras.multimodal import (
        TRUTH_VERSION,
        synthetic_transform_truth,
    )

    n = _media_n(sf_dir)
    path = os.path.join(
        CACHE_ROOT, f"media_transform_truth_v{TRUTH_VERSION}_{n}.parquet"
    )
    if not os.path.exists(path):
        os.makedirs(CACHE_ROOT, exist_ok=True)
        pq.write_table(synthetic_transform_truth(n), path + ".tmp")
        os.replace(path + ".tmp", path)
    return path


def media_transform_pipeline(sf_dir: str):
    """Multimodal resize / frame-sample: images nearest-neighbor-resized
    to 8x8, videos sampled every 2nd frame, audio decimated 4x — all
    decoded from the container bytes inside an actor-pool map_batches
    stage. (out_n, out_sum) are integer-exact vs the pre-encode truth."""
    from quickray.extras.multimodal import synthetic_media, transform_media

    ensure_media_transform_truth(sf_dir)
    media, _ = synthetic_media(_media_n(sf_dir))
    return transform_media(rd.from_arrow(media))


def media_features_pipeline(sf_dir: str):
    """Real multimodal decode: deterministic BMP/PPM/WAV/Y4M payloads
    parsed by the pure-numpy container kernels inside an actor-pool
    map_batches stage; (n_values, value_sum) are integer-exact vs the
    pre-encode ground truth (ensure_media_truth). The 16-dim pooled
    feature column is computed in the same pass (dropped here only
    because list columns can't be SQL-hash-compared)."""
    from quickray.extras.multimodal import featurize, synthetic_media

    ensure_media_truth(sf_dir)
    media, _ = synthetic_media(_media_n(sf_dir))
    return featurize(rd.from_arrow(media)).drop_columns(["features"])


def events_window_pipeline(sf_dir: str):
    """Tumbling 1h windows over events: count + exact min/max(value)
    (order-independent aggregates — hash-exact vs any oracle). The
    rounding runs inside the pipeline; the result stays a Dataset
    (one row per (window, event_type) — never collected here)."""
    from quickray.extras.events import window_aggregate

    def round_cols(t: pa.Table) -> pa.Table:
        for c in ("vmin", "vmax"):
            t = t.set_column(
                t.schema.get_field_index(c), c,
                pa.array(round_sql(np.asarray(t[c], np.float64), 4)),
            )
        return t

    return window_aggregate(
        _events_ds(sf_dir, ["ts", "event_type", "value"]), window_sec=3600
    ).map_batches(
        round_cols, batch_format="pyarrow"
    )


def events_sessions_pipeline(sf_dir: str):
    from quickray.extras.events import sessionize

    return sessionize(_events_ds(sf_dir, ["user_id", "ts", "event_id"]), gap_sec=1800)


def embedding_near_dup_pipeline(sf_dir: str) -> pa.Table:
    from quickray.extras.similarity import embedding_near_dup_pairs

    return embedding_near_dup_pairs(_emb_ds(sf_dir), threshold=0.4)


def token_counts_pipeline(sf_dir: str):
    from quickray.extras.textstats import token_counts

    return token_counts(_docs_ds(sf_dir, ["doc_id", "text"]))


def fingerprint_pipeline(sf_dir: str):
    from quickray.extras.textstats import rolling_fingerprints

    return rolling_fingerprints(_docs_ds(sf_dir, ["doc_id", "text"]))


def video_csv_parse(sf_dir: str) -> pa.Table:
    """S1 reference-parity CSV ingest (demo/job/build_index.go:23-102)
    over a deterministic fixture exercising every parse quirk."""
    from quickray.sources import ensure_video_csv_fixture, read_video_csv

    path = ensure_video_csv_fixture("/tmp/quickray_cache")
    t = read_video_csv(path)
    return t.drop_columns(["keywords"]).append_column(
        "keywords_joined",
        pc.binary_join(t["keywords"].combine_chunks(), "|"),
    )


def _count_docs(sf_dir: str) -> int:
    return pq.read_metadata(os.path.join(sf_dir, "documents.parquet")).num_rows


def sharded_reference_queries(sf_dir: str, n_groups: int = 4):
    """Sentinel scatter/gather, Ray-Data-first and term-sharded: the
    flat-OR reference queries are broadcast to n_groups engine stages,
    each loading ONLY its shard subset of the segments (directory/row-
    group pruned) and emitting partial BM25 contributions for the terms
    it owns; gather = groupby(query_id, doc_id).sum + per-query top-k.
    At cluster scale each group is an actor pool on the nodes holding
    those shards (sentinel.go:137-187 analog, A2)."""
    import json as _json

    from ray.data.aggregate import Sum

    from quickray.engine import QueryEngineActor
    from quickray.query import flat_or_terms
    from quickray.queryset import make_query_set

    eng = docs_engine(sf_dir)
    num_shards = int(eng.index.stats.get("num_shards", 64))
    from quickray.queryset import sharded_field_queries

    queries = [
        q for q in make_query_set(eng.index.df_table(), langs=DOC_LANGS)
        if flat_or_terms(q.tree) is not None
    ]
    # field-scoped arm: 'lang\x01en' postings scatter through the same
    # term-hash shard groups as content terms (the docs index is built
    # with field_cols=["lang"])
    queries += sharded_field_queries()
    k_of = {q.id: q.k for q in queries}
    qds = rd.from_items(
        [{"query": _json.dumps(q.to_json())} for q in queries]
    )
    group_size = (num_shards + n_groups - 1) // n_groups
    parts = [
        qds.map_batches(
            QueryEngineActor,
            fn_constructor_kwargs={
                "index_dir": eng.index.out_dir,
                "shards": set(range(lo, min(lo + group_size, num_shards))),
                "mode": "contrib",
                "preload_top_df": 0,
                "preload_bytes": None,  # scatter touches each term once
            },
            batch_format="pyarrow",
            batch_size=64,
            concurrency=1,
        )
        for lo in range(0, num_shards, group_size)
    ]
    merged = (
        parts[0].union(*parts[1:])
        .groupby(["query_id", "doc_id"])
        .aggregate(Sum("partial", alias_name="score"))
    )

    def topk(group: pa.Table) -> pa.Table:
        # gather: the summed contributions cover the FULL candidate set
        # (no pre-gather truncation), so ranking by (round(score,4) DESC,
        # doc_id) here is exactly the DuckDB oracle's order — the driver
        # hash-checks this output against per-query SQL
        from quickray.util import topk_rounded

        qid = group["query_id"][0].as_py()
        ids = np.asarray(group["doc_id"], dtype=np.int64)
        sc = np.asarray(group["score"], dtype=np.float64)
        ids, sc = topk_rounded(ids, sc, k_of.get(qid, 10))
        return pa.table(
            {
                "query_id": pa.array([qid] * len(ids), pa.string()),
                "rank": pa.array(np.arange(1, len(ids) + 1, dtype=np.int64)),
                "doc_id": pa.array(ids),
                "score": pa.array(sc),
            }
        )

    return merged.groupby("query_id").map_groups(topk, batch_format="pyarrow")


def reference_query_results(sf_dir: str, rounded: bool = True):
    """Flagship: the full reference query set answered distributed —
    a Dataset of query JSONs map_batches'd through QueryEngineActor
    (index loaded once per actor).

    rounded=True (the driver-checked default) ranks each query by
    (round(score,4) DESC, doc_id) over the exhaustively-scored candidate
    set so the output hash-matches the per-query DuckDB oracle
    (__ray_entry__._ref_queries_sql); rounded=False is the production
    path (raw-score ranking, block-max pruning active) used by bench.py
    and the rank-identity pytests."""
    import json as _json

    from quickray.engine import QueryEngineActor
    from quickray.queryset import make_query_set

    eng = docs_engine(sf_dir)
    queries = make_query_set(eng.index.df_table(), langs=DOC_LANGS)
    qds = rd.from_items([{"query": _json.dumps(q.to_json())} for q in queries])
    return qds.map_batches(
        QueryEngineActor,
        fn_constructor_kwargs={
            "index_dir": eng.index.out_dir,
            "rounded_rank": rounded,
        },
        batch_format="pyarrow",
        concurrency=2,
        batch_size=8,
    )
