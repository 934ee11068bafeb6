"""Driver contract for the quickray graft (Ray Data target).

``entry()`` runs the flagship pipeline (full index build over the
sf0.001 documents corpus + the reference query set answered by an
actor-pool query engine). ``queries()`` exposes one callable per
implemented operator/pipeline (SURVEY.md §2 + training-data extras);
``oracle_sql()`` gives the DuckDB-equivalent SQL for every
SQL-expressible entry (tables documents/embeddings/... are
pre-registered views).

Ray is initialised by the driver BEFORE this module is imported —
nothing in here calls ray.init()/ray.shutdown().
"""

from __future__ import annotations

from collections.abc import Callable
from typing import Any

# Shared SQL fragments ------------------------------------------------------
# Tokenization identical to quickray.tokenize (lowercase, split on runs
# of non-[a-z0-9_]); doc_len counts docs with zero tokens as 0; global
# stats computed exactly like the engine's docmeta-phase scan.
_TOK = """
tok AS (
  SELECT doc_id, unnest(regexp_split_to_array(lower(text), '[^a-z0-9_]+')) AS term
  FROM documents
),
tokf AS (SELECT doc_id, term FROM tok WHERE term <> '')
"""

_DL = """
dl AS (
  SELECT d.doc_id, count(t.term)::BIGINT AS doc_len
  FROM documents d LEFT JOIN tokf t USING (doc_id)
  GROUP BY d.doc_id
),
g AS (
  SELECT count(*)::BIGINT AS n_docs,
         sum(doc_len)::BIGINT AS total_tokens,
         sum(doc_len)::DOUBLE / count(*) AS avgdl
  FROM dl
)
"""

_DF = """
df AS (
  SELECT term, count(*)::BIGINT AS df
  FROM (SELECT DISTINCT doc_id, term FROM tokf)
  GROUP BY term
)
"""

# bits: bit i = lang == DOC_LANGS[i] (sorted: de,en,es,fr,zh), bit 9 =
# doc_len > avgdl; bit 8 (test path) is always 0 for this corpus.
_BITS = """
bits AS (
  SELECT d.doc_id, d.lang, dl.doc_len,
         (CASE d.lang WHEN 'de' THEN 1 WHEN 'en' THEN 2 WHEN 'es' THEN 4
                      WHEN 'fr' THEN 8 WHEN 'zh' THEN 16 ELSE 0 END
          + CASE WHEN dl.doc_len > g.avgdl THEN 512 ELSE 0 END)::BIGINT AS bits
  FROM documents d JOIN dl USING (doc_id) CROSS JOIN g
)
"""

# Ordered token positions per doc (for shingle / rolling-window SQL):
# unnest + generate_subscripts zip together; empties are dropped and
# positions re-ranked so rn is dense within each doc.
_TOKP = """
tok0 AS (
  SELECT doc_id,
         unnest(regexp_split_to_array(lower(text), '[^a-z0-9_]+')) AS term,
         generate_subscripts(regexp_split_to_array(lower(text), '[^a-z0-9_]+'), 1) AS pos
  FROM documents
),
tokp AS (
  SELECT doc_id, term, row_number() OVER (PARTITION BY doc_id ORDER BY pos) AS rn
  FROM tok0 WHERE term <> ''
),
nt AS (SELECT doc_id, count(*)::BIGINT AS n FROM tokp GROUP BY doc_id)
"""

# rolling-fingerprint constants (textstats.rolling_fingerprints):
# window hash = sum_j th[i+j] * B^j mod (2^31 - 1)
_FP_P = (1 << 31) - 1
_FP_B = 1000003
_FP_COEFF = [1] * 8
for _j in range(1, 8):
    _FP_COEFF[_j] = _FP_COEFF[_j - 1] * _FP_B % _FP_P

# language-ID profiles (textstats.LANG_PROFILES) as SQL VALUES rows
_LANG_PROFILE_VALUES = """
    ('de','der'),('de','die'),('de','das'),('de','und'),('de','ist'),('de','ein'),
    ('en','the'),('en','and'),('en','of'),('en','a'),('en','to'),('en','in'),('en','is'),
    ('es','el'),('es','la'),('es','de'),('es','los'),('es','es'),('es','una'),
    ('fr','le'),('fr','la'),('fr','les'),('fr','des'),('fr','est'),('fr','une'),
    ('zh','de'),('zh','shi'),('zh','le'),('zh','zai'),('zh','he'),('zh','you')
"""

# exact cosine near-dup pairs — oracle for BOTH embedding_near_dup and
# the high-recall lsh_near_dup configuration (pipelines docstring)
_NEAR_DUP_SQL = """
WITH n AS (SELECT vec_id, embedding::DOUBLE[] AS e FROM embeddings)
SELECT a.vec_id AS a, b.vec_id AS b,
       round(list_cosine_similarity(a.e, b.e), 4) AS cosine
FROM n a JOIN n b ON a.vec_id < b.vec_id
WHERE list_cosine_similarity(a.e, b.e) >= 0.4
"""

# exact 3-token-shingle Jaccard pairs >= 0.5 — what the high-recall
# MinHash-LSH configuration (bands = num_perm) provably computes;
# shingle identity = chr(1)-joined tokens, docs shorter than the
# shingle get one whole-doc shingle. Oracle for minhash_near_dup and
# (via recursive closure) the edge set of dup_clusters.
_MINHASH_PAIRS_SQL = f"""
WITH {_TOKP},
sh3 AS (
  SELECT t.doc_id,
         t.term || chr(1) || lead(t.term, 1) OVER w || chr(1) || lead(t.term, 2) OVER w AS sh
  FROM tokp t JOIN nt n USING (doc_id)
  WHERE n.n >= 3
  WINDOW w AS (PARTITION BY t.doc_id ORDER BY t.rn)
  QUALIFY t.rn <= n.n - 2
),
shs AS (
  SELECT t.doc_id, string_agg(t.term, chr(1) ORDER BY t.rn) AS sh
  FROM tokp t JOIN nt n USING (doc_id) WHERE n.n < 3 GROUP BY t.doc_id
),
s AS (SELECT DISTINCT doc_id, sh FROM (SELECT * FROM sh3 UNION ALL SELECT * FROM shs)),
sz AS (SELECT doc_id, count(*)::BIGINT AS n FROM s GROUP BY doc_id),
inter AS (
  SELECT a.doc_id AS a, b.doc_id AS b, count(*)::BIGINT AS c
  FROM s a JOIN s b ON a.sh = b.sh AND a.doc_id < b.doc_id
  GROUP BY 1, 2
)
SELECT i.a, i.b, round(i.c::DOUBLE / (sa.n + sb.n - i.c), 4) AS jaccard
FROM inter i JOIN sz sa ON sa.doc_id = i.a JOIN sz sb ON sb.doc_id = i.b
WHERE i.c::DOUBLE / (sa.n + sb.n - i.c) >= 0.5
"""

# exact cosine top-10 vs the vec_id=0 embedding — oracle for BOTH
# ann_cosine_topk and the rank-exact (nprobe=4/8) ivf_ann_topk config
_ANN_TOPK_SQL = """
WITH q AS (
  SELECT embedding::DOUBLE[] AS qv FROM embeddings WHERE vec_id = 0
)
SELECT vec_id,
       round(list_cosine_similarity(embedding::DOUBLE[], (SELECT qv FROM q)), 4) AS cosine
FROM embeddings
ORDER BY round(list_cosine_similarity(embedding::DOUBLE[], (SELECT qv FROM q)), 4) DESC,
         vec_id
LIMIT 10
"""


# Exact BM25 contribution per (doc, term), matching quickray.scoring
# operation-for-operation (k1=1.2, b=0.75, idf=ln((N-df+.5)/(df+.5)+1)).
def _bm25_scored(terms: tuple[str, ...]) -> str:
    tlist = ", ".join(f"'{t}'" for t in terms)
    return f"""
tf AS (
  SELECT doc_id, term, count(*)::DOUBLE AS tf
  FROM tokf WHERE term IN ({tlist})
  GROUP BY doc_id, term
),
contrib AS (
  SELECT tf.doc_id,
         ln((g.n_docs - df.df + 0.5) / (df.df + 0.5) + 1.0)
           * tf.tf * (1.2 + 1.0)
           / (tf.tf + 1.2 * (1.0 - 0.75 + 0.75 * dl.doc_len / g.avgdl)) AS c
  FROM tf
  JOIN df USING (term)
  JOIN dl USING (doc_id)
  CROSS JOIN g
),
scored AS (SELECT doc_id, sum(c) AS score FROM contrib GROUP BY doc_id)
"""


# Reference-parity CSV ingest oracle (demo/job/build_index.go:23-102):
# DuckDB re-parses the SAME fixture CSV with the reference's quirks —
# ltrim(s, chars) IS Go's cutset TrimLeft; the Go "2006/1/2 15:4"
# layout = 4-digit-year-only %Y/%-m/%-d %-H:%-M in fixed UTC+8;
# ParseInt-with-ignored-error = strict-digits regex + int32 clamp.
def _video_csv_sql(path: str) -> str:
    counters = ", ".join(
        f"CASE WHEN regexp_matches(f{4 + i}, '^[+-]?[0-9]+$') "
        f"THEN least(greatest(CAST(f{4 + i} AS HUGEINT), -2147483648), "
        f"2147483647)::BIGINT ELSE 0 END AS \"{n}\""
        for i, n in enumerate(["view", "like", "coin", "favorite", "share"])
    )
    cols = ", ".join(f"'f{i}': 'VARCHAR'" for i in range(10))
    return f"""
WITH raw AS (
  SELECT * FROM read_csv('{path}', header=false, null_padding=true,
    all_varchar=true, nullstr=chr(0), auto_detect=false,
    columns={{{cols}}})
  WHERE f9 IS NOT NULL
)
SELECT
  ltrim(f0, 'https://www.bilibili.com/video/') AS id,
  f1 AS title,
  f3 AS author,
  CASE WHEN length(f2) > 4
        AND regexp_matches(f2, '^[0-9]{{4}}/[0-9]{{1,2}}/[0-9]{{1,2}} [0-9]{{1,2}}:[0-9]{{1,2}}$')
        AND try_strptime(f2, '%Y/%-m/%-d %-H:%-M') IS NOT NULL
       THEN (epoch(try_strptime(f2, '%Y/%-m/%-d %-H:%-M')) - 8*3600)::BIGINT
       ELSE 0 END AS post_time,
  {counters},
  coalesce(array_to_string(
    list_filter(list_transform(string_split(f9, ','), x -> lower(trim(x))),
                x -> x <> ''), '|'), '') AS keywords_joined
FROM raw
"""


# ---------------------------------------------------------------------------
# Flagship query-set oracle: one SQL arm per reference query.
#
# The reference query set is a pure function of the per-term document
# frequencies (quickray.queryset.make_query_set), so the oracle derives
# the SAME set by computing df with DuckDB (tokenization already proven
# identical by the term_df oracle) over the documents table the driver
# compares at — /root/testdata/sf0.01 unless QUICKRAY_ORACLE_SF is set.
# Each query becomes cand/candf/scored CTEs + one UNION ALL arm ranked
# by (round(score,4) DESC, doc_id), exactly the rounded_rank order the
# engine emits (quickray/engine.py QueryEngineActor).
_ORACLE_SF = "/root/testdata/sf0.01"


def _oracle_sf_dir() -> str:
    import os

    return os.environ.get("QUICKRAY_ORACLE_SF", _ORACLE_SF)


def _oracle_query_set():
    """The reference query set as the oracle sees it (df via DuckDB)."""
    import os

    import duckdb

    from quickray.queryset import make_query_set

    path = os.path.join(_oracle_sf_dir(), "documents.parquet")
    con = duckdb.connect()
    rows = con.execute(
        f"""
WITH tok AS (
  SELECT doc_id, unnest(regexp_split_to_array(lower(text), '[^a-z0-9_]+')) AS term
  FROM read_parquet('{path}')
),
tokf AS (SELECT DISTINCT doc_id, term FROM tok WHERE term <> '')
SELECT term, count(*)::BIGINT AS df FROM tokf GROUP BY term
"""
    ).fetchall()
    con.close()
    df = {t: int(d) for t, d in rows}
    return make_query_set(df, langs=["de", "en", "es", "fr", "zh"])


def _tree_cand_sql(tree) -> str:
    """Boolean tree -> set-algebra SQL over tokf (INTERSECT/UNION have
    set semantics, matching the engine's sorted-unique doc_id arrays).
    A field-scoped term recalls from the metadata column the field
    keyword was derived from (build lowercases the value)."""
    from quickray.query import And, Term

    if isinstance(tree, Term):
        if tree.field:
            return (
                f"SELECT doc_id FROM documents"
                f" WHERE lower({tree.field}) = '{tree.term}'"
            )
        return f"SELECT doc_id FROM tokf WHERE term = '{tree.term}'"
    op = "INTERSECT" if isinstance(tree, And) else "UNION"
    return f"\n{op}\n".join(f"({_tree_cand_sql(c)})" for c in tree.children)


def _sql_term(key: str) -> str:
    """Posting KEY as a SQL expression: field keys ('field\\x01word')
    render as 'field' || chr(1) || 'word' so the \\x01 byte never has to
    survive a SQL string literal round-trip."""
    if "\x01" in key:
        f, w = key.split("\x01", 1)
        return f"'{f}' || chr(1) || '{w}'"
    return f"'{key}'"


def _flag_conds(q) -> list[str]:
    conds = []
    if q.on_flag:
        conds.append(f"(bits.bits & {q.on_flag}) = {q.on_flag}")
    if q.off_flag:
        conds.append(f"(bits.bits & {q.off_flag}) = 0")
    for f in q.or_flags:
        if f:  # the zero entry is skipped (M3 rule)
            conds.append(f"(bits.bits & {f}) <> 0")
    return conds


def _ref_queries_sql(flat_or_only: bool) -> str:
    """Full per-query oracle SQL: shared corpus/scoring CTEs + one
    (cand, candf, scored) CTE triple and one ranked UNION ALL arm per
    query. flat_or_only restricts to the term-sharded pipeline's query
    subset (single terms / flat ORs)."""
    from quickray.query import flat_or_terms

    queries = _oracle_query_set()
    if flat_or_only:
        queries = [q for q in queries if flat_or_terms(q.tree) is not None]
        # the sharded pipeline adds the same fixed field-scoped arm
        from quickray.queryset import sharded_field_queries

        queries = queries + sharded_field_queries()
    return _queries_sql(queries)


def _queries_sql(queries) -> str:
    """Oracle SQL answering ``queries``: shared CTEs + per-query arms."""
    from quickray.query import collect_terms

    all_keys = sorted({t for q in queries for t in collect_terms(q.tree)})
    content_terms = [t for t in all_keys if "\x01" not in t]
    field_keys = [t for t in all_keys if "\x01" in t]
    # content terms: tf counted from the tokens (no arm when the set
    # has none: `IN ()` is not SQL). Field keywords: tf = 1 per holding
    # doc (build.py emits one tf=1 posting per doc per field), df =
    # holder count — UNION ALL arms, so allcontrib scores both key kinds
    # with one BM25 expression, summed per doc in ascending posting-KEY
    # order
    tlist = ", ".join(f"'{t}'" for t in content_terms)
    tf_arms = [
        "SELECT doc_id, term, count(*)::DOUBLE AS tf\n"
        f"  FROM tokf WHERE term IN ({tlist})\n  GROUP BY doc_id, term"
    ] if content_terms else []
    tf_arms += [
        f"SELECT doc_id, {_sql_term(k)} AS term, 1.0::DOUBLE AS tf"
        f" FROM documents"
        f" WHERE lower({k.split(chr(1))[0]}) = '{k.split(chr(1))[1]}'"
        for k in field_keys
    ]
    df_arms = "".join(
        f"\n  UNION ALL SELECT {_sql_term(k)} AS term, count(*)::BIGINT"
        f" AS df FROM documents"
        f" WHERE lower({k.split(chr(1))[0]}) = '{k.split(chr(1))[1]}'"
        for k in field_keys
    )
    ctes = [
        _TOK.strip(), _DL.strip(), _DF.strip(), _BITS.strip(),
        "alltf AS (\n  " + "\n  UNION ALL ".join(tf_arms) + "\n)",
        f"""df2 AS (
  SELECT term, df FROM df{df_arms}
)""",
        """allcontrib AS (
  SELECT alltf.doc_id, alltf.term,
         ln((g.n_docs - df2.df + 0.5) / (df2.df + 0.5) + 1.0)
           * alltf.tf * (1.2 + 1.0)
           / (alltf.tf + 1.2 * (1.0 - 0.75 + 0.75 * dl.doc_len / g.avgdl)) AS c
  FROM alltf
  JOIN df2 USING (term)
  JOIN dl USING (doc_id)
  CROSS JOIN g
)""",
    ]
    arms = []
    for q in queries:
        qid = q.id
        qterms = ", ".join(_sql_term(t) for t in collect_terms(q.tree))
        ctes.append(f"cand_{qid} AS (\n{_tree_cand_sql(q.tree)}\n)")
        conds = _flag_conds(q)
        cand_name = f"cand_{qid}"
        if conds:
            ctes.append(
                f"""candf_{qid} AS (
  SELECT c.doc_id FROM cand_{qid} c JOIN bits USING (doc_id)
  WHERE {' AND '.join(conds)}
)"""
            )
            cand_name = f"candf_{qid}"
        ctes.append(
            # list(… ORDER BY term) + list_sum pins the per-doc float
            # accumulation to ascending-term order — exactly how the
            # engine sums (collect_terms order) — so the score is
            # bit-identical BEFORE rounding; a bare sum(a.c) would
            # leave DuckDB's accumulation order unspecified and lean on
            # round(,4) alone, which has a latent .5-boundary flake
            f"""scored_{qid} AS (
  SELECT a.doc_id, list_sum(list(a.c ORDER BY a.term)) AS score
  FROM allcontrib a
  WHERE a.term IN ({qterms})
    AND a.doc_id IN (SELECT doc_id FROM {cand_name})
  GROUP BY a.doc_id
)"""
        )
        arms.append(
            f"""(SELECT '{qid}' AS query_id,
        row_number() OVER (ORDER BY round(score, 4) DESC, doc_id)::BIGINT AS rank,
        doc_id, round(score, 4) AS score
 FROM scored_{qid}
 ORDER BY round(score, 4) DESC, doc_id
 LIMIT {q.k})"""
        )
    return "WITH " + ",\n".join(ctes) + "\n" + "\nUNION ALL\n".join(arms)


def entry() -> Any:
    """Flagship on sf0.001: build the inverted index (two Ray jobs: the
    content map and the merge) and answer the ~36-query reference set
    via the actor-pool query engine."""
    from quickray.pipelines import reference_query_results

    return reference_query_results("/root/testdata/sf0.001")


def queries() -> dict[str, Callable[[str], Any]]:
    from quickray import pipelines as P

    return {
        # inverted-index build surface
        "term_df": P.term_df,
        "doc_stats": P.doc_stats,
        "doc_lengths": P.doc_lengths,
        "docmeta_bits": P.docmeta_bits,
        "sha256_docs": P.sha256_docs,
        # boolean retrieval (J2/J3/M3/M5)
        "boolean_and": P.boolean_and,
        "boolean_or": P.boolean_or,
        "boolean_compound": P.boolean_compound,
        # field-scoped term recall (author-recaller parity,
        # keyword_author.go:16-54; posting key field + \x01 + word)
        "boolean_field": P.boolean_field,
        "bit_filter": P.bit_filter,
        "range_filter": P.range_filter,
        # BM25 scoring + lookup join
        "bm25_scores_single": P.bm25_scores_single,
        "bm25_topk": P.bm25_topk,
        "forward_lookup": P.forward_lookup,
        # delta/tombstone serving (§2.7): main ∪ delta − deletes with
        # query-time-corrected global stats, no rebuild of main
        "delta_bm25": P.delta_bm25,
        # aggregates
        "count_by_lang": P.count_by_lang,
        "top_terms": P.top_terms,
        # training-data extras
        "dedup_exact": P.dedup_exact_pipeline,
        "token_stats": P.token_stats_pipeline,
        "token_counts": P.token_counts_pipeline,
        "text_quality": P.quality_pipeline,
        "ngram_jaccard": P.ngram_jaccard_pipeline,
        "ann_cosine_topk": P.ann_topk_pipeline,
        "ann_multi_topk": P.ann_multi_topk_pipeline,
        "embedding_near_dup": P.embedding_near_dup_pipeline,
        # event-stream batch operators
        "events_window": P.events_window_pipeline,
        "events_sessions": P.events_sessions_pipeline,
        "top_users": P.top_users_by_value,
        # LSH / sketch pipelines, oracle-checked in their high-recall /
        # rank-exact fixture configurations (see pipelines docstrings)
        "lsh_near_dup": P.lsh_near_dup_pipeline,
        # connected components over the embedding near-dup edge set
        "embedding_clusters": P.embedding_clusters_pipeline,
        "minhash_near_dup": P.minhash_pairs_pipeline,
        # connected components over the near-dup edge set (the "keep
        # one per cluster" dedup step); oracle = recursive closure
        "dup_clusters": P.dup_clusters_pipeline,
        # the deduplicated corpus itself: anti-join the loser list
        "dedup_keep": P.dedup_keep_pipeline,
        # same result via the FORCED over-budget fallback (corpus-side
        # left-anti hash join, nothing pulled to the driver) — the
        # 100-TB path, oracle-identical to the broadcast path
        "dedup_keep_joinpath": P.dedup_keep_joinpath_pipeline,
        "simhash": P.simhash_pipeline,
        "doc_fingerprint": P.fingerprint_pipeline,
        "ivf_ann_topk": P.ivf_topk_pipeline,
        "ivf_engine_topk": P.ivf_engine_topk_pipeline,
        "langid": P.langid_pipeline,
        # CSV-quirks ingest — oracle re-parses the fixture in SQL
        "video_csv_parse": P.video_csv_parse,
        # flagship serving paths — driver-checked against per-query SQL
        # (one UNION ALL arm per reference query, _ref_queries_sql);
        # ALSO rank-identity pytested vs the brute-force oracle
        # (tests/test_build_e2e.py, tests/test_recall_sharded.py)
        "reference_queries": P.reference_query_results,
        "sharded_queries": P.sharded_reference_queries,
        # real multimodal decode (pure-numpy BMP/PPM/WAV/Y4M parsers in
        # an actor-pool stage) — oracle = pre-encode ground truth
        "media_features": P.media_features_pipeline,
        "media_transform": P.media_transform_pipeline,
    }


def oracle_sql() -> dict[str, str]:
    # the CSV oracle re-reads the same fixture file the pipeline
    # parses; created here so the SQL is runnable regardless of
    # queries()/oracle order
    from quickray.sources import ensure_video_csv_fixture

    csv_path = ensure_video_csv_fixture("/tmp/quickray_cache")
    stop = "('the', 'a', 'of', 'and', 'to')"
    out = {
        "video_csv_parse": _video_csv_sql(csv_path),
        # flagship: the reference query set, one SQL arm per query
        "reference_queries": _ref_queries_sql(flat_or_only=False),
        "sharded_queries": _ref_queries_sql(flat_or_only=True),
        # multimodal decode: the pipeline parses real BMP/PPM/WAV/Y4M
        # container bytes; the oracle reads the ground truth computed
        # from the raw sample arrays BEFORE encoding (pipelines.
        # ensure_media_truth) — reproducing (n_values, value_sum)
        # requires a correct parse of every payload
        "media_features": f"""
SELECT media_id, kind, n_values, value_sum
FROM read_parquet('{__import__("quickray.pipelines", fromlist=["p"]).ensure_media_truth(_oracle_sf_dir())}')
""",
        "media_transform": f"""
SELECT media_id, kind, out_n, out_sum
FROM read_parquet('{__import__("quickray.pipelines", fromlist=["p"]).ensure_media_transform_truth(_oracle_sf_dir())}')
""",
        "term_df": f"""
WITH {_TOK}
SELECT term, count(DISTINCT doc_id)::BIGINT AS df, count(*)::BIGINT AS cf
FROM tokf GROUP BY term
""",
        "doc_stats": f"""
WITH {_TOK}, {_DL}
SELECT n_docs, total_tokens, avgdl FROM g
""",
        "doc_lengths": f"""
WITH {_TOK}, {_DL}
SELECT doc_id, doc_len FROM dl
""",
        "docmeta_bits": f"""
WITH {_TOK}, {_DL}, {_BITS}
SELECT doc_id, lang, doc_len, bits FROM bits
""",
        "sha256_docs": """
SELECT doc_id, sha256(text) AS sha256 FROM documents
""",
        "boolean_and": """
WITH tok AS (
  SELECT doc_id, unnest(regexp_split_to_array(lower(text), '[^a-z0-9_]+')) AS term
  FROM documents
)
SELECT doc_id FROM tok WHERE term = 'spark'
INTERSECT SELECT doc_id FROM tok WHERE term = 'hash'
INTERSECT SELECT doc_id FROM tok WHERE term = 'window'
""",
        "boolean_or": """
WITH tok AS (
  SELECT doc_id, unnest(regexp_split_to_array(lower(text), '[^a-z0-9_]+')) AS term
  FROM documents
)
SELECT doc_id FROM tok WHERE term = 'vector'
UNION SELECT doc_id FROM tok WHERE term = 'dup'
""",
        "boolean_compound": """
WITH tok AS (
  SELECT doc_id, unnest(regexp_split_to_array(lower(text), '[^a-z0-9_]+')) AS term
  FROM documents
)
(SELECT doc_id FROM tok WHERE term = 'spark'
 INTERSECT SELECT doc_id FROM tok WHERE term = 'hash')
UNION
(SELECT doc_id FROM tok WHERE term = 'merge'
 INTERSECT SELECT doc_id FROM tok WHERE term = 'sort'
 INTERSECT SELECT doc_id FROM tok WHERE term = 'window')
""",
        # field-scoped keyword: the engine answers this from the
        # 'lang\x01en' posting list; the oracle recomputes it from the
        # metadata column the field keyword was derived from
        "boolean_field": """
WITH tok AS (
  SELECT doc_id, unnest(regexp_split_to_array(lower(text), '[^a-z0-9_]+')) AS term
  FROM documents
)
SELECT doc_id FROM tok WHERE term = 'data'
INTERSECT
SELECT doc_id FROM documents WHERE lower(lang) = 'en'
""",
        "bit_filter": f"""
WITH {_TOK}, {_DL}, {_BITS}
SELECT DISTINCT t.doc_id
FROM tokf t JOIN bits b USING (doc_id)
WHERE t.term = 'data' AND (b.bits & 2) = 2 AND (b.bits & 512) = 0
""",
        "range_filter": f"""
WITH {_TOK}, {_DL}
SELECT DISTINCT t.doc_id, dl.doc_len
FROM tokf t JOIN dl USING (doc_id)
WHERE t.term = 'join' AND dl.doc_len BETWEEN 40 AND 70
""",
        "bm25_scores_single": f"""
WITH {_TOK}, {_DL}, {_DF}, {_bm25_scored(('window',))}
SELECT doc_id, round(score, 4) AS score FROM scored
""",
        "bm25_topk": f"""
WITH {_TOK}, {_DL}, {_DF}, {_bm25_scored(('spark', 'window', 'hash'))}
SELECT doc_id, round(score, 4) AS score FROM scored
ORDER BY round(score, 4) DESC, doc_id LIMIT 20
""",
        "forward_lookup": f"""
WITH {_TOK}, {_DL}, {_DF}, {_bm25_scored(('hash', 'spark'))}
SELECT s.doc_id, round(s.score, 4) AS score, d.lang, sha256(d.text) AS sha256
FROM scored s JOIN documents d USING (doc_id)
ORDER BY round(s.score, 4) DESC, s.doc_id LIMIT 10
""",
        "count_by_lang": """
SELECT lang, count(*)::BIGINT AS n FROM documents GROUP BY lang
""",
        # BM25 over the LIVE corpus: last 10% of doc_ids live in a
        # delta index, main docs with doc_id % 7 == 3 are tombstoned;
        # the oracle recomputes every statistic over the live subset
        "delta_bm25": """
WITH cutv AS (
  SELECT (count(*) - count(*) // 10)::BIGINT AS cut FROM documents
),
live AS (
  SELECT * FROM documents
  WHERE NOT (doc_id % 7 = 3 AND doc_id < (SELECT cut FROM cutv))
),
tok AS (
  SELECT doc_id, unnest(regexp_split_to_array(lower(text), '[^a-z0-9_]+')) AS term
  FROM live
),
tokf AS (SELECT doc_id, term FROM tok WHERE term <> ''),
dl AS (
  SELECT d.doc_id, count(t.term)::BIGINT AS doc_len
  FROM live d LEFT JOIN tokf t USING (doc_id)
  GROUP BY d.doc_id
),
g AS (
  SELECT count(*)::BIGINT AS n_docs,
         sum(doc_len)::BIGINT AS total_tokens,
         sum(doc_len)::DOUBLE / count(*) AS avgdl
  FROM dl
),
df AS (
  SELECT term, count(*)::BIGINT AS df
  FROM (SELECT DISTINCT doc_id, term FROM tokf)
  GROUP BY term
),
tf AS (
  SELECT doc_id, term, count(*)::DOUBLE AS tf
  FROM tokf WHERE term IN ('spark', 'window', 'hash')
  GROUP BY doc_id, term
),
contrib AS (
  SELECT tf.doc_id,
         ln((g.n_docs - df.df + 0.5) / (df.df + 0.5) + 1.0)
           * tf.tf * (1.2 + 1.0)
           / (tf.tf + 1.2 * (1.0 - 0.75 + 0.75 * dl.doc_len / g.avgdl)) AS c
  FROM tf
  JOIN df USING (term)
  JOIN dl USING (doc_id)
  CROSS JOIN g
),
scored AS (SELECT doc_id, sum(c) AS score FROM contrib GROUP BY doc_id)
SELECT doc_id, round(score, 4) AS score FROM scored
ORDER BY round(score, 4) DESC, doc_id LIMIT 20
""",
        "top_terms": f"""
WITH {_TOK}
SELECT term, count(*)::BIGINT AS cf FROM tokf GROUP BY term
ORDER BY cf DESC, term LIMIT 10
""",
        "dedup_exact": """
SELECT min(doc_id)::BIGINT AS keep_doc_id, count(*)::BIGINT AS group_size
FROM documents GROUP BY text
""",
        "token_counts": r"""
SELECT doc_id,
       CASE WHEN text IS NULL OR trim(text, e' \t\n\f\r') = '' THEN 0
            ELSE len(list_filter(
                   regexp_split_to_array(trim(text, e' \t\n\f\r'),
                                         '[ \t\n\f\r]+'),
                   x -> x <> '')) END::BIGINT AS n_ws_tokens,
       coalesce(len(regexp_extract_all(lower(text),
                    '[a-z]+|[0-9]+|[^a-z0-9 \t\n\f\r]+')), 0)::BIGINT
         AS n_bpe_tokens
FROM documents
""",
        "token_stats": f"""
WITH {_TOK}
SELECT d.doc_id,
       count(t.term)::BIGINT AS n_tokens,
       count(DISTINCT t.term)::BIGINT AS n_distinct
FROM documents d
LEFT JOIN (SELECT doc_id, term FROM tok WHERE term <> '') t USING (doc_id)
GROUP BY d.doc_id
""",
        "text_quality": f"""
WITH {_TOK}
SELECT d.doc_id,
       count(t.term)::BIGINT AS n_tokens,
       coalesce(sum(CASE WHEN t.term IN {stop} THEN 1 ELSE 0 END), 0)::BIGINT AS n_stopwords,
       coalesce(sum(length(t.term)), 0)::BIGINT AS token_len_sum
FROM documents d
LEFT JOIN (SELECT doc_id, term FROM tok WHERE term <> '') t USING (doc_id)
GROUP BY d.doc_id
""",
        "ngram_jaccard": f"""
WITH {_TOK},
s AS (SELECT DISTINCT doc_id, term FROM tokf WHERE doc_id < 60),
sz AS (SELECT doc_id, count(*)::BIGINT AS n FROM s GROUP BY doc_id),
inter AS (
  SELECT a.doc_id AS a, b.doc_id AS b, count(*)::BIGINT AS c
  FROM s a JOIN s b ON a.term = b.term AND a.doc_id < b.doc_id
  GROUP BY a.doc_id, b.doc_id
)
SELECT i.a, i.b,
       round(i.c::DOUBLE / (sa.n + sb.n - i.c), 4) AS jaccard
FROM inter i JOIN sz sa ON sa.doc_id = i.a JOIN sz sb ON sb.doc_id = i.b
WHERE i.c::DOUBLE / (sa.n + sb.n - i.c) >= 0.2
""",
        "ann_cosine_topk": _ANN_TOPK_SQL,
        "ivf_ann_topk": _ANN_TOPK_SQL,
        "ivf_engine_topk": _ANN_TOPK_SQL,
        # batched ANN: one UNION ALL arm per query vector (vec_ids
        # 0/5/9 -> query_id 0/1/2), each the exact cosine top-10
        "ann_multi_topk": "\nUNION ALL\n".join(
            f"""
(WITH q AS (SELECT embedding::DOUBLE[] AS qv FROM embeddings WHERE vec_id = {v})
 SELECT {qi}::BIGINT AS query_id, vec_id,
        round(list_cosine_similarity(embedding::DOUBLE[], (SELECT qv FROM q)), 4) AS cosine
 FROM embeddings
 ORDER BY round(list_cosine_similarity(embedding::DOUBLE[], (SELECT qv FROM q)), 4) DESC,
          vec_id
 LIMIT 10)"""
            for qi, v in enumerate((0, 5, 9))
        ),
        "embedding_near_dup": _NEAR_DUP_SQL,
        "lsh_near_dup": _NEAR_DUP_SQL,
        # recursive reachability closure over the exact cosine pairs —
        # mirrors extras/dedup.connected_components' min-label fixpoint
        "embedding_clusters": f"""
WITH RECURSIVE pairs AS (
  SELECT a, b FROM ({_NEAR_DUP_SQL})
),
edges AS (
  SELECT a AS src, b AS dst FROM pairs
  UNION ALL
  SELECT b, a FROM pairs
),
reach(node, lab) AS (
  SELECT src, src FROM edges
  UNION
  SELECT e.src, r.lab FROM edges e JOIN reach r ON e.dst = r.node
)
SELECT node::BIGINT AS vec_id, min(lab)::BIGINT AS cluster_id
FROM reach GROUP BY node
""",
        # 64-bit SimHash over the token multiset; token hash =
        # md5_number_upper(term) >> 3 — DuckDB's md5_number_upper equals
        # python int.from_bytes(md5(t)[:8], 'little') (extras/dedup.py)
        "simhash": """
WITH tok AS (
  SELECT doc_id, unnest(regexp_split_to_array(lower(text), '[^a-z0-9_]+')) AS term
  FROM documents
),
tokf AS (SELECT doc_id, term FROM tok WHERE term <> ''),
th AS (SELECT doc_id, (md5_number_upper(term) >> 3)::BIGINT AS h FROM tokf),
bits AS (SELECT b FROM range(61) t(b)),
v AS (
  SELECT doc_id, b,
         sum(CASE WHEN (h >> b) & 1 = 1 THEN 1 ELSE -1 END) AS v
  FROM th CROSS JOIN bits GROUP BY doc_id, b
),
sig AS (
  SELECT doc_id,
         sum(CASE WHEN v > 0 THEN (1::BIGINT << b) ELSE 0 END)::BIGINT AS simhash
  FROM v GROUP BY doc_id
)
SELECT d.doc_id, coalesce(s.simhash, 0)::BIGINT AS simhash
FROM documents d LEFT JOIN sig s USING (doc_id)
""",
        # min over per-position rolling window hashes, mirrored
        # arithmetic (textstats.rolling_fingerprints): Mersenne31
        # modulus so products stay HUGEINT/int64-safe on both sides
        "doc_fingerprint": f"""
WITH {_TOKP},
tt AS (
  SELECT t.doc_id, t.rn, n.n,
         (md5_number_upper(t.term) % {_FP_P})::BIGINT AS th
  FROM tokp t JOIN nt n USING (doc_id)
),
win AS (
  SELECT doc_id,
    ((th::HUGEINT * {_FP_COEFF[0]})
     + (coalesce(lead(th, 1) OVER w, 0)::HUGEINT * {_FP_COEFF[1]})
     + (coalesce(lead(th, 2) OVER w, 0)::HUGEINT * {_FP_COEFF[2]})
     + (coalesce(lead(th, 3) OVER w, 0)::HUGEINT * {_FP_COEFF[3]})
     + (coalesce(lead(th, 4) OVER w, 0)::HUGEINT * {_FP_COEFF[4]})
     + (coalesce(lead(th, 5) OVER w, 0)::HUGEINT * {_FP_COEFF[5]})
     + (coalesce(lead(th, 6) OVER w, 0)::HUGEINT * {_FP_COEFF[6]})
     + (coalesce(lead(th, 7) OVER w, 0)::HUGEINT * {_FP_COEFF[7]})) % {_FP_P} AS wh
  FROM tt
  WINDOW w AS (PARTITION BY doc_id ORDER BY rn)
  QUALIFY rn <= CASE WHEN n >= 8 THEN n - 7 ELSE 1 END
),
fp AS (SELECT doc_id, min(wh)::BIGINT AS fingerprint FROM win GROUP BY doc_id)
SELECT d.doc_id, coalesce(f.fingerprint, 0)::BIGINT AS fingerprint
FROM documents d LEFT JOIN fp f USING (doc_id)
""",
        # argmax distinct-token overlap with each profile; ties ->
        # alphabetically first language, no overlap -> 'und'
        "langid": f"""
WITH tok AS (
  SELECT doc_id, unnest(regexp_split_to_array(lower(text), '[^a-z0-9_]+')) AS term
  FROM documents
),
tokf AS (SELECT doc_id, term FROM tok WHERE term <> ''),
dt AS (SELECT DISTINCT doc_id, term FROM tokf),
prof AS (SELECT * FROM (VALUES {_LANG_PROFILE_VALUES}) AS t(lang, term)),
ov AS (
  SELECT dt.doc_id, p.lang, count(*)::BIGINT AS n
  FROM dt JOIN prof p USING (term) GROUP BY dt.doc_id, p.lang
),
best AS (
  SELECT doc_id, lang FROM ov
  QUALIFY row_number() OVER (PARTITION BY doc_id ORDER BY n DESC, lang) = 1
)
SELECT d.doc_id, coalesce(b.lang, 'und') AS pred_lang
FROM documents d LEFT JOIN best b USING (doc_id)
""",
        "minhash_near_dup": _MINHASH_PAIRS_SQL,
        # connected components over the exact-Jaccard pair set: DuckDB
        # recursive reachability closure (components are near-dup
        # clusters — tiny — so the closure stays bounded), min
        # reachable doc_id = cluster_id. Mirrors
        # extras/dedup.connected_components' min-label fixpoint.
        "dup_clusters": f"""
WITH RECURSIVE pairs AS (
  SELECT a, b FROM ({_MINHASH_PAIRS_SQL})
),
edges AS (
  SELECT a AS src, b AS dst FROM pairs
  UNION ALL
  SELECT b, a FROM pairs
),
reach(node, lab) AS (
  SELECT src, src FROM edges
  UNION
  SELECT e.src, r.lab FROM edges e JOIN reach r ON e.dst = r.node
)
SELECT node::BIGINT AS doc_id, min(lab)::BIGINT AS cluster_id
FROM reach GROUP BY node
""",
        # the deduplicated corpus: every doc except non-canonical
        # near-dup cluster members (losers = nodes whose min reachable
        # doc_id is smaller than themselves)
        "dedup_keep": f"""
WITH RECURSIVE pairs AS (
  SELECT a, b FROM ({_MINHASH_PAIRS_SQL})
),
edges AS (
  SELECT a AS src, b AS dst FROM pairs
  UNION ALL
  SELECT b, a FROM pairs
),
reach(node, lab) AS (
  SELECT src, src FROM edges
  UNION
  SELECT e.src, r.lab FROM edges e JOIN reach r ON e.dst = r.node
),
losers AS (
  SELECT node FROM reach GROUP BY node HAVING min(lab) <> node
)
SELECT d.doc_id, d.lang, d.n_chars
FROM documents d
WHERE d.doc_id NOT IN (SELECT node FROM losers)
""",
        "top_users": """
SELECT user_id, count(*)::BIGINT AS n, round(sum(value), 4) AS vsum
FROM events GROUP BY user_id
ORDER BY round(sum(value), 4) DESC, user_id LIMIT 10
""",
        "events_window": """
SELECT (epoch_us(ts) // 1000000) // 3600 AS window, event_type,
       count(*)::BIGINT AS n,
       round(min(value), 4) AS vmin,
       round(max(value), 4) AS vmax
FROM events GROUP BY 1, 2
""",
        "events_sessions": """
WITH g AS (
  SELECT user_id,
         epoch_us(ts) - lag(epoch_us(ts))
           OVER (PARTITION BY user_id ORDER BY ts, event_id) AS gap
  FROM events
)
SELECT user_id, count(*)::BIGINT AS n_events,
       (1 + coalesce(sum(CASE WHEN gap > 1800 * 1000000 THEN 1 ELSE 0 END), 0))::BIGINT
         AS n_sessions
FROM g GROUP BY user_id
""",
    }
    # the forced-fallback pipeline must produce the exact same corpus
    # as the broadcast path — same oracle
    out["dedup_keep_joinpath"] = out["dedup_keep"]
    return out
