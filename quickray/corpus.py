"""Deterministic synthetic source-code corpus (FIXTURES.md F1) + adapters.

The corpus matches BASELINE.json's input_hint schema exactly:
(repo, path, commit, lang, content). It is a pure function of
(seed, n_docs): fixed-seed numpy generation, fully vectorized, so a
100k-doc bench corpus materializes in seconds and two runs (or two
cluster sizes) see byte-identical input.

Skew is built in on purpose: language keywords (func/import/return/def/…)
appear in nearly every doc (hot terms -> exercises merge skew, SURVEY §7.4),
identifiers follow a Zipf-ish distribution (realistic df spectrum), and
every doc carries two globally-unique tokens (singleton postings).
~0.1% of docs are exact duplicates of their predecessor (dedup tests).
"""

from __future__ import annotations

import hashlib
import os

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq

from quickray.schema import CORPUS_SCHEMA, LANGS

_KEYWORDS = {
    "go": "func package import return var type if else for range err nil struct interface go defer",
    "py": "def class import return self if else for while lambda none true false print yield raise",
    "js": "function const let var return if else for while class import export new this async await",
    "java": "public class static void int return new if else for import private final string throws",
    "rs": "fn let mut impl pub struct enum match use return if else for trait vec some",
    "c": "int char void return if else for while struct static include define sizeof const union",
}
_EXT = {"go": "go", "py": "py", "js": "js", "java": "java", "rs": "rs", "c": "c"}
_LANG_P = np.array([0.22, 0.22, 0.18, 0.14, 0.14, 0.10])

_IDENT_POOL_SIZE = 2000


def _ident_pool() -> np.ndarray:
    stems = [
        "parse", "read", "write", "buf", "ctx", "cfg", "node", "tree", "hash",
        "index", "query", "token", "block", "merge", "score", "batch", "shard",
    ]
    return np.array(
        [f"{stems[i % len(stems)]}_{i:04d}" for i in range(_IDENT_POOL_SIZE)],
        dtype=object,
    )


def generate_corpus(
    n_docs: int, seed: int = 42, start: int = 0, total_docs: int | None = None
) -> pa.Table:
    """Generate the F1 corpus as a pyarrow Table (deterministic).

    ``start``/``total_docs`` offset global doc indices so corpora beyond
    Arrow's 2 GiB single-array limit are generated in chunks
    (ensure_corpus_parquet) with consistent repo/path naming; the
    default start=0 keeps the historical rng stream byte-for-byte."""
    rng = (
        np.random.default_rng(seed)
        if start == 0
        else np.random.default_rng([seed, start])
    )
    idents = _ident_pool()
    kw_table = np.array(
        [np.array(_KEYWORDS[l].split(), dtype=object) for l in LANGS], dtype=object
    )
    n_kw = np.array([len(k) for k in kw_table])

    lang_idx = rng.choice(len(LANGS), size=n_docs, p=_LANG_P)
    n_tok = rng.integers(30, 280, size=n_docs)
    total = int(n_tok.sum())
    doc_of_tok = np.repeat(np.arange(n_docs), n_tok)

    is_kw = rng.random(total) < 0.35
    kw_pick = rng.integers(0, 1 << 30, size=total)
    # Zipf-ish identifier frequencies via inverse-CDF over the pool
    ranks = np.arange(1, _IDENT_POOL_SIZE + 1, dtype=np.float64)
    cdf = np.cumsum(ranks**-1.35)
    cdf /= cdf[-1]
    ident_pick = np.searchsorted(cdf, rng.random(total))

    # integer token ids into one global vocab (keywords first, then
    # identifiers) -> Arrow dictionary cast materializes strings in C
    tok_lang = lang_idx[doc_of_tok]
    kw_offset = np.zeros(len(LANGS) + 1, dtype=np.int64)
    np.cumsum(n_kw, out=kw_offset[1:])
    vocab = np.concatenate([np.concatenate(list(kw_table)), idents])
    kw_ids = kw_offset[tok_lang] + (kw_pick % n_kw[tok_lang])
    ident_ids = kw_offset[-1] + ident_pick
    token_ids = np.where(is_kw, kw_ids, ident_ids)
    tokens = pa.DictionaryArray.from_arrays(
        pa.array(token_ids, pa.int32()), pa.array(vocab, pa.string())
    ).cast(pa.string())

    offsets = np.zeros(n_docs + 1, dtype=np.int64)
    np.cumsum(n_tok, out=offsets[1:])

    # deterministic punctuation/newline pattern so the tokenizer has
    # something real to strip (every 7th sep is a newline, every 11th
    # token gets a call-paren suffix); assembled entirely with Arrow C
    # kernels — element-wise concat, then per-doc list join
    pos = np.arange(total) - offsets[doc_of_tok]
    suffix = pa.DictionaryArray.from_arrays(
        pa.array((pos % 11 == 10).astype(np.int8)), pa.array(["", "()"])
    ).cast(pa.string())
    sep = pa.DictionaryArray.from_arrays(
        pa.array((pos % 7 == 6).astype(np.int8)), pa.array([" ", "\n"])
    ).cast(pa.string())
    pieces = pc.binary_join_element_wise(tokens, suffix, sep, "")
    lists = pa.ListArray.from_arrays(pa.array(offsets, pa.int32()), pieces)
    joined = pc.binary_join(lists, "")
    uniq = pa.array(
        [f"uq{start + i}x0 uq{start + i}x1" for i in range(n_docs)]
    )
    contents = pc.binary_join_element_wise(joined, uniq, "").to_numpy(
        zero_copy_only=False
    )
    # planted exact duplicates at global positions g where g % 997 == 996
    dup_idx = np.array(
        [i for i in range(1, n_docs) if (start + i) % 997 == 996], np.int64
    )
    contents[dup_idx] = contents[dup_idx - 1]

    repos = np.empty(n_docs, dtype=object)
    paths = np.empty(n_docs, dtype=object)
    commits = np.empty(n_docs, dtype=object)
    n_repos = max(1, (total_docs or n_docs) // 50)
    for i in range(n_docs):
        g = start + i
        r = g % n_repos
        repo = f"org{r // 16:04d}/repo{r % 16:04d}"
        path = f"src/m{g // n_repos:06d}_{g % 7}.{_EXT[LANGS[lang_idx[i]]]}"
        if (g // n_repos) % 9 == 0:
            path = f"test/{path[4:]}"
        repos[i] = repo
        paths[i] = path
        commits[i] = hashlib.sha256(f"{seed}:{repo}:{path}".encode()).hexdigest()[:40]
    return pa.Table.from_pydict(
        {
            "repo": repos,
            "path": paths,
            "commit": commits,
            "lang": np.array([LANGS[i] for i in lang_idx], dtype=object),
            "content": contents,
        },
        schema=CORPUS_SCHEMA,
    )


def ensure_corpus_parquet(
    out_dir: str, n_docs: int, seed: int = 42, shards: int | None = None
) -> str:
    """Generate-once cache of the corpus as sharded parquet files.

    Sharded so ray.data.read_parquet gets file-level read parallelism on
    top of row-group splits.
    """
    tag = f"codecorpus_n{n_docs}_s{seed}"
    path = os.path.join(out_dir, tag)
    done = os.path.join(path, "_DONE")
    if os.path.exists(done):
        return path
    os.makedirs(path, exist_ok=True)
    # generate in ≤1M-doc chunks (Arrow 2 GiB single-array limit)
    gen_chunk = 1_000_000
    shard_no = 0
    for cstart in range(0, n_docs, gen_chunk):
        cn = min(gen_chunk, n_docs - cstart)
        table = generate_corpus(cn, seed, start=cstart, total_docs=n_docs)
        shards_here = max(1, min(32, cn // 4000))
        per = (cn + shards_here - 1) // shards_here
        for s in range(shards_here):
            chunk = table.slice(s * per, per)
            if chunk.num_rows:
                pq.write_table(
                    chunk, os.path.join(path, f"corpus-{shard_no:05d}.parquet"),
                    row_group_size=4096,
                )
                shard_no += 1
    with open(done, "w") as f:
        f.write("ok")
    return path


def documents_as_corpus(sf_dir: str) -> pa.Table:
    """Adapt the driver's documents.parquet to the corpus schema.

    Keeps the original dense `doc_id` as an explicit id column so engine
    results can be compared 1:1 against DuckDB SQL over the raw table
    (build_index(id_col="doc_id") trusts it instead of rank-assigning).
    """
    t = pq.read_table(os.path.join(sf_dir, "documents.parquet"))
    ids = t["doc_id"].to_numpy()
    texts = t["text"].to_pylist()
    return pa.table(
        {
            "repo": pa.array(["docs"] * len(ids)),
            "path": pa.array([f"{i:010d}.txt" for i in ids]),
            "commit": pa.array(
                [hashlib.sha256(s.encode()).hexdigest()[:40] for s in texts]
            ),
            "lang": t["lang"].combine_chunks().cast(pa.string()),
            "content": t["text"].combine_chunks().cast(pa.string()),
            "doc_id": t["doc_id"].combine_chunks(),
        }
    )
