"""Arrow schemas + global constants for the quickray engine.

Data-model mapping from the reference (SURVEY.md §1.2):
- corpus row  = quicker Document (api/document.proto:12-18); `content`
  replaces the opaque `Bytes` payload, kept as a native Arrow string.
- doc_id      = quicker DocId (indexer.go:82) but deterministically
  assigned (dense rank over (repo, path, commit)) instead of an atomic
  per-worker counter, so builds are reproducible at any parallelism.
- bits        = quicker BitsFeature (api/document.proto:15) derived from
  lang/path/doc_len (demo/job/bits.go:24-69 analog).
- posting row = quicker's term -> skiplist-of-(DocId, BitsFeature)
  (skiplist_reverse_index.go:15-18) as delta+varint doc ids and varint
  tfs with per-block max-score metadata for block-max pruning. The
  reference keeps BitsFeature in every posting; here doc_len and bits
  live once, in docmeta, and serving gathers them by doc_id.
"""

from __future__ import annotations

import pyarrow as pa

# ---------------------------------------------------------------- constants
BM25_K1 = 1.2
BM25_B = 0.75
BLOCK_SIZE = 128  # docs per block-max block

# Language set -> bit position (bits.go:6-21 analog, our corpus's categories).
LANGS = ["go", "py", "js", "java", "rs", "c"]
# Extra feature bits (FIXTURES.md F2)
BIT_TEST_PATH = 8  # path basename starts with "test"
BIT_LONG_DOC = 9  # doc_len > avgdl (global mean token count)

# Tokenizer: lowercase, then split on runs of anything that is not
# [a-z0-9_]. Identical regex used by the Arrow kernel (RE2), the Python
# oracle (re) and the DuckDB oracle SQL (regexp_split_to_array).
TOKEN_SPLIT_RE = r"[^a-z0-9_]+"

CORPUS_SCHEMA = pa.schema(
    [
        ("repo", pa.string()),
        ("path", pa.string()),
        ("commit", pa.string()),
        ("lang", pa.string()),
        ("content", pa.string()),
    ]
)

DOCMETA_SCHEMA = pa.schema(
    [
        ("doc_id", pa.int64()),
        ("repo", pa.string()),
        ("path", pa.string()),
        ("commit", pa.string()),
        ("lang", pa.string()),
        ("sha256", pa.string()),
        ("doc_len", pa.int64()),
        ("bits", pa.int64()),
    ]
)

# Final posting-segment row: one row per term. Both varint streams are
# aligned (i-th decoded entry of each describes the i-th posting).
# Postings are sorted ascending by doc_id (the reference's one invariant,
# skiplist_reverse_index.go:49-55). Doc-level data (doc_len, bits) is
# not repeated per posting: docmeta holds it, indexed by doc_id.
SEGMENT_SCHEMA = pa.schema(
    [
        ("term", pa.string()),
        ("df", pa.int64()),  # == number of postings
        ("postings", pa.binary()),  # delta+varint doc_ids
        ("tfs", pa.binary()),  # varint term frequencies
        ("block_last", pa.list_(pa.int64())),  # last doc_id per block
        ("block_max", pa.list_(pa.float64())),  # max BM25 contribution per block
        ("shard", pa.int64()),  # hash(term) % num_shards (segment layout key)
    ]
)

# Per-batch posting run: one row per term present in a tokenizer batch,
# streams already delta+varint encoded. The shuffle moves these
# compressed runs — not one row per (term, doc) — which is what keeps
# the all-to-all exchange ~10x smaller than the exploded token stream
# at 100 TB scale.
#   part    = level-1 shuffle partition: hash(term, salt) % num_parts
#   min_doc = first doc_id of the run (merge-order key; batch doc
#             ranges are disjoint, so ordering runs by min_doc makes the
#             per-group concatenation already globally sorted)
# Runs carry only doc_ids + tfs, like the final segments: the final
# merge looks doc_len up in a broadcast doc_id-indexed array (doc_ids
# are dense 0..N-1) for its block-max bounds only.
RUN_SCHEMA = pa.schema(
    [
        ("term", pa.string()),
        ("salt", pa.int64()),
        ("part", pa.int64()),
        ("min_doc", pa.int64()),
        ("df", pa.int64()),
        ("postings", pa.binary()),
        ("tfs", pa.binary()),
    ]
)

# A batch run before salting, as the build's docbase pass checkpoints
# it: salt and part need the corpus hot set and n_docs, known only
# after the stats phase.
BATCH_RUN_SCHEMA = pa.schema(
    [f for f in RUN_SCHEMA if f.name not in ("salt", "part")]
)

# Level-1 merge output: one row per (term, salt) partial posting.
# mpart = hash(term) % num_shards is the level-2 shuffle partition (and
# becomes the final segment `shard`).
PARTIAL_SCHEMA = pa.schema(
    [
        ("term", pa.string()),
        ("salt", pa.int64()),
        ("mpart", pa.int64()),
        ("min_doc", pa.int64()),
        ("df", pa.int64()),
        ("postings", pa.binary()),
        ("tfs", pa.binary()),
    ]
)
