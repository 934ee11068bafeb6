"""Arrow schemas + global constants for the quickray engine.

Data-model mapping from the reference (SURVEY.md §1.2):
- corpus row  = quicker Document (api/document.proto:12-18); `content`
  replaces the opaque `Bytes` payload, kept as a native Arrow string.
- doc_id      = quicker DocId (indexer.go:82) but deterministically
  assigned (dense rank over (repo, path, commit)) instead of an atomic
  per-worker counter, so builds are reproducible at any parallelism.
- bits        = quicker BitsFeature (api/document.proto:15) derived from
  lang/path alone (demo/job/bits.go:24-69 analog).
- posting row = quicker's term -> skiplist-of-(DocId, BitsFeature)
  (skiplist_reverse_index.go:15-18) as delta+varint doc ids and varint
  tfs, and no scores: like the reference's skip list, a segment holds
  no statistic-dependent value (serving derives block-max bounds from
  the contributions it scores with, wand.py). The reference keeps
  BitsFeature in every posting; here doc_len and bits live once, in
  docmeta, and serving gathers them by doc_id.
"""

from __future__ import annotations

import os
import re

import pyarrow as pa

# ---------------------------------------------------------------- constants
BM25_K1 = 1.2
BM25_B = 0.75

# Language set -> bit position (bits.go:6-21 analog, our corpus's categories).
LANGS = ["go", "py", "js", "java", "rs", "c"]
# Extra feature bits (FIXTURES.md F2)
BIT_TEST_PATH = 8  # path basename starts with "test"
BIT_LONG_DOC = 9  # doc_len > avgdl: never stored, engine.Scorer.bits derives it

# Tokenizer: lowercase, then every maximal run of TOKEN_BYTES is a
# token. TOKEN_BYTES is the one definition, all ASCII, so every byte of a
# non-ASCII character separates tokens. The build maps each byte of the
# lowered text through a table derived from it (tokenize.flatten_tokens);
# the Python oracle (re) and perfbench's checks split on its complement,
# TOKEN_SPLIT_RE, which the DuckDB oracle SQL spells as '[^a-z0-9_]+'
# (tests/test_tokenize.py checks all 256 byte values against both).
TOKEN_BYTES = b"abcdefghijklmnopqrstuvwxyz0123456789_"
TOKEN_SPLIT_RE = f"[^{TOKEN_BYTES.decode()}]+"

CORPUS_SCHEMA = pa.schema(
    [
        ("repo", pa.string()),
        ("path", pa.string()),
        ("commit", pa.string()),
        ("lang", pa.string()),
        ("content", pa.string()),
    ]
)

# The forward index: every column is a fact of the doc alone (``bits``:
# scoring.compute_bits), none depends on the corpus statistics
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
# not repeated per posting: docmeta holds it, indexed by doc_id. No
# column depends on the corpus statistics, so one segment serves any
# scorer.
SEGMENT_SCHEMA = pa.schema(
    [
        ("term", pa.string()),
        ("df", pa.int64()),  # == number of postings
        ("postings", pa.binary()),  # delta+varint doc_ids
        ("tfs", pa.binary()),  # varint term frequencies
        ("shard", pa.int64()),  # hash(term) % num_shards (segment layout key)
    ]
)

# Segment files: one per nonempty merge group, named by its mpart and
# holding its terms in ascending order. A file is written under a
# hidden temp name (a leading "." that parquet readers skip) and renamed.
_GROUP_FILE = re.compile(r"(\d{5,})\.parquet")


def group_file(mpart: int) -> str:
    return f"{mpart:05d}.parquet"


def group_files(seg_dir: str) -> dict[int, str]:
    """{merge group: path} of the group files in ``seg_dir`` (hidden
    names skipped). Any other file means a layout this reader cannot
    select from: ValueError naming the dir, never a silent empty view."""
    files = {}
    for name in sorted(os.listdir(seg_dir)):
        if name.startswith((".", "_")):
            continue
        m = _GROUP_FILE.fullmatch(name)
        if m is None:
            raise ValueError(
                f"segments dir {seg_dir} holds {name!r}, not a merge-group"
                " file {mpart:05d}.parquet: rebuild the index"
            )
        files[int(m[1])] = os.path.join(seg_dir, name)
    return files


# Posting run: one row per term present in a tokenizer batch, streams
# already delta+varint encoded, as the build's docbase pass checkpoints
# it (its kind=1 rows). The final merge reads these compressed runs —
# not one row per (term, doc) — which keeps its all-to-all exchange
# ~10x smaller than the exploded token stream.
#   mpart   = hash(term) % num_shards: the merge group, and the final
#             segment `shard` (tokenize.term_shards)
#   min_doc = first doc_id of the run (merge-order key; batch doc
#             ranges are disjoint, so ordering runs by min_doc makes the
#             per-term concatenation already globally sorted)
# Runs carry only doc_ids + tfs, like the final segments: the merge
# concatenates and re-encodes them and reads nothing else.
BATCH_RUN_SCHEMA = pa.schema(
    [
        ("term", pa.string()),
        ("mpart", pa.int64()),
        ("min_doc", pa.int64()),
        ("df", pa.int64()),
        ("postings", pa.binary()),
        ("tfs", pa.binary()),
    ]
)
