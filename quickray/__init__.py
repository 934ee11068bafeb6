"""quickray — a Ray-Data-native full-text index build + BM25 query engine.

A from-scratch reimplementation of the *capabilities* of hjrbill/quicker
(see /root/reference, SURVEY.md) as a batch Ray Data pipeline over Arrow:

- build: Parquet code corpus -> deterministic doc_ids -> one tokenizing
  pass into per-batch compressed posting runs, written split by term-hash
  merge group -> one sort-free merge per group -> sorted delta+varint
  posting lists -> checkpointed posting segments + manifest.
- query: boolean And/Or set algebra bit-identical to quicker's
  skiplist_reverse_index.go semantics, plus BM25 top-k with block-max
  pruning over block maxima derived at serving time and a bounded
  min-heap equivalent (deterministic tie-break).

Nothing here is a port: the reference is an online Go skip-list engine;
this is a columnar batch engine designed for Ray Data's streaming executor.
"""

from quickray.schema import BM25_B, BM25_K1, LANGS

__all__ = ["BM25_B", "BM25_K1", "LANGS"]
__version__ = "0.1.0"
