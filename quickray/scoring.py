"""BM25 scoring + BitsFeature derivation — shared by build, engine, oracle.

The reference computes no scores (SURVEY.md §2.6: result sets are
unordered); the BM25 layer is specified here: Okapi BM25 with
k1=1.2, b=0.75, idf = ln((N - df + 0.5) / (df + 0.5) + 1).
df is the *unfiltered* posting length (flag filters do not change idf).
All float math is float64 and, where results are summed across terms,
summation order is ascending term string — fixed in engine AND oracle so
scores are bit-identical (SURVEY §7.8 hard part b).
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from quickray.schema import BIT_TEST_PATH, BM25_B, BM25_K1


def idf(df: float, n_docs: int) -> float:
    return float(np.log((n_docs - df + 0.5) / (df + 0.5) + 1.0))


def bm25_contrib(
    tf: np.ndarray, dl: np.ndarray, df, n_docs: int, avgdl: float
) -> np.ndarray:
    """Exact per-posting BM25 contribution (vectorized). ``df`` may be a
    scalar (one term) or a per-posting array (multi-term batches in the
    merge phase) — elementwise math is bit-identical either way."""
    tf = np.asarray(tf, dtype=np.float64)
    dl = np.asarray(dl, dtype=np.float64)
    df_v = np.asarray(df, dtype=np.float64)
    idf_v = np.log((n_docs - df_v + 0.5) / (df_v + 0.5) + 1.0)
    denom = tf + BM25_K1 * (1.0 - BM25_B + BM25_B * dl / avgdl)
    return idf_v * tf * (BM25_K1 + 1.0) / denom


def compute_bits(lang, path, langs: list[str]) -> np.ndarray:
    """Doc-intrinsic BitsFeature per doc (demo/job/bits.go:24-69 analog,
    FIXTURES.md F2), one Arrow pass over the ``lang`` and ``path``
    columns (or sequences Arrow converts). Raises on a null path.

    bit i (< len(langs)): lang == langs[i] (a null lang sets none)
    bit 8: path basename starts with "test" (or path starts with "test")
    bit 9 (doc_len > avgdl) is never stored: engine.Scorer.bits derives it
    """
    lang, path = (pa.chunked_array([c]).cast(pa.string()) for c in (lang, path))
    if path.null_count:
        raise ValueError(
            "null values in 'path' — fill or drop them before build_index"
        )
    masks = {i: pc.equal(lang, l) for i, l in enumerate(langs)}
    masks[BIT_TEST_PATH] = pc.match_substring_regex(path, r"^test|/test[^/]*$")
    bits = np.zeros(len(path), dtype=np.int64)
    for bit, m in masks.items():
        bits |= pc.fill_null(m, False).to_numpy().astype(np.int64) << bit
    return bits


def flags_mask(
    bits: np.ndarray, on_flag: int = 0, off_flag: int = 0, or_flags=()
) -> np.ndarray:
    """Vectorized quicker bit-filter (skiplist_reverse_index.go:158-171):
    bits&on == on AND bits&off == 0 AND for each nonzero f in or_flags:
    bits&f > 0 (zero entries are skipped — the reference's explicit rule).
    """
    b = np.asarray(bits, dtype=np.int64)
    m = ((b & on_flag) == on_flag) & ((b & off_flag) == 0)
    for f in or_flags:
        if f == 0:
            continue  # per reference: empty or-flag entries are skipped
        m &= (b & f) != 0
    return m
