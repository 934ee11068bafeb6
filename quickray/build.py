"""The Ray Data index-build pipeline (SURVEY.md §7.2/§7.4).

Phases (each a checkpointed Dataset pipeline, see checkpoint.Manifest):

  docids    KEY columns only (pruned read) -> rank-ordered key array
            (docids.rank_keys) -> small parquet artifact; broadcast via
            ray.put so every later stage stamps doc_id with a local C++
            hash probe. Content never shuffles for id assignment.
  docbase   THE one content pass before postings: doc_id +
            sha256(content) + doc_len (kind=0 rows) AND sampled
            per-batch partial dfs from the same tokenization (kind=1
            rows) -> one combined table. The corpus itself is NOT
            rewritten, and no later metadata phase reads content.
  stats     n_docs / total_tokens / avgdl from docbase kind=0 columns
            (tiny columnar agg) + hot-term detection from the fused
            kind=1 partial dfs (the hot set only steers level-1
            partitioning, never output) — zero content reads.
  docmeta   docbase + bits(lang, path, doc_len > avgdl) — the forward
            index (J1 analog); no content involved.
  postings  content pass two: actor-pool tokenizer emits compressed
            per-batch posting RUNS (term, salt, part, min_doc, df,
            delta+varint doc_ids, varint tfs) -> groupby(part =
            hash(term, salt) % num_parts) -> vectorized partition merge
            -> one partial posting per (term, salt).
  segments  groupby(mpart = hash(term) % num_shards) over partials ->
            vectorized partition merge; per-posting dl/bits looked up
            from a broadcast doc_id-indexed array (never shuffled);
            BM25 block-max metadata -> final posting segments.

Skew: hot terms (df > hot_df) are salted with contiguous doc_id-range
salts (salt = run_min_doc * S // N), spreading a hot term's runs over S
level-1 partitions so the largest shuffle partition stays bounded; the
merge phases re-sort decoded values by (group, doc_id), so correctness
never depends on run arrival order (SURVEY §7.4; merge.py).

Scale notes: the only all-to-all exchanges are the two run shuffles,
both over varint-compressed payloads pre-aggregated per batch; reads
prune columns; small sides (hot set, rank table, dl/bits) are ray.put
broadcasts. The rank table bounds one build partition to ~10^8 docs
(docids.py); a 10^12-file corpus runs as many independent key-range
build partitions with doc_id offsets from a driver-side prefix sum.
"""

from __future__ import annotations

import hashlib
import json
import logging
import os
import time
from dataclasses import dataclass, field
from typing import Any

logger = logging.getLogger(__name__)

import numpy as np
import pyarrow as pa
import pyarrow.dataset as pads
import pyarrow.parquet as pq

import ray
import ray.data as rd
from ray.data.aggregate import Count, Max, Min, Sum

from quickray.checkpoint import Manifest
from quickray.merge import make_final_merge, make_level1_merge
from quickray.schema import BLOCK_SIZE, LANGS
from quickray.tokenize import Tokenizer, flatten_tokens, rank_lookup
from quickray.util import sum_by_key



def _write_parquet_retry(ds: "rd.Dataset", dest: str, attempts: int = 4) -> None:
    """write_parquet with a retry on the fsspec concurrent-import race:
    Ray's path resolution does `from fsspec.implementations.http import
    HTTPFileSystem` on every call; with aiohttp absent that import
    fails, and when two driver threads hit it simultaneously one can
    observe a partially-initialized module and get a plain ImportError
    Ray doesn't catch (it handles only ModuleNotFoundError). The error
    fires during PRE-EXECUTION path resolution, so retrying is safe —
    nothing has been written."""
    for attempt in range(attempts):
        try:
            ds.write_parquet(dest)
            return
        except ImportError as e:
            if "fsspec" not in str(e) or attempt == attempts - 1:
                raise
            time.sleep(0.2 * (attempt + 1))


def _segment_row_count(seg_dir: str) -> int:
    """Vocab size from parquet footers only (no data read)."""
    import glob

    return sum(
        pq.read_metadata(f).num_rows
        for f in glob.glob(os.path.join(seg_dir, "**", "*.parquet"), recursive=True)
    )


def _chunk_bounds(n: int, chunks: int) -> list[tuple[int, int]]:
    """Split range(n) into ≤chunks contiguous [lo, hi) spans."""
    chunks = max(1, min(chunks, n))
    step = (n + chunks - 1) // chunks
    return [(lo, min(lo + step, n)) for lo in range(0, n, step)]


# docbase phase output: kind=0 rows are the per-doc forward-index rows,
# kind=1 rows are per-batch SAMPLED partial document frequencies reusing
# the SAME tokenization the doc_len computation already paid for — the
# stats phase then reads no content at all (one content pass before
# postings instead of two)
_DOCBASE_SCHEMA = pa.schema(
    [
        ("doc_id", pa.int64()),
        ("repo", pa.string()),
        ("path", pa.string()),
        ("commit", pa.string()),
        ("lang", pa.string()),
        ("sha256", pa.string()),
        ("doc_len", pa.int64()),
        ("kind", pa.int32()),
        ("term", pa.string()),
        ("partial_df", pa.int64()),
    ]
)


# per-worker cache of the rank table's binary-search view, keyed by
# the broadcast ObjectRef (unique per build) — same pattern as
# _WORKER_TOKENIZERS; avoids rebuilding a million-entry probe per batch
_WORKER_RANK_NP: dict[str, "np.ndarray"] = {}


def _make_docbase_fn(rank_ref, id_col_present: bool, sample_mod: int = 1):
    def to_docbase(t: pa.Table) -> pa.Table:
        from quickray.tokenize import rank_probe_np

        if id_col_present:
            doc_id = t["doc_id"]
            if isinstance(doc_id, pa.ChunkedArray):
                doc_id = doc_id.combine_chunks()
        else:
            key = rank_ref.hex()
            ranked_np = _WORKER_RANK_NP.get(key)
            if ranked_np is None:
                while len(_WORKER_RANK_NP) > 4:
                    # oldest-only eviction (clear() thrashes concurrent
                    # builds' rank tables)
                    _WORKER_RANK_NP.pop(next(iter(_WORKER_RANK_NP)))
                ranked_np = rank_probe_np(ray.get(rank_ref))
                _WORKER_RANK_NP[key] = ranked_np
            doc_id = rank_lookup(t, None, ranked_np)
        if t["content"].null_count:
            # a null content cell is an ingest bug: fail with the
            # column named instead of an opaque AttributeError deep in
            # a Ray worker (data_signature's null-as-'' semantics are
            # for SIGNATURES, not for indexing)
            raise ValueError(
                "null values in 'content' — fill or drop them before"
                " build_index"
            )
        from quickray.util import digest_slices

        # zero-object hashing: sha256 over memoryview slices of the
        # Arrow value buffer (this is THE content pass at corpus scale;
        # to_pylist built one Python str per row), hex-sliced from one
        # buffer-wide hex string
        hexall = digest_slices(t["content"], "sha256", 32).hex()
        digests = [hexall[64 * i : 64 * (i + 1)] for i in range(t.num_rows)]
        # ONE tokenization pass serves both doc_len and the sampled
        # hot-term partial dfs (rows at batch positions 0, mod, 2*mod
        # ... — deterministic; the hot set only steers salting)
        flat, parents = flatten_tokens(t["content"])
        par = np.asarray(parents)
        counts = np.zeros(t.num_rows, dtype=np.int64)
        np.add.at(counts, par, 1)
        n = t.num_rows
        base = pa.table(
            {
                "doc_id": doc_id,
                "repo": t["repo"],
                "path": t["path"],
                "commit": t["commit"],
                "lang": t["lang"],
                "sha256": pa.array(digests, pa.string()),
                "doc_len": pa.array(counts),
                "kind": pa.array(np.zeros(n, np.int32)),
                "term": pa.nulls(n, pa.string()),
                "partial_df": pa.nulls(n, pa.int64()),
            }
        ).cast(_DOCBASE_SCHEMA)
        if sample_mod > 1:
            in_sample = np.zeros(n, dtype=bool)
            in_sample[::sample_mod] = True
            tok_mask = in_sample[par] if len(par) else np.zeros(0, bool)
            sflat = flat.filter(pa.array(tok_mask))
            spar = pa.array(par[tok_mask])
        else:
            sflat, spar = flat, parents
        pairs = (
            pa.table({"term": sflat, "d": spar})
            .group_by(["term", "d"])
            .aggregate([])
        )
        out = pairs.group_by("term").aggregate([([], "count_all")])
        m = out.num_rows
        dfrows = pa.table(
            {
                "doc_id": pa.nulls(m, pa.int64()),
                "repo": pa.nulls(m, pa.string()),
                "path": pa.nulls(m, pa.string()),
                "commit": pa.nulls(m, pa.string()),
                "lang": pa.nulls(m, pa.string()),
                "sha256": pa.nulls(m, pa.string()),
                "doc_len": pa.nulls(m, pa.int64()),
                "kind": pa.array(np.ones(m, np.int32)),
                "term": out["term"],
                "partial_df": out["count_all"],
            }
        ).cast(_DOCBASE_SCHEMA)
        return pa.concat_tables([base, dfrows])

    return to_docbase


@dataclass
class BuildResult:
    out_dir: str
    stats: dict[str, Any] = field(default_factory=dict)
    phase_times: dict[str, float] = field(default_factory=dict)

    @property
    def segments_dir(self) -> str:
        return os.path.join(self.out_dir, "segments")

    @property
    def docmeta_dir(self) -> str:
        return os.path.join(self.out_dir, "docmeta")


class _Source:
    """Uniform column-pruned reader over the three accepted source
    forms (parquet path, pyarrow Table, ray Dataset)."""

    def __init__(self, source):
        self.raw = source
        if isinstance(source, str):
            # content-sensitive from parquet footers: compressed sizes +
            # column statistics change on practically any rewrite (a
            # crafted same-size same-stats edit can still slip past —
            # delta flows that need certainty use data_signature())
            sig = hashlib.sha256()
            try:
                dset = pads.dataset(source, format="parquet")
                for frag in sorted(dset.get_fragments(), key=lambda f: f.path):
                    md = frag.metadata
                    sig.update(
                        f"{os.path.basename(frag.path)}:{md.num_rows}:"
                        f"{md.serialized_size}".encode()
                    )
                    for i in range(md.num_row_groups):
                        rg = md.row_group(i)
                        for c in range(rg.num_columns):
                            col = rg.column(c)
                            st = col.statistics
                            sig.update(
                                f"{col.total_compressed_size}:"
                                f"{st.min if st and st.has_min_max else ''}:"
                                f"{st.max if st and st.has_min_max else ''}".encode()
                            )
                self.fingerprint = f"path:{source}:sig={sig.hexdigest()[:16]}"
            except (OSError, pa.ArrowInvalid):
                self.fingerprint = f"path:{source}"
        elif isinstance(source, pa.Table):
            # content-sensitive over EVERY row (a 64-row sample let
            # edits in non-sampled rows resume into the stale build
            # dir): per-row sha256 over memoryview slices of the Arrow
            # value buffers (digest_slices — no per-row Python objects;
            # hashes at memory bandwidth, and an in-memory Table source
            # is by definition node-sized)
            from quickray.util import digest_slices

            h = hashlib.sha256()
            n = source.num_rows
            for col in ("repo", "path", "content"):
                if col in source.column_names:
                    h.update(digest_slices(source[col], "sha256", 8))
            self.fingerprint = (
                f"table:rows={n}:schema={source.schema.names}"
                f":sha={h.hexdigest()[:16]}"
            )
        else:
            # a generic Dataset cannot be content-fingerprinted without
            # executing it — resume under the SAME out_dir with a
            # different same-schema Dataset would serve the stale
            # index. Warn loudly; callers that need resume safety pass
            # a parquet path (footer signature) or set fingerprint=.
            logger.warning(
                "build_index source is a generic Ray Dataset: the"
                " resume fingerprint covers only the schema, not the"
                " data. Pass fingerprint= (e.g. a content hash) or use"
                " a parquet path / pyarrow Table source if this"
                " out_dir may be reused with different data."
            )
            self.fingerprint = f"dataset:{source.schema().names}"

    def read(self, cols: list[str]) -> "rd.Dataset":
        if isinstance(self.raw, str):
            return rd.read_parquet(self.raw, columns=cols)
        if isinstance(self.raw, pa.Table):
            return rd.from_arrow(self.raw.select(cols))
        return self.raw.select_columns(cols)

    def keys_table(self) -> pa.Table:
        """Driver-side (repo, path) key table — pruned read, ~1-2% of
        corpus bytes."""
        if isinstance(self.raw, str):
            return pads.dataset(self.raw, format="parquet").to_table(
                columns=["repo", "path"]
            )
        if isinstance(self.raw, pa.Table):
            return self.raw.select(["repo", "path"])
        refs = self.raw.select_columns(["repo", "path"]).to_arrow_refs()
        return pa.concat_tables(ray.get(refs))

    def data_signature(self) -> str:
        """Order-independent full-content signature — one streaming
        columnar pass over any source form. Collision-resistant
        construction (this gates delta rebuilds — a spurious match
        would serve a stale partition): per-row sha256(repo, path,
        content), accumulated as two independent mod-2^62 sums over
        disjoint 8-byte digest windows (~124 bits of accumulator;
        modular sums of cryptographic digests stay collision-resistant
        for non-adversarial and adversarial-rewrite cases alike,
        unlike the crc32 sum this replaces) plus the exact row count."""

        def sigb(t: pa.Table) -> pa.Table:
            # per-row sha256 is inherent, but everything around it is
            # batched: the row bytes come from ONE Arrow join kernel and
            # are hashed through memoryview slices of the value buffer
            # (no per-row f-strings / int.from_bytes / column to_pylist);
            # digest words accumulate via numpy 32-bit-split sums (exact,
            # overflow-free). Null repo/path/content hash as '' (the
            # fill_null below) — the defined signature semantics for
            # null-key corpora
            import pyarrow.compute as pc

            cols = []
            for name in ("repo", "path", "content"):
                c = t[name]
                if isinstance(c, pa.ChunkedArray):
                    c = c.combine_chunks()
                if not pa.types.is_string(c.type):
                    c = c.cast(pa.string())
                cols.append(pc.fill_null(c, "") if c.null_count else c)
            joined = pc.binary_join_element_wise(
                cols[0], cols[1], cols[2], "\x01"
            )
            if joined.offset:
                joined = pa.concat_arrays([joined])
            n = len(joined)
            bufs = joined.buffers()
            offs = np.frombuffer(bufs[1], np.int32, count=n + 1).astype(np.int64)
            data = (
                memoryview(bufs[2])[: offs[-1]]
                if bufs[2] is not None
                else memoryview(b"")
            )
            sha = hashlib.sha256
            dig = bytearray(16 * n)
            for i in range(n):
                dig[16 * i : 16 * i + 16] = sha(
                    data[offs[i] : offs[i + 1]]
                ).digest()[:16]
            pair = np.frombuffer(bytes(dig), "<u8").reshape(-1, 2)
            lo = (pair & np.uint64(0xFFFFFFFF)).astype(np.int64)
            hi = (pair >> np.uint64(32)).astype(np.int64)
            s1 = (int(hi[:, 0].sum()) << 32) + int(lo[:, 0].sum())
            s2 = (int(hi[:, 1].sum()) << 32) + int(lo[:, 1].sum())
            return pa.table(
                {
                    "s1": pa.array([s1 % (1 << 62)], pa.int64()),
                    "s2": pa.array([s2 % (1 << 62)], pa.int64()),
                    "n": pa.array([t.num_rows], pa.int64()),
                }
            )

        from ray.data.aggregate import Sum

        agg = (
            self.read(["repo", "path", "content"])
            .map_batches(sigb, batch_format="pyarrow")
            .aggregate(
                Sum("s1", alias_name="s1"),
                Sum("s2", alias_name="s2"),
                Sum("n", alias_name="n"),
            )
        )
        s1 = int(agg["s1"] or 0) % (1 << 62)
        s2 = int(agg["s2"] or 0) % (1 << 62)
        return f"datasig:{s1}:{s2}:{int(agg['n'] or 0)}"

    def count_rows(self) -> int | None:
        """Row count from metadata where free (parquet footers / table
        length); None for generic Datasets (callers then skip the
        row-sampling optimization rather than force an execution).
        Memoized: build_index consults it twice (auto layout + sample
        stride) and the footer walk is not free on many-fragment
        sources."""
        if not hasattr(self, "_count_rows"):
            self._count_rows = None
            if isinstance(self.raw, str):
                try:
                    self._count_rows = pads.dataset(
                        self.raw, format="parquet"
                    ).count_rows()
                except (OSError, pa.ArrowInvalid):
                    pass
            elif isinstance(self.raw, pa.Table):
                self._count_rows = self.raw.num_rows
        return self._count_rows


def build_partitioned(
    source,
    out_root: str,
    n_partitions: int,
    **build_kwargs,
) -> list[str]:
    """10^12-scale orchestration unit: split the corpus into contiguous
    (repo, path) key ranges, repartition the corpus storage once (hive
    by range id — one streaming pass, no shuffle of content beyond the
    write), then run one INDEPENDENT build_index per range. Each
    partition is separately resumable/retryable; doc_ids are dense per
    partition, and engine.PartitionedEngine serves the union with
    corpus-global statistics, provably equal to one global build
    (tests/test_partitioned.py). Cut keys come from exact driver-side
    key quantiles here; at extreme scale use a distributed sort sample.
    """
    src = _Source(source)
    # partition boundaries are persisted on first build and reused on
    # every rerun — stable key ranges are what make a rerun on an
    # updated corpus a DELTA build: only partitions whose bytes changed
    # re-index (build_index's content-sensitive fingerprint skips the
    # rest), the batch analog of the reference's AddDoc/DeleteDoc upsert
    os.makedirs(out_root, exist_ok=True)
    spec_path = os.path.join(out_root, "partition_spec.json")
    if os.path.exists(spec_path):
        with open(spec_path) as f:
            spec = json.load(f)
        cuts = spec["cuts"]
        n_partitions = spec["n_partitions"]
    else:
        from quickray.docids import rank_keys

        srt = rank_keys(src.keys_table())  # sorted keys + duplicate guard
        n = len(srt)
        n_partitions = max(1, min(n_partitions, n))
        cuts = [
            srt[(i * n) // n_partitions].as_py()
            for i in range(1, n_partitions)
        ]
        with open(spec_path + ".tmp", "w") as f:
            json.dump({"cuts": cuts, "n_partitions": n_partitions}, f)
        os.replace(spec_path + ".tmp", spec_path)
    cuts_arr = np.array(cuts, dtype=object)

    def add_kpart(t: pa.Table) -> pa.Table:
        from quickray.tokenize import row_keys

        k = np.asarray(row_keys(t), dtype=object)
        kp = np.searchsorted(cuts_arr, k, side="right")
        return t.append_column("kpart", pa.array(kp, pa.int64()))

    # corpus repartition runs per source version, gated by the FULL data
    # signature (footer/sample fingerprints miss same-size edits and
    # can't see ray Dataset contents at all)
    corpus_root = os.path.join(out_root, "corpus_parts")
    ver_path = os.path.join(corpus_root, "_VERSION")
    src_sig = src.data_signature()
    prev = open(ver_path).read() if os.path.exists(ver_path) else None
    if prev != src_sig:
        import shutil as _sh

        _sh.rmtree(corpus_root, ignore_errors=True)
        src.read(
            ["repo", "path", "commit", "lang", "content"]
        ).map_batches(add_kpart, batch_format="pyarrow").write_parquet(
            corpus_root, partition_cols=["kpart"]
        )
        with open(ver_path, "w") as f:
            f.write(src_sig)
    import glob as _glob

    # per-partition data signatures are cached next to _VERSION: the
    # partition files are immutable while _VERSION == src_sig, so a
    # no-op rerun must not pay a second full-corpus read just to prove
    # every partition unchanged (the signatures ARE full-content reads)
    sig_path = os.path.join(corpus_root, "_PART_SIGS.json")
    part_sigs: dict[str, str] = {}
    if os.path.exists(sig_path):
        try:
            with open(sig_path) as f:
                rec = json.load(f)
            if rec.get("version") == src_sig:
                part_sigs = rec.get("sigs", {})
        except (OSError, json.JSONDecodeError):
            pass
    sigs_dirty = False
    dirs = []
    for i in range(n_partitions):
        part_src = os.path.join(corpus_root, f"kpart={i}")
        out = os.path.join(out_root, f"part_{i:05d}")
        if not _glob.glob(os.path.join(part_src, "*.parquet")):
            # a key range emptied by deletes: no hive dir is written;
            # served corpus simply omits this partition
            continue
        # data-based signature (order-independent row digest sum), not
        # file-based: a corpus rewrite with identical rows must NOT
        # re-index the partition — this is what turns a rerun into a
        # delta build touching only changed key ranges
        sig = part_sigs.get(str(i))
        if sig is None:
            sig = _Source(part_src).data_signature()
            part_sigs[str(i)] = sig
            sigs_dirty = True
        build_index(part_src, out, fingerprint=sig, **build_kwargs)
        dirs.append(out)
    if sigs_dirty:
        with open(sig_path + ".tmp", "w") as f:
            json.dump({"version": src_sig, "sigs": part_sigs}, f)
        os.replace(sig_path + ".tmp", sig_path)
    return dirs


def _auto_layout(n_rows: int | None, ceiling: int = 256) -> int:
    """Default shuffle-partition / merge-shard count, scaled with the
    corpus row count: every level-1 part and merge shard pays a ~fixed
    task-spawn + sort-boundary cost regardless of data size, so small
    corpora must not pay a 256-way layout (measured 6.7s vs 4.7s on a
    40k-doc / 32-cpu build), while at 1M+ rows the count reaches the
    256 ceiling that balances hot-term merge stragglers. Unknown row
    count (generic Dataset source) takes the scale-safe ceiling. The
    resolved values join the manifest layout fingerprint, so resuming
    the same corpus re-derives the same layout and a corpus-size change
    invalidates cleanly."""
    if n_rows is None:
        return ceiling
    return max(16, min(ceiling, n_rows // 512))


def build_index(
    source,
    out_dir: str,
    *,
    id_col: str | None = None,
    langs: list[str] | None = None,
    hot_df: int | None = None,
    num_salts: int = 8,
    # None = auto-scale with the corpus row count (see _auto_layout):
    # 256 merge groups balance the final merge far better than 64 at
    # 1M+ docs (hot-term mparts stop being 4x stragglers: measured
    # segments phase 26s -> 16s at 1M docs / 16 cpus) but pay ~fixed
    # per-part shuffle spawn cost that dominates SMALL builds (measured
    # 6.7s @ 256 vs 4.7s @ 64 on 40k docs / 32 cpus); size these to
    # ~8-16x the worker count at cluster scale
    num_shards: int | None = None,
    num_parts: int | None = None,
    durable_shuffle: bool = False,
    shuffle_chunks: int = 4,
    tokenizer_concurrency: int | None = None,
    tokenizer_batch_size: int = 4096,
    block_size: int = BLOCK_SIZE,
    fingerprint: str | None = None,
    field_cols: list[str] | None = None,
) -> BuildResult:
    """Run (or resume) the full index build. Ray must be initialised by
    the caller (never calls ray.init itself). ``fingerprint`` overrides
    the source identity (callers that know a stronger content signature,
    e.g. build_partitioned's per-partition data signature).

    ``field_cols`` additionally indexes the named metadata columns as
    field-scoped keywords (reference parity: Keyword{Field, Word},
    demo/job/build_index.go:114-127; posting key field + "\\x01" +
    lower(value), gen/document.go:5) — one tf=1 posting per doc per
    field, queryable as Term(word, field=f). Must be a subset of the
    docbase metadata columns (repo, path, commit, lang) so field-term
    dfs are known without another content pass."""
    langs = langs or LANGS
    field_cols = list(field_cols or [])
    allowed_fields = {"repo", "path", "commit", "lang"}
    if not set(field_cols) <= allowed_fields:
        raise ValueError(
            f"field_cols must be a subset of {sorted(allowed_fields)}; "
            f"got {field_cols}"
        )
    if len(set(field_cols)) != len(field_cols):
        # a duplicated field would emit two tf=1 rows per (term, doc),
        # breaking the strictly-increasing posting invariant
        raise ValueError(f"field_cols contains duplicates: {field_cols}")
    src = _Source(source)
    if fingerprint is not None:
        src.fingerprint = fingerprint
    if num_parts is None or num_shards is None:
        auto = _auto_layout(src.count_rows())
        num_parts = auto if num_parts is None else num_parts
        num_shards = auto if num_shards is None else num_shards
    # layout-critical params join the fingerprint: resuming a build dir
    # with a different shuffle/segment layout must invalidate, never
    # silently mix chunk bounds (the partials/segments on disk encode
    # num_parts/num_shards/num_salts/block_size; field_cols change the
    # posting table's contents; langs change the docmeta/posting BITS
    # encoding and id_col changes doc_id assignment semantics — a
    # resume under different values must rebuild, not silently serve
    # the stale index)
    layout = (
        f"|layout:parts={num_parts},shards={num_shards},salts={num_salts},"
        f"chunks={shuffle_chunks if durable_shuffle else 0},bs={block_size}"
        f",fields={'+'.join(field_cols)}"
        f",langs={'+'.join(langs)},id={id_col or 'rank'}"
        ",dbv=2"  # docbase schema v2 (fused sampled-df rows)
    )
    man = Manifest(out_dir, src.fingerprint + layout)
    result = BuildResult(out_dir=out_dir)
    use_rank = id_col is None

    # ------------------------------------------------------- phase docids
    t0 = time.time()
    keys_path = os.path.join(out_dir, "docids", "keys.parquet")
    rank_ref = None
    if use_rank:
        if not man.phase_done("docids"):
            d = man.phase_dir("docids")
            from quickray.docids import rank_keys

            ranked = rank_keys(src.keys_table())
            pq.write_table(pa.table({"key": ranked}), keys_path)
            man.mark_done("docids", elapsed=time.time() - t0,
                          counters={"n_docs": len(ranked)})
        ranked = pq.read_table(keys_path)["key"].combine_chunks()
        if len(ranked) == 0:
            raise ValueError(
                "empty corpus: the source has 0 rows — nothing to index"
            )
        rank_ref = ray.put(ranked)
        n_docs_expected = len(ranked)
    else:
        if not man.phase_done("docids"):
            man.phase_dir("docids")
            man.mark_done("docids", with_files=False, elapsed=time.time() - t0,
                          counters={"id_mode": f"column:{id_col}"})
        n_docs_expected = None
    result.phase_times["docids"] = time.time() - t0

    # ------------------------------------------------------ phase docbase
    # ONE content pass produces the forward-index rows AND the sampled
    # hot-term partial dfs (kind column; _DOCBASE_SCHEMA) — the stats
    # phase never reads content again. Sampling kicks in only on large
    # corpora; the hot set steers salting, never output.
    t0 = time.time()
    docbase_dir = os.path.join(out_dir, "docbase")
    n_for_mod = n_docs_expected if use_rank else src.count_rows()
    sample_mod = 1 if (n_for_mod or 0) <= 20_000 else 16
    base_cols = ["repo", "path", "commit", "lang", "content"]
    if not use_rank:
        base_cols = [id_col] + base_cols
    if not man.phase_done("docbase"):
        d = man.phase_dir("docbase")
        ds = src.read(base_cols)
        if not use_rank and id_col != "doc_id":
            ds = ds.rename_columns({id_col: "doc_id"})
        ds.map_batches(
            _make_docbase_fn(rank_ref, not use_rank, sample_mod),
            batch_format="pyarrow",
        ).write_parquet(d)
        man.mark_done("docbase", elapsed=time.time() - t0,
                      counters={"id_mode": id_col or "rank(repo,path)",
                                "sample_mod": sample_mod})
    result.phase_times["docbase"] = time.time() - t0

    # --------------------------------------------------------- phase stats
    t0 = time.time()
    stats_path = os.path.join(out_dir, "stats", "stats.json")
    if not man.phase_done("stats"):
        d = man.phase_dir("stats")
        if pads.dataset(docbase_dir, format="parquet").count_rows(
            filter=pads.field("kind") == 0
        ) == 0:
            # id_col path can't know emptiness before the docbase pass
            raise ValueError(
                "empty corpus: the source produced 0 docbase rows — "
                "nothing to index (check the source path/table)"
            )
        lens = rd.read_parquet(
            docbase_dir, columns=["doc_id", "doc_len", "kind"],
            filter=pads.field("kind") == 0,
        )
        agg = lens.aggregate(
            Count(), Sum("doc_len", alias_name="total_tokens"),
            Min("doc_id", alias_name="min_id"), Max("doc_id", alias_name="max_id"),
        )
        n_docs = int(agg["count()"])
        total_tokens = int(agg["total_tokens"])
        if not (agg["min_id"] == 0 and agg["max_id"] == n_docs - 1):
            raise ValueError(
                f"doc_ids must be dense 0..N-1 (got min={agg['min_id']} "
                f"max={agg['max_id']} n={n_docs}); pass id_col=None to rank-assign"
            )
        # min/max/count alone accept duplicates paired with gaps
        # ([0,2,2,3] passes), and so does any fixed set of moments
        # ([0,0,3,3] matches the id sum). Exact: the n ids all lie in
        # [0, n), so they mark every slot of an n-slot bitmap iff none
        # repeats. Duplicated ids would silently corrupt postings
        # (strict-increase breaks) and the dense doc_len/bits scatter
        # (last write wins)
        seen = np.zeros(n_docs, dtype=bool)
        for b in pads.dataset(docbase_dir, format="parquet").to_batches(
            columns=["doc_id"], filter=pads.field("kind") == 0
        ):
            ids = b.column(0)
            if ids.null_count:
                raise ValueError(f"null doc_ids in id column {id_col!r}")
            seen[ids.to_numpy()] = True
        if not seen.all():
            raise ValueError(
                f"doc_ids are not a permutation of 0..N-1 (duplicate ids"
                f" with matching gaps, id column {id_col!r}); pass"
                " id_col=None to rank-assign"
            )
        if n_docs_expected is not None and n_docs != n_docs_expected:
            raise ValueError(
                f"docbase rows ({n_docs}) != rank table size ({n_docs_expected})"
            )
        avgdl = total_tokens / max(1, n_docs)
        threshold = hot_df if hot_df is not None else max(256, n_docs // 8)
        # Hot-term detection from the docbase pass's fused sampled
        # partial dfs (kind=1 rows) — NO second content read. The hot
        # set only steers level-1 partitioning (salting), never final
        # index content, so sampling cannot change the output.
        sampled_threshold = int(threshold / sample_mod)
        # sum-by-term as a sort + blockwise reduction: the group count
        # is VOCABULARY-scale, where the native aggregate's per-group
        # Python loop dominates (util.sum_by_key)
        hot_rows = (
            sum_by_key(
                rd.read_parquet(
                    docbase_dir, columns=["term", "partial_df", "kind"],
                    filter=pads.field("kind") == 1,
                ),
                "term", sums=[("partial_df", "df")],
            )
            .map_batches(
                lambda t: t.filter(
                    np.asarray(t["df"]) > sampled_threshold
                ),
                batch_format="pyarrow",
            )
            .take_all()
        )
        hot_terms = [r["term"] for r in hot_rows]
        # field-scoped terms' dfs are exact from docbase metadata (no
        # content read): a field value held by more docs than the
        # threshold (e.g. lang\x01en at df ~ N/5) must be salted like
        # any hot term, or its level-1 merge group becomes exactly the
        # skewed straggler salting exists to prevent. ONE scan reads
        # every field column and melts each row into its posting keys;
        # one groupby counts all fields' dfs together (the per-field
        # read+groupby loop cost one full metadata scan per field).
        if field_cols:

            def _melt_keys(t: pa.Table) -> pa.Table:
                # group by the POSTING KEY (field + '\x01' +
                # lowercased word), not the raw value: 'EN' and 'en'
                # map to the same lang\x01en posting, so their dfs must
                # sum before the threshold test. Derivation + the
                # empty-value skip are shared with the tokenizer
                # (tokenize.field_posting_keys — the single source of
                # the field-key contract)
                from quickray.tokenize import field_posting_keys

                keys = []
                for f in field_cols:
                    k, keep = field_posting_keys(t[f], f)
                    if keep is not None:
                        k = k.filter(keep)
                    keys.append(k)
                return pa.table({"w": pa.concat_arrays(
                    [k.combine_chunks() if isinstance(k, pa.ChunkedArray)
                     else k for k in keys]
                )})

            frows = (
                sum_by_key(
                    rd.read_parquet(
                        docbase_dir, columns=list(field_cols) + ["kind"],
                        filter=pads.field("kind") == 0,
                    ).map_batches(_melt_keys, batch_format="pyarrow"),
                    "w", count_as="fdf",
                )
                .map_batches(
                    lambda t: t.filter(np.asarray(t["fdf"]) > threshold),
                    batch_format="pyarrow",
                )
                .take_all()
            )
            hot_terms.extend(r0["w"] for r0 in frows)
        hot_terms = sorted(set(hot_terms))
        stats = {
            "n_docs": n_docs,
            "total_tokens": total_tokens,
            "avgdl": avgdl,
            "hot_df_threshold": int(threshold),
            "hot_sample_mod": sample_mod,
            "hot_terms": hot_terms,
            "num_salts": num_salts,
            "num_shards": num_shards,
            "block_size": block_size,
            "langs": langs,
            "field_cols": field_cols,
        }
        with open(os.path.join(d, "stats.json"), "w") as f:
            json.dump(stats, f)
        man.mark_done("stats", with_files=False, elapsed=time.time() - t0,
                      counters={k: v for k, v in stats.items() if k != "hot_terms"})
    with open(stats_path) as f:
        stats = json.load(f)
    result.stats = stats
    result.phase_times["stats"] = time.time() - t0

    # ------------------------------------------------------- phase docmeta
    t0 = time.time()
    docmeta_dir = os.path.join(out_dir, "docmeta")
    if not man.phase_done("docmeta"):
        d = man.phase_dir("docmeta")
        avgdl = stats["avgdl"]

        def add_bits(t: pa.Table) -> pa.Table:
            from quickray.scoring import compute_bits

            t = t.drop_columns(["kind", "term", "partial_df"])
            bits = compute_bits(
                t["lang"].to_pylist(), t["path"].to_pylist(),
                np.asarray(t["doc_len"]), avgdl, langs,
            )
            return t.append_column("bits", pa.array(bits))

        rd.read_parquet(
            docbase_dir, filter=pads.field("kind") == 0
        ).map_batches(add_bits, batch_format="pyarrow").write_parquet(d)
        man.mark_done("docmeta", elapsed=time.time() - t0)
    result.phase_times["docmeta"] = time.time() - t0

    # -------------------------------------------------------- the shuffle
    # Tokenizer emits compressed per-batch posting runs (one row per
    # term per batch, delta+varint streams — ~10x smaller than the
    # exploded (term, doc, tf) rows).
    #
    # Two execution modes:
    #  - streaming (default): tokenize -> groupby(part) -> level-1 merge
    #    as ONE pipeline; Ray lineage re-executes failed tasks, resume
    #    granularity is the phase. Fastest.
    #  - durable_shuffle=True: the map side of the exchange is
    #    checkpointed to runs/ hive-partitioned by part, and both merge
    #    levels run as shuffle_chunks independently-manifested chunks
    #    over part/mpart ranges — a DRIVER/cluster restart resumes
    #    mid-shuffle, never re-tokenizing and never redoing a finished
    #    chunk. Costs one extra write+read of the compressed runs; the
    #    right default for multi-hour 10^12-file builds.
    hot_ref = ray.put(frozenset(stats["hot_terms"]))
    tok_kwargs = {
        "hot_ref": hot_ref,
        "n_docs": stats["n_docs"],
        "num_salts": num_salts,
        "emit_runs": True,
        "num_parts": num_parts,
        "rank_ref": rank_ref,
        "field_cols": field_cols,
    }

    def _runs_ds() -> "rd.Dataset":
        tok_cols = ["content"] + ([id_col] if not use_rank else ["repo", "path"])
        tok_cols += [f for f in field_cols if f not in tok_cols]
        ds = src.read(tok_cols)
        if not use_rank and id_col != "doc_id":
            ds = ds.rename_columns({id_col: "doc_id"})
        if tokenizer_concurrency:
            # actor-pool form (state in __init__); reserves its CPUs for
            # the phase — prefer task mode unless actors are required
            return ds.map_batches(
                Tokenizer,
                fn_constructor_kwargs=tok_kwargs,
                batch_format="pyarrow",
                batch_size=tokenizer_batch_size,
                concurrency=tokenizer_concurrency,
                num_cpus=1,
            )
        # task mode: per-worker cached state, dynamic scheduling shares
        # all CPUs with the overlapping shuffle/merge tasks
        from quickray.tokenize import make_run_tokenizer

        return ds.map_batches(
            make_run_tokenizer(out_dir, **tok_kwargs),
            batch_format="pyarrow",
            # larger batches -> fewer, longer runs per term -> fewer
            # shuffle rows (measured 2x on the postings phase); bound by
            # batch_size x doc size per task heap — lower it for corpora
            # of very large files
            batch_size=tokenizer_batch_size,
        )

    def _dl_bits_ref():
        dm = pq.read_table(docmeta_dir, columns=["doc_id", "doc_len", "bits"])
        order = np.asarray(dm["doc_id"])
        dl_arr = np.zeros(stats["n_docs"], dtype=np.int64)
        bits_arr = np.zeros(stats["n_docs"], dtype=np.int64)
        dl_arr[order] = np.asarray(dm["doc_len"])
        bits_arr[order] = np.asarray(dm["bits"])
        return ray.put((dl_arr, bits_arr))

    partials_dir = os.path.join(out_dir, "postings")
    if not durable_shuffle:
        # ---------------------------------- streaming postings + segments
        t0 = time.time()
        if not man.phase_done("postings"):
            d = man.phase_dir("postings")
            _runs_ds().groupby("part").map_groups(
                make_level1_merge(num_shards), batch_format="pyarrow"
            ).write_parquet(d)
            man.mark_done("postings", elapsed=time.time() - t0)
        result.phase_times["postings"] = time.time() - t0

        t0 = time.time()
        if not man.phase_done("segments"):
            d = man.phase_dir("segments")
            (
                rd.read_parquet(partials_dir)
                .groupby("mpart")
                .map_groups(
                    make_final_merge(
                        stats["n_docs"], stats["avgdl"], block_size,
                        _dl_bits_ref(),
                    ),
                    batch_format="pyarrow",
                )
                .write_parquet(d)
            )
            man.mark_done("segments", elapsed=time.time() - t0)
        result.phase_times["segments"] = time.time() - t0
    else:
        # ------------------------- durable runs + chunked merge levels
        t0 = time.time()
        runs_dir = os.path.join(out_dir, "runs")
        if not man.phase_done("runs"):
            d = man.phase_dir("runs")
            _runs_ds().write_parquet(d, partition_cols=["part"])
            man.mark_done("runs", elapsed=time.time() - t0)
        result.phase_times["runs"] = time.time() - t0

        # chunked merges run CONCURRENTLY from driver threads (each
        # chunk is its own Dataset pipeline; Ray interleaves their
        # tasks) — resume granularity stays per chunk, but the phase
        # barriers between chunks no longer serialize the wall clock
        # (sequential chunks measured ~2.5x streaming; concurrent close
        # the gap). Manifest writes are lock-serialized (checkpoint.py).
        from concurrent.futures import ThreadPoolExecutor

        t0 = time.time()

        def _make_postings_chunk(ci: int, lo: int, hi: int):
            """Plan one chunk SEQUENTIALLY (read_parquet path resolution
            imports optional fs modules — racy from threads); only the
            execution (write) runs in the pool."""
            pname = f"postings:{ci}"
            d = man.phase_dir(pname, subdir=os.path.join("postings", f"chunk_{ci}"))
            from ray.data.datasource.partitioning import PathPartitionFilter

            pf = PathPartitionFilter.of(
                lambda kv, lo=lo, hi=hi: lo <= int(kv["part"]) < hi,
                style="hive",
            )
            ds = (
                # partition_filter = true directory pruning: only this
                # chunk's part= dirs are even listed
                rd.read_parquet(runs_dir, partition_filter=pf)
                .groupby("part")
                .map_groups(make_level1_merge(num_shards), batch_format="pyarrow")
            )

            def run() -> None:
                _write_parquet_retry(ds, d)
                man.mark_done(pname, elapsed=time.time() - t0,
                              counters={"part_lo": lo, "part_hi": hi})

            return run

        p_runs = [
            _make_postings_chunk(ci, lo, hi)
            for ci, (lo, hi) in enumerate(_chunk_bounds(num_parts, shuffle_chunks))
            if not man.phase_done(f"postings:{ci}")
        ]
        if p_runs:
            with ThreadPoolExecutor(max_workers=len(p_runs)) as ex:
                list(ex.map(lambda r: r(), p_runs))
        result.phase_times["postings"] = time.time() - t0

        t0 = time.time()
        seg_chunks = _chunk_bounds(num_shards, shuffle_chunks)
        todo = [ci for ci in range(len(seg_chunks))
                if not man.phase_done(f"segments:{ci}")]
        if todo:
            dl_bits = _dl_bits_ref()

            def _make_segments_chunk(ci: int):
                lo, hi = seg_chunks[ci]
                pname = f"segments:{ci}"
                d = man.phase_dir(
                    pname, subdir=os.path.join("segments", f"chunk_{ci}")
                )
                ds = (
                    rd.read_parquet(
                        partials_dir,
                        filter=(pads.field("mpart") >= lo)
                        & (pads.field("mpart") < hi),
                    )
                    .groupby("mpart")
                    .map_groups(
                        make_final_merge(
                            stats["n_docs"], stats["avgdl"], block_size, dl_bits
                        ),
                        batch_format="pyarrow",
                    )
                )

                def run() -> None:
                    _write_parquet_retry(ds, d)
                    man.mark_done(pname, elapsed=time.time() - t0,
                                  counters={"mpart_lo": lo, "mpart_hi": hi})

                return run

            s_runs = [_make_segments_chunk(ci) for ci in todo]
            with ThreadPoolExecutor(max_workers=len(s_runs)) as ex:
                list(ex.map(lambda r: r(), s_runs))
        result.phase_times["segments"] = time.time() - t0
    stats["vocab_size"] = _segment_row_count(os.path.join(out_dir, "segments"))
    with open(stats_path, "w") as f:
        json.dump(stats, f)
    return result
