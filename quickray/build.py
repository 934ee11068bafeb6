"""The index-build pipeline (SURVEY.md §7.2/§7.4).

Phases (each a checkpointed Dataset pipeline, see checkpoint.Manifest):

  docids    KEY columns only (pruned read) -> rank-ordered key array
            (docids.rank_keys) -> small parquet artifact; broadcast via
            ray.put so every later stage stamps doc_id with a local C++
            hash probe. Content never shuffles for id assignment.
  docbase   THE one content pass: each tokenizer batch is tokenized
            once into doc_id + sha256(content) + doc_len (kind=0 rows)
            AND its compressed posting runs, content and field keys
            alike (kind=1 rows: term, min_doc, df, delta+varint doc
            ids, varint tfs) -> one combined table. The corpus itself
            is NOT rewritten, and no later phase reads content.
  stats     one driver scan of the docbase ids and lengths: n_docs /
            total_tokens / avgdl and the exact dense-id check; plus
            the EXACT hot set: terms whose summed run df exceeds the
            threshold (it only steers level-1 partitioning, never
            output), from a driver scan of the runs' term and df
            columns that sums only candidate terms (_hot_terms) —
            zero content or payload reads.
  docmeta   docbase + bits(lang, path, doc_len > avgdl) — the forward
            index (J1 analog); no content involved.
  postings  shuffle the checkpointed runs: one map assigns each run
            its salt and part = hash(term, salt) % num_parts from the
            hot set and n_docs -> groupby(part) -> vectorized partition
            merge -> one partial posting per (term, salt).
  segments  groupby(mpart = hash(term) % num_shards) over partials ->
            vectorized partition merge -> final posting segments (doc
            ids + tfs; doc_len and bits stay in docmeta) with BM25
            block-max metadata, dl looked up from a broadcast
            doc_id-indexed array (never shuffled).

Skew: hot terms (df > hot_df) are salted with contiguous doc_id-range
salts (salt = run_min_doc * S // N), spreading a hot term's runs over S
level-1 partitions so the largest shuffle partition stays bounded; the
merge phases re-sort decoded values by (group, doc_id), so correctness
never depends on run arrival order (SURVEY §7.4; merge.py).

Scale notes: the only all-to-all exchanges are the two run shuffles,
both over varint-compressed payloads pre-aggregated per batch; reads
prune columns; small sides (hot set, rank table, doc_len) are ray.put
broadcasts. The rank table bounds one build partition to ~10^8 docs
(docids.py); a 10^12-file corpus runs as many independent key-range
build partitions with doc_id offsets from a driver-side prefix sum.

Executors: every phase is written once against the few ``ray.data``
calls it needs, and one of two executors runs it.

  ray       Ray Data jobs (the caller initialises Ray).
  local     _LocalDataset: the same calls, run eagerly in the calling
            process over one in-memory Arrow table, broadcasts passed
            as plain values. No Ray job, and no ray.init needed.

The rule: a source of at most ``tokenizer_batch_size`` rows (a row
count free from parquet footers or the Table length) runs local. Such
an input is one tokenizer batch, which Ray runs serially anyway (one
task per map phase, kilobyte shuffles), so Ray would add only per-job
scheduling and object-store round trips (measured on one core of an
x86-64 VM: a 200-row upsert batch builds in ~0.15 s instead of ~0.85 s).
An unknown row count (a generic Ray Dataset) runs on Ray. Both
executors write the same segments, docmeta and statistics
(tests/test_executors.py).
"""

from __future__ import annotations

import glob
import hashlib
import json
import os
import time
from dataclasses import dataclass, field
from typing import Any

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.dataset as pads
import pyarrow.parquet as pq

import ray
import ray.data as rd

from quickray.checkpoint import MANIFEST, Manifest
from quickray.merge import make_final_merge, make_level1_merge
from quickray.schema import BATCH_RUN_SCHEMA, BLOCK_SIZE, LANGS
from quickray.tokenize import (
    batch_postings,
    encode_runs,
    flatten_tokens,
    rank_lookup,
    salt_runs,
)
from quickray.util import fetch, run_starts, sum_by_key



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
# kind=1 rows are the batch's posting runs (BATCH_RUN_SCHEMA), from the
# SAME tokenization the doc_len computation pays for: the build's one
# content pass, plus batch_docs, the doc count of the run's batch. The
# stats phase sums the run dfs for the hot set, and the postings phase
# salts and shuffles the runs
_DOC_COLS = ["doc_id", "repo", "path", "commit", "lang", "sha256", "doc_len"]
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
        *BATCH_RUN_SCHEMA,
        ("batch_docs", pa.int64()),
    ]
)


# per-worker cache of the rank table's binary-search view, keyed by
# the broadcast ObjectRef (unique per build); avoids rebuilding a
# million-entry probe per batch
_WORKER_RANK_NP: dict[str, "np.ndarray"] = {}


def _rank_probe(rank_ref) -> np.ndarray:
    """The rank table's probe view, cached per Ray worker; the local
    executor passes the table itself, probed once per build."""
    from quickray.tokenize import rank_probe_np

    key = rank_ref.hex() if isinstance(rank_ref, ray.ObjectRef) else None
    ranked_np = _WORKER_RANK_NP.get(key)
    if ranked_np is None:
        ranked_np = rank_probe_np(fetch(rank_ref))
        if key is not None:
            while len(_WORKER_RANK_NP) > 4:
                # oldest-only eviction (clear() thrashes concurrent
                # builds' rank tables)
                _WORKER_RANK_NP.pop(next(iter(_WORKER_RANK_NP)))
            _WORKER_RANK_NP[key] = ranked_np
    return ranked_np


def _make_docbase_fn(rank_ref, id_col_present: bool, field_cols: list[str]):
    def to_docbase(t: pa.Table) -> pa.Table:
        if id_col_present:
            doc_id = t["doc_id"]
            if isinstance(doc_id, pa.ChunkedArray):
                doc_id = doc_id.combine_chunks()
        else:
            doc_id = rank_lookup(t, None, _rank_probe(rank_ref))
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
        # ONE tokenization serves both doc_len and the posting runs
        flat, parents = flatten_tokens(t["content"])
        n = t.num_rows
        if doc_id.null_count or len(pc.unique(doc_id)) < n:
            # the stats phase rejects null or repeated ids with the id
            # column named; encoding their runs would fail first
            runs = BATCH_RUN_SCHEMA.empty_table()
        else:
            runs = encode_runs(
                batch_postings(t, doc_id, flat, parents, field_cols)
            )
        docs = pa.table(
            {
                "doc_id": doc_id,
                "repo": t["repo"],
                "path": t["path"],
                "commit": t["commit"],
                "lang": t["lang"],
                "sha256": pa.array(digests, pa.string()),
                "doc_len": np.bincount(np.asarray(parents), minlength=n),
                "kind": pa.array(np.zeros(n, np.int32)),
            }
        )
        runs = runs.append_column(
            "kind", pa.array(np.ones(runs.num_rows, np.int32))
        ).append_column("batch_docs", pa.array(np.full(runs.num_rows, n)))
        return pa.concat_tables(
            [docs, runs], promote_options="default"
        ).cast(_DOCBASE_SCHEMA)

    return to_docbase


def _make_salt_fn(hot_ref, n_docs: int, num_salts: int, num_parts: int):
    """Checkpointed batch runs -> salted RUN_SCHEMA runs (salt_runs)."""

    def salt(t: pa.Table) -> pa.Table:
        return salt_runs(t, fetch(hot_ref), n_docs, num_salts, num_parts)

    return salt


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


class _LocalDataset:
    """The local executor: the slice of ``ray.data`` that build_index
    calls, run eagerly in this process over one in-memory Arrow table.
    The class stands in for the ``ray.data`` module too
    (``read_parquet``, ``from_arrow``). Inputs are at most one
    tokenizer batch, so ``map_batches`` hands ``fn`` the whole table as
    one batch; Ray's scheduling options are accepted and ignored."""

    def __init__(self, table: pa.Table, group_key: str | None = None):
        self.table = table
        self.group_key = group_key

    @classmethod
    def from_arrow(cls, table: pa.Table) -> "_LocalDataset":
        return cls(table)

    @classmethod
    def read_parquet(
        cls, path: str, columns=None, filter=None, partition_filter=None
    ) -> "_LocalDataset":
        """Every ``*.parquet`` under ``path`` with hive partition
        columns, as Ray reads it; ``partition_filter`` is Ray's
        PathPartitionFilter, called on the file paths."""
        files = (
            sorted(glob.glob(os.path.join(path, "**", "*.parquet"), recursive=True))
            if os.path.isdir(path)
            else [path]
        )
        if partition_filter is not None:
            files = partition_filter(files)
        if not files:
            return cls(pa.table({}))
        dset = pads.dataset(
            files, format="parquet", partitioning="hive", partition_base_dir=path
        )
        return cls(dset.to_table(columns=columns, filter=filter))

    def map_batches(self, fn, *, fn_constructor_kwargs=None, **_ray_options):
        if isinstance(fn, type):  # the actor-pool (callable class) form
            fn = fn(**(fn_constructor_kwargs or {}))
        return _LocalDataset(fn(self.table.combine_chunks()))

    def groupby(self, key: str) -> "_LocalDataset":
        return _LocalDataset(self.table, key)

    def map_groups(self, fn, **_ray_options) -> "_LocalDataset":
        t = self.table
        if t.num_rows == 0:  # the merges return their empty schema
            return _LocalDataset(fn(t))
        t = t.sort_by(self.group_key).combine_chunks()
        starts = run_starts(t[self.group_key])
        ends = np.append(starts[1:], t.num_rows)
        return _LocalDataset(pa.concat_tables(
            [fn(t.slice(a, b - a)) for a, b in zip(starts, ends)]
        ))

    def rename_columns(self, names: dict[str, str]) -> "_LocalDataset":
        return _LocalDataset(self.table.rename_columns(
            [names.get(c, c) for c in self.table.column_names]
        ))

    def sort(self, key: str) -> "_LocalDataset":
        return _LocalDataset(self.table.sort_by(key))

    def take_all(self) -> list[dict]:
        return self.table.to_pylist()

    def write_parquet(self, path: str, partition_cols=None) -> None:
        if partition_cols:
            pq.write_to_dataset(self.table, path, partition_cols=partition_cols)
        else:
            pq.write_table(self.table, os.path.join(path, "0.parquet"))


def _hot_terms(docbase_dir: str, n_docs: int, threshold: int) -> list:
    """The sorted terms whose df exceeds ``threshold``, exactly: each
    term's df is the sum of its batch runs' dfs, content and field keys
    alike (a field value held by more docs than the threshold, e.g.
    lang\x01en, is salted like any hot term). A term can be hot only if
    one of its runs holds more than the threshold's share of its batch
    (df_b / n_b > T / N): were every run at or below it, the dfs would
    sum to at most T. So a driver scan of the runs' term, df and
    batch_docs columns (never their payloads) picks those candidates,
    a few per batch, and only their runs are summed (util.sum_by_key,
    over the local executor: a few thousand rows, where a Ray sort of
    every (term, batch) row cost ~3 s at 100k docs on one core)."""
    runs = pads.dataset(docbase_dir, format="parquet")
    kind1 = pads.field("kind") == 1
    candidates = set()
    for b in runs.to_batches(columns=["term", "df", "batch_docs"],
                             filter=kind1):
        keep = np.asarray(b.column(1)) * n_docs > threshold * np.asarray(
            b.column(2)
        )
        candidates.update(pc.unique(pc.filter(b.column(0), keep)).to_pylist())
    sums = sum_by_key(
        _LocalDataset(runs.to_table(
            columns=["term", "df"],
            filter=kind1 & pads.field("term").isin(
                pa.array(sorted(candidates), pa.string())
            ),
        )),
        "term", sums=[("df", "df")],
    ).table
    hot = sums.filter(pc.greater(sums["df"], threshold))["term"]
    return sorted(hot.to_pylist())


# the source columns a build reads besides ``id_col``: docbase reads
# them all, and field_cols are a subset
_BUILD_COLS = ("repo", "path", "commit", "lang", "content")


class _Source:
    """Uniform column-pruned reader over the three accepted source
    forms (parquet path, pyarrow Table, ray Dataset)."""

    generic = False  # a Ray Dataset: fingerprint covers only the schema

    def __init__(self, source, id_col: str | None = None):
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
            # dir) and every column the build reads (a changed lang or
            # id_col must not resume into the old bits or doc ids):
            # per-row sha256 over memoryview slices of the Arrow value
            # buffers (digest_slices — no per-row Python objects; hashes
            # at memory bandwidth, and an in-memory Table source is by
            # definition node-sized)
            from quickray.util import digest_slices

            h = hashlib.sha256()
            n = source.num_rows
            for col in _BUILD_COLS + ((id_col,) if id_col else ()):
                if col in source.column_names:
                    h.update(digest_slices(source[col], "sha256", 8))
            self.fingerprint = (
                f"table:rows={n}:schema={source.schema.names}"
                f":sha={h.hexdigest()[:16]}"
            )
        else:
            # a generic Dataset cannot be content-fingerprinted without
            # executing it: this covers only the schema, so build_index
            # refuses to resume one into an existing build without an
            # explicit fingerprint=
            self.generic = True
            self.fingerprint = f"dataset:{source.schema().names}"

    def read(self, cols: list[str], data=rd) -> "rd.Dataset":
        """The ``cols`` of the source on an executor (``data``: the
        ``ray.data`` module or _LocalDataset)."""
        if isinstance(self.raw, str):
            return data.read_parquet(self.raw, columns=cols)
        if isinstance(self.raw, pa.Table):
            return data.from_arrow(self.raw.select(cols))
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
        length); None for generic Datasets (build_index then takes the
        Ray executor and the scale-safe layout rather than force an
        execution)."""
        if isinstance(self.raw, str):
            try:
                return pads.dataset(self.raw, format="parquet").count_rows()
            except (OSError, pa.ArrowInvalid):
                return None
        if isinstance(self.raw, pa.Table):
            return self.raw.num_rows
        return None


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
    tokenizer_batch_size: int = 4096,
    block_size: int = BLOCK_SIZE,
    fingerprint: str | None = None,
    field_cols: list[str] | None = None,
) -> BuildResult:
    """Run (or resume) the full index build. A source of at most
    ``tokenizer_batch_size`` rows builds in this process with no Ray job
    (the local executor, see the module docstring); above that, or for
    a generic Ray Dataset, Ray must be initialised by the caller (never
    calls ray.init itself). ``fingerprint`` overrides
    the source identity (callers that know a stronger content signature,
    e.g. build_partitioned's per-partition data signature).

    ``field_cols`` additionally indexes the named metadata columns as
    field-scoped keywords (reference parity: Keyword{Field, Word},
    demo/job/build_index.go:114-127; posting key field + "\\x01" +
    lower(value), gen/document.go:5) — one tf=1 posting per doc per
    field, queryable as Term(word, field=f). Must be a subset of the
    metadata columns the docbase pass reads anyway (repo, path, commit,
    lang): it emits the field runs beside the content runs, so field
    keys are salted by the same exact run-df sum."""
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
    src = _Source(source, id_col)
    if fingerprint is not None:
        src.fingerprint = fingerprint
    elif src.generic and os.path.exists(os.path.join(out_dir, MANIFEST)):
        # resuming would serve the stale index if the Dataset's data
        # changed under the same schema
        raise ValueError(
            f"{out_dir} already holds a build and a generic Ray Dataset"
            " source cannot be content-fingerprinted: pass fingerprint="
            " (e.g. a content hash), or a parquet path / pyarrow Table"
        )
    n_rows = src.count_rows()
    executor = (
        "local" if n_rows is not None and n_rows <= tokenizer_batch_size
        else "ray"
    )
    # the executor: ray.data plus ray.put broadcasts, or the same calls
    # in this process with broadcasts passed as values (util.fetch)
    data, put = (
        (_LocalDataset, lambda v: v) if executor == "local" else (rd, ray.put)
    )
    if num_parts is None or num_shards is None:
        auto = _auto_layout(n_rows)
        num_parts = auto if num_parts is None else num_parts
        num_shards = auto if num_shards is None else num_shards
    # layout-critical params join the fingerprint: resuming a build dir
    # with a different shuffle/segment layout must invalidate, never
    # silently mix chunk bounds (the partials/segments on disk encode
    # num_parts/num_shards/num_salts/block_size; field_cols change the
    # posting table's contents; langs change the docmeta BITS
    # encoding and id_col changes doc_id assignment semantics — a
    # resume under different values must rebuild, not silently serve
    # the stale index)
    layout = (
        f"|layout:parts={num_parts},shards={num_shards},salts={num_salts},"
        f"chunks={shuffle_chunks if durable_shuffle else 0},bs={block_size}"
        f",fields={'+'.join(field_cols)}"
        f",langs={'+'.join(langs)},id={id_col or 'rank'}"
        ",dbv=3"  # docbase schema v3 (kind=1 rows are posting runs)
        ",segv=2"  # segment format v2: doc ids + tfs per posting
    )
    man = Manifest(out_dir, src.fingerprint + layout, executor=executor)
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
        rank_ref = put(ranked)
        n_docs_expected = len(ranked)
    else:
        if not man.phase_done("docids"):
            man.phase_dir("docids")
            man.mark_done("docids", with_files=False, elapsed=time.time() - t0,
                          counters={"id_mode": f"column:{id_col}"})
        n_docs_expected = None
    result.phase_times["docids"] = time.time() - t0

    # ------------------------------------------------------ phase docbase
    # THE one content pass: each tokenizer batch is tokenized once into
    # its forward-index rows and its posting runs (kind column;
    # _DOCBASE_SCHEMA). No later phase reads content.
    t0 = time.time()
    docbase_dir = os.path.join(out_dir, "docbase")
    base_cols = list(_BUILD_COLS)
    if not use_rank:
        base_cols = [id_col] + base_cols
    if not man.phase_done("docbase"):
        d = man.phase_dir("docbase")
        ds = src.read(base_cols, data)
        if not use_rank and id_col != "doc_id":
            ds = ds.rename_columns({id_col: "doc_id"})
        ds.map_batches(
            _make_docbase_fn(rank_ref, not use_rank, field_cols),
            batch_format="pyarrow",
            # larger batches -> fewer, longer runs per term -> fewer
            # shuffle rows (measured 2x on the postings phase); bound by
            # batch_size x doc size per task heap — lower it for corpora
            # of very large files
            batch_size=tokenizer_batch_size,
        ).write_parquet(d)
        man.mark_done("docbase", elapsed=time.time() - t0,
                      counters={"id_mode": id_col or "rank(repo,path)"})
    result.phase_times["docbase"] = time.time() - t0

    # --------------------------------------------------------- phase stats
    t0 = time.time()
    stats_path = os.path.join(out_dir, "stats", "stats.json")
    if not man.phase_done("stats"):
        d = man.phase_dir("stats")
        # ONE driver scan of the docbase ids and lengths gives N, the
        # token total and the exact dense-id check
        docs = pads.dataset(docbase_dir, format="parquet")
        kind0 = pads.field("kind") == 0
        n_docs = docs.count_rows(filter=kind0)
        if n_docs == 0:
            # id_col path can't know emptiness before the docbase pass
            raise ValueError(
                "empty corpus: the source produced 0 docbase rows — "
                "nothing to index (check the source path/table)"
            )
        # min/max/count alone accept duplicates paired with gaps
        # ([0,2,2,3] passes), and so does any fixed set of moments
        # ([0,0,3,3] matches the id sum). Exact: the n ids all lie in
        # [0, n), so they mark every slot of an n-slot bitmap iff none
        # repeats. Duplicated ids would silently corrupt postings
        # (strict-increase breaks) and the dense doc_len/bits scatter
        # (last write wins)
        seen = np.zeros(n_docs, dtype=bool)
        total_tokens, lo, hi = 0, float("inf"), -float("inf")
        for b in docs.to_batches(columns=["doc_id", "doc_len"], filter=kind0):
            if b.num_rows == 0:
                continue
            if b.column(0).null_count:
                raise ValueError(f"null doc_ids in id column {id_col!r}")
            ids = b.column(0).to_numpy()
            total_tokens += int(np.asarray(b.column(1)).sum())
            lo, hi = min(lo, int(ids.min())), max(hi, int(ids.max()))
            seen[ids[(ids >= 0) & (ids < n_docs)]] = True
        if not (lo == 0 and hi == n_docs - 1):
            raise ValueError(
                f"doc_ids must be dense 0..N-1 (got min={lo} "
                f"max={hi} n={n_docs}); pass id_col=None to rank-assign"
            )
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
        # the exact hot set (_hot_terms): it only steers level-1
        # partitioning, never output
        hot_terms = _hot_terms(docbase_dir, n_docs, threshold)
        stats = {
            "n_docs": n_docs,
            "total_tokens": total_tokens,
            "avgdl": avgdl,
            "hot_df_threshold": int(threshold),
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

            t = t.drop_columns(["kind"])
            bits = compute_bits(
                t["lang"].to_pylist(), t["path"].to_pylist(),
                np.asarray(t["doc_len"]), avgdl, langs,
            )
            return t.append_column("bits", pa.array(bits))

        data.read_parquet(
            docbase_dir, columns=_DOC_COLS + ["kind"],
            filter=pads.field("kind") == 0,
        ).map_batches(add_bits, batch_format="pyarrow").write_parquet(d)
        man.mark_done("docmeta", elapsed=time.time() - t0)
    result.phase_times["docmeta"] = time.time() - t0

    # -------------------------------------------------------- the shuffle
    # The docbase runs are salted and assigned a level-1 part from the
    # hot set and n_docs, both known only now (one row per term per
    # batch, delta+varint streams — ~10x smaller than the exploded
    # (term, doc, tf) rows). Nothing is tokenized again.
    #
    # Two execution modes:
    #  - streaming (default): runs -> groupby(part) -> level-1 merge as
    #    ONE pipeline; Ray lineage re-executes failed tasks, resume
    #    granularity is the phase. Fastest.
    #  - durable_shuffle=True: the map side of the exchange is
    #    checkpointed to runs/ hive-partitioned by part, and both merge
    #    levels run as shuffle_chunks independently-manifested chunks
    #    over part/mpart ranges — a DRIVER/cluster restart resumes
    #    mid-shuffle, never redoing a finished chunk. Costs one extra
    #    write+read of the compressed runs; the right default for
    #    multi-hour 10^12-file builds.
    salt_fn = _make_salt_fn(
        put(pa.array(stats["hot_terms"], pa.string())),
        stats["n_docs"], num_salts, num_parts,
    )

    def _runs_ds() -> "rd.Dataset":
        return data.read_parquet(
            docbase_dir, columns=BATCH_RUN_SCHEMA.names + ["kind"],
            filter=pads.field("kind") == 1,
        ).map_batches(salt_fn, batch_format="pyarrow")

    def _dl_ref():
        dm = pq.read_table(docmeta_dir, columns=["doc_id", "doc_len"])
        dl_arr = np.zeros(stats["n_docs"], dtype=np.int64)
        dl_arr[np.asarray(dm["doc_id"])] = np.asarray(dm["doc_len"])
        return put(dl_arr)

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
                data.read_parquet(partials_dir)
                .groupby("mpart")
                .map_groups(
                    make_final_merge(
                        stats["n_docs"], stats["avgdl"], block_size,
                        _dl_ref(),
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
                data.read_parquet(runs_dir, partition_filter=pf)
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
            dl = _dl_ref()

            def _make_segments_chunk(ci: int):
                lo, hi = seg_chunks[ci]
                pname = f"segments:{ci}"
                d = man.phase_dir(
                    pname, subdir=os.path.join("segments", f"chunk_{ci}")
                )
                ds = (
                    data.read_parquet(
                        partials_dir,
                        filter=(pads.field("mpart") >= lo)
                        & (pads.field("mpart") < hi),
                    )
                    .groupby("mpart")
                    .map_groups(
                        make_final_merge(
                            stats["n_docs"], stats["avgdl"], block_size, dl
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
    stats["executor"] = executor
    with open(stats_path, "w") as f:
        json.dump(stats, f)
    return result
