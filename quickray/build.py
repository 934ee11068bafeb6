"""The index-build pipeline (SURVEY.md §7.2/§7.4).

Phases (each checkpointed, see checkpoint.Manifest):

  docids    KEY columns only (pruned read) -> rank-ordered key array
            (docids.rank_keys) -> small parquet artifact; broadcast via
            ray.put so every later stage stamps doc_id with a local C++
            hash probe. Content never shuffles for id assignment.
  docbase   THE one content pass: each tokenizer batch is tokenized
            once into doc_id + sha256(content) + doc_len + bits(lang,
            path) (kind=0 rows) AND its compressed posting runs, content
            and field keys alike (kind=1 rows: term, mpart = hash(term) %
            num_shards, min_doc, df, delta+varint doc ids, varint tfs) -> one
            combined table. The corpus itself is NOT rewritten, and no
            later phase reads content.
  docmeta   one driver read of the docbase doc rows writes them, sorted
            by doc_id, as docmeta (the forward index, J1 analog) and
            writes stats.json (n_docs / total_tokens / avgdl, exact
            dense-id check) — no Ray job, zero content or run reads.
  segments  THE one merge: groupby(mpart) over the docbase runs ->
            vectorized partition merge -> one segment file per merge
            group, segments/{mpart:05d}.parquet, written by the task
            that merges the group (doc ids + tfs; doc_len and bits stay
            in docmeta). It scores nothing and reads no docmeta or
            statistics. A rerun merges only the groups with no file.

Skew: a merge group holds every run of its terms, so the largest group
is the mpart that holds the hottest terms. Salting a hot term's runs
over partitions would not bound it: every posting of a term meets in
its one segment row. The merge orders terms by value and re-sorts
decoded values by (term, doc_id), so neither correctness nor a group
file's bytes depend on run arrival order (SURVEY §7.4; merge.py).

Scale notes: the only all-to-all exchange is the merge's run shuffle,
over varint-compressed payloads pre-aggregated per batch; reads prune
columns; the small side (the rank table) is a ray.put broadcast. The
merge writes from its tasks, so no segment data returns to the driver
(one summary row per group does). The driver holds the rank table and,
in the docmeta phase, the doc rows; that bounds one build partition to
~10^8 docs (docids.py); a 10^12-file corpus runs as many independent
key-range build partitions with doc_id offsets from a driver-side
prefix sum.

Executors: every data-parallel phase is written once against the few
``ray.data`` calls it needs, and one of two executors runs it.

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
executors run the same phase functions, the merge's group writer
included, and write the same segment and docmeta files, byte for byte
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
from quickray.merge import final_merge
from quickray.schema import (
    BATCH_RUN_SCHEMA,
    DOCMETA_SCHEMA,
    LANGS,
    group_file,
    group_files,
)
from quickray.scoring import compute_bits
from quickray.tokenize import (
    batch_postings,
    encode_runs,
    flatten_tokens,
    rank_lookup,
)
from quickray.util import fetch, run_starts


# docbase phase output: kind=0 rows are the per-doc forward-index rows
# (DOCMETA_SCHEMA), kind=1 rows are the batch's posting runs
# (BATCH_RUN_SCHEMA), from the SAME tokenization the doc_len computation
# pays for: the build's one content pass. The segments phase merges the runs
_DOCBASE_SCHEMA = pa.schema(
    [*DOCMETA_SCHEMA, ("kind", pa.int32()), *BATCH_RUN_SCHEMA]
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


def _make_docbase_fn(
    rank_ref, id_col_present: bool, field_cols: list[str], num_shards: int,
    langs: list[str],
):
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
        bits = compute_bits(t["lang"], t["path"], langs)
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
            # the docmeta phase rejects null or repeated ids with the id
            # column named; encoding their runs would fail first
            runs = BATCH_RUN_SCHEMA.empty_table()
        else:
            runs = encode_runs(
                batch_postings(t, doc_id, flat, parents, field_cols),
                num_shards,
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
                "bits": bits,
                "kind": pa.array(np.zeros(n, np.int32)),
            }
        )
        runs = runs.append_column(
            "kind", pa.array(np.ones(runs.num_rows, np.int32))
        )
        return pa.concat_tables(
            [docs, runs], promote_options="default"
        ).cast(_DOCBASE_SCHEMA)

    return to_docbase


def _make_group_writer(seg_dir: str):
    def write_group(t: pa.Table) -> pa.Table:
        """One merge group's runs -> its segment file, written under a
        hidden temp name and renamed into place; returns the group's
        one-row summary."""
        t0 = time.perf_counter()
        seg = final_merge(t)
        merge_s = time.perf_counter() - t0
        mpart = int(t["mpart"][0].as_py())
        path = os.path.join(seg_dir, group_file(mpart))
        tmp = os.path.join(seg_dir, f".{group_file(mpart)}.tmp")
        pq.write_table(seg, tmp)
        os.replace(tmp, path)
        return pa.table({
            "mpart": [mpart], "rows": [seg.num_rows],
            "bytes": [os.path.getsize(path)], "merge_s": [round(merge_s, 4)],
        })

    return write_group


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
    def read_parquet(cls, path: str, columns=None, filter=None) -> "_LocalDataset":
        """Every ``*.parquet`` under ``path`` with hive partition
        columns, as Ray reads it."""
        files = (
            sorted(glob.glob(os.path.join(path, "**", "*.parquet"), recursive=True))
            if os.path.isdir(path)
            else [path]
        )
        if not files:
            return cls(pa.table({}))
        dset = pads.dataset(
            files, format="parquet", partitioning="hive", partition_base_dir=path
        )
        return cls(dset.to_table(columns=columns, filter=filter))

    def map_batches(self, fn, **_ray_options):
        return _LocalDataset(fn(self.table.combine_chunks()))

    def groupby(self, key: str) -> "_LocalDataset":
        return _LocalDataset(self.table, key)

    def map_groups(self, fn, **_ray_options) -> "_LocalDataset":
        t = self.table
        if t.num_rows == 0:  # no group: fn is never called
            return self
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

    def take_all(self) -> list[dict]:
        return self.table.to_pylist()

    def write_parquet(self, path: str) -> None:
        pq.write_table(self.table, os.path.join(path, "0.parquet"))


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
    """Default merge-group count, one per 512 corpus rows: every group
    is one segment file, and every file costs a write at build time and
    an open at load time whatever its size (a 200-doc delta batch
    spread over 16 files took 7-10 ms to write against ~2 ms for one,
    and a DeltaEngine over main plus 4 such deltas loaded in 48 ms
    against 25 ms), while each group also pays a ~fixed task-spawn and
    sort-boundary cost (measured 6.7s at 256 groups vs 4.7s at 64 on a
    40k-doc / 32-cpu build). At 128k+ rows the count reaches the 256
    ceiling that balances hot-term merge stragglers. Unknown row count
    (generic Dataset source) takes the scale-safe ceiling. The resolved
    value joins the manifest layout fingerprint, so resuming the same
    corpus re-derives the same layout and a corpus-size change
    invalidates cleanly."""
    if n_rows is None:
        return ceiling
    return max(1, min(ceiling, n_rows // 512))


def build_index(
    source,
    out_dir: str,
    *,
    id_col: str | None = None,
    langs: list[str] | None = None,
    # None = auto-scale with the corpus row count (see _auto_layout):
    # 256 merge groups balance the final merge far better than 64 at
    # 1M+ docs (hot-term mparts stop being 4x stragglers: measured
    # segments phase 26s -> 16s at 1M docs / 16 cpus) but pay ~fixed
    # per-part shuffle spawn cost that dominates SMALL builds (measured
    # 6.7s @ 256 vs 4.7s @ 64 on 40k docs / 32 cpus); size these to
    # ~8-16x the worker count at cluster scale
    num_shards: int | None = None,
    tokenizer_batch_size: int = 4096,
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
    lang): it emits the field runs beside the content runs, and the
    one merge treats field keys like any term."""
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
    # the docbase runs carry their merge group, so the layout is fixed
    # before the content pass
    if num_shards is None:
        num_shards = _auto_layout(n_rows)
    # layout-critical params join the fingerprint: resuming a build dir
    # with a different layout must rebuild, never silently serve or
    # mix the stale index (the docbase runs' mpart and the segment
    # group files encode num_shards; field_cols change the posting
    # contents; langs change the docbase/docmeta bits encoding; id_col
    # changes doc_id assignment)
    layout = (
        f"|layout:shards={num_shards}"
        f",fields={'+'.join(field_cols)}"
        f",langs={'+'.join(langs)},id={id_col or 'rank'}"
        ",dbv=5"  # docbase schema v5 (kind=0 rows carry the doc-intrinsic bits)
        ",segv=4"  # segment format v4: one file per merge group, terms ascending
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
            _make_docbase_fn(rank_ref, not use_rank, field_cols, num_shards, langs),
            batch_format="pyarrow",
            # larger batches -> fewer, longer runs per term -> fewer
            # merge rows (measured 2x on the run merge); bound by
            # batch_size x doc size per task heap — lower it for corpora
            # of very large files
            batch_size=tokenizer_batch_size,
        ).write_parquet(d)
        man.mark_done("docbase", elapsed=time.time() - t0,
                      counters={"id_mode": id_col or "rank(repo,path)"})
    result.phase_times["docbase"] = time.time() - t0

    # ------------------------------------------------------- phase docmeta
    # ONE driver read of the docbase doc rows, sorted by doc_id, becomes
    # docmeta (in doc_id order, so its bytes do not depend on how the
    # docbase pass split its batches) and gives N, the token total and
    # the exact dense-id check for stats.json: the phase owns both
    t0 = time.time()
    stats_path = os.path.join(out_dir, "stats", "stats.json")
    if not man.phase_done("docmeta"):
        d = man.phase_dir("docmeta", extra_dirs=("stats",))
        dm = pads.dataset(docbase_dir, format="parquet").to_table(
            columns=DOCMETA_SCHEMA.names, filter=pads.field("kind") == 0
        )
        n_docs = dm.num_rows
        if n_docs == 0:
            # id_col path can't know emptiness before the docbase pass
            raise ValueError(
                "empty corpus: the source produced 0 docbase rows — "
                "nothing to index (check the source path/table)"
            )
        if dm["doc_id"].null_count:
            raise ValueError(f"null doc_ids in id column {id_col!r}")
        dm = dm.sort_by("doc_id")
        ids = np.asarray(dm["doc_id"])
        if not (ids[0] == 0 and ids[-1] == n_docs - 1):
            raise ValueError(
                f"doc_ids must be dense 0..N-1 (got min={ids[0]} "
                f"max={ids[-1]} n={n_docs}); pass id_col=None to rank-assign"
            )
        # min/max/count accept duplicates paired with gaps ([0,2,2,3]),
        # and so does any fixed set of moments ([0,0,3,3] matches the id
        # sum). Exact: sorted ids are a permutation of 0..N-1 iff they
        # equal 0..N-1. Duplicated ids would silently corrupt postings
        # (strict-increase breaks) and the dense doc_len/bits scatter
        if not np.array_equal(ids, np.arange(n_docs)):
            raise ValueError(
                f"doc_ids are not a permutation of 0..N-1 (duplicate ids"
                f" with matching gaps, id column {id_col!r}); pass"
                " id_col=None to rank-assign"
            )
        if n_docs_expected is not None and n_docs != n_docs_expected:
            raise ValueError(
                f"docbase rows ({n_docs}) != rank table size ({n_docs_expected})"
            )
        # sha256 is all but unique per doc: a dictionary only adds an
        # index per row (the 6k-doc perfbench corpus: 712 KB of docmeta
        # without one, 737 KB with)
        pq.write_table(
            dm.cast(DOCMETA_SCHEMA), os.path.join(d, "0.parquet"),
            use_dictionary=[c for c in DOCMETA_SCHEMA.names if c != "sha256"],
        )
        total_tokens = int(np.asarray(dm["doc_len"]).sum())
        avgdl = total_tokens / max(1, n_docs)
        stats = {
            "n_docs": n_docs,
            "total_tokens": total_tokens,
            "avgdl": avgdl,
            "num_shards": num_shards,
            "langs": langs,
            "field_cols": field_cols,
        }
        with open(stats_path, "w") as f:
            json.dump(stats, f)
        man.mark_done("docmeta", elapsed=time.time() - t0, counters=stats)
    with open(stats_path) as f:
        stats = json.load(f)
    result.stats = stats
    result.phase_times["docmeta"] = time.time() - t0

    # ------------------------------------------------------ phase segments
    # THE one merge, over the docbase runs (the durable map side of the
    # exchange). A group file lands whole (temp file, then rename) and
    # is a function of its runs alone, so a rerun after a kill merges
    # only the groups with no file and the index comes out identical.
    t0 = time.time()
    if not man.phase_done("segments"):
        d = os.path.abspath(man.phase_dir("segments", keep=True))
        todo = sorted(set(range(num_shards)) - group_files(d).keys())
        summaries = (
            data.read_parquet(
                docbase_dir, columns=BATCH_RUN_SCHEMA.names + ["kind"],
                filter=(pads.field("kind") == 1) & pads.field("mpart").isin(todo),
            )
            .groupby("mpart")
            .map_groups(_make_group_writer(d), batch_format="pyarrow")
            .take_all()
        )
        man.mark_done("segments", elapsed=time.time() - t0, counters={
            "groups": sorted(summaries, key=lambda g: g["mpart"])
        })
    result.phase_times["segments"] = time.time() - t0
    stats["vocab_size"] = man.data["phases"]["segments"]["rows"]
    stats["executor"] = executor
    with open(stats_path, "w") as f:
        json.dump(stats, f)
    return result
