"""Build manifest: per-phase checkpoints, lineage and counters.

The reference's only recovery story is "replay the whole forward index
into RAM on restart" (index_service/indexer.go:42-58) — no mid-build
resume. The north rule demands better: every phase of the build writes
its output to its own directory, then records (atomically: tmp file +
rename) the file list, per-file row counts (read back from parquet
footers — no extra compute pass) and counters into ``manifest.json``.
A rerun of ``build_index`` with the same output dir and an unchanged
input fingerprint skips completed phases; an incomplete phase's partial
output is discarded and the phase reruns. Partition-level skip within a
phase comes for free for phases whose input is a completed phase's
parquet (Ray re-reads only what the phase consumes).
"""

from __future__ import annotations

import json
import os
import shutil
import threading
import time
from typing import Any

import pyarrow.dataset as pads

MANIFEST = "manifest.json"


def parquet_file_stats(directory: str) -> tuple[list[dict[str, Any]], int]:
    """(per-file lineage records, total rows) from parquet footers only."""
    files = []
    total = 0
    dset = pads.dataset(directory, format="parquet")
    for frag in dset.get_fragments():
        rows = frag.metadata.num_rows if frag.metadata else frag.count_rows()
        size = os.path.getsize(frag.path)
        files.append({"path": os.path.relpath(frag.path, directory), "rows": rows, "bytes": size})
        total += rows
    return sorted(files, key=lambda f: f["path"]), total


class Manifest:
    def __init__(self, out_dir: str, fingerprint: str, executor: str | None = None):
        """``executor`` ("local" or "ray", build.py) is recorded in
        every phase this run finishes."""
        self.out_dir = out_dir
        self.executor = executor
        self.path = os.path.join(out_dir, MANIFEST)
        # chunked phases can complete from concurrent driver threads
        # (build_index runs durable-shuffle chunks in parallel): the
        # manifest dict + tmp-file rename must be serialized
        self._lock = threading.Lock()
        self.data: dict[str, Any] = {
            "fingerprint": fingerprint,
            "created_at": time.time(),
            "phases": {},
        }
        os.makedirs(out_dir, exist_ok=True)
        if os.path.exists(self.path):
            with open(self.path) as f:
                prev = json.load(f)
            if prev.get("fingerprint") == fingerprint:
                self.data = prev
            # fingerprint changed -> stale build; start over. Chunked
            # phases ("segments:3") live under the base name's dir.
            else:
                for name, rec in prev.get("phases", {}).items():
                    for rel in (rec.get("dir", name), *rec.get("extra_dirs", ())):
                        d = os.path.join(out_dir, rel.split("/")[0].split(":")[0])
                        if os.path.isdir(d):
                            shutil.rmtree(d)
                # persist the NEW (empty) manifest immediately: the
                # phase dirs are already gone, so if this run dies
                # before its first mark_done, a rerun under the OLD
                # fingerprint must not trust the stale all-done
                # manifest and skip into deleted outputs
                self._write()

    def phase_done(self, name: str) -> bool:
        ph = self.data["phases"].get(name)
        return bool(ph and ph.get("status") == "done")

    def phase_dir(
        self, name: str, subdir: str | None = None, extra_dirs: tuple = ()
    ) -> str:
        """Directory for a phase's output (``subdir`` for chunked phases
        whose name isn't a valid path, e.g. "segments:3" ->
        segments/chunk_3; ``extra_dirs``: more dirs the phase owns,
        whose files are not listed); wipes partial output of an
        unfinished phase so reruns are idempotent."""
        rel = subdir or name
        with self._lock:
            self.data["phases"].setdefault(name, {}).update(
                dir=rel, extra_dirs=list(extra_dirs)
            )
        for r in (rel, *extra_dirs):
            d = os.path.join(self.out_dir, r)
            if not self.phase_done(name) and os.path.isdir(d):
                shutil.rmtree(d)
            os.makedirs(d, exist_ok=True)
        return os.path.join(self.out_dir, rel)

    def mark_done(
        self,
        name: str,
        *,
        counters: dict[str, Any] | None = None,
        with_files: bool = True,
        elapsed: float | None = None,
    ) -> None:
        rec: dict[str, Any] = {
            "dir": name, **self.data["phases"].get(name, {}),
            "status": "done", "finished_at": time.time(),
        }
        if elapsed is not None:
            rec["elapsed_sec"] = round(elapsed, 3)
        if self.executor is not None:
            rec["executor"] = self.executor
        if counters:
            rec["counters"] = counters
        d = os.path.join(self.out_dir, rec["dir"])
        if with_files and os.path.isdir(d):
            files, rows = parquet_file_stats(d)
            rec["files"] = files
            rec["rows"] = rows
        with self._lock:
            self.data["phases"][name] = rec
            self._write()

    def counters(self, name: str) -> dict[str, Any]:
        return self.data["phases"].get(name, {}).get("counters", {})

    def _write(self) -> None:
        tmp = self.path + ".tmp"
        with open(tmp, "w") as f:
            json.dump(self.data, f, indent=1)
        os.replace(tmp, self.path)
