"""Build manifest: per-phase checkpoints, lineage and counters.

The reference's only recovery story is "replay the whole forward index
into RAM on restart" (index_service/indexer.go:42-58) — no mid-build
resume. The north rule demands better: every phase of the build writes
its output to its own directory, then records (atomically: tmp file +
rename) the file list, per-file row counts (read back from parquet
footers — no extra compute pass) and counters into ``manifest.json``.
A rerun of ``build_index`` with the same output dir and an unchanged
input fingerprint skips completed phases; an incomplete phase's partial
output is discarded and the phase reruns, except where the phase keeps
its own finished files (the segments phase: one file per merge group,
so a rerun merges only the groups with no file).
"""

from __future__ import annotations

import json
import os
import shutil
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
            # fingerprint changed -> stale build; start over, finished
            # or not (phase_dir records a dir before its output lands)
            else:
                for name, rec in prev.get("phases", {}).items():
                    for rel in (rec.get("dir", name), *rec.get("extra_dirs", ())):
                        d = os.path.join(out_dir, rel)
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
        self, name: str, extra_dirs: tuple = (), keep: bool = False
    ) -> str:
        """Directory for an unfinished phase's output (``extra_dirs``:
        more dirs the phase owns, whose files are not listed), recorded
        in the manifest on disk before any output lands, so that a
        fingerprint change wipes it even after a kill mid-phase. Partial
        output is wiped so reruns are idempotent, unless ``keep``: the
        phase resumes from its own finished files."""
        self.data["phases"].setdefault(name, {}).update(
            dir=name, extra_dirs=list(extra_dirs)
        )
        self._write()
        for r in (name, *extra_dirs):
            d = os.path.join(self.out_dir, r)
            if not keep and os.path.isdir(d):
                shutil.rmtree(d)
            os.makedirs(d, exist_ok=True)
        return os.path.join(self.out_dir, name)

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
        self.data["phases"][name] = rec
        self._write()

    def _write(self) -> None:
        tmp = self.path + ".tmp"
        with open(tmp, "w") as f:
            json.dump(self.data, f, indent=1)
        os.replace(tmp, self.path)
