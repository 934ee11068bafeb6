"""Build manifest: per-phase checkpoints, lineage and counters.

The reference's only recovery story is "replay the whole forward index
into RAM on restart" (index_service/indexer.go:42-58) — no mid-build
resume. The north rule demands better: every phase of the build writes
its output to its own directories, then records (atomically: tmp file +
rename) the list of its table files, with bytes and row counts (read
back from parquet footers and Arrow IPC batch headers — no extra
compute pass), and counters into ``manifest.json``.
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

import pyarrow as pa
import pyarrow.parquet as pq

MANIFEST = "manifest.json"


def _table_rows(path: str) -> int | None:
    """Rows of a parquet or Arrow IPC (``.arrow``) file from its footer
    and batch headers; None for any other file."""
    if path.endswith(".parquet"):
        return pq.read_metadata(path).num_rows
    if path.endswith(".arrow"):
        with pa.memory_map(path) as f:
            r = pa.ipc.open_file(f)
            return sum(r.get_batch(i).num_rows for i in range(r.num_record_batches))
    return None


def table_file_stats(
    out_dir: str, dirs: tuple[str, ...]
) -> tuple[list[dict[str, Any]], int]:
    """(per-file lineage records, total rows) of the table files under
    the ``dirs`` of ``out_dir``, paths relative to ``out_dir``. Hidden
    and temp names are skipped, and so are non-table files (stats.json:
    the phase's counters hold its contents)."""
    files = []
    for rel in dirs:
        for root, _, names in os.walk(os.path.join(out_dir, rel)):
            for name in names:
                path = os.path.join(root, name)
                rows = None if name.startswith((".", "_")) else _table_rows(path)
                if rows is not None:
                    files.append({
                        "path": os.path.relpath(path, out_dir), "rows": rows,
                        "bytes": os.path.getsize(path),
                    })
    files.sort(key=lambda f: f["path"])
    return files, sum(f["rows"] for f in files)


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
        more dirs the phase owns, listed with it), recorded
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
        rec["files"], rec["rows"] = table_file_stats(
            self.out_dir, (rec["dir"], *rec.get("extra_dirs", ()))
        )
        self.data["phases"][name] = rec
        self._write()

    def _write(self) -> None:
        tmp = self.path + ".tmp"
        with open(tmp, "w") as f:
            json.dump(self.data, f, indent=1)
        os.replace(tmp, self.path)
