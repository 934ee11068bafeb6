"""Self-tests of the benchmark (not of quickray).

Run from the repository root:  python -m pytest perfbench -q
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
import subprocess
import sys
import types

import numpy as np
import pytest

import checks
import inputs
import run as bench
from quickray.corpus import generate_corpus
from quickray.oracle import Oracle
from quickray.query import Or, Query, Term

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RUN = os.path.join("perfbench", "run.py")
with open(os.path.join(ROOT, "BENCHMARK.json")) as _f:
    SPEC = json.load(_f)


def _units(kind: str) -> dict[str, str]:
    return {m["name"]: m["unit"] for m in SPEC[kind]}


def _bench(*args: str, cwd: str = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, RUN, *args], cwd=cwd, capture_output=True,
        text=True, timeout=300,
    )


def _result(proc: subprocess.CompletedProcess) -> dict:
    assert proc.returncode == 0, proc.stderr[-3000:]
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", list(bench.BODIES))
def test_tiny_run_prints_every_end_to_end_metric(workload):
    res = _result(_bench("--workload", workload, "--seed", "3", "--seconds",
                         "1", "--trace", "0", "--scale", "tiny"))
    assert set(res) == {"correct", "attempted", "failed", "metrics"}
    assert res["correct"] and res["failed"] == 0 and res["attempted"] >= 1
    assert {k: v["unit"] for k, v in res["metrics"].items()} == _units("end_to_end")
    assert all(v["value"] > 0 for v in res["metrics"].values())


def test_tiny_traced_run_prints_every_layer_metric():
    res = _result(_bench("--workload", "upsert_mix", "--seed", "3",
                         "--seconds", "1", "--trace", "1", "--scale", "tiny"))
    assert {k: v["unit"] for k, v in res["metrics"].items()} == _units("per_layer")
    # the layers upsert_mix runs were seen
    for name in ("delta.build_s", "delta.search_ms", "codec.decode_calls",
                 "scoring.bm25_calls", "index.load_s", "build.postings_s"):
        assert res["metrics"][name]["value"] > 0, name
    # the global-statistics live view never takes the block-max path
    assert res["metrics"]["wand.calls"]["value"] == 0
    with open(os.path.join(ROOT, ".perfbench", "trace-upsert_mix-3.json")) as f:
        trace = json.load(f)
    assert trace["fields"] == ["name", "start", "end", "parent", "query_id"]
    assert {s[0] for s in trace["spans"]} >= {"query", "delta.search", "build"}


def test_fails_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(os.path.join(ROOT, "perfbench"), tmp_path / "perfbench")
    proc = _bench("--workload", "query_hot", "--seed", "1", "--seconds", "1",
                  "--trace", "0", cwd=str(tmp_path))
    assert proc.returncode != 0
    assert "metrics" not in proc.stdout


# ------------------------------------------------ correctness counting
@pytest.fixture(scope="module")
def small():
    table = generate_corpus(60, seed=5)
    oracle = Oracle(table)
    keys = checks.oracle_keys(table)
    qs = inputs.query_stream(oracle.df(), seed=5, n=10)
    answers = []
    for q in qs:
        got = oracle.search(q)
        ids = np.array([d for d, _ in got], dtype=np.int64)
        meta = {
            "repo": [keys[d].split("\x01")[0] for d in ids],
            "path": [keys[d].split("\x01")[1] for d in ids],
        }
        answers.append((q, ids, np.array([s for _, s in got]), meta))
    return oracle, keys, answers


def _run_stub() -> "bench.Run":
    args = types.SimpleNamespace(workload="query_hot", seed=0, trace=0)
    return bench.Run(args, inputs.SCALES["tiny"], None)


def test_correct_answers_pass(small):
    oracle, keys, answers = small
    assert checks.check_answers(oracle, keys, answers) == 0


@pytest.mark.parametrize("corruption", ["rank", "score", "hydrate"])
def test_corrupted_answer_counts_in_error_rate(small, corruption):
    oracle, keys, answers = small
    q, ids, scores, meta = next(a for a in answers if len(a[1]) >= 2)
    ids, scores, meta = ids.copy(), scores.copy(), dict(meta)
    if corruption == "rank":
        ids[[0, 1]] = ids[[1, 0]]
    elif corruption == "score":
        scores[0] *= 1 + 1e-6
    else:
        meta["path"] = ["elsewhere"] + list(meta["path"][1:])
    run = _run_stub()
    run.attempted = len(answers)
    run.gate(checks.check_answers(oracle, keys, answers + [(q, ids, scores, meta)]),
             "corrupted")
    assert run.failed == 1


def test_failing_query_counts_in_error_rate():
    def broken(q):
        raise RuntimeError("boom")

    run = _run_stub()
    q = Query(tree=Or((Term("a"), Term("b"))), id="or:0")
    assert run.query(q, broken) == (None, None, None)
    assert (run.attempted, run.failed) == (1, 1)


def test_build_metrics_take_each_units_fastest_repeat():
    # (unit, docs, build s, built-to-queryable s): the fastest build and
    # the fastest load of a unit may come from different repeats
    handovers = [(0, 240, 2.0, 2.1), (1, 120, 1.0, 1.5), (0, 240, 1.5, 2.4),
                 (1, 120, 3.0, 1.2), (2, 60, 0.5, 0.6)]
    assert sorted(bench._fastest_per_unit(handovers)) == [
        (60, 0.5, 0.6), (120, 1.0, 1.2), (240, 1.5, 2.1)]


# ---------------------------------------------------- seeded inputs
def _inputs_digest(seed: int) -> str:
    """sha256 over everything a run hands the program: corpus bytes,
    query JSON and upsert batch contents."""
    table = generate_corpus(200, seed=seed)
    df = checks.doc_freqs(table)
    queries = inputs.query_stream(df, seed, 50)
    stream = inputs.UpsertStream(table, seed, 24)
    batches = [stream.next_batch() for _ in range(3)]
    h = hashlib.sha256()
    for c in table.column_names:
        h.update("\x00".join(table[c].to_pylist()).encode())
    h.update(json.dumps([q.to_json() for q in queries]).encode())
    for bt in batches:
        for c in bt.docs.column_names:
            h.update("\x00".join(bt.docs[c].to_pylist()).encode())
        h.update("\x00".join(bt.deleted).encode())
    return h.hexdigest()


def test_same_seed_same_inputs_other_seed_other_inputs():
    assert _inputs_digest(11) == _inputs_digest(11)
    assert _inputs_digest(11) != _inputs_digest(12)


def test_upsert_stream_live_corpus():
    table = generate_corpus(100, seed=4)
    stream = inputs.UpsertStream(table, 4, 30)
    deleted: set[str] = set()
    for _ in range(3):
        b = stream.next_batch()
        batch_keys = {inputs.key_of(r, p) for r, p in zip(
            b.docs["repo"].to_pylist(), b.docs["path"].to_pylist())}
        assert not batch_keys & deleted  # a deleted key never comes back
        deleted.update(b.deleted)
        assert not batch_keys & set(b.deleted)
    live = stream.live_table()
    assert live.num_rows == 100 + 3 * (15 - 5)
    assert not set(checks.oracle_keys(live)) & deleted
