#!/usr/bin/env python3
"""quickray as a search engine on one machine: build, serve, upsert.

Run from the root of a quickray checkout:

    python3 perfbench/run.py --workload query_hot --seed 1 --seconds 15 --trace 0

Workloads (inputs are a pure function of --seed, see inputs.py):

  query_hot       closed loop, one client, Zipf terms over the 300
                  highest-df terms; the working set fits the posting LRU
  upsert_mix      batches of adds, updates and deletes: delta build,
                  DeltaEngine over the live view, fixed query batch

Every workload reports the same end-to-end metrics, the ones
BENCHMARK.json lists (README.md defines them per workload). The last
stdout line is one JSON object:
{"correct", "attempted", "failed", "metrics"}; ``--trace 1`` reports
the per-layer metrics instead and writes every span to
``.perfbench/trace-<workload>-<seed>.json``.
"""

from __future__ import annotations

import argparse
import json
import logging
import math
import os
import resource
import shutil
import statistics
import sys
import time

BUILD_PHASES = ("docids", "docbase", "stats", "docmeta", "postings", "segments")
HYDRATE_COLS = ("repo", "path", "lang")
# query_hot loads the index the way QueryEngineActor does by default:
# the 64 highest-df postings, widened to 256 MiB of decoded postings,
# which at this corpus size is the whole vocabulary
HOT_LOAD = {"preload_top_df": 64, "preload_bytes": 256 << 20}
CHECK_STRIDE = 37  # answers checked: every 37th query (cycles all shapes)
QUERY_STREAM = 20_000  # pre-generated query_hot queries (the loop wraps around)
RAY_TEMP = ".pbray"  # short: Ray's socket paths live under it
# Other tenants of a shared host change the speed of this process's core
# by up to twofold, for seconds to minutes at a time. Every stretch of
# queries is followed by the probe, a fixed pure-Python loop, and its
# latencies are scaled by PROBE_REF_S / (the probe's time): the time the
# queries would take at the speed where the probe takes PROBE_REF_S.
# Builds run in Ray's processes, which this probe does not follow. A
# delta build is bound by Ray's per-task overhead: the Ray probe, three
# small Ray Data jobs of fixed work, runs before and after each, which
# is scaled by RAY_PROBE_REF_S / (the Ray probe's mean time). The bulk
# build, mostly quickray's own work, and index loads are not scaled: no
# probe follows them.
PROBE_N = 300_000  # iterations of the probe loop
PROBE_REF_S = 0.020  # the probe's time at the reference speed
RAY_PROBE_REF_S = 0.18  # the Ray probe's time at the reference speed
# upsert_mix runs at least this many rounds, and times the hand-overs of
# these rounds only, so every commit gets the same number of tries at
# each batch
TIMED_ROUNDS = 3


def metric_units(kind: str) -> dict[str, str]:
    """name -> unit of BENCHMARK.json's ``end_to_end`` or ``per_layer``
    metrics, the ones a run reports, in order."""
    here = os.path.dirname(os.path.abspath(__file__))
    with open(os.path.join(here, "..", "BENCHMARK.json")) as f:
        return {m["name"]: m["unit"] for m in json.load(f)[kind]}


def ray_temp_dir() -> str | None:
    """Ray's session files inside the checkout. Its unix socket paths
    (<temp>/session_<date>_<pid>/sockets/plasma_store) must stay under
    107 bytes; from a checkout path too long for that, Ray's default
    temp dir is used instead."""
    path = os.path.join(os.getcwd(), RAY_TEMP)
    if len(path.encode()) + 70 > 107:
        print(f"perfbench: checkout path too long for Ray sockets under "
              f"{path}; using Ray's default temp dir", file=sys.stderr)
        return None
    return path


def _median(xs) -> float:
    return float(statistics.median(xs))


def _dir_bytes(path: str) -> int:
    return sum(
        os.path.getsize(os.path.join(d, f))
        for d, _, files in os.walk(path)
        for f in files
    )


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Run:
    """One benchmark run: Ray session, work directory, timings, tallies."""

    def __init__(self, args, scale, tracer):
        self.args = args
        self.scale = scale
        self.tracer = tracer
        self.work = os.path.join(
            os.getcwd(), ".perfbench", f"{args.workload}-{args.seed}-{os.getpid()}"
        )
        self.attempted = 0
        self.failed = 0
        self.builds: list[tuple[int, float, object]] = []  # (docs, s, result)
        # hand-overs that give build_docs_per_s and freshness_s: (unit
        # of work, documents, build s, s from built until queryable)
        self.handovers: list[tuple[object, int, float, float]] = []
        self.setups: list[float] = []
        self.probes: list[float] = []  # seconds of each speed probe
        self.ray_probes: list[float] = []  # mean seconds of each Ray probe pair
        self.lat: list[float] = []  # seconds per query
        self.lat_shape: list[str] = []
        # (first query, end, seconds serving): fixed-size spans of self.lat
        self.windows: list[tuple[int, int, float]] = []
        # the build whose output sizes are reported, and its input
        self.main_out = ""
        self.input_bytes = 0
        self.init_s = 0.0
        self.serve_rss_mb = 0.0  # peak RSS, read right after the measured phase
        self.notes: dict[str, object] = {}
        self.table = None  # the main corpus, as handed to the program
        # traced runs: where the measured phase starts
        self.measure_from = 0
        self.counts0: dict[str, int] = {}

    # -------------------------------------------------------- plumbing
    def path(self, *parts: str) -> str:
        return os.path.join(self.work, *parts)

    def init_ray(self) -> None:
        import ray

        t0 = time.perf_counter()
        ray.init(
            # one task at a time: parallel tasks on the cores of a shared
            # host wait for the slowest, so their timing follows the other
            # tenants; a 6k-doc build took as long on one Ray CPU as on
            # four
            num_cpus=1,
            include_dashboard=False,
            logging_level="ERROR",
            log_to_driver=False,
            object_store_memory=256 << 20,
            _temp_dir=ray_temp_dir(),
        )
        from ray.data import DataContext

        logging.getLogger("ray.data").setLevel(logging.WARNING)
        ctx = DataContext.get_current()
        ctx.enable_progress_bars = False
        ctx.print_on_execution_start = False

        @ray.remote
        def _warm() -> int:
            import quickray.build  # noqa: F401

            return 0

        ray.get(_warm.remote())
        # the first build of a session pays Ray Data's one-time start-up
        warm = self.corpus_parquet("warm", self.scale.warm_docs)
        self.build(warm, self.path("warm_idx"))
        self.init_s = time.perf_counter() - t0

    def build(self, source, out: str):
        """One hand-over to ``build_index``; returns (result, seconds)."""
        import quickray.build

        t0 = time.perf_counter()
        res = quickray.build.build_index(source, out)
        sec = time.perf_counter() - t0
        self.attempted += 1
        return res, sec

    def timed_build(self, source, out: str):
        """``build`` between two Ray probes; returns (result, seconds,
        seconds scaled to the reference speed)."""
        before = _ray_probe_s()
        res, sec = self.build(source, out)
        self.ray_probes.append((before + _ray_probe_s()) / 2)
        return res, sec, sec * RAY_PROBE_REF_S / self.ray_probes[-1]

    def corpus_parquet(self, name: str, n_docs: int) -> str:
        from quickray.corpus import ensure_corpus_parquet

        return ensure_corpus_parquet(self.path(name), n_docs, seed=self.args.seed)

    def to_ref(self) -> float:
        """Factor that scales query time measured just now to the
        reference speed (see PROBE_REF_S)."""
        self.probes.append(_probe_s())
        return PROBE_REF_S / self.probes[-1]

    def query(self, q, search, hydrate=None):
        """One closed-loop request: search, then hydrate the top-k."""
        tr = self.tracer
        t0 = time.perf_counter()
        try:
            if tr is None:
                ids, scores = search(q)
                meta = hydrate(ids, HYDRATE_COLS) if hydrate else None
            else:
                tr.qid = q.id
                ids, scores, meta = tr.span(
                    "query", _search_hydrate, search, hydrate, q
                )
                tr.qid = ""
        except Exception as e:  # counted, and the loop goes on
            print(f"query {q.id} failed: {e!r}", file=sys.stderr)
            self.failed += 1
            ids = scores = meta = None
        self.lat.append(time.perf_counter() - t0)
        self.lat_shape.append(q.id.split(":", 1)[0])
        self.attempted += 1
        return ids, scores, meta

    def serve(self, queries, start, n, search, hydrate, record,
              stride=CHECK_STRIDE) -> float:
        """Answer ``n`` queries of the stream from position ``start`` (the
        stream wraps around); return the seconds, scaled like their
        latencies to the reference speed. Every ``stride``-th query of
        the run goes to ``record`` (up to Scale.check_queries)."""
        lo = len(self.lat)
        t0 = time.perf_counter()
        for i in range(start, start + n):
            q = queries[i % len(queries)]
            ids, scores, meta = self.query(q, search, hydrate)
            if (len(self.lat) - 1) % stride == 0 and ids is not None:
                if len(record) < self.scale.check_queries:
                    record.append((q, ids, scores, meta))
        sec = time.perf_counter() - t0
        f = self.to_ref()
        self.lat[lo:] = [x * f for x in self.lat[lo:]]
        return sec * f

    def mark_measure(self) -> None:
        if self.tracer is not None:
            self.measure_from = len(self.tracer.spans)
            self.counts0 = dict(self.tracer.counts)

    def gate(self, bad: int, what: str) -> None:
        if bad:
            print(f"correctness: {bad} mismatches in {what}", file=sys.stderr)
        self.failed += bad

    # --------------------------------------------------------- metrics
    def end_to_end(self) -> dict[str, float]:
        """Medians over the run's repetitions: set-ups, the p50, p99 and
        rate of each fixed-size query window, and the units of work
        handed over to the build. Other tenants of a shared host slow
        everything in bursts of a few seconds; a median rides over a
        burst that hits a minority of the repetitions, while a slowdown
        of the program in most windows, or in most batches of a round,
        still shows. A unit of work handed over a fixed number of times
        counts with its fastest build and its fastest load: each lasts
        seconds, so a burst can hit most of a run's repeats, but seldom
        all of them."""
        wins = [(sorted(self.lat[a:b]), sec) for a, b, sec in self.windows]
        fastest = _fastest_per_unit(self.handovers)
        return {
            "setup_s": self.init_s + _median(self.setups),
            "build_docs_per_s": _median([d / b for d, b, _ in fastest]),
            "freshness_s": _median([b + r for _, b, r in fastest]),
            "index_bytes_per_input_byte": _index_bytes(self.main_out) / self.input_bytes,
            "query_p50_ms": 1e3 * _median([_median(lat) for lat, _ in wins]),
            "query_p99_ms": 1e3 * _median([_quantile(lat, 0.99) for lat, _ in wins]),
            "query_qps": _median([len(lat) / sec for lat, sec in wins]),
            "serve_rss_mb": self.serve_rss_mb,
        }


def _search_hydrate(search, hydrate, q):
    ids, scores = search(q)
    return ids, scores, (hydrate(ids, HYDRATE_COLS) if hydrate else None)


def _probe_s() -> float:
    """Seconds of the speed probe, a fixed pure-Python loop (interpreter
    work, like most of a query's): the fastest of three."""
    best = math.inf
    for _ in range(3):
        t0 = time.perf_counter()
        acc = 0
        for i in range(PROBE_N):
            acc += i * i
        best = min(best, time.perf_counter() - t0)
    return best


def _double(batch):
    import numpy as np

    return {"x": np.sort(batch["id"] * 2)}


def _ray_probe_s() -> float:
    """Seconds of the Ray probe: three small Ray Data jobs of fixed work.
    They pass through the task scheduling, object store and worker
    process a build passes through, and run none of quickray's code."""
    import ray

    t0 = time.perf_counter()
    for _ in range(3):
        ray.data.range(4000, override_num_blocks=2).map_batches(_double).materialize()
    return time.perf_counter() - t0


def _fastest_per_unit(handovers) -> list[tuple[int, float, float]]:
    """(documents, fastest build s, fastest built-to-queryable s) of each
    unit of work in ``handovers``."""
    best: dict[object, tuple[int, float, float]] = {}
    for unit, docs, build_s, ready_s in handovers:
        _, b, r = best.get(unit, (docs, math.inf, math.inf))
        best[unit] = (docs, min(b, build_s), min(r, ready_s))
    return list(best.values())


def _quantile(sorted_xs: list[float], p: float) -> float:
    """Nearest-rank quantile of an ascending list."""
    i = min(len(sorted_xs) - 1, max(0, int(round(p * len(sorted_xs))) - 1))
    return float(sorted_xs[i])


def _deadline(seconds: float):
    """until(): True once the run's measuring time is used up. A unit of
    work started before then runs to its end."""
    end = time.perf_counter() + seconds
    return lambda: time.perf_counter() >= end


# ---------------------------------------------------------- workloads
def _input_table(corpus_dir: str):
    import pyarrow.parquet as pq

    return pq.read_table(corpus_dir)


def _index_bytes(out: str) -> int:
    return _dir_bytes(os.path.join(out, "segments")) + _dir_bytes(
        os.path.join(out, "docmeta")
    )


def run_query_hot(run: Run) -> None:
    import numpy as np
    import ray

    import checks
    import inputs
    from quickray.engine import Index, LocalEngine
    from quickray.oracle import Oracle

    s = run.scale
    run.init_ray()
    # corpus, bulk build, serving load: the builds also give this
    # workload's build_docs_per_s and freshness_s
    for r in range(s.setup_reps):
        t0 = time.perf_counter()
        corpus = run.corpus_parquet(f"corpus{r}", s.serve_docs)
        out = run.path(f"idx{r}")
        res, sec = run.build(corpus, out)
        t1 = time.perf_counter()
        ix = Index(out, **HOT_LOAD)
        eng = LocalEngine(ix)
        t2 = time.perf_counter()
        run.setups.append(t2 - t0)
        run.handovers.append(("bulk", s.serve_docs, sec, t2 - t1))
        run.builds.append((s.serve_docs, sec, res))
        if r + 1 < s.setup_reps:
            del eng, ix
            shutil.rmtree(out)
    # serving needs no Ray: its idle daemons would share the core with
    # the measured loop
    ray.shutdown()
    run.input_bytes = _dir_bytes(corpus)
    run.main_out = out
    table = run.table = _input_table(corpus)
    df = checks.doc_freqs(table)
    queries = inputs.query_stream(df, run.args.seed, QUERY_STREAM)

    run.mark_measure()
    until = _deadline(run.args.seconds)
    answers: list = []
    while not until() or len(run.lat) < s.window_queries:
        lo = len(run.lat)
        sec = run.serve(queries, lo, s.window_queries, eng.search, ix.hydrate,
                        answers)
        run.windows.append((lo, len(run.lat), sec))
    run.serve_rss_mb = _peak_rss_mb()
    run.notes["load_s"] = [round(h[3], 4) for h in run.handovers]

    rng = np.random.default_rng([run.args.seed, 3])
    run.gate(checks.check_build(out, table, len(df), rng, 64), "build invariants")
    oracle = Oracle(table)
    run.gate(
        checks.check_answers(oracle, checks.oracle_keys(table), answers),
        "query answers",
    )


def run_upsert_mix(run: Run) -> None:
    import checks
    import inputs
    from quickray.delta import DeltaEngine
    from quickray.oracle import Oracle

    s = run.scale
    run.init_ray()
    _ray_probe_s()  # its first run pays Ray Data's start-up
    for r in range(s.setup_reps):  # corpus, main-index build
        t0 = time.perf_counter()
        corpus = run.corpus_parquet(f"corpus{r}", s.serve_docs)
        main = run.path(f"main{r}")
        run.build(corpus, main)
        run.setups.append(time.perf_counter() - t0)
        if r + 1 < s.setup_reps:
            shutil.rmtree(main)
    run.input_bytes = _dir_bytes(corpus)
    run.main_out = main
    table = run.table = _input_table(corpus)
    queries = inputs.query_stream(checks.doc_freqs(table), run.args.seed, s.batch_queries)
    stream = inputs.UpsertStream(table, run.args.seed, s.batch_docs)
    batches = [stream.next_batch() for _ in range(s.round_batches)]
    live = stream.live_table()

    run.mark_measure()
    until = _deadline(run.args.seconds)
    answers: list = []
    inits: list[float] = []
    deltas: list[str] = []
    # Rounds replay the same batch sequence from the main index alone,
    # so the live view a query meets does not grow with the speed of
    # the machine. A round's queries are one window.
    while not until() or len(run.windows) < TIMED_ROUNDS:
        for d in deltas:
            shutil.rmtree(d)
        deltas, deleted = [], set()
        lo, served = len(run.lat), 0.0
        for pos, batch in enumerate(batches):
            out = run.path(f"delta{len(run.builds)}")
            res, sec, sec_ref = run.timed_build(batch.docs, out)
            deltas.append(out)
            deleted.update(batch.deleted)
            t1 = time.perf_counter()
            eng = DeltaEngine([main], deltas, deleted)
            inits.append(time.perf_counter() - t1)
            if len(run.windows) < TIMED_ROUNDS:
                run.handovers.append((pos, batch.docs.num_rows, sec_ref, inits[-1]))
            run.builds.append((batch.docs.num_rows, sec, res))
            # the gate checks the first answers of the last batch
            answers = []
            served += run.serve(queries, 0, len(queries), eng.search, None,
                                answers, stride=1)
        run.windows.append((lo, len(run.lat), served))
    run.serve_rss_mb = _peak_rss_mb()
    run.notes["batches"] = len(run.builds)
    run.notes["delta_engine_init_s"] = [round(x, 4) for x in inits]

    run.attempted += 1
    run.gate(int(eng.n_docs != live.num_rows), "live document count")
    oracle = Oracle(live)
    run.gate(
        checks.check_keyed_answers(
            oracle, checks.oracle_keys(live),
            [(q, ids, sc) for q, ids, sc, _ in answers],
        ),
        "live-view answers",
    )


# ---------------------------------------------------------- per layer
def per_layer(run: Run) -> dict[str, float]:
    """Per-layer metrics of a traced run. Query-path numbers are per
    query served in the measured phase; build phases and index loads
    cover every build and load of the run."""
    from inputs import SHAPES

    tr = run.tracer
    since = run.measure_from
    m: dict[str, float] = {}
    for ph in BUILD_PHASES:
        m[f"build.{ph}_s"] = _median(
            [r.phase_times.get(ph, 0.0) for _, _, r in run.builds]
        )
    with open(os.path.join(run.main_out, "manifest.json")) as f:
        phases = json.load(f)["phases"]
    written = sum(fl["bytes"] for ph in phases.values() for fl in ph.get("files", []))
    m["build.postings_bytes"] = float(
        sum(fl["bytes"] for fl in phases.get("postings", {}).get("files", []))
    )
    m["checkpoint.bytes_written_per_input_byte"] = written / run.input_bytes
    m["tokenize.docs_per_s"] = tokenize_rate(run.table)

    n_q = max(1, tr.calls("query", since))
    self_t = tr.self_times(since)
    counts = {k: v - run.counts0.get(k, 0) for k, v in tr.counts.items()}
    m["codec.decode_calls"] = (
        tr.calls("codec.decode_postings", since) + tr.calls("codec.varint_decode", since)
    ) / n_q
    m["codec.decoded_postings"] = counts.get("codec.decoded_postings", 0) / n_q
    m["codec.decode_ms"] = 1e3 * (
        self_t["codec.decode_postings"] + self_t["codec.varint_decode"]
    ) / n_q
    loads = tr.durations("index.load")
    m["index.load_s"] = _median(loads) if loads else 0.0
    posting_calls = tr.calls("index.posting", since)
    m["index.posting_calls"] = posting_calls / n_q
    m["index.cache_hit_ratio"] = (
        1.0 - counts.get("index.posting_decodes", 0) / posting_calls
        if posting_calls else 0.0
    )
    m["index.df_of_calls"] = tr.calls("index.df_of", since) / n_q
    for name in ("index.df_of", "index.hydrate", "engine.candidates", "engine.score"):
        m[f"{name}_ms"] = 1e3 * self_t[name] / n_q
    m["wand.calls"] = tr.calls("wand", since) / n_q
    m["wand.self_ms"] = 1e3 * self_t["wand"] / n_q
    m["scoring.bm25_calls"] = tr.calls("scoring.bm25", since) / n_q
    m["scoring.bm25_values"] = counts.get("scoring.bm25_values", 0) / n_q
    for sh in SHAPES:
        xs = [x for x, s in zip(run.lat, run.lat_shape) if s == sh]
        m[f"shape.{sh}_p50_ms"] = 1e3 * _median(xs) if xs else 0.0
    upsert = run.args.workload == "upsert_mix"
    m["delta.build_s"] = _median([s for _, s, _ in run.builds]) if upsert else 0.0
    inits = tr.durations("delta.engine_init", since)
    m["delta.engine_init_s"] = _median(inits) if inits else 0.0
    m["delta.engine_init_last_s"] = inits[-1] if inits else 0.0
    searches = tr.durations("delta.search", since)
    m["delta.search_ms"] = 1e3 * _median(searches) if searches else 0.0
    return m


def tokenize_rate(table, seconds: float = 1.0) -> float:
    """Documents per second through ``Tokenizer(...)(batch)`` called
    directly in this process (no Ray), over 4096-row corpus batches."""
    import numpy as np
    import pyarrow as pa

    from quickray.tokenize import Tokenizer

    n = table.num_rows
    t = table.append_column("doc_id", pa.array(np.arange(n, dtype=np.int64)))
    tok = Tokenizer(n_docs=n, num_salts=8, emit_runs=True, num_parts=16)
    batches = [pa.Table.from_batches([b]) for b in t.to_batches(max_chunksize=4096)]
    docs, t0 = 0, time.perf_counter()
    while docs == 0 or time.perf_counter() - t0 < seconds:
        for b in batches:
            tok(b)
            docs += b.num_rows
    return docs / (time.perf_counter() - t0)


# ---------------------------------------------------------------- main
BODIES = {
    "query_hot": run_query_hot,
    "upsert_mix": run_upsert_mix,
}


def run_workload(args) -> dict:
    """Run one workload in this process; return the result object."""
    import ray

    import inputs

    tracer = None
    if args.trace:
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()
    run = Run(args, inputs.SCALES[args.scale], tracer)
    try:
        BODIES[args.workload](run)
        metrics = run.end_to_end()
        if tracer is not None:
            # the traced run's own end-to-end numbers: minus the untraced
            # ones, the tracing overhead
            layers = per_layer(run)
            layers.update({f"traced.{k}": v for k, v in metrics.items()})
            metrics = layers
            os.makedirs(".perfbench", exist_ok=True)
            tracer.dump(os.path.join(
                ".perfbench", f"trace-{args.workload}-{args.seed}.json"
            ))
    finally:
        if tracer is not None:
            tracer.uninstall()
        ray.shutdown()
        shutil.rmtree(run.work, ignore_errors=True)
        shutil.rmtree(RAY_TEMP, ignore_errors=True)
    report = {
        "workload": args.workload,
        "seed": args.seed,
        "queries": len(run.lat),
        "builds": len(run.builds),
        "error_rate": run.failed / max(1, run.attempted),
        "probe_ms_median": 1e3 * _median(run.probes) if run.probes else None,
        "ray_probe_ms_median": 1e3 * _median(run.ray_probes) if run.ray_probes else None,
        "build_s": [round(b, 4) for _, b, _ in run.builds],
        **run.notes,
    }
    print("report " + json.dumps(report), flush=True)
    units = metric_units("per_layer" if tracer else "end_to_end")
    if set(metrics) != set(units):
        raise RuntimeError(
            f"metrics computed and BENCHMARK.json differ: "
            f"{sorted(set(metrics) ^ set(units))}"
        )
    return {
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {
            k: {"value": float(metrics[k]), "unit": u} for k, u in units.items()
        },
    }


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=BODIES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--scale", default="full", help="input sizes (inputs.SCALES)")
    return ap.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "quickray", "__init__.py")):
        print("perfbench: run from the root of a quickray checkout "
              "(no quickray/ package here)", file=sys.stderr)
        return 2
    # the program under test is the checkout's own quickray, in this
    # process and in every Ray worker
    sys.path.insert(0, root)
    os.environ["PYTHONPATH"] = os.pathsep.join(
        p for p in (root, os.environ.get("PYTHONPATH")) if p
    )
    result = run_workload(args)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
