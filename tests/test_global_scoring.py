"""Engines that score with corpus-global statistics — DeltaEngine's live
parts and PartitionedEngine's doc-shards — against the brute-force
Oracle over the same live corpus.

Every query is issued twice on the same engine: the first call fills
the scorer's contribution memo (and DeltaEngine's masked-posting memo),
the second is served from them; both must be rank-identical to the
Oracle with scores within 1e-9 relative. Block-max pruning must never
run under a scorer that is not the index's own: its block bounds were
written under the index's own statistics. A dropped engine must be
freed with its memos by reference counting alone.
"""

import gc
import weakref

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pytest

from quickray import wand
from quickray.build import build_index
from quickray.corpus import generate_corpus
from quickray.delta import DeltaEngine
from quickray.engine import Index, LocalEngine, PartitionedEngine
from quickray.oracle import Oracle
from quickray.query import And, Or, Query, Term
from quickray.queryset import ABSENT

KS = (0, 1, 10, 100)
# doc-intrinsic flag bits only (language bits, test-path bit 8): bit 9
# (long doc) is relative to each build's own avgdl, so a part's bits
# differ from the live corpus's
FLAGS = (
    {"on_flag": 1},
    {"off_flag": 1 << 8},
    {"or_flags": (0, 3)},
    {"on_flag": 2, "off_flag": 4},
)
BUILD = {"num_salts": 1, "num_shards": 8, "num_parts": 8}


def _keys(tbl: pa.Table) -> pa.Array:
    return pc.binary_join_element_wise(
        tbl["repo"].combine_chunks(), tbl["path"].combine_chunks(), "\x01"
    )


def _without(tbl: pa.Table, keys) -> pa.Table:
    return tbl.filter(pc.invert(pc.is_in(
        _keys(tbl), value_set=pa.array(sorted(keys), pa.string())
    )))


def _shapes(a, b, c, d, flags):
    """One query tree of every shape, the last one flag-filtered."""
    ta, tb, tc, td = Term(a), Term(b), Term(c), Term(d)
    return [
        (ta, {}),
        (Or((ta, tb, tc)), {}),
        (And((ta, tb)), {}),
        (Or((And((ta, tb)), And((tc, td)))), {}),
        (Or((ta, tb, tc)), flags),
    ]


def _queries(oracle: Oracle, special: list[str], seed: int) -> list[Query]:
    """Seeded queries of every shape x every k over the hot and mid df
    range, plus each ``special`` term in every shape."""
    rng = np.random.default_rng(seed)
    pool = sorted(oracle.df(), key=lambda t: (-oracle.df()[t], t))[:60]
    out = []
    for r in range(4 + len(special)):
        a, b, c, d = (str(t) for t in rng.choice(pool, 4, replace=False))
        if r >= 4:
            a = special[r - 4]
        flags = FLAGS[r % len(FLAGS)]
        for tree, fl in _shapes(a, b, c, d, flags):
            out += [
                Query(tree=tree, k=k, id=f"r{r}:{len(out) + i}", **fl)
                for i, k in enumerate(KS)
            ]
    return out


def _queries_of(terms: list[str]) -> list[Query]:
    """Every shape and k over consecutive term windows."""
    out = []
    for i in range(0, len(terms) - 3, 4):
        for tree, fl in _shapes(*terms[i:i + 4], FLAGS[0]):
            out += [Query(tree=tree, k=k, **fl) for k in KS]
    return out


def _content_terms(ix: Index) -> list[str]:
    """Sorted content terms of an index (field keys excluded)."""
    return sorted(
        t for t in ix.df_table()["term"].to_pylist() if "\x01" not in t
    )


def _check_twice(name, search, oracle: Oracle, key_of, queries) -> None:
    for q in queries:
        want = oracle.search(q)
        want_keys = [key_of[d] for d, _ in want]
        want_sc = np.array([s for _, s in want], dtype=np.float64)
        first = None
        for call in ("miss", "hit"):
            keys, sc = search(q)
            msg = f"{name}/{call}: {q}"
            assert keys.tolist() == want_keys, msg
            np.testing.assert_allclose(sc, want_sc, rtol=1e-9, atol=0,
                                       err_msg=msg)
            if first is None:
                first = (keys.tolist(), sc)
            else:  # the memo hit returns exactly the miss's answer
                assert keys.tolist() == first[0], msg
                np.testing.assert_array_equal(sc, first[1], err_msg=msg)


# ------------------------------------------------------------------ delta
@pytest.fixture(scope="module")
def delta_case(tmp_path_factory):
    """main + an add batch + an update batch, then deletions that
    tombstone EVERY doc of one term (``tomb``)."""
    root = tmp_path_factory.mktemp("gdelta")
    base = generate_corpus(240, seed=31)
    adds = generate_corpus(40, seed=32)
    adds = adds.set_column(
        adds.schema.get_field_index("path"), "path",
        pc.binary_join_element_wise(
            pa.scalar("delta"), adds["path"].combine_chunks(), "/"
        ),
    )
    upd_rows = [3, 17, 40, 99]
    upd = base.take(np.asarray(upd_rows, np.int64))
    upd = upd.set_column(
        upd.schema.get_field_index("content"), "content",
        pa.array([c + " refreshed golang" for c in
                  upd["content"].to_pylist()], pa.string()),
    )

    # a term living only in a few untouched main docs: deleting them
    # leaves its main posting present but empty
    bo, ao = Oracle(base), Oracle(adds)
    keys = sorted(_keys(base).to_pylist())  # oracle doc_id -> key
    upd_keys = set(_keys(upd).to_pylist())
    tomb = next(
        t for t, docs in sorted(bo.postings.items())
        if 2 <= len(docs) <= 4 and t not in ao.postings
        and not {keys[d] for d in docs} & upd_keys
    )
    del_keys = {keys[d] for d in bo.postings[tomb]} | {keys[7], keys[120]}
    del_keys -= upd_keys

    main, add_dir, upd_dir = (str(root / n) for n in ("main", "add", "upd"))
    build_index(base, main, **BUILD)
    build_index(adds, add_dir, **BUILD)
    build_index(upd, upd_dir, **BUILD)
    stages = [
        ("add", DeltaEngine([main], [add_dir]),
         pa.concat_tables([base, adds])),
        ("update", DeltaEngine([main], [add_dir, upd_dir]),
         pa.concat_tables([_without(base, upd_keys), adds, upd])),
        ("delete", DeltaEngine([main], [add_dir, upd_dir], del_keys),
         pa.concat_tables([_without(base, upd_keys | del_keys), adds, upd])),
    ]
    return {"main": main, "deltas": [add_dir, upd_dir], "deleted": del_keys,
            "tomb": tomb, "stages": stages}


def test_delta_engine_twice_vs_oracle(delta_case):
    tomb = delta_case["tomb"]
    for name, eng, live in delta_case["stages"]:
        oracle = Oracle(live)
        assert eng.n_docs == oracle.n_docs
        if name == "delete":
            assert tomb not in oracle.postings
        key_of = sorted(_keys(live).to_pylist())
        queries = _queries(oracle, [tomb, ABSENT], seed=5)
        _check_twice(name, eng.search, oracle, key_of, queries)


def test_masked_postings_memoized_without_block_bounds(delta_case):
    _, eng, _ = delta_case["stages"][-1]
    tomb = delta_case["tomb"]
    mix = eng.engines[0].index  # main under its tombstones
    p = mix.posting(tomb)
    assert p is not None and len(p.doc_ids) == 0  # fully tombstoned
    assert mix.posting(tomb) is p
    masked = [t for t in mix._memo if mix._memo[t] is not mix._ix.posting(t)]
    assert masked  # some served term had tombstoned docs
    for t in masked:
        assert len(mix._memo[t].block_last) == 0
        assert len(mix._memo[t].block_max) == 0
    assert len(mix._memo) <= mix._cache_cap


# ------------------------------------------------------------ partitioned
@pytest.fixture(scope="module")
def partitioned_case(tmp_path_factory):
    """A corpus split into 3 contiguous key ranges, one build each, and
    a term present in some partitions but absent from another."""
    root = tmp_path_factory.mktemp("gparts")
    tbl = generate_corpus(300, seed=33)
    srt = tbl.take(pc.sort_indices(_keys(tbl)))
    cuts = [0, 100, 200, 300]
    dirs = []
    for i in range(3):
        dirs.append(str(root / f"p{i}"))
        build_index(srt.slice(cuts[i], cuts[i + 1] - cuts[i]), dirs[-1],
                    **BUILD)
    oracle = Oracle(tbl)
    eng = PartitionedEngine(dirs)
    gap = next(
        t for t in sorted(oracle.df(), key=lambda t: (-oracle.df()[t], t))
        if sorted(e.index.df_of(t) > 0 for e in eng.engines)
        == [False, True, True]
    )
    return {"dirs": dirs, "engine": eng, "oracle": oracle, "gap": gap}


def test_partitioned_engine_twice_vs_oracle(partitioned_case):
    eng, oracle = partitioned_case["engine"], partitioned_case["oracle"]
    key_of = list(range(oracle.n_docs))  # global doc_id == oracle id
    queries = _queries(oracle, [partitioned_case["gap"], ABSENT], seed=6)
    _check_twice("partitioned", eng.search, oracle, key_of, queries)


# ------------------------------------------------------ no foreign pruning
def test_block_max_never_prunes_under_foreign_scorer(
    monkeypatch, delta_case, partitioned_case
):
    """With the exhaustive cutoff off and k=1, block_max_topk attempts
    pruning (builds its theta pool) under an index's own scorer; the
    same flat OR on the delta and partitioned engines, whose scorers are
    not their indexes' own, must never reach that step."""
    pool_builds = []
    expand = wand._expand_blocks

    def spy(starts, ends):
        pool_builds.append(len(starts))
        return expand(starts, ends)

    monkeypatch.setattr(wand, "_expand_blocks", spy)
    monkeypatch.setattr(wand, "EXHAUSTIVE_CUTOFF", 0)

    cases = [
        (delta_case["main"], delta_case["stages"][-1][1]),
        (partitioned_case["dirs"][0], partitioned_case["engine"]),
    ]
    for own_dir, eng in cases:
        ix = Index(own_dir)
        n = ix.n_docs
        mids = [t for t in _content_terms(ix) if 2 < ix.df_of(t) < n // 4]
        q = Query(tree=Or(tuple(Term(t) for t in mids[:3])), k=1)

        pool_builds.clear()
        LocalEngine(ix).search(q)
        assert pool_builds, "pruning was not attempted under the own scorer"

        pool_builds.clear()
        for _ in range(2):
            eng.search(q)
        assert not pool_builds, "pruned under a foreign scorer"
        for part in eng.engines:
            assert part.scorer is not getattr(part.index, "scorer", None)


def test_dropped_engines_free_without_gc(delta_case, partitioned_case):
    """An engine and everything it memoizes (scorer memos, masked
    postings, the indexes) is freed by reference counting alone once
    dropped: no reference cycle may park it until a full collection,
    or every replaced DeltaEngine would linger with its memos."""
    make = [
        lambda: DeltaEngine([delta_case["main"]], delta_case["deltas"],
                            delta_case["deleted"]),
        lambda: PartitionedEngine(partitioned_case["dirs"]),
    ]
    gc.collect()
    gc.disable()
    try:
        for new in make:
            eng = new()
            ix = eng.engines[0].index
            terms = _content_terms(getattr(ix, "_ix", ix))
            for q in _queries_of(terms[:40]):
                eng.search(q)
                eng.candidates(q)
            refs = [weakref.ref(x) for e in eng.engines
                    for x in (e, e.index, e.scorer)]
            del eng, ix
            assert not [r for r in refs if r() is not None]
    finally:
        gc.enable()
