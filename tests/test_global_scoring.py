"""Engines that score with corpus-global statistics — DeltaEngine's live
parts and PartitionedEngine's doc-shards — against the brute-force
Oracle over the same live corpus.

Every query is issued twice on the same engine: the first call fills
the scorer's contribution memo and the posting LRU, the second is
served from them; both must be rank-identical to the
Oracle with scores within 1e-9 relative. Every part prunes with the
block maxima its own scorer derives over its live docs, and answers
like exhaustive scoring, the Oracle and a rebuild. A dropped engine
must be freed with its memos by reference counting alone.
"""

import gc
import weakref

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pytest

from quickray import engine as engine_mod
from quickray import wand
from quickray.build import build_index
from quickray.corpus import generate_corpus
from quickray.delta import DeltaEngine
from quickray.engine import Index, LocalEngine, PartitionedEngine
from quickray.oracle import Oracle
from quickray.query import And, Or, Query, Term, collect_terms
from quickray.queryset import ABSENT

KS = (0, 1, 10, 100)
FLAGS = (
    {"on_flag": 1},
    {"off_flag": 1 << 8},
    {"or_flags": (0, 3)},
    {"on_flag": 2, "off_flag": 4},
    {"on_flag": 1 << 9},
    {"off_flag": 1 << 9},
)
BUILD = {"num_shards": 8}


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


def test_tombstoned_part_serves_index_postings(delta_case):
    """A part with tombstones serves the Index's own postings: the LRU's
    objects, dead docs included; the live mask alone removes the dead
    docs."""
    _, eng, live = delta_case["stages"][-1]
    tomb = delta_case["tomb"]
    main = eng.engines[0]  # main under its tombstones
    assert type(main.index) is Index
    assert main.live is not None and not main.live.all()
    oracle = Oracle(live)
    hot = sorted(oracle.df(), key=lambda t: (-oracle.df()[t], t))[:2]
    eng.search(Query(tree=Or((Term(tomb), *map(Term, hot))), k=10))
    p = main.index.posting(tomb)
    assert len(p.doc_ids) and not main.live[p.doc_ids].any()
    served = [t for t, v in main.index._cache.items() if v is not None]
    assert tomb in served
    for t in served:
        assert main.index.posting(t) is main.index._cache[t]


def test_dense_flat_or_leaves_live_unchanged(delta_case):
    """A flag-free flat OR above the dense gate on a tombstoned part
    selects among the live docs with a score: the doc filter it starts
    from is the part's stored live mask, which must not be written.
    Both answers are Oracle-identical."""
    _, eng, live = delta_case["stages"][-1]
    main = eng.engines[0]
    before = main.live.copy()
    oracle = Oracle(live)
    hot = sorted(oracle.df(), key=lambda t: (-oracle.df()[t], t))[:3]
    ps = [main.index.posting(t) for t in hot]
    assert engine_mod._dense_worth(sum(len(p.doc_ids) for p in ps),
                                   main.index.n_docs)
    q = Query(tree=Or(tuple(map(Term, hot))), k=10**6)
    _check_twice("dense-or", eng.search, oracle,
                 sorted(_keys(live).to_pylist()), [q])
    np.testing.assert_array_equal(main.live, before)


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


# ------------------------------------------------------ pruning parts
def _force(monkeypatch, side):
    if side == "prune":  # every query plan can prune is pruned
        monkeypatch.setattr(wand, "WORK_CUTOFF", 0)
        monkeypatch.setattr(wand, "PRUNE_SPAN", 1.0)
    else:
        monkeypatch.setattr(wand, "WORK_CUTOFF", 1 << 62)


def test_block_max_prunes_under_global_scorer(
    monkeypatch, delta_case, partitioned_case
):
    """With the prune side of wand.plan forced (work cutoff off, any
    kept span), the flat ORs of the delta and partitioned engines prune
    in every part that holds a query term, each part with the block
    maxima its own corpus-global scorer derives (over its live docs),
    and take the flag exit under a flag filter. Every answer equals
    exhaustive scoring and the Oracle."""
    _, delta, live = delta_case["stages"][-1]
    cases = [
        ("delta", delta, Oracle(live), sorted(_keys(live).to_pylist())),
        ("partitioned", partitioned_case["engine"], partitioned_case["oracle"],
         list(range(partitioned_case["oracle"].n_docs))),
    ]
    for name, eng, oracle, key_of in cases:
        ix = eng.engines[0].index
        n = ix.n_docs
        mids = [t for t in _content_terms(ix) if 2 < ix.df_of(t) < n // 4]
        hot = sorted(oracle.df(), key=lambda t: (-oracle.df()[t], t))[:2]
        trees = [Or(tuple(Term(t) for t in mids[:3])), Term(hot[0]),
                 Or((Term(hot[0]), Term(hot[1]), Term(mids[0])))]
        qs = [Query(tree=tr, k=k, **fl) for tr in trees for k in (1, 3, 10)
              for fl in ({}, {"off_flag": 1 << 8})]
        got = {}
        for side in ("exhaustive", "prune"):
            _force(monkeypatch, side)
            got[side] = [eng.search(q) for q in qs]
        pruned = 0
        for q, (keys, sc), (keys_e, sc_e) in zip(qs, got["prune"], got["exhaustive"]):
            eng.search(q)
            for part in eng.engines:
                held = any(part.index.df_of(t) for t in collect_terms(q.tree))
                path = part.last_path
                if not held:
                    assert path == ("exhaustive", "below cutoff"), (name, q)
                elif q.has_flags:
                    assert path == ("exhaustive", "flag filter"), (name, q)
                elif path[0] == "pruned":
                    pruned += 1
                else:  # fewer than k blocks: k=1 always prunes
                    assert path == ("exhaustive", "k above blocks"), (name, q, path)
                    assert q.k > 1, (name, q)
            assert keys.tolist() == keys_e.tolist(), (name, q)
            np.testing.assert_allclose(sc, sc_e, rtol=1e-9, atol=0)
        assert pruned >= len(trees)
        _check_twice(name, eng.search, oracle, key_of, qs)


def test_pruning_skips_tombstoned_block_maxima(monkeypatch, delta_case, tmp_path):
    """A tombstoned main doc holds its term's largest contribution (so
    the largest in its block), and every doc of the block with the next
    largest maximum is tombstoned too. Served with 8-posting blocks and
    pruning forced, the main part's block maxima skip the dead docs (the
    all-dead block's maximum is 0), its flat ORs prune, and every answer
    is (key, score)-identical to a rebuild of the live corpus."""
    monkeypatch.setattr(wand, "BLOCK_SIZE", 8)
    _force(monkeypatch, "prune")
    main = delta_case["main"]
    base = generate_corpus(240, seed=31)
    own = Index(main)
    term = next(t for t in _content_terms(own) if 48 <= own.df_of(t) <= 96)
    p = own.posting(term)
    bmax = own.scorer.blocks(term, p)[1]
    top, second = np.argsort(-bmax, kind="stable")[:2]
    c = own.scorer.contrib(term, p)
    star = int(p.doc_ids[np.argmax(c)])  # in block ``top``
    dead_block = p.doc_ids[second * 8:(second + 1) * 8]
    keys = own.keys_by_id()
    deleted = {k.decode() for k in keys[[star, *dead_block]]}

    eng = DeltaEngine([main], deleted_keys=deleted)
    part = eng.engines[0]
    assert not part.live[star] and not part.live[dead_block].any()
    c = part.scorer.contrib(term, p)
    blk = slice(top * 8, (top + 1) * 8)
    bm = part.scorer.blocks(term, p)[1]
    assert c[blk].max() == c[p.doc_ids == star][0] > bm[top] > 0
    assert bm[second] == 0.0

    live = _without(base, deleted)
    out = str(tmp_path / "rebuild")
    build_index(live, out, **BUILD)
    rb = LocalEngine(Index(out))
    rb_keys = rb.index.keys_by_id()
    other = next(t for t in _content_terms(own) if own.df_of(t) > own.df_of(term))
    for tree in (Term(term), Or((Term(term), Term(other)))):
        for k in (1, 2, 3, 5):  # at least 6 blocks per term
            q = Query(tree=tree, k=k)
            got_keys, got_sc = eng.search(q)
            assert part.last_path[0] == "pruned", (q, part.last_path)
            ids, want_sc = rb.search(q)
            want_keys = [x.decode() for x in rb_keys[ids]]
            assert got_keys.tolist() == want_keys, q
            np.testing.assert_allclose(got_sc, want_sc, rtol=1e-9, atol=1e-12)


def test_dropped_engines_free_without_gc(delta_case, partitioned_case):
    """An engine and everything it memoizes (scorer memos, live df,
    the indexes) is freed by reference counting alone once
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
            terms = _content_terms(ix)
            for q in _queries_of(terms[:40]):
                eng.search(q)
                eng.candidates(q)
            refs = [weakref.ref(x) for e in eng.engines
                    for x in (e, e.index, e.scorer)]
            del eng, ix
            assert not [r for r in refs if r() is not None]
    finally:
        gc.enable()
