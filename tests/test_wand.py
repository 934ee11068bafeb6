"""wand.plan, the up-front prune-or-score rule, and block_max_topk's two
paths on a 1,600-doc build (the local executor: no Ray job).

- theta0 never exceeds the exact k-th best score;
- forced-prune, forced-exhaustive and the Oracle agree on ranks and on
  scores within 1e-9 for single terms, flat ORs and flag-filtered ORs
  at every k;
- each of plan's exits, and the prune side, is reached for the reason
  it names, and every query leaves its path on the engine.

Each engine serves at the default block size and at a small one
(``wand.BLOCK_SIZE``, read when a scorer derives a term's block
maxima), so that k=100 has enough blocks to prune too.
"""

import numpy as np
import pytest

from quickray import wand
from quickray.build import build_index
from quickray.corpus import generate_corpus
from quickray.engine import Index, LocalEngine, Posting
from quickray.oracle import Oracle
from quickray.query import Or, Query, Term

KS = (0, 1, 10, 100)
FLAGS = ({"on_flag": 1}, {"off_flag": 1 << 8}, {"or_flags": (3,)})


@pytest.fixture(scope="module")
def corpus():
    return generate_corpus(1600, seed=21)


@pytest.fixture(scope="module")
def oracle(corpus):
    return Oracle(corpus)


@pytest.fixture(scope="module")
def built(corpus, tmp_path_factory):
    out = str(tmp_path_factory.mktemp("wand") / "idx")
    build_index(corpus, out)
    return out


@pytest.fixture(scope="module", params=[128, 8], ids=["bs128", "bs8"])
def engine(request, built):
    """A fresh engine (empty block-maxima memo) serving at the block
    size of the param for the lifetime of the fixture."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(wand, "BLOCK_SIZE", request.param)
        yield LocalEngine(Index(built))


def _pool(oracle, n=80):
    """The n highest-df terms, plus a mid-df stride."""
    by_df = sorted(oracle.df(), key=lambda t: (-oracle.df()[t], t))
    return by_df[:n] + by_df[n : 40 * n : 40]


def _force(monkeypatch, side):
    if side == "prune":  # every query plan can prune is pruned
        monkeypatch.setattr(wand, "WORK_CUTOFF", 0)
        monkeypatch.setattr(wand, "PRUNE_SPAN", 1.0)
    else:
        monkeypatch.setattr(wand, "WORK_CUTOFF", 1 << 62)


def _maxima(engine, terms):
    """Each nonempty query term's block maxima, from the engine's
    scorer, one per ``wand.BLOCK_SIZE`` postings."""
    ps = {t: engine.index.posting(t) for t in sorted(set(terms))}
    ps = {t: p for t, p in ps.items() if p is not None}
    bms = [engine.scorer.blocks(t, p)[1] for t, p in ps.items()]
    for p, bm in zip(ps.values(), bms):
        assert len(bm) == -(-len(p.doc_ids) // wand.BLOCK_SIZE)
    return bms


def test_theta0_lower_bounds_kth_score(engine, oracle, monkeypatch):
    _force(monkeypatch, "exhaustive")
    pool = _pool(oracle)
    rng = np.random.default_rng(5)
    checked = 0
    for _ in range(60):
        terms = [str(t) for t in rng.choice(pool, rng.integers(1, 5), replace=False)]
        bms = _maxima(engine, terms)
        k = int(rng.integers(1, max(len(bm) for bm in bms) + 1))
        theta0 = wand.theta_floor(bms, k)
        assert theta0 is not None  # some term has k blocks
        _, scores = engine.search(Query(tree=Or(tuple(map(Term, terms))), k=k))
        assert len(scores) == k
        assert theta0 <= scores[-1], (terms, k)
        checked += 1
    assert checked == 60
    assert wand.theta_floor(bms, 0) is None
    assert wand.theta_floor(bms, max(len(bm) for bm in bms) + 1) is None


def _queries(oracle, seed):
    rng = np.random.default_rng(seed)
    pool = _pool(oracle)
    out = []
    for r in range(6):
        a, b, c = (Term(str(t)) for t in rng.choice(pool, 3, replace=False))
        for k in KS:
            out += [
                Query(tree=a, k=k, id=f"term:{r}:{k}"),
                Query(tree=Or((a, b, c)), k=k, id=f"or:{r}:{k}"),
                Query(tree=Or((a, b)), k=k, id=f"flagged:{r}:{k}",
                      **FLAGS[r % len(FLAGS)]),
            ]
    return out


def test_forced_paths_match_oracle(engine, oracle, monkeypatch):
    queries = _queries(oracle, seed=8)
    got = {}
    for side in ("prune", "exhaustive"):
        _force(monkeypatch, side)
        got[side] = [engine.search(q) + (engine.last_path,) for q in queries]
    pruned = 0
    for q, (ids_p, sc_p, path_p), (ids_e, sc_e, path_e) in zip(
        queries, got["prune"], got["exhaustive"]
    ):
        want = oracle.search(q)
        want_ids = [d for d, _ in want]
        assert ids_p.tolist() == want_ids, (q.id, path_p)
        assert ids_e.tolist() == want_ids, q.id
        np.testing.assert_allclose(sc_p, [s for _, s in want], rtol=1e-9, atol=0)
        np.testing.assert_allclose(sc_e, [s for _, s in want], rtol=1e-9, atol=0)
        # both sides sum each doc's contributions in ascending term order
        assert np.array_equal(sc_p, sc_e), q.id
        assert path_e == ("exhaustive", "below cutoff") or q.k == 0, q.id
        shape = q.id.split(":")[0]
        deep = wand.theta_floor(_maxima(engine, [
            t.term for t in (q.tree.children if shape != "term" else (q.tree,))
        ]), q.k) is not None
        if q.k == 0:
            assert path_p == path_e == ("exhaustive", "k < 1"), q.id
        elif shape == "flagged":
            assert path_p == ("exhaustive", "flag filter"), q.id
        elif not deep:
            assert path_p == ("exhaustive", "k above blocks"), q.id
        else:
            assert path_p[0] == "pruned" and 0 < path_p[1] <= path_p[2], q.id
            pruned += 1
    assert pruned >= 12  # at least every unflagged k=1 query


def _posting(block_last, block_max, first=0):
    """A synthetic posting, one doc per id in [first, block_last[-1]],
    and its blocks as ``plan`` takes them."""
    doc_ids = np.arange(first, block_last[-1] + 1, dtype=np.int64)
    blocks = (np.asarray(block_last, np.int64), np.asarray(block_max, np.float64))
    return Posting(doc_ids, np.ones_like(doc_ids)), blocks


def _plan(postings, k, filtered, n_docs):
    """wand.plan over ``_posting`` pairs; also whether it fetched the
    block maxima."""
    fetched = []

    def blocks():
        fetched.append(True)
        return [b for _, b in postings]

    got = wand.plan([p for p, _ in postings], k, filtered, n_docs, blocks)
    return got, bool(fetched)


def test_plan_reasons(monkeypatch):
    n = 1 << 20
    peak = _posting([32, 65, 99], [1.0, 1.0, 5.0])  # keeps 34% of the span
    flat = _posting([32, 65, 99], [5.0, 5.0, 1.0])  # keeps 66%
    # the cheap exits never fetch a block maximum
    for k, filtered, why in ((0, False, "k < 1"), (1, False, "below cutoff")):
        got, fetched = _plan([peak], k, filtered, n)
        assert got[:2] == ("exhaustive", why) and not fetched
    # work is min(postings, n_docs): a tiny index never prunes
    monkeypatch.setattr(wand, "WORK_CUTOFF", 99)
    got, fetched = _plan([peak], 1, False, 99)
    assert got[:2] == ("exhaustive", "below cutoff") and not fetched
    got, fetched = _plan([peak], 1, True, n)
    assert got[:2] == ("exhaustive", "flag filter") and not fetched
    assert _plan([peak], 1, False, n)[0][0] == "prune"
    assert _plan([peak], 4, False, n)[0][:2] == ("exhaustive", "k above blocks")
    assert _plan([flat], 1, False, n)[0][:2] == ("exhaustive", "span")

    (path, why, (starts, ends)), fetched = _plan([peak], 1, False, n)
    assert (path, why) == ("prune", "bounds") and fetched
    assert starts.tolist() == [66] and ends.tolist() == [100]
    # a second term's blocks add to the bound where they overlap
    other = _posting([149], [4.5], first=50)
    (path, _, (starts, ends)), _ = _plan([peak, other], 1, False, n)
    assert path == "prune"
    assert starts.tolist() == [50, 66] and ends.tolist() == [66, 100]
    assert _plan([peak, other], 2, False, n)[0][:2] == ("exhaustive", "span")
