"""Set-algebra conformance — ports the reference's skiplist fixtures
(internal/reverse_index/test/skiplist_reverse_index_test.go:13-37, see
FIXTURES.md F5) plus randomized And/Or trees checked against the
brute-force oracle's set semantics. Every check runs on both sides of
the dense gate (forced by patching ``engine.DENSE_DIVISOR``): sorted
array intersection/union and doc-indexed boolean masks."""

import numpy as np
import pyarrow as pa
import pytest

from quickray import engine as engine_mod
from quickray.engine import LocalEngine, Posting
from quickray.oracle import Oracle
from quickray.query import And, Or, Query, Term


class FakeIndex:
    def __init__(self, postings: dict[str, list[int]], n_docs=100):
        self._p = postings
        self.n_docs = n_docs
        self.avgdl = 10.0

    def df_of(self, term):
        # the estimate that routes a tree to dense or sorted-array
        # evaluation
        return len(self._p.get(term, ()))

    def posting(self, term):
        ids = self._p.get(term)
        if ids is None:
            return None
        arr = np.array(ids, dtype=np.int64)
        return Posting(doc_ids=arr, tfs=np.ones(len(arr), dtype=np.int64))


L1 = [1, 4, 5, 7, 9, 11]
L2 = [2, 4, 5, 8, 9]
L3 = [3, 5, 7, 9]
ENGINE = LocalEngine(FakeIndex({"l1": L1, "l2": L2, "l3": L3}))
# patched divisors: every And/Or with a nonzero estimate is dense, or none
SIDES = (1 << 40, 0)


def cands(tree, eng=ENGINE):
    """The candidates of ``tree`` on both sides of the dense gate, which
    must agree."""
    got = []
    for div in SIDES:
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(engine_mod, "DENSE_DIVISOR", div)
            got.append(eng.candidates(Query(tree=tree)).tolist())
    assert got[0] == got[1], tree
    return got[0]


def test_reference_intersection_fixtures():
    assert cands(And((Term("l1"), Term("l2")))) == [4, 5, 9]
    assert cands(And((Term("l1"), Term("l2"), Term("l3")))) == [5, 9]
    assert cands(And((Term("l1"),))) == L1
    assert cands(And(())) == []


def test_reference_union_fixtures():
    assert cands(Or((Term("l1"), Term("l2")))) == [1, 2, 4, 5, 7, 8, 9, 11]
    assert cands(Or((Term("l1"), Term("l2"), Term("l3")))) == [1, 2, 3, 4, 5, 7, 8, 9, 11]
    assert cands(Or((Term("l1"),))) == L1
    assert cands(Or(())) == []


def test_absent_term_and_nesting():
    assert cands(Term("nope")) == []
    assert cands(And((Term("l1"), Term("nope")))) == []
    assert cands(Or((Term("nope"), Term("l3")))) == L3
    assert cands(Or((And((Term("l1"), Term("l2"))), And((Term("l3"), Term("nope")))))) == [4, 5, 9]
    assert cands(And((Or((Term("l1"), Term("l3"))), Term("l2")))) == [4, 5, 9]


def test_randomized_trees_vs_oracle():
    rng = np.random.default_rng(11)
    vocab = [f"t{i}" for i in range(12)]
    n_docs = 60
    postings = {
        t: sorted(rng.choice(n_docs, size=rng.integers(0, 30), replace=False).tolist())
        for t in vocab
    }
    postings = {t: v for t, v in postings.items() if v}
    # matching corpus for the oracle: doc i's content = its terms
    docs_terms = [[] for _ in range(n_docs)]
    for t, ids in postings.items():
        for d in ids:
            docs_terms[d].append(t)
    tbl = pa.table(
        {
            "repo": ["r"] * n_docs,
            "path": [f"{i:04d}" for i in range(n_docs)],
            "commit": ["c"] * n_docs,
            "lang": ["go"] * n_docs,
            "content": [" ".join(sorted(ts)) for ts in docs_terms],
        }
    )
    oracle = Oracle(tbl)
    eng = LocalEngine(FakeIndex(postings, n_docs=n_docs))

    def random_tree(depth):
        if depth == 0 or rng.random() < 0.4:
            return Term(vocab[rng.integers(len(vocab))])
        kids = tuple(random_tree(depth - 1) for _ in range(rng.integers(2, 4)))
        return And(kids) if rng.random() < 0.5 else Or(kids)

    for _ in range(60):
        tree = random_tree(3)
        assert cands(tree, eng) == oracle.candidates(Query(tree=tree))
