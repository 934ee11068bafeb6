"""Brute-force oracle — the correctness reference for the whole engine.

An independent, deliberately naive in-memory implementation (plain
Python dicts/sets, no Ray, no Arrow in the hot path, no pruning) of:
doc_id assignment, tokenization, BitsFeature, quicker's boolean set
semantics (skiplist_reverse_index.go:77-206 incl. the flag filter edge
rules) and exhaustive BM25 scoring summed in ascending-term order.
Engine tests assert exact rank identity and near-exact score equality
against this (SURVEY.md §7.0: pruning must provably never change
top-k).
"""

from __future__ import annotations

import math

import pyarrow as pa

from quickray.docids import doc_ids_py
from quickray.query import And, Or, Query, Term
from quickray.schema import BIT_LONG_DOC, BIT_TEST_PATH, BM25_B, BM25_K1, LANGS
from quickray.tokenize import tokenize_py


class Oracle:
    def __init__(
        self,
        table: pa.Table,
        langs: list[str] | None = None,
        id_col: str | None = None,
        field_cols: list[str] | None = None,
    ):
        self.langs = langs or LANGS
        repos = table["repo"].to_pylist()
        paths = table["path"].to_pylist()
        contents = table["content"].to_pylist()
        lang_col = table["lang"].to_pylist()
        if id_col is None:
            ids = doc_ids_py(repos, paths).tolist()
        else:
            ids = [int(x) for x in table[id_col].to_pylist()]
        self.n_docs = len(ids)
        self.doc_len: dict[int, int] = {}
        self.postings: dict[str, dict[int, int]] = {}
        for i, content in zip(ids, contents):
            toks = tokenize_py(content)
            self.doc_len[i] = len(toks)
            for t in toks:
                self.postings.setdefault(t, {})[i] = (
                    self.postings.get(t, {}).get(i, 0) + 1
                )
        # field-scoped keywords (Keyword{Field, lower(Word)},
        # build_index.go:114-127; key = field + "\x01" + word,
        # gen/document.go:5): one tf=1 posting per doc per field. They
        # are NOT tokens — doc_len / avgdl / total_tokens stay
        # content-only, matching the engine's docmeta-phase statistics.
        # null/empty values emit NO posting (reference: empty keywords
        # are never indexed — keyword_author.go's len(Author) > 0
        # guard). Dict-form restatement of the single key contract in
        # tokenize.field_posting_keys; test_fields pins the agreement.
        for f in field_cols or []:
            for i, v in zip(ids, table[f].to_pylist()):
                if v:
                    self.postings.setdefault(f"{f}\x01{v.lower()}", {})[i] = 1
        total = sum(self.doc_len.values())
        self.avgdl = total / max(1, self.n_docs)
        self.total_tokens = total
        self.bits: dict[int, int] = {}
        for i, repo, path, lang, content in zip(ids, repos, paths, lang_col, contents):
            b = 0
            for j, l in enumerate(self.langs):
                if lang == l:
                    b |= 1 << j
            base = path.rsplit("/", 1)[-1]
            if path.startswith("test") or base.startswith("test"):
                b |= 1 << BIT_TEST_PATH
            if self.doc_len[i] > self.avgdl:
                b |= 1 << BIT_LONG_DOC
            self.bits[i] = b
        self.ids = sorted(ids)

    # --------------------------------------------------------- inversion
    def posting_lists(self) -> dict[str, tuple[list[int], list[int]]]:
        """term -> (sorted doc_ids, aligned tfs); the golden answer for
        the build-pipeline conformance test."""
        out = {}
        for t, d in self.postings.items():
            ks = sorted(d)
            out[t] = (ks, [d[k] for k in ks])
        return out

    def df(self) -> dict[str, int]:
        return {t: len(d) for t, d in self.postings.items()}

    # ------------------------------------------------------- set algebra
    def _passes_flags(self, doc: int, q: Query) -> bool:
        b = self.bits[doc]
        if (b & q.on_flag) != q.on_flag:
            return False
        if (b & q.off_flag) != 0:
            return False
        for f in q.or_flags:
            if f == 0:
                continue
            if (b & f) == 0:
                return False
        return True

    def candidates(self, q: Query) -> list[int]:
        def ev(node) -> set[int]:
            if node is None:
                return set()
            if isinstance(node, Term):
                docs = self.postings.get(node.key, {})
                return {d for d in docs if self._passes_flags(d, q)}
            if not node.children:
                return set()
            parts = [ev(c) for c in node.children]
            if isinstance(node, And):
                out = parts[0]
                for p in parts[1:]:
                    out = out & p
                return out
            out = set()
            for p in parts:
                out |= p
            return out

        return sorted(ev(q.tree))

    # ----------------------------------------------------------- scoring
    def _idf(self, term: str) -> float:
        df = len(self.postings.get(term, {}))
        return math.log((self.n_docs - df + 0.5) / (df + 0.5) + 1.0)

    def score_doc(self, doc: int, terms: list[str]) -> float:
        s = 0.0
        for t in sorted(set(terms)):
            tf = self.postings.get(t, {}).get(doc)
            if tf is None:
                continue
            dl = self.doc_len[doc]
            denom = tf + BM25_K1 * (1.0 - BM25_B + BM25_B * dl / self.avgdl)
            s += self._idf(t) * tf * (BM25_K1 + 1.0) / denom
        return s

    def search(self, q: Query) -> list[tuple[int, float]]:
        from quickray.query import collect_terms

        terms = collect_terms(q.tree)
        cands = self.candidates(q)
        scored = [(d, self.score_doc(d, terms)) for d in cands]
        scored.sort(key=lambda x: (-x[1], x[0]))
        return scored[: q.k]
