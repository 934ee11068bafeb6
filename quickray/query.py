"""TermQuery algebra — quicker's And/Or tree + flag filter, as data.

Mirrors the combinator semantics of gen/term_query.go:23-53 and the
SearchRequest flags of api/index.proto:18-23 (FIXTURES.md F3 JSON form).
Empty terms are elided (gen/term_query.go's NewTermQuery behavior).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Union

Tree = Union["Term", "And", "Or"]


@dataclass(frozen=True)
class Term:
    """A single keyword, optionally scoped to a field — the reference's
    Keyword{Field, Word} (api/document.proto:7-10). The posting-table
    key is Field + "\\x01" + Word (gen/document.go:3-9); an unscoped
    term's key is the word itself (our content field, the common case).
    "\\x01" cannot appear in a content token ([a-z0-9_]+), so field
    keys can never collide with content terms."""

    term: str
    field: str = ""

    @property
    def key(self) -> str:
        return f"{self.field}\x01{self.term}" if self.field else self.term


@dataclass(frozen=True)
class And:
    children: tuple[Tree, ...]


@dataclass(frozen=True)
class Or:
    children: tuple[Tree, ...]


@dataclass
class Query:
    tree: Tree
    on_flag: int = 0
    off_flag: int = 0
    or_flags: tuple[int, ...] = ()
    k: int = 10
    id: str = ""

    @property
    def has_flags(self) -> bool:
        """Whether the flag filter excludes anything (zero or_flags
        entries are skipped, as in the reference)."""
        return self.on_flag != 0 or self.off_flag != 0 or any(self.or_flags)

    def to_json(self) -> dict:
        return {
            "id": self.id,
            "tree": tree_to_json(self.tree),
            "on_flag": self.on_flag,
            "off_flag": self.off_flag,
            "or_flags": list(self.or_flags),
            "k": self.k,
        }


def tree_to_json(t: Tree) -> dict:
    if isinstance(t, Term):
        out = {"term": t.term}
        if t.field:
            out["field"] = t.field
        return out
    if isinstance(t, And):
        return {"and": [tree_to_json(c) for c in t.children]}
    return {"or": [tree_to_json(c) for c in t.children]}


def tree_from_json(obj: dict) -> Tree | None:
    if "term" in obj:
        if not obj["term"]:
            return None
        return Term(obj["term"], field=obj.get("field", ""))
    key = "and" if "and" in obj else "or"
    children = tuple(
        c for c in (tree_from_json(x) for x in obj[key]) if c is not None
    )
    return (And if key == "and" else Or)(children)


def query_from_json(obj: dict) -> Query:
    return Query(
        tree=tree_from_json(obj["tree"]),
        on_flag=int(obj.get("on_flag", 0)),
        off_flag=int(obj.get("off_flag", 0)),
        or_flags=tuple(obj.get("or_flags", [])),
        # clamp: a negative k would flow into numpy [:k] slices, which
        # drop |k| elements from the END instead of selecting none —
        # a malformed query must return zero hits, not n-1
        k=max(0, int(obj.get("k", 10))),
        id=obj.get("id", ""),
    )


def collect_terms(t: Tree | None) -> list[str]:
    """Unique posting-table KEYS of a tree (field-scoped terms as
    field\\x01word), ascending — the fixed BM25 summation order shared
    by engine and oracle."""
    out: set[str] = set()

    def walk(n: Tree | None) -> None:
        if n is None:
            return
        if isinstance(n, Term):
            out.add(n.key)
        else:
            for c in n.children:
                walk(c)

    walk(t)
    return sorted(out)


def flat_or_terms(t: Tree | None) -> list[str] | None:
    """If the tree is a single term or an Or of plain terms, return the
    posting-key list (the shape block-max pruning applies to); else
    None."""
    if isinstance(t, Term):
        return [t.key]
    if isinstance(t, Or) and all(isinstance(c, Term) for c in t.children):
        return [c.key for c in t.children]
    return None
