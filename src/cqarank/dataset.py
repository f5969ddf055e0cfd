"""Triplet corpus handling: JSONL ingestion, label binarization, the
positive-match training-set extension, and shuffled mini-batching.

Corpus format is JSONL, one object per line:

    {"id": str, "group": str,
     "q_new_subject": str|null, "q_new_body": str,
     "q_rel_subject": str|null, "q_rel_body": str,
     "c_rel": str, "google_rank": int,
     "label_A": "good"|"potentially_useful"|"bad",
     "label_B": "perfect_match"|"relevant"|"irrelevant",
     "label_C": "good"|"potentially_useful"|"bad"}
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import os
import re
import tempfile
from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

import numpy as np

LABELS_AC = ("good", "potentially_useful", "bad")
LABELS_B = ("perfect_match", "relevant", "irrelevant")


class CorpusError(ValueError):
    """A corpus file or record violates the JSONL schema, or a word-vector
    file is malformed."""


@dataclass(frozen=True)
class Triple:
    """One (new question, related question, comment) example with the three
    task labels and the search-engine rank of the related question."""

    id: str
    group: str
    q_new_subject: Optional[str]
    q_new_body: str
    q_rel_subject: Optional[str]
    q_rel_body: str
    c_rel: str
    google_rank: int
    label_A: str
    label_B: str
    label_C: str

    def __post_init__(self):
        if self.google_rank < 1:
            raise CorpusError(f"triple {self.id!r}: google_rank must be >= 1")
        if self.label_A not in LABELS_AC:
            raise CorpusError(f"triple {self.id!r}: bad label_A {self.label_A!r}")
        if self.label_B not in LABELS_B:
            raise CorpusError(f"triple {self.id!r}: bad label_B {self.label_B!r}")
        if self.label_C not in LABELS_AC:
            raise CorpusError(f"triple {self.id!r}: bad label_C {self.label_C!r}")

    @property
    def q_rel_key(self) -> str:
        """Content-derived identifier of the related-question thread, used to
        group question-comment candidates (the corpus carries no explicit
        related-question id)."""
        h = hashlib.md5()
        h.update((self.q_rel_subject or "").encode("utf-8"))
        h.update(b"\x00")
        h.update(self.q_rel_body.encode("utf-8"))
        return f"{self.group}#{h.hexdigest()[:10]}"


@dataclass(frozen=True)
class BinaryLabels:
    yA: int
    yB: int
    yC: int


def binarize(t: Triple) -> BinaryLabels:
    """Collapse the three-way annotations to the binary relevance targets:
    only `good` comments and `perfect_match`/`relevant` questions count as
    positive."""
    return BinaryLabels(
        yA=1 if t.label_A == "good" else 0,
        yB=1 if t.label_B in ("perfect_match", "relevant") else 0,
        yC=1 if t.label_C == "good" else 0,
    )


_FIELDS = (
    ("id", str, False),
    ("group", str, False),
    ("q_new_subject", str, True),
    ("q_new_body", str, False),
    ("q_rel_subject", str, True),
    ("q_rel_body", str, False),
    ("c_rel", str, False),
    ("google_rank", int, False),
    ("label_A", str, False),
    ("label_B", str, False),
    ("label_C", str, False),
)

_LABEL_DEFAULTS = {"label_A": "bad", "label_B": "irrelevant", "label_C": "bad"}


def _parse_record(obj: dict, lineno: int, require_labels: bool) -> Triple:
    values = {}
    for name, typ, nullable in _FIELDS:
        if name not in obj:
            if not require_labels and name in _LABEL_DEFAULTS:
                values[name] = _LABEL_DEFAULTS[name]
                continue
            raise CorpusError(f"line {lineno}: missing field {name!r}")
        val = obj[name]
        if val is None:
            if nullable or (not require_labels and name in _LABEL_DEFAULTS):
                values[name] = _LABEL_DEFAULTS.get(name)
                continue
            raise CorpusError(f"line {lineno}: field {name!r} must not be null")
        if typ is int:
            if isinstance(val, bool) or not isinstance(val, int):
                raise CorpusError(f"line {lineno}: field {name!r} must be an integer")
        elif not isinstance(val, typ):
            raise CorpusError(f"line {lineno}: field {name!r} must be a string")
        elif re.search("[\ud800-\udfff]", val):  # a JSON escape that no UTF-8 file can hold
            raise CorpusError(f"line {lineno}: field {name!r} holds a lone surrogate, which UTF-8 cannot encode")
        values[name] = val
    try:
        return Triple(**values)
    except CorpusError as exc:
        raise CorpusError(f"line {lineno}: {exc}") from None


def load_corpus(path: str, require_labels: bool = True) -> list[Triple]:
    """Read a JSONL corpus, preserving file order.

    With ``require_labels=False`` absent/null labels default to the negative
    class, which supports scoring unannotated candidates.
    """
    triples: list[Triple] = []
    seen_ids: set[str] = set()
    try:
        with open(path, "r", encoding="utf-8") as fh:
            for lineno, line in enumerate(fh, start=1):
                if not line.strip():
                    continue
                try:
                    obj = json.loads(line)
                except json.JSONDecodeError as exc:
                    raise CorpusError(f"line {lineno}: invalid JSON ({exc.msg})") from None
                if not isinstance(obj, dict):
                    raise CorpusError(f"line {lineno}: record must be a JSON object")
                triple = _parse_record(obj, lineno, require_labels)
                if triple.id in seen_ids:
                    raise CorpusError(f"line {lineno}: duplicate id {triple.id!r}")
                seen_ids.add(triple.id)
                triples.append(triple)
    except UnicodeDecodeError as exc:
        raise CorpusError(f"{path}: not UTF-8 text ({exc.reason})") from None
    return triples


@contextlib.contextmanager
def atomic_write(path: str, mode: str = "w"):
    """Open a temp file beside ``path`` (UTF-8 unless ``mode`` is binary);
    it replaces ``path`` when the block completes and is removed when the
    block raises, so ``path`` never holds a partial file."""
    fd, tmp = tempfile.mkstemp(dir=os.path.dirname(os.path.abspath(path)), suffix=".tmp")
    try:
        with os.fdopen(fd, mode, encoding=None if "b" in mode else "utf-8") as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.unlink(tmp)
        raise


def save_corpus(path: str, triples: Iterable[Triple]) -> None:
    """Write a JSONL corpus atomically."""
    with atomic_write(path) as fh:
        for t in triples:
            record = {name: getattr(t, name) for name, _, _ in _FIELDS}
            fh.write(json.dumps(record, ensure_ascii=False) + "\n")


@dataclass(frozen=True)
class ThreadComment:
    id: str
    text: str
    label_A: str


@dataclass(frozen=True)
class Thread:
    """A related question together with its labelled comments."""

    key: str
    subject: Optional[str]
    body: str
    comments: tuple[ThreadComment, ...]


def threads_from_corpus(triples: Sequence[Triple]) -> list[Thread]:
    """Collect the distinct question-comment threads of a triplet corpus,
    first-appearance order, one entry per distinct (question, comment) pair.
    Each comment takes the id of its first triple plus ``_ed``; an id that a
    triple of the corpus already has raises :class:`CorpusError`."""
    ids = {t.id for t in triples}
    by_key: dict[str, dict] = {}
    for t in triples:
        key = t.q_rel_key
        entry = by_key.setdefault(
            key, {"subject": t.q_rel_subject, "body": t.q_rel_body, "comments": {}}
        )
        if t.c_rel not in entry["comments"]:
            derived_id = f"{t.id}_ed"
            if derived_id in ids:
                raise CorpusError(f"derived id {derived_id!r} is already the id of a triple")
            entry["comments"][t.c_rel] = ThreadComment(derived_id, t.c_rel, t.label_A)
    return [
        Thread(key, e["subject"], e["body"], tuple(e["comments"].values()))
        for key, e in by_key.items()
    ]


def extend_dataset(threads: Iterable[Thread]) -> list[Triple]:
    """Build the extra positive-match triples: each thread question paired
    with itself and each of its comments.  The question-question label is
    positive by construction and the comment label carries over to the new
    question-comment task; the self-match gets search rank 1."""
    out: list[Triple] = []
    for thread in threads:
        for comment in thread.comments:
            out.append(
                Triple(
                    id=comment.id,
                    group=thread.key,
                    q_new_subject=thread.subject,
                    q_new_body=thread.body,
                    q_rel_subject=thread.subject,
                    q_rel_body=thread.body,
                    c_rel=comment.text,
                    google_rank=1,
                    label_A=comment.label_A,
                    label_B="perfect_match",
                    label_C=comment.label_A,
                )
            )
    return out


def make_batches(data: Sequence, batch_size: int, seed) -> list[list]:
    """Seeded shuffle of ``data`` cut into consecutive chunks; the last chunk
    may be short.  Same seed, same batches."""
    if batch_size < 1:
        raise ValueError(f"batch_size must be >= 1, got {batch_size}")
    order = np.random.default_rng(seed).permutation(len(data))
    shuffled = [data[i] for i in order]
    return [shuffled[i : i + batch_size] for i in range(0, len(shuffled), batch_size)]


def positive_rates(data: Sequence[Triple]) -> tuple[float, float, float]:
    """Percentage of positive examples per task."""
    if not data:
        raise ValueError("positive_rates: empty dataset")
    labels = [binarize(t) for t in data]
    n = len(labels)
    return (
        100.0 * sum(l.yA for l in labels) / n,
        100.0 * sum(l.yB for l in labels) / n,
        100.0 * sum(l.yC for l in labels) / n,
    )
