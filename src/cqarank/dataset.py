"""Triplet corpus handling: the task table, JSONL ingestion, label
binarization, the positive-match training-set extension, and shuffled
mini-batching.

Corpus format is JSONL, one object per line, each ``label_<task>`` one of
``LABELS[task]``:

    {"id": str, "group": str,
     "q_new_subject": str|null, "q_new_body": str,
     "q_rel_subject": str|null, "q_rel_body": str,
     "c_rel": str, "google_rank": int,
     "label_A": str, "label_B": str, "label_C": str}
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import os
import re
import sys
import tempfile
from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

import numpy as np

# The task table: A ranks a thread's comments for its question, B related
# questions for a new question, C comments for the new question.  LABELS holds
# the values of each ``label_<task>``, the last being the default of a corpus
# read without labels; RELEVANT holds those that count as relevant.
TASKS = ("A", "B", "C")
LABELS = {
    "A": ("good", "potentially_useful", "bad"),
    "B": ("perfect_match", "relevant", "irrelevant"),
    "C": ("good", "potentially_useful", "bad"),
}
RELEVANT = {"A": ("good",), "B": ("perfect_match", "relevant"), "C": ("good",)}


def check_tasks(tasks: Sequence[str]) -> tuple[str, ...]:
    """A task list as a tuple; raises ValueError unless it names at least one
    task, only known ones, and none twice."""
    tasks = tuple(tasks)
    if not tasks or not set(tasks) <= set(TASKS) or len(set(tasks)) < len(tasks):
        raise ValueError(f"tasks must be one or more of {', '.join(TASKS)}, none twice, got {list(tasks)}")
    return tasks


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
        for name in ("id", "group"):  # each is one field of a prediction TSV row
            if re.search("[\t\n\r]", getattr(self, name)):
                raise CorpusError(f"triple {self.id!r}: {name} must not hold a tab or line break")
        # the search-rank prior takes 1 / rank, which needs a float-sized rank
        if not 1 <= self.google_rank <= sys.float_info.max:
            raise CorpusError(f"triple {self.id!r}: google_rank must be >= 1 and at most {sys.float_info.max:.3e}")
        for task in TASKS:
            label = getattr(self, f"label_{task}")
            if label not in LABELS[task]:
                raise CorpusError(f"triple {self.id!r}: bad label_{task} {label!r}")

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


def task_relevance(triple: Triple, task: str) -> int:
    """1 when the triple's ``label_<task>`` is RELEVANT for ``task``, else 0."""
    return int(getattr(triple, f"label_{task}") in RELEVANT[task])


def binarize(t: Triple) -> dict[str, int]:
    """The binary relevance target of every task, ``{task: 0 or 1}``."""
    return {task: task_relevance(t, task) for task in TASKS}


_FIELDS = (
    ("id", str, False),
    ("group", str, False),
    ("q_new_subject", str, True),
    ("q_new_body", str, False),
    ("q_rel_subject", str, True),
    ("q_rel_body", str, False),
    ("c_rel", str, False),
    ("google_rank", int, False),
    *((f"label_{task}", str, False) for task in TASKS),
)

_LABEL_DEFAULTS = {f"label_{task}": LABELS[task][-1] for task in TASKS}


def _parse_record(obj: dict, lineno: int, require_labels: bool, escaped: bool) -> Triple:
    """The record's Triple; ``escaped`` says its line holds a ``\\u`` escape,
    the only way a strictly decoded UTF-8 line can carry a lone surrogate."""
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
        elif escaped and re.search("[\ud800-\udfff]", val):  # a JSON escape that no UTF-8 file can hold
            raise CorpusError(f"line {lineno}: field {name!r} holds a lone surrogate, which UTF-8 cannot encode")
        values[name] = val
    try:
        return Triple(**values)
    except CorpusError as exc:
        raise CorpusError(f"line {lineno}: {exc}") from None


def load_corpus(path: str, require_labels: bool = True) -> list[Triple]:
    """Read a JSONL corpus, preserving file order.  A bad record raises
    :class:`CorpusError` naming the path and the line.

    With ``require_labels=False`` an absent or null label takes its task's
    last LABELS value, which is not relevant; this supports scoring
    unannotated candidates.
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
                triple = _parse_record(obj, lineno, require_labels, "\\u" in line)
                if triple.id in seen_ids:
                    raise CorpusError(f"line {lineno}: duplicate id {triple.id!r}")
                seen_ids.add(triple.id)
                triples.append(triple)
    except UnicodeDecodeError as exc:
        raise CorpusError(f"{path}: not UTF-8 text ({exc.reason})") from None
    except CorpusError as exc:
        raise CorpusError(f"{path}: {exc}") from None
    return triples


@contextlib.contextmanager
def atomic_write(path: str, mode: str = "w"):
    """Open a temp file beside ``path`` (UTF-8 unless ``mode`` is binary);
    it replaces ``path`` when the block completes and is removed when the
    block raises, so ``path`` never holds a partial file.  ``path`` gets the
    permissions ``open(path, "w")`` would give it under the umask."""
    fd, tmp = tempfile.mkstemp(dir=os.path.dirname(os.path.abspath(path)), suffix=".tmp")
    try:
        with os.fdopen(fd, mode, encoding=None if "b" in mode else "utf-8") as fh:
            yield fh
        umask = os.umask(0o022)  # the only way to read the umask is to set it
        os.umask(umask)
        os.chmod(tmp, 0o666 & ~umask)
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


def extend_dataset(triples: Sequence[Triple]) -> list[Triple]:
    """Build the extra positive-match triples: each related question paired
    with itself and each of its comments, one triple per distinct (question,
    comment) pair.  Threads keep their first-appearance order, and so do the
    comments within each.  The question's subject and body come from the
    thread's first triple; the comment's label and id (plus ``_ed``) come from
    the pair's first triple, and a derived id that is already the id of a
    triple raises :class:`CorpusError`.  The question-question label is
    positive by construction, the comment label carries over to the new
    question-comment task, and the self-match gets search rank 1."""
    ids = {t.id for t in triples}
    threads: dict[str, tuple[Triple, dict[str, Triple]]] = {}
    for t in triples:
        key = t.q_rel_key
        head, derived = threads.setdefault(key, (t, {}))
        if t.c_rel in derived:
            continue
        if (derived_id := f"{t.id}_ed") in ids:
            raise CorpusError(f"derived id {derived_id!r} is already the id of a triple")
        subject, body = head.q_rel_subject, head.q_rel_body
        derived[t.c_rel] = Triple(
            id=derived_id,
            group=key,
            q_new_subject=subject,
            q_new_body=body,
            q_rel_subject=subject,
            q_rel_body=body,
            c_rel=t.c_rel,
            google_rank=1,
            label_A=t.label_A,
            label_B="perfect_match",
            label_C=t.label_A,
        )
    return [d for _, derived in threads.values() for d in derived.values()]


def make_batches(data: Sequence, batch_size: int, seed) -> list[list]:
    """Seeded shuffle of ``data`` cut into consecutive chunks; the last chunk
    may be short.  Same seed, same batches."""
    if batch_size < 1:
        raise ValueError(f"batch_size must be >= 1, got {batch_size}")
    order = np.random.default_rng(seed).permutation(len(data))
    shuffled = [data[i] for i in order]
    return [shuffled[i : i + batch_size] for i in range(0, len(shuffled), batch_size)]


def positive_rates(data: Sequence[Triple]) -> tuple[float, ...]:
    """Percentage of positive examples per task, in TASKS order."""
    if not data:
        raise ValueError("positive_rates: empty dataset")
    return tuple(100.0 * sum(task_relevance(t, task) for t in data) / len(data) for task in TASKS)
