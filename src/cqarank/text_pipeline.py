"""Text preprocessing: tokenization, vocabulary, and word-overlap indicators.

Questions and comments enter as raw (subject, body) strings and leave as
bounded lowercase token sequences.  A text's vocabulary ids depend on the text
alone; its per-token binary overlap indicators depend on the text(s) it is
paired with.  ``model.compute_features`` turns both into network input.
"""

from __future__ import annotations

import unicodedata
from collections import Counter
from dataclasses import dataclass
from itertools import chain, repeat
from typing import Iterable, Optional

from .dataset import Triple

PAD_TOKEN = "<pad>"
UNK_TOKEN = "<unk>"
PAD_ID = 0
UNK_ID = 1

DEFAULT_MAX_LEN = 100


@dataclass(frozen=True)
class TokenizedText:
    """A preprocessed token sequence."""

    tokens: tuple[str, ...]

    def __len__(self) -> int:
        return len(self.tokens)


def _is_punct(ch: str) -> bool:
    return unicodedata.category(ch).startswith("P")


def _split_token(token: str) -> list[str]:
    # Peel leading/trailing punctuation characters into their own tokens;
    # interior punctuation (don't, e-mail) stays attached.
    lead: list[str] = []
    trail: list[str] = []
    while len(token) > 1 and _is_punct(token[0]):
        lead.append(token[0])
        token = token[1:]
    while len(token) > 1 and _is_punct(token[-1]):
        trail.append(token[-1])
        token = token[:-1]
    return lead + [token] + trail[::-1]


def tokenize(text: str) -> list[str]:
    """Lowercase and split on whitespace, separating edge punctuation."""
    out: list[str] = []
    for raw in text.lower().split():
        # no alphanumeric character is punctuation, so a token with
        # alphanumeric edges has nothing to peel
        if raw[0].isalnum() and raw[-1].isalnum():
            out.append(raw)
        else:
            out.extend(_split_token(raw))
    return out


def preprocess(subject: Optional[str], body: str, max_len: int = DEFAULT_MAX_LEN) -> TokenizedText:
    """Tokenize subject+body (subject first) and truncate to ``max_len`` tokens."""
    if max_len < 1:
        raise ValueError(f"max_len must be >= 1, got {max_len}")
    parts = []
    if subject:
        parts.append(subject)
    if body:
        parts.append(body)
    tokens = tokenize(" ".join(parts))
    return TokenizedText(tuple(tokens[:max_len]))


def triple_sources(triple: Triple) -> dict[str, tuple[Optional[str], str]]:
    """The (subject, body) each of the triple's three texts is made from,
    keyed ``q_new``, ``q_rel`` and ``c_rel``; a comment has no subject."""
    return {
        "q_new": (triple.q_new_subject, triple.q_new_body),
        "q_rel": (triple.q_rel_subject, triple.q_rel_body),
        "c_rel": (None, triple.c_rel),
    }


class Vocabulary:
    """Token-to-id map with reserved PAD=0 and UNK=1 entries."""

    def __init__(self, tokens: Iterable[str] = ()):
        """``tokens`` are the non-reserved entries, in id order (id 2, 3, ...)."""
        self.tokens: tuple[str, ...] = (PAD_TOKEN, UNK_TOKEN, *tokens)  # every entry, in id order
        self._token_to_id: dict[str, int] = dict(zip(self.tokens, range(len(self.tokens))))
        if len(self._token_to_id) < len(self.tokens):
            seen: set[str] = set()
            for tok in self.tokens:
                if tok in seen:
                    raise ValueError(f"duplicate vocabulary token: {tok!r}")
                seen.add(tok)
        # what encode reads: a text token spelled like PAD is unknown
        self._encoding = {**self._token_to_id, PAD_TOKEN: UNK_ID}

    def __len__(self) -> int:
        return len(self.tokens)

    def __contains__(self, token: str) -> bool:
        return token in self._token_to_id

    def id_of(self, token: str) -> int:
        return self._token_to_id.get(token, UNK_ID)

    def encode(self, text: TokenizedText) -> tuple[int, ...]:
        """The id of each token of ``text``; out-of-vocabulary tokens get UNK,
        and so does a token spelled like the PAD entry."""
        return tuple(map(self._encoding.get, text.tokens, repeat(UNK_ID)))


def build_vocabulary(corpus: Iterable[TokenizedText], min_count: int = 1) -> Vocabulary:
    """Vocabulary of tokens occurring >= min_count times, ids assigned by
    descending frequency then lexicographic order.  A text token spelled like
    a reserved entry (``<pad>``, ``<unk>``) is not counted."""
    if min_count < 1:
        raise ValueError(f"min_count must be >= 1, got {min_count}")
    counts: Counter[str] = Counter()
    for text in corpus:
        counts.update(text.tokens)
    del counts[PAD_TOKEN], counts[UNK_TOKEN]  # a Counter ignores absent keys
    kept = sorted((t for t, c in counts.items() if c >= min_count), key=lambda t: (-counts[t], t))
    return Vocabulary(kept)


def vocabulary_for(
    triples: Iterable[Triple], min_count: int = 1, max_len: int = DEFAULT_MAX_LEN
) -> Vocabulary:
    """Vocabulary over every text of every triple in a corpus, each text cut
    to the ``max_len`` tokens the network reads.  Each distinct (subject,
    body) is tokenized once and counted as often as it occurs."""
    sources = Counter(source for t in triples for source in triple_sources(t).values())
    texts = chain.from_iterable(repeat(preprocess(*source, max_len), n) for source, n in sources.items())
    return build_vocabulary(texts, min_count=min_count)


def overlap_indicators(target: TokenizedText, others: Iterable[TokenizedText]) -> tuple[int, ...]:
    """1 at position j iff target token j occurs in at least one of ``others``.

    Computed on surface tokens, not ids, so UNK collisions cannot create
    false overlaps.
    """
    shared: set[str] = set()
    for other in others:
        shared.update(other.tokens)
    return tuple(1 if tok in shared else 0 for tok in target.tokens)
