"""Seeded corpus generator for the benchmark workloads, and the input-shape
summary each run reports.

Each corpus starts from ``synthetic.conjunction_corpus``: one generated
candidate per related-question thread supplies the thread's question, its
search rank and its match label.  Every thread then gets up to ten comments
written in the same fix/chat style, and every text gets filler words drawn
from a Zipf distribution until it reaches a log-normal target length.  The
lengths are chosen so questions have a median of about 45 tokens, comments
about 30, and about 7% of all texts run past ``max_len=100``, as in the
SemEval-2016 Task 3 forum data.

Group sizes are a fixed, evenly spread set of values in [10, 100] (a new
question with up to ten related questions of up to ten comments each).
"""

from __future__ import annotations

import functools
import math
from statistics import NormalDist

import numpy as np

from cqarank import synthetic
from cqarank.dataset import Triple
from cqarank.text_pipeline import DEFAULT_MAX_LEN, preprocess

FILLER_TYPES = 40_000
ZIPF_EXPONENT = 1.05
PUNCT_SHARE = 0.08
QUESTION_MEDIAN, QUESTION_SIGMA = 45.0, 0.6
COMMENT_MEDIAN, COMMENT_SIGMA = 30.0, 0.65
MIN_GROUP, MAX_GROUP = 10, 100
COMMENTS_PER_THREAD = 10
_NOISE = [f"w{k}" for k in range(20)]
_PUNCT = np.array([",", ".", "?", "!"])


def group_sizes(n_groups: int) -> list[int]:
    """Evenly spread candidate counts over [MIN_GROUP, MAX_GROUP]."""
    span = MAX_GROUP - MIN_GROUP
    return [MIN_GROUP + round(span * (i + 0.5) / n_groups) for i in range(n_groups)]


class _Filler:
    """Zipf-distributed filler words over a fixed word list."""

    def __init__(self):
        weights = np.arange(1, FILLER_TYPES + 1, dtype=np.float64) ** -ZIPF_EXPONENT
        self.cdf = np.cumsum(weights) / weights.sum()
        self.words = np.array([f"v{k}" for k in range(FILLER_TYPES)], dtype=object)

    def text(self, rng: np.random.Generator, base: str, target: int) -> str:
        """``base`` followed by filler words up to about ``target`` tokens."""
        # each punctuation mark becomes a token of its own
        count = round((target - len(base.split())) / (1.0 + PUNCT_SHARE))
        if count <= 0:
            return base
        idx = np.minimum(np.searchsorted(self.cdf, rng.random(count)), FILLER_TYPES - 1)
        words = self.words[idx]
        punct = rng.random(count) < PUNCT_SHARE
        if punct.any():
            marks = _PUNCT[rng.integers(len(_PUNCT), size=int(punct.sum()))]
            words[punct] = words[punct] + marks
        return base + " " + " ".join(words)


@functools.cache
def _filler() -> _Filler:
    return _Filler()


def _stratified_lengths(n: int, median: float, sigma: float) -> np.ndarray:
    """``n`` target lengths at evenly spaced quantiles of a log-normal, so the
    length mix does not depend on the seed."""
    probs = (np.arange(n) + 0.5) / n
    z = np.array([NormalDist().inv_cdf(p) for p in probs])
    return np.maximum(1, np.round(np.exp(math.log(median) + sigma * z))).astype(int)


def generate(n_groups: int, tag: str, seed: int) -> list[Triple]:
    """Deterministic corpus of ``n_groups`` candidate groups; ``tag`` keeps
    the ids and group names of corpora built from one seed apart.

    The seed draws the words and labels.  Group sizes and text lengths are
    laid out by a fixed permutation instead, so every seed asks for the same
    amount of work and the seed-to-seed spread of a timing is the machine's.
    """
    filler = _filler()
    rng = np.random.default_rng([seed, sum(tag.encode())])
    layout = np.random.default_rng(0)
    threads_per_group = MAX_GROUP // COMMENTS_PER_THREAD
    sizes = group_sizes(n_groups)
    n_threads = [math.ceil(size / COMMENTS_PER_THREAD) for size in sizes]
    q_new_len = iter(layout.permutation(_stratified_lengths(n_groups, QUESTION_MEDIAN, QUESTION_SIGMA)))
    q_rel_len = iter(layout.permutation(
        _stratified_lengths(sum(n_threads), QUESTION_MEDIAN, QUESTION_SIGMA)))
    c_rel_len = iter(layout.permutation(
        _stratified_lengths(sum(sizes), COMMENT_MEDIAN, COMMENT_SIGMA)))
    heads = synthetic.conjunction_corpus(
        n_groups, candidates_per_group=threads_per_group, seed=int(rng.integers(2**31))
    )
    out: list[Triple] = []
    for g, size in enumerate(sizes):
        group_heads = heads[g * threads_per_group : (g + 1) * threads_per_group]
        q_new_body = filler.text(rng, group_heads[0].q_new_body, next(q_new_len))
        for t, head in enumerate(group_heads[: n_threads[g]]):
            q_rel_body = filler.text(rng, head.q_rel_body, next(q_rel_len))
            match = head.label_B == "perfect_match"
            topic = head.q_rel_subject.split()[-1]
            for k in range(min(COMMENTS_PER_THREAD, size - t * COMMENTS_PER_THREAD)):
                if k == 0:
                    good = head.label_A == "good"
                    base = head.c_rel
                else:
                    good = bool(rng.integers(2))
                    lead = f"fix {topic} do this" if good else f"chat {topic} me too"
                    base = lead + " " + " ".join(rng.choice(_NOISE, size=2, replace=False))
                out.append(
                    Triple(
                        id=f"{tag}{g}_{t}_{k}",
                        group=f"{tag}grp{g}",
                        q_new_subject=head.q_new_subject,
                        q_new_body=q_new_body,
                        q_rel_subject=head.q_rel_subject,
                        q_rel_body=q_rel_body,
                        c_rel=filler.text(rng, base, next(c_rel_len)),
                        google_rank=t + 1,
                        label_A="good" if good else "bad",
                        label_B=head.label_B,
                        label_C="good" if good and match else "bad",
                    )
                )
    return out


def _quantile(values, q: float) -> float:
    return float(np.quantile(np.asarray(values, dtype=np.float64), q))


def input_shape(triples, vocab=None, max_len: int = DEFAULT_MAX_LEN) -> dict:
    """Token lengths per text role (before truncation) and the share of texts
    cut at ``max_len``, both over the three texts of every triple as the model
    reads them; the group-size distribution; and, given the model's
    vocabulary, its size and the OOV share of the kept tokens."""
    roles = {
        "q_new": [(t.q_new_subject, t.q_new_body) for t in triples],
        "q_rel": [(t.q_rel_subject, t.q_rel_body) for t in triples],
        "c_rel": [(None, t.c_rel) for t in triples],
    }
    shape: dict = {"triples": len(triples), "max_len": max_len, "roles": {}}
    cut = total = 0
    kept_tokens = oov_tokens = 0
    for role, texts in roles.items():
        tokens_of = {key: preprocess(*key, max_len=10**9).tokens for key in set(texts)}
        lengths = [len(tokens_of[key]) for key in texts]
        if vocab is not None:
            for key in texts:
                kept = tokens_of[key][:max_len]
                kept_tokens += len(kept)
                oov_tokens += sum(1 for tok in kept if tok not in vocab)
        role_cut = sum(1 for n in lengths if n > max_len)
        cut += role_cut
        total += len(lengths)
        shape["roles"][role] = {
            "distinct_texts": len(tokens_of),
            "tokens_p50": _quantile(lengths, 0.5),
            "tokens_p95": _quantile(lengths, 0.95),
            "truncated_share": role_cut / len(lengths),
        }
    shape["truncated_share"] = cut / total
    sizes: dict[str, int] = {}
    for t in triples:
        sizes[t.group] = sizes.get(t.group, 0) + 1
    counts = list(sizes.values())
    shape["groups"] = {
        "count": len(counts),
        "min": min(counts),
        "p50": _quantile(counts, 0.5),
        "p95": _quantile(counts, 0.95),
        "max": max(counts),
    }
    if vocab is not None:
        shape["vocab_size"] = len(vocab)
        shape["oov_share"] = oov_tokens / kept_tokens
    return shape
