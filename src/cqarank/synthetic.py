"""Synthetic corpora for tests, gradient checking, and the multitask-benefit
experiment.

The conjunction corpus builds forum groups where a comment answers the new
question only when two independent signals hold at once: the related question
matches the new question's topic (the question-question signal) and the
comment actually fixes rather than chats about its question (the
question-comment signal).  Distractor comments mention the right topic with
the wrong verb, so the comment task cannot be solved by token overlap alone --
the two auxiliary tasks each supervise one half of the conjunction.  The
rule is written once, in ``_triple``, which labels every triple of the
conjunction and overfit corpora.
"""

from __future__ import annotations

import numpy as np

from .dataset import Triple


def gradcheck_corpus() -> list[Triple]:
    """A handful of fixed triples covering rank bins, label values,
    punctuation, and an empty body."""
    rows = [
        dict(
            id="g0",
            group="grp0",
            q_new_subject="upgrade breaks wifi",
            q_new_body="after the update my wifi drops, any fix?",
            q_rel_subject="wifi drops after upgrade",
            q_rel_body="my wireless keeps disconnecting since the upgrade.",
            c_rel="reinstall the wifi driver, that fixed the drops for me.",
            google_rank=1,
            label_A="good",
            label_B="perfect_match",
            label_C="good",
        ),
        dict(
            id="g1",
            group="grp0",
            q_new_subject="upgrade breaks wifi",
            q_new_body="after the update my wifi drops, any fix?",
            q_rel_subject="best pizza downtown",
            q_rel_body="",
            c_rel="try the place on fifth street!",
            google_rank=3,
            label_A="good",
            label_B="irrelevant",
            label_C="bad",
        ),
        dict(
            id="g2",
            group="grp1",
            q_new_subject="visa renewal time",
            q_new_body="how long does renewal take?",
            q_rel_subject="renewing a visa",
            q_rel_body="what is the processing time for renewals, roughly?",
            c_rel="mine took three weeks.",
            google_rank=7,
            label_A="good",
            label_B="relevant",
            label_C="good",
        ),
        dict(
            id="g3",
            group="grp1",
            q_new_subject="visa renewal time",
            q_new_body="",
            q_rel_subject="renewing a visa",
            q_rel_body="what is the processing time for renewals, roughly?",
            c_rel="ask the embassy (they never answer).",
            google_rank=15,
            label_A="bad",
            label_B="relevant",
            label_C="bad",
        ),
        dict(
            id="g4",
            group="grp2",
            q_new_subject="car import tax",
            q_new_body="is there a tax on importing cars?",
            q_rel_subject="importing a vehicle",
            q_rel_body="do i pay duty on a car?",
            c_rel="yes, five percent duty.",
            google_rank=40,
            label_A="good",
            label_B="relevant",
            label_C="good",
        ),
    ]
    return [Triple(**row) for row in rows]


# the topics a conjunction-corpus question is drawn from
N_TOPICS = 8


def _triple(id: str, group: str, q_new: tuple[str, str], q_rel: tuple[str, str], c_rel: str,
            rank: int, match: bool, good: bool) -> Triple:
    """A generated triple labelled by the conjunction rule: the comment is
    good for its thread (A) when ``good``, the thread matches the new
    question (B) when ``match``, and the comment answers the new question (C)
    only when both hold."""
    return Triple(
        id=id,
        group=group,
        q_new_subject=q_new[0],
        q_new_body=q_new[1],
        q_rel_subject=q_rel[0],
        q_rel_body=q_rel[1],
        c_rel=c_rel,
        google_rank=rank,
        label_A="good" if good else "bad",
        label_B="perfect_match" if match else "irrelevant",
        label_C="good" if (good and match) else "bad",
    )


def conjunction_corpus(n_groups: int, candidates_per_group: int = 4, seed: int = 0) -> list[Triple]:
    """Corpus whose comment-relevance labels are the conjunction of the
    question-match and comment-quality signals (see module docstring).  Every
    group gets at least one comment positive so ranking metrics stay
    defined."""
    rng = np.random.default_rng(seed)
    noise = [f"w{k}" for k in range(20)]
    triples: list[Triple] = []
    for g in range(n_groups):
        topic = int(rng.integers(N_TOPICS))
        q_new = (f"ask topic{topic}", f"please help with topic{topic} " + " ".join(
            rng.choice(noise, size=2, replace=False)
        ))
        for c in range(candidates_per_group):
            if c == 0:
                b_match, b_good = True, True  # guaranteed positive
            else:
                b_match = bool(rng.integers(2))
                b_good = bool(rng.integers(2))
            rel_topic = topic if b_match else int((topic + 1 + rng.integers(N_TOPICS - 1)) % N_TOPICS)
            q_rel = (f"ask topic{rel_topic}", f"anyone knows topic{rel_topic} " + " ".join(
                rng.choice(noise, size=2, replace=False)
            ))
            # a distractor has the right topic word and the wrong speech act
            act = f"fix topic{rel_topic} do this " if b_good else f"chat topic{rel_topic} me too "
            c_rel = act + " ".join(rng.choice(noise, size=2, replace=False))
            triples.append(_triple(f"s{g}_{c}", f"grp{g}", q_new, q_rel, c_rel, c + 1, b_match, b_good))
    return triples


def overfit_corpus() -> list[Triple]:
    """Fifty memorizable triples: five groups, two question threads each,
    five comments per thread, with positives and negatives in every ranking
    group of every task."""
    rng = np.random.default_rng(0)
    noise = [f"n{k}" for k in range(30)]
    triples: list[Triple] = []
    for g in range(5):
        topic = g  # one topic per group keeps the texts distinct
        q_new = (f"ask topic{topic}", f"need advice on topic{topic}")
        for r in range(2):
            b_match = r == 0
            rel_topic = topic if b_match else topic + 5
            q_rel = (f"ask topic{rel_topic}", f"question about topic{rel_topic} " + " ".join(
                rng.choice(noise, size=3, replace=False)
            ))
            for c in range(5):
                b_good = c < 2  # two good comments per thread
                verb = "fix" if b_good else "chat"
                c_rel = f"{verb} topic{rel_topic} " + " ".join(rng.choice(noise, size=3, replace=False))
                triples.append(
                    _triple(f"o{g}_{r}_{c}", f"grp{g}", q_new, q_rel, c_rel, r * 5 + c + 1, b_match, b_good)
                )
    return triples
