"""Synthetic corpora for tests, gradient checking, and the multitask-benefit
experiment.

The conjunction corpus builds forum groups where a comment answers the new
question only when two independent signals hold at once: the related question
matches the new question's topic (the question-question signal) and the
comment actually fixes rather than chats about its question (the
question-comment signal).  Distractor comments mention the right topic with
the wrong verb, so the comment task cannot be solved by token overlap alone --
the two auxiliary tasks each supervise one half of the conjunction.
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


def conjunction_corpus(
    n_groups: int,
    candidates_per_group: int = 4,
    n_topics: int = 8,
    seed: int = 0,
) -> list[Triple]:
    """Corpus whose comment-relevance labels are the conjunction of the
    question-match and comment-quality signals (see module docstring).  Every
    group gets at least one comment positive so ranking metrics stay
    defined."""
    if n_topics < 2:
        raise ValueError("need at least two topics")
    rng = np.random.default_rng(seed)
    noise = [f"w{k}" for k in range(20)]
    triples: list[Triple] = []
    for g in range(n_groups):
        topic = int(rng.integers(n_topics))
        q_new_subject = f"ask topic{topic}"
        q_new_body = f"please help with topic{topic} " + " ".join(
            rng.choice(noise, size=2, replace=False)
        )
        for c in range(candidates_per_group):
            if c == 0:
                b_match, b_good = True, True  # guaranteed positive
            else:
                b_match = bool(rng.integers(2))
                b_good = bool(rng.integers(2))
            rel_topic = topic if b_match else int((topic + 1 + rng.integers(n_topics - 1)) % n_topics)
            q_rel_subject = f"ask topic{rel_topic}"
            q_rel_body = f"anyone knows topic{rel_topic} " + " ".join(
                rng.choice(noise, size=2, replace=False)
            )
            if b_good:
                c_rel = f"fix topic{rel_topic} do this " + " ".join(
                    rng.choice(noise, size=2, replace=False)
                )
            else:
                # distractor: right topic word, wrong speech act
                c_rel = f"chat topic{rel_topic} me too " + " ".join(
                    rng.choice(noise, size=2, replace=False)
                )
            triples.append(
                Triple(
                    id=f"s{g}_{c}",
                    group=f"grp{g}",
                    q_new_subject=q_new_subject,
                    q_new_body=q_new_body,
                    q_rel_subject=q_rel_subject,
                    q_rel_body=q_rel_body,
                    c_rel=c_rel,
                    google_rank=c + 1,
                    label_A="good" if b_good else "bad",
                    label_B="perfect_match" if b_match else "irrelevant",
                    label_C="good" if (b_good and b_match) else "bad",
                )
            )
    return triples


def overfit_corpus(seed: int = 0) -> list[Triple]:
    """Fifty memorizable triples: five groups, two question threads each,
    five comments per thread, with positives and negatives in every ranking
    group of every task."""
    rng = np.random.default_rng(seed)
    noise = [f"n{k}" for k in range(30)]
    triples: list[Triple] = []
    for g in range(5):
        topic = g  # one topic per group keeps the texts distinct
        q_new_subject = f"ask topic{topic}"
        q_new_body = "need advice on " + f"topic{topic}"
        for r in range(2):
            b_match = r == 0
            rel_topic = topic if b_match else topic + 5
            q_rel_subject = f"ask topic{rel_topic}"
            q_rel_body = f"question about topic{rel_topic} " + " ".join(
                rng.choice(noise, size=3, replace=False)
            )
            for c in range(5):
                b_good = c < 2  # two good comments per thread
                verb = "fix" if b_good else "chat"
                c_rel = f"{verb} topic{rel_topic} " + " ".join(
                    rng.choice(noise, size=3, replace=False)
                )
                triples.append(
                    Triple(
                        id=f"o{g}_{r}_{c}",
                        group=f"grp{g}",
                        q_new_subject=q_new_subject,
                        q_new_body=q_new_body,
                        q_rel_subject=q_rel_subject,
                        q_rel_body=q_rel_body,
                        c_rel=c_rel,
                        google_rank=r * 5 + c + 1,
                        label_A="good" if b_good else "bad",
                        label_B="perfect_match" if b_match else "irrelevant",
                        label_C="good" if (b_good and b_match) else "bad",
                    )
                )
    return triples
