import itertools
import json
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cqarank.dataset import (
    LABELS,
    CorpusError,
    Triple,
    binarize,
    extend_dataset,
    load_corpus,
    make_batches,
    positive_rates,
    save_corpus,
    task_relevance,
)
from cqarank.nn_core import Tensor
from cqarank.training import joint_loss


def make_triple(**overrides) -> Triple:
    base = dict(
        id="t1",
        group="g1",
        q_new_subject="new subject",
        q_new_body="new body",
        q_rel_subject="rel subject",
        q_rel_body="rel body",
        c_rel="a comment",
        google_rank=1,
        label_A="good",
        label_B="perfect_match",
        label_C="good",
    )
    base.update(overrides)
    return Triple(**base)


def write_jsonl(path, records):
    with open(path, "w", encoding="utf-8") as fh:
        for r in records:
            fh.write(json.dumps(r) + "\n")


def record(**overrides):
    base = dict(
        id="r1",
        group="g1",
        q_new_subject="s",
        q_new_body="b",
        q_rel_subject="rs",
        q_rel_body="rb",
        c_rel="c",
        google_rank=2,
        label_A="bad",
        label_B="relevant",
        label_C="bad",
    )
    base.update(overrides)
    return base


def test_triple_validation():
    with pytest.raises(CorpusError):
        make_triple(google_rank=0)
    with pytest.raises(CorpusError, match="google_rank must be >= 1 and at most 1.798e"):
        make_triple(google_rank=2**1024)
    with pytest.raises(CorpusError):
        make_triple(label_A="great")
    with pytest.raises(CorpusError):
        make_triple(label_B="good")  # task-B labels have their own scale
    with pytest.raises(CorpusError):
        make_triple(label_C="relevant")


def test_binarize():
    t = make_triple(label_A="good", label_B="perfect_match", label_C="good")
    assert binarize(t) == binarize(t)
    assert binarize(t) == {"A": 1, "B": 1, "C": 1}
    t = make_triple(label_A="bad", label_B="relevant", label_C="bad")
    assert binarize(t) == {"A": 0, "B": 1, "C": 0}
    t = make_triple(label_B="irrelevant")
    assert binarize(t)["B"] == 0


def test_every_label_combination_follows_the_relevance_rule(tmp_path):
    # only good comments and perfect_match or relevant questions count;
    # potentially_useful is not relevant
    relevant = {"good", "perfect_match", "relevant"}
    combos = list(itertools.product(LABELS["A"], LABELS["B"], LABELS["C"]))
    assert len(combos) == 27
    data = [make_triple(id=str(i), label_A=a, label_B=b, label_C=c) for i, (a, b, c) in enumerate(combos)]
    gold = [{"A": int(a in relevant), "B": int(b in relevant), "C": int(c in relevant)} for a, b, c in combos]
    assert [binarize(t) for t in data] == gold
    assert [{task: task_relevance(t, task) for task in "ABC"} for t in data] == gold
    assert positive_rates(data) == tuple(100.0 * sum(y[task] for y in gold) / 27 for task in "ABC")
    # one prediction of 0.8 per task: each triple's loss is -ln 0.8 per
    # relevant task and -ln 0.2 per other task
    preds = {task: Tensor(np.array([0.8])) for task in "ABC"}
    for t, y in zip(data, gold):
        expected = sum(-math.log(0.8 if y[task] else 0.2) for task in "ABC")
        assert joint_loss(preds, [binarize(t)], "ABC").data[0] == pytest.approx(expected, rel=1e-12)
    batch = {task: Tensor(np.full(27, 0.8)) for task in "ABC"}
    expected = sum(-math.log(0.8 if y[task] else 0.2) for y in gold for task in "AC")
    assert joint_loss(batch, [binarize(t) for t in data], "AC").data[0] == pytest.approx(expected, rel=1e-12)

    # a label-less corpus gives each missing or null label its task's last value
    path = tmp_path / "unlabelled.jsonl"
    absent = {k: v for k, v in record(id="absent").items() if not k.startswith("label_")}
    write_jsonl(path, [absent, record(id="null", label_A=None, label_B=None, label_C=None)])
    for t in load_corpus(str(path), require_labels=False):
        assert (t.label_A, t.label_B, t.label_C) == ("bad", "irrelevant", "bad")
        assert binarize(t) == {"A": 0, "B": 0, "C": 0}


def test_q_rel_key_depends_on_group_and_question_text():
    a = make_triple(id="a")
    b = make_triple(id="b", c_rel="different comment", google_rank=5)
    assert a.q_rel_key == b.q_rel_key  # same thread, different comment
    assert a.q_rel_key != make_triple(q_rel_body="other body").q_rel_key
    assert a.q_rel_key != make_triple(group="g2").q_rel_key
    assert a.q_rel_key.startswith("g1#")


def test_load_save_round_trip(tmp_path):
    path = tmp_path / "corpus.jsonl"
    originals = [
        make_triple(id="a", q_new_subject=None),
        make_triple(id="b", google_rank=30, label_B="irrelevant", c_rel="naïve café"),
    ]
    save_corpus(str(path), originals)
    assert load_corpus(str(path)) == originals


# any text a UTF-8 file can hold: every code point but the surrogates
texts = st.text(st.characters(blacklist_categories=("Cs",)))
# ids and groups are TSV fields: no tab or line break
keys = st.text(st.characters(blacklist_categories=("Cs",), blacklist_characters="\t\n\r"))


@st.composite
def corpora(draw):
    ids = draw(st.lists(keys, min_size=1, max_size=4, unique=True))
    return [
        Triple(
            id=i,
            group=draw(keys),
            q_new_subject=draw(st.none() | texts),
            q_new_body=draw(texts),
            q_rel_subject=draw(st.none() | texts),
            q_rel_body=draw(texts),
            c_rel=draw(texts),
            google_rank=draw(st.integers(1, 10**6)),
            label_A=draw(st.sampled_from(LABELS["A"])),
            label_B=draw(st.sampled_from(LABELS["B"])),
            label_C=draw(st.sampled_from(LABELS["C"])),
        )
        for i in ids
    ]


@settings(max_examples=100, deadline=None)
@given(triples=corpora())
def test_any_text_survives_save_and_load(tmp_path_factory, triples):
    path = tmp_path_factory.mktemp("corpus") / "c.jsonl"
    save_corpus(str(path), triples)
    assert load_corpus(str(path)) == triples


def test_save_corpus_failing_midway_keeps_the_old_file(tmp_path):
    path = tmp_path / "corpus.jsonl"
    save_corpus(str(path), [make_triple(id="old")])
    before = path.read_bytes()

    def records():
        yield make_triple(id="new")
        raise RuntimeError("source failed")

    with pytest.raises(RuntimeError, match="source failed"):
        save_corpus(str(path), records())
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["corpus.jsonl"]  # no temp file left


def test_load_corpus_skips_blank_lines(tmp_path):
    path = tmp_path / "c.jsonl"
    path.write_text(json.dumps(record()) + "\n\n" + json.dumps(record(id="r2")) + "\n")
    assert [t.id for t in load_corpus(str(path))] == ["r1", "r2"]


def test_load_corpus_reports_line_numbers(tmp_path):
    path = tmp_path / "c.jsonl"
    path.write_text(json.dumps(record()) + "\n{not json\n")
    with pytest.raises(CorpusError, match=f"^{re.escape(str(path))}: line 2: invalid JSON"):
        load_corpus(str(path))


@pytest.mark.parametrize(
    "bad",
    [
        record(google_rank="2"),
        record(google_rank=True),
        record(google_rank=0),
        record(label_A="excellent"),
        record(q_new_body=None),
        record(c_rel=7),
        {"id": "x"},
        record(c_rel="caf\udce9"),  # a lone surrogate: JSON can escape it, UTF-8 cannot hold it
        record(id="\ud800"),
        record(google_rank=10**400),  # an integer too large for a float, whose reciprocal the prior needs
    ],
)
def test_load_corpus_rejects_bad_records(tmp_path, bad):
    path = tmp_path / "c.jsonl"
    write_jsonl(path, [bad])
    with pytest.raises(CorpusError, match=f"^{re.escape(str(path))}: line 1: "):
        load_corpus(str(path))


def test_only_a_line_with_a_u_escape_can_hold_a_lone_surrogate(tmp_path):
    # the file is strict UTF-8, so a surrogate can only arrive as a \u escape
    path = tmp_path / "c.jsonl"
    path.write_text(json.dumps(record(c_rel="caf\ud800")) + "\n", encoding="utf-8")
    assert "\\ud800" in path.read_text(encoding="utf-8")
    message = f"^{re.escape(str(path))}: line 1: field 'c_rel' holds a lone surrogate, which UTF-8 cannot encode$"
    with pytest.raises(CorpusError, match=message):
        load_corpus(str(path))
    # a literal backslash before a u is no escape: the text loads as written
    path.write_text(json.dumps(record(c_rel="C:\\users"), ensure_ascii=False) + "\n", encoding="utf-8")
    assert "\\\\u" in path.read_text(encoding="utf-8")
    (t,) = load_corpus(str(path))
    assert t.c_rel == "C:\\users"


def test_load_corpus_rejects_non_object(tmp_path):
    path = tmp_path / "c.jsonl"
    path.write_text("[1, 2]\n")
    with pytest.raises(CorpusError, match=f"^{re.escape(str(path))}: line 1: record must be a JSON object$"):
        load_corpus(str(path))


def test_load_corpus_rejects_duplicate_ids(tmp_path):
    path = tmp_path / "c.jsonl"
    write_jsonl(path, [record(), record()])
    with pytest.raises(CorpusError, match=f"^{re.escape(str(path))}: line 2: duplicate id 'r1'$"):
        load_corpus(str(path))


def test_load_corpus_optional_labels(tmp_path):
    path = tmp_path / "c.jsonl"
    rec = record()
    del rec["label_A"]
    del rec["label_C"]
    rec["label_B"] = None
    write_jsonl(path, [rec])
    with pytest.raises(CorpusError):
        load_corpus(str(path))
    (t,) = load_corpus(str(path), require_labels=False)
    assert (t.label_A, t.label_B, t.label_C) == ("bad", "irrelevant", "bad")


def test_extend_dataset_groups_and_dedupes():
    triples = [
        make_triple(id="a", c_rel="first comment"),
        make_triple(id="b", c_rel="second comment", label_A="bad"),
        make_triple(id="c", c_rel="first comment"),  # duplicate text within thread
        make_triple(id="d", q_rel_body="another question", c_rel="third"),
    ]
    derived = extend_dataset(triples)
    assert len(derived) == 3
    first, second = derived[:2], derived[2]
    assert [d.c_rel for d in first] == ["first comment", "second comment"]
    assert [d.id for d in first] == ["a_ed", "b_ed"]
    assert [d.label_A for d in first] == ["good", "bad"]
    assert [d.label_C for d in first] == ["good", "bad"]
    assert {d.group for d in first} == {triples[0].q_rel_key}
    assert (second.id, second.c_rel) == ("d_ed", "third")
    assert second.q_new_body == second.q_rel_body == "another question"
    assert second.group == triples[3].q_rel_key


def test_extend_dataset_keeps_threads_in_first_appearance_order():
    # threads T1, T2, T1: every derived triple of T1 comes before T2's, and
    # the comments of each thread keep their first-appearance order
    triples = [
        make_triple(id="a", q_rel_body="thread one", c_rel="c1"),
        make_triple(id="b", q_rel_body="thread two", c_rel="c2"),
        make_triple(id="c", q_rel_body="thread one", c_rel="c3"),
        make_triple(id="d", q_rel_body="thread two", c_rel="c4"),
        make_triple(id="e", q_rel_body="thread one", c_rel="c1", label_A="bad"),
    ]
    derived = extend_dataset(triples)
    assert [d.id for d in derived] == ["a_ed", "c_ed", "b_ed", "d_ed"]
    assert [d.q_rel_body for d in derived] == ["thread one"] * 2 + ["thread two"] * 2
    assert derived[0].label_A == "good"  # the pair's first triple, not "e"


def test_extend_dataset_takes_the_question_from_the_thread_first_triple():
    # a None and an empty subject hash to the same thread, so the thread's
    # first triple decides the subject of every derived triple
    for first, later in ((None, ""), ("", None)):
        triples = [
            make_triple(id="a", q_rel_subject=first, c_rel="c1"),
            make_triple(id="b", q_rel_subject=later, c_rel="c2"),
            make_triple(id="c", q_rel_subject=later, c_rel="c3"),
        ]
        assert len({t.q_rel_key for t in triples}) == 1
        derived = extend_dataset(triples)
        assert [d.id for d in derived] == ["a_ed", "b_ed", "c_ed"]
        for d in derived:
            assert d.q_rel_subject is first and d.q_new_subject is first


def test_extend_dataset_refuses_a_derived_id_the_corpus_already_has():
    triples = [make_triple(id="a", c_rel="c1"), make_triple(id="a_ed", c_rel="c2")]
    with pytest.raises(CorpusError, match="derived id 'a_ed' is already the id of a triple"):
        extend_dataset(triples)


def test_extend_dataset_properties():
    triples = [
        make_triple(id="a", c_rel="yes do this", label_A="good"),
        make_triple(id="b", c_rel="no idea", label_A="bad"),
        make_triple(id="c", q_rel_body="other", c_rel="try x", label_A="good", label_C="bad"),
    ]
    derived = extend_dataset(triples)
    assert len(derived) == 3
    for d in derived:
        assert d.q_new_subject == d.q_rel_subject
        assert d.q_new_body == d.q_rel_body
        assert d.label_B == "perfect_match"
        assert d.label_C == d.label_A
        assert d.google_rank == 1
    assert derived[0].id == "a_ed"
    assert derived[0].group == triples[0].q_rel_key


def test_make_batches_partitions_and_is_seeded():
    data = list(range(23))
    batches = make_batches(data, 5, seed=3)
    assert [len(b) for b in batches] == [5, 5, 5, 5, 3]
    assert sorted(x for b in batches for x in b) == data
    assert make_batches(data, 5, seed=3) == batches
    assert make_batches(data, 5, seed=4) != batches
    with pytest.raises(ValueError):
        make_batches(data, 0, seed=1)


def test_positive_rates():
    data = [
        make_triple(id="a", label_A="good", label_B="perfect_match", label_C="good"),
        make_triple(id="b", label_A="bad", label_B="relevant", label_C="bad"),
        make_triple(id="c", label_A="bad", label_B="irrelevant", label_C="bad"),
        make_triple(id="d", label_A="good", label_B="irrelevant", label_C="bad"),
    ]
    assert positive_rates(data) == (50.0, 50.0, 25.0)
    with pytest.raises(ValueError):
        positive_rates([])
