import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import cqarank.model as model_module
import cqarank.nn_core as nn
from cqarank.dataset import LABELS, CorpusError, Triple, binarize
from cqarank.model import (
    INPUTS,
    CqaModel,
    Features,
    SentenceEncoder,
    apply_word_vectors,
    compute_features,
    encode_texts,
    rank_bin,
)
from cqarank.synthetic import gradcheck_corpus
from cqarank.text_pipeline import (
    PAD_ID,
    PAD_TOKEN,
    UNK_ID,
    Vocabulary,
    overlap_indicators,
    preprocess,
    triple_sources,
    vocabulary_for,
)
from cqarank.training import TrainConfig, joint_loss, snapshot, train
from oracles import linear_readout, naive_kmax, stacked_conv1d_wide


@pytest.fixture(scope="module")
def corpus():
    return gradcheck_corpus()


@pytest.fixture(scope="module")
def vocab(corpus):
    return vocabulary_for(corpus)


def small_mtl(vocab, seed=0, dtype=np.float32):
    return CqaModel(vocab, m=6, d_w=8, d_feat=3, seed=seed, dtype=dtype)


# ---------------------------------------------------------------------------
# rank discretization
# ---------------------------------------------------------------------------


def test_rank_bin_boundaries():
    assert rank_bin(1) == 0
    assert rank_bin(2) == 1
    assert rank_bin(4) == 1
    assert rank_bin(5) == 2
    assert rank_bin(9) == 2
    assert rank_bin(10) == 3
    assert rank_bin(24) == 3
    assert rank_bin(25) == 4
    assert rank_bin(10_000) == 4


def test_rank_bin_total_and_monotone():
    previous = 0
    seen = set()
    for rank in range(1, 10_001):
        b = rank_bin(rank)
        assert 0 <= b < 5
        assert b >= previous
        previous = b
        seen.add(b)
    assert seen == {0, 1, 2, 3, 4}
    with pytest.raises(ValueError):
        rank_bin(0)


# ---------------------------------------------------------------------------
# feature extraction
# ---------------------------------------------------------------------------


def test_triple_features_use_union_overlaps(corpus, vocab):
    feats, pizza = compute_features(corpus[:2], vocab)
    texts = {role: preprocess(*source) for role, source in triple_sources(corpus[0]).items()}
    # "wifi" occurs in all three texts, so it overlaps from every side
    for k, role in enumerate(INPUTS[None]):
        assert len(feats.ids[k]) == len(feats.overlaps[k]) == len(texts[role])
        idx = texts[role].tokens.index("wifi")
        assert feats.overlaps[k][idx] == 1
    # "pizza" appears only in q_rel of corpus[1]
    idx = preprocess(*triple_sources(corpus[1])["q_rel"]).tokens.index("pizza")
    assert pizza.overlaps[1][idx] == 0
    assert pizza.rank_bin == rank_bin(corpus[1].google_rank)


def test_pair_features_select_task_texts(corpus, vocab):
    t = corpus[0]
    [a] = compute_features([t], vocab, "A")
    [b] = compute_features([t], vocab, "B")
    [c] = compute_features([t], vocab, "C")
    def ids(*tokens):
        return tuple(vocab.id_of(tok) for tok in tokens)

    assert a.ids[0][:2] == ids("wifi", "drops")  # q_rel subject first
    assert b.ids[0][:2] == ids("upgrade", "breaks")  # q_new
    assert b.ids[1][:2] == ids("wifi", "drops")  # q_rel
    assert c.ids[1] == a.ids[1]  # both use the comment
    with pytest.raises(ValueError):
        compute_features([t], vocab, "D")


def test_pair_overlaps_are_pairwise_not_union(corpus, vocab):
    t = corpus[1]  # pizza question, comment about a place on fifth street
    [b] = compute_features([t], vocab, "B")
    # "pizza" is not in q_new, so in the (q_new, q_rel) pair it has no overlap
    idx = preprocess(*triple_sources(t)["q_rel"]).tokens.index("pizza")
    assert b.overlaps[1][idx] == 0


def test_empty_text_falls_back_to_pad(vocab):
    from cqarank.dataset import Triple

    t = Triple(
        id="e", group="g", q_new_subject=None, q_new_body="", q_rel_subject="s",
        q_rel_body="b", c_rel="c", google_rank=1,
        label_A="good", label_B="relevant", label_C="good",
    )
    [feats] = compute_features([t], vocab)
    assert feats.ids[0] == (PAD_ID,) == (0,)
    assert feats.overlaps[0] == (0,)
    model = small_mtl(vocab)
    preds = model.predict(feats)
    for tensor in preds.values():
        assert np.isfinite(tensor.data).all()


def repeated_text_corpus():
    """Two questions' candidates: each group shares its new question, a
    related question repeats over its thread's comments (once with a None and
    once with an "" subject) and its body recurs under another subject, one
    comment is empty, one repeats a question's text and one has a token
    spelled like PAD."""
    wifi = ("Wifi drops", "my wifi drops after the upgrade!")
    pizza = (None, "where is good pizza, downtown?")
    dropping = "(wifi) keeps dropping again..."
    rows = [
        (wifi, ("", dropping), "reset the router."),
        (wifi, (None, dropping), "reset the router."),
        (wifi, ("", dropping), ""),
        (wifi, ("Router", "old router, new firmware?"), "update it! <pad>"),
        (wifi, ("Router", dropping), "reset the router."),
        (pizza, ("Pizza", "best pizza downtown"), "where is good pizza, downtown?"),
        (pizza, ("Pizza", "best pizza downtown"), "try the place on fifth"),
        (pizza, ("", ""), "try the place on fifth"),
    ]
    return [
        Triple(
            id=f"r{i}", group="wifi" if q_new is wifi else "pizza",
            q_new_subject=q_new[0], q_new_body=q_new[1], q_rel_subject=q_rel[0],
            q_rel_body=q_rel[1], c_rel=comment, google_rank=i + 1,
            label_A="good", label_B="relevant", label_C="good",
        )
        for i, (q_new, q_rel, comment) in enumerate(rows)
    ]


def features_one_text_at_a_time(triple, vocab, task, max_len):
    """The featurizer's reference: every text of every triple tokenized and
    encoded on its own."""
    texts = [preprocess(*triple_sources(triple)[role], max_len) for role in INPUTS[task]]
    ids, overlaps = [], []
    for k, text in enumerate(texts):
        if len(text) == 0:
            ids.append((PAD_ID,))
            overlaps.append((0,))
        else:
            ids.append(tuple(vocab.id_of(tok) if tok != PAD_TOKEN else UNK_ID for tok in text.tokens))
            overlaps.append(overlap_indicators(text, texts[:k] + texts[k + 1 :]))
    return Features(tuple(ids), tuple(overlaps), rank_bin(triple.google_rank))


@pytest.mark.parametrize("max_len", [3, 100])
@pytest.mark.parametrize("task", [None, "A", "B", "C"])
def test_featurize_all_matches_featurizing_one_triple_at_a_time(task, max_len):
    triples = repeated_text_corpus()
    vocab = vocabulary_for(triples[:4], max_len=max_len)  # the pizza texts are partly unknown
    model = CqaModel(vocab, task=task, m=3, d_w=4, d_feat=2, max_len=max_len)
    features = model.featurize_all(triples)
    assert features == [model.featurize(t) for t in triples]
    assert features == [features_one_text_at_a_time(t, vocab, task, max_len) for t in triples]
    # triples that read the same text share its ids
    q_new = [f.ids[0] for f in features] if task in (None, "B", "C") else []
    assert all(ids is q_new[0] for ids in q_new[1:4])


@pytest.mark.parametrize("task", [None, "A", "B", "C"])
def test_featurize_all_preprocesses_each_distinct_text_once_per_call(monkeypatch, task):
    triples = repeated_text_corpus()
    calls = []
    preprocess = model_module.preprocess
    monkeypatch.setattr(model_module, "preprocess", lambda *a: calls.append(a[:2]) or preprocess(*a))
    model = CqaModel(vocabulary_for(triples), task=task, m=3, d_w=4, d_feat=2)
    distinct = {triple_sources(t)[role] for t in triples for role in INPUTS[task]}
    assert len(distinct) < len(triples) * len(INPUTS[task])
    model.featurize_all(triples)
    assert sorted(calls, key=repr) == sorted(distinct, key=repr)
    # nothing is kept between calls
    model.featurize_all(triples)
    assert len(calls) == 2 * len(distinct)


# ---------------------------------------------------------------------------
# parameter sharing
# ---------------------------------------------------------------------------


def test_mtl_question_encoder_is_shared(corpus, vocab):
    model = small_mtl(vocab)
    params = model.parameters()
    names = [p.name for p in params]
    assert len(names) == len(set(names))  # no duplicates
    assert len(params) == len({id(p) for p in params})  # each stored once
    # 4 per encoder, rank table, joint layer (2), 3 heads of 4
    assert len(params) == 4 + 4 + 1 + 2 + 12

    # perturbing the single question-encoder table changes both question
    # encodings but not the comment encoding
    feats = model.featurize(corpus[0])
    before = model.predict(feats)
    model.q_encoder.word_emb.data[:] += 0.5
    after = model.predict(feats)
    for task in ("A", "B", "C"):
        assert before[task].data[0] != after[task].data[0]


def test_mtl_shared_encoder_receives_gradients_from_both_questions(corpus, vocab):
    model = small_mtl(vocab, dtype=np.float64)
    feats = model.featurize(corpus[0])
    with nn.recording():
        preds = model.predict(feats)
        loss = joint_loss(preds, [binarize(corpus[0])], ("A", "B", "C"))
        for p in model.parameters():
            p.zero_grad()
        loss.backward()
    assert np.abs(model.q_encoder.filters.grad).sum() > 0
    assert np.abs(model.c_encoder.filters.grad).sum() > 0


def test_the_word_part_runs_once_per_distinct_text(corpus, vocab, monkeypatch):
    # the candidates of a new question all repeat its text, so the question
    # encoder's word rows hold each distinct text once, in first-seen
    # order, while the feature ids cover every occurrence: first each text's
    # first occurrence, then the other occurrences grouped by text
    model = small_mtl(vocab)
    features = model.featurize_all(corpus)
    calls = []
    real_conv = nn.conv1d_wide

    def spy(words, feats, feat_ids, filters, bias, lengths, texts):
        calls.append((filters, words.shape[0], list(feat_ids), list(lengths), list(texts)))
        return real_conv(words, feats, feat_ids, filters, bias, lengths, texts)

    monkeypatch.setattr(nn, "conv1d_wide", spy)
    model.predict(features)
    assert len(calls) == len(model.encoder_runs) == 2

    def call_of(encoder):
        # the comment run arrives from the worker, in no fixed order with the
        # caller's: a call is matched to its encoder by its filters
        [call] = [call[1:] for call in calls if call[0] is encoder.filters]
        return call

    for encoder, positions in model.encoder_runs:
        word_cols, feat_ids, lengths, texts = call_of(encoder)
        occurrences = [f.ids[k] for f in features for k in positions]
        overlaps = [f.overlaps[k] for f in features for k in positions]
        distinct = list(dict.fromkeys(occurrences))
        assert lengths == [len(t) for t in distinct]
        assert word_cols == sum(map(len, distinct))
        firsts = [occurrences.index(t) for t in distinct]
        grouped = firsts + [k for t in distinct for k, o in enumerate(occurrences) if o == t and k not in firsts]
        assert texts == [distinct.index(occurrences[k]) for k in grouped]
        assert feat_ids == [i for k in grouped for i in overlaps[k]]
    question_words, question_feat_ids = call_of(model.q_encoder)[:2]
    assert question_words < len(question_feat_ids)


def random_encoder(rng, width, dtype=np.float64, vocab_size=8, m=3, d_w=4, d_feat=2):
    return SentenceEncoder(
        nn.Parameter("word_emb", rng.normal(size=(vocab_size, d_w)).astype(dtype)),
        nn.Parameter("feat_emb", rng.normal(size=(2, d_feat)).astype(dtype)),
        nn.Parameter("filters", rng.normal(size=(m, d_w + d_feat, width)).astype(dtype)),
        nn.Parameter("conv_bias", rng.normal(size=m).astype(dtype)),
    )


@st.composite
def encoder_runs(draw):
    """The texts of one encoder run, with an overlap tuple per occurrence, in
    one of three patterns: a scoring chunk's questions in corpus order (the
    new question and a related question interleaved, the related question
    once per comment); texts repeated side by side; or no repeats."""
    tokens = st.lists(st.integers(PAD_ID + 1, 7), min_size=1, max_size=6).map(tuple)
    pool = [(PAD_ID,)] + draw(st.lists(tokens, min_size=1, max_size=4, unique=True))
    pattern = draw(st.sampled_from(["corpus order", "side by side", "distinct"]))
    if pattern == "corpus order":
        new = draw(st.sampled_from(pool))
        related = draw(st.lists(st.tuples(st.sampled_from(pool), st.integers(1, 3)), min_size=1, max_size=3))
        ids = [text for r, comments in related for _ in range(comments) for text in (new, r)]
    elif pattern == "side by side":
        runs = draw(st.lists(st.tuples(st.sampled_from(pool), st.integers(1, 3)), min_size=1, max_size=4))
        ids = [text for text, count in runs for _ in range(count)]
    else:
        ids = draw(st.permutations(pool))
    overlaps = [(0,) if t == (PAD_ID,) else tuple(draw(st.lists(st.integers(0, 1), min_size=len(t), max_size=len(t))))
                for t in ids]
    return ids, overlaps


def one_occurrence_at_a_time(encoder, ids, overlaps, upstream):
    """Each occurrence's encoding through the stacked-text conv oracle and a
    max over its columns, and the encoder's gradients of
    sum(upstream * encodings), the max routing to its first maximal column."""
    filters, bias = encoder.filters.data, encoder.conv_bias.data
    d_w, m = encoder.word_emb.data.shape[1], bias.size
    grads = [np.zeros_like(p.data) for p in (encoder.word_emb, encoder.feat_emb, encoder.filters, encoder.conv_bias)]
    rows = []
    for text, overlap, g in zip(ids, overlaps, upstream):
        x = np.vstack([encoder.word_emb.data[list(text)].T, encoder.feat_emb.data[list(overlap)].T])
        fmap, backward = stacked_conv1d_wide(x, filters, bias, [len(text)])
        rows.append(naive_kmax(fmap))
        fmap_grad = np.zeros_like(fmap)
        fmap_grad[np.arange(m), fmap.argmax(axis=1)] = g
        x_grad, filters_grad, bias_grad = backward(fmap_grad)
        np.add.at(grads[0], list(text), x_grad[:d_w].T)
        np.add.at(grads[1], list(overlap), x_grad[d_w:].T)
        grads[2] += filters_grad
        grads[3] += bias_grad
    return np.array(rows), grads


@settings(max_examples=150, deadline=None)
@given(run=encoder_runs(), width=st.integers(1, 4), seed=st.integers(0, 2**16), data=st.data())
def test_encode_texts_matches_one_occurrence_at_a_time(run, width, seed, data):
    """float64: every occurrence's encoding and the word, feature, filter and
    bias gradients match the per-occurrence oracle to 1e-10.  float32:
    re-interleaving the occurrences of different texts, each text keeping
    its own occurrence order, leaves every pooled row bitwise unchanged."""
    ids, overlaps = run
    rng = np.random.default_rng(seed)
    encoder = random_encoder(rng, width)
    upstream = rng.normal(size=(len(ids), encoder.conv_bias.data.size))
    with nn.recording():
        encodings = encode_texts(encoder, ids, overlaps)
        linear_readout(encodings, upstream).backward()
    want, want_grads = one_occurrence_at_a_time(encoder, ids, overlaps, upstream)
    np.testing.assert_allclose(encodings.data, want, rtol=0, atol=1e-10)
    for p, want_grad in zip((encoder.word_emb, encoder.feat_emb, encoder.filters, encoder.conv_bias), want_grads):
        np.testing.assert_allclose(p.grad, want_grad, rtol=0, atol=1e-10, err_msg=p.name)

    single = random_encoder(np.random.default_rng(seed), width, np.float32)
    pooled = encode_texts(single, ids, overlaps).data
    # deal each text's occurrences, in their order, into a shuffled sequence of texts
    queues = {t: [k for k, o in enumerate(ids) if o == t] for t in dict.fromkeys(ids)}
    moved = [queues[t].pop(0) for t in data.draw(st.permutations(ids))]
    again = encode_texts(single, [ids[k] for k in moved], [overlaps[k] for k in moved]).data
    assert again.dtype == np.float32
    np.testing.assert_array_equal(again, pooled[moved])


def test_the_pooled_rows_go_back_by_a_pure_permutation(monkeypatch):
    """The reorder of the pooled rows scatters nothing: the only scatter of
    an encoder run is the word-embedding one.  A finite-difference check
    through encode_texts on an interleaved batch passes."""
    rng = np.random.default_rng(31)
    encoder = random_encoder(rng, 3)
    new, related, other = (1, 2, 3), (4, 5), (6, 1, 7, 2)
    ids = [new, related, new, related, new, other, new, other, new, (PAD_ID,)]
    overlaps = [tuple(int(b) for b in rng.integers(0, 2, size=len(t))) for t in ids]
    weight = nn.Parameter("w", rng.normal(size=(1, 3)) * 0.3)
    out_b = nn.Parameter("ob", np.zeros(1))
    labels = rng.integers(0, 2, size=(len(ids), 1))

    def loss():
        return nn.bce_loss(nn.dense(encode_texts(encoder, ids, overlaps), weight, out_b, "sigmoid"), labels)

    scattered = []
    real_scatter = nn._scatter_rows

    def spy(table_grad, index, rows):
        scattered.append(list(index))
        real_scatter(table_grad, index, rows)

    monkeypatch.setattr(nn, "_scatter_rows", spy)
    with nn.recording():
        loss().backward()
    assert scattered == [[i for t in dict.fromkeys(ids) for i in t]]
    params = [encoder.word_emb, encoder.feat_emb, encoder.filters, encoder.conv_bias, weight, out_b]
    assert nn.grad_check(loss, params, probe_count=60, rng=np.random.default_rng(6)) < 1e-4


def test_pair_model_task_b_shares_one_encoder(vocab):
    b = CqaModel(vocab, task="B", m=6, d_w=8, d_feat=3)
    assert b.c_encoder is None
    assert b.encoder_runs == [(b.q_encoder, (0, 1))]
    a = CqaModel(vocab, task="A", m=6, d_w=8, d_feat=3)
    assert a.c_encoder is not None and a.c_encoder is not a.q_encoder
    assert a.encoder_runs == [(a.q_encoder, (0,)), (a.c_encoder, (1,))]
    # task A is not search-ranked, so it has no rank embedding
    assert a.rank_emb is None and a.joint_dim == 12
    assert b.rank_emb is not None and b.joint_dim == 15


def test_pair_model_predict_scores_only_its_task(corpus, vocab):
    model = CqaModel(vocab, task="C", m=6, d_w=8, d_feat=3)
    preds = model.predict(model.featurize(corpus[0]))
    assert set(preds) == {"C"}
    assert 0.0 < preds["C"].data[0] < 1.0


def test_predict_runs_only_the_requested_heads(corpus, vocab, monkeypatch):
    model = small_mtl(vocab)
    features = model.featurize_all(corpus)
    every = model.predict(features)
    runs = []  # per head run: its task, and whether it is a training pass (dropout on)
    forward = model_module.TaskHead.forward

    def spy(head, x, dropout_hidden, mask):
        runs.append((next(t for t, h in model.heads.items() if h is head), mask is not None))
        return forward(head, x, dropout_hidden, mask)

    monkeypatch.setattr(model_module.TaskHead, "forward", spy)
    only_c = model.predict(features, tasks=("C",))
    assert runs == [("C", False)]
    assert list(only_c) == ["C"]
    assert only_c["C"].data.tobytes() == every["C"].data.tobytes()
    assert list(model.predict(features, tasks=("C", "A"))) == ["A", "C"]  # the network's order
    for bad in ((), ("Z",), ("A", "Z")):
        with pytest.raises(ValueError, match=r"^model scores tasks \('A', 'B', 'C'\), not "):
            model.predict(features, tasks=bad)
    with pytest.raises(ValueError, match="model scores tasks"):
        CqaModel(vocab, task="C", m=6, d_w=8, d_feat=3).predict(features[:1], tasks=("A",))
    # a training step runs every head, so its dropout draws and gradients do
    # not depend on the trained tasks; the dev pass runs only the trained one
    runs.clear()
    train(model, corpus, corpus, TrainConfig(epochs=1, batch_size=len(corpus), tasks=("C",)))
    assert runs == [("A", True), ("B", True), ("C", True), ("C", False)]


def test_inference_builds_no_graph(corpus, vocab):
    model = small_mtl(vocab, dtype=np.float64)
    batch = [model.featurize(t) for t in corpus[:3]]
    labels = [binarize(t) for t in corpus[:3]]
    preds = model.predict(batch, training=False)
    assert all(p.backward_fn is None for p in preds.values())
    loss = joint_loss(preds, labels, model.tasks)
    assert loss.backward_fn is None
    with pytest.raises(ValueError, match=r"^backward\(\) needs a loss computed inside nn.recording\(\) and not yet differentiated$"):
        loss.backward()
    # backward differentiates a recorded graph once and frees it
    with nn.recording():
        loss = joint_loss(model.predict(batch, training=False), labels, model.tasks)
        loss.backward()
        assert loss.backward_fn is None
        with pytest.raises(ValueError, match="inside nn.recording"):
            loss.backward()


# ---------------------------------------------------------------------------
# invariances and determinism
# ---------------------------------------------------------------------------


def test_zeroed_rank_table_makes_rank_irrelevant(corpus, vocab):
    import dataclasses

    model = small_mtl(vocab)
    model.rank_emb.data[:] = 0.0
    base = corpus[0]
    scores = []
    for rank in (1, 3, 7, 12, 80):
        t = dataclasses.replace(base, google_rank=rank)
        preds = model.predict(model.featurize(t))
        scores.append({k: v.data[0] for k, v in preds.items()})
    for other in scores[1:]:
        for task in ("A", "B", "C"):
            assert other[task] == scores[0][task]


def test_same_seed_same_model(corpus, vocab):
    m1, m2 = small_mtl(vocab, seed=9), small_mtl(vocab, seed=9)
    for p1, p2 in zip(m1.parameters(), m2.parameters()):
        assert p1.name == p2.name
        np.testing.assert_array_equal(p1.data, p2.data)
    m3 = small_mtl(vocab, seed=10)
    assert any(
        not np.array_equal(p1.data, p3.data)
        for p1, p3 in zip(m1.parameters(), m3.parameters())
    )
    feats = m1.featurize(corpus[2])
    r1 = m1.predict(feats)
    r2 = m1.predict(feats)
    for task in ("A", "B", "C"):
        assert r1[task].data[0] == r2[task].data[0]


def test_init_is_bounded(vocab):
    model = small_mtl(vocab, seed=3)
    for p in model.parameters():
        assert np.all(np.abs(p.data) <= 0.05)


def test_training_mode_dropout_changes_scores(corpus, vocab):
    model = small_mtl(vocab)
    feats = model.featurize(corpus[0])
    quiet = model.predict(feats)
    noisy = model.predict(feats, training=True, rng=np.random.default_rng(0))
    assert any(quiet[t].data[0] != noisy[t].data[0] for t in ("A", "B", "C"))


# ---------------------------------------------------------------------------
# pretrained vectors
# ---------------------------------------------------------------------------


def test_word_vectors_round_trip(tmp_path, vocab):
    path = tmp_path / "vectors.txt"
    d_w = 8
    vectors = {word: [0.125 * (i + k) for i in range(d_w)] for k, word in enumerate(("wifi", "upgrade", "visa"), 1)}
    line = "wifi " + " ".join(map(str, vectors["wifi"]))
    # word2vec's C writer ends each line with a space; tabs separate as spaces do
    trailing_space = "upgrade " + " ".join(map(str, vectors["upgrade"])) + " "
    tabbed = "\t".join(["visa", *map(str, vectors["visa"])])
    unknown = "unknownword " + " ".join(["0.0"] * d_w)
    path.write_text("\n".join([line, trailing_space, tabbed, unknown]) + "\n")
    model = small_mtl(vocab)
    before = snapshot(model)
    replaced = apply_word_vectors(model, str(path))
    assert replaced == 3  # the unknown word's line is skipped
    ids = [vocab.id_of(word) for word in vectors]
    for idx, vec in zip(ids, vectors.values()):
        np.testing.assert_allclose(model.q_encoder.word_emb.data[idx], vec, rtol=1e-6)
        np.testing.assert_allclose(model.c_encoder.word_emb.data[idx], vec, rtol=1e-6)
    # word2vec's text writer starts the file with a "<count> <dim>" line
    path.write_text(f"4 {d_w}\n" + path.read_text())
    headed = small_mtl(vocab)
    assert apply_word_vectors(headed, str(path)) == 3
    for p, q in zip(model.parameters(), headed.parameters()):
        np.testing.assert_array_equal(q.data, p.data, err_msg=p.name)
    for p in model.parameters():
        if p.name.endswith(".word_emb"):
            p.data[ids] = before[p.name][ids]
        np.testing.assert_array_equal(p.data, before[p.name], err_msg=p.name)


def test_word_vectors_skip_the_pad_row(tmp_path, vocab):
    # no text token reads as PAD, so a <pad> line is skipped like an
    # out-of-vocabulary one: its components are not read and it is not counted
    path = tmp_path / "vectors.txt"
    for pad_line in ("<pad> " + " ".join(["9"] * 8), "<pad> " + " ".join(["x"] * 8)):
        path.write_text(pad_line + "\nwifi " + " ".join(["0.5"] * 8) + "\n")
        model = small_mtl(vocab)
        before = snapshot(model)
        assert apply_word_vectors(model, str(path)) == 1
        for p in model.parameters():
            if p.name.endswith(".word_emb"):
                np.testing.assert_array_equal(p.data[PAD_ID], before[p.name][PAD_ID], err_msg=p.name)
                np.testing.assert_array_equal(p.data[vocab.id_of("wifi")], 0.5, err_msg=p.name)


def test_word_vectors_dimension_mismatch(tmp_path, vocab):
    path = tmp_path / "vectors.txt"
    path.write_text("wifi 1.0 2.0\n")
    with pytest.raises(ValueError, match="components"):
        apply_word_vectors(small_mtl(vocab), str(path))


# a bad line of a vectors file, with the error it gives after the path; the
# file's other line is a good one, after a bad first line and before any other
BAD_VECTOR_LINES = {
    "wifi 1.0 2.0": "line 2 has 2 components, expected 8",
    "drops " + " ".join(["1e39"] * 8): "line 2 component 1 is '1e39', not finite in float32",
    "drops " + " ".join(["x"] * 8): "line 2 component 1 is 'x', not a number",
    "2 6": "line 1 is a header for 6 components, expected 8",
    "wifi": "line 2 has 0 components, expected 8",
    "upgrade " + " ".join(["2"] * 8): "line 2 repeats the token 'upgrade' of line 1",
}


@pytest.mark.parametrize("bad", list(BAD_VECTOR_LINES))
def test_word_vectors_leave_the_model_unchanged_on_a_bad_line(tmp_path, vocab, bad):
    path = tmp_path / "vectors.txt"
    good = "upgrade " + " ".join(["0.5"] * 8)
    lines = [bad, good] if BAD_VECTOR_LINES[bad].startswith("line 1 ") else [good, bad]
    path.write_text("\n".join(lines) + "\n")
    model = small_mtl(vocab)
    before = snapshot(model)
    with pytest.raises(CorpusError, match="^" + re.escape(f"{path}: {BAD_VECTOR_LINES[bad]}") + "$"):
        apply_word_vectors(model, str(path))
    for p in model.parameters():
        np.testing.assert_array_equal(p.data, before[p.name], err_msg=p.name)


# ---------------------------------------------------------------------------
# one graph per batch against batch-of-one passes
# ---------------------------------------------------------------------------

PROPERTY_MAX_LEN = 7
WORDS = [f"w{i}" for i in range(12)]
PROPERTY_VOCAB = Vocabulary(WORDS[:9])  # w9..w11 map to UNK


@st.composite
def batches(draw, roles):
    """1-9 triples over a small word list.  In one of them the network's
    first input text is empty and its second longer than
    ``PROPERTY_MAX_LEN``."""
    size = draw(st.integers(1, 9))
    special = draw(st.integers(0, size - 1))

    def words(n_min=0, n_max=PROPERTY_MAX_LEN + 3):
        return " ".join(draw(st.lists(st.sampled_from(WORDS), min_size=n_min, max_size=n_max)))

    triples = []
    for i in range(size):
        texts = {role: (words(0, 2), words()) for role in ("q_new", "q_rel")}
        texts["c_rel"] = (None, words())
        if i == special:
            texts[roles[0]] = (None, "")
            texts[roles[1]] = (None, words(PROPERTY_MAX_LEN + 1))
        triples.append(
            Triple(
                id=f"t{i}", group="g",
                q_new_subject=texts["q_new"][0], q_new_body=texts["q_new"][1],
                q_rel_subject=texts["q_rel"][0], q_rel_body=texts["q_rel"][1],
                c_rel=texts["c_rel"][1],
                google_rank=draw(st.integers(1, 40)),
                label_A=draw(st.sampled_from(LABELS["A"])),
                label_B=draw(st.sampled_from(LABELS["B"])),
                label_C=draw(st.sampled_from(LABELS["C"])),
            )
        )
    return triples


@settings(max_examples=40, deadline=None)
@given(
    task=st.sampled_from([None, "A", "B", "C"]),
    width=st.integers(1, 4),
    seed=st.integers(0, 2**16),
    data=st.data(),
)
def test_batched_predict_and_gradients_match_batch_of_one_passes(task, width, seed, data):
    triples = data.draw(batches(INPUTS[task]))
    model = CqaModel(
        PROPERTY_VOCAB, task=task, m=3, d_w=4, d_feat=2, filter_width=width,
        max_len=PROPERTY_MAX_LEN, seed=seed, dtype=np.float64,
    )
    features = [model.featurize(t) for t in triples]
    ids = [text_ids for f in features for text_ids in f.ids]
    assert any(text_ids == (PAD_ID,) for text_ids in ids)
    assert any(len(text_ids) == PROPERTY_MAX_LEN for text_ids in ids)
    labels = [binarize(t) for t in triples]

    for p in model.parameters():
        p.zero_grad()
    with nn.recording():
        batched = model.predict(features, training=True, rng=np.random.default_rng(seed))
        joint_loss(batched, labels, model.tasks).backward()
    batched_grads = [p.grad.copy() for p in model.parameters()]

    for p in model.parameters():
        p.zero_grad()
    rng = np.random.default_rng(seed)
    singles = []
    with nn.recording():  # each backward differentiates only its own pass
        for f, y in zip(features, labels):
            preds = model.predict(f, training=True, rng=rng)
            joint_loss(preds, [y], model.tasks).backward()
            singles.append(preds)

    for t in model.tasks:
        assert batched[t].shape == (len(triples),)
        want = np.concatenate([s[t].data for s in singles])
        np.testing.assert_allclose(batched[t].data, want, rtol=0, atol=1e-10)
    for p, got in zip(model.parameters(), batched_grads):
        np.testing.assert_allclose(got, p.grad, rtol=0, atol=1e-10, err_msg=p.name)
