import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cqarank.text_pipeline import (
    PAD_ID,
    PAD_TOKEN,
    UNK_ID,
    UNK_TOKEN,
    TokenizedText,
    _split_token,
    Vocabulary,
    build_vocabulary,
    overlap_indicators,
    preprocess,
    tokenize,
)


def test_tokenize_lowercases_and_splits():
    assert tokenize("Hello World") == ["hello", "world"]
    assert tokenize("  spaced\tout \n lines ") == ["spaced", "out", "lines"]
    assert tokenize("") == []


def test_tokenize_peels_edge_punctuation():
    assert tokenize("works!") == ["works", "!"]
    assert tokenize("(really?)") == ["(", "really", "?", ")"]
    assert tokenize("wait...") == ["wait", ".", ".", "."]


def test_tokenize_keeps_interior_punctuation():
    assert tokenize("don't") == ["don't"]
    assert tokenize("e-mail me") == ["e-mail", "me"]


def test_tokenize_lone_punctuation_survives():
    assert tokenize("! ?") == ["!", "?"]
    assert tokenize("--") == ["-", "-"]


@settings(max_examples=300, deadline=None)
@given(text=st.text())
def test_tokenize_yields_bare_tokens_and_is_idempotent(text):
    tokens = tokenize(text)
    assert all(tok and not any(ch.isspace() for ch in tok) for tok in tokens)
    assert tokenize(" ".join(tokens)) == tokens


def split_each_raw_token(text):
    return [part for raw in text.lower().split() for part in _split_token(raw)]


# tokens whose edges are punctuation, symbols, marks or non-ASCII letters and
# digits, next to plain ones
EDGE_CHARS = st.sampled_from(list("!?.,;:'\"()[]{}<>-_/\\@#%&*+=~`^|") + list("¿¡«»“”‘’–—…·§¶†"))
LETTERS = st.sampled_from(list("abcXYZ019") + list("éßØĳΣωдЖ٣߁Ⅻİǅ"))
NON_ASCII = st.characters(min_codepoint=0x80, exclude_categories=("Cs", "Zs", "Zl", "Zp", "Cc"))
EDGED_TOKEN = st.builds(
    lambda lead, core, trail: "".join(lead) + "".join(core) + "".join(trail),
    st.lists(st.one_of(EDGE_CHARS, NON_ASCII), max_size=3),
    st.lists(st.one_of(LETTERS, EDGE_CHARS, NON_ASCII), max_size=4),
    st.lists(st.one_of(EDGE_CHARS, NON_ASCII), max_size=3),
)


@settings(max_examples=300, deadline=None)
@given(text=st.text())
def test_tokenize_matches_splitting_every_raw_token(text):
    assert tokenize(text) == split_each_raw_token(text)


@settings(max_examples=300, deadline=None)
@given(tokens=st.lists(EDGED_TOKEN, max_size=8), spaces=st.sampled_from([" ", "\t", "\n ", "\u3000"]))
def test_tokenize_matches_splitting_tokens_with_punctuated_edges(tokens, spaces):
    text = spaces.join(tokens)
    assert tokenize(text) == split_each_raw_token(text)


def test_preprocess_subject_comes_first():
    text = preprocess("Visa time", "how long does it take?")
    assert text.tokens[:2] == ("visa", "time")
    assert "how" in text.tokens


def test_preprocess_without_subject():
    assert preprocess(None, "just a body").tokens == ("just", "a", "body")
    assert preprocess("", "just a body").tokens == ("just", "a", "body")


def test_preprocess_truncates():
    body = " ".join(f"w{i}" for i in range(300))
    text = preprocess(None, body, max_len=100)
    assert len(text) == 100
    assert text.tokens[-1] == "w99"


def test_preprocess_empty_everything():
    assert preprocess(None, "").tokens == ()


def test_preprocess_rejects_bad_max_len():
    with pytest.raises(ValueError):
        preprocess(None, "x", max_len=0)


def test_vocabulary_reserved_entries():
    vocab = Vocabulary(["alpha", "beta"])
    assert vocab.id_of(PAD_TOKEN) == PAD_ID
    assert vocab.id_of(UNK_TOKEN) == UNK_ID
    assert vocab.id_of("alpha") == 2
    assert vocab.id_of("beta") == 3
    assert len(vocab) == 4


def test_vocabulary_unknown_maps_to_unk():
    vocab = Vocabulary(["alpha"])
    assert vocab.id_of("never-seen") == UNK_ID
    assert "never-seen" not in vocab
    assert "alpha" in vocab


def test_vocabulary_rejects_duplicates():
    with pytest.raises(ValueError):
        Vocabulary(["dup", "dup"])
    with pytest.raises(ValueError):
        Vocabulary([PAD_TOKEN])


def test_reserved_tokens_in_a_text_read_as_unknown():
    # only an empty text reads as PAD; a text token spelled "<pad>" is not counted
    text = preprocess(None, "a <pad> <unk> b a")
    assert text.tokens == ("a", PAD_TOKEN, UNK_TOKEN, "b", "a")
    assert Vocabulary(["a"]).encode(text) == (2, UNK_ID, UNK_ID, UNK_ID, 2)
    vocab = build_vocabulary([text])
    assert vocab.tokens == (PAD_TOKEN, UNK_TOKEN, "a", "b")
    assert vocab.encode(text) == (2, UNK_ID, UNK_ID, 3, 2)


def test_vocabulary_tokens_round_trip():
    vocab = Vocabulary(["x", "y", "z"])
    rebuilt = Vocabulary(vocab.tokens[2:])
    assert rebuilt.tokens == vocab.tokens
    for t in ("x", "y", "z"):
        assert rebuilt.id_of(t) == vocab.id_of(t)


def test_vocabulary_encode():
    vocab = Vocabulary(["the", "cat"])
    text = TokenizedText(("the", "cat", "meowed"))
    assert vocab.encode(text) == (2, 3, UNK_ID)


def test_build_vocabulary_orders_by_frequency_then_token():
    texts = [
        TokenizedText(("b", "b", "a", "a", "c")),
        TokenizedText(("b", "z", "a")),
    ]
    vocab = build_vocabulary(texts)
    # b appears 3x, a 3x (tie broken alphabetically), then c and z once each
    assert vocab.tokens[2:] == ("a", "b", "c", "z")


def test_build_vocabulary_min_count():
    texts = [TokenizedText(("solo", "pair", "pair"))]
    vocab = build_vocabulary(texts, min_count=2)
    assert "pair" in vocab
    assert "solo" not in vocab
    with pytest.raises(ValueError):
        build_vocabulary(texts, min_count=0)


def test_overlap_indicators_basic():
    target = TokenizedText(("how", "to", "renew", "a", "visa"))
    other = TokenizedText(("visa", "renewal", "how"))
    assert overlap_indicators(target, [other]) == (1, 0, 0, 0, 1)


def test_overlap_indicators_union_of_others():
    target = TokenizedText(("a", "b", "c"))
    one = TokenizedText(("a",))
    two = TokenizedText(("c",))
    assert overlap_indicators(target, [one, two]) == (1, 0, 1)
    assert overlap_indicators(target, []) == (0, 0, 0)


def test_overlap_indicators_random_property():
    # indicator j is exactly membership of token j in the union of the others
    rng = np.random.default_rng(7)
    words = [f"w{i}" for i in range(12)]
    for _ in range(50):
        target = TokenizedText(tuple(rng.choice(words, size=rng.integers(1, 9))))
        others = [
            TokenizedText(tuple(rng.choice(words, size=rng.integers(0, 6))))
            for _ in range(rng.integers(1, 4))
        ]
        union = set().union(*(o.tokens for o in others))
        got = overlap_indicators(target, others)
        assert got == tuple(1 if t in union else 0 for t in target.tokens)
