import contextlib
import math
import threading
import time
from unittest import mock

import numpy as np
import pytest

from hypothesis import given, settings
from hypothesis import strategies as st

import cqarank.nn_core as nn
from cqarank.model import _dropout_masks
from cqarank.text_pipeline import PAD_ID
from oracles import linear_readout, naive_conv1d_wide, naive_dense, naive_kmax, stacked_conv1d_wide


def param(name, arr):
    return nn.Parameter(name, np.asarray(arr, dtype=np.float64))


def random_lengths(rng, count):
    """Segment lengths of a packed batch; length 1 is the PAD-only text."""
    return [1] + [int(n) for n in rng.integers(1, 9, size=count - 1)]


def segments(arr, lengths):
    """Split the columns of ``arr`` into consecutive runs of ``lengths``."""
    return np.split(arr, np.cumsum(lengths)[:-1], axis=1)


# ---------------------------------------------------------------------------
# forward oracles over random shapes
# ---------------------------------------------------------------------------


def test_conv1d_wide_matches_naive_loops():
    rng = np.random.default_rng(42)
    for _ in range(40):
        m, d_w, d_feat, w = rng.integers(1, 7), rng.integers(1, 7), rng.integers(1, 4), rng.integers(1, 6)
        n = rng.integers(1, 13)
        x = rng.normal(size=(d_w + d_feat, n))
        filters = param("f", rng.normal(size=(m, d_w + d_feat, w)))
        bias = param("b", rng.normal(size=m))
        # a feature table with a row per column gives each column its own features
        words, feats = param("words", x[:d_w].T), param("feats", x[d_w:].T)
        got = nn.conv1d_wide(words, feats, np.arange(n), filters, bias, [n], [0])
        assert got.shape == (m, n + w - 1)
        want = naive_conv1d_wide(x, filters.data, bias.data)
        assert np.max(np.abs(got.data - want)) < 1e-6
    # packed batches with repeated texts: each occurrence owns its n_i + w - 1
    # output columns and reads the word rows of the text it repeats
    for _ in range(20):
        m, d_w, d_feat, w = rng.integers(1, 7), rng.integers(1, 7), rng.integers(1, 4), rng.integers(1, 6)
        lengths = list(rng.permutation(random_lengths(rng, int(rng.integers(1, 6)))))
        # every text occurs once, in order, then up to three repeats, grouped by text
        extra = rng.integers(0, len(lengths), size=int(rng.integers(0, 4)))
        texts = np.r_[np.arange(len(lengths)), np.sort(extra)]
        occ_lengths = [lengths[t] for t in texts]
        words = param("words", rng.normal(size=(d_w, sum(lengths))).T)
        feats = param("feats", rng.normal(size=(sum(occ_lengths), d_feat)))  # a row per occurrence column
        filters = param("f", rng.normal(size=(m, d_w + d_feat, w)))
        bias = param("b", rng.normal(size=m))
        text_words = segments(words.data.T, lengths)
        stacked = [np.vstack([text_words[t], part]) for t, part in zip(texts, segments(feats.data.T, occ_lengths))]
        with nn.recording():
            got = nn.conv1d_wide(words, feats, np.arange(sum(occ_lengths)), filters, bias, lengths, texts)
            want = [naive_conv1d_wide(x, filters.data, bias.data) for x in stacked]
            assert got.shape == (m, sum(occ_lengths) + len(texts) * (w - 1))
            assert np.max(np.abs(got.data - np.concatenate(want, axis=1))) < 1e-6
            # backward: the packed gradients equal the sums of one-text passes
            upstream = rng.normal(size=got.shape)
            got.backward_fn(upstream)
            packed = [words.grad.copy(), feats.grad.copy(), filters.grad.copy(), bias.grad.copy()]
            for p in (words, feats, filters, bias):
                p.zero_grad()
            word_starts = np.cumsum(lengths) - lengths
            outs = [n + w - 1 for n in occ_lengths]
            for t, lo, g in zip(texts, np.cumsum(occ_lengths) - occ_lengths, segments(upstream, outs)):
                n, at = lengths[t], word_starts[t]
                piece_words = param("piece_words", words.data[at : at + n])
                piece_feats = param("piece_feats", feats.data[lo : lo + n])
                nn.conv1d_wide(piece_words, piece_feats, np.arange(n), filters, bias, [n], [0]).backward_fn(g)
                words.grad[at : at + n] += piece_words.grad
                feats.grad[lo : lo + n] += piece_feats.grad
        for got_grad, p in zip(packed, (words, feats, filters, bias)):
            assert np.max(np.abs(got_grad - p.grad)) < 1e-10


@settings(max_examples=200, deadline=None)
@given(width=st.integers(1, 5), data=st.data())
def test_conv1d_wide_matches_the_stacked_reference(width, data):
    """The shared-word convolution against one GEMM over whole stacked texts
    (float64): the output and the gradients of the filters, the bias, the
    word rows and the two-row feature table agree to 1e-10.  Every case
    holds a PAD-only text and runs twice: with every text once, in order,
    then at least one repeat, the repeats grouped by text; and with every
    text once, in order, as comments occur.  Either way the call builds two
    window matrices: one from the distinct texts' word rows alone and one
    from the one-hot feature rows of every occurrence."""
    m, d_w, d_feat = data.draw(st.integers(1, 4)), data.draw(st.integers(1, 4)), data.draw(st.integers(1, 3))
    rng = np.random.default_rng(data.draw(st.integers(0, 2**16)))
    token_ids = st.lists(st.integers(PAD_ID + 1, 5), min_size=1, max_size=6).map(tuple)
    distinct = [(PAD_ID,)] + data.draw(st.lists(token_ids, max_size=3, unique=True))
    again = data.draw(st.lists(st.integers(0, len(distinct) - 1), min_size=1, max_size=6))
    repeated = list(range(len(distinct))) + sorted(again)
    lengths = [len(t) for t in distinct]
    word_starts = np.cumsum(lengths) - lengths
    table = rng.normal(size=(6, d_w))
    filters = param("f", rng.normal(size=(m, d_w + d_feat, width)))
    bias = param("b", rng.normal(size=m))
    for texts in (repeated, list(range(len(distinct)))):
        occ_lengths = [lengths[t] for t in texts]
        words = param("words", table[[i for t in distinct for i in t]])
        overlaps = [rng.integers(0, 2, size=lengths[t]) * (t != 0) for t in texts]  # PAD has overlap 0
        ids = np.concatenate(overlaps)
        feats = param("feats", rng.normal(size=(2, d_feat)))
        for p in (filters, bias):
            p.zero_grad()

        text_words = segments(words.data.T, lengths)
        parts = segments(feats.data[ids].T, occ_lengths)
        stacked = np.hstack([np.vstack([text_words[t], part]) for t, part in zip(texts, parts)])
        want, reference_backward = stacked_conv1d_wide(stacked, filters.data, bias.data, occ_lengths)
        with nn.recording(), mock.patch.object(nn, "_windows", wraps=nn._windows) as windows:
            got = nn.conv1d_wide(words, feats, ids, filters, bias, lengths, texts)
            upstream = rng.normal(size=got.shape)
            got.backward_fn(upstream)
        (word_rows, *_), (feat_rows, *_) = (call.args for call in windows.call_args_list)
        assert windows.call_count == 2 and word_rows.shape == (sum(lengths), d_w)
        np.testing.assert_array_equal(feat_rows, np.eye(2)[ids])
        np.testing.assert_allclose(got.data, want, rtol=0, atol=1e-10)
        want_x, want_filters, want_bias = reference_backward(upstream)
        want_words = np.zeros_like(words.data.T)
        for t, part in zip(texts, segments(want_x[:d_w], occ_lengths)):
            want_words[:, word_starts[t] : word_starts[t] + lengths[t]] += part
        np.testing.assert_allclose(filters.grad, want_filters, rtol=0, atol=1e-10)
        np.testing.assert_allclose(bias.grad, want_bias, rtol=0, atol=1e-10)
        np.testing.assert_allclose(words.grad, want_words.T, rtol=0, atol=1e-10)
        want_feats = np.zeros_like(feats.data)
        np.add.at(want_feats, ids, want_x[d_w:].T)
        np.testing.assert_allclose(feats.grad, want_feats, rtol=0, atol=1e-10)


def test_conv1d_wide_shape_validation():
    filters = param("f", np.zeros((2, 3, 2)))
    bias = param("b", np.zeros(2))
    words, feats, ids = param("w", np.zeros((5, 2))), param("x", np.zeros((2, 1))), [0, 1, 1, 0, 0]
    assert nn.conv1d_wide(words, feats, ids, filters, bias, [5], [0]).shape == (2, 6)
    # the word rows' and the feature table's widths must both be there and split the filter depth
    for word_cols, feat_cols in ((3, 1), (3, 0), (0, 3), (1, 1)):
        bad_words, bad_feats = param("w", np.zeros((5, word_cols))), param("x", np.zeros((2, feat_cols)))
        with pytest.raises(ValueError, match="filter depth"):
            nn.conv1d_wide(bad_words, bad_feats, ids, filters, bias, [5], [0])
    with pytest.raises(ValueError):
        nn.conv1d_wide(words, feats, ids, filters, param("b", np.zeros(3)), [5], [0])
    for lengths in ([2, 2], [5, 0], [6, -1]):  # must be positive and cover the 5 columns
        with pytest.raises(ValueError):
            nn.conv1d_wide(words, feats, ids, filters, bias, lengths, [0])
        with pytest.raises(ValueError):
            nn.kmax_pool(param("x", np.zeros((3, 5))), lengths, np.arange(len(lengths)))
    for texts in ([], [1], [-1], [[0]]):  # a non-empty index into the one text
        with pytest.raises(ValueError, match="texts"):
            nn.conv1d_wide(words, feats, ids, filters, bias, [5], texts)
    with pytest.raises(ValueError, match="every text"):  # the second text never occurs
        nn.conv1d_wide(words, feats, ids[:2], filters, bias, [2, 3], [0])
    # every text once, in order, then the repeats grouped by text, in text order
    for texts in ([1, 0], [0, 0, 1], [1, 0, 0]):
        with pytest.raises(ValueError, match="every text once"):
            nn.conv1d_wide(words, feats, ids + ids[:2], filters, bias, [2, 3], texts)
    for texts in ([0, 1, 1, 0], [0, 1, 0, 1, 0]):
        with pytest.raises(ValueError, match="grouped by text"):
            nn.conv1d_wide(words, feats, ids * 2, filters, bias, [2, 3], texts)
    for texts in ([0, 1, 2], [0, 1, 0, -1]):  # a repeat of a text that is not there
        with pytest.raises(ValueError, match="texts must be a non-empty 1-d index into 2"):
            nn.conv1d_wide(words, feats, ids * 2, filters, bias, [2, 3], texts)
    # the feature ids must index the table's 2 rows
    for bad_ids in ([0, 1, 2, 0, 0], [0, -1, 0, 0, 0], [], [ids]):
        with pytest.raises(ValueError, match="feat_ids"):
            nn.conv1d_wide(words, feats, bad_ids, filters, bias, [5], [0])
    # and cover the occurrences' columns: 5 for one, 10 for two
    with pytest.raises(ValueError):
        nn.conv1d_wide(words, feats, ids[:4], filters, bias, [5], [0])
    with pytest.raises(ValueError):
        nn.conv1d_wide(words, feats, ids, filters, bias, [5], [0, 0])


def test_dense_matches_naive_loops():
    rng = np.random.default_rng(43)
    for act in ("tanh", "sigmoid"):
        for _ in range(15):
            i, j = rng.integers(1, 8), rng.integers(1, 8)
            x = param("x", rng.normal(size=(1, j)))
            weight = param("w", rng.normal(size=(i, j)))
            bias = param("b", rng.normal(size=i))
            got = nn.dense(x, weight, bias, act)
            want = naive_dense(x.data[0], weight.data, bias.data, act)
            assert got.shape == (1, i)
            assert np.max(np.abs(got.data[0] - want)) < 1e-6
            # a (B, D) batch: one output row per input row
            rows = param("rows", rng.normal(size=(int(rng.integers(1, 6)), j)))
            got = nn.dense(rows, weight, bias, act)
            want = np.stack([naive_dense(r, weight.data, bias.data, act) for r in rows.data])
            assert got.shape == want.shape
            assert np.max(np.abs(got.data - want)) < 1e-6


def test_kmax_pool_matches_naive_loops():
    rng = np.random.default_rng(44)
    for _ in range(40):
        m, n = rng.integers(1, 9), rng.integers(1, 12)
        x = param("x", rng.normal(size=(m, n)))
        got = nn.kmax_pool(x, [n], [0])
        assert got.shape == (1, m)
        assert np.max(np.abs(got.data[0] - naive_kmax(x.data))) < 1e-6
    # a packed map pools each segment into its own row
    for _ in range(20):
        m = rng.integers(1, 9)
        lengths = list(rng.permutation(random_lengths(rng, int(rng.integers(1, 6)))))
        x = param("x", rng.normal(size=(m, sum(lengths))))
        got = nn.kmax_pool(x, lengths, np.arange(len(lengths)))
        want = np.stack([naive_kmax(part) for part in segments(x.data, lengths)])
        assert got.shape == (len(lengths), m)
        assert np.max(np.abs(got.data - want)) < 1e-6


def test_kmax_pool_gradient_goes_to_first_max():
    x = param("x", [[1.0, 3.0, 3.0, 0.0], [2.0, 2.0, 1.0, 2.0]])
    with nn.recording():
        pooled = nn.kmax_pool(x, [4], [0])
        linear_readout(pooled, np.ones((1, 2))).backward()
    assert x.grad.tolist() == [[0.0, 1.0, 0.0, 0.0], [1.0, 0.0, 0.0, 0.0]]
    # in a packed map each segment routes to its own first maximal column,
    # also when a tie spans the boundary between two segments
    x = param("x", [[1.0, 3.0, 3.0, 3.0, 0.0, 5.0], [2.0, 2.0, 1.0, 2.0, 2.0, 2.0]])
    with nn.recording():
        pooled = nn.kmax_pool(x, [2, 3, 1], [0, 1, 2])
        pooled.backward_fn(np.array([[1.0, 10.0], [2.0, 20.0], [3.0, 30.0]]))
    np.testing.assert_array_equal(pooled.data, [[3.0, 2.0], [3.0, 2.0], [5.0, 2.0]])
    assert x.grad.tolist() == [[0.0, 1.0, 2.0, 0.0, 0.0, 3.0], [10.0, 0.0, 0.0, 20.0, 0.0, 30.0]]


@pytest.mark.parametrize("lookup", [nn.embedding_lookup, nn.row_lookup], ids=["embedding_lookup", "row_lookup"])
def test_embedding_lookup_forward_and_scatter(lookup):
    words = param("w", np.arange(12.0).reshape(4, 3))
    with nn.recording():
        out = lookup(words, [2, 0, 2])
        # repeated ids must accumulate their gradients
        out.backward_fn(np.ones_like(out.data))
    assert out.shape == (3, 3)
    np.testing.assert_array_equal(out.data[0], words.data[2])
    np.testing.assert_array_equal(out.data[1], words.data[0])
    np.testing.assert_array_equal(words.grad[2], [2.0, 2.0, 2.0])
    np.testing.assert_array_equal(words.grad[0], [1.0, 1.0, 1.0])
    np.testing.assert_array_equal(words.grad[[1, 3]], 0.0)
    # a packed batch repeats ids within and across its texts; the scatter
    # matches an np.add.at reference, for a word table and a feature table
    rng = np.random.default_rng(45)
    words = param("w", rng.normal(size=(7, 3)))
    feats = param("f", rng.normal(size=(2, 2)))
    ids = np.concatenate([rng.integers(0, 7, size=n) for n in random_lengths(rng, 5)])
    overlaps = rng.integers(0, 2, size=ids.size)
    for table, index in ((words, ids), (feats, overlaps)):
        with nn.recording():
            out = lookup(table, index)
            upstream = rng.normal(size=out.shape)
            out.backward_fn(upstream)
        np.testing.assert_array_equal(out.data, table.data[index])
        want = np.zeros_like(table.data)
        np.add.at(want, index, upstream)
        np.testing.assert_allclose(table.grad, want, rtol=0, atol=1e-12)


def test_kmax_pool_writes_each_text_to_its_dest_row():
    x = param("x", [[1.0, 4.0, 2.0, 7.0, 0.0, 5.0], [3.0, 3.0, 6.0, 1.0, 8.0, 8.0]])
    with nn.recording():
        out = nn.kmax_pool(x, [2, 1, 2, 1], [2, 0, 3, 1])
        out.backward_fn(np.array([[1.0, 10.0], [2.0, 20.0], [3.0, 30.0], [4.0, 40.0]]))
    # text k's maxima are row dest[k], and its gradient comes back from there
    np.testing.assert_array_equal(out.data, [[2.0, 6.0], [5.0, 8.0], [4.0, 3.0], [7.0, 8.0]])
    np.testing.assert_array_equal(x.grad, [[0.0, 3.0, 1.0, 4.0, 0.0, 2.0], [30.0, 0.0, 10.0, 0.0, 40.0, 20.0]])
    # random permutations of packed maps with ties, in both dtypes: each row
    # holds the naive maxima of the text that dest sends there, and that
    # row's gradient reaches the text's first maximal column
    rng = np.random.default_rng(46)
    for dtype in (np.float32, np.float64):
        for _ in range(20):
            m = int(rng.integers(1, 6))
            lengths = random_lengths(rng, int(rng.integers(2, 7)))
            dest = rng.permutation(len(lengths))
            x = nn.Parameter("x", rng.integers(0, 3, size=(m, sum(lengths))).astype(dtype))
            upstream = rng.normal(size=(len(lengths), m)).astype(dtype)
            with nn.recording():
                out = nn.kmax_pool(x, lengths, dest)
                out.backward_fn(upstream)
            assert out.data.dtype == dtype and out.shape == (len(lengths), m)
            want_grad = np.zeros_like(x.data)
            for k, (start, part) in enumerate(zip(np.cumsum(lengths) - lengths, segments(x.data, lengths))):
                np.testing.assert_array_equal(out.data[dest[k]], naive_kmax(part))
                for r in range(m):
                    want_grad[r, start + int(np.argmax(part[r]))] = upstream[dest[k], r]
            np.testing.assert_array_equal(x.grad, want_grad)
    x = param("x", np.zeros((2, 4)))
    for dest in ([0, 0, 1, 2], [1, 3, 3, 2], [0, 1, 2], [0, 1, 2, 3, 0]):  # each text exactly once
        with pytest.raises(ValueError, match="dest must be"):
            nn.kmax_pool(x, [1, 1, 1, 1], dest)
    for dest in ([0.0, 1.0, 2.0, 3.0], [4, 2, 1, 0], [-1, 0, 1, 2]):  # an index into the 4 texts
        with pytest.raises(ValueError, match="dest must be a non-empty 1-d index into 4 entries"):
            nn.kmax_pool(x, [1, 1, 1, 1], dest)
    with pytest.raises(TypeError):  # dest is required
        nn.kmax_pool(x, [1, 1, 1, 1])


def conv_with(texts=(0,), feat_ids=(0, 1, 1)):
    """A one-text conv over 3 words and a 2-row feature table."""
    words, feats = param("w", np.zeros((3, 2))), param("x", np.zeros((2, 1)))
    return nn.conv1d_wide(words, feats, feat_ids, param("f", np.zeros((2, 3, 2))), param("b", np.zeros(2)), [3], texts)


@pytest.mark.parametrize(
    "what, size, call",
    [
        ("embedding_lookup: ids", 4, lambda index: nn.embedding_lookup(param("w", np.zeros((4, 3))), index)),
        ("row_lookup: index", 4, lambda index: nn.row_lookup(param("t", np.zeros((4, 2))), index)),
        ("conv1d_wide: texts", 1, lambda index: conv_with(texts=index)),
        ("conv1d_wide: feat_ids", 2, lambda index: conv_with(feat_ids=index)),
        ("kmax_pool: dest", 1, lambda index: nn.kmax_pool(param("x", np.zeros((1, 2))), [2], index)),
    ],
    ids=["embedding_ids", "row_lookup_index", "conv_texts", "conv_feat_ids", "kmax_dest"],
)
def test_embedding_lookup_validates_ranges(what, size, call):
    """Every index an op takes must be a non-empty 1-d index into its range."""
    for index in ([size], [-1], [], [[0]], 0, [1.7], [True]):
        with pytest.raises(ValueError, match=f"^{what} must be a non-empty 1-d index into {size} entries"):
            call(index)


def test_row_lookup_and_concat():
    table = param("t", np.array([[1.0, 2.0], [3.0, 4.0]]))
    with pytest.raises(ValueError):
        nn.row_lookup(table, [2])
    with nn.recording():
        row = nn.row_lookup(table, [1])
        np.testing.assert_array_equal(row.data, [[3.0, 4.0]])
        constant = nn.Tensor(np.array([[9.0]]))
        joined = nn.concat([row, constant])
        np.testing.assert_array_equal(joined.data, [[3.0, 4.0, 9.0]])
        linear_readout(joined, [[1.0, 2.0, 5.0]]).backward()
    np.testing.assert_array_equal(table.grad, [[0.0, 0.0], [1.0, 2.0]])
    np.testing.assert_array_equal(constant.grad, [[5.0]])


@pytest.mark.parametrize(
    "call, error",
    [
        (lambda: nn.dense(param("x", np.ones(2)), param("w", np.ones((1, 2))), param("b", np.zeros(1)), "tanh"), ValueError),
        (lambda: nn.concat([param("a", np.ones(2)), param("b", np.ones(1))]), ValueError),
        (lambda: nn.row_lookup(param("t", np.ones((3, 2))), 1), ValueError),
        (lambda: nn.bce_loss(param("p", np.array([0.5])), 1), ValueError),
        (lambda: nn.kmax_pool(param("x", np.ones((2, 3)))), TypeError),
    ],
    ids=["dense_vector", "concat_vectors", "row_lookup_scalar", "bce_loss_scalar_label", "kmax_pool_no_lengths"],
)
def test_single_forms_are_refused(call, error):
    """The ops take batches only; a batch of one is written as one."""
    with pytest.raises(error):
        call()


# ---------------------------------------------------------------------------
# dropout
# ---------------------------------------------------------------------------


def test_dropout_is_identity_outside_training():
    x = param("x", np.ones(8))
    assert nn.dropout(x, 0.5, None) is x
    # inference and a zero rate draw no mask
    assert _dropout_masks([0.5, 0.0], 1, 8, False, None) == [None, None]
    assert _dropout_masks([0.5, 0.0], 1, 8, True, np.random.default_rng(0))[1] is None


def test_dropout_scales_survivors():
    x = param("x", np.ones(10_000))
    (mask,) = _dropout_masks([0.4], 1, 10_000, True, np.random.default_rng(5))
    out = nn.dropout(x, 0.4, mask[0])
    values = set(np.round(np.unique(out.data), 12))
    assert values <= {0.0, round(1 / 0.6, 12)}
    # survivor fraction concentrates near 1 - rate
    assert abs(np.mean(out.data != 0.0) - 0.6) < 0.02
    # inverted scaling keeps the expectation roughly unchanged
    assert abs(out.data.mean() - 1.0) < 0.05


def test_dropout_fixed_mask_and_validation():
    x = param("x", np.array([1.0, 2.0, 3.0, 4.0]))
    mask = np.array([True, False, True, False])
    out = nn.dropout(x, 0.5, mask)
    np.testing.assert_allclose(out.data, [2.0, 0.0, 6.0, 0.0])
    with pytest.raises(ValueError):
        nn.dropout(x, 1.0, mask)
    with pytest.raises(ValueError):
        nn.dropout(x, -0.1, mask)
    with pytest.raises(ValueError):
        nn.dropout(x, -0.1, None)  # the rate is checked even when nothing drops
    with pytest.raises(ValueError, match="needs an rng"):
        _dropout_masks([0.5], 1, 4, True, None)


# ---------------------------------------------------------------------------
# loss and optimizer values (frozen oracles)
# ---------------------------------------------------------------------------


def test_bce_loss_frozen_values():
    half = nn.bce_loss(param("p", np.array([0.5])), [1])
    assert math.isclose(half.data[0], 0.6931471805599453, rel_tol=1e-12)
    low = nn.bce_loss(param("p", np.array([0.2])), [0])
    assert math.isclose(low.data[0], 0.2231435513142097, rel_tol=1e-12)
    # a label vector sums the per-probability losses
    both = nn.bce_loss(param("p", np.array([0.5, 0.2])), [1, 0])
    assert both.shape == (1,)
    assert math.isclose(both.data[0], 0.6931471805599453 + 0.2231435513142097, rel_tol=1e-12)


def test_bce_loss_clamps_extremes():
    for p, y in ((0.0, 1), (1.0, 0)):
        loss = nn.bce_loss(param("p", np.array([p])), [y])
        assert np.isfinite(loss.data[0])
        assert loss.data[0] == pytest.approx(-math.log(1e-7), rel=1e-6)
    with pytest.raises(ValueError):
        nn.bce_loss(param("p", np.array([0.5])), [2])
    with pytest.raises(ValueError):
        nn.bce_loss(param("p", np.array([0.5, 0.5])), [1, 2])
    with pytest.raises(ValueError):
        nn.bce_loss(param("p", np.array([0.5, 0.5])), 1)  # one label per probability


def test_bce_loss_gradient_value():
    p = param("p", np.array([0.8]))
    with nn.recording():
        loss = nn.bce_loss(p, [1])
        loss.backward()
    # d/dp of -ln p at 0.8
    assert p.grad[0] == pytest.approx(-1.0 / 0.8, rel=1e-9)
    # with a label vector, d/dp of -ln p and of -ln(1 - p)
    p = param("p", np.array([0.8, 0.8]))
    with nn.recording():
        nn.bce_loss(p, [1, 0]).backward()
    np.testing.assert_allclose(p.grad, [-1.0 / 0.8, 1.0 / 0.2], rtol=1e-9)


def test_rmsprop_frozen_scalar_step():
    p = param("p", np.array([1.0]))
    p.grad[:] = 1.0
    opt = nn.RmsProp([p], lr=0.001, rho=0.9, eps=1e-6)
    opt.step()
    assert p.data[0] == pytest.approx(0.9968377381511013, rel=1e-12)
    assert opt.accs[0][0] == pytest.approx(0.1, rel=1e-12)


def test_rmsprop_optimizer_matches_manual_updates():
    rng = np.random.default_rng(11)
    p1 = param("p1", rng.normal(size=(3, 2)))
    p2 = param("p2", rng.normal(size=4))
    manual = {id(p): (p.data.copy(), np.zeros_like(p.data)) for p in (p1, p2)}
    opt = nn.RmsProp([p1, p2], lr=0.01, rho=0.9, eps=1e-6)
    for step in range(5):
        for p in (p1, p2):
            p.grad[:] = rng.normal(size=p.data.shape)
            data, acc = manual[id(p)]
            acc[:] = 0.9 * acc + 0.1 * p.grad**2
            data -= 0.01 * p.grad / np.sqrt(acc + 1e-6)
        opt.step()
    for p in (p1, p2):
        np.testing.assert_allclose(p.data, manual[id(p)][0], rtol=1e-12)


# ---------------------------------------------------------------------------
# autodiff engine
# ---------------------------------------------------------------------------


def test_backward_requires_scalar():
    x = param("x", np.array([[1.0, 2.0]]))
    with nn.recording(), pytest.raises(ValueError, match="single-element"):
        nn.concat([x]).backward()


def test_fanout_accumulates_gradients():
    x = param("x", np.array([2.0]))
    with nn.recording():
        total = nn.add_n([x, x, x])
        total.backward()
    assert x.grad[0] == 3.0


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_a_parameter_makes_its_gradient_buffer_when_it_is_first_read(dtype):
    p = nn.Parameter("p", np.array([[1.0, 2.0]], dtype=dtype))
    nn.dense(p, nn.Parameter("w", np.ones((1, 2), dtype)), nn.Parameter("b", np.zeros(1, dtype)), "tanh")
    p.zero_grad()  # a forward pass outside a recording, and zeroing, make none
    assert p._grad is None
    grad = p.grad
    assert (grad.dtype, grad.shape, grad.any()) == (dtype, (1, 2), False)
    with nn.recording():
        linear_readout(p, np.array([[3.0, 4.0]])).backward()
    assert p.grad is grad  # made once, then accumulated into and kept
    np.testing.assert_array_equal(grad, [[3.0, 4.0]])
    p.zero_grad()
    assert p.grad is grad and not grad.any()
    # a backward pass makes the buffer of a parameter nothing read before
    q = nn.Parameter("q", np.array([[1.0, 2.0]], dtype=dtype))
    with nn.recording():
        linear_readout(q, np.array([[3.0, 4.0]])).backward()
    assert q.grad.dtype == dtype
    np.testing.assert_array_equal(q.grad, [[3.0, 4.0]])
    # and so does building an optimizer over it, on the thread that builds it
    r = nn.Parameter("r", np.zeros(2, dtype))
    nn.RmsProp([r], lr=0.1, rho=0.9, eps=1e-6)
    assert r._grad is not None and r._grad.dtype == dtype and not r._grad.any()


def test_a_recording_collects_only_the_ops_of_its_own_thread():
    x = param("x", np.array([[1.0, 2.0]]))
    with nn.recording():
        mine = nn.scale(x, 2.0)
        theirs = []
        worker = threading.Thread(target=lambda: theirs.append(nn.scale(x, 3.0)))
        worker.start()
        worker.join(timeout=10)
        assert not worker.is_alive()
        assert nn._tape.ops == [mine]
        assert theirs[0].backward_fn is None and theirs[0]._grad is None
        linear_readout(mine, np.ones((1, 2))).backward()
    np.testing.assert_allclose(x.grad, [[2.0, 2.0]])


def custom_op(x, backward_fn):
    """x doubled, recorded with a backward that calls ``backward_fn(grad)``
    and then passes 2 * grad on to ``x``."""

    def backward(grad):
        backward_fn(grad)
        x.grad += 2.0 * grad

    return nn._record(x.data * 2.0, backward)


def raise_now(*args):
    raise FloatingPointError("now")


def split_loss(there, here):
    """A loss over ``(there(), here())`` run by :func:`nn.split`: a readout
    of their concatenation with weights 1 and 10."""
    theirs, mine = nn.split(there, here)
    joined = nn.concat([theirs, mine])
    weights = np.r_[np.ones(theirs.data.shape[1]), np.full(mine.data.shape[1], 10.0)]
    return linear_readout(joined, weights[None])


def test_split_records_the_workers_ops_as_one_node_of_the_callers_tape():
    a, b = param("a", [[1.0, 2.0]]), param("b", [[3.0]])
    walked_on = {}

    def note(side):
        return lambda grad: walked_on.setdefault(side, threading.current_thread())

    with nn.recording():
        theirs, mine = nn.split(lambda: custom_op(nn.scale(a, 3.0), note("there")),
                                lambda: custom_op(b, note("here")))
        # each side's ops are on a tape of its own, under one node of the caller's
        [node] = nn._tape.ops
        assert node not in (theirs, mine) and None not in (theirs.backward_fn, mine.backward_fn)
        np.testing.assert_array_equal(theirs.data, [[6.0, 12.0]])
        np.testing.assert_array_equal(mine.data, [[6.0]])
        linear_readout(nn.concat([theirs, mine]), np.array([[1.0, 1.0, 10.0]])).backward()
        # the walk freed both sides' tapes with the node
        assert nn._tape.ops == [] and node.backward_fn is None
    np.testing.assert_array_equal(a.grad, [[6.0, 6.0]])
    np.testing.assert_array_equal(b.grad, [[20.0]])
    worker = nn._worker.submit(threading.current_thread).result()
    assert walked_on == {"there": worker, "here": threading.main_thread()}
    # outside a recording the worker records nothing and no gradient buffer is made
    theirs, mine = nn.split(lambda: nn.scale(a, 3.0), lambda: nn.scale(b, 2.0))
    assert (theirs.backward_fn, theirs._grad, mine.backward_fn, mine._grad) == (None, None, None, None)


def test_the_two_sides_of_a_split_run_at_the_same_time():
    # each side waits, forward and backward, until the other reaches the same point
    a, b = param("a", [[1.0]]), param("b", [[2.0]])
    meet = threading.Barrier(2, timeout=5)

    def side(x):
        meet.wait()
        return custom_op(x, lambda grad: meet.wait())

    with nn.recording():
        split_loss(lambda: side(a), lambda: side(b)).backward()
    assert (a.grad[0, 0], b.grad[0, 0]) == (2.0, 20.0)


def test_an_exception_on_the_worker_is_raised_in_the_caller():
    a, b = param("a", [[1.0]]), param("b", [[2.0]])
    raised = []

    def fail(*args):
        raised.append(FloatingPointError("worker"))
        raise raised[-1]

    # in the forward pass
    with nn.recording(), pytest.raises(FloatingPointError) as caught:
        nn.split(fail, lambda: nn.scale(b, 2.0))
    assert caught.value is raised[-1]
    # in the backward walk, which backward waits for
    with nn.recording():
        loss = split_loss(lambda: custom_op(a, fail), lambda: nn.scale(b, 2.0))
        with pytest.raises(FloatingPointError) as caught:
            loss.backward()
    assert caught.value is raised[-1]
    assert b.grad[0, 0] == 20.0  # the caller's walk ran to the end


def test_an_exception_in_the_caller_leaves_nothing_of_the_worker_running():
    a, b = param("a", [[1.0]]), param("b", [[2.0]])
    began, raised, done = threading.Event(), threading.Event(), []

    def caller_fails(*args):
        began.wait(timeout=10)
        raised.set()
        raise FloatingPointError("caller")

    def slow(*args):
        began.set()
        raised.wait(timeout=10)
        time.sleep(0.05)
        done.append(threading.current_thread())

    def slow_op():
        slow()
        return nn.scale(a, 1.0)

    # forward: the caller raises while the worker runs; split waits for it
    with nn.recording(), pytest.raises(FloatingPointError, match="caller"):
        nn.split(slow_op, caller_fails)
    assert len(done) == 1
    # backward: the caller's walk raises while the worker walks
    began.clear()
    raised.clear()
    with nn.recording():
        loss = split_loss(lambda: custom_op(a, slow), lambda: custom_op(b, caller_fails))
        with pytest.raises(FloatingPointError, match="caller"):
            loss.backward()
    assert len(done) == 2
    # with the worker busy, a caller that raises, forward or backward, does
    # so at once: the side it queued behind that work is cancelled, never run
    release = threading.Event()
    with nn.recording():
        loss = split_loss(lambda: custom_op(a, slow), lambda: custom_op(b, raise_now))
        ahead = nn._worker.submit(release.wait, 10)
        try:
            for raising in (lambda: nn.split(slow_op, raise_now), loss.backward):
                start = time.perf_counter()
                with pytest.raises(FloatingPointError, match="now"):
                    raising()
                assert time.perf_counter() - start < 1
        finally:
            release.set()
    assert ahead.result() is True
    nn._worker.submit(lambda: None).result()  # anything still queued has run by now
    assert len(done) == 2


def test_a_split_on_the_worker_raises_at_once():
    # the worker would wait for itself; the caller gets ValueError instead,
    # inside a recording and outside, and the worker serves the next split
    a, b = param("a", [[1.0]]), param("b", [[2.0]])
    outcomes = []

    def nested():
        return nn.split(lambda: nn.scale(a, 1.0), lambda: nn.scale(b, 1.0))

    def call():
        for context in (contextlib.nullcontext, nn.recording):
            with context(), pytest.raises(ValueError, match="worker thread") as caught:
                nn.split(nested, lambda: nn.scale(b, 2.0))
            outcomes.append(caught.value)

    caller = threading.Thread(target=call, daemon=True)  # a hang fails the test, not the run
    caller.start()
    caller.join(timeout=5)
    assert not caller.is_alive() and len(outcomes) == 2
    theirs, mine = nn.split(lambda: nn.scale(a, 3.0), lambda: nn.scale(b, 2.0))
    assert (theirs.data[0, 0], mine.data[0, 0]) == (3.0, 4.0)


def test_the_workers_walk_runs_under_the_callers_numpy_error_state():
    a, b = param("a", [[1.0]]), param("b", [[2.0]])
    seen = []

    def note(grad):
        seen.append(np.geterr())

    with np.errstate(divide="ignore", over="raise", under="warn", invalid="print"):
        caller = np.geterr()
        with nn.recording():
            loss = split_loss(lambda: custom_op(a, note), lambda: nn.scale(b, 2.0))
            loss.backward()
    assert caller != np.geterr()
    assert seen == [caller]


def test_scale_and_add_n():
    a = param("a", np.array([[1.0, 2.0]]))
    b = param("b", np.array([[10.0, 20.0]]))
    with nn.recording():
        out = nn.scale(nn.add_n([a, b]), 0.5)
        np.testing.assert_allclose(out.data, [[5.5, 11.0]])
        linear_readout(out, np.ones((1, 2))).backward()
    np.testing.assert_allclose(a.grad, [[0.5, 0.5]])
    np.testing.assert_allclose(b.grad, [[0.5, 0.5]])
    with pytest.raises(ValueError):
        nn.add_n([])


# ---------------------------------------------------------------------------
# finite-difference verification of every op's backward pass
# ---------------------------------------------------------------------------


def encoder_like_loss(words, feats, filters, bias, weight, out_b):
    """conv -> kmax -> dense(sigmoid) -> bce, the encoder computation chain,
    over two texts of 4 and 3 columns, the first occurring twice; pooling
    writes the occurrences to rows 1, 2 and 0."""
    lengths, texts = [4, 3], [0, 1, 0]
    width = filters.data.shape[2]
    fmap = nn.conv1d_wide(words, feats, np.arange(11), filters, bias, lengths, texts)
    pooled = nn.kmax_pool(fmap, [lengths[t] + width - 1 for t in texts], [1, 2, 0])
    prob = nn.dense(pooled, weight, out_b, "sigmoid")
    return nn.bce_loss(prob, [[1], [0], [1]])


def conv_chain_params(rng):
    """words, feats (a feature table with a row per occurrence column),
    filters, bias, weight and out_b for encoder_like_loss."""
    return [
        param("words", rng.normal(size=(3, 7)).T),
        param("feats", rng.normal(size=(11, 1))),
        param("f", rng.normal(size=(3, 4, 2)) * 0.3),
        param("cb", rng.normal(size=3) * 0.1),
        param("w", rng.normal(size=(1, 3)) * 0.3),
        param("ob", np.zeros(1)),
    ]


def test_grad_check_conv_chain():
    params = conv_chain_params(np.random.default_rng(21))
    err = nn.grad_check(
        lambda: encoder_like_loss(*params),
        params,
        probe_count=60,
        rng=np.random.default_rng(1),
    )
    assert err < 1e-4


def test_grad_check_dense_activations():
    rng = np.random.default_rng(22)
    for act in ("tanh", "sigmoid"):
        x = param("x", rng.normal(size=(1, 5)))
        w1 = param("w1", rng.normal(size=(4, 5)) * 0.4)
        b1 = param("b1", rng.normal(size=4) * 0.1)
        w2 = param("w2", rng.normal(size=(1, 4)) * 0.4)
        b2 = param("b2", np.zeros(1))

        def loss():
            h = nn.dense(x, w1, b1, act)
            return nn.bce_loss(nn.dense(h, w2, b2, "sigmoid"), [[0]])

        err = nn.grad_check(loss, [x, w1, b1, w2, b2], probe_count=40, rng=np.random.default_rng(2))
        assert err < 1e-4


def test_grad_check_embedding_and_rank_row():
    rng = np.random.default_rng(23)
    words = param("we", rng.normal(size=(6, 4)) * 0.3)
    feats = param("fe", rng.normal(size=(2, 2)) * 0.3)
    table = param("rk", rng.normal(size=(5, 2)) * 0.3)
    filters = param("f", rng.normal(size=(3, 6, 2)) * 0.3)
    bias = param("cb", np.zeros(3))
    weight = param("w", rng.normal(size=(1, 5)) * 0.3)
    out_b = param("ob", np.zeros(1))

    def loss():
        # one text, ids 1 4 1, in two triples that give it other overlaps
        text = nn.embedding_lookup(words, [1, 4, 1])
        pooled = nn.kmax_pool(nn.conv1d_wide(text, feats, [0, 1, 1, 1, 0, 0], filters, bias, [3], [0, 0]), [4, 4], [1, 0])
        joined = nn.concat([pooled, nn.row_lookup(table, [2, 3])])
        return nn.bce_loss(nn.dense(joined, weight, out_b, "sigmoid"), [[1], [0]])

    params = [words, feats, table, filters, bias, weight, out_b]
    err = nn.grad_check(loss, params, probe_count=70, rng=np.random.default_rng(3))
    assert err < 1e-4


def test_grad_check_dropout_with_fixed_mask():
    rng = np.random.default_rng(24)
    x = param("x", rng.normal(size=(1, 6)))
    weight = param("w", rng.normal(size=(1, 6)) * 0.4)
    out_b = param("ob", np.zeros(1))
    mask = np.array([[True, False, True, True, False, True]])

    def loss():
        dropped = nn.dropout(x, 0.4, mask)
        return nn.bce_loss(nn.dense(dropped, weight, out_b, "sigmoid"), [[1]])

    err = nn.grad_check(loss, [x, weight, out_b], probe_count=30, rng=np.random.default_rng(4))
    assert err < 1e-4


def test_grad_check_rejects_bad_inputs():
    x = param("x", np.ones(2))
    with pytest.raises(ValueError, match="probes must be >= 1"):
        nn.grad_check(lambda: nn.bce_loss(x, [1, 1]), [x], probe_count=0, rng=np.random.default_rng(0))
    f32 = nn.Parameter("f32", np.ones(2, dtype=np.float32))
    with pytest.raises(ValueError, match="float64"):
        nn.grad_check(lambda: nn.bce_loss(f32, [1, 1]), [f32], probe_count=1, rng=np.random.default_rng(0))


def test_grad_check_catches_corrupted_conv_backward(monkeypatch):
    """Negative control: a deliberately wrong filter gradient must be flagged."""
    real_backward = nn._conv1d_wide_backward

    def corrupted(grad, *args):
        real_backward(grad * 1.05, *args)

    monkeypatch.setattr(nn, "_conv1d_wide_backward", corrupted)
    params = conv_chain_params(np.random.default_rng(25))
    err = nn.grad_check(
        lambda: encoder_like_loss(*params),
        params[:4],
        probe_count=30,
        rng=np.random.default_rng(5),
    )
    assert err > 1e-2
