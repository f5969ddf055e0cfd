import dataclasses
import json
import os
import subprocess
import sys

import numpy as np
import pytest

import cqarank
import cqarank.cli as cli
from cqarank.cli import main
from cqarank.dataset import load_corpus, save_corpus
from cqarank.evaluation import blend_rows, build_rows, evaluate_scores, score_triples
from cqarank.model import CqaModel
from cqarank.synthetic import conjunction_corpus, gradcheck_corpus
from cqarank.text_pipeline import PAD_TOKEN, UNK_TOKEN, preprocess, triple_sources, vocabulary_for
from cqarank.training import load_checkpoint, save_checkpoint


@pytest.fixture()
def corpus_path(tmp_path):
    path = tmp_path / "corpus.jsonl"
    save_corpus(str(path), gradcheck_corpus())
    return str(path)


@pytest.fixture()
def conjunction_split(tmp_path):
    """conjunction_corpus(12, seed=0) saved as train (first 32) and dev (the rest)."""
    data = conjunction_corpus(12, seed=0)
    train_path, dev_path = tmp_path / "train.jsonl", tmp_path / "dev.jsonl"
    save_corpus(str(train_path), data[:32])
    save_corpus(str(dev_path), data[32:])
    return str(train_path), str(dev_path)


def train_args(corpus_path, out_dir, *extra, dev_path=None):
    return [
        "train",
        "--corpus", corpus_path,
        "--dev", dev_path or corpus_path,
        "--out-dir", str(out_dir),
        "--epochs", "2",
        "--m", "4",
        "--d-w", "4",
        "--d-feat", "2",
        "--batch-size", "4",
        "--quiet",
        *extra,
    ]


def test_extend_command(tmp_path, corpus_path, capsys):
    out = tmp_path / "extended.jsonl"
    assert main(["extend", "--corpus", corpus_path, "--out", str(out)]) == 0
    combined = load_corpus(str(out))
    assert len(combined) == 10  # 5 originals + 5 derived
    derived = combined[5:]
    assert all(t.label_B == "perfect_match" for t in derived)
    assert all(t.google_rank == 1 for t in derived)
    captured = capsys.readouterr().out
    assert "original=5 extended=5 total=10" in captured
    assert "positive rates" in captured
    assert "wrote 10 triples" in captured

    only = tmp_path / "derived.jsonl"
    assert main(["extend", "--corpus", corpus_path, "--out", str(only),
                 "--derived-only"]) == 0
    assert len(load_corpus(str(only))) == 5
    assert "wrote 5 triples" in capsys.readouterr().out


@pytest.mark.parametrize("derived_only", [False, True])
def test_extend_refuses_a_derived_id_the_corpus_already_has(tmp_path, capsys, derived_only):
    data = gradcheck_corpus()
    corpus = tmp_path / "corpus.jsonl"
    save_corpus(str(corpus), data + [dataclasses.replace(data[0], id="g0_ed")])
    out = tmp_path / "extended.jsonl"
    args = ["extend", "--corpus", str(corpus), "--out", str(out)]
    assert main(args + ["--derived-only"] * derived_only) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == ["error: derived id 'g0_ed' is already the id of a triple"]
    assert not out.exists()


def test_train_writes_model_and_history(tmp_path, corpus_path):
    out_dir = tmp_path / "run"
    assert main(train_args(corpus_path, out_dir)) == 0
    assert (out_dir / "model.ckpt").exists()
    lines = (out_dir / "history.csv").read_text().splitlines()
    assert lines[0].startswith("epoch,loss_train,loss_dev")
    assert len(lines) == 3  # header + 2 epochs


def test_train_per_task_writes_one_checkpoint_per_task(tmp_path, corpus_path):
    out_dir = tmp_path / "run"
    assert main(train_args(corpus_path, out_dir, "--stopping", "per_task")) == 0
    for t in ("A", "B", "C"):
        assert (out_dir / f"model_{t}.ckpt").exists()
    assert not (out_dir / "model.ckpt").exists()


def test_train_pair_model(tmp_path, corpus_path):
    out_dir = tmp_path / "run"
    assert main(train_args(corpus_path, out_dir, "--model", "pair", "--task", "B")) == 0
    assert (out_dir / "model.ckpt").exists()
    # a pair model without --task is a usage error
    assert main(train_args(corpus_path, tmp_path / "x", "--model", "pair")) == 1


def test_evaluate_command(tmp_path, corpus_path, capsys):
    out_dir = tmp_path / "run"
    assert main(train_args(corpus_path, out_dir)) == 0
    capsys.readouterr()
    preds = tmp_path / "preds.tsv"
    assert main(["evaluate", "--model", str(out_dir / "model.ckpt"),
                 "--corpus", corpus_path, "--out", str(preds)]) == 0
    out = capsys.readouterr().out
    for t in ("A", "B", "C"):
        assert f"task {t}: MAP=" in out
    assert "MRR=" in out and "queries=" in out and "skipped=" in out
    # MAP is printed as a percentage
    map_values = [float(part.split("=")[1]) for part in out.split() if part.startswith("MAP=")]
    assert all(0.0 <= v <= 100.0 for v in map_values)
    # one prediction file per task, suffixed since several tasks share --out
    for t in ("A", "B", "C"):
        lines = (tmp_path / f"preds.{t}.tsv").read_text().splitlines()
        assert lines[0] == "group_key\tdoc_id\tfinal_rank\tscore\ttrue_label"
        assert len(lines) == 6


def test_evaluate_single_task_writes_exact_out_path(tmp_path, corpus_path, capsys):
    out_dir = tmp_path / "run"
    assert main(train_args(corpus_path, out_dir)) == 0
    capsys.readouterr()
    preds = tmp_path / "preds.tsv"
    assert main(["evaluate", "--model", str(out_dir / "model.ckpt"),
                 "--corpus", corpus_path, "--tasks", "C", "--out", str(preds)]) == 0
    assert preds.exists()
    assert len(preds.read_text().splitlines()) == 6


def test_evaluate_with_alpha_blend(tmp_path, corpus_path, capsys):
    out_dir = tmp_path / "run"
    assert main(train_args(corpus_path, out_dir)) == 0
    capsys.readouterr()
    assert main(["evaluate", "--model", str(out_dir / "model.ckpt"),
                 "--corpus", corpus_path, "--tasks", "C", "--alpha", "0.9"]) == 0
    out = capsys.readouterr().out
    assert "alpha=0.90" in out
    assert main(["evaluate", "--model", str(out_dir / "model.ckpt"),
                 "--corpus", corpus_path, "--tasks", "C", "--tune-alpha"]) == 0
    assert "best alpha=" in capsys.readouterr().out


def test_predict_without_labels(tmp_path, corpus_path):
    out_dir = tmp_path / "run"
    assert main(train_args(corpus_path, out_dir)) == 0
    unlabeled = tmp_path / "unlabeled.jsonl"
    records = []
    with open(corpus_path) as fh:
        for line in fh:
            rec = json.loads(line)
            for k in ("label_A", "label_B", "label_C"):
                del rec[k]
            records.append(rec)
    unlabeled.write_text("".join(json.dumps(r) + "\n" for r in records))
    preds = tmp_path / "preds.tsv"
    assert main(["predict", "--model", str(out_dir / "model.ckpt"),
                 "--corpus", str(unlabeled), "--out", str(preds),
                 "--task", "C", "--alpha", "0.8"]) == 0
    lines = preds.read_text().splitlines()
    assert lines[0] == "group_key\tdoc_id\tfinal_rank\tscore\ttrue_label"
    assert len(lines) == 6
    # multi-task checkpoint needs an explicit task
    assert main(["predict", "--model", str(out_dir / "model.ckpt"),
                 "--corpus", str(unlabeled), "--out", str(preds)]) == 1


def test_evaluate_checks_every_task_before_writing(tmp_path, conjunction_split, capsys):
    train_path, dev_path = conjunction_split
    out_dir = tmp_path / "run"
    assert main(train_args(train_path, out_dir, "--model", "pair", "--task", "C", dev_path=dev_path)) == 0
    capsys.readouterr()
    for tasks, message in [("CA", "checkpoint scores tasks ('C',), not 'A'"),
                           ("CC", "tasks must be one or more of A, B, C, none twice, got ['C', 'C']")]:
        code = main(["evaluate", "--model", str(out_dir / "model.ckpt"), "--corpus", dev_path,
                     "--tasks", tasks, "--out", str(tmp_path / "ev.tsv")])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert captured.err.splitlines() == [f"error: {message}"]
        assert not list(tmp_path.glob("ev*.tsv"))


def test_evaluate_checks_every_task_has_a_positive_before_writing(tmp_path, conjunction_split, capsys):
    train_path, dev_path = conjunction_split
    assert main(train_args(train_path, tmp_path / "run", dev_path=dev_path)) == 0
    no_positive = tmp_path / "no_positive_c.jsonl"
    save_corpus(str(no_positive), [dataclasses.replace(t, label_C="bad") for t in load_corpus(dev_path)])
    capsys.readouterr()
    out = tmp_path / "pred.tsv"
    code = main(["evaluate", "--model", str(tmp_path / "run" / "model.ckpt"), "--corpus", str(no_positive),
                 "--tasks", "ABC", "--out", str(out)])
    assert code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [f"error: {no_positive}: task C has no query with a relevant candidate"]
    assert list(tmp_path.glob("pred*")) == []


def test_predict_and_evaluate_write_the_same_rows(tmp_path, conjunction_split, capsys):
    train_path, dev_path = conjunction_split
    out_dir = tmp_path / "run"
    assert main(train_args(train_path, out_dir, dev_path=dev_path)) == 0
    ckpt = str(out_dir / "model.ckpt")
    predicted, evaluated = tmp_path / "predict.tsv", tmp_path / "evaluate.tsv"
    assert main(["predict", "--model", ckpt, "--corpus", dev_path, "--task", "C",
                 "--alpha", "0.3", "--out", str(predicted)]) == 0
    capsys.readouterr()
    assert main(["evaluate", "--model", ckpt, "--corpus", dev_path, "--tasks", "C",
                 "--alpha", "0.3", "--tune-alpha", "--out", str(evaluated)]) == 0
    out = capsys.readouterr().out.splitlines()
    assert predicted.read_bytes() == evaluated.read_bytes()
    # the tuned alpha is the first of the 101 grid points with the best MAP
    data = load_corpus(dev_path)
    rows = build_rows(data, score_triples(load_checkpoint(ckpt), data)["C"], "C")
    maps = [evaluate_scores(blend_rows(rows, step / 100.0)).map for step in range(101)]
    best = max(maps)
    assert f"task C: best alpha={maps.index(best) / 100.0:.2f} MAP={best:.2f}" in out


def test_max_len_bounds_the_vocabulary(tmp_path, conjunction_split):
    train_path, dev_path = conjunction_split
    out_dir = tmp_path / "run"
    assert main(train_args(train_path, out_dir, "--max-len", "3", dev_path=dev_path)) == 0
    vocab = load_checkpoint(str(out_dir / "model.ckpt")).vocab
    texts = [preprocess(*source, 3) for t in load_corpus(train_path) for source in triple_sources(t).values()]
    assert set(vocab.tokens) - {PAD_TOKEN, UNK_TOKEN} == {tok for text in texts for tok in text.tokens}


def test_gradcheck_command(capsys):
    assert main(["gradcheck", "--probes", "30", "--m", "4"]) == 0
    assert "PASS" in capsys.readouterr().out


def test_gradcheck_rejects_zero_probes(capsys):
    for flags, message in [
        (["--probes", "0"], "probes must be >= 1"),
        (["--delta", "0"], "delta must be positive and finite"),
        (["--delta=-1e-4"], "delta must be positive and finite"),
        (["--delta", "nan"], "delta must be positive and finite"),
    ]:
        assert main(["gradcheck", *flags]) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and message in err[0]


def test_gradcheck_detects_an_injected_gradient_bug(monkeypatch, capsys):
    # negative control: corrupt one backward rule and the command must exit 3
    import cqarank.nn_core as nn

    real_backward = nn._conv1d_wide_backward

    def corrupted(grad, x, filters, bias, win_mat, filt_mat, n, w):
        real_backward(grad * 1.05, x, filters, bias, win_mat, filt_mat, n, w)

    monkeypatch.setattr(nn, "_conv1d_wide_backward", corrupted)
    assert main(["gradcheck", "--probes", "30", "--m", "4"]) == 3
    assert "FAIL" in capsys.readouterr().out


def test_exit_codes(tmp_path, corpus_path):
    # missing corpus file -> data error
    assert main(["evaluate", "--model", "nope.ckpt", "--corpus", corpus_path]) == 2
    # corrupt corpus -> data error
    bad = tmp_path / "bad.jsonl"
    bad.write_text("{broken\n")
    assert main(["extend", "--corpus", str(bad), "--out", str(tmp_path / "o.jsonl")]) == 2
    # unknown flag -> usage error (argparse remapped)
    assert main(["train", "--no-such-flag"]) == 1
    # unknown subcommand -> usage error
    assert main(["frobnicate"]) == 1


def test_extend_rejects_a_lone_surrogate(tmp_path, capsys):
    # JSON can escape a surrogate that no UTF-8 output file could hold
    bad = tmp_path / "bad.jsonl"
    save_corpus(str(bad), gradcheck_corpus()[:2])
    lines = bad.read_text(encoding="utf-8").splitlines()
    bad.write_text(lines[0] + "\n" + lines[1].replace('"c_rel": "', '"c_rel": "\\ud800') + "\n")
    out = tmp_path / "o.jsonl"
    assert main(["extend", "--corpus", str(bad), "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [
        "error: line 2: field 'c_rel' holds a lone surrogate, which UTF-8 cannot encode"
    ]
    assert not out.exists()


@pytest.mark.parametrize("stopping", ["global", "per_task"])
def test_train_stops_on_non_finite_dev_loss(tmp_path, conjunction_split, capsys, stopping):
    # a huge learning rate turns the weights non-finite in the first update;
    # the training loss was taken before it, so only the dev loss shows it
    train_path, dev_path = conjunction_split
    out_dir = tmp_path / "run"
    code = main(["train", "--corpus", train_path, "--dev", dev_path,
                 "--out-dir", str(out_dir), "--epochs", "1", "--m", "8", "--lr", "1e30",
                 "--stopping", stopping])
    assert code == 3
    err = capsys.readouterr().err
    assert err.splitlines() == ["error: non-finite dev loss nan in epoch 1"]
    assert not out_dir.exists()


def _edit_index(edit):
    """Corruption that rewrites the checkpoint's JSON index with ``edit``."""

    def corrupt(ckpt, corpus):
        data = ckpt.read_bytes()
        head_len = int.from_bytes(data[8:16], "little")
        index = json.loads(data[16 : 16 + head_len])
        edit(index)
        head = json.dumps(index).encode("utf-8")
        ckpt.write_bytes(data[:8] + len(head).to_bytes(8, "little") + head + data[16 + head_len :])
        return ckpt, corpus

    return corrupt


def _set_header_length(ckpt, corpus):
    data = ckpt.read_bytes()
    ckpt.write_bytes(data[:8] + (2**40).to_bytes(8, "little") + data[16:])
    return ckpt, corpus


def _nan_weight(ckpt, corpus):
    data = bytearray(ckpt.read_bytes())
    head_len = int.from_bytes(data[8:16], "little")
    entries = json.loads(data[16 : 16 + head_len])["params"]
    start = 16 + head_len + next(e["offset"] for e in entries if e["name"] == "joint.weight")
    data[start : start + 4] = np.float32(np.nan).tobytes()
    ckpt.write_bytes(bytes(data))
    return ckpt, corpus


def _pair_c_labelled_task_b(ckpt, corpus):
    # a task-B network has no comment encoder, so the c_encoder arrays are extra
    save_checkpoint(str(ckpt), CqaModel(vocabulary_for(gradcheck_corpus()), task="C", m=4, d_w=4, d_feat=2))
    return _edit_index(lambda ix: ix["meta"].update(task="B"))(ckpt, corpus)


def _non_utf8_corpus(ckpt, corpus):
    corpus.write_bytes(b'{"id": "\xff\xfe"}\n')
    return ckpt, corpus


MALFORMED = {
    "index_without_params": _edit_index(lambda ix: ix.pop("params")),
    "pair_meta_without_task": _edit_index(lambda ix: ix["meta"].update(kind="pair")),
    "unknown_kind": _edit_index(lambda ix: ix["meta"].update(kind="tree")),
    "meta_dtype_garbage": _edit_index(lambda ix: ix["meta"].update(dtype="garbage")),
    "meta_size_not_int": _edit_index(lambda ix: ix["meta"].update(m="4")),
    "meta_sizes_not_the_arrays": _edit_index(lambda ix: ix["meta"].update(m=10**6)),
    "entry_dtype_garbage": _edit_index(lambda ix: ix["params"][0].update(dtype="garbage")),
    "entry_dtype_comma": _edit_index(lambda ix: ix["params"][0].update(dtype=",f4")),
    "arrays_not_in_the_meta_dtype": _edit_index(lambda ix: ix["meta"].update(dtype="float64")),
    "entry_without_offset": _edit_index(lambda ix: ix["params"][0].pop("offset")),
    "shape_does_not_match_nbytes": _edit_index(lambda ix: ix["params"][0].update(shape=[3, 5])),
    "negative_offset": _edit_index(lambda ix: ix["params"][0].update(offset=-8)),
    "offset_past_the_end": _edit_index(lambda ix: ix["params"][-1].update(offset=10**9)),
    "vocab_not_a_list": _edit_index(lambda ix: ix.update(vocab="tokens")),
    "duplicate_vocab_token": _edit_index(lambda ix: ix["vocab"].append(ix["vocab"][0])),
    "bogus_header_length": _set_header_length,
    "checkpoint_is_a_directory": lambda ckpt, corpus: (ckpt.parent, corpus),
    "corpus_is_a_directory": lambda ckpt, corpus: (ckpt, corpus.parent),
    "corpus_not_utf8": _non_utf8_corpus,
    "non_finite_weight": _nan_weight,
    "arrays_not_the_meta_network": _pair_c_labelled_task_b,
    "params_entry_removed": _edit_index(lambda ix: ix["params"].pop(3)),
}


@pytest.mark.parametrize("case", sorted(MALFORMED))
def test_malformed_inputs_exit_2_with_one_error_line(tmp_path, capsys, case):
    data = gradcheck_corpus()
    ckpt, corpus = tmp_path / "in" / "model.ckpt", tmp_path / "in" / "corpus.jsonl"
    ckpt.parent.mkdir()
    save_corpus(str(corpus), data)
    save_checkpoint(str(ckpt), CqaModel(vocabulary_for(data), m=4, d_w=4, d_feat=2))
    assert main(["evaluate", "--model", str(ckpt), "--corpus", str(corpus)]) == 0
    capsys.readouterr()
    ckpt, corpus = MALFORMED[case](ckpt, corpus)
    assert main(["evaluate", "--model", str(ckpt), "--corpus", str(corpus)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ")


def test_non_finite_scores_exit_3_with_one_error_line_and_no_tsv(tmp_path, capsys):
    # finite weights that overflow: every score is nan
    data = conjunction_corpus(4, seed=0)
    corpus, ckpt = tmp_path / "dev.jsonl", tmp_path / "huge.ckpt"
    save_corpus(str(corpus), data)
    model = CqaModel(vocabulary_for(data), m=4, d_w=3, d_feat=2)
    rng = np.random.default_rng(0)
    for p in model.parameters():
        p.data[...] = np.where(rng.random(p.data.shape) < 0.5, -1e30, 1e30)
    save_checkpoint(str(ckpt), model)
    for argv in (
        ["evaluate", "--tune-alpha", "--out", str(tmp_path / "e.tsv")],
        ["predict", "--task", "C", "--out", str(tmp_path / "p.tsv")],
    ):
        assert main([*argv[:1], "--model", str(ckpt), "--corpus", str(corpus), *argv[1:]]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == [f"error: non-finite score nan for task A on triple {data[0].id!r}"]
    assert list(tmp_path.glob("*.tsv")) == []


VECTOR_FILES = {
    "not_utf8": b"wifi \xff\xfe 1.0\n",
    "wrong_component_count": b"wifi 1.0 2.0\n",
    "non_numeric_component": b"wifi 1.0 x 3.0 4.0\n",
    "missing": None,
}


@pytest.mark.parametrize("case", sorted(VECTOR_FILES))
def test_bad_vectors_file_exits_2_naming_the_path(tmp_path, corpus_path, capsys, case):
    vectors = tmp_path / "vectors.txt"
    if VECTOR_FILES[case] is not None:
        vectors.write_bytes(VECTOR_FILES[case])
    code = main(train_args(corpus_path, tmp_path / "run", "--vectors", str(vectors)))
    assert code == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ") and str(vectors) in err[0]


@pytest.mark.parametrize("value", ["nan", "1e39"])
def test_vectors_with_a_component_not_finite_in_float32_exit_2_before_training(
    tmp_path, conjunction_split, capsys, monkeypatch, value
):
    train_path, dev_path = conjunction_split
    vectors = tmp_path / "vectors.txt"
    vectors.write_text(f"ask 0.1 0.2 0.3 0.4\ntopic6 0.5 0.6 {value} 0.8\n")
    monkeypatch.setattr(cli, "train", lambda *a, **k: pytest.fail("trained on a non-finite vector"))
    out_dir = tmp_path / "run"
    assert main(train_args(train_path, out_dir, "--vectors", str(vectors), dev_path=dev_path)) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [
        f"error: {vectors}: line 2 component 3 is {value!r}, not finite in float32"
    ]
    assert not out_dir.exists()


# train options that exit 1 with one error line and write nothing: sizes that
# are not positive, optimizer, dropout and seed values that cannot be used, a
# task list that repeats a task, and a --task or --tasks the chosen model does
# not read (from a flag or from --config)
BAD_TRAIN_OPTIONS = {
    "m_zero": (["--m", "0"], None),
    "d_w_zero": (["--d-w", "0"], None),
    "negative_lr": (["--lr", "-1"], None),
    "rho_above_one": (["--rho", "1.5"], None),
    "zero_eps": (["--eps", "0"], None),
    "dropout_input_above_one": (["--dropout-input", "1.5"], None),
    "dropout_hidden_one": (["--dropout-hidden", "1"], None),
    "negative_seed": (["--seed", "-1"], None),
    "repeated_task": (["--tasks", "AA"], None),
    "repeated_task_in_config": ([], "tasks=CAC\n"),
    "mtl_with_task": (["--model", "mtl", "--task", "C"], None),
    "pair_with_tasks": (["--model", "pair", "--task", "C", "--tasks", "AB"], None),
    "mtl_with_task_in_config": (["--model", "mtl"], "task=C\n"),
    "pair_with_tasks_in_config": (["--task", "C"], "model=pair\ntasks=AB\n"),
}


@pytest.mark.parametrize("case", sorted(BAD_TRAIN_OPTIONS))
def test_bad_train_options_exit_1_with_one_error_line(tmp_path, corpus_path, capsys, case):
    flags, config = BAD_TRAIN_OPTIONS[case]
    if config is not None:
        (tmp_path / "run.cfg").write_text(config)
        flags = [*flags, "--config", str(tmp_path / "run.cfg")]
    out_dir = tmp_path / "run"
    assert main(train_args(corpus_path, out_dir, *flags)) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ")
    assert not out_dir.exists()


@pytest.mark.parametrize("flags", [["--lr", "-1"], ["--rho", "1.5"], ["--eps", "0"], ["--dropout-input", "1.5"],
                                   ["--dropout-hidden", "-0.1"], ["--seed", "-1"]])
def test_optimizer_values_are_refused_before_the_corpus_is_read(tmp_path, flags):
    # a missing corpus would exit 2 if it were read first
    assert main(train_args(str(tmp_path / "missing.jsonl"), tmp_path / "run", *flags)) == 1


# size and vocabulary options, from a flag or from --config, with the one
# error line each gives
EARLY_TRAIN_OPTIONS = {
    "min_count_zero": (["--min-count", "0"], None, "min_count must be >= 1, got 0"),
    "max_len_zero": (["--max-len", "0"], None, "max_len must be a positive integer, got 0"),
    "m_zero": (["--m", "0"], None, "m must be a positive integer, got 0"),
    "m_not_a_number_in_config": ([], "m=abc\n", "config key m: invalid literal for int() with base 10: 'abc'"),
    "min_count_zero_in_config": ([], "min_count=0\n", "min_count must be >= 1, got 0"),
}


@pytest.mark.parametrize("case", sorted(EARLY_TRAIN_OPTIONS))
def test_size_and_vocabulary_options_are_refused_before_the_corpus_is_read(tmp_path, capsys, case):
    # a missing corpus would exit 2 if it were read first; no other size flag
    # is given, so a config value is not overridden
    flags, config, message = EARLY_TRAIN_OPTIONS[case]
    if config is not None:
        (tmp_path / "run.cfg").write_text(config)
        flags = [*flags, "--config", str(tmp_path / "run.cfg")]
    missing, out_dir = str(tmp_path / "missing.jsonl"), tmp_path / "run"
    assert main(["train", "--corpus", missing, "--dev", missing, "--out-dir", str(out_dir), *flags]) == 1
    assert capsys.readouterr().err.splitlines() == [f"error: {message}"]
    assert not out_dir.exists()


@pytest.mark.parametrize("command", ["evaluate", "predict"])
def test_alpha_is_refused_before_any_file_is_read(tmp_path, corpus_path, capsys, monkeypatch, command):
    out_dir = tmp_path / "run"
    assert main(train_args(corpus_path, out_dir)) == 0
    capsys.readouterr()
    monkeypatch.setattr(cli, "score_triples", lambda *a: pytest.fail("scored before the alpha check"))
    for model, corpus in [("nosuch.ckpt", "missing.jsonl"), (str(out_dir / "model.ckpt"), corpus_path)]:
        for alpha in ("2", "-0.5", "nan"):
            code = main([command, "--model", model, "--corpus", corpus, "--alpha", alpha,
                         "--task" if command == "predict" else "--tasks", "C", "--out", str(tmp_path / "p.tsv")])
            captured = capsys.readouterr()
            assert code == 1
            assert captured.out == ""
            assert captured.err.splitlines() == [f"error: alpha must lie in [0, 1], got {float(alpha)}"]
            assert not (tmp_path / "p.tsv").exists()


def test_evaluate_refuses_bad_tasks_before_any_file_is_read(tmp_path, corpus_path, capsys, monkeypatch):
    out_dir = tmp_path / "run"
    assert main(train_args(corpus_path, out_dir)) == 0
    capsys.readouterr()
    monkeypatch.setattr(cli, "score_triples", lambda *a: pytest.fail("scored before the tasks check"))
    for model, corpus in [("nosuch.ckpt", "missing.jsonl"), (str(out_dir / "model.ckpt"), corpus_path)]:
        for spec, parsed in [("AA", "'A', 'A'"), ("AD", "'A', 'D'")]:
            code = main(["evaluate", "--model", model, "--corpus", corpus, "--tasks", spec,
                         "--out", str(tmp_path / "p.tsv")])
            captured = capsys.readouterr()
            assert code == 1
            assert captured.out == ""
            assert captured.err.splitlines() == [
                f"error: tasks must be one or more of A, B, C, none twice, got [{parsed}]"
            ]
            assert not list(tmp_path.glob("p*.tsv"))


def test_evaluate_refuses_an_empty_corpus(tmp_path, corpus_path, capsys):
    out_dir = tmp_path / "run"
    assert main(train_args(corpus_path, out_dir)) == 0
    capsys.readouterr()
    blank = tmp_path / "blank.jsonl"
    blank.write_text("\n")
    assert main(["evaluate", "--model", str(out_dir / "model.ckpt"), "--corpus", str(blank),
                 "--out", str(tmp_path / "p.tsv")]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [f"error: {blank}: no triples"]
    assert not list(tmp_path.glob("p*.tsv"))


@pytest.mark.parametrize("empty", ["corpus", "dev"])
def test_train_refuses_an_empty_corpus(tmp_path, corpus_path, capsys, empty):
    blank = tmp_path / "blank.jsonl"
    blank.write_text("\n")
    out_dir = tmp_path / "run"
    args = train_args(corpus_path, out_dir, "--" + empty, str(blank))
    assert main(args) == 2
    assert capsys.readouterr().err.splitlines() == [f"error: {blank}: no triples"]
    assert not out_dir.exists()


@pytest.mark.parametrize("derived_only", [False, True])
def test_extend_refuses_an_empty_corpus(tmp_path, capsys, derived_only):
    blank = tmp_path / "blank.jsonl"
    blank.write_text("")
    out = tmp_path / "x.jsonl"
    assert main(["extend", "--corpus", str(blank), "--out", str(out)] + ["--derived-only"] * derived_only) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [f"error: {blank}: no triples"]
    assert not out.exists()


@pytest.mark.parametrize("umask", ["022", "027"])
def test_outputs_get_the_mode_the_umask_gives(tmp_path, corpus_path, umask):
    umask = int(umask, 8)
    out_dir = tmp_path / "run"
    old = os.umask(umask)
    try:
        (tmp_path / "x.jsonl").write_text("")
        os.chmod(tmp_path / "x.jsonl", 0o600)  # an existing file is replaced with the umask's mode too
        assert main(train_args(corpus_path, out_dir)) == 0
        assert main(["evaluate", "--model", str(out_dir / "model.ckpt"), "--corpus", corpus_path,
                     "--tasks", "C", "--out", str(tmp_path / "p.tsv")]) == 0
        assert main(["extend", "--corpus", corpus_path, "--out", str(tmp_path / "x.jsonl")]) == 0
    finally:
        os.umask(old)
    for path in (out_dir / "model.ckpt", out_dir / "history.csv", tmp_path / "p.tsv", tmp_path / "x.jsonl"):
        assert oct(os.stat(path).st_mode & 0o777) == oct(0o666 & ~umask), path.name


@pytest.mark.parametrize("token", [PAD_TOKEN, UNK_TOKEN])
def test_train_reads_a_reserved_token_in_a_text_as_unknown(tmp_path, token):
    data = gradcheck_corpus()
    data[0] = dataclasses.replace(data[0], c_rel=f"{data[0].c_rel} {token}")
    path = tmp_path / "corpus.jsonl"
    save_corpus(str(path), data)
    assert main(train_args(str(path), tmp_path / "run")) == 0
    vocab = load_checkpoint(str(tmp_path / "run" / "model.ckpt")).vocab
    assert vocab.tokens[:2] == (PAD_TOKEN, UNK_TOKEN) and vocab.tokens.count(token) == 1


def test_config_file_merging(tmp_path, corpus_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("# comment\nepochs=1\nlr=0.01\n\n")
    out_dir = tmp_path / "run"
    args = [
        "train", "--corpus", corpus_path, "--dev", corpus_path,
        "--out-dir", str(out_dir), "--config", str(cfg),
        "--m", "4", "--d-w", "4", "--d-feat", "2", "--quiet",
    ]
    assert main(args) == 0
    assert len((out_dir / "history.csv").read_text().splitlines()) == 2  # 1 epoch

    # a flag overrides the config file
    out_dir2 = tmp_path / "run2"
    args2 = args[:6] + [str(out_dir2)] + args[7:] + ["--epochs", "2"]
    assert main(args2) == 0
    assert len((out_dir2 / "history.csv").read_text().splitlines()) == 3

    cfg.write_text("epohcs=1\n")
    assert main(args) == 1  # unknown config key

    cfg.write_text("alpha=0.3\n")
    assert main(args) == 1  # train has no blend weight

    cfg.write_text("epochs one\n")
    assert main(args) == 1  # not key=value


def test_identical_runs_produce_identical_artifacts(tmp_path, corpus_path):
    dirs = [tmp_path / "r1", tmp_path / "r2"]
    for d in dirs:
        assert main(train_args(corpus_path, d, "--seed", "3")) == 0
    a, b = dirs
    assert (a / "model.ckpt").read_bytes() == (b / "model.ckpt").read_bytes()
    assert (a / "history.csv").read_text() == (b / "history.csv").read_text()


def test_cli_outputs_do_not_depend_on_the_hash_seed(tmp_path, corpus_path):
    # each run is a fresh process with its own str hash seed, so the
    # iteration order of any set of strings differs between the two
    src = os.path.dirname(os.path.dirname(cqarank.__file__))
    outputs = []
    for hash_seed in ("1", "2"):
        run = tmp_path / f"seed{hash_seed}"
        env = {**os.environ, "PYTHONHASHSEED": hash_seed,
               "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        for args in (train_args(corpus_path, run, "--seed", "3"),
                     ["evaluate", "--model", str(run / "model.ckpt"), "--corpus", corpus_path,
                      "--tune-alpha", "--out", str(run / "p.tsv")]):
            proc = subprocess.run([sys.executable, "-m", "cqarank.cli", *args], capture_output=True, env=env)
            assert proc.returncode == 0, proc.stderr
        names = ["model.ckpt", "history.csv", "p.A.tsv", "p.B.tsv", "p.C.tsv"]
        assert sorted(p.name for p in run.iterdir()) == sorted(names)
        outputs.append({name: (run / name).read_bytes() for name in names})
    assert outputs[0] == outputs[1]


def test_console_script_entry_point():
    # the child sees the same cqarank as this process, installed or not
    src = os.path.dirname(os.path.dirname(cqarank.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run(
        [sys.executable, "-m", "cqarank.cli", "gradcheck", "--probes", "10", "--m", "3"],
        capture_output=True,
        text=True,
        env=env,
    )
    assert proc.returncode == 0
    assert "PASS" in proc.stdout
