import contextlib
import dataclasses
import io
import json
import os
import platform
import re
import subprocess
import sys
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import cqarank
import cqarank.cli as cli
from cqarank.cli import main
from cqarank.dataset import load_corpus, save_corpus, task_relevance
from cqarank.evaluation import RankTable, evaluate_scores, score_triples, task_group_key
from cqarank.model import SIZES, CqaModel
from cqarank.synthetic import conjunction_corpus, gradcheck_corpus
from cqarank.text_pipeline import PAD_TOKEN, UNK_TOKEN, preprocess, triple_sources, vocabulary_for
from cqarank.training import TrainConfig, load_checkpoint, save_checkpoint, train
from oracles import blend_rows


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


def test_train_prints_one_line_per_epoch(tmp_path, corpus_path, capsys):
    # without --quiet; with --vectors, a line for the loaded vectors comes first
    vectors = tmp_path / "vectors.txt"
    vectors.write_text("wifi 0.1 0.2 0.3 0.4\nvisa 0.5 0.6 0.7 0.8\nnot_a_token 1 2 3 4\n")
    epoch = r"epoch {}: loss_train=\d+\.\d{{6}} loss_dev=\d+\.\d{{6}} mapA=\d+\.\d\d mapB=\d+\.\d\d mapC=\d+\.\d\d"
    for flags, loaded in (([], []), (["--vectors", str(vectors)], ["loaded pretrained vectors for 2 tokens"])):
        out_dir = tmp_path / f"run{len(flags)}"
        assert main([arg for arg in train_args(corpus_path, out_dir, *flags) if arg != "--quiet"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[: len(loaded)] == loaded
        assert len(lines) == len(loaded) + 3
        for k, line in enumerate(lines[len(loaded) : -1], start=1):
            assert re.fullmatch(epoch.format(k), line), line
        assert re.fullmatch(r"stopped at epoch 2 \(best epoch [12]\); wrote model\.ckpt", lines[-1])


def test_train_per_task_writes_one_checkpoint_per_task(tmp_path, conjunction_split):
    # each model_<t>.ckpt holds report.snapshots[t] of a library run with the
    # same corpus, options and seed
    train_path, dev_path = conjunction_split
    out_dir = tmp_path / "run"
    flags = ["--stopping", "per_task", "--epochs", "6", "--patience", "2", "--seed", "3"]
    assert main(train_args(train_path, out_dir, *flags, dev_path=dev_path)) == 0
    assert not (out_dir / "model.ckpt").exists()
    train_data = load_corpus(train_path)
    model = CqaModel(vocabulary_for(train_data), m=4, d_w=4, d_feat=2, seed=3)
    config = TrainConfig(epochs=6, batch_size=4, patience=2, stopping="per_task", seed=3)
    report = train(model, train_data, load_corpus(dev_path), config)
    assert len({report.best_epoch[t] for t in "ABC"}) > 1  # the snapshots differ
    for t in "ABC":
        loaded = {p.name: p.data for p in load_checkpoint(str(out_dir / f"model_{t}.ckpt")).parameters()}
        assert loaded.keys() == report.snapshots[t].keys()
        for name, arr in report.snapshots[t].items():
            np.testing.assert_array_equal(loaded[name], arr, err_msg=f"{t} {name}")


def test_train_pair_model(tmp_path, corpus_path):
    out_dir = tmp_path / "run"
    assert main(train_args(corpus_path, out_dir, "--model", "pair", "--task", "B")) == 0
    assert (out_dir / "model.ckpt").exists()
    # predict scores a pair checkpoint's one task when --task is not given
    preds = {}
    for name, flags in (("default", []), ("B", ["--task", "B"])):
        preds[name] = tmp_path / f"{name}.tsv"
        assert main(["predict", "--model", str(out_dir / "model.ckpt"), "--corpus", corpus_path,
                     "--out", str(preds[name]), *flags]) == 0
    assert preds["default"].read_bytes() == preds["B"].read_bytes()
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
    # the tuned alpha is the first of the 101 grid points with the best MAP,
    # each blended one row at a time by the oracle
    data = load_corpus(dev_path)
    scores = score_triples(load_checkpoint(ckpt), data)["C"]
    rows = [(task_group_key(t, "C"), t.id, s, t.google_rank, task_relevance(t, "C")) for t, s in zip(data, scores)]
    maps = [evaluate_scores(RankTable.of(blend_rows(rows, step / 100.0))).map for step in range(101)]
    best = max(maps)
    assert f"task C: best alpha={maps.index(best) / 100.0:.2f} MAP={best:.2f}" in out


def test_evaluate_builds_each_task_table_once(tmp_path, conjunction_split, monkeypatch):
    # the metrics, the blend, the alpha search and the TSV of a task all read
    # the one table its scored rows were built into
    train_path, dev_path = conjunction_split
    assert main(train_args(train_path, tmp_path / "run", dev_path=dev_path)) == 0
    of, builds = RankTable.of.__func__, []
    monkeypatch.setattr(RankTable, "of", classmethod(lambda cls, rows: builds.append(rows) or of(cls, rows)))
    assert main(["evaluate", "--model", str(tmp_path / "run" / "model.ckpt"), "--corpus", dev_path, "--tasks", "ABC",
                 "--tune-alpha", "--alpha", "0.5", "--out", str(tmp_path / "p.tsv")]) == 0
    assert len(builds) == 3


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

    def corrupted(grad, *args):
        real_backward(grad * 1.05, *args)

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
        f"error: {bad}: line 2: field 'c_rel' holds a lone surrogate, which UTF-8 cannot encode"
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
    "pair_meta_with_unknown_task": _edit_index(lambda ix: ix["meta"].update(kind="pair", task="Z")),
    "meta_dtype_not_a_float": _edit_index(lambda ix: ix["meta"].update(dtype="int32")),
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


# Random malformed inputs at main: one mutation of a valid corpus record or
# of a valid checkpoint.  Unless a test says otherwise, a mutation always
# makes the input malformed, so the command must exit 2 with one error line,
# raise nothing and write nothing under its --out or --out-dir.
NULLABLE = ("q_new_subject", "q_rel_subject")
BAD_RANKS = ("NaN", "Infinity", "-Infinity", "1e400", "1" + "0" * 400, "0", "-2", "2.0")
NOT_UTF8 = (b"\xff", b"\x80", b"\xc3\x28", b"\xed\xa0\x80")  # the last: a surrogate, UTF-8 encoded


@pytest.fixture(scope="module")
def valid_inputs(tmp_path_factory):
    """A valid corpus, which every command accepts, and a valid checkpoint."""
    data = gradcheck_corpus()
    base = tmp_path_factory.mktemp("valid")
    corpus, ckpt = base / "corpus.jsonl", base / "model.ckpt"
    save_corpus(str(corpus), data)
    save_checkpoint(str(ckpt), CqaModel(vocabulary_for(data), m=4, d_w=4, d_feat=2))
    return base, corpus, ckpt


def run_on(base, command, data):
    """Run main on ``data`` written to a file in a fresh directory, the
    command's {bad} and {work}; returns the exit code, the stderr lines and
    the files the run left beside the input.  An exception main lets out
    fails the test."""
    with tempfile.TemporaryDirectory(dir=base) as work:
        bad = os.path.join(work, "bad")
        with open(bad, "wb") as fh:
            fh.write(data)
        argv = [arg.format(bad=bad, work=work) for arg in command]
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()) as err:
            code = main(argv)
        return code, err.getvalue().splitlines(), sorted(set(os.listdir(work)) - {"bad"})


def assert_refused(expected, code, err, written):
    assert code == expected
    assert len(err) == 1 and err[0].startswith("error: ")
    assert written == []


def corpus_mutation(draw, lines, labelled):
    """The corpus's JSONL ``lines`` with one record made malformed, as bytes;
    ``labelled`` says whether the reading command needs the labels."""
    k = draw(st.integers(0, len(lines) - 1))
    record = json.loads(lines[k])
    fields = [f for f in record if labelled or not f.startswith("label_")]
    kind = draw(st.sampled_from(["drop", "type", "surrogate", "rank", "duplicate_id", "not_utf8"]))
    if kind == "drop":
        del record[draw(st.sampled_from([f for f in fields if f not in NULLABLE]))]
    elif kind == "type":
        field = draw(st.sampled_from(fields))
        wrong = [1.5, True, [], {"a": 1}, "1" if field == "google_rank" else 7]
        record[field] = draw(st.sampled_from(wrong + ([] if field in NULLABLE else [None])))
    elif kind == "surrogate":  # json.dumps writes it as a \udXXX escape
        field = draw(st.sampled_from([f for f in fields if f != "google_rank"]))
        record[field] = (record[field] or "") + draw(st.sampled_from(["\ud800", "\udbff", "\udc00", "\udfff"]))
    elif kind == "rank":
        record["google_rank"] = "RANK"
    elif kind == "duplicate_id":
        record["id"] = json.loads(lines[draw(st.sampled_from([j for j in range(len(lines)) if j != k]))])["id"]
    text = json.dumps(record)
    if kind == "rank":
        text = text.replace('"RANK"', draw(st.sampled_from(BAD_RANKS)))
    data = "\n".join(lines[:k] + [text] + lines[k + 1 :]).encode("utf-8") + b"\n"
    if kind == "not_utf8":
        at = draw(st.integers(0, len(data)))
        data = data[:at] + draw(st.sampled_from(NOT_UTF8)) + data[at:]
    return data


TRAIN_SIZES = ("--epochs", "1", "--m", "4", "--d-w", "4", "--d-feat", "2", "--quiet")


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(draw=st.data())
def test_a_malformed_corpus_exits_2_with_one_error_line_and_writes_nothing(valid_inputs, draw):
    base, corpus, ckpt = valid_inputs
    command = draw.draw(st.sampled_from([
        ("train", "--corpus", "{bad}", "--dev", str(corpus), "--out-dir", "{work}/run", *TRAIN_SIZES),
        ("train", "--corpus", str(corpus), "--dev", "{bad}", "--out-dir", "{work}/run", *TRAIN_SIZES),
        ("extend", "--corpus", "{bad}", "--out", "{work}/out"),
        ("evaluate", "--model", str(ckpt), "--corpus", "{bad}", "--out", "{work}/out"),
        ("predict", "--model", str(ckpt), "--corpus", "{bad}", "--task", "C", "--out", "{work}/out"),
    ]))
    lines = corpus.read_text("utf-8").splitlines()
    assert_refused(2, *run_on(base, command, corpus_mutation(draw.draw, lines, command[0] != "predict")))


def index_edits(index, entry, token):
    """Edits of a checkpoint's JSON index that each leave it malformed:
    ``entry`` is one of its array entries and ``token`` one vocabulary token."""
    meta, params, vocab = index["meta"], index["params"], index["vocab"]
    return [
        *(lambda key=key: index.pop(key) for key in ("meta", "params", "vocab")),
        *(lambda key=key: meta.pop(key) for key in ("kind", "dtype", *SIZES)),
        *(lambda key=key, v=v: meta.update({key: v}) for key in SIZES for v in (0, -1, "4", 4.5, True)),
        # every size but max_len shapes an array
        *(lambda key=key: meta.update({key: meta[key] + 1}) for key in SIZES if key != "max_len"),
        *(lambda v=v: meta.update(kind=v) for v in ("tree", None, "pair")),
        *(lambda v=v: meta.update(dtype=v) for v in ("int32", "garbage", "float64", ",f4")),
        *(lambda key=key: entry.pop(key) for key in ("name", "dtype", "shape", "offset", "nbytes")),
        *(lambda v=v: entry.update(dtype=v) for v in ("<f8", "<i4", ">f4")),
        *(lambda v=v: entry.update(offset=v) for v in (-4, 10**9, "0")),
        lambda: entry.update(name="nope"),
        lambda: entry.update(shape=[n + 1 for n in entry["shape"]]),
        lambda: entry.update(nbytes=entry["nbytes"] + 4),
        lambda: params.remove(entry),
        lambda: params.append(dict(entry)),
        lambda: vocab.remove(token),
        lambda: vocab.append(token),
        lambda: vocab.append(5),
        lambda: index.update(vocab="tokens"),
    ]


def checkpoint_mutation(draw, data, kind):
    """The checkpoint bytes ``data`` with one mutation of ``kind``."""
    head_len = int.from_bytes(data[8:16], "little")
    if kind == "truncate":
        return data[: draw(st.integers(0, len(data) - 1))]
    if kind == "index":
        index = json.loads(data[16 : 16 + head_len])
        edits = index_edits(index, draw(st.sampled_from(index["params"])), draw(st.sampled_from(index["vocab"])))
        draw(st.sampled_from(edits))()
        head = json.dumps(index).encode("utf-8")
        return data[:8] + len(head).to_bytes(8, "little") + head + data[16 + head_len :]
    # flip one byte: of the header (the magic and the index length), or of the index and arrays
    at = draw(st.integers(0, 15) if kind == "header" else st.integers(16, len(data) - 1))
    return data[:at] + bytes([data[at] ^ draw(st.integers(1, 255))]) + data[at + 1 :]


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(kind=st.sampled_from(["truncate", "header", "index", "flip"]), draw=st.data())
def test_a_malformed_checkpoint_exits_2_with_one_error_line_and_writes_nothing(valid_inputs, kind, draw):
    base, corpus, ckpt = valid_inputs
    command = draw.draw(st.sampled_from([
        ("evaluate", "--model", "{bad}", "--corpus", str(corpus), "--tune-alpha", "--out", "{work}/out"),
        ("predict", "--model", "{bad}", "--corpus", str(corpus), "--task", "B", "--out", "{work}/out"),
    ]))
    code, err, written = run_on(base, command, checkpoint_mutation(draw.draw, ckpt.read_bytes(), kind))
    # the format has no checksum: a flipped index or array byte can leave a
    # valid checkpoint (another token, or other finite weights), which runs
    if kind == "flip" and code == 0:
        assert err == [] and written
        return
    assert_refused(2, code, err, written)


# Random malformed option files at main: one line of a valid --vectors or
# --config file made malformed.  A --vectors file is data (exit 2), a
# --config file configuration (exit 1); either way the command prints one
# error line, writes nothing and never starts training.  A mutated --config
# line can also be a copy of another line, valid but for its repeated key.
# A mutated --config never holds a larger valid epochs or size, and a size
# it holds is either refused by its rule or at least 10**18, which numpy
# refuses to allocate.
COMPONENT_NOT_A_NUMBER = ("x", "1,5", "0x1", "1e", "--1", "one")
COMPONENT_NOT_FINITE = ("nan", "NaN", "inf", "-inf", "1e39", "-1e39")
NOT_AN_INT = ("abc", "", "0x10", "1.5", "1e3")
NOT_A_FLOAT = ("abc", "", "0x10", "1,5")
VALID_CONFIG = {
    "epochs": "1", "batch_size": "4", "lr": "0.001", "rho": "0.9", "eps": "1e-06", "dropout_input": "0.4",
    "dropout_hidden": "0.7", "patience": "10", "stopping": "global", "seed": "0", "m": "4", "d_w": "4",
    "d_feat": "2", "filter_width": "3", "max_len": "100", "min_count": "1", "model": "mtl", "tasks": "ABC",
}
CONFIG_OUT_OF_RANGE = {
    **dict.fromkeys(("epochs", "batch_size", "patience", *SIZES, "min_count"), ("0", "-1")),
    "seed": ("-1",),
    **dict.fromkeys(("lr", "eps"), ("0", "-1", "inf", "nan", "1e-50", "1e300")),
    **dict.fromkeys(("rho", "dropout_input", "dropout_hidden"), ("1", "1.5", "-0.1", "nan", "inf")),
    "stopping": ("never", "", "GLOBAL"),
    "model": ("tree", "pair", ""),
    "tasks": ("AA", "Z", "", "ABCA"),
}
HUGE_SIZES = ("m", "d_w", "d_feat", "filter_width")  # max_len only bounds the texts


@pytest.fixture(scope="module")
def valid_option_files(valid_inputs):
    """The lines of a --vectors file (a header, then one line per vocabulary
    token) and of a --config file, which train accepts together."""
    base, corpus, _ = valid_inputs
    tokens = vocabulary_for(load_corpus(str(corpus))).tokens[2:]  # past <pad> and <unk>
    vectors = [f"{len(tokens) + 1} 4", *(f"{t} 0.1 -0.2 0.3 {k}" for k, t in enumerate(tokens)),
               "not_a_token 1 2 3 4"]
    config = [f"{key}={value}" for key, value in VALID_CONFIG.items()]
    (base / "vectors.txt").write_text("\n".join(vectors) + "\n")
    (base / "run.cfg").write_text("\n".join(config) + "\n")
    assert main(["train", "--corpus", str(corpus), "--dev", str(corpus), "--out-dir", str(base / "run"),
                 "--vectors", str(base / "vectors.txt"), "--config", str(base / "run.cfg"), "--quiet"]) == 0
    return vectors, config


def with_line(lines, k, line, draw, not_utf8):
    """``lines`` with line ``k`` replaced, as bytes; ``not_utf8`` also puts
    bytes that are not UTF-8 somewhere in that line."""
    raw = line.encode("utf-8")
    if not_utf8:
        at = draw(st.integers(0, len(raw)))
        raw = raw[:at] + draw(st.sampled_from(NOT_UTF8)) + raw[at:]
    before, after = ("".join(x + "\n" for x in part).encode("utf-8") for part in (lines[:k], lines[k + 1 :]))
    return before + raw + b"\n" + after


def vectors_mutation(draw, lines):
    """The --vectors ``lines`` with the header or one vocabulary line made malformed."""
    kind = draw(st.sampled_from(["header", "count", "not_a_number", "not_finite", "not_utf8", "repeated_token"]))
    if kind == "header":
        dim = draw(st.integers(0, 10**6).filter(lambda d: d != 4))
        return with_line(lines, 0, f"{len(lines) - 1} {dim}", draw, False)
    k = draw(st.integers(1, len(lines) - 2))  # the last line is out of the vocabulary
    token, *values = lines[k].split()
    if kind == "repeated_token":  # a copy of another vocabulary line
        token, *values = lines[draw(st.integers(1, len(lines) - 3).map(lambda j: j + (j >= k)))].split()
    if kind == "count":
        values = (values * 2)[: draw(st.integers(0, 8).filter(lambda n: n != 4))]
    elif kind in ("not_a_number", "not_finite"):
        values[draw(st.integers(0, 3))] = draw(st.sampled_from(
            COMPONENT_NOT_A_NUMBER if kind == "not_a_number" else COMPONENT_NOT_FINITE))
    return with_line(lines, k, " ".join([token, *values]), draw, kind == "not_utf8")


def config_mutation(draw, lines):
    """The --config ``lines`` with one line made malformed."""
    k = draw(st.integers(0, len(lines) - 1))
    key, _, value = lines[k].partition("=")
    kinds = ["unknown_key", "no_equals", "out_of_range", "not_utf8", "repeated_key"]
    kinds += ["not_a_number"] if cli._CONFIG_KEYS[key] in (int, float) else []
    kinds += ["huge"] if key in HUGE_SIZES else []
    kind = draw(st.sampled_from(kinds))
    if kind == "unknown_key":
        key = draw(st.sampled_from([key + "x", key.upper(), "alpha", "vectors"]))
    elif kind == "out_of_range":
        value = draw(st.sampled_from(CONFIG_OUT_OF_RANGE[key]))
    elif kind == "not_a_number":
        value = draw(st.sampled_from(NOT_AN_INT if cli._CONFIG_KEYS[key] is int else NOT_A_FLOAT))
    elif kind == "huge":
        value = str(draw(st.integers(10**18, 10**40)))
    elif kind == "repeated_key":  # a copy of another valid line
        key, _, value = lines[draw(st.integers(0, len(lines) - 2).map(lambda j: j + (j >= k)))].partition("=")
    line = f"{key}{draw(st.sampled_from(['', ' ', ':'])) if kind == 'no_equals' else '='}{value}"
    return with_line(lines, k, line, draw, kind == "not_utf8")


def _never_train(*args, **kwargs):
    pytest.fail("training started on a malformed option file")


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(draw=st.data())
def test_a_malformed_vectors_file_exits_2_with_one_error_line_and_writes_nothing(valid_inputs, valid_option_files,
                                                                                 draw):
    base, corpus, _ = valid_inputs
    command = ("train", "--corpus", str(corpus), "--dev", str(corpus), "--out-dir", "{work}/run",
               "--vectors", "{bad}", *TRAIN_SIZES)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(cli, "train", _never_train)
        assert_refused(2, *run_on(base, command, vectors_mutation(draw.draw, valid_option_files[0])))


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(draw=st.data())
def test_a_malformed_config_file_exits_1_with_one_error_line_and_writes_nothing(valid_inputs, valid_option_files,
                                                                                draw):
    base, corpus, _ = valid_inputs
    command = ("train", "--corpus", str(corpus), "--dev", str(corpus), "--out-dir", "{work}/run",
               "--config", "{bad}", "--quiet")
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(cli, "train", _never_train)
        assert_refused(1, *run_on(base, command, config_mutation(draw.draw, valid_option_files[1])))


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
    # evaluate scores every task and names the first, A; predict --task C scores C alone
    for argv, task in (
        (["evaluate", "--tune-alpha", "--out", str(tmp_path / "e.tsv")], "A"),
        (["predict", "--task", "C", "--out", str(tmp_path / "p.tsv")], "C"),
    ):
        assert main([*argv[:1], "--model", str(ckpt), "--corpus", str(corpus), *argv[1:]]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == [f"error: non-finite score nan for task {task} on triple {data[0].id!r}"]
    assert list(tmp_path.glob("*.tsv")) == []


@pytest.mark.parametrize("sign", [1, -1])
def test_a_head_whose_sums_overflow_exits_3_whatever_the_summation_order(tmp_path, capsys, sign):
    # every head-A value at +-3e38: the hidden pre-activations overflow to
    # +-inf, where tanh would saturate to +-1 and every A score would be 1.0
    data = conjunction_corpus(4, seed=0)
    corpus, ckpt = tmp_path / "dev.jsonl", tmp_path / "huge.ckpt"
    save_corpus(str(corpus), data)
    model = CqaModel(vocabulary_for(data), m=8, d_w=6)
    for p in model.parameters():
        if p.name.startswith("head_A."):
            p.data[...] = sign * 3e38
    save_checkpoint(str(ckpt), model)
    assert main(["evaluate", "--model", str(ckpt), "--corpus", str(corpus), "--tasks", "A"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [f"error: non-finite score nan for task A on triple {data[0].id!r}"]


def test_a_non_finite_head_that_is_not_requested_does_not_fail_the_command(tmp_path, capsys, monkeypatch):
    # a checkpoint holds only finite weights, and finite head weights give
    # finite scores (a head reads tanh outputs), so the loaded model's head A
    # is made non-finite in place: its scores are nan, B's and C's finite
    data = conjunction_corpus(4, seed=0)
    corpus, ckpt = tmp_path / "dev.jsonl", tmp_path / "model.ckpt"
    save_corpus(str(corpus), data)
    save_checkpoint(str(ckpt), CqaModel(vocabulary_for(data), m=4, d_w=3, d_feat=2))

    def load_with_head_a_nan(path):
        model = load_checkpoint(path)
        model.heads["A"].out_b.data[...] = np.nan
        return model

    monkeypatch.setattr(cli, "load_checkpoint", load_with_head_a_nan)
    out = tmp_path / "p.tsv"
    assert main(["predict", "--model", str(ckpt), "--corpus", str(corpus), "--task", "C", "--out", str(out)]) == 0
    assert capsys.readouterr().err == ""
    assert len(out.read_text().splitlines()) == 1 + len(data)
    assert main(["evaluate", "--model", str(ckpt), "--corpus", str(corpus), "--tasks", "A"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [f"error: non-finite score nan for task A on triple {data[0].id!r}"]



def test_an_overflowing_comment_encoder_prints_no_warning_when_it_runs_on_the_worker(tmp_path):
    # the comment encoder's weights near the float32 maximum overflow in its
    # matmuls; the command ignores overflow, and so must the worker thread that
    # runs the comment encoder of each of the call's two passes
    data = conjunction_corpus(40, seed=0)  # 160 triples
    corpus, ckpt = tmp_path / "dev.jsonl", tmp_path / "huge.ckpt"
    save_corpus(str(corpus), data)
    model = CqaModel(vocabulary_for(data), m=4, d_w=3, d_feat=2)
    rng = np.random.default_rng(0)
    for p in model.parameters():
        if p.name.startswith("c_encoder."):
            p.data[...] = np.where(rng.random(p.data.shape) < 0.5, -3e38, 3e38)
    save_checkpoint(str(ckpt), model)
    src = os.path.dirname(os.path.dirname(cqarank.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run(
        [sys.executable, "-m", "cqarank.cli", "evaluate", "--model", str(ckpt), "--corpus", str(corpus)],
        capture_output=True,
        text=True,
        env=env,
    )
    # whether the overflow ends as +-1 or nan depends on the BLAS's summation
    # order; either way stderr holds at most the one error line
    err = proc.stderr.splitlines()
    assert (proc.returncode, err) == (0, []) or (proc.returncode == 3 and len(err) == 1 and err[0].startswith("error: "))

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
# task list that is empty or repeats a task, and a --task or --tasks the chosen
# model does not read (from a flag or from --config)
BAD_TRAIN_OPTIONS = {
    "m_zero": (["--m", "0"], None),
    "d_w_zero": (["--d-w", "0"], None),
    "negative_lr": (["--lr", "-1"], None),
    "rho_above_one": (["--rho", "1.5"], None),
    "zero_eps": (["--eps", "0"], None),
    "infinite_eps": (["--eps", "inf"], None),
    "eps_zero_in_float32": (["--eps", "1e-46"], None),
    "eps_infinite_in_float32": (["--eps", "1e300"], None),
    "lr_zero_in_float32": (["--lr", "1e-50"], None),
    "dropout_input_above_one": (["--dropout-input", "1.5"], None),
    "dropout_hidden_one": (["--dropout-hidden", "1"], None),
    "negative_seed": (["--seed", "-1"], None),
    "repeated_task": (["--tasks", "AA"], None),
    "repeated_task_in_config": ([], "tasks=CAC\n"),
    "empty_tasks": (["--tasks", ""], None),
    "empty_tasks_in_config": ([], "tasks=\n"),
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


@pytest.mark.parametrize("message", ["Unable to allocate 2.00 TiB for an array with shape (1000000000, 55, 5)", ""])
def test_a_network_too_large_for_memory_exits_1_with_one_error_line(tmp_path, corpus_path, capsys, monkeypatch,
                                                                    message):
    # the network build runs out of memory, with numpy's message or with none
    def build(*args, **kwargs):
        raise MemoryError(message)

    monkeypatch.setattr(cli, "CqaModel", build)
    out_dir = tmp_path / "run"
    for argv in (train_args(corpus_path, out_dir), ["gradcheck"]):
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == [f"error: {message or 'out of memory'}"]
    assert not out_dir.exists()


@pytest.mark.parametrize("flags", [["--lr", "-1"], ["--rho", "1.5"], ["--eps", "0"], ["--dropout-input", "1.5"],
                                   ["--dropout-hidden", "-0.1"], ["--seed", "-1"], ["--eps", "inf"],
                                   ["--eps", "1e-46"], ["--eps", "1e300"], ["--lr", "1e-50"]])
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
    "unknown_model_in_config": ([], "model=tree\n", "model must be 'mtl' or 'pair', got 'tree'"),
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


def test_a_config_line_without_a_key_is_refused_with_its_path_and_line(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("epochs=1\n = 5\n")
    missing, out_dir = str(tmp_path / "missing.jsonl"), tmp_path / "run"
    assert main(["train", "--corpus", missing, "--dev", missing, "--out-dir", str(out_dir), "--config", str(cfg)]) == 1
    assert capsys.readouterr().err.splitlines() == [f"error: {cfg}: line 2: expected key=value, got '= 5'"]
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
        for spec, parsed in [("AA", "'A', 'A'"), ("AD", "'A', 'D'"), ("", ""), (",", "")]:
            code = main(["evaluate", "--model", model, "--corpus", corpus, "--tasks", spec,
                         "--out", str(tmp_path / "p.tsv")])
            captured = capsys.readouterr()
            assert code == 1
            assert captured.out == ""
            assert captured.err.splitlines() == [
                f"error: tasks must be one or more of A, B, C, none twice, got [{parsed}]"
            ]
            assert not list(tmp_path.glob("p*.tsv"))


@pytest.mark.parametrize("field", ["id", "group"])
@pytest.mark.parametrize("char", ["\t", "\n", "\r"])
def test_a_tab_or_line_break_in_an_id_or_group_exits_2_before_writing(tmp_path, conjunction_split, capsys,
                                                                      field, char):
    train_path, dev_path = conjunction_split
    assert main(train_args(train_path, tmp_path / "run", dev_path=dev_path)) == 0
    capsys.readouterr()
    records = [dataclasses.asdict(t) for t in load_corpus(dev_path)]
    records[2][field] = f"x{char}y"
    (tmp_path / "bad.jsonl").write_text("".join(json.dumps(r) + "\n" for r in records), encoding="utf-8")
    message = f"error: {tmp_path / 'bad.jsonl'}: line 3: triple {records[2]['id']!r}: {field} must not hold a tab or line break"
    for args in (["predict", "--task", "C"], ["evaluate", "--tasks", "B"]):
        out = tmp_path / "p.tsv"
        code = main([*args, "--model", str(tmp_path / "run" / "model.ckpt"), "--corpus", str(tmp_path / "bad.jsonl"),
                     "--out", str(out)])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err.splitlines() == [message]
        assert not out.exists()


def test_a_bad_dev_record_names_the_dev_file(tmp_path, conjunction_split, capsys):
    train_path, dev_path = conjunction_split
    records = [dataclasses.asdict(t) for t in load_corpus(dev_path)]
    records[2]["group"] = "x\ty"
    bad = tmp_path / "bad_dev.jsonl"
    bad.write_text("".join(json.dumps(r) + "\n" for r in records), encoding="utf-8")
    out_dir = tmp_path / "run"
    assert main(train_args(train_path, out_dir, dev_path=str(bad))) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [
        f"error: {bad}: line 3: triple {records[2]['id']!r}: group must not hold a tab or line break"
    ]
    assert not out_dir.exists()


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


def test_config_file_merging(tmp_path, corpus_path, capsys):
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

    capsys.readouterr()
    assert main([*args[:8], str(tmp_path), *args[9:]]) == 1  # --config names a directory
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: cannot read config file: ")

    cfg.write_bytes(b"epochs=\xff\n")
    assert main(args) == 1
    assert capsys.readouterr().err.splitlines() == [
        f"error: {cfg}: 'utf-8' codec can't decode byte 0xff in position 7: invalid start byte"
    ]

    # a key set twice is refused, not read as its last value
    cfg.write_text("epochs=1\nm=4\nepochs=2\n")
    out_dir3 = tmp_path / "run3"
    assert main(args[:6] + [str(out_dir3)] + args[7:]) == 1
    assert capsys.readouterr().err.splitlines() == [f"error: {cfg}: line 3: 'epochs' is already set on line 1"]
    assert not out_dir3.exists()


def test_identical_runs_produce_identical_artifacts(tmp_path, corpus_path):
    dirs = [tmp_path / "r1", tmp_path / "r2"]
    for d in dirs:
        assert main(train_args(corpus_path, d, "--seed", "3")) == 0
    a, b = dirs
    assert (a / "model.ckpt").read_bytes() == (b / "model.ckpt").read_bytes()
    assert (a / "history.csv").read_text() == (b / "history.csv").read_text()


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="the CLI keeps freed heap through glibc's mallopt")
def test_a_repeated_train_stops_faulting(tmp_path, conjunction_split):
    """The CLI keeps the memory a run frees, so a third identical run in one
    process reuses it: about 20 minor page faults, where glibc's default
    trimming and unmapping cost tens of thousands."""
    import resource  # POSIX only

    train_path, dev_path = conjunction_split
    args = ["train", "--corpus", train_path, "--dev", dev_path, "--quiet"]
    for run in ("r1", "r2"):
        assert main([*args, "--out-dir", str(tmp_path / run)]) == 0
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    assert main([*args, "--out-dir", str(tmp_path / "r3")]) == 0
    faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before
    assert faults < 200


@pytest.mark.parametrize("platform_without", ["no_mallopt", "no_dlopen_null"])
def test_train_without_mallopt_writes_the_same_artifacts(tmp_path, corpus_path, monkeypatch, platform_without):
    """Where the C library has no mallopt (macOS), or CDLL(None) raises
    (Windows), the CLI leaves the allocator alone, and a run writes what it
    writes where mallopt is found."""
    assert main(train_args(corpus_path, tmp_path / "with", "--seed", "3")) == 0
    lookups = []

    def no_mallopt(name):
        lookups.append(name)
        if platform_without == "no_dlopen_null":
            raise TypeError("argument of type 'NoneType' is not iterable")
        return object()

    monkeypatch.setattr(cli.ctypes, "CDLL", no_mallopt)
    assert main(train_args(corpus_path, tmp_path / "without", "--seed", "3")) == 0
    assert lookups == [None]
    for name in ("model.ckpt", "history.csv"):
        assert (tmp_path / "with" / name).read_bytes() == (tmp_path / "without" / name).read_bytes()


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
